"""Greedy mining and selection of class cluster descriptions.

Each positive sample seeds one candidate: starting from the seed's own
description, the remaining positives are visited most-similar first and
greedily merged in, keeping a merge only when the generalized description
still describes no negative sample.  The surviving candidates are deduplicated
and a greedy maximum-coverage pass picks the final rule set.  A class's traces
run in lockstep, so each distinct description is scored and expanded once,
and each round scores all of its descriptions in a few batched numpy calls
(``_trace``).  A description's first choice is one masked argmax of its
scores; its positives are ranked in full only after that merge is rejected.
Each question has one owner: the class's ``ranker.SimilarityRanker`` says
how similar each positive is to a description and which positives it
describes, and the dataset's ``NegativeAttributeIndex`` only which negative
it describes.  Mining runs in one process, since the lockstep sharing spans
every seed of a class.

numpy is used only through ``ranker``, which ``mine_ccds`` and ``_trace``
import when they run, so importing this module (as ``data``, ``pipeline``
and the CLI do) loads no numpy.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

# ``similarity`` is the scalar specification that SimilarityRanker's scores
# equal bit for bit; it stays importable here as ``mining.similarity``.
from .asd import ASD, entity_from_ids, entity_ids, merge, similarity, subsumes  # noqa: F401
from .errors import InseparableDataError

if TYPE_CHECKING:
    import numpy as np

    from .ranker import SimilarityRanker


@dataclass(frozen=True)
class Sample:
    """A data point: stable id, class label, description, optional raw pointer."""

    id: str
    label: str
    asd: ASD
    raw_ref: str | None = None


@dataclass(frozen=True)
class ClassClusterDescription:
    """A description that describes only samples of one class.

    coverage holds the exact ids of the positives it describes; it is computed
    by the miner and never empty (a candidate always covers its seed).
    """

    asd: ASD
    class_label: str
    coverage: frozenset[str]


# ----------------------------------------------------------------------------
# negative checking
# ----------------------------------------------------------------------------

class NegativeAttributeIndex:
    """Exact entity-containment index over a sequence of samples: which
    negative a description describes, and which ids a class holds.

    The distinct entities of all samples are interned once.  ``_holders[k]``
    is a bitset of the sample positions that hold interned entity ``k``, and
    ``_attr_entities[a]`` a bitset of the interned entities that contain
    attribute ``a``.  An entity contains ``g`` exactly when it contains every
    attribute of ``g``, so the samples holding a superset of ``g`` are the
    holders of the entities in the AND of ``_attr_entities`` over ``g``'s
    attributes; that bitset is memoized per ``g``.  The samples a description
    describes are the AND of those bitsets over its entities, with no
    subsumption scan, and the results always equal the naive linear scan.

    Checks consider only the samples flagged in ``negatives`` (at first,
    every sample).  ``for_class`` returns a view masked to one class's
    negatives that shares the memo, so one index built over a whole dataset
    serves every class, and ``members`` lets mining check a class's
    positives against it.  Sample ids must be unique (``ValueError``).
    """

    def __init__(self, samples: Sequence[Sample]):
        self._ids = [s.id for s in samples]
        if len(set(self._ids)) != len(self._ids):
            raise ValueError("sample ids must be unique")
        self._all = (1 << len(samples)) - 1
        self.negatives = self._all
        labelled: dict[str, list[int]] = {}
        holding: dict[int, list[int]] = {}
        for pos, sample in enumerate(samples):
            labelled.setdefault(sample.label, []).append(pos)
            for e in sample.asd.entities:
                holding.setdefault(e, []).append(pos)
        self._labelled = labelled
        self._holders = [entity_from_ids(positions) for positions in holding.values()]
        self._all_entities = (1 << len(holding)) - 1
        containing: dict[int, list[int]] = {}
        for k, e in enumerate(holding):
            for a in entity_ids(e):
                containing.setdefault(a, []).append(k)
        self._attr_entities = {a: entity_from_ids(ks) for a, ks in containing.items()}
        self._memo: dict[int, int] = {}

    def for_class(self, label: str) -> "NegativeAttributeIndex":
        """A view whose negatives are the samples not labelled ``label``."""
        view = copy.copy(self)
        view.negatives = self._all & ~entity_from_ids(self._labelled.get(label, ()))
        return view

    def members(self, label: str) -> set[str]:
        """Ids of the samples labelled ``label``."""
        ids = self._ids
        return {ids[pos] for pos in self._labelled.get(label, ())}

    def _holding(self, g: int) -> int:
        """Bitset of the samples holding a superset of entity ``g``."""
        entities = self._all_entities
        for a in entity_ids(g):
            entities &= self._attr_entities.get(a, 0)
            if not entities:
                break
        holders = self._holders
        bits = 0
        while entities:
            low = entities & -entities
            entities ^= low
            bits |= holders[low.bit_length() - 1]
        self._memo[g] = bits
        return bits

    def described(self, candidate: ASD, mask: int) -> int:
        """Bitset of the samples in ``mask`` that the candidate describes."""
        memo = self._memo
        for g in candidate.entities:
            bits = memo.get(g)
            mask &= bits if bits is not None else self._holding(g)
            if not mask:
                break
        return mask

    def first_described(self, candidate: ASD) -> str | None:
        """Id of the first negative the candidate describes, or None."""
        bits = self.described(candidate, self.negatives)
        return self._ids[(bits & -bits).bit_length() - 1] if bits else None


def check_ccd(candidate: ASD, negatives: Sequence[Sample]) -> bool:
    """True iff the candidate describes no negative sample, by a naive scan.

    A candidate holding only the empty entity describes everything, so it
    passes only when there are no negatives at all.
    """
    return not any(subsumes(candidate, n.asd) for n in negatives)


# ----------------------------------------------------------------------------
# seed traces
# ----------------------------------------------------------------------------

def _trace(seeds: Sequence[int], index: NegativeAttributeIndex,
           ranker: SimilarityRanker) -> dict[ASD, np.ndarray]:
    """Run the given seeds' greedy generalizations in lockstep and return
    their final descriptions, each mapped to the ranker positions of the
    positives it describes, as its row of ``ranker.scores`` marked them.

    ``seeds`` are ranker positions.  A seed's trace visits the positives it
    has not yet visited, most similar to its description first, and moves
    to the first merge that describes no negative (the class view
    ``index``); it ends when none does.  Each expanded description lies on
    some seed's path, so those that end a walk are the seeds' finals.

    Let the description D be an antichain: an antichain seed, or any
    accepted merge (``merge`` returns an antichain).  Two kinds of positive
    can no longer change a trace at D.  One that D describes merges with D
    into D itself, and stays described by every later, more general
    description.  One whose merge with some earlier description was rejected
    is rejected again: its merge with D subsumes the rejected merge, so it
    describes the same negative.  So the step from D depends on D alone,
    whichever trace reached it, and each distinct D is expanded once
    (``expanded``).  A seed that is not an antichain takes one step of its
    own: it keeps its described positives (the first it visits trims it,
    because ``merge(D, p) == D.trimmed`` whenever D subsumes p) and
    excludes only itself.

    Twins, seeds of one description D, share one frontier entry, which
    excludes only the last of them, and any twin's trace stands for all.  If
    D is an antichain, it describes every twin, so all are cleared before
    the first choice.  If not, only a twin scores 1.0 against D, so the
    trace first visits another twin and steps to ``D.trimmed``, which is
    sound because it describes what D describes, and which describes every
    twin again.

    The traces advance breadth first.  ``frontier`` maps each description
    still to expand to the positives left to visit there, flagged by ranker
    position: those not visited by a trace that reached it, the flags of
    several such traces ANDed together (a positive any of them cleared is
    described or rejected at D).  Each round scores its whole frontier in a
    few batched ``ranker.scores`` calls, which also say which positives each
    description describes, clears those at an antichain, and walks each
    description's positives left to visit; the new descriptions reached form
    the next round's frontier.

    The walk is lazy, because nearly every description accepts its first
    choice.  The first choices of a whole batch come from one masked argmax
    over the scores of the positives left to visit (``_firsts``): the
    highest score, ties to the lowest position, which is where a stable
    ranking puts it.  A full ranking of a description's row is built only
    after that first merge is rejected (``_visits``).
    """
    from .ranker import _firsts, _visits, np

    expanded: set[ASD] = set()
    finals: dict[ASD, np.ndarray] = {}
    frontier: dict[ASD, np.ndarray] = {}
    for seed in seeds:
        remaining = np.ones(len(ranker.asds), dtype=bool)
        remaining[seed] = False
        frontier[ranker.asds[seed]] = remaining
    while frontier:
        reached: dict[ASD, np.ndarray] = {}
        for batch in ranker.batches(list(frontier)):
            scores, described = ranker.scores(batch)
            for description, covers in zip(batch, described):
                if description.is_antichain:
                    frontier[description] &= ~covers
            firsts = _firsts(scores, np.stack([frontier[d] for d in batch]))
            for description, row, covers, first in zip(batch, scores, described, firsts):
                remaining = frontier[description]
                expanded.add(description)
                for position in _visits(row, remaining, first):
                    # No positive left to visit is described by the
                    # description, or it is not an antichain, so every
                    # merge changes it.
                    generalized = merge(description, ranker.asds[position])
                    if index.first_described(generalized) is None:
                        if generalized in reached:
                            reached[generalized] &= remaining
                        elif generalized not in expanded and generalized not in frontier:
                            reached[generalized] = remaining
                        break
                else:   # no sound merge: the description is final
                    finals[description] = np.flatnonzero(covers)
        frontier = reached
    return finals


# No pool is left to initialize: only perfbench/spans.py reads this name, and
# its install wraps it unconditionally.
_pool_init = None


# ----------------------------------------------------------------------------
# mining
# ----------------------------------------------------------------------------

def mine_ccds(positives: Sequence[Sample],
              index: NegativeAttributeIndex) -> list[ClassClusterDescription]:
    """Mine candidate class descriptions from one class versus the rest.

    ``index`` is mining's only view of the negatives: its samples of the
    positives' label must be exactly the positives, and every other sample
    it holds is a negative, so one index over ``dataset.samples`` serves
    every class.  The checks cost O(positives): ``ValueError`` for an empty
    positive set, or one that is not exactly the index's samples labelled
    as its first positive is.  ``InseparableDataError`` when some positive's
    description already describes a negative (no sound rule can cover that
    positive).

    Returns the deduplicated candidates in canonical order, each carrying
    its exact positive coverage, as ``_trace`` took it from the ranker.  The
    positives are put in id order once, so a similarity tie goes to the
    smaller id; every one of them seeds a trace, and all are traced in one
    lockstep ``_trace`` over the index's class view and one ranker of the
    positives, in this process.
    """
    if not positives:
        raise ValueError("cannot mine from an empty positive set")
    label = positives[0].label
    members = index.members(label)
    if len(members) != len(positives) or members != {p.id for p in positives}:
        raise ValueError(f"the positives are not the index's samples labelled {label!r}")
    index = index.for_class(label)
    for p in positives:
        hit = index.first_described(p.asd)
        if hit is not None:
            raise InseparableDataError(p.id, hit, label)

    from .ranker import SimilarityRanker

    positives = sorted(positives, key=lambda p: p.id)
    ranker = SimilarityRanker([p.asd for p in positives])
    finals = _trace(range(len(positives)), index, ranker)

    # Every accepted merge passed the index check inside its trace; the one
    # naive soundness scan runs in pipeline.run_pipeline.
    return [ClassClusterDescription(
                asd, label, frozenset(positives[i].id for i in finals[asd].tolist()))
            for asd in sorted(finals, key=lambda a: a.sort_key)]


# ----------------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectionStep:
    """One greedy pick with its marginal and cumulative coverage."""

    ccd: ClassClusterDescription
    newly_covered: int
    cumulative_covered: int


def greedy_cover(coverages: Sequence[frozenset[str]], k: int | None = None,
                 tie_keys: Sequence[tuple] | None = None) -> list[int]:
    """Greedy maximum-coverage pick order over coverage sets.

    Picks the set with the largest marginal gain until k picks are made
    (k None: until nothing new can be covered).  Ties break by tie_keys then
    by position, so the order is deterministic.  The greedy value is within a
    factor (1 - 1/e) of the optimal coverage for any k.
    """
    n = len(coverages)
    keys = tie_keys if tie_keys is not None else [()] * n
    covered: set[str] = set()
    picks: list[int] = []
    available = set(range(n))
    while available and (k is None or len(picks) < k):
        best = None
        best_rank = None
        for i in available:
            gain = len(coverages[i] - covered)
            rank = (-gain, keys[i], i)
            if best_rank is None or rank < best_rank:
                best, best_rank = i, rank
        assert best is not None
        if len(coverages[best] - covered) == 0:
            break
        picks.append(best)
        available.remove(best)
        covered |= coverages[best]
    return picks


def select_ccds(candidates: Sequence[ClassClusterDescription],
                positives: Sequence[Sample],
                k: int | None = None) -> tuple[list[SelectionStep], list[str]]:
    """Pick a small rule set by greedy coverage.

    With k, at most k rules are picked (maximum coverage); without it, picking
    continues until every positive is covered or no candidate helps (set
    cover).  Returns the picks in order plus the ids left uncovered.  Ties
    break toward fewer total attributes, then canonical description order.
    """
    universe = {p.id for p in positives}
    coverages = [c.coverage for c in candidates]
    tie_keys = [(c.asd.total_attributes, c.asd.sort_key) for c in candidates]
    picks = greedy_cover(coverages, k, tie_keys)
    steps = []
    covered: set[str] = set()
    for i in picks:
        gained = len(coverages[i] - covered)
        covered |= coverages[i]
        steps.append(SelectionStep(candidates[i], gained, len(covered)))
    uncovered = sorted(universe - covered)
    return steps, uncovered
