"""Greedy mining and selection of class cluster descriptions.

Each positive sample seeds one candidate: starting from the seed's own
description, the remaining positives are visited most-similar first and
greedily merged in, keeping a merge only when the generalized description
still describes no negative sample.  The surviving candidates are deduplicated
and a greedy maximum-coverage pass picks the final rule set.
"""
from __future__ import annotations

import copy
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# ``similarity`` is the scalar specification that SimilarityRanker's scores
# equal bit for bit; it stays importable here as ``mining.similarity``.
from .asd import ASD, entity_ids, merge, similarity, subsumes  # noqa: F401
from .errors import ConfigError, InseparableDataError


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
    """Exact entity-containment index over a sequence of samples.

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
    serves every class.
    """

    def __init__(self, samples: Sequence[Sample]):
        self._ids = [s.id for s in samples]
        self._all = (1 << len(samples)) - 1
        self.negatives = self._all
        labelled: dict[str, list[int]] = {}
        holding: dict[int, list[int]] = {}
        for pos, sample in enumerate(samples):
            labelled.setdefault(sample.label, []).append(pos)
            for e in sample.asd.entities:
                holding.setdefault(e, []).append(pos)
        self._label_bits = {label: _bitset(ps) for label, ps in labelled.items()}
        self._holders = [_bitset(positions) for positions in holding.values()]
        self._all_entities = (1 << len(holding)) - 1
        containing: dict[int, list[int]] = {}
        for k, e in enumerate(holding):
            for a in entity_ids(e):
                containing.setdefault(a, []).append(k)
        self._attr_entities = {a: _bitset(ks) for a, ks in containing.items()}
        self._memo: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def for_class(self, label: str) -> "NegativeAttributeIndex":
        """A view whose negatives are the samples not labelled ``label``."""
        view = copy.copy(self)
        view.negatives = self._all & ~self.labelled(label)
        return view

    def labelled(self, label: str) -> int:
        """Bitset of the sample positions labelled ``label``."""
        return self._label_bits.get(label, 0)

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

    def ids(self, bits: int) -> list[str]:
        """Ids of the samples flagged in ``bits``, in sample order."""
        ids = []
        while bits:
            low = bits & -bits
            bits ^= low
            ids.append(self._ids[low.bit_length() - 1])
        return ids

    def first_described(self, candidate: ASD) -> str | None:
        """Id of the first negative the candidate describes, or None."""
        bits = self.described(candidate, self.negatives)
        return self._ids[(bits & -bits).bit_length() - 1] if bits else None


def _bitset(positions: Iterable[int]) -> int:
    bits = 0
    for pos in positions:
        bits |= 1 << pos
    return bits


def check_ccd(candidate: ASD, negatives: Sequence[Sample]) -> bool:
    """True iff the candidate describes no negative sample, by a naive scan.

    A candidate holding only the empty entity describes everything, so it
    passes only when there are no negatives at all.
    """
    return all(not subsumes(candidate, n.asd) for n in negatives)


# ----------------------------------------------------------------------------
# similarity ordering
# ----------------------------------------------------------------------------

_WORD = (1 << 64) - 1


class SimilarityRanker:
    """Orders one class's positives by similarity to a reference description.

    The distinct entities of the positives are interned once as rows of
    ``uint64`` words (one word per 64 attributes), and each positive is kept
    as a padded column of indices into them.  For a reference description
    one R x U Jaccard table (R reference entities, U interned entities)
    scores every positive at once.  The per-entity best matches are added
    one at a time, in entity order, from 0.0, exactly as ``asd.similarity``
    adds them, so each score equals ``similarity(reference, positive)`` bit
    for bit; ``np.sum`` would add in another order.

    The ranking of all positives (descending score, then ascending id) is
    memoized per distinct reference, so re-sorting a trace's remaining
    positives only filters it.  References are merges of positives, so they
    are never wider than the interned entities.
    """

    def __init__(self, positives: Sequence[tuple[str, ASD]]):
        # object dtype: ids compare as Python strings
        self.ids = np.array([sid for sid, _ in positives], dtype=object)
        self.asds = [asd for _, asd in positives]
        interned: dict[int, int] = {}
        rows = []
        for asd in self.asds:
            if not asd.entities:
                raise ValueError("similarity is undefined for an empty description")
            rows.append([interned.setdefault(e, len(interned)) for e in asd.entities])
        width = max((e.bit_length() for e in interned), default=0)
        self._words = max(1, -(-width // 64))
        self._entities = self._pack(tuple(interned))
        # _slots[k, p] is the k-th entity of positive p.  Padding points one
        # past the interned entities, at a column of the Jaccard table that
        # stays 0.0: it never wins a maximum and adding it leaves a sum
        # unchanged.
        self._slots = np.full((max(map(len, rows), default=0), len(rows)),
                              len(interned), dtype=np.intp)
        for p, entities in enumerate(rows):
            self._slots[:len(entities), p] = entities
        self._counts = np.array([len(r) for r in rows], dtype=np.float64)
        # Stable sorting of this id order by score breaks ties by ascending id.
        self._by_id = np.argsort(self.ids, kind="stable")
        self._memo: dict[ASD, np.ndarray] = {}

    def _pack(self, entities: Sequence[int]) -> np.ndarray:
        words = [[(e >> (64 * w)) & _WORD for w in range(self._words)] for e in entities]
        return np.array(words, dtype=np.uint64).reshape(len(entities), self._words)

    def scores(self, reference: ASD) -> np.ndarray:
        """``similarity(reference, p)`` for every positive p, in input order."""
        if not reference.entities:
            raise ValueError("similarity is undefined for an empty description")
        if reference.attribute_union >> (64 * self._words):
            raise ValueError("reference is wider than the interned entities")
        ref = self._pack(reference.entities)[:, None, :]
        inter = np.bitwise_count(ref & self._entities).sum(axis=2)
        union = np.bitwise_count(ref | self._entities).sum(axis=2)
        table = np.zeros((len(reference.entities), len(self._entities) + 1))
        # Two empty entities score 1.0, as in asd.jaccard.
        table[:, :-1] = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
        forward = np.zeros(len(self.asds))
        for best in table[:, self._slots].max(axis=1):  # per reference entity
            forward += best
        backward = np.zeros(len(self.asds))
        for best in table.max(axis=0)[self._slots]:     # per positive entity
            backward += best
        return (0.5 * (forward / len(reference.entities))
                + 0.5 * (backward / self._counts))

    def ranking(self, reference: ASD) -> np.ndarray:
        """Positions of all positives, most similar first, ties by ascending id."""
        order = self._memo.get(reference)
        if order is None:
            by_id = self._by_id
            order = by_id[np.argsort(-self.scores(reference)[by_id], kind="stable")]
            order = self._memo[reference] = order.astype(np.int32)
        return order


def _sort_by_similarity(remaining: np.ndarray, reference: ASD,
                        ranker: SimilarityRanker) -> np.ndarray:
    """Positions flagged in ``remaining``, by descending similarity, then id."""
    order = ranker.ranking(reference)
    return order[remaining[order]]


# ----------------------------------------------------------------------------
# seed traces
# ----------------------------------------------------------------------------

def _trace(seed: int, index: NegativeAttributeIndex, ranker: SimilarityRanker) -> ASD:
    """Run one seed's greedy generalization and return its final description.

    ``seed`` is the ranker position of the seed.  ``remaining`` flags, by
    ranker position, the positives still to visit (at first, all but the
    seed); an accepted merge clears the flags of those visited before it.
    """
    remaining = np.ones(len(ranker.asds), dtype=bool)
    remaining[seed] = False
    description = ranker.asds[seed]
    queue = _sort_by_similarity(remaining, description, ranker)
    visited = 0
    while visited < len(queue):
        candidate = ranker.asds[queue[visited]]
        visited += 1
        if subsumes(description, candidate):
            # The merge of comparable descriptions is the general one, trimmed.
            generalized = description.trimmed
        else:
            generalized = merge(description, candidate)
        # Accepted no-ops and rejections leave the ordering untouched.
        if generalized != description and index.first_described(generalized) is None:
            description = generalized
            remaining[queue[:visited]] = False
            queue = _sort_by_similarity(remaining, description, ranker)
            visited = 0
    return description


# Worker-side state for parallel mining: the class index and ranker that
# mine_ccds built, inherited under fork and pickled once per worker otherwise.
# "positives" lists (id, ASD) pairs for perfbench/spans.py, which reads it.
_POOL_STATE: dict | None = None


def _pool_init(index: NegativeAttributeIndex, ranker: SimilarityRanker) -> None:
    global _POOL_STATE
    _POOL_STATE = {
        "positives": list(zip(ranker.ids, ranker.asds)),
        "index": index,
        "ranker": ranker,
    }


def _pool_trace(seed: int) -> tuple[int, ...]:
    assert _POOL_STATE is not None
    return _trace(seed, _POOL_STATE["index"], _POOL_STATE["ranker"]).entities


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ----------------------------------------------------------------------------
# mining
# ----------------------------------------------------------------------------

def mine_ccds(positives: Sequence[Sample], negatives: Sequence[Sample],
              parallelism: int = 1,
              index: NegativeAttributeIndex | None = None,
              ) -> list[ClassClusterDescription]:
    """Mine candidate class descriptions from one class versus the rest.

    Returns the deduplicated candidates in canonical order, each carrying its
    exact positive coverage.  Raises ``ValueError`` for an empty or mixed
    positive set and ``InseparableDataError`` when some positive's description
    already describes a negative (no sound rule can cover that positive).

    ``index`` is an index over exactly the positives and the negatives, with
    the negatives in the given order (``Dataset.split`` keeps dataset order,
    so an index over ``dataset.samples`` serves every class); without it,
    one is built.  Serial and pooled traces share its class view and one
    ranker over the positives.  ``parallelism`` caps the worker processes
    (``ConfigError`` below 1).
    """
    if parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
    if not positives:
        raise ValueError("cannot mine from an empty positive set")
    labels = {p.label for p in positives}
    if len(labels) != 1:
        raise ValueError(f"positives must share one label, got {sorted(labels)}")
    label = positives[0].label
    if any(n.label == label for n in negatives):
        raise ValueError(f"negatives contain the positive label {label!r}")
    positive_ids = {p.id for p in positives}
    if len(positive_ids) != len(positives):
        raise ValueError("positive sample ids must be unique")
    overlap = positive_ids & {n.id for n in negatives}
    if overlap:
        raise ValueError(f"sample ids appear on both sides: {sorted(overlap)[:5]}")

    if index is None:
        index = NegativeAttributeIndex([*positives, *negatives])
    elif len(index) != len(positives) + len(negatives):
        raise ValueError("the index does not cover exactly the positives and negatives")
    index = index.for_class(label)
    for p in positives:
        hit = index.first_described(p.asd)
        if hit is not None:
            raise InseparableDataError(p.id, hit, label)

    ranker = SimilarityRanker([(p.id, p.asd) for p in positives])
    # Identical descriptions provably produce identical traces; keep the
    # lowest-id representative of each, as a ranker position.
    unique: dict[ASD, int] = {}
    for seed in ranker._by_id.tolist():
        unique.setdefault(ranker.asds[seed], seed)
    seeds = list(unique.values())

    # A process pool starts all its workers at the first submit, so never
    # ask for more than there are CPUs to run them or seeds to trace.
    workers = min(parallelism, _usable_cpus(), len(seeds))
    if workers > 1:
        chunk = max(1, len(seeds) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                                 initargs=(index, ranker)) as pool:
            raw = [ASD(entities)
                   for entities in pool.map(_pool_trace, seeds, chunksize=chunk)]
    else:
        raw = [_trace(seed, index, ranker) for seed in seeds]

    # Every accepted merge passed the index check inside its trace; the one
    # naive soundness scan runs in pipeline.run_pipeline.
    own = index.labelled(label)
    return [ClassClusterDescription(asd, label,
                                    frozenset(index.ids(index.described(asd, own))))
            for asd in sorted(set(raw), key=lambda a: a.sort_key)]


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
