"""Greedy mining and selection of class cluster descriptions.

Each positive sample seeds one candidate: starting from the seed's own
description, the remaining positives are visited most-similar first and
greedily merged in, keeping a merge only when the generalized description
still describes no negative sample.  The surviving candidates are deduplicated
and a greedy maximum-coverage pass picks the final rule set.  A class's traces
run in lockstep over a map from each description to the one it steps to
next, so each distinct description is ranked and expanded once, and each
round ranks all of its descriptions in a few batched numpy calls (see
``_trace`` and ``SimilarityRanker``).  Mining runs in one process: the
lockstep sharing spans every seed of a class, and splitting the seeds among
worker processes would only repeat it.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# ``similarity`` is the scalar specification that SimilarityRanker's scores
# equal bit for bit; it stays importable here as ``mining.similarity``.
from .asd import ASD, entity_ids, merge, similarity, subsumes  # noqa: F401
from .errors import InseparableDataError


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
    serves every class.  Sample ids must be unique (``ValueError``).
    """

    def __init__(self, samples: Sequence[Sample]):
        self._ids = [s.id for s in samples]
        if len(set(self._ids)) != len(self._ids):
            raise ValueError("sample ids must be unique")
        self._all = (1 << len(samples)) - 1
        self._bytes = -(-len(samples) // 8)
        self.negatives = self._all
        labelled: dict[str, list[int]] = {}
        holding: dict[int, list[int]] = {}
        for pos, sample in enumerate(samples):
            labelled.setdefault(sample.label, []).append(pos)
            for e in sample.asd.entities:
                holding.setdefault(e, []).append(pos)
        self._labelled = labelled
        self._label_bits = {label: _bitset(ps) for label, ps in labelled.items()}
        self._holders = [_bitset(positions) for positions in holding.values()]
        self._all_entities = (1 << len(holding)) - 1
        containing: dict[int, list[int]] = {}
        for k, e in enumerate(holding):
            for a in entity_ids(e):
                containing.setdefault(a, []).append(k)
        self._attr_entities = {a: _bitset(ks) for a, ks in containing.items()}
        self._memo: dict[int, int] = {}

    def for_class(self, label: str) -> "NegativeAttributeIndex":
        """A view whose negatives are the samples not labelled ``label``."""
        view = copy.copy(self)
        view.negatives = self._all & ~self.labelled(label)
        return view

    def labelled(self, label: str) -> int:
        """Bitset of the sample positions labelled ``label``."""
        return self._label_bits.get(label, 0)

    def members(self, label: str) -> dict[str, int]:
        """Sample position of each id labelled ``label``."""
        ids = self._ids
        return {ids[pos]: pos for pos in self._labelled.get(label, ())}

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

    def described_at(self, candidate: ASD, positions: np.ndarray,
                     among: np.ndarray) -> np.ndarray:
        """For each sample position in ``positions``, is it flagged in ``among``
        and does the candidate describe it?

        Only the flagged samples are checked, so a candidate that describes
        none of them stops at the first entity that rules them all out.
        """
        flags = np.zeros(self._bytes * 8, dtype=np.uint8)
        flags[positions[among]] = 1
        mask = int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")
        bits = self.described(candidate, mask)
        flags = np.unpackbits(np.frombuffer(bits.to_bytes(self._bytes, "little"), np.uint8),
                              bitorder="little")
        return flags[positions].astype(bool)

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
    passes only when there are no negatives at all.  A negative whose
    attribute union lacks an attribute of the candidate's is skipped
    unscanned: if the candidate describes a negative, each of its entities
    lies inside some entity of the negative, so its union lies inside the
    negative's.
    """
    union = candidate.attribute_union
    return not any(union & n.asd.attribute_union == union and subsumes(candidate, n.asd)
                   for n in negatives)


# ----------------------------------------------------------------------------
# similarity ordering
# ----------------------------------------------------------------------------

# The most float64 values any one temporary of a scoring batch may hold.
_BATCH_CAP = 1 << 16


class SimilarityRanker:
    """Orders one class's positives by similarity to reference descriptions.

    A positive is known only by its position in the sequence the ranker is
    built from; ``mine_ccds`` builds it from the positives in id order, so
    a tie broken toward the lower position goes to the smaller id.

    The distinct entities of the positives are interned once as rows of
    little-endian ``uint64`` words (one word per 64 attributes), stored one
    contiguous column per word, with each entity's size; each positive is
    kept as a padded column of indices into them.  ``scores`` takes a batch
    of references and scores every positive against each of them in a
    number of numpy calls set by the widest reference and positive, whatever
    the batch's size: one Jaccard row against the interned entities per
    distinct reference entity, each row's best match in each positive by a
    maximum over the positives' entity slots, and each reference's best
    match for each interned entity by a maximum over its entities' rows.

    The Jaccard table (``_jaccard``) is exact and bit-parallel on one
    thread.  For each word, an outer AND of the reference entities' word
    with the interned column, counted by ``np.bitwise_count``, adds to an
    int64 intersection count; unions are ``|a| + |b| - |a & b|`` from the
    sizes.  Both counts are exact integers, far below 2**53, so each
    quotient is the same correctly rounded float64 that ``asd.jaccard``
    computes from Python ints.  A float64 matrix product of 0/1 bit rows
    would count intersections exactly too, but it runs through multithreaded
    BLAS, which is slower at these shapes and spends CPU on every core: at
    33 reference by 102 interned entities of 5 words, on a 2-vCPU VM with
    numpy 2.4.6, the product alone took 583 us of wall time (653 us of CPU)
    against 108 us for this whole table, and an int32 product, which avoids
    BLAS, took 841 us.

    Each score equals ``similarity(reference, positive)`` bit for bit.  The
    best matches are added one entity at a time, in entity order, from 0.0,
    exactly as ``asd.similarity`` adds them (``np.sum`` would add in another
    order).  References and positives of fewer entities are padded to the
    widest with an index of a table row or column that stays 0.0.  Jaccard
    values are never negative, so padding never wins a maximum, and adding
    it leaves a sum unchanged (x + 0.0 == x), so a reference's row does not
    depend on which batch it was scored in.

    ``batches`` splits references so that no temporary of a batch holds
    more than ``_BATCH_CAP`` float64 values.  References are merges of
    positives, so they are never wider than the interned entities.
    """

    def __init__(self, positives: Sequence[ASD]):
        self.asds = list(positives)
        interned: dict[int, int] = {}
        rows = []
        for asd in self.asds:
            if not asd.entities:
                raise ValueError("similarity is undefined for an empty description")
            rows.append([interned.setdefault(e, len(interned)) for e in asd.entities])
        width = max((e.bit_length() for e in interned), default=0)
        self._words = max(1, -(-width // 64))
        # Fortran order: each word of the interned entities is one
        # contiguous column, as the kernel reads it.
        self._entities = np.asfortranarray(self._pack(tuple(interned)))
        self._sizes = np.array([e.bit_count() for e in interned], dtype=np.int64)
        # _slots[k, p] is the k-th entity of positive p.  Padding points one
        # past the interned entities, at the table column that stays 0.0.
        self._slots = np.full((max(map(len, rows), default=0), len(rows)),
                              len(interned), dtype=np.intp)
        for p, entities in enumerate(rows):
            self._slots[:len(entities), p] = entities
        self._counts = np.array([len(r) for r in rows], dtype=np.float64)

    def _pack(self, entities: Sequence[int]) -> np.ndarray:
        """Entities as rows of little-endian ``uint64`` words."""
        size = 8 * self._words
        packed = b"".join(e.to_bytes(size, "little") for e in entities)
        return np.frombuffer(packed, "<u8").reshape(len(entities), self._words)

    def batches(self, references: Sequence[ASD]) -> Iterator[list[ASD]]:
        """The references in order, split into batches within ``_BATCH_CAP``.

        A batch of B references with E distinct entities makes temporaries
        of E x (interned entities), E x positives, B x (interned entities)
        and B x positives values; the split allows E x (interned entities)
        x words, which bounds them all.  A single reference may exceed the
        cap; it is never split.
        """
        per_entity = max((len(self._entities) + 1) * self._words, len(self.asds))
        per_reference = max(len(self._entities) + 1, len(self.asds))
        batch: list[ASD] = []
        seen: set[int] = set()
        for reference in references:
            fresh = [e for e in reference.entities if e not in seen]
            if batch and ((len(batch) + 1) * per_reference > _BATCH_CAP
                          or (len(seen) + len(fresh) + 1) * per_entity > _BATCH_CAP):
                yield batch
                batch, seen, fresh = [], set(), reference.entities
            batch.append(reference)
            seen.update(fresh)
        if batch:
            yield batch

    def scores(self, references: Sequence[ASD]) -> np.ndarray:
        """``similarity(references[b], p)`` at [b, p], positives in input order."""
        rows: dict[int, int] = {}
        for reference in references:
            if not reference.entities:
                raise ValueError("similarity is undefined for an empty description")
            if reference.attribute_union >> (64 * self._words):
                raise ValueError("reference is wider than the interned entities")
            for e in reference.entities:
                rows.setdefault(e, len(rows))
        # refs[b, r] is the table row of reference b's r-th entity.  Padding
        # points one past the distinct entities, at the row that stays 0.0.
        refs = np.full((len(references), max(len(r.entities) for r in references)),
                       len(rows), dtype=np.intp)
        for b, reference in enumerate(references):
            refs[b, :len(reference.entities)] = [rows[e] for e in reference.entities]
        table = self._jaccard(tuple(rows))
        forward = self._forward(table, refs)
        # match[b, u]: the best match of interned entity u in reference b
        match = table[refs[:, 0]]
        for entity in refs.T[1:]:
            np.maximum(match, table[entity], out=match)
        backward = np.zeros_like(forward)
        for slot in self._slots:        # per positive entity, in order
            backward += match[:, slot]
        # 0.5 * (forward / sizes) + 0.5 * (backward / counts), in place
        forward /= np.array([[len(r.entities)] for r in references], dtype=np.float64)
        forward *= 0.5
        backward /= self._counts
        backward *= 0.5
        forward += backward
        return forward

    # _jaccard and _forward are functions of their own so that their
    # temporaries are freed before scores makes the next ones.

    def _jaccard(self, entities: Sequence[int]) -> np.ndarray:
        """Jaccard of each given entity (rows) with each interned entity
        (columns), plus a last row and a last column of 0.0 for padding."""
        packed = self._pack(entities)
        inter = np.zeros((len(entities), len(self._entities)), dtype=np.int64)
        for w in range(self._words):
            inter += np.bitwise_count(np.bitwise_and.outer(packed[:, w], self._entities[:, w]))
        sizes = np.array([e.bit_count() for e in entities], dtype=np.int64)
        union = sizes[:, None] + self._sizes - inter
        table = np.zeros((len(entities) + 1, len(self._entities) + 1))
        # Two empty entities score 1.0, as in asd.jaccard.
        table[:-1, :-1] = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
        return table

    def _forward(self, table: np.ndarray, refs: np.ndarray) -> np.ndarray:
        """Sum over each reference's entities, in order, of their best
        matches in each positive."""
        # best[e, p]: the best match of distinct reference entity e in positive p
        best = table[:, self._slots[0]]
        for slot in self._slots[1:]:
            np.maximum(best, table[:, slot], out=best)
        forward = np.zeros((len(refs), len(self.asds)))
        for entity in refs.T:           # per reference entity, in order
            forward += best[entity]
        return forward

    def rankings(self, references: Sequence[ASD]) -> np.ndarray:
        """Row b: positions of all positives, most similar to ``references[b]``
        first, ties by ascending position."""
        scores = self.scores(references)
        np.negative(scores, out=scores)
        return np.argsort(scores, axis=1, kind="stable")


# ----------------------------------------------------------------------------
# seed traces
# ----------------------------------------------------------------------------

def _trace(seeds: Sequence[int], index: NegativeAttributeIndex,
           ranker: SimilarityRanker, positions: np.ndarray) -> set[ASD]:
    """Run the given seeds' greedy generalizations in lockstep and return
    the set of their final descriptions.

    ``seeds`` are ranker positions, and ``positions[r]`` is the index sample
    position of ranker position ``r``.  A seed's trace visits the positives
    it has not yet visited, most similar to its description first, and
    moves to the first merge that describes no negative; it ends when none
    does.

    Let the description D be an antichain: an antichain seed, or any
    accepted merge (``merge`` returns an antichain).  Two kinds of positive
    can no longer change a trace at D.  One that D describes merges with D
    into D itself, and stays described by every later, more general
    description.  One whose merge with some earlier description was rejected
    is rejected again: its merge with D subsumes the rejected merge, so it
    describes the same negative.  So the step from D, next(D), depends on D
    alone, whichever trace reached it.  ``step`` maps each expanded D to
    next(D), or to D itself when D is final, and each distinct D is expanded
    once.  A seed that is not an antichain takes one step of its own: it
    keeps its described positives (the first it visits trims it, because
    ``merge(D, p) == D.trimmed`` whenever D subsumes p) and excludes only
    itself.

    Twins, seeds of one description D, share one frontier entry, which
    excludes only the last of them, and any twin's trace stands for all.  If
    D is an antichain, it describes every twin, so all are cleared before
    ranking.  If not, only a twin scores 1.0 against D, so the trace first
    visits another twin and steps to ``D.trimmed``, which is sound because
    it describes what D describes, and which describes every twin again.

    The traces advance breadth first.  ``frontier`` maps each description
    still to expand to the positives left to visit there, flagged by ranker
    position: those not visited by a trace that reached it, the flags of
    several such traces ANDed together (a positive any of them cleared is
    described or rejected at D).  Each round ranks its whole frontier in a
    few batched ``SimilarityRanker`` calls, then walks each description's
    queue; the new descriptions reached form the next round's frontier.
    """
    step: dict[ASD, ASD] = {}
    frontier: dict[ASD, np.ndarray] = {}
    for seed in seeds:
        remaining = np.ones(len(ranker.asds), dtype=bool)
        remaining[seed] = False
        frontier[ranker.asds[seed]] = remaining
    while frontier:
        reached: dict[ASD, np.ndarray] = {}
        for batch in ranker.batches(list(frontier)):
            for description, order in zip(batch, ranker.rankings(batch)):
                remaining = frontier[description]
                if description.is_antichain:
                    remaining[index.described_at(description, positions, remaining)] = False
                step[description] = description
                queue = order[remaining[order]]
                for visited, position in enumerate(queue, 1):
                    # No positive left to visit is described by the
                    # description, or it is not an antichain, so every
                    # merge changes it.
                    generalized = merge(description, ranker.asds[position])
                    if index.first_described(generalized) is None:
                        step[description] = generalized
                        remaining[queue[:visited]] = False
                        if generalized in reached:
                            reached[generalized] &= remaining
                        elif generalized not in step and generalized not in frontier:
                            reached[generalized] = remaining
                        break
        frontier = reached
    # Each expanded description lies on some seed's path, so the fixed
    # points are exactly the seeds' final descriptions.
    return {d for d, nxt in step.items() if nxt is d}


# Read only by perfbench/spans.py, which wraps it; goes with ROADMAP item 5.
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
    or mixed positive set, or one that is not the index's class.
    ``InseparableDataError`` when some positive's description already
    describes a negative (no sound rule can cover that positive).

    Returns the deduplicated candidates in canonical order, each carrying
    its exact positive coverage.  The positives are put in id order once,
    so a similarity tie goes to the smaller id; every one of them seeds a
    trace, and all are traced in one lockstep ``_trace`` over the index's
    class view and one ranker of the positives, in this process.
    """
    if not positives:
        raise ValueError("cannot mine from an empty positive set")
    labels = {p.label for p in positives}
    if len(labels) != 1:
        raise ValueError(f"positives must share one label, got {sorted(labels)}")
    label = positives[0].label
    where = index.members(label)
    if len(where) != len(positives) or where.keys() != {p.id for p in positives}:
        raise ValueError(f"the positives are not the index's samples labelled {label!r}")
    index = index.for_class(label)
    for p in positives:
        hit = index.first_described(p.asd)
        if hit is not None:
            raise InseparableDataError(p.id, hit, label)

    positives = sorted(positives, key=lambda p: p.id)
    ranker = SimilarityRanker([p.asd for p in positives])
    positions = np.array([where[p.id] for p in positives], dtype=np.intp)
    finals = _trace(range(len(positives)), index, ranker, positions)

    # Every accepted merge passed the index check inside its trace; the one
    # naive soundness scan runs in pipeline.run_pipeline.
    own = index.labelled(label)
    return [ClassClusterDescription(asd, label,
                                    frozenset(index.ids(index.described(asd, own))))
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
