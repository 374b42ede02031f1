"""Batched similarity scores of one class's positives, and the order in
which ``mining._trace`` visits them.

This is the package's only module that imports numpy.  ``mining`` imports it
inside ``mine_ccds`` and ``_trace``, so loading the package, or running a
command that mines nothing (``validate``, ``explain``, ``convert``,
``generate``), loads no numpy.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .asd import ASD

# The most float64 values any one temporary of a scoring batch may hold.
_BATCH_CAP = 1 << 16
# The most values the memo of one SimilarityRanker may hold, counted as
# rows x (interned entities + 1 + positives): 4 MiB of float64.
_MEMO_CAP = 8 * _BATCH_CAP


class SimilarityRanker:
    """Scores one class's positives by similarity to reference descriptions,
    and says which of them each reference describes; ordering them is left
    to the caller (``mining._trace``).

    A positive is known only by its position in the sequence the ranker is
    built from; ``mining.mine_ccds`` builds it from the positives in id
    order, so a tie broken toward the lower position goes to the smaller id.

    The distinct entities of the positives are interned once as rows of
    little-endian ``uint64`` words (one word per 64 attributes), stored one
    contiguous column per word, with each entity's size; each positive is
    kept as a padded column of indices into them.

    Each reference entity is scored once per ranker, not once per batch.
    The memo keeps one row per entity seen (``_row`` maps an entity to its
    row): its Jaccard row against the interned entities plus a last column
    of 0.0 (``_table``), its best match in each positive, a maximum over
    the positive's entity slots (``_best``), and whether it lies inside
    some entity of each positive (``_inside``).  ``scores`` takes a batch of
    references, runs one ``_jaccard`` over the entities the memo does not
    hold yet, and builds every score from memo rows in a number of numpy
    calls set by the widest reference and positive, whatever the batch's
    size; each reference's best match for each interned entity is a
    maximum over its entities' table rows.  The memo grows by at least a
    quarter at a time, which keeps both the copying and the unused rows
    small.  Its size is counted as rows x (interned entities + 1 +
    positives) float64 values, and the bool containment rows come on top.
    When that count would pass ``_MEMO_CAP``, the memo is cleared first, so
    it never holds more than the cap unless one batch needs more.  No
    result depends on what the memo holds.

    The Jaccard rows (``_jaccard``) are exact and bit-parallel on one
    thread.  For each word, an outer AND of the new entities' word with the
    interned column, counted by ``np.bitwise_count``, adds to an int64
    intersection count; unions are ``|a| + |b| - |a & b|`` from the sizes.
    Both counts are exact integers, far below 2**53, so each quotient is
    the same correctly rounded float64 that ``asd.jaccard`` computes from
    Python ints.  A float64 matrix product of 0/1 bit rows counts exactly
    too, but through multithreaded BLAS: at 33 by 102 entities of 5 words
    (2-vCPU VM, numpy 2.4.6) it took 583 us of wall time (653 us of CPU)
    against 108 us for this whole table, and an int32 product, which avoids
    BLAS, took 841 us.

    Each score equals ``similarity(reference, positive)`` bit for bit.  The
    best matches are added one entity at a time, in entity order, from 0.0,
    exactly as ``asd.similarity`` adds them (``np.sum`` would add in another
    order).  References of fewer entities are padded to the widest with
    memo row 0, and positives of fewer entities with the table's last
    column; row 0 holds 0.0 in the table and the best matches, and that
    column 0.0 in every row.  Jaccard values are never negative, so padding
    never wins a maximum, and adding it leaves a sum unchanged
    (x + 0.0 == x), so a reference's row does not depend on which batch it
    was scored in, nor on what the memo held then.

    Containment comes from the same intersection counts: entity ``g`` lies
    inside interned entity ``u`` exactly when |g & u| == |g|, so the empty
    entity lies inside everything.  A reference describes a positive
    (``asd.subsumes``) by an ``any`` over the positive's entity slots, whose
    padding column holds nowhere, then an ``all`` over the reference's
    entities, whose padding row 0 is True for every positive; again a
    reference's row does not depend on its batch.

    ``batches`` splits references so that no temporary of a batch holds
    more than ``_BATCH_CAP`` float64 values; the bool containment
    temporaries have the same shapes, so the cap bounds them too.  A
    batch's memo rows then hold at most twice that many values, so a batch
    always fits a cleared memo.  References are merges of positives, never
    wider than the interned entities.
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
        # The memo: the row of each entity scored so far (_row), in
        # _table, _best and _inside; row 0 is padding.
        self._row: dict[int, int] = {}
        self._row_values = len(interned) + 1 + len(self.asds)
        self._clear()

    def _clear(self) -> None:
        """Empty the memo down to its padding row: 0.0 in the table and the
        best matches, True in the containment row."""
        self._row.clear()
        self._table = np.zeros((1, len(self._entities) + 1))
        self._best = np.zeros((1, len(self.asds)))
        self._inside = np.ones((1, len(self.asds)), dtype=bool)

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

    def scores(self, references: Sequence[ASD]) -> tuple[np.ndarray, np.ndarray]:
        """``similarity(references[b], p)`` at [b, p] of the first array, and
        ``subsumes(references[b], p)`` at [b, p] of the second, positives in
        input order."""
        for reference in references:
            if not reference.entities:
                raise ValueError("similarity is undefined for an empty description")
            if reference.attribute_union >> (64 * self._words):
                raise ValueError("reference is wider than the interned entities")
        row = self._row
        entities = dict.fromkeys(e for r in references for e in r.entities)
        fresh = [e for e in entities if e not in row]
        if (len(row) + 1 + len(fresh)) * self._row_values > _MEMO_CAP:
            self._clear()
            fresh = list(entities)
        self._remember(fresh)
        # refs[b, r] is the memo row of reference b's r-th entity.  Padding
        # points at row 0.
        refs = np.zeros((len(references), max(len(r.entities) for r in references)),
                        dtype=np.intp)
        for b, reference in enumerate(references):
            refs[b, :len(reference.entities)] = [row[e] for e in reference.entities]
        table, best, inside = self._table, self._best, self._inside
        forward = np.zeros((len(references), len(self.asds)))
        described = np.ones(forward.shape, dtype=bool)
        for entity in refs.T:           # per reference entity, in order
            forward += best[entity]
            described &= inside[entity]
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
        return forward, described

    # _remember is a function of its own so that its temporaries are freed
    # before scores makes the next ones.

    def _remember(self, entities: Sequence[int]) -> None:
        """Add a memo row for each given entity, none of them held yet:
        its Jaccard row, its best match in each positive, and whether it
        lies inside some entity of each positive."""
        if not entities:
            return
        start = len(self._row) + 1
        stop = start + len(entities)
        if stop > len(self._table):     # grow by a quarter, within the cap
            capacity = max(stop, min(len(self._table) * 5 // 4, _MEMO_CAP // self._row_values))
            self._table = _grown(self._table, capacity, start)
            self._best = _grown(self._best, capacity, start)
            self._inside = _grown(self._inside, capacity, start)
        table, subset = self._jaccard(entities)
        self._table[start:stop] = table
        # best[e, p]: the best match of entity e in positive p; inside[e, p]:
        # e lies inside some entity of p
        best = table[:, self._slots[0]]
        inside = subset[:, self._slots[0]]
        for slot in self._slots[1:]:
            np.maximum(best, table[:, slot], out=best)
            inside |= subset[:, slot]
        self._best[start:stop] = best
        self._inside[start:stop] = inside
        self._row.update(zip(entities, range(start, stop)))

    def _jaccard(self, entities: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Jaccard of each given entity (rows) with each interned entity
        (columns), plus a last column of 0.0 for padding; and whether each
        given entity lies inside each interned entity, plus a last column of
        False."""
        packed = self._pack(entities)
        inter = np.zeros((len(entities), len(self._entities)), dtype=np.int64)
        for w in range(self._words):
            inter += np.bitwise_count(np.bitwise_and.outer(packed[:, w], self._entities[:, w]))
        sizes = np.array([e.bit_count() for e in entities], dtype=np.int64)
        union = sizes[:, None] + self._sizes - inter
        table = np.zeros((len(entities), len(self._entities) + 1))
        # Two empty entities score 1.0, as in asd.jaccard.
        table[:, :-1] = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
        subset = np.zeros(table.shape, dtype=bool)
        np.equal(inter, sizes[:, None], out=subset[:, :-1])
        return table, subset


def _grown(array: np.ndarray, rows: int, kept: int) -> np.ndarray:
    """``array`` grown to ``rows`` rows, of which the first ``kept`` are
    copied."""
    grown = np.zeros((rows, array.shape[1]), dtype=array.dtype)
    grown[:kept] = array[:kept]
    return grown


# ----------------------------------------------------------------------------
# visit order
# ----------------------------------------------------------------------------

def _firsts(scores: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Per row, the flagged position of the highest score, ties to the lowest
    position.  Scores are never negative, so an unflagged position never
    wins, and a row with none flagged lands on an unflagged one."""
    return np.where(flags, scores, -1.0).argmax(axis=1)


def _visits(row: np.ndarray, remaining: np.ndarray, first: int) -> Iterator[int]:
    """The positions flagged in ``remaining``, highest score in ``row``
    first, ties to the lower position, each cleared from ``remaining`` as
    it is yielded.  ``first`` is the first of them, or a cleared position
    if none is flagged; the rest are ranked only when a second is asked
    for."""
    if not remaining[first]:
        return
    remaining[first] = False
    yield first
    order = np.argsort(-row, kind="stable")
    for position in order[remaining[order]]:
        remaining[position] = False
        yield position
