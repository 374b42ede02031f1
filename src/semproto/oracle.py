"""Brute-force reference implementations and deterministic random inputs.

Everything here is deliberately independent of the production code paths: the
only shared vocabulary is the domain types (descriptions as tuples of entity
bitmasks, and the record an edit distance is reported in).  Subset tests,
costs, and matchings are recomputed from first principles by exhaustive
enumeration, so these functions can act as oracles for the optimized
implementations in property and acceptance tests.  Budgets keep the
enumeration small enough to finish in seconds.  ``scalar_mine`` is the
reference for mining: the miner's greedy traces run with the scalar ``asd``
operations only, one per seed, twins included, and with none of the miner's
index, ranker or trace memo.  ``oracle_trim`` is the reference for
``asd.trim``: the same antichain, found by visiting entities in full
canonical order.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .asd import ASD, entity_key, merge, similarity, subsumes
from .errors import BudgetError
from .prototypes import EditDistanceBreakdown


@dataclass(frozen=True)
class OracleBudget:
    """Caps that keep exhaustive enumeration tractable."""

    max_entities: int = 6
    max_candidates: int = 12


# ----------------------------------------------------------------------------
# edit distance by enumeration
# ----------------------------------------------------------------------------

def _is_subset(a: int, b: int) -> bool:
    return a & b == a


def oracle_edit_distance(rule: ASD, sample: ASD, unmatched_cost: str = "attrs",
                         budget: OracleBudget = OracleBudget()) -> EditDistanceBreakdown:
    """Exhaustive minimum edit distance from a rule description to a sample.

    Tries every injective mapping of rule entities onto distinct sample
    entities restricted to subset edges; if none exists, falls back to every
    many-to-one mapping.  Matched pairs cost the inserted attributes, and each
    sample entity left unmatched costs its attribute count ("attrs" mode) or
    nothing ("zero" mode).  Mappings are enumerated in lexicographic order and
    only a strictly smaller total replaces the best, so the breakdown reports
    the lexicographically smallest optimal mapping.
    """
    if unmatched_cost not in ("attrs", "zero"):
        raise ValueError(f"unknown unmatched cost mode {unmatched_cost!r}")
    r = rule.entities
    z = sample.entities
    if len(r) > budget.max_entities or len(z) > budget.max_entities:
        raise BudgetError(
            f"edit distance oracle budget is {budget.max_entities} entities per side, "
            f"got {len(r)} rule and {len(z)} sample entities"
        )
    for re in r:
        if not any(_is_subset(re, ze) for ze in z):
            raise ValueError("rule does not describe the sample; edit distance undefined")

    z_cost = [ze.bit_count() if unmatched_cost == "attrs" else 0 for ze in z]

    def breakdown(assignment: Sequence[int],
                  injective: bool) -> EditDistanceBreakdown | None:
        if not all(_is_subset(r[i], z[j]) for i, j in enumerate(assignment)):
            return None
        pairs = tuple((i, j, (z[j] & ~r[i]).bit_count()) for i, j in enumerate(assignment))
        unmatched = tuple((j, cost) for j, cost in enumerate(z_cost) if j not in assignment)
        total = sum(ins for _, _, ins in pairs) + sum(cost for _, cost in unmatched)
        return EditDistanceBreakdown(pairs, unmatched, total, injective)

    best: EditDistanceBreakdown | None = None
    if len(r) <= len(z):
        for perm in itertools.permutations(range(len(z)), len(r)):
            found = breakdown(perm, True)
            if found is not None and (best is None or found.total < best.total):
                best = found
    if best is None:
        for assignment in itertools.product(range(len(z)), repeat=len(r)):
            found = breakdown(assignment, False)
            if found is not None and (best is None or found.total < best.total):
                best = found
    assert best is not None  # the subset precondition guarantees one mapping
    return best


# ----------------------------------------------------------------------------
# optimal coverage by enumeration
# ----------------------------------------------------------------------------

def oracle_coverage_opt(coverages: Sequence[frozenset], k: int,
                        budget: OracleBudget = OracleBudget()) -> int:
    """Size of the best union achievable by picking at most k coverage sets."""
    if len(coverages) > budget.max_candidates:
        raise BudgetError(
            f"coverage oracle budget is {budget.max_candidates} candidates, "
            f"got {len(coverages)}"
        )
    if k <= 0:
        return 0
    if k >= len(coverages):
        whole = set()
        for c in coverages:
            whole.update(c)
        return len(whole)
    best = 0
    for combo in itertools.combinations(coverages, k):
        union = set()
        for c in combo:
            union.update(c)
        if len(union) > best:
            best = len(union)
    return best


# ----------------------------------------------------------------------------
# trimming in canonical order
# ----------------------------------------------------------------------------

def oracle_trim(entities: Iterable[int]) -> tuple[int, ...]:
    """The antichain of ``entities``, found by visiting them largest first in
    full canonical order (size, then ascending ids).  ``asd.trim``, which
    orders them by size alone, must keep the same set."""
    kept: list[int] = []
    for e in sorted(set(entities), key=entity_key, reverse=True):
        if not any(_is_subset(e, k) for k in kept):
            kept.append(e)
    return tuple(kept)


# ----------------------------------------------------------------------------
# mining by plain greedy traces
# ----------------------------------------------------------------------------

def scalar_mine(positives: Sequence, negatives: Sequence) -> list[ASD]:
    """Final descriptions of every seed's greedy trace, deduplicated and in
    canonical order, as ``mining.mine_ccds`` should find them.

    Samples need only ``id`` and ``asd``.  Each positive seeds a trace, twins
    included; the positives not yet visited are sorted by the scalar
    ``similarity`` (ties by id), and a merge is kept when it changes the
    description and a naive scan finds no negative it describes.
    """
    def order(items, reference):
        return sorted(items, key=lambda it: (-similarity(reference, it.asd), it.id))

    raw = set()
    for seed in positives:
        description = seed.asd
        remaining = order([p for p in positives if p.id != seed.id], description)
        while remaining:
            candidate = remaining.pop(0).asd
            if subsumes(description, candidate):
                generalized = description.trimmed
            else:
                generalized = merge(description, candidate)
            if generalized != description and not any(subsumes(generalized, n.asd)
                                                      for n in negatives):
                description = generalized
                remaining = order(remaining, description)
        raw.add(description)
    return sorted(raw, key=lambda a: a.sort_key)


# ----------------------------------------------------------------------------
# deterministic random descriptions
# ----------------------------------------------------------------------------

def random_asds(seed: int, count: int, *, max_entities: int = 4,
                max_entity_size: int = 4, vocab_size: int = 12) -> Iterator[ASD]:
    """Deterministic stream of random non-empty descriptions."""
    rng = random.Random(seed)
    for _ in range(count):
        yield _random_asd(rng, max_entities, max_entity_size, vocab_size)


def subsuming_pairs(seed: int, count: int, *, max_general: int = 4,
                    max_specific: int = 6, max_entity_size: int = 4,
                    vocab_size: int = 12) -> Iterator[tuple[ASD, ASD]]:
    """Deterministic stream of (general, specific) pairs with guaranteed subsumption.

    The specific side is built from the general one by adding attributes to
    each entity and appending extra entities, so every general entity keeps a
    superset witness by construction.
    """
    rng = random.Random(seed)
    for _ in range(count):
        general = _random_asd(rng, max_general, max_entity_size, vocab_size)
        entities = []
        for e in general.entities:
            grown = e
            for _ in range(rng.randint(0, max_entity_size)):
                grown |= 1 << rng.randrange(vocab_size)
            entities.append(grown)
        for _ in range(rng.randint(0, max(0, max_specific - len(general.entities)))):
            entities.append(_random_entity(rng, max_entity_size, vocab_size))
        yield general, ASD(tuple(entities))


def _random_entity(rng: random.Random, max_entity_size: int, vocab_size: int) -> int:
    size = rng.randint(1, max_entity_size)
    mask = 0
    for _ in range(size):
        mask |= 1 << rng.randrange(vocab_size)
    return mask


def _random_asd(rng: random.Random, max_entities: int, max_entity_size: int,
                vocab_size: int) -> ASD:
    n = rng.randint(1, max_entities)
    return ASD(tuple(_random_entity(rng, max_entity_size, vocab_size) for _ in range(n)))
