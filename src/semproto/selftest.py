"""Cross-checks of the optimized operations against the brute-force oracles.

Each battery runs a deterministic stream of random cases and counts failures.
This is what the hidden ``selftest`` CLI subcommand runs; the test suite uses
the same functions with fixed seeds.
"""
from __future__ import annotations

import math
import random
from typing import Callable

from .asd import ASD, merge, similarity, subsumes, trim
from .mining import (NegativeAttributeIndex, Sample, SimilarityRanker, greedy_cover,
                     mine_ccds)
from .oracle import (OracleBudget, oracle_coverage_opt, oracle_edit_distance,
                     oracle_trim, random_asds, scalar_mine, subsuming_pairs)
from .prototypes import edit_distance

Battery = tuple[str, int, int]  # name, cases, failures


def battery_merge_generalizes(cases: int, seed: int) -> Battery:
    """merge(a, b) subsumes both inputs and is an antichain."""
    failures = 0
    left = list(random_asds(seed, cases))
    right = list(random_asds(seed + 1, cases))
    for a, b in zip(left, right):
        m = merge(a, b)
        if not (subsumes(m, a) and subsumes(m, b) and m.is_antichain):
            failures += 1
    return ("merge-generalizes", cases, failures)


def battery_merge_most_specific(cases: int, seed: int) -> Battery:
    """Anything subsuming both inputs also subsumes their merge."""
    failures = 0
    extra = random_asds(seed, cases)
    left = random_asds(seed + 1, cases)
    right = random_asds(seed + 2, cases)
    for w0, z1, z2 in zip(extra, left, right):
        # Merging w0 over both sides yields some common generalization of
        # z1 and z2, usually strictly above their join.
        upper = merge(merge(w0, z1), z2)
        if not (subsumes(upper, z1) and subsumes(upper, z2)):
            failures += 1
            continue
        if not subsumes(upper, merge(z1, z2)):
            failures += 1
    return ("merge-most-specific", cases, failures)


def battery_merge_canonical(cases: int, seed: int) -> Battery:
    """merge(a, b) is the canonical description of the reference trim of
    its entity products and is marked as its own trim, and trim keeps the
    reference's set; entities overlap often, over 15 to 300 attributes,
    and some descriptions hold the empty entity."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        width = rng.choice((15, 64, 65, 300))
        pool = rng.sample(range(width), min(width, 8))

        def description() -> ASD:
            entities = [sum(1 << a for a in rng.sample(pool, rng.randint(0, 5)))
                        for _ in range(rng.randint(1, 5))]
            return ASD(tuple(entities))
        a, b = description(), description()
        products = [x & y for x in a.entities for y in b.entities]
        reference = oracle_trim(products)
        m = merge(a, b)
        if (m != ASD(reference) or m.__dict__.get("trimmed") is not m
                or set(trim(products)) != set(reference)):
            failures += 1
    return ("merge-canonical", cases, failures)


def battery_similarity(cases: int, seed: int) -> Battery:
    """Symmetry, range, and identity of the similarity score."""
    failures = 0
    left = list(random_asds(seed, cases))
    right = list(random_asds(seed + 1, cases))
    for a, b in zip(left, right):
        s_ab = similarity(a, b)
        s_ba = similarity(b, a)
        if abs(s_ab - s_ba) > 1e-12 or not (0.0 <= s_ab <= 1.0):
            failures += 1
            continue
        if abs(similarity(a, a) - 1.0) > 1e-12:
            failures += 1
    return ("similarity-props", cases, failures)


def battery_edit_oracle(cases: int, seed: int,
                        budget: OracleBudget = OracleBudget()) -> Battery:
    """Edit distance equals the exhaustive oracle, both modes: the total, the
    matched pairs and the unmatched sample entities."""
    failures = 0
    pairs = subsuming_pairs(seed, cases, max_general=4, max_specific=6)
    for rule, sample in pairs:
        for mode in ("attrs", "zero"):
            solved = edit_distance(rule, sample, unmatched_cost=mode)
            expected = oracle_edit_distance(rule, sample, unmatched_cost=mode,
                                            budget=budget)
            if solved != expected:
                failures += 1
    return ("edit-distance-oracle", cases, failures)


def battery_greedy_coverage(cases: int, seed: int,
                            budget: OracleBudget = OracleBudget()) -> Battery:
    """Greedy coverage stays within the (1 - 1/e) bound of the optimum."""
    rng = random.Random(seed)
    failures = 0
    guarantee = 1.0 - 1.0 / math.e
    for _ in range(cases):
        n_sets = rng.randint(1, budget.max_candidates)
        n_points = rng.randint(1, 20)
        coverages = [
            frozenset(str(p) for p in rng.sample(range(n_points),
                                                 rng.randint(0, n_points)))
            for _ in range(n_sets)
        ]
        k = rng.randint(1, 4)
        picks = greedy_cover(coverages, k)
        achieved = len(set().union(*[coverages[i] for i in picks]) if picks else set())
        optimal = oracle_coverage_opt(coverages, k, budget=budget)
        if achieved < math.ceil(guarantee * optimal):
            failures += 1
    return ("greedy-coverage-bound", cases, failures)


def battery_mining_traces(cases: int, seed: int) -> Battery:
    """mine_ccds, with its index, ranker, twins sharing one frontier entry
    and trace memo, finds the candidates of the plain scalar traces; some
    positives have twins."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        n_pos, n_neg = rng.randint(1, 12), rng.randint(0, 6)
        asds = list(random_asds(rng.randrange(1 << 32), n_pos + n_neg, max_entities=3,
                                max_entity_size=3, vocab_size=rng.choice((8, 70))))
        positives = [Sample(f"p{i:02d}", "pos", a) for i, a in enumerate(asds[:n_pos])]
        positives += [Sample(p.id + "-twin", "pos", p.asd) for p in positives[::3]]
        negatives = [Sample(f"n{i:02d}", "neg", a) for i, a in enumerate(asds[n_pos:])
                     if not any(subsumes(p.asd, a) for p in positives)]
        index = NegativeAttributeIndex([*positives, *negatives])
        if [c.asd for c in mine_ccds(positives, index)] != scalar_mine(positives, negatives):
            failures += 1
    return ("mining-scalar-traces", cases, failures)


def battery_ranker_batches(cases: int, seed: int) -> Battery:
    """Each row of a batched SimilarityRanker.scores call equals the scalar
    similarity bit for bit, and the same row comes back when the reference
    is scored alone; references of different entity counts share a batch,
    and entities are sparse or dense, over one to five words."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        # Dense entities of up to 40 attributes over 128 or more put bits in
        # several words and give Jaccard values of many denominators.
        width = rng.choice((15, 64, 65, 128, 129, 300))
        asds = list(random_asds(rng.randrange(1 << 32), rng.randint(1, 10), max_entities=4,
                                max_entity_size=rng.choice((4, 40)), vocab_size=width))
        pool = asds + [merge(rng.choice(asds), rng.choice(asds)) for _ in range(4)]
        pool += [ASD((0,)), ASD((rng.choice(asds).entities[0],))]
        references = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
        ranker = SimilarityRanker(asds)
        rows = ranker.scores(references)
        if any(row.tolist() != [similarity(reference, a) for a in asds]
               or ranker.scores([reference]).tobytes() != row.tobytes()
               for reference, row in zip(references, rows)):
            failures += 1
    return ("ranker-batches", cases, failures)


ALL_BATTERIES: list[Callable[[int, int], Battery]] = [
    battery_merge_generalizes,
    battery_merge_most_specific,
    battery_merge_canonical,
    battery_similarity,
    battery_edit_oracle,
    battery_greedy_coverage,
    battery_mining_traces,
    battery_ranker_batches,
]


def run_selftest(cases: int = 1000, seed: int = 0) -> list[Battery]:
    return [battery(cases, seed) for battery in ALL_BATTERIES]
