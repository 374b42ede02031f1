"""One predicate per core property, and the batteries that run them.

Each predicate says whether one case of a property holds:

- ``similarity_props``: similarity is symmetric, in [0, 1], and exactly 1.0
  on itself.
- ``merge_generalizes``: merge subsumes both inputs and is an antichain.
- ``merge_is_most_specific``: every common generalization subsumes merge.
- ``merge_is_canonical``: trim keeps the reference trim's set, and merge is
  the canonical description of the reference trim of the entity products.
- ``edit_matches_oracle``: the edit distance solver equals the exhaustive
  oracle.
- ``greedy_meets_bound``: greedy coverage is within (1 - 1/e) of the optimum.
- ``mining_matches_scalar``: ``mine_ccds`` finds what the plain scalar
  greedy traces find, with sound and complete coverage.
- ``ranker_matches_scalar``: the batched ranker's rows equal ``similarity``
  and ``subsumes`` bit for bit, whatever the batch and the memo hold.

The batteries below and the hypothesis tests call the same predicate, each
with its own source of cases, and so do the acceptance criteria for the
five properties they check (all but the merge canonical form, mining and
the ranker).  The ``selftest`` subcommand runs the batteries: each is a
deterministic stream of random cases, and it counts the cases that fail.
"""
from __future__ import annotations

import math
import random
from typing import Callable, Sequence

from .asd import ASD, merge, similarity, subsumes, trim
from .errors import ConfigError
from .mining import NegativeAttributeIndex, Sample, greedy_cover, mine_ccds
from .oracle import (OracleBudget, oracle_coverage_opt, oracle_edit_distance,
                     oracle_trim, random_asds, scalar_mine, subsuming_pairs)
from .prototypes import distance_metric_select, edit_distance
from .ranker import SimilarityRanker

Battery = tuple[str, int, int]  # name, cases, failures


# ----------------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------------

def similarity_props(a: ASD, b: ASD) -> bool:
    """similarity is exactly symmetric, lies in [0, 1], and scores each side
    against itself exactly 1.0."""
    s = similarity(a, b)
    return (s == similarity(b, a) and 0.0 <= s <= 1.0
            and similarity(a, a) == 1.0 == similarity(b, b))


def merge_generalizes(a: ASD, b: ASD) -> bool:
    """merge(a, b) subsumes both inputs and is an antichain, checked by the
    oracle's trim rather than by the flag merge sets."""
    m = merge(a, b)
    return (subsumes(m, a) and subsumes(m, b)
            and len(oracle_trim(m.entities)) == len(m.entities))


def merge_is_most_specific(w: ASD, z1: ASD, z2: ASD) -> bool:
    """w, a common generalization of z1 and z2, subsumes their merge; a w
    that does not subsume both is a broken case and fails too."""
    return subsumes(w, z1) and subsumes(w, z2) and subsumes(w, merge(z1, z2))


def merge_is_canonical(xs: Sequence[int], ys: Sequence[int]) -> bool:
    """trim(xs) keeps the set of oracle_trim(xs), each entity once; merge of
    the two descriptions is, entity for entity, the description of the
    reference trim of their entity products, and is marked as its own trim;
    and each input's is_antichain agrees with trim."""
    kept = trim(xs)
    a, b = ASD(tuple(xs)), ASD(tuple(ys))
    m = merge(a, b)
    expected = ASD(oracle_trim(x & y for x in a.entities for y in b.entities))
    return (set(kept) == set(oracle_trim(xs)) and len(kept) == len(set(kept))
            and m.entities == expected.entities and m.__dict__.get("trimmed") is m
            and all(d.is_antichain == (len(trim(d.entities)) == len(d.entities))
                    for d in (a, b)))


def common_generalization(rng: random.Random, z1: ASD, z2: ASD) -> ASD:
    """A description that subsumes z1 and z2 by construction, without merge:
    one to three entities, each the intersection of an entity of z1 and one
    of z2 under a random mask over ``random_asds``' 12 default attributes."""
    return ASD(tuple(rng.choice(z1.entities) & rng.choice(z2.entities) & rng.getrandbits(12)
                     for _ in range(rng.randint(1, 3))))


def edit_matches_oracle(rule: ASD, sample: ASD, mode: str) -> bool:
    """The solver's breakdown (total, matched pairs, unmatched sample
    entities) equals the exhaustive oracle's, and the total-only distance
    equals its total."""
    solved = edit_distance(rule, sample, unmatched_cost=mode)
    return (solved == oracle_edit_distance(rule, sample, unmatched_cost=mode)
            and distance_metric_select("edit", mode)(rule, sample) == solved.total)


def greedy_meets_bound(coverages: Sequence[frozenset], k: int) -> bool:
    """greedy_cover's k picks cover at least ceil((1 - 1/e) * OPT) points."""
    picks = greedy_cover(coverages, k)
    achieved = len(frozenset().union(*(coverages[i] for i in picks)))
    optimal = oracle_coverage_opt(coverages, k)
    return achieved >= math.ceil((1.0 - 1.0 / math.e) * optimal)


def mining_matches_scalar(positives: Sequence[Sample], negatives: Sequence[Sample],
                          samples: Sequence[Sample]) -> bool:
    """mine_ccds over an index of ``samples``, in the order given, finds the
    descriptions of scalar_mine's plain traces; each coverage equals a
    subsumes scan of the positives, no candidate describes a negative, and
    the coverages together hold every positive."""
    mined = mine_ccds(positives, NegativeAttributeIndex(samples))
    return ([c.asd for c in mined] == scalar_mine(positives, negatives)
            and all(c.coverage == {p.id for p in positives if subsumes(c.asd, p.asd)}
                    and not any(subsumes(c.asd, n.asd) for n in negatives) for c in mined)
            and frozenset().union(*(c.coverage for c in mined)) == {p.id for p in positives})


def ranker_matches_scalar(positives: Sequence[ASD], batches: Sequence[Sequence[ASD]]) -> bool:
    """One SimilarityRanker scores the batches in order, so later batches
    read rows its memo already holds.  Each score row equals similarity bit
    for bit and each containment row equals subsumes, and both match, byte
    for byte, a fresh ranker's rows for that batch and for each reference
    scored alone."""
    warm = SimilarityRanker(positives)
    for batch in batches:
        rows, described = warm.scores(batch)
        fresh = SimilarityRanker(positives).scores(batch)
        if [rows.tobytes(), described.tobytes()] != [a.tobytes() for a in fresh]:
            return False
        for reference, row, covers in zip(batch, rows, described):
            if ([x.hex() for x in row.tolist()]
                    != [similarity(reference, p).hex() for p in positives]
                    or covers.tolist() != [subsumes(reference, p) for p in positives]
                    or [a.tobytes() for a in SimilarityRanker(positives).scores([reference])]
                    != [row.tobytes(), covers.tobytes()]):
                return False
    return True


# ----------------------------------------------------------------------------
# batteries
# ----------------------------------------------------------------------------

def battery_merge_generalizes(cases: int, seed: int) -> Battery:
    pairs = zip(random_asds(seed, cases), random_asds(seed + 1, cases))
    return ("merge-generalizes", cases, sum(not merge_generalizes(a, b) for a, b in pairs))


def battery_merge_most_specific(cases: int, seed: int) -> Battery:
    rng = random.Random(seed)
    pairs = zip(random_asds(seed + 1, cases), random_asds(seed + 2, cases))
    return ("merge-most-specific", cases,
            sum(not merge_is_most_specific(common_generalization(rng, z1, z2), z1, z2)
                for z1, z2 in pairs))


def battery_merge_canonical(cases: int, seed: int) -> Battery:
    """Entities overlap often, over 15 to 300 attributes, and some
    descriptions hold the empty entity."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        width = rng.choice((15, 64, 65, 300))
        pool = rng.sample(range(width), min(width, 8))

        def entities() -> list[int]:
            return [sum(1 << a for a in rng.sample(pool, rng.randint(0, 5)))
                    for _ in range(rng.randint(1, 5))]
        failures += not merge_is_canonical(entities(), entities())
    return ("merge-canonical", cases, failures)


def battery_similarity(cases: int, seed: int) -> Battery:
    pairs = zip(random_asds(seed, cases), random_asds(seed + 1, cases))
    return ("similarity-props", cases, sum(not similarity_props(a, b) for a, b in pairs))


def battery_edit_oracle(cases: int, seed: int) -> Battery:
    """Each pair in both unmatched-cost modes; a failure per mode."""
    pairs = subsuming_pairs(seed, cases, max_general=4, max_specific=6)
    return ("edit-distance-oracle", cases,
            sum(not edit_matches_oracle(rule, sample, mode)
                for rule, sample in pairs for mode in ("attrs", "zero")))


def battery_greedy_coverage(cases: int, seed: int) -> Battery:
    """Up to the oracle's default ``max_candidates`` sets of any size over 1 to 20 points,
    and k from 1 to 4."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        n_sets = rng.randint(1, OracleBudget().max_candidates)
        n_points = rng.randint(1, 20)
        coverages = [
            frozenset(str(p) for p in rng.sample(range(n_points),
                                                 rng.randint(0, n_points)))
            for _ in range(n_sets)
        ]
        failures += not greedy_meets_bound(coverages, rng.randint(1, 4))
    return ("greedy-coverage-bound", cases, failures)


def battery_mining_traces(cases: int, seed: int) -> Battery:
    """Up to 12 positives over 8 or 70 attributes, and every third of them
    again as a twin under another id."""
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
        failures += not mining_matches_scalar(positives, negatives, [*positives, *negatives])
    return ("mining-scalar-traces", cases, failures)


def battery_ranker_batches(cases: int, seed: int) -> Battery:
    """References of different entity counts share a batch, some hold the
    empty entity, and entities are sparse or dense, over one to five words;
    the same references, reversed, make a second batch that the memo
    already holds."""
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
        failures += not ranker_matches_scalar(asds, [references, references[::-1]])
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
    """Every battery, ``cases`` cases each; fewer than one is a ``ConfigError``,
    since a battery that runs no case passes without checking anything."""
    if cases < 1:
        raise ConfigError(f"selftest budget must be >= 1 case per battery, got {cases}")
    return [battery(cases, seed) for battery in ALL_BATTERIES]
