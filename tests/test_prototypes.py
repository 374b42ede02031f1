"""Assignment-based edit distance and prototype picking, checked against the oracle."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semproto import (
    ASD,
    ClassClusterDescription,
    ConfigError,
    OracleBudget,
    Sample,
    Vocabulary,
    distance_metric_select,
    edit_distance,
    find_prototype,
    oracle_edit_distance,
    similarity,
    subsumes,
    subsuming_pairs,
)
from semproto.asd import entity_from_ids, entity_ids
from semproto.prototypes import METRICS, UNMATCHED_COST_MODES, linear_sum_assignment
from semproto.selftest import edit_matches_oracle
from test_oracle import fig_pair


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------

def test_fig_scene_breakdown():
    rule, scene = fig_pair()
    out = edit_distance(rule, scene)
    assert out.total == 15
    assert out.feasible_injective
    assert len(out.matched_pairs) == 2
    assert sum(ins for _, _, ins in out.matched_pairs) == 3
    assert [cost for _, cost in out.unmatched_sample_entities] == [4, 4, 4]
    # every rule entity matched exactly once, to distinct scene entities
    assert sorted(i for i, _, _ in out.matched_pairs) == [0, 1]
    used = [j for _, j, _ in out.matched_pairs]
    assert len(set(used)) == len(used)


def test_fig_scene_zero_mode():
    rule, scene = fig_pair()
    out = edit_distance(rule, scene, unmatched_cost="zero")
    assert out.total == 3
    assert all(cost == 0 for _, cost in out.unmatched_sample_entities)


def test_identity_is_zero():
    z = ASD.from_id_sets([[0, 1], [2, 3], [4]])
    out = edit_distance(z, z)
    assert out.total == 0
    assert out.feasible_injective
    assert not out.unmatched_sample_entities


def test_many_to_one_fallback():
    v = Vocabulary()
    r = ASD.from_names(v, [["A"], ["B"]])
    z = ASD.from_names(v, [["A", "B"]])
    out = edit_distance(r, z)
    assert out.total == 2
    assert not out.feasible_injective
    assert out.matched_pairs == ((0, 0, 1), (1, 0, 1))
    assert not out.unmatched_sample_entities  # the shared witness counts as matched


def test_shared_witness_can_beat_independent_cheapest():
    """Regression: riding the cheapest superset per entity is not optimal.

    With r = {{A},{B},{C}} and z = {{A,B,C},{A,B,C,D,E}}, every rule entity's
    cheapest superset is {A,B,C} (2 insertions each); all riding it leaves
    {A,B,C,D,E} unmatched for 6 + 5 = 11.  Sending one entity to the large
    scene entity instead costs 2 + 2 + 4 = 8 with nothing unmatched.
    """
    v = Vocabulary()
    r = ASD.from_names(v, [["A"], ["B"], ["C"]])
    z = ASD.from_names(v, [["A", "B", "C"], ["A", "B", "C", "D", "E"]])
    out = edit_distance(r, z)
    assert out.total == 8
    assert out == oracle_edit_distance(r, z, budget=OracleBudget())
    assert not out.feasible_injective


def test_rejects_empty_and_non_subsuming():
    z = ASD.from_id_sets([[0]])
    with pytest.raises(ValueError):
        edit_distance(ASD(()), z)
    with pytest.raises(ValueError):
        edit_distance(z, ASD(()))
    with pytest.raises(ValueError):
        edit_distance(ASD.from_id_sets([[0, 1]]), z)


def test_rejects_unknown_mode():
    z = ASD.from_id_sets([[0]])
    with pytest.raises(ConfigError):
        edit_distance(z, z, unmatched_cost="bogus")


# ---------------------------------------------------------------------------
# solver vs oracle
# ---------------------------------------------------------------------------

def test_breakdown_total_decomposes():
    for rule, sample in subsuming_pairs(6, 200):
        out = edit_distance(rule, sample)
        recomputed = (sum(ins for _, _, ins in out.matched_pairs)
                      + sum(cost for _, cost in out.unmatched_sample_entities))
        assert out.total == recomputed
        assert sorted(i for i, _, _ in out.matched_pairs) == list(range(len(rule)))


def test_injective_attrs_total_is_size_difference():
    """With distinct witnesses, every insertion is paid exactly once, so the
    total collapses to sample attributes minus rule attributes."""
    rule, scene = fig_pair()
    assert scene.total_attributes - rule.total_attributes == 20 - 5
    seen = 0
    for r, z in subsuming_pairs(7, 400):
        out = edit_distance(r, z)
        if out.feasible_injective:
            seen += 1
            assert out.total == z.total_attributes - r.total_attributes
    assert seen > 50


def raw_asd(entities) -> ASD:
    """A description holding ``entities`` as given, duplicates and order kept.

    ``ASD`` canonicalizes and deduplicates; edit distance must not rely on it.
    """
    asd = object.__new__(ASD)
    object.__setattr__(asd, "entities", tuple(entities))
    return asd


@st.composite
def described_pairs(draw):
    """(rule, sample) pairs where the rule describes the sample.

    Attributes come from a vocabulary of 8, 64, 65 or 300 ids, through a small
    pool that always holds the widest id.  Sample entities are drawn from a
    few base entities, some grown, so witnesses tie often; some samples keep
    their entity list as drawn, duplicates included.  Rule entities are subsets of sample
    entities, often several of one, so many pairs have no injective
    assignment.  Rule entities may be empty.
    """
    width = draw(st.sampled_from([8, 64, 65, 300]))
    pool = sorted(draw(st.sets(st.integers(0, width - 1), min_size=1, max_size=7))
                  | {width - 1})
    entity = st.frozensets(st.sampled_from(pool), min_size=1, max_size=4).map(entity_from_ids)
    base = draw(st.lists(entity, min_size=1, max_size=4))
    grown = st.builds(lambda b, extra: b | extra, st.sampled_from(base), entity)
    z = draw(st.lists(st.sampled_from(base) | grown, min_size=1, max_size=6))
    r = [entity_from_ids(draw(st.sets(st.sampled_from(entity_ids(draw(st.sampled_from(z)))))))
         for _ in range(draw(st.integers(1, 4)))]
    sample = raw_asd(z) if draw(st.integers(0, 3)) == 0 else ASD(tuple(z))
    return ASD(tuple(r)), sample


# always tried: duplicate witnesses, shared witnesses, the top bit of a word
PINNED_PAIRS = [
    (ASD.from_id_sets([[0], [1]]), raw_asd([0b111, 0b111, 0b11])),
    (ASD.from_id_sets([[0], [1]]), ASD.from_id_sets([[0, 1]])),
    (ASD.from_id_sets([[0], [1], [2]]), ASD.from_id_sets([[0, 1, 2], [0, 1, 2, 3, 4]])),
    (ASD.from_id_sets([[63], [64]]), raw_asd([1 << 63 | 1 << 64, 1 << 64, 1 << 64])),
    (ASD.from_id_sets([[299], []]), ASD.from_id_sets([[299, 5], [299]])),
]


@given(described_pairs(), st.sampled_from(UNMATCHED_COST_MODES))
@settings(max_examples=300)
@example(PINNED_PAIRS[0], "attrs")
@example(PINNED_PAIRS[0], "zero")
@example(PINNED_PAIRS[1], "attrs")
@example(PINNED_PAIRS[2], "attrs")
@example(PINNED_PAIRS[2], "zero")
@example(PINNED_PAIRS[3], "attrs")
@example(PINNED_PAIRS[3], "zero")
@example(PINNED_PAIRS[4], "zero")
def test_breakdown_matches_oracle(pair, mode):
    """The whole breakdown, the lexicographically smallest optimal mapping
    included, equals the exhaustive oracle's; the total-only score agrees."""
    assert edit_matches_oracle(*pair, mode), (
        edit_distance(*pair, unmatched_cost=mode),
        oracle_edit_distance(*pair, unmatched_cost=mode),
        distance_metric_select("edit", mode)(*pair))


@given(st.data())
@settings(max_examples=300)
def test_linear_sum_assignment_is_optimal(data):
    """The exact solver against enumeration, forbidden cells included."""
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(n, 5))
    cell = st.none() | st.integers(-30, 30)
    cost = data.draw(st.lists(st.lists(cell, min_size=m, max_size=m),
                              min_size=n, max_size=n))

    def total(columns):
        return sum(cost[i][j] for i, j in enumerate(columns))
    feasible = [p for p in itertools.permutations(range(m), n)
                if all(cost[i][j] is not None for i, j in enumerate(p))]
    if not feasible:
        with pytest.raises(ValueError):
            linear_sum_assignment(cost)
        return
    columns = linear_sum_assignment(cost)
    assert tuple(columns) in feasible
    assert total(columns) == min(total(p) for p in feasible)


# ---------------------------------------------------------------------------
# behavior under added redundancy
# ---------------------------------------------------------------------------

def grow_entity(asd: ASD, index: int, extra_ids) -> ASD:
    entities = list(asd.entities)
    for i in extra_ids:
        entities[index] |= 1 << i
    return ASD(tuple(entities))


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=300)
def test_attrs_distance_grows_with_added_attributes(case, extra):
    """Feasible injective case: inflating one scene entity with genuinely new
    attributes raises the attrs-mode distance by exactly that count."""
    rng = random.Random(case)
    rule, sample = next(iter(subsuming_pairs(case, 1)))
    base = edit_distance(rule, sample)
    if not base.feasible_injective:
        return
    idx = rng.randrange(len(sample))
    fresh = range(20, 20 + extra)  # ids outside the stream's vocabulary
    grown = grow_entity(sample, idx, fresh)
    if len(grown) != len(sample):  # growth may collide two entities
        return
    out = edit_distance(rule, grown)
    if out.feasible_injective:
        assert out.total == base.total + extra


def test_zero_mode_distance_can_shrink_when_entities_grow():
    """Counterexample held: zero mode charges nothing for strays, so making a
    stray entity absorb a rule entity's insertions can lower the total."""
    v = Vocabulary()
    r = ASD.from_names(v, [["A"]])
    z = ASD.from_names(v, [["A", "B", "C", "D"], ["B"]])
    grown = ASD.from_names(v, [["A", "B", "C", "D"], ["A", "B"]])
    assert edit_distance(r, z, unmatched_cost="zero").total == 3
    assert edit_distance(r, grown, unmatched_cost="zero").total == 1


def test_attrs_mode_distance_can_shrink_when_injective_infeasible():
    """Counterexample held: growth can create a previously impossible
    injective matching and undercut the shared-witness fallback."""
    v = Vocabulary()
    r = ASD.from_names(v, [["A"], ["B"]])
    z = ASD.from_names(v, [["A", "B"], ["C"]])
    grown = ASD.from_names(v, [["A", "B"], ["A", "C"]])
    assert edit_distance(r, z).total == 3
    assert edit_distance(r, grown).total == 2


# ---------------------------------------------------------------------------
# metric selection and prototype picking
# ---------------------------------------------------------------------------

def test_metric_select():
    v = Vocabulary()
    r = ASD.from_names(v, [["A"]])
    z = ASD.from_names(v, [["A", "B"]])
    assert distance_metric_select("edit")(r, z) == 1
    assert distance_metric_select("jaccard")(r, z) == pytest.approx(1 - similarity(r, z))
    with pytest.raises(ConfigError):
        distance_metric_select("foo")
    with pytest.raises(ConfigError):
        distance_metric_select("edit", unmatched_cost="bogus")


def make_ccd(vocab, entity_lists, label, ids):
    return ClassClusterDescription(
        ASD.from_names(vocab, entity_lists), label, frozenset(ids))


def test_find_prototype_worked_example():
    v = Vocabulary()
    d1 = Sample("d1", "pos", ASD.from_names(v, [["Large", "Blue", "Cube"], ["Small", "Sphere"]]))
    d2 = Sample("d2", "pos", ASD.from_names(v, [["Large", "Cube"], ["Large", "Cylinder"]]))
    ccd = make_ccd(v, [["Large", "Cube"]], "pos", ["d1", "d2"])
    rec = find_prototype(ccd, [d1, d2])
    assert rec.sample_id == "d2"
    assert rec.distance == 2
    assert rec.breakdown.total == 2
    assert rec.metric == "edit"


def test_find_prototype_single_candidate():
    v = Vocabulary()
    d = Sample("only", "pos", ASD.from_names(v, [["A", "B", "C", "D"]]))
    ccd = make_ccd(v, [["A"]], "pos", ["only"])
    assert find_prototype(ccd, [d]).sample_id == "only"


def test_find_prototype_tie_goes_to_lower_id():
    v = Vocabulary()
    a = Sample("a2", "pos", ASD.from_names(v, [["A", "B"]]))
    b = Sample("a1", "pos", ASD.from_names(v, [["A", "C"]]))
    ccd = make_ccd(v, [["A"]], "pos", ["a1", "a2"])
    assert find_prototype(ccd, [a, b]).sample_id == "a1"


def test_find_prototype_requires_coverage():
    v = Vocabulary()
    d = Sample("d", "pos", ASD.from_names(v, [["B"]]))
    ccd = make_ccd(v, [["A"]], "pos", [])
    with pytest.raises(ValueError):
        find_prototype(ccd, [d])


def test_find_prototype_runners_up():
    v = Vocabulary()
    samples = [
        Sample("s1", "pos", ASD.from_names(v, [["A"]])),
        Sample("s2", "pos", ASD.from_names(v, [["A", "B"]])),
        Sample("s3", "pos", ASD.from_names(v, [["A", "B", "C"]])),
    ]
    ccd = make_ccd(v, [["A"]], "pos", ["s1", "s2", "s3"])
    rec = find_prototype(ccd, samples, runners_up=2)
    assert rec.sample_id == "s1"
    assert rec.runners_up == (("s2", 1), ("s3", 2))


def test_find_prototype_jaccard_metric():
    v = Vocabulary()
    samples = [
        Sample("far", "pos", ASD.from_names(v, [["A", "B", "C", "D"]])),
        Sample("near", "pos", ASD.from_names(v, [["A", "B"]])),
    ]
    ccd = make_ccd(v, [["A", "B"]], "pos", ["far", "near"])
    rec = find_prototype(ccd, samples, metric="jaccard")
    assert rec.sample_id == "near"
    assert rec.metric == "jaccard"
    assert rec.distance == pytest.approx(0.0)


@st.composite
def prototype_cases(draw):
    """A rule and samples it partly covers: some grown from the rule (one in
    two shares a witness between two rule entities), some random, some twins
    of others; ids are unrelated to the order of the samples."""
    width = draw(st.sampled_from([8, 65]))
    entity = st.frozensets(st.integers(0, width - 1), min_size=1, max_size=3).map(
        entity_from_ids)
    rule = ASD(tuple(draw(st.lists(entity, min_size=1, max_size=3))))
    descriptions = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.integers(0, 2))
        if kind == 2 and descriptions:
            descriptions.append(draw(st.sampled_from(descriptions)))
            continue
        strays = draw(st.lists(entity, max_size=3))
        if kind == 1:
            descriptions.append(ASD(tuple(strays) or (draw(entity),)))
            continue
        witnesses = [e | draw(entity) if draw(st.booleans()) else e for e in rule.entities]
        if len(witnesses) > 1 and draw(st.booleans()):
            witnesses[0] |= witnesses.pop()
        descriptions.append(ASD(tuple(witnesses + strays)))
    ids = draw(st.permutations([f"s{k}" for k in range(len(descriptions))]))
    samples = [Sample(i, "pos", d) for i, d in zip(ids, descriptions)]
    coverage = frozenset(s.id for s in samples if subsumes(rule, s.asd))
    return ClassClusterDescription(rule, "pos", coverage), samples


@given(prototype_cases(), st.sampled_from(METRICS), st.sampled_from(UNMATCHED_COST_MODES))
@settings(max_examples=300)
def test_find_prototype_matches_full_breakdown_reference(case, metric, mode):
    """Scoring by totals alone picks what sorting full breakdowns by
    (distance, id) picks: the winner, its breakdown and the runner-up order."""
    ccd, samples = case
    covered = [s for s in samples if s.id in ccd.coverage]
    if not covered:
        return
    full = {s.id: edit_distance(ccd.asd, s.asd, mode) for s in covered}
    edit = distance_metric_select("edit", mode)
    assert all(edit(ccd.asd, s.asd) == full[s.id].total for s in covered)
    if metric == "edit":
        ranked = sorted((full[s.id].total, s.id) for s in covered)
    else:
        ranked = sorted((1.0 - similarity(ccd.asd, s.asd), s.id) for s in covered)
    rec = find_prototype(ccd, samples, metric=metric, unmatched_cost=mode,
                         runners_up=len(covered))
    assert (rec.distance, rec.sample_id) == ranked[0]
    assert rec.breakdown == full[rec.sample_id]
    assert [(d, sid) for sid, d in rec.runners_up] == ranked[1:]
