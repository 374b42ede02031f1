"""Brute-force oracles: exhaustive edit distance, exhaustive coverage OPT."""

import itertools

import pytest

from semproto import (
    ASD,
    BudgetError,
    OracleBudget,
    Vocabulary,
    oracle_coverage_opt,
    oracle_edit_distance,
    random_asds,
    subsumes,
    subsuming_pairs,
)

FIG_RULE = [["Small", "Metal", "Cube"], ["Small", "Sphere"]]
FIG_SCENE = [
    ["Large", "Blue", "Rubber", "Cylinder"],
    ["Small", "Purple", "Rubber", "Cylinder"],
    ["Small", "Cyan", "Metal", "Cylinder"],
    ["Small", "Red", "Rubber", "Sphere"],
    ["Small", "Purple", "Metal", "Cube"],
]


def fig_pair():
    v = Vocabulary()
    return ASD.from_names(v, FIG_RULE), ASD.from_names(v, FIG_SCENE)


def test_fig_scene_distance_is_15():
    rule, scene = fig_pair()
    assert oracle_edit_distance(rule, scene).total == 15


def test_fig_scene_distance_zero_mode_is_3():
    """Same matching, but the three untouched scene entities cost nothing."""
    rule, scene = fig_pair()
    assert oracle_edit_distance(rule, scene, unmatched_cost="zero").total == 3


def test_identity_distance_is_zero():
    z = ASD.from_id_sets([[0, 1], [2, 3]])
    assert oracle_edit_distance(z, z).total == 0
    assert oracle_edit_distance(z, z, unmatched_cost="zero").total == 0


def test_many_to_one_fallback_value():
    v = Vocabulary()
    r = ASD.from_names(v, [["A"], ["B"]])
    z = ASD.from_names(v, [["A", "B"]])
    assert oracle_edit_distance(r, z).total == 2
    assert oracle_edit_distance(r, z, unmatched_cost="zero").total == 2


def test_oracle_rejects_non_subsuming_pair():
    v = Vocabulary()
    r = ASD.from_names(v, [["A", "B"]])
    z = ASD.from_names(v, [["A"]])
    with pytest.raises(ValueError):
        oracle_edit_distance(r, z)


def test_oracle_rejects_unknown_mode():
    z = ASD.from_id_sets([[0]])
    with pytest.raises(ValueError):
        oracle_edit_distance(z, z, unmatched_cost="bogus")


def test_oracle_entity_budget():
    z = ASD.from_id_sets([[i] for i in range(7)])
    with pytest.raises(BudgetError):
        oracle_edit_distance(ASD.from_id_sets([[0]]), z)
    assert oracle_edit_distance(
        ASD.from_id_sets([[0]]), z, budget=OracleBudget(max_entities=8)
    ).total == 6 + 0  # one exact witness, six singleton strays


def test_coverage_opt_worked_instance():
    cov = [frozenset({1, 2, 3}), frozenset({3, 4}), frozenset({4, 5})]
    assert oracle_coverage_opt(cov, 2) == 5
    assert oracle_coverage_opt(cov, 1) == 3


def test_coverage_opt_k_bounds():
    cov = [frozenset({1}), frozenset({2})]
    assert oracle_coverage_opt(cov, 0) == 0
    assert oracle_coverage_opt(cov, -3) == 0
    assert oracle_coverage_opt(cov, 2) == 2
    assert oracle_coverage_opt(cov, 99) == 2


def test_coverage_opt_candidate_budget():
    cov = [frozenset({i}) for i in range(13)]
    with pytest.raises(BudgetError):
        oracle_coverage_opt(cov, 2)
    assert oracle_coverage_opt(cov, 2, budget=OracleBudget(max_candidates=13)) == 2


def test_coverage_opt_beats_every_subset():
    """Cross-check the oracle against literal subset enumeration."""
    cov = [frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4, 5}), frozenset({5})]
    for k in range(5):
        best = oracle_coverage_opt(cov, k)
        for combo in itertools.combinations(cov, min(k, len(cov))):
            union = frozenset().union(*combo) if combo else frozenset()
            assert len(union) <= best


def test_random_streams_are_deterministic():
    a = list(random_asds(3, 50))
    b = list(random_asds(3, 50))
    c = list(random_asds(4, 50))
    assert a == b
    assert a != c
    assert all(len(x) >= 1 for x in a)


def test_subsuming_pairs_guarantee_and_caps():
    for general, specific in subsuming_pairs(11, 300):
        assert subsumes(general, specific)
        assert 1 <= len(general) <= 4
        assert 1 <= len(specific) <= 6
    first = list(subsuming_pairs(11, 10))
    again = list(subsuming_pairs(11, 10))
    assert first == again
