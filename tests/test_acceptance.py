"""Acceptance gate: one test per criterion, run on the full-size scene dataset.

Criteria 1-8 map one-to-one onto the tests below (pytest -v prints one
pass/fail line each).  The ninth item on the list, reproducing the human
user-study accuracies, is out of scope for a code artifact: those numbers
measure people, not this implementation.  The property batteries here are
the stand-in.
"""

import json
import random
import time

import pytest

from conftest import assert_schema_1, run_fresh
from semproto import (
    ASD,
    GeneratorConfig,
    OracleBudget,
    equivalent,
    generate_clevr_hans3,
    oracle_edit_distance,
    random_asds,
    run_pipeline,
    subsumes,
    subsuming_pairs,
)
from semproto.cli import main
from semproto.selftest import (common_generalization, edit_matches_oracle, greedy_meets_bound,
                               merge_generalizes, merge_is_most_specific, similarity_props)

GENERATOR_SEED = 7
SAMPLES_PER_CLASS = 200

EXPECTED_RULES = {
    "class1": [["Large", "Cube"], ["Large", "Cylinder"]],
    "class2": [["Small", "Metal", "Cube"], ["Small", "Sphere"]],
    "class3": [["Large", "Blue", "Sphere"], ["Small", "Yellow", "Sphere"]],
}


@pytest.fixture(scope="module")
def clevr():
    """The canonical acceptance run: 200 scenes/class, single-threaded."""
    config = GeneratorConfig(samples_per_class=SAMPLES_PER_CLASS,
                             seed=GENERATOR_SEED, confounded=False)
    dataset, rules = generate_clevr_hans3(config)
    started = time.monotonic()
    result = run_pipeline(dataset, max_prototypes=1, ground_truth=rules)
    elapsed = time.monotonic() - started
    return {"dataset": dataset, "rules": rules, "result": result,
            "elapsed": elapsed}


def test_criterion_1_rule_recovery(clevr):
    """Top rule per class is subsumption-equivalent to the generating rule,
    in under 60 seconds single-threaded."""
    assert clevr["elapsed"] < 60.0, f"pipeline took {clevr['elapsed']:.1f}s"
    vocab = clevr["dataset"].vocabulary
    seen = []
    for class_result in clevr["result"].classes:
        assert class_result.selection, f"no rule selected for {class_result.label}"
        top = class_result.selection[0].ccd.asd
        expected = ASD.from_names(vocab, EXPECTED_RULES[class_result.label])
        assert equivalent(top, expected), (
            f"{class_result.label}: mined {top.to_name_lists(vocab)}, "
            f"expected {EXPECTED_RULES[class_result.label]}")
        assert class_result.rule_recovered is True
        seen.append(class_result.label)
    assert seen == ["class1", "class2", "class3"]
    print(f"criterion 1 PASS: all 3 rules recovered in {clevr['elapsed']:.2f}s")


def test_criterion_2_prototype_minimality(clevr):
    """Each reported prototype is distance-minimal among covered samples and
    carries the oracle's breakdown, re-verified against the exhaustive oracle."""
    budget = OracleBudget(max_entities=12)
    rng = random.Random(20260822)
    by_id = clevr["dataset"].by_id
    checked = 0
    for class_result in clevr["result"].classes:
        for proto in class_result.prototypes:
            rule = proto.ccd.asd
            winner = oracle_edit_distance(rule, by_id[proto.sample_id].asd,
                                          budget=budget)
            assert proto.breakdown == winner
            others = sorted(proto.ccd.coverage)
            for sample_id in rng.sample(others, 20):
                other = oracle_edit_distance(rule, by_id[sample_id].asd,
                                             budget=budget).total
                assert winner.total <= other, (
                    f"{proto.sample_id} ({winner.total}) beaten by {sample_id} ({other})")
                checked += 1
    assert checked == 3 * 20
    print(f"criterion 2 PASS: 3 prototypes oracle-minimal over {checked} samples")


@pytest.mark.parametrize("mode", ["attrs", "zero"])
def test_criterion_3_edit_distance_oracle_equivalence(mode):
    """Solver breakdown (total, matched pairs, unmatched sample entities)
    equals the exhaustive oracle's on 1,000 generated pairs."""
    pairs = subsuming_pairs(1003, 1000, max_general=4, max_specific=6)
    assert sum(not edit_matches_oracle(rule, sample, mode) for rule, sample in pairs) == 0
    print(f"criterion 3 PASS ({mode}): 1000/1000 pairs match the oracle")


def test_criterion_4_merge_most_specific_generalization():
    """10,000 pairs: merge subsumes both and is an antichain; 10,000 triples:
    any common generalization, built without merge, subsumes the merge."""
    stream = random_asds(1004, 20_000)
    assert sum(not merge_generalizes(z1, z2) for z1, z2 in zip(stream, stream)) == 0
    rng = random.Random(1004)
    stream = random_asds(2004, 20_000)
    assert sum(not merge_is_most_specific(common_generalization(rng, z1, z2), z1, z2)
               for z1, z2 in zip(stream, stream)) == 0
    print("criterion 4 PASS: 10000 pairs + 10000 triples, 0 failures")


def test_criterion_5_rule_soundness_and_completeness(clevr):
    """Naive-scan recheck on the acceptance run: no negative described, every
    positive covered before selection."""
    dataset = clevr["dataset"]
    described_negatives = 0
    for class_result in clevr["result"].classes:
        positives = dataset.by_label[class_result.label]
        negatives = [s for s in dataset.samples if s.label != class_result.label]
        covered = set()
        for ccd in class_result.candidates:
            for negative in negatives:
                if subsumes(ccd.asd, negative.asd):
                    described_negatives += 1
            covered |= ccd.coverage
        assert covered == {p.id for p in positives}, class_result.label
    assert described_negatives == 0
    print("criterion 5 PASS: 0 negatives described, 100% positives covered")


def test_criterion_6_greedy_coverage_bound():
    """Greedy coverage reaches ceil((1 - 1/e) * OPT) on 200 random instances."""
    rng = random.Random(1006)
    violations = 0
    for _ in range(200):
        n_sets = rng.randint(1, 12)
        n_points = rng.randint(1, 20)
        cov = [frozenset(rng.sample(range(n_points),
                                    rng.randint(0, min(7, n_points))))
               for _ in range(n_sets)]
        violations += not greedy_meets_bound(cov, rng.randint(1, 4))
    assert violations == 0
    print("criterion 6 PASS: 200/200 instances meet the (1 - 1/e) bound")


def test_criterion_7_similarity_properties():
    """Symmetry, range, and identity over 10,000 random description pairs.
    Both the symmetry and the identity are exact: ``0.5*x + 0.5*y`` is
    commutative in IEEE arithmetic, and identical descriptions score 1.0."""
    stream = random_asds(1007, 20_000)
    assert sum(not similarity_props(a, b) for a, b in zip(stream, stream)) == 0
    print("criterion 7 PASS: 10000 pairs symmetric, bounded, identity-exact")


def test_criterion_8_parallel_determinism(tmp_path):
    """The full run produces byte-identical reports at parallelism 1 and 8,
    each run in a fresh interpreter under its own string hash seed, so a
    tie broken by set or dict order over strings shows as a difference."""
    data = tmp_path / "scenes.jsonl"
    rc = main(["generate", "--samples-per-class", str(SAMPLES_PER_CLASS),
               "--seed", str(GENERATOR_SEED), "--output", str(data)])
    assert rc == 0
    rules = data.with_suffix(".rules.jsonl")
    outputs = {}
    for workers, hash_seed in ((1, "0"), (8, "1")):
        out = tmp_path / f"report-p{workers}.json"
        argv = ["run", "--dataset", str(data), "--max-prototypes", "1",
                "--ground-truth", str(rules), "--parallelism", str(workers),
                "--output", str(out)]
        run_fresh(f"from semproto.cli import main\nassert main({argv!r}) == 0",
                  PYTHONHASHSEED=hash_seed)
        outputs[workers] = (out.read_bytes(), out.with_suffix(".md").read_bytes())
        assert_schema_1(json.loads(outputs[workers][0]))
    assert outputs[1][0] == outputs[8][0], "JSON reports differ across runs"
    assert outputs[1][1] == outputs[8][1], "markdown reports differ across runs"
    assert len(outputs[1][0]) > 1000
    print("criterion 8 PASS: byte-identical reports at parallelism 1 and 8, "
          "under hash seeds 0 and 1")
