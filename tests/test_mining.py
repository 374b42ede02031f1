"""Rule mining: greedy merge traces, soundness checks, greedy selection."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semproto import (
    ASD,
    ConfigError,
    GeneratorConfig,
    InseparableDataError,
    NegativeAttributeIndex,
    Sample,
    Vocabulary,
    check_ccd,
    generate_clevr_hans3,
    greedy_cover,
    merge,
    mine_ccds,
    random_asds,
    run_pipeline,
    select_ccds,
    similarity,
    subsumes,
)
from semproto import mining, oracle
from semproto.mining import SimilarityRanker, _sort_by_similarity
from semproto.oracle import scalar_mine
from semproto.selftest import battery_greedy_coverage


def mk_samples(vocab, label, named_asds):
    return [Sample(sid, label, ASD.from_names(vocab, lists))
            for sid, lists in named_asds]


def worked_instance(vocab):
    positives = mk_samples(vocab, "pos", [
        ("d1", [["Large", "Cube"], ["Small", "Sphere"]]),
        ("d2", [["Large", "Cube"], ["Large", "Cylinder"]]),
    ])
    negatives = mk_samples(vocab, "neg", [
        ("n1", [["Small", "Cube"], ["Small", "Sphere"]]),
        ("n2", [["Large", "Cylinder"]]),
    ])
    return positives, negatives


# ---------------------------------------------------------------------------
# mine_ccds
# ---------------------------------------------------------------------------

def test_worked_example_converges_to_single_rule():
    v = Vocabulary()
    positives, negatives = worked_instance(v)
    out = mine_ccds(positives, negatives)
    assert len(out) == 1
    assert out[0].asd == ASD.from_names(v, [["Large", "Cube"]])
    assert out[0].coverage == {"d1", "d2"}
    assert out[0].class_label == "pos"


def test_single_positive_keeps_own_description():
    v = Vocabulary()
    positives = mk_samples(v, "pos", [("d1", [["A", "B"]])])
    negatives = mk_samples(v, "neg", [("n1", [["C"]]), ("n2", [["D"]])])
    out = mine_ccds(positives, negatives)
    assert len(out) == 1
    assert out[0].asd == positives[0].asd
    assert out[0].coverage == {"d1"}


def test_no_negatives_collapses_to_most_general_merge():
    v = Vocabulary()
    positives = mk_samples(v, "pos", [
        ("p1", [["A", "B"]]),
        ("p2", [["A", "C"]]),
        ("p3", [["A", "B", "D"]]),
    ])
    out = mine_ccds(positives, [])
    assert len(out) == 1
    assert out[0].asd == ASD.from_names(v, [["A"]])
    assert out[0].coverage == {"p1", "p2", "p3"}


def test_no_negatives_tolerates_empty_entity_rule():
    """Disjoint positives with nothing to separate from legally merge to the
    single empty entity, which describes everything."""
    v = Vocabulary()
    positives = mk_samples(v, "pos", [("p1", [["A"]]), ("p2", [["B"]])])
    out = mine_ccds(positives, [])
    assert len(out) == 1
    assert out[0].asd == ASD((0,))
    assert out[0].coverage == {"p1", "p2"}


def test_rejected_merge_keeps_separate_rules():
    v = Vocabulary()
    positives = mk_samples(v, "pos", [("p1", [["A"]]), ("p2", [["B"]])])
    negatives = mk_samples(v, "neg", [("n1", [["C"]])])
    out = mine_ccds(positives, negatives)
    assert [c.asd for c in out] == [ASD.from_names(v, [["A"]]),
                                    ASD.from_names(v, [["B"]])]
    assert [sorted(c.coverage) for c in out] == [["p1"], ["p2"]]


def test_inseparable_positive_raises():
    v = Vocabulary()
    positives = mk_samples(v, "pos", [("p1", [["A"]])])
    negatives = mk_samples(v, "neg", [("n1", [["A", "B"]])])
    with pytest.raises(InseparableDataError) as err:
        mine_ccds(positives, negatives)
    assert err.value.positive_id == "p1"
    assert err.value.negative_id == "n1"


def test_input_validation():
    v = Vocabulary()
    pos = mk_samples(v, "pos", [("p1", [["A"]])])
    neg = mk_samples(v, "neg", [("n1", [["B"]])])
    with pytest.raises(ValueError):
        mine_ccds([], neg)
    mixed = pos + mk_samples(v, "other", [("p2", [["A"]])])
    with pytest.raises(ValueError):
        mine_ccds(mixed, neg)
    with pytest.raises(ValueError):
        mine_ccds(pos, mk_samples(v, "pos", [("n2", [["B"]])]))
    clash = mk_samples(v, "neg", [("p1", [["B"]])])
    with pytest.raises(ValueError):
        mine_ccds(pos, clash)
    # traces address positives by position, so a repeated id is refused
    with pytest.raises(ValueError, match="unique"):
        mine_ccds(pos + mk_samples(v, "pos", [("p1", [["A", "C"]])]), neg)


def test_config_validation():
    positives, negatives = worked_instance(Vocabulary())
    with pytest.raises(ConfigError, match="parallelism must be >= 1"):
        mine_ccds(positives, negatives, parallelism=0)


@pytest.mark.parametrize("options", [
    {"max_prototypes": 0, "metric": "bogus", "unmatched_cost": "nope"},
    {"metric": "bogus"},
    {"unmatched_cost": "nope"},
])
def test_run_pipeline_rejects_unknown_metric_and_mode_before_mining(options,
                                                                   monkeypatch):
    import semproto.pipeline

    def no_mining(*args, **kwargs):
        raise AssertionError("mining ran before the options were checked")
    monkeypatch.setattr(semproto.pipeline, "mine_ccds", no_mining)
    dataset, _ = generate_clevr_hans3(GeneratorConfig(samples_per_class=5,
                                                      objects_max=4, seed=1))
    with pytest.raises(ConfigError):
        run_pipeline(dataset, **options)


def random_instance(seed, n_pos=8, n_neg=6):
    """Random labeled samples, discarding draws with inseparable positives."""
    stream = random_asds(seed, n_pos + n_neg, max_entities=3, max_entity_size=3,
                         vocab_size=8)
    all_asds = list(stream)
    positives = [Sample(f"p{i:02d}", "pos", a) for i, a in enumerate(all_asds[:n_pos])]
    negatives = [Sample(f"n{i:02d}", "neg", a) for i, a in enumerate(all_asds[n_pos:])]
    negatives = [n for n in negatives
                 if not any(subsumes(p.asd, n.asd) for p in positives)]
    return positives, negatives


def test_mined_rules_are_sound_and_complete():
    for seed in range(30):
        positives, negatives = random_instance(seed)
        out = mine_ccds(positives, negatives)
        covered = set()
        for ccd in out:
            for n in negatives:
                assert not subsumes(ccd.asd, n.asd)
            recomputed = {p.id for p in positives if subsumes(ccd.asd, p.asd)}
            assert recomputed == ccd.coverage
            covered |= ccd.coverage
        assert covered == {p.id for p in positives}


def test_seed_dedupe_does_not_change_results():
    """mine_ccds traces one seed per distinct description; scalar_mine traces
    every seed, twins included."""
    v = Vocabulary()
    positives = mk_samples(v, "pos", [
        ("p1", [["A", "B"]]),
        ("p2", [["A", "B"]]),  # exact twin of p1
        ("p3", [["A", "C"]]),
    ])
    negatives = mk_samples(v, "neg", [("n1", [["D"]])])
    assert [c.asd for c in mine_ccds(positives, negatives)] == scalar_mine(positives,
                                                                           negatives)
    for seed in range(10):
        positives, negatives = random_instance(seed)
        positives += [Sample(p.id + "-twin", "pos", p.asd) for p in positives[::2]]
        assert [c.asd for c in mine_ccds(positives, negatives)] == scalar_mine(
            positives, negatives)


def parallel_cases():
    """Mining inputs for the pool: random instances, the same with twin
    descriptions listed last under lower ids (so the seed kept for a twin
    pair sits late in ranker order), and one with two distinct seeds."""
    for seed in (0, 1):
        positives, negatives = random_instance(seed, n_pos=10, n_neg=5)
        yield positives, negatives
        twins = [Sample("o" + p.id[1:], "pos", p.asd) for p in positives[::3]]
        yield positives + twins, negatives
    v = Vocabulary()
    yield (mk_samples(v, "pos", [("p1", [["A", "B"]]), ("p2", [["A", "C"]]),
                                 ("p0", [["A", "B"]])]),
           mk_samples(v, "neg", [("n1", [["D"]])]))


def test_parallel_mining_matches_serial(monkeypatch):
    # pool sizes up to 4 whatever the host has, so the pool really runs
    monkeypatch.setattr("semproto.mining._usable_cpus", lambda: 4)
    for case, (positives, negatives) in enumerate(parallel_cases()):
        expected = scalar_mine(positives, negatives)
        serial = mine_ccds(positives, negatives)
        assert [c.asd for c in serial] == expected
        # a dataset-wide index whose sample order is unrelated to the ids
        samples = [*positives, *negatives]
        random.Random(case).shuffle(samples)
        index = NegativeAttributeIndex(samples)
        assert mine_ccds(positives, negatives, index=index) == serial
        for workers in (2, 4):
            parallel = mine_ccds(positives, negatives, workers,
                                 index=index)
            assert parallel == serial


def in_process_pool(log):
    """A stand-in for ProcessPoolExecutor that runs the initializer and maps
    in this process, so no process starts.  Each map appends the pool's size
    and its number of tasks to ``log``."""
    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            self.max_workers = max_workers
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            log.append((self.max_workers, len(items)))
            return map(fn, items)
    return InProcessPool


def test_pool_size_is_capped_by_cpus_and_seeds(monkeypatch):
    """--parallelism N asks for at most min(N, usable CPUs, seeds) workers and
    runs serially when that is 1."""
    import os

    log = []
    monkeypatch.setattr(mining, "ProcessPoolExecutor", in_process_pool(log))
    monkeypatch.setattr(mining, "_POOL_STATE", None)
    positives, negatives = random_instance(0, n_pos=10, n_neg=5)
    seeds = len({p.asd for p in positives})
    assert seeds > 3
    serial = mine_ccds(positives, negatives)
    huge = 10**6

    def mined_with(affinity, cpu_count):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                                raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        log.clear()
        assert mine_ccds(positives, negatives, huge) == serial
        return [workers for workers, _ in log]

    assert mined_with(affinity=3, cpu_count=64) == [3]
    assert mined_with(affinity=None, cpu_count=10**6) == [seeds]
    assert mined_with(affinity=None, cpu_count=2) == [2]
    assert mined_with(affinity=1, cpu_count=64) == []
    assert mined_with(affinity=None, cpu_count=None) == []


SPAWN_SCRIPT = """
import multiprocessing
from semproto import GeneratorConfig, generate_clevr_hans3, mining, run_pipeline

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    mining._usable_cpus = lambda: 2  # run the pool even on a one-CPU host
    dataset, _ = generate_clevr_hans3(GeneratorConfig(samples_per_class=8,
                                                      objects_max=4, seed=3))
    runs = [run_pipeline(dataset, max_prototypes=0, parallelism=p)
            for p in (1, 2)]
    serial, parallel = ([c.candidates for c in run.classes] for run in runs)
    assert all(serial) and serial == parallel, "parallel candidates differ"
    print("spawn ok")
"""


def test_parallel_mining_under_spawn(tmp_path):
    """Under spawn the pool's index and ranker reach the workers pickled."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import semproto
    script = tmp_path / "spawn_mining.py"
    script.write_text(SPAWN_SCRIPT)
    src = str(Path(semproto.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "spawn ok"


# ---------------------------------------------------------------------------
# similarity ordering: the vectorized ranker against asd.similarity
# ---------------------------------------------------------------------------

@st.composite
def ranker_inputs(draw):
    """Positives and references over a vocabulary of 15, 64, 65 or 300 ids.

    Attributes come from a small pool that always holds the widest id, so
    entities overlap often and the top word of the bitsets is used.  Entities
    may be empty.  The references are the positives, their merges (which may
    hold the empty entity), the lone empty entity and single entities.
    """
    width = draw(st.sampled_from([15, 64, 65, 300]))
    pool = sorted(draw(st.sets(st.integers(0, width - 1), min_size=1, max_size=7))
                  | {width - 1})
    entity = st.frozensets(st.sampled_from(pool), max_size=4)
    descriptions = st.lists(entity, min_size=1, max_size=4).map(ASD.from_id_sets)
    asds = draw(st.lists(descriptions, min_size=1, max_size=9))
    ids = draw(st.permutations([f"s{i:02d}" for i in range(len(asds))]))
    positives = list(zip(ids, asds))
    references = list(asds)
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(asds)), draw(st.sampled_from(asds))
        references.append(merge(a, b))
    references += [ASD((0,)), ASD((0, asds[0].entities[-1])),
                   ASD((asds[-1].entities[0],))]
    return positives, references


@given(ranker_inputs())
@settings(max_examples=300)
def test_ranker_scores_equal_scalar_similarity(case):
    positives, references = case
    ranker = SimilarityRanker(positives)
    # each reference twice: the second ranking comes from the memo
    for reference in references + references:
        scores = ranker.scores(reference)
        expected = [similarity(reference, asd) for _, asd in positives]
        assert scores.tolist() == expected
        ranked = [positives[i] for i in ranker.ranking(reference)]
        assert ranked == sorted(positives, key=lambda it: (-similarity(reference, it[1]),
                                                           it[0]))


@given(ranker_inputs(), st.data())
@settings(max_examples=200)
def test_sort_by_similarity_matches_scalar_sort(case, data):
    positives, references = case
    ranker = SimilarityRanker(positives)
    for reference in references:
        remaining = np.array(data.draw(st.lists(st.booleans(), min_size=len(positives),
                                                max_size=len(positives))), dtype=bool)
        items = [item for item, keep in zip(positives, remaining) if keep]
        got = [positives[i] for i in _sort_by_similarity(remaining, reference, ranker)]
        assert got == sorted(items, key=lambda it: (-similarity(reference, it[1]), it[0]))


def test_ranker_rejects_empty_and_foreign_descriptions():
    with pytest.raises(ValueError):
        SimilarityRanker([("p", ASD(()))])
    ranker = SimilarityRanker([("p", ASD.from_id_sets([[0, 1]]))])
    with pytest.raises(ValueError):
        ranker.scores(ASD(()))
    with pytest.raises(ValueError):
        ranker.scores(ASD.from_id_sets([[64]]))


@given(st.integers(0, 10_000), st.sampled_from([8, 70]))
@settings(max_examples=60)
def test_mining_matches_scalar_traces(seed, vocab_size):
    stream = list(random_asds(seed, 18, max_entities=3, max_entity_size=3,
                              vocab_size=vocab_size))
    positives = [Sample(f"p{i:02d}", "pos", a) for i, a in enumerate(stream[:12])]
    negatives = [Sample(f"n{i:02d}", "neg", a) for i, a in enumerate(stream[12:])
                 if not any(subsumes(p.asd, a) for p in positives)]
    assert [c.asd for c in mine_ccds(positives, negatives)] == scalar_mine(positives,
                                                                           negatives)


@st.composite
def mining_inputs(draw):
    """One class against one or two others over a vocabulary of 8, 64, 65 or
    300 ids, and every sample in an order unrelated to the ids.

    Attributes come from a small pool that always holds the widest id, so
    entities nest and merges are often accepted.  One positive is shaped
    [[A], [A, B]], a seed that is not an antichain; random positives may
    hold nested or empty entities too, and some have twins under other ids.
    Negatives that a positive describes are dropped, so the data separate.
    """
    width = draw(st.sampled_from([8, 64, 65, 300]))
    pool = sorted(draw(st.sets(st.integers(0, width - 1), min_size=2, max_size=6))
                  | {width - 1})
    entity = st.frozensets(st.sampled_from(pool), max_size=4)
    descriptions = st.lists(entity, min_size=1, max_size=4).map(ASD.from_id_sets)
    a, b = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
    asds = [ASD.from_id_sets([[a], [a, b]])] + draw(st.lists(descriptions, max_size=10))
    asds += draw(st.lists(st.sampled_from(asds), max_size=4))  # twins
    rest = draw(st.lists(st.tuples(st.sampled_from("mn"), descriptions), max_size=8))
    rest = [(label, asd) for label, asd in rest
            if not any(subsumes(p, asd) for p in asds)]
    ids = draw(st.permutations([f"s{i:02d}" for i in range(len(asds) + len(rest))]))
    positives = [Sample(sid, "pos", asd) for sid, asd in zip(ids, asds)]
    negatives = [Sample(sid, label, asd)
                 for sid, (label, asd) in zip(ids[len(asds):], rest)]
    samples = draw(st.permutations(positives + negatives))
    return positives, negatives, samples


@given(mining_inputs())
@settings(max_examples=200, deadline=None)
def test_memoized_mining_matches_scalar_mine(case):
    """The trace memo and the bulk skip of described positives change no
    candidate, serially or in a pool of more than one chunk."""
    positives, negatives, samples = case
    expected = scalar_mine(positives, negatives)
    serial = mine_ccds(positives, negatives)
    assert [c.asd for c in serial] == expected
    for ccd in serial:
        assert ccd.coverage == {p.id for p in positives if subsumes(ccd.asd, p.asd)}
    index = NegativeAttributeIndex(samples)
    assert mine_ccds(positives, negatives, index=index) == serial
    log = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mining, "ProcessPoolExecutor", in_process_pool(log))
        patch.setattr(mining, "_usable_cpus", lambda: 2)
        patch.setattr(mining, "_POOL_STATE", None)
        assert mine_ccds(positives, negatives, 2, index=index) == serial
    if len({p.asd for p in positives}) > 1:
        [(workers, chunks)] = log
        assert workers == 2 and chunks > 1
    else:
        assert log == []


def test_trace_memo_saves_merges(monkeypatch):
    """On scenes without twins, where seed dedupe saves nothing, mine_ccds
    merges strictly less often than the plain scalar traces."""
    calls = {mining: 0, oracle: 0}

    def counted(module):
        def counted_merge(a, b):
            calls[module] += 1
            return merge(a, b)
        return counted_merge
    monkeypatch.setattr(mining, "merge", counted(mining))
    monkeypatch.setattr(oracle, "merge", counted(oracle))
    dataset, _ = generate_clevr_hans3(GeneratorConfig(samples_per_class=30, seed=3))
    for label in dataset.labels():
        positives, negatives = dataset.split(label)
        assert len({p.asd for p in positives}) == len(positives)
        assert [c.asd for c in mine_ccds(positives, negatives)] == scalar_mine(positives,
                                                                               negatives)
    assert 0 < calls[mining] < calls[oracle]


# ---------------------------------------------------------------------------
# negative index
# ---------------------------------------------------------------------------

def test_check_ccd_basics():
    v = Vocabulary()
    negatives = mk_samples(v, "neg", [("n1", [["A", "B"]]), ("n2", [["C"]])])
    assert check_ccd(ASD.from_names(v, [["A", "B", "D"]]), negatives)
    assert not check_ccd(ASD.from_names(v, [["A"]]), negatives)
    assert check_ccd(ASD.from_names(v, [["A"]]), [])
    # the single empty entity describes everything
    assert not check_ccd(ASD((0,)), negatives)
    assert check_ccd(ASD((0,)), [])


@given(st.integers(0, 500))
@settings(max_examples=120)
def test_index_agrees_with_naive_scan(seed):
    stream = list(random_asds(seed, 9, max_entities=3, max_entity_size=3, vocab_size=8))
    negatives = [Sample(f"n{i}", "neg", a) for i, a in enumerate(stream[:6])]
    index = NegativeAttributeIndex(negatives)
    for candidate in stream[6:]:
        naive = next((n.id for n in negatives if subsumes(candidate, n.asd)), None)
        via_index = index.first_described(candidate)
        assert via_index == naive
        assert check_ccd(candidate, negatives) == (naive is None)


def test_index_empty_negatives():
    index = NegativeAttributeIndex([])
    assert index.first_described(ASD.from_id_sets([[0]])) is None
    assert index.first_described(ASD((0,))) is None


@st.composite
def labelled_sets(draw):
    """Samples of one to three classes over a vocabulary of 8, 70 or 300 ids,
    in an order unrelated to their ids, plus candidate descriptions.

    Attributes come from a small pool that always holds the widest id, so
    entities nest often.  With one class, that class has no negatives.  The
    candidates are the samples' descriptions, their merges, descriptions
    holding the empty entity, the empty description and random ones.
    """
    width = draw(st.sampled_from([8, 70, 300]))
    pool = sorted(draw(st.sets(st.integers(0, width - 1), min_size=1, max_size=7))
                  | {width - 1})
    entity = st.frozensets(st.sampled_from(pool), max_size=4)
    descriptions = st.lists(entity, min_size=1, max_size=4).map(ASD.from_id_sets)
    asds = draw(st.lists(descriptions, min_size=1, max_size=12))
    labels = draw(st.lists(st.sampled_from("abc"), min_size=len(asds), max_size=len(asds)))
    ids = draw(st.permutations([f"s{i:02d}" for i in range(len(asds))]))
    samples = [Sample(sid, label, asd) for sid, label, asd in zip(ids, labels, asds)]
    candidates = list(asds) + [ASD((0,)), ASD(()), ASD((0, asds[0].entities[-1]))]
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(asds)), draw(st.sampled_from(asds))
        candidates.append(merge(a, b))
    candidates += draw(st.lists(descriptions, max_size=3))
    return samples, candidates


@given(labelled_sets())
@settings(max_examples=300)
def test_dataset_index_matches_naive_scan(case):
    samples, candidates = case
    index = NegativeAttributeIndex(samples)
    for label in sorted({s.label for s in samples}):
        positives = [s for s in samples if s.label == label]
        negatives = [s for s in samples if s.label != label]
        view = index.for_class(label)
        for candidate in candidates:
            naive = next((n.id for n in negatives if subsumes(candidate, n.asd)), None)
            assert view.first_described(candidate) == naive
            assert check_ccd(candidate, negatives) == (naive is None)
            covered = index.ids(index.described(candidate, index.labelled(label)))
            assert covered == [p.id for p in positives if subsumes(candidate, p.asd)]
        # mining with the shared index: the same inseparability verdict, and
        # every coverage equal to a subsumes scan
        try:
            mined = mine_ccds(positives, negatives, index=index)
        except InseparableDataError as err:
            assert (err.positive_id, err.negative_id) == next(
                (p.id, n.id) for p in positives for n in negatives
                if subsumes(p.asd, n.asd))
            with pytest.raises(InseparableDataError):
                mine_ccds(positives, negatives)
            continue
        assert mined == mine_ccds(positives, negatives)
        for ccd in mined:
            assert ccd.coverage == {p.id for p in positives if subsumes(ccd.asd, p.asd)}
            assert check_ccd(ccd.asd, negatives)


def test_run_pipeline_builds_one_index(monkeypatch):
    builds = []
    init = NegativeAttributeIndex.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(NegativeAttributeIndex, "__init__", counting_init)
    dataset, _ = generate_clevr_hans3(GeneratorConfig(samples_per_class=10,
                                                      objects_max=5, seed=3))
    result = run_pipeline(dataset, parallelism=1)
    assert len(result.classes) == 3
    assert len(builds) == 1


def test_mine_ccds_rejects_a_foreign_index():
    v = Vocabulary()
    positives, negatives = worked_instance(v)
    with pytest.raises(ValueError):
        mine_ccds(positives, negatives, index=NegativeAttributeIndex(negatives))
    # an index over other samples of the same size
    positives = [Sample("p1", "pos", ASD.from_id_sets([[0, 1]])),
                 Sample("p2", "pos", ASD.from_id_sets([[0, 2]]))]
    negatives = [Sample("n1", "neg", ASD.from_id_sets([[3]]))]
    foreign = NegativeAttributeIndex([Sample("x1", "pos", ASD.from_id_sets([[0, 1, 2]])),
                                      Sample("x2", "pos", ASD.from_id_sets([[4]])),
                                      Sample("x3", "neg", ASD.from_id_sets([[3]]))])
    with pytest.raises(ValueError, match="does not cover exactly"):
        mine_ccds(positives, negatives, index=foreign)


# ---------------------------------------------------------------------------
# greedy selection
# ---------------------------------------------------------------------------

def test_greedy_cover_worked_instance():
    cov = [frozenset("abc"), frozenset("cd"), frozenset("de")]
    assert greedy_cover(cov, k=2) == [0, 2]
    assert len(cov[0] | cov[2]) == 5


def test_greedy_cover_stops_at_zero_gain():
    cov = [frozenset("ab"), frozenset("ab"), frozenset("c")]
    assert greedy_cover(cov) == [0, 2]  # set-cover mode


def test_greedy_cover_k_zero_and_ties():
    cov = [frozenset("ab"), frozenset("cd")]
    assert greedy_cover(cov, k=0) == []
    # equal gain: tie key decides, then index
    assert greedy_cover(cov, k=1, tie_keys=[(1,), (0,)]) == [1]
    assert greedy_cover(cov, k=1, tie_keys=[(0,), (0,)]) == [0]


def test_select_ccds_single_covering_candidate():
    from semproto import ClassClusterDescription
    v = Vocabulary()
    positives = mk_samples(v, "pos", [("p1", [["A"]]), ("p2", [["A", "B"]])])
    wide = ClassClusterDescription(ASD.from_names(v, [["A"]]), "pos",
                                   frozenset({"p1", "p2"}))
    narrow = ClassClusterDescription(ASD.from_names(v, [["A", "B"]]), "pos",
                                     frozenset({"p2"}))
    steps, uncovered = select_ccds([narrow, wide], positives)
    assert [s.ccd for s in steps] == [wide]
    assert uncovered == []


def test_select_ccds_reports_uncovered():
    from semproto import ClassClusterDescription
    v = Vocabulary()
    positives = mk_samples(v, "pos", [("p1", [["A"]]), ("p2", [["B"]])])
    only = ClassClusterDescription(ASD.from_names(v, [["A"]]), "pos", frozenset({"p1"}))
    steps, uncovered = select_ccds([only], positives)
    assert [s.ccd for s in steps] == [only]
    assert uncovered == ["p2"]


def test_select_ccds_prefers_fewer_attributes_on_ties():
    from semproto import ClassClusterDescription
    v = Vocabulary()
    positives = mk_samples(v, "pos", [("p1", [["A", "B"]])])
    heavy = ClassClusterDescription(ASD.from_names(v, [["A", "B"]]), "pos",
                                    frozenset({"p1"}))
    light = ClassClusterDescription(ASD.from_names(v, [["A"]]), "pos",
                                    frozenset({"p1"}))
    steps, _ = select_ccds([heavy, light], positives, k=1)
    assert steps[0].ccd == light


def test_select_ccds_cumulative_annotations():
    from semproto import ClassClusterDescription
    v = Vocabulary()
    positives = mk_samples(v, "pos",
                           [(f"p{i}", [["A"]]) for i in range(4)])
    a = ClassClusterDescription(ASD.from_names(v, [["A"]]), "pos",
                                frozenset({"p0", "p1", "p2"}))
    b = ClassClusterDescription(ASD.from_names(v, [["B"]]), "pos",
                                frozenset({"p2", "p3"}))
    steps, uncovered = select_ccds([a, b], positives)
    assert uncovered == []
    assert [s.newly_covered for s in steps] == [3, 1]
    assert [s.cumulative_covered for s in steps] == [3, 4]


def test_greedy_meets_approximation_bound():
    assert battery_greedy_coverage(200, 0) == ("greedy-coverage-bound", 200, 0)
