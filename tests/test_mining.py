"""Rule mining: greedy merge traces, soundness checks, greedy selection."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semproto import (
    ASD,
    ConfigError,
    Dataset,
    GeneratorConfig,
    InseparableDataError,
    NegativeAttributeIndex,
    Sample,
    Vocabulary,
    check_ccd,
    generate_clevr_hans3,
    greedy_cover,
    jaccard,
    merge,
    mine_ccds,
    random_asds,
    run_pipeline,
    select_ccds,
    similarity,
    subsumes,
    write_dataset,
)
from semproto import mining, oracle, ranker as ranker_module
from semproto.cli import EXIT_INTERNAL, main
from semproto.pipeline import _UnionFilter
from semproto.ranker import SimilarityRanker
from semproto.oracle import scalar_mine
from semproto.selftest import mining_matches_scalar, ranker_matches_scalar


def mk_samples(vocab, label, named_asds):
    return [Sample(sid, label, ASD.from_names(vocab, lists))
            for sid, lists in named_asds]


def mine(positives, negatives):
    """mine_ccds with an index over exactly the positives and the negatives."""
    return mine_ccds(positives, NegativeAttributeIndex([*positives, *negatives]))


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
    out = mine(positives, negatives)
    assert len(out) == 1
    assert out[0].asd == ASD.from_names(v, [["Large", "Cube"]])
    assert out[0].coverage == {"d1", "d2"}
    assert out[0].class_label == "pos"


def test_coverage_comes_from_the_ranker(monkeypatch):
    """mine_ccds runs no subsumption pass of its own: each candidate's
    coverage is the positives its ranker row marked as described."""
    def no_subsumes(*args):
        raise AssertionError("mine_ccds called mining.subsumes")
    monkeypatch.setattr(mining, "subsumes", no_subsumes)
    v = Vocabulary()
    positives, negatives = worked_instance(v)
    out = mine(positives, negatives)
    assert [(c.asd, c.coverage) for c in out] == [(ASD.from_names(v, [["Large", "Cube"]]),
                                                   {"d1", "d2"})]


def test_single_positive_keeps_own_description():
    v = Vocabulary()
    positives = mk_samples(v, "pos", [("d1", [["A", "B"]])])
    negatives = mk_samples(v, "neg", [("n1", [["C"]]), ("n2", [["D"]])])
    out = mine(positives, negatives)
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
    out = mine(positives, [])
    assert len(out) == 1
    assert out[0].asd == ASD.from_names(v, [["A"]])
    assert out[0].coverage == {"p1", "p2", "p3"}


def test_no_negatives_tolerates_empty_entity_rule():
    """Disjoint positives with nothing to separate from legally merge to the
    single empty entity, which describes everything."""
    v = Vocabulary()
    positives = mk_samples(v, "pos", [("p1", [["A"]]), ("p2", [["B"]])])
    out = mine(positives, [])
    assert len(out) == 1
    assert out[0].asd == ASD((0,))
    assert out[0].coverage == {"p1", "p2"}


def test_rejected_merge_keeps_separate_rules():
    v = Vocabulary()
    positives = mk_samples(v, "pos", [("p1", [["A"]]), ("p2", [["B"]])])
    negatives = mk_samples(v, "neg", [("n1", [["C"]])])
    out = mine(positives, negatives)
    assert [c.asd for c in out] == [ASD.from_names(v, [["A"]]),
                                    ASD.from_names(v, [["B"]])]
    assert [sorted(c.coverage) for c in out] == [["p1"], ["p2"]]


def test_inseparable_positive_raises():
    v = Vocabulary()
    positives = mk_samples(v, "pos", [("p1", [["A"]])])
    negatives = mk_samples(v, "neg", [("n1", [["A", "B"]])])
    with pytest.raises(InseparableDataError) as err:
        mine(positives, negatives)
    assert err.value.positive_id == "p1"
    assert err.value.negative_id == "n1"


def test_input_validation():
    v = Vocabulary()
    pos = mk_samples(v, "pos", [("p1", [["A"]])])
    neg = mk_samples(v, "neg", [("n1", [["B"]])])
    index = NegativeAttributeIndex(pos + neg)
    with pytest.raises(ValueError):
        mine_ccds([], index)
    mixed = pos + mk_samples(v, "other", [("p2", [["A"]])])
    with pytest.raises(ValueError):
        mine_ccds(mixed, NegativeAttributeIndex(mixed + neg))
    # positives that miss a member of the index's class, or add one
    unlisted = mk_samples(v, "pos", [("n2", [["B"]])])
    with pytest.raises(ValueError):
        mine_ccds(pos, NegativeAttributeIndex(pos + unlisted + neg))
    with pytest.raises(ValueError):
        mine_ccds(pos + unlisted, index)
    # traces address positives by position, so a repeated id is refused: by
    # the index, whether on both sides or twice among the positives, and by
    # mine_ccds against an index that holds it once
    clash = mk_samples(v, "neg", [("p1", [["B"]])])
    with pytest.raises(ValueError, match="unique"):
        NegativeAttributeIndex(pos + clash)
    repeated = pos + mk_samples(v, "pos", [("p1", [["A", "C"]])])
    with pytest.raises(ValueError, match="unique"):
        NegativeAttributeIndex(repeated + neg)
    with pytest.raises(ValueError):
        mine_ccds(repeated, index)


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


# ---------------------------------------------------------------------------
# similarity ordering: the vectorized ranker against asd.similarity
# ---------------------------------------------------------------------------

@st.composite
def ranker_inputs(draw):
    """Positive descriptions and references over a vocabulary of 15, 64, 65,
    128, 129 or 300 ids.

    Sparse entities take up to 4 attributes from a small pool that always
    holds the widest id, so entities overlap often and the top word of the
    bitsets is used.  Dense entities take up to 40 attributes from the whole
    width, as part-grouped samples do, and over 128 or more ids put bits in
    several words.  Entities may be empty.  The references are the
    positives, their merges (which may hold the empty entity), the lone
    empty entity and single entities.
    """
    width = draw(st.sampled_from([15, 64, 65, 128, 129, 300]))
    if draw(st.booleans()):
        pool = sorted(draw(st.sets(st.integers(0, width - 1), min_size=1, max_size=7))
                      | {width - 1})
        entity = st.frozensets(st.sampled_from(pool), max_size=4)
    else:
        entity = st.frozensets(st.integers(0, width - 1), max_size=40)
    descriptions = st.lists(entity, min_size=1, max_size=4).map(ASD.from_id_sets)
    positives = draw(st.lists(descriptions, min_size=1, max_size=9))
    references = list(positives)
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(positives)), draw(st.sampled_from(positives))
        references.append(merge(a, b))
    references += [ASD((0,)), ASD((0, positives[0].entities[-1])),
                   ASD((positives[-1].entities[0],))]
    return positives, references


def scalar_ranking(reference, positives, positions):
    """The given positions, most similar to the reference first, ties by
    ascending position."""
    return sorted(positions, key=lambda p: (-similarity(reference, positives[p]), p))


def visit_order(scores, flags):
    """Each row's positions in the order _trace visits them: the batched
    first choice, then the ranking of the rest."""
    firsts = ranker_module._firsts(scores, flags)
    flags = flags.copy()
    orders = [[int(p) for p in ranker_module._visits(row, remaining, first)]
              for row, remaining, first in zip(scores, flags, firsts)]
    assert not flags.any()  # every visited position is cleared
    return orders


@given(ranker_inputs(), st.data())
@settings(max_examples=200)
def test_sort_by_similarity_matches_scalar_sort(case, data):
    """_trace's visit order (a masked argmax over a whole batch for the
    first choice, then a stable ranking of the rest) is the scalar ranking
    of the positions left to visit, over any flags.  Every draw holds twins,
    so scores tie exactly, one row with every position left, and one with
    none, which is visited nowhere."""
    positives, references = case
    twins = data.draw(st.lists(st.sampled_from(range(len(positives))), min_size=1,
                               max_size=4))
    positives = positives + [positives[p] for p in twins]
    ranker = SimilarityRanker(positives)
    scores, _ = ranker.scores(references)
    flags = np.array([data.draw(st.lists(st.booleans(), min_size=len(positives),
                                         max_size=len(positives)))
                      for _ in references], dtype=bool)
    full, empty = data.draw(st.permutations(range(len(references))))[:2]
    flags[full], flags[empty] = True, False
    for reference, remaining, order in zip(references, flags, visit_order(scores, flags)):
        kept = np.flatnonzero(remaining).tolist()
        assert order == scalar_ranking(reference, positives, kept)


@given(ranker_inputs())
@settings(max_examples=200)
def test_jaccard_table_equals_scalar_jaccard_bit_for_bit(case):
    """Every cell of the kernel's table is asd.jaccard of its row entity and
    its interned column entity, to the last bit; the empty entity scores 1.0
    against itself; the padding column holds 0.0.  The subset table says
    whether the row entity lies inside the column entity, the empty entity
    inside every one; its padding column is False.  The memo's padding row
    holds 0.0 in the table and the best matches, and True in the
    containment row, before and after scoring."""
    positives, references = case
    ranker = SimilarityRanker(positives)
    interned = list(dict.fromkeys(e for asd in positives for e in asd.entities))
    entities = list(dict.fromkeys([0, *(e for r in references for e in r.entities)]))
    table, subset = ranker._jaccard(entities)
    assert table.shape == subset.shape == (len(entities), len(interned) + 1)
    for row, inside, e in zip(table.tolist(), subset.tolist(), entities):
        assert [x.hex() for x in row[:-1]] == [jaccard(e, u).hex() for u in interned]
        assert inside[:-1] == [e & u == e for u in interned]
    assert not table[:, -1].any() and not subset[:, -1].any()
    for _ in range(2):
        assert not ranker._table[0].any() and not ranker._best[0].any()
        assert ranker._inside[0].all()
        ranker.scores(references)


def test_ranker_scores_no_references():
    ranker = SimilarityRanker([ASD.from_id_sets([[0, 1]]), ASD.from_id_sets([[2]])])
    rows, described = ranker.scores([])
    assert rows.shape == described.shape == (0, 2)
    assert rows.dtype == np.float64 and described.dtype == bool


def test_memo_first_allocation_holds_every_interned_entity():
    """Round one scores every positive, so the memo is sized for all the
    interned entities up front and scoring them all does not grow it; under
    a smaller cap it starts at the cap, and never below one row."""
    positives = [ASD.from_id_sets([[0, 1], [2]]), ASD.from_id_sets([[2], [3, 4]]),
                 ASD.from_id_sets([[5]])]
    ranker = SimilarityRanker(positives)
    assert len(ranker._table) == len(ranker._best) == len(ranker._inside) == 5
    table = ranker._table
    ranker.scores(positives)
    assert ranker._table is table and len(ranker._row) == 4
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranker_module, "_MEMO_CAP", 3 * ranker._row_values)
        assert len(SimilarityRanker(positives)._table) == 3
        patch.setattr(ranker_module, "_MEMO_CAP", 1)
        assert len(SimilarityRanker(positives)._table) == 1


def test_ranker_rejects_empty_and_foreign_descriptions():
    with pytest.raises(ValueError):
        SimilarityRanker([ASD(())])
    ranker = SimilarityRanker([ASD.from_id_sets([[0, 1]])])
    for bad in (ASD(()), ASD.from_id_sets([[64]])):
        with pytest.raises(ValueError):
            ranker.scores([bad])
        with pytest.raises(ValueError):
            ranker.scores([ASD.from_id_sets([[0]]), bad])


@given(ranker_inputs(), st.data())
@settings(max_examples=300)
def test_memo_rows_equal_fresh_rows(case, data):
    """One ranker scores every reference twice, in a shuffled sequence of
    batches, so later batches read rows its memo already holds and a batch
    may hold a reference twice; every row is the scalar one, as the
    predicate checks.  The memo keeps one row per distinct entity."""
    positives, references = case
    sequence = data.draw(st.permutations(references + references))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(sequence) - 1), max_size=6)))
    batches = [sequence[start:stop] for start, stop in zip([0, *cuts], [*cuts, len(sequence)])]
    warm = SimilarityRanker(positives)
    for batch in batches:
        warm.scores(batch)
    assert len(warm._row) == len({e for r in references for e in r.entities})
    assert ranker_matches_scalar(positives, batches), first_scalar_mismatch(positives, batches)


def first_scalar_mismatch(positives, batches):
    """The first row that one ranker, scoring the batches in order, gives
    unlike similarity or subsumes: the reference, the row and the scalar
    row as .hex() values, and both containment rows."""
    warm = SimilarityRanker(positives)
    scored = [(reference, row.tolist(), covers.tolist()) for batch in batches
              for reference, row, covers in zip(batch, *warm.scores(batch))]
    return next(
        ((reference, [x.hex() for x in row], [similarity(reference, p).hex() for p in positives],
          covers, [subsumes(reference, p) for p in positives])
         for reference, row, covers in scored
         if [x.hex() for x in row] != [similarity(reference, p).hex() for p in positives]
         or covers != [subsumes(reference, p) for p in positives]),
        "every row is the scalar one, but a fresh ranker's rows differ")


@pytest.mark.parametrize("name", ["mixed-entity-counts", "empty-entities",
                                  "memo-grows-between-batches", "bits-across-words"])
def test_memo_rows_equal_fresh_rows_on_listed_cases(name):
    """References of one to three entities in one batch, so the shorter ones
    read the padding row; the empty entity alone and beside another; merges
    that grow the memo, then rows kept before it grew; ids on both sides of
    the word boundaries."""
    a = ASD.from_id_sets
    positives = [a([[0, 1], [2, 3, 4]]), a([[1, 2]]), a([[5], [0, 5, 6]]), a([[63, 64, 299]])]
    batches = {
        "mixed-entity-counts": [[a([[0], [1, 2, 6], [3, 4, 5]]), a([[0, 1]]), positives[0]]],
        "empty-entities": [[ASD((0,)), a([[], [1, 2]])], [ASD((0,))]],
        "memo-grows-between-batches": [positives, [merge(positives[0], p) for p in positives[1:3]],
                                       [a([[0, 5, 6]]), *positives]],
        "bits-across-words": [[a([[63, 64, 128]]), a([[0], [127, 128], [299]])], [a([[64]])]],
    }[name]
    assert ranker_matches_scalar(positives, batches), first_scalar_mismatch(positives, batches)


@given(ranker_inputs(), st.sampled_from([1, 40, 200, 1 << 16]))
@settings(max_examples=200)
def test_batches_keep_the_order_and_the_cap(case, cap):
    positives, references = case
    ranker = SimilarityRanker(positives)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranker_module, "_BATCH_CAP", cap)
        batches = list(ranker.batches(references))
    assert [r for batch in batches for r in batch] == references
    interned, words = len(ranker._entities) + 1, ranker._words
    for batch in batches[:-1]:
        distinct = len({e for r in batch for e in r.entities})
        assert len(batch) * max(interned, len(positives)) <= cap or len(batch) == 1
        assert (distinct + 1) * max(interned * words, len(positives)) <= cap or len(batch) == 1


@pytest.mark.parametrize("batch_cap", [1 << 16, 1 << 13])
def test_batches_bound_the_ranking_memory(monkeypatch, batch_cap):
    """Scoring one class's 200 positives against 2,200 references, batch by
    batch, peaks at a few temporaries of the batch cap plus the memo, which
    never holds more values than its cap; one unsplit call peaks several
    times higher.  The memo counts towards the peak, the score and
    containment tables kept do not.  With both caps scaled down by 8, the
    memo clears partway through."""
    import tracemalloc

    monkeypatch.setattr(ranker_module, "_MEMO_CAP", ranker_module._MEMO_CAP
                        // ranker_module._BATCH_CAP * batch_cap)
    monkeypatch.setattr(ranker_module, "_BATCH_CAP", batch_cap)
    dataset, _ = generate_clevr_hans3(GeneratorConfig(samples_per_class=200, seed=7))
    positives = [p.asd for p in dataset.by_label[dataset.labels()[0]]]
    rng = random.Random(1)
    references = positives + [merge(rng.choice(positives), rng.choice(positives))
                              for _ in range(2000)]
    peaks, memo_bytes, cleared = [], 0, False
    for split in (False, True):
        ranker = SimilarityRanker(positives)
        batches = list(ranker.batches(references)) if split else [references]
        tracemalloc.start()
        kept = []
        for batch in batches:
            held = len(ranker._row)
            kept.append(ranker.scores(batch))
            cleared |= len(ranker._row) < held
            if split:
                assert len(ranker._table) * ranker._row_values <= ranker_module._MEMO_CAP
                memo_bytes = max(memo_bytes, sum(
                    a.nbytes for a in (ranker._table, ranker._best, ranker._inside)))
        peaks.append(tracemalloc.get_traced_memory()[1]
                     - sum(a.nbytes for arrays in kept for a in arrays))
        tracemalloc.stop()
    unsplit, batched = peaks
    assert batched < 6 * 8 * batch_cap + 2 * memo_bytes and unsplit > 3 * batched
    assert cleared == (batch_cap < 1 << 16)


@st.composite
def mining_inputs(draw):
    """One class against one or two others over a vocabulary of 8, 64, 65 or
    300 ids, and every sample in an order unrelated to the ids.

    Attributes come from a small pool that always holds the widest id, so
    entities nest and merges are often accepted.  One positive is shaped
    [[A], [A, B]], a seed that is not an antichain; random positives may
    hold nested or empty entities too, and some have twins under other ids.
    Negatives that a positive describes are dropped, so the data separate.
    Also drawn: the positives in another order.
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
    return positives, negatives, samples, draw(st.permutations(positives))


@st.composite
def seeded_mining_inputs(draw):
    """Twelve positives and up to six negatives from one random_asds stream
    over 8 or 70 ids, with the negatives a positive describes dropped; in
    about half the draws every other positive has a twin, whose id sorts
    right after it.  As for mining_inputs, every sample in an order
    unrelated to the ids, and the positives in another order.  All but the
    seed and the vocabulary come from the seed, so each example tries a
    new stream."""
    seed = draw(st.integers(0, 10_000))
    stream = list(random_asds(seed, 18, max_entities=3, max_entity_size=3,
                              vocab_size=draw(st.sampled_from([8, 70]))))
    rng = random.Random(seed)
    positives = [Sample(f"p{i:02d}", "pos", a) for i, a in enumerate(stream[:12])]
    if rng.random() < 0.5:
        positives += [Sample(p.id + "-twin", "pos", p.asd) for p in positives[::2]]
    negatives = [Sample(f"n{i:02d}", "neg", a) for i, a in enumerate(stream[12:])
                 if not any(subsumes(p.asd, a) for p in positives)]
    samples, shuffled = positives + negatives, list(positives)
    rng.shuffle(samples)
    rng.shuffle(shuffled)
    return positives, negatives, samples, shuffled


def listed_case(positives, negatives):
    """A mining case of (id, entity id sets) pairs: the samples in the
    order listed, and the positives reversed."""
    positives = [Sample(sid, "pos", ASD.from_id_sets(sets)) for sid, sets in positives]
    negatives = [Sample(sid, "neg", ASD.from_id_sets(sets)) for sid, sets in negatives]
    return positives, negatives, positives + negatives, positives[::-1]


@given(st.one_of(mining_inputs(), seeded_mining_inputs()))
# twins: one listed second, one listed last under the lowest id
@example(listed_case([("p1", [[0, 1]]), ("p2", [[0, 1]]), ("p3", [[0, 2]])], [("n1", [[3]])]))
@example(listed_case([("p1", [[0, 1]]), ("p2", [[0, 2]]), ("p0", [[0, 1]])], [("n1", [[3]])]))
@settings(max_examples=320, deadline=None)
def test_mining_matches_scalar_mine(case):
    """The ranker, the index, the twins' shared frontier entry, the trace
    memo and the bulk skip of described positives change no candidate, and
    neither does the order the positives are passed in."""
    check_mining_case(case)


def check_mining_case(case):
    positives, negatives, samples, shuffled = case
    index = NegativeAttributeIndex(samples)
    assert mining_matches_scalar(positives, negatives, samples), (
        [(c.asd.entities, sorted(c.coverage)) for c in mine_ccds(positives, index)],
        [d.entities for d in scalar_mine(positives, negatives)])
    assert mine_ccds(shuffled, index) == mine_ccds(positives, index)


@pytest.mark.parametrize("reverse", [False, True], ids=["listed", "reversed"])
@pytest.mark.parametrize("positives", [
    [("p1", [[0, 1, 2]]), ("p2", [[0, 1, 3]]), ("p3", [[2, 6, 7]])],
    [("p1", [[0, 1, 2]]), ("p2", [[0, 1, 3]]), ("p3", [[0, 1, 4, 5]]), ("p4", [[2, 6, 7]])],
], ids=["one-left-after-a-rejection", "two-left-after-a-rejection"])
def test_mining_matches_scalar_mine_when_the_last_ranked_positive_decides(positives, reverse):
    """p1's first choice p2 is rejected, since [[0, 1]] describes n1, and
    p1's trace accepts a merge only with the positive ranked last of those
    left; drawn inputs reach such a case only now and then."""
    check_mining_case(listed_case(positives[::-1] if reverse else positives,
                                  [("n1", [[0, 1, 9]])]))


@given(mining_inputs(), st.sampled_from([1, 60, 400]))
@settings(max_examples=100, deadline=None)
def test_memo_cleared_partway_mines_the_same_candidates(case, cap):
    """With the memo cap cut to a few rows, or to less than one, the memo
    clears partway through a class, and mining finds the same candidates
    with the same coverage."""
    positives, negatives, samples, _ = case
    expected = mine(positives, negatives)
    index = NegativeAttributeIndex(samples)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranker_module, "_MEMO_CAP", cap)
        assert mine_ccds(positives, index) == expected


def test_memo_clears_on_generated_scenes(monkeypatch):
    """On generated scenes, a memo capped at 40 rows clears many times per
    class, and each class mines the same candidates as with the full cap."""
    dataset, _ = generate_clevr_hans3(GeneratorConfig(samples_per_class=40, seed=5))
    index = NegativeAttributeIndex(dataset.samples)
    expected = [mine_ccds(dataset.by_label[label], index) for label in dataset.labels()]
    dropped = []
    clear = SimilarityRanker._clear

    def counted(self):
        dropped.append(len(self._row))
        clear(self)
    monkeypatch.setattr(SimilarityRanker, "_clear", counted)
    for label, candidates in zip(dataset.labels(), expected):
        positives = dataset.by_label[label]
        row_values = SimilarityRanker([p.asd for p in positives])._row_values
        monkeypatch.setattr(ranker_module, "_MEMO_CAP", 40 * row_values)
        dropped.clear()
        assert mine_ccds(positives, index) == candidates
        assert sum(held > 0 for held in dropped) > 1


def test_trace_memo_saves_merges(monkeypatch):
    """On scenes without twins, where no seeds share a frontier entry,
    mine_ccds expands no description twice and merges strictly less often
    than the plain scalar traces."""
    calls = {mining: 0, oracle: 0}

    def counted(module):
        def counted_merge(a, b):
            calls[module] += 1
            return merge(a, b)
        return counted_merge
    monkeypatch.setattr(mining, "merge", counted(mining))
    monkeypatch.setattr(oracle, "merge", counted(oracle))
    ranked = ranked_references(monkeypatch)
    dataset, _ = generate_clevr_hans3(GeneratorConfig(samples_per_class=30, seed=3))
    for label in dataset.labels():
        positives = dataset.by_label[label]
        negatives = [s for s in dataset.samples if s.label != label]
        assert len({p.asd for p in positives}) == len(positives)
        ranked.clear()
        assert [c.asd for c in mine(positives, negatives)] == scalar_mine(positives,
                                                                          negatives)
        assert len(set(ranked)) == len(ranked) >= len(positives)
    assert 0 < calls[mining] < calls[oracle]


def ranked_references(monkeypatch):
    """The references of every SimilarityRanker.scores call, in call order."""
    ranked = []
    scores = SimilarityRanker.scores

    def logged(self, references):
        ranked.extend(references)
        return scores(self, references)
    monkeypatch.setattr(SimilarityRanker, "scores", logged)
    return ranked


def test_each_description_is_ranked_once(monkeypatch):
    """On scenes (30 per class, seed 3) each class ranks each distinct
    description once, 326 in all; traces run one at a time, each with a memo
    of the states earlier traces passed, ranked 326 too (135, 118 and 73)."""
    ranked = ranked_references(monkeypatch)
    dataset, _ = generate_clevr_hans3(GeneratorConfig(samples_per_class=30, seed=3))
    index = NegativeAttributeIndex(dataset.samples)
    per_class = []
    for label in dataset.labels():
        ranked.clear()
        mine_ccds(dataset.by_label[label], index)
        assert ranked and len(set(ranked)) == len(ranked)
        per_class.append(len(ranked))
    assert sum(per_class) <= 326


def test_trace_memo_is_keyed_by_the_description(monkeypatch):
    """p1's trace rejects p3, then reaches [[A]] by merging p2.  p2's trace
    reaches [[A]] by merging p1 with p3 still to visit.  [[A]] is expanded
    once, with no merge, in either seed order: p3 was rejected at a more
    specific description, so it stays rejected, and the state map keeps
    only the positives that no trace reaching [[A]] has cleared."""
    v = Vocabulary()
    positives = mk_samples(v, "pos", [("p1", [["A", "B", "X"]]),
                                      ("p2", [["A", "C", "W"]]),
                                      ("p3", [["B", "X", "Y"]])])
    negatives = mk_samples(v, "neg", [("n1", [["B", "X", "Z"]])])
    merges = []

    def counted_merge(a, b):
        merges.append((a, b))
        return merge(a, b)
    monkeypatch.setattr(mining, "merge", counted_merge)
    ranked = ranked_references(monkeypatch)
    index = NegativeAttributeIndex(positives + negatives).for_class("pos")
    ranker = SimilarityRanker([p.asd for p in positives])
    p1, p2, p3 = (p.asd for p in positives)
    rule = ASD.from_names(v, [["A"]])
    first = {p1: [(p1, p3), (p1, p2)], p2: [(p2, p1)]}
    for seeds in ([0, 1], [1, 0]):
        merges.clear()
        ranked.clear()
        finals = mining._trace(seeds, index, ranker)
        assert list(finals) == [rule] and finals[rule].tolist() == [0, 1]
        starts = [ranker.asds[seed] for seed in seeds]
        assert ranked == starts + [rule]
        assert merges == [m for start in starts for m in first[start]]
    assert [c.asd for c in mine(positives, negatives)] == scalar_mine(positives, negatives)


def sorted_rows(monkeypatch):
    """The number of rows of every np.argsort call made in mining."""
    rows = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def argsort(self, a, *args, **kwargs):
            rows.append(1 if np.ndim(a) == 1 else len(a))
            return np.argsort(a, *args, **kwargs)
    monkeypatch.setattr(ranker_module, "np", Numpy())
    return rows


def test_descriptions_are_ranked_in_full_only_after_a_rejection(monkeypatch):
    """A description's first choice needs no sort.  On scenes (30 per class,
    seed 3) fewer rows are sorted than descriptions scored (none of 326);
    sorting every scored row fails here.  In the case of
    test_trace_memo_is_keyed_by_the_description, p1 and p3 reject each
    other as first choice, so their two rows are sorted; p2 and [[A]] are
    not."""
    ranked = ranked_references(monkeypatch)
    rows = sorted_rows(monkeypatch)
    dataset, _ = generate_clevr_hans3(GeneratorConfig(samples_per_class=30, seed=3))
    index = NegativeAttributeIndex(dataset.samples)
    for label in dataset.labels():
        mine_ccds(dataset.by_label[label], index)
    assert sum(rows) < len(ranked)
    v = Vocabulary()
    positives = mk_samples(v, "pos", [("p1", [["A", "B", "X"]]),
                                      ("p2", [["A", "C", "W"]]),
                                      ("p3", [["B", "X", "Y"]])])
    negatives = mk_samples(v, "neg", [("n1", [["B", "X", "Z"]])])
    rows.clear()
    assert [c.asd for c in mine(positives, negatives)] == scalar_mine(positives, negatives)
    assert rows == [1, 1]


def test_batch_cap_does_not_change_candidates(monkeypatch):
    """A frontier split into batches of one reference, or of a few, mines
    the same candidates."""
    sizes = []
    batches = SimilarityRanker.batches

    def logged(self, references):
        for batch in batches(self, references):
            sizes.append(len(batch))
            yield batch
    monkeypatch.setattr(SimilarityRanker, "batches", logged)
    for cap in (1, 120):
        monkeypatch.setattr(ranker_module, "_BATCH_CAP", cap)
        sizes.clear()
        for seed in range(6):
            positives, negatives = random_instance(seed, n_pos=12)
            assert [c.asd for c in mine(positives, negatives)] == scalar_mine(positives,
                                                                              negatives)
        assert max(sizes) == 1 if cap == 1 else max(sizes) > 1


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


@st.composite
def naive_scan_inputs(draw):
    """Candidates and a possibly empty negative list over a vocabulary of 8,
    64, 65 or 300 ids.

    Attributes come from a small pool that always holds the widest id, so a
    candidate's attributes often lie inside a negative's union without the
    negative being described.  The candidates include the lone empty entity,
    the empty description, and entity-wise subsets of negatives, which those
    negatives describe.
    """
    width = draw(st.sampled_from([8, 64, 65, 300]))
    pool = sorted(draw(st.sets(st.integers(0, width - 1), min_size=1, max_size=7))
                  | {width - 1})
    entity = st.frozensets(st.sampled_from(pool), max_size=4)
    descriptions = st.lists(entity, min_size=1, max_size=4).map(ASD.from_id_sets)
    negatives = [Sample(f"n{i}", "neg", asd)
                 for i, asd in enumerate(draw(st.lists(descriptions, max_size=8)))]
    candidates = [ASD((0,)), ASD(())] + draw(st.lists(descriptions, max_size=4))
    for n in negatives[:3]:
        keep = draw(st.integers(0, (1 << width) - 1))
        candidates.append(ASD(tuple(e & keep for e in n.asd.entities)))
    return candidates, negatives


@given(naive_scan_inputs())
@settings(max_examples=300)
def test_union_prefilter_keeps_every_described_negative(case):
    """run_pipeline's soundness re-check takes the samples whose attribute
    union contains the candidate's, of any label and in position order, and
    drops those of the candidate's class.  What is left holds every
    negative the candidate describes, and check_ccd over it gives the plain
    subsumes scan's verdict.  The empty union keeps every sample; a class
    with no negatives scans none."""
    candidates, negatives = case
    positives = [Sample(f"p{i}", "pos", c) for i, c in enumerate(candidates[2:])]
    samples = [s for pair in zip(negatives, positives) for s in pair]
    samples += negatives[len(positives):] + positives[len(negatives):]
    unions = _UnionFilter(samples)
    lone = _UnionFilter(negatives)
    for candidate in candidates:
        union = candidate.attribute_union
        survivors = unions.containing(candidate)
        assert survivors == [s for s in samples if union & s.asd.attribute_union == union]
        scan = [s for s in survivors if s.label != "pos"]
        described = [n for n in negatives if subsumes(candidate, n.asd)]
        assert all(n in scan for n in described)
        assert check_ccd(candidate, scan) == (not described)
        if not union:
            assert survivors == samples
        assert [s for s in lone.containing(candidate) if s.label != "neg"] == []


def test_soundness_recheck_catches_a_broken_index(tmp_path, monkeypatch, capsys):
    """With the index broken to accept every merge, mining accepts the
    merge [["A"]] of p1 and p2, which describes n1.  run_pipeline's naive
    re-check raises, and `semproto run` exits 3 and writes no report."""
    monkeypatch.setattr(NegativeAttributeIndex, "first_described",
                        lambda self, candidate: None)
    v = Vocabulary()
    samples = (mk_samples(v, "pos", [("p1", [["A", "B"]]), ("p2", [["A", "C"]])])
               + mk_samples(v, "neg", [("n1", [["A", "D"]])]))
    dataset = Dataset(v, tuple(samples))
    with pytest.raises(RuntimeError,
                       match="^mined candidate failed the naive soundness scan$"):
        run_pipeline(dataset)
    data = tmp_path / "data.jsonl"
    write_dataset(dataset, data)
    out = tmp_path / "report.json"
    assert main(["run", "--dataset", str(data), "--output", str(out)]) == EXIT_INTERNAL
    assert "mined candidate failed the naive soundness scan" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [data]


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
    """The index, unmasked (every sample a negative) and through each
    class's view, finds the first described negative of a naive scan, and
    mining with it gives the same results as with an index of the class's
    positives and negatives alone."""
    samples, candidates = case
    index = NegativeAttributeIndex(samples)
    for candidate in candidates:
        naive = next((s.id for s in samples if subsumes(candidate, s.asd)), None)
        assert index.first_described(candidate) == naive
        assert check_ccd(candidate, samples) == (naive is None)
    for label in sorted({s.label for s in samples}):
        positives = [s for s in samples if s.label == label]
        negatives = [s for s in samples if s.label != label]
        view = index.for_class(label)
        for candidate in candidates:
            naive = next((n.id for n in negatives if subsumes(candidate, n.asd)), None)
            assert view.first_described(candidate) == naive
            assert check_ccd(candidate, negatives) == (naive is None)
        # mining with the shared index: the same inseparability verdict, and
        # every coverage equal to a subsumes scan
        try:
            mined = mine_ccds(positives, index)
        except InseparableDataError as err:
            assert (err.positive_id, err.negative_id) == next(
                (p.id, n.id) for p in positives for n in negatives
                if subsumes(p.asd, n.asd))
            with pytest.raises(InseparableDataError):
                mine(positives, negatives)
            continue
        assert mined == mine(positives, negatives)
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
    result = run_pipeline(dataset)
    assert len(result.classes) == 3
    assert len(builds) == 1


def test_mine_ccds_rejects_a_foreign_index():
    v = Vocabulary()
    positives, negatives = worked_instance(v)
    with pytest.raises(ValueError, match="not the index's samples"):
        mine_ccds(positives, NegativeAttributeIndex(negatives))
    # an index over other samples of the same size
    positives = [Sample("p1", "pos", ASD.from_id_sets([[0, 1]])),
                 Sample("p2", "pos", ASD.from_id_sets([[0, 2]]))]
    negatives = [Sample("n1", "neg", ASD.from_id_sets([[3]]))]
    foreign = NegativeAttributeIndex([Sample("x1", "pos", ASD.from_id_sets([[0, 1, 2]])),
                                      Sample("x2", "pos", ASD.from_id_sets([[4]])),
                                      Sample("x3", "neg", ASD.from_id_sets([[3]]))])
    with pytest.raises(ValueError, match="not the index's samples"):
        mine_ccds(positives, foreign)


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


def reference_greedy_cover(coverages, k=None, tie_keys=None):
    """The greedy pick order, written out: among the sets not yet picked,
    the largest gain, then the smallest tie key, then the smallest index;
    stop at gain 0 or after k picks.  Returns the picks and their gains."""
    keys = tie_keys if tie_keys is not None else [()] * len(coverages)
    covered, picks, gains = set(), [], []
    unpicked = list(range(len(coverages)))
    while unpicked and (k is None or len(picks) < k):
        best = unpicked[0]
        for i in unpicked[1:]:
            gain, best_gain = len(coverages[i] - covered), len(coverages[best] - covered)
            if gain > best_gain or (gain == best_gain and keys[i] < keys[best]):
                best = i
        gain = len(coverages[best] - covered)
        if gain == 0:
            break
        picks.append(best)
        gains.append(gain)
        unpicked.remove(best)
        covered |= coverages[best]
    return picks, gains


@settings(max_examples=300)
@given(st.data())
def test_greedy_cover_matches_reference_on_drawn_ties(data):
    """Few ids and few distinct tie keys, so equal gains and equal keys are
    common, and the pick order must still be the reference's."""
    ids = "abcdef"[:data.draw(st.integers(1, 6))]
    coverages = data.draw(st.lists(st.frozensets(st.sampled_from(ids)), max_size=8))
    n = len(coverages)
    tie_keys = data.draw(st.none() | st.lists(
        st.lists(st.integers(0, 1), max_size=2).map(tuple), min_size=n, max_size=n))
    k = data.draw(st.none() | st.integers(0, n + 1))
    picks, _ = reference_greedy_cover(coverages, k, tie_keys)
    assert greedy_cover(coverages, k, tie_keys) == picks

    # select_ccds ties by (total attributes, sort key); three descriptions,
    # two of one size, make those keys collide too
    pool = [ASD.from_id_sets([[0]]), ASD.from_id_sets([[1]]), ASD.from_id_sets([[0, 1]])]
    chosen = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    candidates = [mining.ClassClusterDescription(asd, "pos", cov)
                  for asd, cov in zip(chosen, coverages)]
    positives = [Sample(i, "pos", ASD.from_id_sets([[0]])) for i in ids]
    picks, gains = reference_greedy_cover(
        coverages, k, [(a.total_attributes, a.sort_key) for a in chosen])
    steps, uncovered = select_ccds(candidates, positives, k)
    assert [s.ccd for s in steps] == [candidates[i] for i in picks]
    assert [s.newly_covered for s in steps] == gains
    assert [s.cumulative_covered for s in steps] == \
        [sum(gains[:j + 1]) for j in range(len(gains))]
    assert uncovered == sorted(set(ids).difference(*(coverages[i] for i in picks)))


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
