"""Core description algebra: canonical form, subsumption, similarity, merge."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import asds, common_generalizations, generalizations, nonempty_asds, subsumption_chains
from semproto import ASD, Vocabulary, canonicalize, jaccard, merge, similarity, subsumes, trim
from semproto.asd import entity_from_ids, entity_ids
from semproto.oracle import oracle_trim
from semproto.selftest import (battery_merge_canonical, merge_generalizes, merge_is_most_specific,
                               similarity_props)


def names(vocab, *entity_lists):
    return ASD.from_names(vocab, entity_lists)


def exact_similarity(a: ASD, b: ASD) -> Fraction:
    """Direct evaluation of the two-way averaged best-Jaccard formula.

    Written against sets and Fractions on purpose; shares nothing with the
    bitmask implementation beyond the entity tuples.
    """

    def j(x: frozenset, y: frozenset) -> Fraction:
        if not x and not y:
            return Fraction(1)
        if not x or not y:
            return Fraction(0)
        return Fraction(len(x & y), len(x | y))

    xs = [frozenset(entity_ids(e)) for e in a.entities]
    ys = [frozenset(entity_ids(e)) for e in b.entities]
    forward = sum(max(j(x, y) for y in ys) for x in xs) / len(xs)
    backward = sum(max(j(y, x) for x in xs) for y in ys) / len(ys)
    return Fraction(1, 2) * forward + Fraction(1, 2) * backward


# ---------------------------------------------------------------------------
# vocabulary and entity helpers
# ---------------------------------------------------------------------------

def test_vocabulary_interns_names_once():
    v = Vocabulary()
    a = v.intern("Large")
    b = v.intern("Cube")
    assert v.intern("Large") == a
    assert a != b
    assert v.id_of("Cube") == b
    assert v.name_of(a) == "Large"
    assert "Large" in v and "Sphere" not in v
    assert len(v) == 2


def test_vocabulary_rejects_blank_and_non_string():
    v = Vocabulary()
    with pytest.raises(ValueError):
        v.intern("")
    with pytest.raises(ValueError):
        v.intern("   ")
    with pytest.raises(ValueError):
        v.intern(3)  # type: ignore[arg-type]


def test_entity_mask_round_trip():
    mask = entity_from_ids([5, 0, 3])
    assert mask == (1 << 5) | (1 << 0) | (1 << 3)
    assert entity_ids(mask) == (0, 3, 5)
    assert entity_ids(0) == ()


def test_jaccard_conventions():
    a = entity_from_ids([0, 1])
    b = entity_from_ids([0, 2])
    assert jaccard(a, a) == 1.0
    assert jaccard(a, b) == pytest.approx(1 / 3)
    assert jaccard(0, 0) == 1.0
    assert jaccard(0, a) == 0.0
    assert jaccard(a, 0) == 0.0


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_construction_dedupes_and_sorts():
    asd = ASD.from_id_sets([[2, 1], [1, 2], [0], [0, 1, 2]])
    assert asd.to_id_sets() == [(0,), (1, 2), (0, 1, 2)]
    assert len(asd) == 3


def test_canonicalize_empty_passes_through():
    assert canonicalize([]) == ASD(())
    assert len(ASD(())) == 0


def test_canonicalize_is_idempotent():
    asd = ASD.from_id_sets([[1], [2, 3]])
    assert canonicalize(asd) == asd


def test_name_views_round_trip():
    v = Vocabulary()
    asd = names(v, ["Large", "Cube"], ["Small"])
    assert asd.to_name_lists(v) == [["Small"], ["Large", "Cube"]]
    assert ASD.from_names(v, asd.to_name_lists(v)) == asd


@given(asds)
def test_rebuilding_from_id_sets_is_stable(asd):
    """Canonical form survives a round trip through plain sets."""
    assert ASD.from_id_sets(asd.to_id_sets()) == asd


# ---------------------------------------------------------------------------
# subsumption
# ---------------------------------------------------------------------------

def test_subsumes_examples():
    v = Vocabulary()
    assert subsumes(names(v, ["Cat"]), names(v, ["Cat"], ["Mouse"]))
    assert not subsumes(names(v, ["Cat", "Dog"]), names(v, ["Cat"], ["Dog"]))
    # two general entities may share one witness
    assert subsumes(names(v, ["Cat"], ["Dog"]), names(v, ["Cat", "Dog"]))


def test_subsumes_empty_conventions():
    nonempty = ASD.from_id_sets([[0, 1]])
    empty_asd = ASD(())
    empty_entity = ASD((0,))
    assert subsumes(empty_asd, nonempty)
    assert subsumes(empty_asd, empty_asd)
    assert subsumes(empty_entity, nonempty)
    # the single empty entity still needs a witness entity to exist
    assert not subsumes(empty_entity, empty_asd)


@given(asds)
def test_subsumption_is_reflexive(asd):
    assert subsumes(asd, asd)


@given(subsumption_chains())
def test_subsumption_is_transitive(chain):
    x, y, z = chain
    assert subsumes(x, y)
    assert subsumes(y, z)
    assert subsumes(x, z)


@given(generalizations())
def test_constructed_generalizations_subsume(pair):
    general, specific = pair
    assert subsumes(general, specific)


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------

def test_similarity_worked_value():
    v = Vocabulary()
    z1 = names(v, ["Large", "Cube"], ["Large", "Cylinder"])
    z2 = names(v, ["Large", "Cube"])
    expected = Fraction(5, 6)
    assert exact_similarity(z1, z2) == expected
    assert similarity(z1, z2) == pytest.approx(float(expected), abs=1e-12)


def test_similarity_identity_and_disjoint():
    v = Vocabulary()
    z = names(v, ["Large", "Cube"], ["Small"])
    assert similarity(z, z) == 1.0
    assert similarity(names(v, ["A"]), names(v, ["B"])) == 0.0


def test_similarity_rejects_empty_asd():
    z = ASD.from_id_sets([[0]])
    with pytest.raises(ValueError):
        similarity(ASD(()), z)
    with pytest.raises(ValueError):
        similarity(z, ASD(()))


@given(nonempty_asds, nonempty_asds)
def test_similarity_symmetric_bounded_and_one_on_itself(a, b):
    assert similarity_props(a, b), (similarity(a, b), similarity(b, a),
                                    similarity(a, a), similarity(b, b))


@given(nonempty_asds, nonempty_asds)
@settings(max_examples=300)
def test_similarity_matches_exact_formula(a, b):
    assert similarity(a, b) == pytest.approx(float(exact_similarity(a, b)), abs=1e-12)


# ---------------------------------------------------------------------------
# trim
# ---------------------------------------------------------------------------

def test_trim_drops_proper_subsets():
    e = entity_from_ids
    kept = trim([e([0]), e([0, 1]), e([2]), e([0, 1])])
    assert set(kept) == {e([0, 1]), e([2])}


@st.composite
def entity_lists(draw):
    """Two lists of entities over 15, 64, 65 or 300 attributes, drawn from a
    small pool that holds the widest id, so entities nest and repeat often.
    Entities may be empty, and the lists may hold the empty entity."""
    width = draw(st.sampled_from([15, 64, 65, 300]))
    pool = sorted(draw(st.sets(st.integers(0, width - 1), min_size=1, max_size=8))
                  | {width - 1})
    entity = st.frozensets(st.sampled_from(pool), max_size=6).map(entity_from_ids)
    lists = []
    for _ in range(2):
        entities = draw(st.lists(entity, min_size=1, max_size=6))
        if draw(st.booleans()):
            entities.append(0)
        lists.append(entities)
    return lists


@given(entity_lists())
@settings(max_examples=300)
def test_trim_and_merge_match_the_canonical_reference(lists):
    """trim sorts by size alone; it keeps the set that the canonical-order
    reference keeps, and merge is the canonical description of that set,
    marked as its own trim."""
    xs, ys = lists
    assert set(trim(xs)) == set(oracle_trim(xs))
    assert len(trim(xs)) == len(oracle_trim(xs))
    a, b = ASD(tuple(xs)), ASD(tuple(ys))
    m = merge(a, b)
    expected = ASD(oracle_trim(x & y for x in a.entities for y in b.entities))
    assert m == expected and m.entities == expected.entities
    assert m.__dict__["trimmed"] is m


def test_merge_canonical_battery():
    assert battery_merge_canonical(300, 0) == ("merge-canonical", 300, 0)


def test_trimmed_returns_self_on_antichains():
    asd = ASD.from_id_sets([[0, 1], [2]])
    assert asd.trimmed is asd
    assert asd.is_antichain
    nested = ASD.from_id_sets([[0], [0, 1]])
    assert not nested.is_antichain
    assert nested.trimmed == ASD.from_id_sets([[0, 1]])


@given(asds, nonempty_asds)
def test_trim_preserves_described_set(asd, probe):
    assert subsumes(asd, probe) == subsumes(asd.trimmed, probe)


@given(generalizations())
def test_trim_preserves_described_set_on_described_probes(pair):
    """Same check where subsumption is guaranteed to hold, not just possible."""
    general, specific = pair
    assert subsumes(general.trimmed, specific)


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------

def test_merge_worked_value():
    v = Vocabulary()
    z1 = names(v, ["Small", "Metal", "Cube"], ["Small", "Red", "Sphere"])
    z2 = names(v, ["Small", "Metal", "Cube"], ["Small", "Blue", "Sphere"])
    assert merge(z1, z2) == names(v, ["Small", "Metal", "Cube"], ["Small", "Sphere"])


def test_merge_disjoint_collapses_to_empty_entity():
    v = Vocabulary()
    out = merge(names(v, ["A"]), names(v, ["B"]))
    assert out == ASD((0,))
    assert subsumes(out, names(v, ["A"]))
    assert subsumes(out, names(v, ["Anything", "Else"]))


def test_merge_idempotent_on_antichains():
    asd = ASD.from_id_sets([[0, 1], [2, 3]])
    assert merge(asd, asd) == asd


def test_merge_results_are_known_antichains(monkeypatch):
    """merge trims once and marks its result, so is_antichain costs no
    second trim; a description built directly is still trimmed to tell."""
    import semproto.asd as asd_module

    calls = []

    def counted_trim(entities):
        calls.append(1)
        return trim(entities)
    monkeypatch.setattr(asd_module, "trim", counted_trim)
    m = merge(ASD.from_id_sets([[0, 1], [0, 2]]), ASD.from_id_sets([[0, 1, 2]]))
    assert m.is_antichain and m.trimmed is m
    assert len(calls) == 1
    built = ASD(m.entities)
    assert built == m and built.is_antichain
    assert len(calls) == 2
    nested = ASD.from_id_sets([[0], [0, 1]])
    assert not nested.is_antichain
    assert len(calls) == 3


@given(nonempty_asds, nonempty_asds)
def test_merge_antichain_flag_matches_trim(a, b):
    m = merge(a, b)
    assert m.is_antichain and len(trim(m.entities)) == len(m.entities)
    for asd in (a, b):
        assert asd.is_antichain == (len(trim(asd.entities)) == len(asd.entities))


def test_merge_rejects_empty_input():
    z = ASD.from_id_sets([[0]])
    with pytest.raises(ValueError):
        merge(ASD(()), z)
    with pytest.raises(ValueError):
        merge(z, ASD(()))


@given(nonempty_asds, nonempty_asds)
def test_merge_generalizes_both_inputs(a, b):
    assert merge_generalizes(a, b), merge(a, b)


@given(common_generalizations())
def test_merge_is_most_specific(triple):
    assert merge_is_most_specific(*triple), merge(*triple[1:])


@given(nonempty_asds, nonempty_asds)
def test_merge_is_commutative(a, b):
    assert merge(a, b) == merge(b, a)


@given(nonempty_asds, nonempty_asds, nonempty_asds)
@settings(max_examples=200)
def test_merge_is_associative(a, b, c):
    """Join order cannot matter: equivalent antichains are identical."""
    assert merge(merge(a, b), c) == merge(a, merge(b, c))
