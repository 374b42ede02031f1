"""Dataset loading and validation, scene generation, matrix conversion."""

import hashlib

import pytest

from semproto import (
    ASD,
    ConfigError,
    DatasetValidationError,
    GenerationError,
    GeneratorConfig,
    Vocabulary,
    convert_attribute_matrix,
    generate_clevr_hans3,
    load_dataset,
    load_ground_truth,
    scan_dataset,
    subsumes,
    validate_dataset,
    write_dataset,
    write_ground_truth,
)

GOOD_LINES = [
    '{"id": "a-0", "label": "a", "asd": [["Large", "Cube"]]}',
    '{"id": "b-0", "label": "b", "asd": [["Small"], ["Red", "Sphere"]], "ref": "img/7.png"}',
]


# ---------------------------------------------------------------------------
# scanning and loading
# ---------------------------------------------------------------------------

def test_scan_well_formed_lines():
    dataset, diagnostics = scan_dataset(GOOD_LINES)
    assert diagnostics == []
    assert len(dataset) == 2
    assert dataset.labels() == ["a", "b"]
    assert dataset.by_id["b-0"].raw_ref == "img/7.png"
    assert dataset.by_id["a-0"].asd.to_name_lists(dataset.vocabulary) == [["Large", "Cube"]]


def test_scan_skips_blank_lines():
    dataset, diagnostics = scan_dataset([GOOD_LINES[0], "", "   ", GOOD_LINES[1]])
    assert diagnostics == []
    assert len(dataset) == 2


def test_scan_collects_every_problem():
    lines = [
        "not json",
        "[1, 2]",
        '{"label": "a", "asd": [["X"]]}',
        '{"id": "s1", "asd": [["X"]]}',
        '{"id": "s2", "label": "a", "asd": []}',
        '{"id": "s3", "label": "a", "asd": [[]]}',
        '{"id": "s4", "label": "a", "asd": [["X", 3]]}',
        '{"id": "s5", "label": "a", "asd": [["X"]], "ref": 9}',
    ]
    dataset, diagnostics = scan_dataset(lines)
    assert dataset is None
    assert len(diagnostics) == 8
    assert [d.line for d in diagnostics] == list(range(1, 9))


def test_scan_duplicate_id_points_at_first_line():
    lines = [GOOD_LINES[0], '{"id": "a-0", "label": "a", "asd": [["Other"]]}']
    dataset, diagnostics = scan_dataset(lines)
    assert dataset is None
    assert len(diagnostics) == 1
    assert "first seen at line 1" in diagnostics[0].message
    assert diagnostics[0].sample_id == "a-0"


def test_scan_cross_label_duplicate_description_names_both():
    lines = [
        '{"id": "p1", "label": "pos", "asd": [["Cube", "Large"]]}',
        '{"id": "n1", "label": "neg", "asd": [["Large", "Cube"]]}',
    ]
    dataset, diagnostics = scan_dataset(lines)
    assert dataset is None
    assert len(diagnostics) == 1
    assert "p1" in diagnostics[0].message
    assert diagnostics[0].sample_id == "n1"
    assert "no rule can separate" in diagnostics[0].message


def test_scan_same_label_duplicate_description_is_fine():
    lines = [
        '{"id": "p1", "label": "pos", "asd": [["Cube"]]}',
        '{"id": "p2", "label": "pos", "asd": [["Cube"]]}',
    ]
    dataset, diagnostics = scan_dataset(lines)
    assert diagnostics == []
    assert len(dataset) == 2


def test_scan_empty_input():
    dataset, diagnostics = scan_dataset([])
    assert dataset is None
    assert len(diagnostics) == 1
    assert "no samples" in diagnostics[0].message


def test_load_dataset_raises_with_diagnostics(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "s1", "label": "a", "asd": [[]]}\n')
    with pytest.raises(DatasetValidationError) as err:
        load_dataset(path)
    assert len(err.value.diagnostics) == 1
    assert "empty entity" in str(err.value)


def test_validate_dataset_missing_file():
    diagnostics = validate_dataset("/nonexistent/nowhere.jsonl")
    assert len(diagnostics) == 1
    assert "cannot read" in diagnostics[0].message


def test_write_dataset_round_trip(tmp_path):
    dataset, _ = scan_dataset(GOOD_LINES)
    path = tmp_path / "out.jsonl"
    write_dataset(dataset, path)
    loaded = load_dataset(path)
    assert [s.id for s in loaded.samples] == [s.id for s in dataset.samples]
    for a, b in zip(loaded.samples, dataset.samples):
        assert a.label == b.label
        assert a.raw_ref == b.raw_ref
        assert (a.asd.to_name_lists(loaded.vocabulary)
                == b.asd.to_name_lists(dataset.vocabulary))


def test_dataset_split():
    dataset, _ = scan_dataset(GOOD_LINES)
    positives, negatives = dataset.split("a")
    assert [s.id for s in positives] == ["a-0"]
    assert [s.id for s in negatives] == ["b-0"]


# ---------------------------------------------------------------------------
# scene generator
# ---------------------------------------------------------------------------

def small_config(**kwargs):
    defaults = dict(samples_per_class=25, seed=5)
    defaults.update(kwargs)
    return GeneratorConfig(**defaults)


def test_generator_is_deterministic(tmp_path):
    d1, rules1 = generate_clevr_hans3(small_config())
    d2, rules2 = generate_clevr_hans3(small_config())
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(d1, p1)
    write_dataset(d2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert rules1 == rules2
    d3, _ = generate_clevr_hans3(small_config(seed=6))
    p3 = tmp_path / "c.jsonl"
    write_dataset(d3, p3)
    assert p1.read_bytes() != p3.read_bytes()


# sha256 of write_dataset output for small_config(), plain and confounded.
# Any change to the axes, the vocabulary's interning order or the draws of the
# generator changes these; a refactor must leave them as they are.
GENERATED_SHA256 = {
    False: "dbd52f2584fbeb888e1ae6947643f84f351ca7bf68adf66a87b9b015f10dbc7f",
    True: "4b064bc0e712666109a19d32b0923022baed0c1d40e5b3033de1541142e76022",
}


@pytest.mark.parametrize("confounded", [False, True])
def test_generator_bytes_are_pinned(tmp_path, confounded):
    dataset, _ = generate_clevr_hans3(small_config(confounded=confounded))
    path = tmp_path / "scenes.jsonl"
    write_dataset(dataset, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GENERATED_SHA256[confounded]


def test_generator_rules_hold_exclusively():
    dataset, rules = generate_clevr_hans3(small_config())
    for label in dataset.labels():
        rule = rules[label]
        for sample in dataset.samples:
            described = subsumes(rule, sample.asd)
            assert described == (sample.label == label), sample.id


def test_generator_ids_and_object_counts():
    config = small_config(objects_min=3, objects_max=6)
    dataset, _ = generate_clevr_hans3(config)
    assert len(dataset) == 75
    assert dataset.by_id["class1-0000"].label == "class1"
    assert dataset.by_id["class3-0024"].label == "class3"
    for sample in dataset.samples:
        # canonical form may collapse identical objects, so only an upper
        # bound on entities survives; attributes per entity stay exactly 4
        assert 1 <= len(sample.asd) <= 6
        assert all(e.bit_count() == 4 for e in sample.asd.entities)


def test_generator_confounded_shortcuts():
    dataset, _ = generate_clevr_hans3(small_config(confounded=True))
    v = dataset.vocabulary
    gray_cube = ASD.from_names(v, [["Large", "Cube", "Gray"]])
    metal_sphere = ASD.from_names(v, [["Small", "Metal", "Sphere"]])
    for sample in dataset.samples:
        if sample.label == "class1":
            assert subsumes(gray_cube, sample.asd), sample.id
        elif sample.label == "class2":
            assert subsumes(metal_sphere, sample.asd), sample.id


def test_generator_config_validation():
    with pytest.raises(ConfigError):
        GeneratorConfig(samples_per_class=0)
    with pytest.raises(ConfigError):
        GeneratorConfig(objects_min=1)
    with pytest.raises(ConfigError):
        GeneratorConfig(objects_min=5, objects_max=4)


def test_generator_budget_exhaustion(monkeypatch):
    """Two classes with the same rule can never be separated by rejection."""
    monkeypatch.setattr(
        "semproto.data.CLEVR_HANS3_RULES",
        (("a", (("Small", "Cube"),)), ("b", (("Small", "Cube"),))),
    )
    monkeypatch.setattr("semproto.data.REJECTION_BUDGET", 3)
    with pytest.raises(GenerationError, match="after 3 draws"):
        generate_clevr_hans3(small_config())


def test_ground_truth_round_trip(tmp_path):
    dataset, rules = generate_clevr_hans3(small_config())
    path = tmp_path / "rules.jsonl"
    write_ground_truth(rules, dataset.vocabulary, path)
    loaded = load_ground_truth(path, dataset.vocabulary)
    assert loaded == rules


def test_ground_truth_rejects_garbage(tmp_path):
    path = tmp_path / "rules.jsonl"
    path.write_text('{"label": "a"}\n')
    with pytest.raises(DatasetValidationError):
        load_ground_truth(path, Vocabulary())
    path.write_text("")
    with pytest.raises(DatasetValidationError):
        load_ground_truth(path, Vocabulary())


# ---------------------------------------------------------------------------
# attribute matrix conversion
# ---------------------------------------------------------------------------

def write_matrix(tmp_path, text):
    path = tmp_path / "matrix.csv"
    path.write_text(text)
    return path


def test_convert_whole_grouping(tmp_path):
    path = write_matrix(tmp_path, "\n".join([
        "sample,attribute,value,label",  # header
        "s1,red,1.0,pos",
        "s1,round,1.0,pos",
        "s2,blue,1.0,neg",
    ]))
    dataset = convert_attribute_matrix(path)
    assert [s.id for s in dataset.samples] == ["s1", "s2"]
    s1 = dataset.by_id["s1"]
    assert s1.label == "pos"
    assert s1.asd.to_name_lists(dataset.vocabulary) == [["red", "round"]]


def test_convert_part_prefix_grouping(tmp_path):
    path = write_matrix(tmp_path, "\n".join([
        "s1,color::red,1.0,pos",
        "s1,color::dark,1.0,pos",
        "s1,shape::cube,1.0,pos",
    ]))
    dataset = convert_attribute_matrix(path, grouping="part-prefix")
    lists = dataset.by_id["s1"].asd.to_name_lists(dataset.vocabulary)
    # canonical order puts the smaller entity first
    assert lists == [["shape::cube"], ["color::red", "color::dark"]]


def test_convert_threshold_filters_attributes(tmp_path):
    path = write_matrix(tmp_path, "\n".join([
        "s1,sure,0.9,pos",
        "s1,unsure,0.4,pos",
    ]))
    dataset = convert_attribute_matrix(path, threshold=0.5)
    assert dataset.by_id["s1"].asd.to_name_lists(dataset.vocabulary) == [["sure"]]


def test_convert_threshold_above_everything_errors(tmp_path):
    path = write_matrix(tmp_path, "s1,a,1.0,pos\n")
    with pytest.raises(DatasetValidationError) as err:
        convert_attribute_matrix(path, threshold=1.1)
    assert any("threshold" in d.message for d in err.value.diagnostics)


def test_convert_label_from_id_prefix(tmp_path):
    path = write_matrix(tmp_path, "pos/s1,a,1.0\nneg/s2,b,1.0\n")
    dataset = convert_attribute_matrix(path)
    assert dataset.by_id["pos/s1"].label == "pos"
    assert dataset.by_id["neg/s2"].label == "neg"


def test_convert_missing_label_is_an_error(tmp_path):
    path = write_matrix(tmp_path, "s1,a,1.0\n")
    with pytest.raises(DatasetValidationError) as err:
        convert_attribute_matrix(path)
    assert any("no label" in d.message for d in err.value.diagnostics)


def test_convert_conflicting_labels(tmp_path):
    path = write_matrix(tmp_path, "s1,a,1.0,pos\ns1,b,1.0,neg\n")
    with pytest.raises(DatasetValidationError) as err:
        convert_attribute_matrix(path)
    assert any("conflicting labels" in d.message for d in err.value.diagnostics)


def test_convert_bad_rows(tmp_path):
    path = write_matrix(tmp_path, "\n".join([
        "s1,a,1.0,pos",
        "just-one-column",
        "s2,b,not-a-number,pos",
        ",c,1.0,pos",
    ]))
    with pytest.raises(DatasetValidationError) as err:
        convert_attribute_matrix(path)
    messages = [d.message for d in err.value.diagnostics]
    assert len(messages) == 3
    assert any("columns" in m for m in messages)
    assert any("not a number" in m for m in messages)
    assert any("empty sample id" in m for m in messages)


def test_convert_tab_delimiter(tmp_path):
    path = write_matrix(tmp_path, "s1\ta\t1.0\tpos\ns1\tb\t1.0\tpos\n")
    dataset = convert_attribute_matrix(path)
    assert dataset.by_id["s1"].asd.to_name_lists(dataset.vocabulary) == [["a", "b"]]


def test_convert_reads_delimiter_and_header_from_first_non_blank_line(tmp_path):
    path = write_matrix(tmp_path, "\n \nsample\tattribute\tvalue\tlabel\n"
                                  "s1\ta\t1.0\tpos\ns2\tb\t1.0\tneg\n")
    dataset = convert_attribute_matrix(path)
    assert [s.id for s in dataset.samples] == ["s1", "s2"]
    assert dataset.by_id["s2"].asd.to_name_lists(dataset.vocabulary) == [["b"]]


def test_convert_skips_no_header_after_the_first_non_blank_line(tmp_path):
    """After leading blank lines, a data row stands where a header may; a
    later row whose value is not a number is an error, not a header."""
    path = write_matrix(tmp_path, "\ns1,a,1.0,pos\ns2,b,high,neg\n")
    with pytest.raises(DatasetValidationError) as err:
        convert_attribute_matrix(path)
    assert [(d.line, d.message) for d in err.value.diagnostics] == [
        (3, "value 'high' is not a number")]


def test_convert_header_only_errors(tmp_path):
    path = write_matrix(tmp_path, "sample,attribute,value,label\n")
    with pytest.raises(DatasetValidationError) as err:
        convert_attribute_matrix(path)
    assert any("no samples" in d.message for d in err.value.diagnostics)


def test_convert_cross_label_duplicate(tmp_path):
    path = write_matrix(tmp_path, "\n".join([
        "s1,a,1.0,pos",
        "s2,a,1.0,neg",
    ]))
    with pytest.raises(DatasetValidationError) as err:
        convert_attribute_matrix(path)
    assert any("identical description" in d.message for d in err.value.diagnostics)


def test_convert_unknown_grouping(tmp_path):
    path = write_matrix(tmp_path, "s1,a,1.0,pos\n")
    with pytest.raises(ConfigError):
        convert_attribute_matrix(path, grouping="bogus")
