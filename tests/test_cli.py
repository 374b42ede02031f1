"""End-to-end command line flows, exit codes, and report schema."""

import copy
import hashlib
import json

import pytest

from conftest import assert_schema_1
from semproto import report as report_module
from semproto.cli import EXIT_INTERNAL, EXIT_OK, EXIT_VALIDATION, main
from semproto.report import REPORT_FIELDS, check_report

TINY_DATASET = "\n".join([
    '{"id": "a1", "label": "classA", "asd": [["A", "B"]]}',
    '{"id": "a2", "label": "classA", "asd": [["A", "B"], ["C", "D"]]}',
    '{"id": "b1", "label": "classB", "asd": [["E"]]}',
]) + "\n"


@pytest.fixture
def tiny_dataset(tmp_path):
    path = tmp_path / "tiny.jsonl"
    path.write_text(TINY_DATASET)
    return path


def run_report(tmp_path, dataset, *extra):
    out = tmp_path / "report.json"
    rc = main(["run", "--dataset", str(dataset), "--output", str(out), *extra])
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    assert_schema_1(report)
    return report, out


# ---------------------------------------------------------------------------
# generate / validate / run / explain round trip
# ---------------------------------------------------------------------------

def test_full_flow_on_generated_scenes(tmp_path, capsys):
    data = tmp_path / "scenes.jsonl"
    rc = main(["generate", "--samples-per-class", "20", "--objects", "3", "5",
               "--seed", "1", "--output", str(data)])
    assert rc == EXIT_OK
    assert "wrote 60 samples over 3 classes" in capsys.readouterr().out
    rules = data.with_suffix(".rules.jsonl")
    assert rules.exists()

    assert main(["validate", "--dataset", str(data)]) == EXIT_OK

    report, out = run_report(tmp_path, data, "--max-prototypes", "1",
                             "--ground-truth", str(rules))
    captured = capsys.readouterr()
    assert "report written" in captured.out
    assert out.with_suffix(".md").exists()
    assert [c["label"] for c in report["classes"]] == ["class1", "class2", "class3"]
    for block in report["classes"]:
        assert block["positives"] == 20
        assert len(block["ccds"]) == 1
        assert len(block["prototypes"]) == 1
        # 20 samples/class may legitimately leave extra shared structure in
        # the mined rule; exact recovery is checked on the full-size run
        assert isinstance(block["ruleRecovered"], bool)

    proto_id = report["classes"][0]["prototypes"][0]["sampleId"]
    rc = main(["explain", "--report", str(out), "--sample", proto_id])
    assert rc == EXIT_OK
    explanation = capsys.readouterr().out
    assert proto_id in explanation
    assert "class1" in explanation
    # the breakdown names a witness per rule entity
    assert "rule entity" in explanation and "matches" in explanation


def test_report_schema_and_flags_echo(tiny_dataset, tmp_path):
    report, _ = run_report(tmp_path, tiny_dataset, "--seed", "42")
    assert report["schemaVersion"] == 1
    meta = report["metadata"]
    assert meta["tool"] == "semproto"
    assert meta["dataset"].endswith("tiny.jsonl")
    assert meta["datasetSha256"] == hashlib.sha256(TINY_DATASET.encode()).hexdigest()
    # no runtime knobs in the echo: reports stay byte-stable across machines
    assert meta["flags"] == {"classFilter": None, "maxPrototypes": None,
                             "distance": "edit", "unmatchedCost": "attrs",
                             "seed": 42}
    block = report["classes"][0]
    assert block["label"] == "classA"
    assert block["ccds"][0]["asd"] == [["A", "B"]]
    assert block["ccds"][0]["ruleText"].startswith("IF a data point has an entity with")
    assert block["ccds"][0]["coverageCount"] == 2
    assert block["uncovered"] == []
    proto = block["prototypes"][0]
    assert proto["sampleId"] == "a1"
    assert proto["editTotal"] == 0
    assert proto["metric"] == "edit"
    # every prototype points back at a selected rule; fractions stay in [0,1]
    for b in report["classes"]:
        for p in b["prototypes"]:
            assert 0 <= p["ccdIndex"] < len(b["ccds"])
        for ccd in b["ccds"]:
            assert 0.0 <= ccd["coverageFraction"] <= 1.0
            assert ccd["coverageCount"] <= b["positives"]


def test_explain_zero_distance_wording(tiny_dataset, tmp_path, capsys):
    _, out = run_report(tmp_path, tiny_dataset)
    assert main(["explain", "--report", str(out), "--sample", "a1"]) == EXIT_OK
    assert "no redundant attributes" in capsys.readouterr().out


def test_explain_rejects_non_prototype(tiny_dataset, tmp_path, capsys):
    _, out = run_report(tmp_path, tiny_dataset)
    assert main(["explain", "--report", str(out), "--sample", "a2"]) == EXIT_VALIDATION
    assert "a2" in capsys.readouterr().err


def test_explain_rejects_unknown_schema(tmp_path, capsys):
    bogus = tmp_path / "r.json"
    bogus.write_text('{"schemaVersion": 99}')
    assert main(["explain", "--report", str(bogus), "--sample", "x"]) == EXIT_VALIDATION
    assert "schema" in capsys.readouterr().err


def _first_prototype_edited(edit):
    def content(report):
        edit(report["classes"][0]["prototypes"][0])
        return json.dumps(report).encode()
    return content


@pytest.mark.parametrize("content", [
    b'{"schemaVersion": 1, "classes": [\xff\xfe]}',  # not UTF-8
    b"[1]",
    b'{"schemaVersion": 1}',
    _first_prototype_edited(lambda p: p.pop("matched")),
    _first_prototype_edited(lambda p: p["matched"][0].pop("sampleEntity")),
    _first_prototype_edited(lambda p: p["matched"][0].pop("extraAttributes")),
    _first_prototype_edited(
        lambda p: p["unmatchedEntities"].append({"sampleEntityIndex": 1, "cost": 2})),
    _first_prototype_edited(lambda p: p.pop("sampleAsd")),
    b"[" * 100_000,
], ids=["not-utf8", "not-an-object", "no-classes", "prototype-without-matched",
        "match-without-sampleEntity", "match-without-extraAttributes",
        "unmatched-without-entity", "prototype-without-sampleAsd", "nested-too-deep"])
def test_explain_rejects_malformed_reports(content, tiny_dataset, tmp_path, capsys):
    report, out = run_report(tmp_path, tiny_dataset)
    if callable(content):
        content = content(report)
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    capsys.readouterr()
    assert main(["explain", "--report", str(bad), "--sample", "a1"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "report" in err
    assert "Traceback" not in err


def _schema_fields(spec=REPORT_FIELDS, path=()):
    """(path, type) of every named field of schema 1; list items at index 0."""
    if isinstance(spec, dict):
        for name, field in spec.items():
            yield path + (name,), field
            yield from _schema_fields(field, path + (name,))
    elif isinstance(spec, list):
        yield from _schema_fields(spec[0], path + (0,))


def _json_path(path):
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def _example(spec):
    if isinstance(spec, dict):
        return {name: _example(field) for name, field in spec.items()}
    if isinstance(spec, list):
        return [_example(spec[0])]
    return {"string": "x", "integer": 0, "number": 0.5, "boolean": True}[spec.rstrip("?")]


def _fill_empty_lists(value, spec):
    if isinstance(spec, dict):
        for name, field in spec.items():
            _fill_empty_lists(value[name], field)
    elif isinstance(spec, list):
        if not value:
            value.append(_example(spec[0]))
        for item in value:
            _fill_empty_lists(item, spec[0])


# A wrong value per type; a bool is never an integer or a number.
_WRONG = {"string": 1, "integer": True, "number": True, "boolean": 0}
SCHEMA_FIELDS = list(_schema_fields())


@pytest.fixture(scope="module")
def full_report(tmp_path_factory):
    """A report written by run, with every empty list given one valid item,
    so that every field of the schema table occurs in it."""
    tmp = tmp_path_factory.mktemp("full")
    dataset = tmp / "tiny.jsonl"
    dataset.write_text(TINY_DATASET)
    report, _ = run_report(tmp, dataset)
    _fill_empty_lists(report, REPORT_FIELDS)
    assert check_report(report) == []
    full = tmp / "full.json"
    full.write_text(json.dumps(report))
    assert main(["explain", "--report", str(full), "--sample", "a1"]) == EXIT_OK
    return report


@pytest.mark.parametrize("edit", ["delete", "retype"])
@pytest.mark.parametrize("path, field", SCHEMA_FIELDS,
                         ids=[_json_path(path) for path, _ in SCHEMA_FIELDS])
def test_explain_rejects_each_schema_field_missing_or_retyped(
        full_report, path, field, edit, tmp_path, capsys):
    report = copy.deepcopy(full_report)
    parent = report
    for key in path[:-1]:
        parent = parent[key]
    if edit == "delete":
        del parent[path[-1]]
    elif isinstance(field, str):
        parent[path[-1]] = _WRONG[field.rstrip("?")]
    else:
        parent[path[-1]] = {} if isinstance(field, list) else []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["explain", "--report", str(bad), "--sample", "a1"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    if path == ("schemaVersion",) and edit == "delete":
        assert "unsupported report schema None" in err
    else:
        problem = "missing" if edit == "delete" else "expected "
        assert f"malformed report {bad}: {_json_path(path)}: {problem}" in err


@pytest.mark.parametrize("ccd_index", [-1, "rules", True], ids=["-1", "len-ccds", "true"])
def test_explain_rejects_ccd_index_outside_its_rules(ccd_index, full_report, tmp_path,
                                                     capsys):
    report = copy.deepcopy(full_report)
    block = report["classes"][0]
    block["prototypes"][0]["ccdIndex"] = (len(block["ccds"]) if ccd_index == "rules"
                                          else ccd_index)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["explain", "--report", str(bad), "--sample", "a1"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "$.classes[0].prototypes[0].ccdIndex: expected " in err


def test_explain_renderer_bug_is_an_internal_error(tiny_dataset, tmp_path, monkeypatch,
                                                  capsys):
    """A renderer that fails on a valid report is a bug: exit 3 with a
    traceback, never a "malformed report"."""
    _, out = run_report(tmp_path, tiny_dataset)

    def broken(report, block, proto):
        return proto["no such field"]

    monkeypatch.setattr(report_module, "_explanation_text", broken)
    capsys.readouterr()
    assert main(["explain", "--report", str(out), "--sample", "a1"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and "KeyError" in err
    assert "malformed" not in err


def test_writer_keys_follow_the_schema_table():
    """Every object build_report writes holds the table's fields in the
    table's order, runner-up entries included (run never asks for them)."""
    from semproto import GeneratorConfig, find_prototype, generate_clevr_hans3, run_pipeline
    from semproto.report import build_report, serialize_report

    dataset, _ = generate_clevr_hans3(GeneratorConfig(samples_per_class=12,
                                                      objects_max=5, seed=3))
    result = run_pipeline(dataset, max_prototypes=2)
    for c in result.classes:
        positives, _ = dataset.split(c.label)
        c.prototypes = [find_prototype(step.ccd, positives, runners_up=2)
                        for step in c.selection]
    report = json.loads(serialize_report(build_report(
        result, dataset, dataset_path="d.jsonl", dataset_sha256="0" * 64,
        version="0.0.0", class_filter=None, max_prototypes=2, distance="edit",
        unmatched_cost="attrs", seed=0)))
    prototypes = [p for c in report["classes"] for p in c["prototypes"]]
    assert any(p["runnersUp"] for p in prototypes)
    assert any(p["unmatchedEntities"] for p in prototypes)
    assert_schema_1(report)


# Pinned digests of the reports for a fixed generated scene set.  Any change
# to mining order, selection, prototypes or rendering that alters a byte of
# either report changes these; a refactor must leave them as they are.
GOLDEN_JSON_SHA256 = "1b05fdf46c68dd980f2e1dec4193880c25b29f9b08b14cbb1ea3283368dd5e8e"
GOLDEN_MD_SHA256 = "4e0270fe02583d8c1dd6a5359b4a7ef3c4a95b70a278abbc09db88ebdafd3383"


def test_golden_reports_on_generated_scenes(tmp_path, monkeypatch, capsys):
    from semproto import cli
    from semproto.data import (GeneratorConfig, generate_clevr_hans3, write_dataset,
                               write_ground_truth)

    # relative paths and a fixed version: the report echoes both
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_version", lambda: "0.0.0")
    dataset, rules = generate_clevr_hans3(GeneratorConfig(
        samples_per_class=40, objects_min=3, objects_max=6, seed=11))
    write_dataset(dataset, "scenes.jsonl")
    write_ground_truth(rules, dataset.vocabulary, "scenes.rules.jsonl")
    rc = main(["run", "--dataset", "scenes.jsonl", "--output", "report.json",
               "--ground-truth", "scenes.rules.jsonl"])
    assert rc == EXIT_OK
    capsys.readouterr()
    assert_schema_1(json.loads((tmp_path / "report.json").read_text()))
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("report.json", "report.md")}
    assert digest == {"report.json": GOLDEN_JSON_SHA256,
                      "report.md": GOLDEN_MD_SHA256}


# ---------------------------------------------------------------------------
# run options
# ---------------------------------------------------------------------------

def test_run_class_filter(tiny_dataset, tmp_path):
    report, _ = run_report(tmp_path, tiny_dataset, "--class", "classA")
    assert [c["label"] for c in report["classes"]] == ["classA"]


def test_run_unknown_class_filter(tiny_dataset, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["run", "--dataset", str(tiny_dataset), "--output", str(out),
               "--class", "nope"])
    assert rc == EXIT_VALIDATION
    assert "nope" in capsys.readouterr().err


def test_run_zero_prototypes(tiny_dataset, tmp_path):
    report, _ = run_report(tmp_path, tiny_dataset, "--max-prototypes", "0")
    for block in report["classes"]:
        assert block["ccds"] == []
        assert block["prototypes"] == []


def test_run_jaccard_metric(tiny_dataset, tmp_path):
    report, _ = run_report(tmp_path, tiny_dataset, "--distance", "jaccard")
    assert report["metadata"]["flags"]["distance"] == "jaccard"
    assert report["classes"][0]["prototypes"][0]["metric"] == "jaccard"


def test_run_inseparable_dataset(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([
        '{"id": "p1", "label": "pos", "asd": [["A"]]}',
        '{"id": "n1", "label": "neg", "asd": [["A", "B"]]}',
    ]) + "\n")
    out = tmp_path / "report.json"
    rc = main(["run", "--dataset", str(path), "--output", str(out)])
    assert rc == EXIT_VALIDATION
    assert "p1" in capsys.readouterr().err


def test_run_negative_max_prototypes(tiny_dataset, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["run", "--dataset", str(tiny_dataset), "--output", str(out),
               "--max-prototypes", "-1"])
    assert rc == EXIT_VALIDATION
    assert "max_prototypes must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_run_zero_parallelism(tiny_dataset, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["run", "--dataset", str(tiny_dataset), "--output", str(out),
               "--parallelism", "0"])
    assert rc == EXIT_VALIDATION
    assert "parallelism must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_run_parallelism_changes_no_report(tiny_dataset, tmp_path):
    """--parallelism is checked and then dropped: any accepted value writes
    the same JSON and markdown reports."""
    outputs = []
    for workers in ("1", "3"):
        (tmp_path / workers).mkdir()
        _, out = run_report(tmp_path / workers, tiny_dataset, "--parallelism", workers)
        outputs.append((out.read_bytes(), out.with_suffix(".md").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("args, expected", [
    (["--dataset", "missing.jsonl", "--output", "r.md"], ".md"),
    (["--dataset", "missing.jsonl", "--output", ""], ".md"),
    (["--dataset", "tiny.jsonl", "--output", "./tiny.jsonl"], "the dataset 'tiny.jsonl'"),
    (["--dataset", "tiny.jsonl", "--ground-truth", "rules.jsonl", "--output",
      "rules.jsonl"], "the ground truth 'rules.jsonl'"),
    (["--dataset", "tiny.md", "--output", "tiny.json"], "the dataset 'tiny.md'"),
], ids=["md-suffix", "empty", "dataset", "ground-truth", "dataset-beside-markdown"])
def test_run_rejects_an_output_path_without_a_json_name(args, expected, tmp_path,
                                                        monkeypatch, capsys):
    """The markdown report goes to --output with the suffix .md, so an
    --output ending in .md would be overwritten by it, and an empty one has
    no name to take a suffix.  Neither report may overwrite the dataset or
    the ground truth.  The path is checked before the dataset is read
    (in the first two cases it does not exist) and nothing is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.jsonl").write_text(TINY_DATASET)
    (tmp_path / "tiny.md").write_text(TINY_DATASET)
    (tmp_path / "rules.jsonl").write_text('{"label": "classA", "rule": [["A"]]}\n')
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    rc = main(["run", *args])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --output ")
    assert expected in err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_run_unwritable_output_is_internal(tiny_dataset, tmp_path):
    rc = main(["run", "--dataset", str(tiny_dataset),
               "--output", "/nonexistent-dir/report.json"])
    assert rc == EXIT_INTERNAL


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args, expected", [
    (["run", "--dataset", "{missing}"], "cannot read dataset"),
    (["run", "--dataset", "{directory}"], "cannot read dataset"),
    (["run", "--dataset", "{not_utf8}"], "cannot read dataset"),
    (["validate", "--dataset", "{missing}"], "cannot read dataset"),
    (["validate", "--dataset", "{directory}"], "cannot read dataset"),
    (["validate", "--dataset", "{not_utf8}"], "cannot read dataset"),
    (["run", "--dataset", "{tiny}", "--ground-truth", "{missing}"],
     "cannot read ground truth"),
    (["run", "--dataset", "{tiny}", "--ground-truth", "{not_utf8}"],
     "cannot read ground truth"),
    (["run", "--dataset", "{tiny}", "--ground-truth", "{numeric_rule}"],
     "entity attributes must be non-empty strings"),
    (["run", "--dataset", "{tiny}", "--ground-truth", "{repeated_label}"],
     "line 2: duplicate label 'classA' (first at line 1)"),
    (["run", "--dataset", "{tiny}", "--ground-truth", "{unknown_label}"],
     "ground-truth label(s) ['clas1'] name no class of the dataset "
     "(available: ['classA', 'classB'])"),
    (["convert", "--matrix", "{not_utf8}"], "cannot read matrix"),
], ids=["run-missing", "run-directory", "run-not-utf8", "validate-missing",
        "validate-directory", "validate-not-utf8", "ground-truth-missing",
        "ground-truth-not-utf8", "ground-truth-numeric-attribute",
        "ground-truth-repeated-label", "ground-truth-unknown-label", "convert-not-utf8"])
def test_bad_input_files_exit_2(tiny_dataset, tmp_path, capsys, args, expected):
    paths = {"missing": tmp_path / "missing.jsonl", "directory": tmp_path / "dir",
             "not_utf8": tmp_path / "latin1.jsonl", "tiny": tiny_dataset,
             "numeric_rule": tmp_path / "rules.jsonl",
             "repeated_label": tmp_path / "repeated.jsonl",
             "unknown_label": tmp_path / "typo.jsonl"}
    paths["directory"].mkdir()
    paths["not_utf8"].write_bytes('{"id": "s\u00e9"}\n'.encode("latin-1"))
    paths["numeric_rule"].write_text('{"label": "classA", "rule": [[1, 2]]}\n')
    paths["repeated_label"].write_text('{"label": "classA", "rule": [["X"]]}\n'
                                       '{"label": "classA", "rule": [["Y"]]}\n')
    paths["unknown_label"].write_text('{"label": "classA", "rule": [["A"]]}\n'
                                      '{"label": "clas1", "rule": [["E"]]}\n')
    argv = [arg.format(**paths) for arg in args]
    if argv[0] != "validate":
        argv += ["--output", str(tmp_path / "out.json")]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert expected in captured.out + captured.err
    assert "Traceback" not in captured.err


def test_ground_truth_for_a_class_left_out_by_class_is_allowed(tiny_dataset, tmp_path,
                                                               capsys):
    rules = tmp_path / "rules.jsonl"
    rules.write_text('{"label": "classA", "rule": [["A"]]}\n')
    report, _ = run_report(tmp_path, tiny_dataset, "--class", "classB",
                           "--ground-truth", str(rules))
    assert [c["label"] for c in report["classes"]] == ["classB"]
    assert "ground truth" not in capsys.readouterr().out


def test_validate_reports_each_problem(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([
        '{"id": "s1", "label": "a", "asd": [["X"]]}',
        '{"id": "s2", "label": "a", "asd": [[]]}',
        '{"id": "s1", "label": "a", "asd": [["Y"]]}',
    ]) + "\n")
    assert main(["validate", "--dataset", str(path)]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "empty entity" in out
    assert "duplicate sample id" in out
    assert "2 validation error(s)" in out


def test_validate_clean_file(tiny_dataset, capsys):
    assert main(["validate", "--dataset", str(tiny_dataset)]) == EXIT_OK
    assert "OK" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# convert, generate options, selftest, usage
# ---------------------------------------------------------------------------

def test_convert_then_run(tmp_path):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("\n".join([
        "pos/s1,a,1.0",
        "pos/s1,b,1.0",
        "neg/s2,c,1.0",
    ]) + "\n")
    data = tmp_path / "converted.jsonl"
    assert main(["convert", "--matrix", str(matrix), "--output", str(data)]) == EXIT_OK
    report, _ = run_report(tmp_path, data)
    assert [c["label"] for c in report["classes"]] == ["neg", "pos"]


def test_convert_bad_matrix(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("s1,a,1.0\n")  # no label anywhere
    data = tmp_path / "converted.jsonl"
    rc = main(["convert", "--matrix", str(matrix), "--output", str(data)])
    assert rc == EXIT_VALIDATION
    assert "no label" in capsys.readouterr().err


def test_generate_custom_ground_truth_path(tmp_path):
    data = tmp_path / "d.jsonl"
    rules = tmp_path / "custom-rules.jsonl"
    rc = main(["generate", "--samples-per-class", "3", "--output", str(data),
               "--ground-truth", str(rules)])
    assert rc == EXIT_OK
    assert rules.exists()
    assert len(rules.read_text().splitlines()) == 3


def test_generate_rejects_bad_object_range(tmp_path, capsys):
    rc = main(["generate", "--objects", "5", "2",
               "--output", str(tmp_path / "d.jsonl")])
    assert rc == EXIT_VALIDATION
    assert "object count range" in capsys.readouterr().err


def test_selftest_command(capsys):
    assert main(["selftest", "--budget", "25"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)
    assert "PASS ranker-batches (25 cases, 0 failures)" in lines
    assert "PASS merge-canonical (25 cases, 0 failures)" in lines


def test_usage_errors(capsys):
    assert main(["bogus-command"]) == EXIT_VALIDATION
    assert main(["run"]) == EXIT_VALIDATION  # missing required flags
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "semproto" in capsys.readouterr().out


UNLOADED = ("scipy", "concurrent.futures", "multiprocessing")


@pytest.mark.parametrize("module", ["semproto.cli", "semproto.mining"])
def test_import_leaves_scipy_unloaded(module):
    """Start-up, and an import of the miner alone, load neither scipy nor the
    process-pool machinery (``concurrent.futures``, ``multiprocessing``):
    mining runs in one process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import semproto
    src = str(Path(semproto.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (f"import sys, {module}; print(sorted(m for m in sys.modules "
            f"if any(m == u or m.startswith(u + '.') for u in {UNLOADED!r})))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
