"""End-to-end command line flows, exit codes, and report schema."""

import copy
import hashlib
import io
import json
import re
import tracemalloc

import pytest

from conftest import assert_schema_1, run_fresh
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


def test_explain_prints_every_entry_of_a_sample(tmp_path, capsys):
    """A sample that is the prototype of two rules gets both explanations, in
    report order, one blank line apart; each reads as it does alone."""
    data = tmp_path / "two-rules.jsonl"
    data.write_text("\n".join([
        '{"id": "a1", "label": "classA", "asd": [["A"]]}',
        '{"id": "a2", "label": "classA", "asd": [["C"]]}',
        '{"id": "b1", "label": "classB", "asd": [["E"]]}',
    ]) + "\n")
    report, out = run_report(tmp_path, data)
    block = report["classes"][0]
    assert [(p["sampleId"], p["ccdIndex"]) for p in block["prototypes"]] == [("a1", 0),
                                                                            ("a2", 1)]
    capsys.readouterr()
    assert main(["explain", "--report", str(out), "--sample", "a1"]) == EXIT_OK
    alone = capsys.readouterr().out
    block["prototypes"][1] = dict(block["prototypes"][0], ccdIndex=1)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(report))
    assert main(["explain", "--report", str(edited), "--sample", "a1"]) == EXIT_OK
    both = capsys.readouterr().out
    assert both.startswith(alone + "\n")
    second = both[len(alone) + 1:]
    assert second.startswith("Prototype a1 for class 'classA' (rule 2 of 2)\n\n"
                             f"Rule: {block['ccds'][1]['ruleText']}\n")
    assert second.endswith("\n") and not second.endswith("\n\n")


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


def test_writer_keys_follow_the_schema_table(tmp_path):
    """Every object build_report writes holds the table's fields in the
    table's order, runner-up entries included (run never asks for them)."""
    from semproto import (GeneratorConfig, find_prototype, generate_clevr_hans3,
                          load_dataset, run_pipeline, write_dataset)
    from semproto.report import build_report, serialize_report

    generated, _ = generate_clevr_hans3(GeneratorConfig(samples_per_class=12,
                                                        objects_max=5, seed=3))
    write_dataset(generated, tmp_path / "d.jsonl")
    dataset = load_dataset(tmp_path / "d.jsonl")
    result = run_pipeline(dataset, max_prototypes=2)
    for c in result.classes:
        positives = dataset.by_label[c.label]
        c.prototypes = [find_prototype(step.ccd, positives, runners_up=2)
                        for step in c.selection]
    written = io.StringIO()
    serialize_report(build_report(result, dataset, version="0.0.0", seed=0), written)
    report = json.loads(written.getvalue())
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


@pytest.mark.parametrize("field", ["id", "label"])
def test_renaming_in_order_renames_the_reports_and_changes_nothing_else(field, tmp_path,
                                                                         capsys):
    """Metamorphic relations: renaming the sample ids, or the class labels,
    by an order-preserving map gives reports that equal the original ones
    once the new names are mapped back, apart from the report's metadata and
    the markdown's dataset line, under the default flags, one rule per
    class and the Jaccard distance."""
    from semproto.data import GeneratorConfig, generate_clevr_hans3, write_dataset

    dataset, _ = generate_clevr_hans3(GeneratorConfig(samples_per_class=20, seed=7))
    write_dataset(dataset, tmp_path / "original.jsonl")
    rows = [json.loads(line) for line in
            (tmp_path / "original.jsonl").read_text(encoding="utf-8").splitlines()]
    # fixed-width names sort as their ranks, in a form no original name takes
    renamed = {name: f"zq{rank:05d}"
               for rank, name in enumerate(sorted({row[field] for row in rows}))}
    back = {new: old for old, new in renamed.items()}
    with open(tmp_path / "renamed.jsonl", "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps({**row, field: renamed[row[field]]}) + "\n")

    def reports(name, *extra):
        out = tmp_path / f"{name}.json"
        assert main(["run", "--dataset", str(tmp_path / f"{name}.jsonl"),
                     "--output", str(out), *extra]) == EXIT_OK
        texts = [re.sub(r"zq\d{5}", lambda m: back[m.group()],
                        path.read_text(encoding="utf-8"))
                 for path in (out, out.with_suffix(".md"))]
        report = json.loads(texts[0])
        del report["metadata"]
        return report, [line for line in texts[1].splitlines()
                        if not line.startswith("- dataset: ")]

    for extra in ((), ("--max-prototypes", "1"), ("--distance", "jaccard")):
        assert reports("renamed", *extra) == reports("original", *extra), extra
    capsys.readouterr()


@pytest.mark.parametrize("options", [{}, {"metric": "jaccard"}, {"unmatched_cost": "zero"}],
                         ids=["default", "jaccard", "zero"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_doubling_every_sample_doubles_each_coverage_and_changes_nothing_else(options, seed):
    """Metamorphic relation: a twin of every sample, under the id ``id + "~"``
    that sorts directly after the original's, leaves each class's candidate
    descriptions, selected rules, prototype ids and distances as they were,
    and doubles every coverage count."""
    from semproto.data import Dataset, GeneratorConfig, generate_clevr_hans3
    from semproto.mining import Sample
    from semproto.pipeline import run_pipeline

    def mined(dataset):
        return [(c.label, [ccd.asd for ccd in c.candidates], [s.ccd.asd for s in c.selection],
                 [(p.sample_id, p.distance) for p in c.prototypes],
                 [c.positive_count, *(len(ccd.coverage) for ccd in c.candidates),
                  *(n for s in c.selection for n in (s.newly_covered, s.cumulative_covered))])
                for c in run_pipeline(dataset, **options).classes]

    dataset, _ = generate_clevr_hans3(GeneratorConfig(samples_per_class=40, seed=seed))
    twins = tuple(t for s in dataset.samples for t in (s, Sample(s.id + "~", s.label, s.asd)))
    expected = [(*rest, [2 * n for n in counts]) for *rest, counts in mined(dataset)]
    assert mined(Dataset(dataset.vocabulary, twins)) == expected


# Non-ASCII labels and attribute names.  Under the default flags "été"
# takes one two-entity rule whose prototype e01 carries nothing redundant,
# "hiver-ß" one rule per shape with an extra entity in h01, and "ñandú" a
# rule whose prototype n01 has to share one witness entity; --max-prototypes 0
# leaves every class without rules and the 12 "été" positives uncovered.
BRANCHES_DATASET = [
    ("e01", "été", [["rouge", "carré"], ["bleu"]]),
    ("e02", "été", [["rouge", "carré", "grün"], ["bleu"]]),
    ("e03", "été", [["rouge", "carré"], ["bleu", "ñ"]]),
    ("e04", "été", [["rouge", "carré"], ["bleu"], ["grün"]]),
    ("e05", "été", [["rouge", "carré", "Ω"], ["bleu", "日本"]]),
    ("e06", "été", [["rouge", "carré"], ["bleu"], ["日本", "Ω"]]),
    ("e07", "été", [["rouge", "carré", "ñ"], ["bleu", "grün"]]),
    ("e08", "été", [["rouge", "carré", "日本"], ["bleu", "Ω"]]),
    ("e09", "été", [["rouge", "carré"], ["bleu", "grün", "ñ"]]),
    ("e10", "été", [["rouge", "carré", "grün"], ["bleu", "日本"]]),
    ("e11", "été", [["rouge", "carré", "Ω"], ["bleu"], ["ñ"]]),
    ("e12", "été", [["rouge", "carré"], ["bleu", "Ω"]]),
    ("h01", "hiver-ß", [["rouge", "carré", "ß"], ["grün"]]),
    ("h02", "hiver-ß", [["bleu", "grün", "cœur"]]),
    ("h03", "hiver-ß", [["grün", "ñ"], ["日本"]]),
    ("h05", "hiver-ß", [["rouge", "carré", "ß"], ["日本"]]),
    ("n01", "ñandú", [["cœur", "ß"]]),
    ("n02", "ñandú", [["cœur", "日本"], ["ß", "日本"]]),
]
# "été" matches its rule, "ñandú" does not, "hiver-ß" has none
BRANCHES_RULES = {"été": [["rouge", "carré"], ["bleu"]], "ñandú": [["cœur"]]}
# lines each report must hold, one per markdown branch it reaches
BRANCHES_MARKDOWN = {
    (): ["> warning: class 'été': un avertissement, ß ≠ ss", "## été (12 samples)",
         "- top rule matches", "- top rule does NOT match", "no redundant attributes",
         "witnesses had to be shared", "- extra entity {grün} (cost 1)", "(exact)",
         "(+1: ß)"],
    ("--max-prototypes", "0"): [
        "- rules per class: at most 0", "_No rules selected._",
        "_Uncovered positives: e01, e02, e03, e04, e05, e06, e07, e08, e09, e10, ..._",
        "- top rule does NOT match"],
}
# sha256 of report.json and report.md under the flags of BRANCHES_MARKDOWN,
# taken from writers that built each file as one string before writing it
BRANCHES_SHA256 = {
    (): ("134cfae974fd35c8d19cef81aa35bff181ac69f605668ff776719b18c15505cc",
         "a9693a3b2952b0a019cf941235d1e4132935eb265d44b560e471b31a650112f4"),
    ("--max-prototypes", "0"): (
        "a4140930df0cf75bbcd124c0b8fad4c88d02007cffac1392e4f370aa35e6394c",
        "62289113f3b5bcb56a9f4f57294a579b41109ecaddacf57d4d4b838d7ecdef49"),
}


def run_branches_report(tmp_path, monkeypatch, *extra):
    """Run the BRANCHES dataset with a warning added to the pipeline result
    (every positive is covered, so run writes none itself); return the paths
    of both reports."""
    from semproto import cli

    def run_pipeline(*args, **kwargs):
        result = pipeline(*args, **kwargs)
        result.warnings.append("class 'été': un avertissement, ß ≠ ss")
        return result
    pipeline = cli.run_pipeline
    monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
    monkeypatch.setattr(cli, "_version", lambda: "0.0.0")
    monkeypatch.chdir(tmp_path)
    with open("d.jsonl", "w", encoding="utf-8") as handle:
        for sample_id, label, asd in BRANCHES_DATASET:
            handle.write(json.dumps({"id": sample_id, "label": label, "asd": asd}) + "\n")
    with open("rules.jsonl", "w", encoding="utf-8") as handle:
        for label, rule in BRANCHES_RULES.items():
            handle.write(json.dumps({"label": label, "rule": rule}) + "\n")
    assert main(["run", "--dataset", "d.jsonl", "--ground-truth", "rules.jsonl",
                 "--output", "report.json", *extra]) == EXIT_OK
    return tmp_path / "report.json", tmp_path / "report.md"


@pytest.mark.parametrize("extra", list(BRANCHES_SHA256), ids=["default", "no-rules"])
def test_report_bytes_are_pinned_on_every_markdown_branch(extra, tmp_path, monkeypatch,
                                                          capsys):
    """Both files are written as they are rendered, byte for byte as when
    each was built as one string, on reports that reach every branch of the
    markdown renderer."""
    paths = run_branches_report(tmp_path, monkeypatch, *extra)
    capsys.readouterr()
    text = paths[0].read_text(encoding="utf-8")
    assert '"label": "ñandú"' in text  # not escaped
    assert_schema_1(json.loads(text))
    markdown = paths[1].read_text(encoding="utf-8")
    for part in BRANCHES_MARKDOWN[extra]:
        assert part in markdown
    assert markdown == markdown.rstrip() + "\n"
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths)
    assert digests == BRANCHES_SHA256[extra]


class _CountingSink:
    """A text handle that keeps nothing: it only counts what is written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


@pytest.mark.parametrize("writer, copies", [("serialize_report", 140),
                                            ("render_markdown", 600)])
def test_report_writers_do_not_hold_their_text(writer, copies, tmp_path, monkeypatch,
                                               capsys):
    """Each writer streams a report of over 1 MB of text: the memory it
    allocates at its peak stays under a tenth of the characters it writes."""
    path, _ = run_branches_report(tmp_path, monkeypatch)
    capsys.readouterr()
    report = json.loads(path.read_text(encoding="utf-8"))
    report["classes"] = [copy.deepcopy(block) for block in report["classes"]
                         for _ in range(copies)]
    sink = _CountingSink()
    tracemalloc.start()
    try:
        getattr(report_module, writer)(report, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 1_000_000
    assert peak < sink.chars / 10


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


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", ["run", "generate", "convert"])
def test_unwritable_output_exits_2(command, where, tiny_dataset, tmp_path, capsys):
    """An --output in a missing directory, or one that is a directory, is a
    usage error with one line naming the path, not a traceback, found
    before anything is read or written."""
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("pos/s1,a,1.0\nneg/s2,b,1.0\n")
    inputs = {"run": ["--dataset", str(tiny_dataset)],
              "generate": ["--samples-per-class", "2"],
              "convert": ["--matrix", str(matrix)]}
    out = tmp_path / "missing" / "out.json" if where == "missing-dir" else tmp_path / "dir"
    (tmp_path / "dir").mkdir()
    rc = main([command, *inputs[command], "--output", str(out)])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("args, expected", [
    (["generate", "--samples-per-class", "2", "--output", "e.jsonl", "--ground-truth",
      "./e.jsonl"], "would overwrite the dataset 'e.jsonl' with the ground-truth rules"),
    (["convert", "--matrix", "m.csv", "--output", "./m.csv"],
     "would overwrite the matrix 'm.csv' with the dataset"),
], ids=["generate-rules-onto-dataset", "convert-onto-matrix"])
def test_an_output_may_not_overwrite_an_input(args, expected, tmp_path, monkeypatch,
                                              capsys):
    """generate may not write its rules over its dataset, nor convert its
    dataset over the matrix it reads: one error line, exit 2, and every file
    as it was."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.csv").write_text("pos/s1,a,1.0\nneg/s2,b,1.0\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert main(args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --output ")
    assert expected in err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("args, refused", [
    (["generate", "--samples-per-class", "2", "--output", "d.jsonl", "--ground-truth",
      "missing/r.jsonl"], "missing/r.jsonl: no directory missing"),
    (["generate", "--samples-per-class", "2", "--output", ""], ".: it is a directory"),
    (["run", "--dataset", "{tiny}", "--output", "r.json"], "r.md: it is a directory"),
], ids=["generate-rules-in-missing-dir", "generate-no-name", "run-markdown-is-a-directory"])
def test_an_unwritable_output_leaves_no_other_behind(args, refused, tiny_dataset, tmp_path,
                                                    monkeypatch, capsys):
    """Every output path is checked before the first is written, so a
    command whose second output cannot be written exits 2 without writing
    its first."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.md").mkdir()
    before = sorted(path.name for path in tmp_path.iterdir())
    assert main([arg.format(tiny=tiny_dataset) for arg in args]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: cannot write {refused}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == before


@pytest.mark.parametrize("args", [
    ["convert", "--matrix", "m.csv", "--output", "t2/"],
    ["generate", "--samples-per-class", "2", "--output", "t3/"],
    ["generate", "--samples-per-class", "2", "--output", "d.jsonl", "--ground-truth", "t4/"],
    ["run", "--dataset", "{tiny}", "--output", "sub/"],
], ids=["convert", "generate", "generate-rules", "run"])
def test_an_output_ending_in_a_separator_is_refused(args, tiny_dataset, tmp_path,
                                                   monkeypatch, capsys):
    """An output path with a trailing separator names a directory; it is
    refused with one error line, where it used to be written as a file of
    that name without the separator."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.csv").write_text("pos/s1,a,1.0\nneg/s2,b,1.0\n")
    before = sorted(path.name for path in tmp_path.iterdir())
    assert main([arg.format(tiny=tiny_dataset) for arg in args]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == (f"error: cannot write {args[-1]}: a path that ends in a separator "
                   "names a directory\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == before


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
    (["convert", "--matrix", "{nan_value}"], "line 1: value 'nan' is not a finite number"),
    (["convert", "--matrix", "{inf_value}"], "line 1: value 'inf' is not a finite number"),
    (["convert", "--matrix", "{matrix}", "--threshold", "nan"],
     "error: threshold must be a finite number, got nan"),
    (["convert", "--matrix", "{matrix}", "--threshold", "inf"],
     "error: threshold must be a finite number, got inf"),
], ids=["run-missing", "run-directory", "run-not-utf8", "validate-missing",
        "validate-directory", "validate-not-utf8", "ground-truth-missing",
        "ground-truth-not-utf8", "ground-truth-numeric-attribute",
        "ground-truth-repeated-label", "ground-truth-unknown-label", "convert-not-utf8",
        "convert-nan-value", "convert-inf-value", "convert-nan-threshold",
        "convert-inf-threshold"])
def test_bad_input_files_exit_2(tiny_dataset, tmp_path, capsys, args, expected):
    paths = {"missing": tmp_path / "missing.jsonl", "directory": tmp_path / "dir",
             "not_utf8": tmp_path / "latin1.jsonl", "tiny": tiny_dataset,
             "numeric_rule": tmp_path / "rules.jsonl",
             "repeated_label": tmp_path / "repeated.jsonl",
             "unknown_label": tmp_path / "typo.jsonl", "matrix": tmp_path / "matrix.csv",
             "nan_value": tmp_path / "nan.csv", "inf_value": tmp_path / "inf.csv"}
    paths["directory"].mkdir()
    paths["not_utf8"].write_bytes('{"id": "s\u00e9"}\n'.encode("latin-1"))
    paths["numeric_rule"].write_text('{"label": "classA", "rule": [[1, 2]]}\n')
    paths["repeated_label"].write_text('{"label": "classA", "rule": [["X"]]}\n'
                                       '{"label": "classA", "rule": [["Y"]]}\n')
    paths["unknown_label"].write_text('{"label": "classA", "rule": [["A"]]}\n'
                                      '{"label": "clas1", "rule": [["E"]]}\n')
    for name, value in (("matrix", "1.0"), ("nan_value", "nan"), ("inf_value", "inf")):
        paths[name].write_text(f"pos/s1,a,{value}\n")
    argv = [arg.format(**paths) for arg in args]
    if argv[0] != "validate":
        argv += ["--output", str(tmp_path / "out.json")]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert expected in captured.out + captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out.json").exists()


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


def test_convert_threshold_applies_to_any_finite_value(tmp_path):
    """Values are not certainties in [0, 1]: each is compared with the
    threshold as given, so 4 is kept at --threshold 3 and -1 is dropped."""
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("pos/s1,a,4\npos/s1,b,-1\nneg/s2,c,5.0\n")
    data = tmp_path / "converted.jsonl"
    assert main(["convert", "--matrix", str(matrix), "--threshold", "3",
                 "--output", str(data)]) == EXIT_OK
    records = [json.loads(line) for line in data.read_text().splitlines()]
    assert [(r["id"], r["asd"]) for r in records] == [("pos/s1", [["a"]]),
                                                     ("neg/s2", [["c"]])]


def test_convert_bad_matrix(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("s1,a,1.0\n")  # no label anywhere
    data = tmp_path / "converted.jsonl"
    rc = main(["convert", "--matrix", str(matrix), "--output", str(data)])
    assert rc == EXIT_VALIDATION
    assert "no label" in capsys.readouterr().err


def test_convert_refuses_an_empty_label(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("pos/s1,a,1.0\n/s2,b,1.0\n")
    data = tmp_path / "converted.jsonl"
    rc = main(["convert", "--matrix", str(matrix), "--output", str(data)])
    assert rc == EXIT_VALIDATION
    assert "sample '/s2': empty label" in capsys.readouterr().err
    assert not data.exists()


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


SELFTEST_BATTERIES = ["merge-generalizes", "merge-most-specific", "merge-canonical",
                      "similarity-props", "edit-distance-oracle", "greedy-coverage-bound",
                      "mining-scalar-traces", "ranker-batches"]


def test_selftest_command(capsys):
    assert main(["selftest", "--budget", "25"]) == EXIT_OK
    assert capsys.readouterr().out == "".join(f"PASS {name} (25 cases, 0 failures)\n"
                                              for name in SELFTEST_BATTERIES)


@pytest.mark.parametrize("battery", ["merge-canonical", "edit-distance-oracle",
                                     "greedy-coverage-bound", "mining-scalar-traces",
                                     "ranker-batches"])
def test_selftest_fails_the_battery_of_a_broken_operation(battery, monkeypatch, capsys):
    """One broken operation fails its own battery alone, and selftest exits
    3: a merge not marked as its own trim, an edit distance one insertion
    too high when unmatched entities cost nothing, a greedy_cover that
    picks nothing, first choices that break score ties toward the highest
    position, and a ranker memo whose padding row lies inside nothing."""
    import dataclasses

    import numpy as np
    import semproto.prototypes
    import semproto.ranker
    import semproto.selftest
    from semproto import ASD, merge

    def firsts_to_the_highest(scores, flags):
        masked = np.where(flags, scores, -1.0)[:, ::-1]
        return masked.shape[1] - 1 - masked.argmax(axis=1)

    class PaddingInsideNothing(semproto.ranker.SimilarityRanker):
        def _clear(self):
            super()._clear()
            self._inside[0] = False

    def one_too_many_when_zero(rule, sample, unmatched_cost):
        solved = semproto.prototypes.edit_distance(rule, sample, unmatched_cost)
        return dataclasses.replace(solved, total=solved.total + (unmatched_cost == "zero"))

    module, attribute, broken = {
        "merge-canonical": (semproto.selftest, "merge", lambda a, b: ASD(merge(a, b).entities)),
        "edit-distance-oracle": (semproto.selftest, "edit_distance", one_too_many_when_zero),
        "greedy-coverage-bound": (semproto.selftest, "greedy_cover",
                                  lambda coverages, k=None: []),
        "mining-scalar-traces": (semproto.ranker, "_firsts", firsts_to_the_highest),
        "ranker-batches": (semproto.selftest, "SimilarityRanker", PaddingInsideNothing),
    }[battery]
    monkeypatch.setattr(module, attribute, broken)
    assert main(["selftest", "--budget", "5"]) == EXIT_INTERNAL
    lines = capsys.readouterr().out.splitlines()
    failed = SELFTEST_BATTERIES.index(battery)
    assert re.fullmatch(rf"FAIL {battery} \(5 cases, [1-5] failures\)", lines[failed])
    assert lines[:failed] + lines[failed + 1:] == [
        f"PASS {name} (5 cases, 0 failures)" for name in SELFTEST_BATTERIES if name != battery]


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_selftest_refuses_a_budget_below_one(budget, capsys):
    """A battery of no case passes without checking anything: a budget below
    one is a usage error, not eight PASS lines."""
    assert main(["selftest", "--budget", budget]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: selftest budget must be >= 1 case per battery, "
                            f"got {budget}\n")


def test_usage_errors(capsys):
    assert main(["bogus-command"]) == EXIT_VALIDATION
    assert main(["run"]) == EXIT_VALIDATION  # missing required flags
    capsys.readouterr()


def test_version_flag(capsys):
    """The version is ``semproto.__version__``, from a checkout as from an
    install."""
    import semproto
    assert main(["--version"]) == EXIT_OK
    assert capsys.readouterr().out == f"semproto {semproto.__version__}\n"


@pytest.mark.parametrize("content", [
    "\ufeff".encode() + TINY_DATASET.encode(),  # a BOM the loader skips
    TINY_DATASET.encode(),
    "".join(f'{{"id": "s{i}", "label": "c", "asd": [["{"x" * 4096}"]]}}\n'
            for i in range(300)).encode(),  # 300 lines of over 4 KiB
], ids=["bom-dataset", "plain-dataset", "over-1-mib"])
def test_dataset_digest_is_sha256_of_the_raw_bytes(tmp_path, content):
    from semproto.data import load_dataset
    path = tmp_path / "d.jsonl"
    path.write_bytes(content)
    assert load_dataset(path).sha256 == hashlib.sha256(content).hexdigest()


def test_only_a_loaded_dataset_carries_a_digest(tmp_path):
    """A dataset not read from a dataset file has no sha256, and schema 1
    needs one: build_report refuses it rather than invent a path or digest."""
    from semproto import (GeneratorConfig, convert_attribute_matrix, generate_clevr_hans3,
                          run_pipeline, scan_dataset)
    from semproto.report import build_report

    matrix = tmp_path / "matrix.csv"
    matrix.write_text("pos/s1,a,1.0\nneg/s2,b,1.0\n")
    datasets = [
        scan_dataset(TINY_DATASET.split("\n"), source="tiny.jsonl")[0],
        convert_attribute_matrix(matrix),
        generate_clevr_hans3(GeneratorConfig(samples_per_class=2, objects_max=3))[0],
    ]
    for dataset in datasets:
        assert dataset.sha256 is None
        with pytest.raises(ValueError, match="load_dataset"):
            build_report(run_pipeline(dataset), dataset, version="0.0.0", seed=0)


def test_report_digest_names_the_bytes_that_were_mined(tmp_path, monkeypatch):
    """The digest is taken from the one read the samples were parsed from: a
    line appended to the file while the run mines changes neither the
    report's samples nor its datasetSha256, and the file is opened once."""
    import pathlib

    from semproto import cli

    data = tmp_path / "tiny.jsonl"
    data.write_text(TINY_DATASET)
    mined = data.read_bytes()
    mine = cli.run_pipeline

    def mine_then_append(dataset, **kwargs):
        with open(data, "a") as handle:
            handle.write('{"id": "b2", "label": "classB", "asd": [["F"]]}\n')
        return mine(dataset, **kwargs)

    opens = []
    path_open = pathlib.Path.open

    def counting_open(self, *args, **kwargs):
        if self == data:
            opens.append(args)
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(cli, "run_pipeline", mine_then_append)
    monkeypatch.setattr(pathlib.Path, "open", counting_open)
    report, _ = run_report(tmp_path, data)
    assert len(opens) == 1
    assert [b["positives"] for b in report["classes"]] == [2, 1]
    assert report["metadata"]["datasetSha256"] == hashlib.sha256(mined).hexdigest()
    assert data.read_bytes() != mined


def test_flags_echo_the_settings_of_the_result(tmp_path, tiny_dataset):
    """A library caller cannot write flags that contradict its result: the
    echo is the settings run_pipeline ran with."""
    from semproto import load_dataset, run_pipeline
    from semproto.report import build_report

    dataset = load_dataset(tiny_dataset)
    result = run_pipeline(dataset, class_filter="classA", max_prototypes=2,
                          metric="jaccard", unmatched_cost="zero")
    report = build_report(result, dataset, version="0.0.0", seed=9)
    assert report["metadata"]["flags"] == {"classFilter": "classA", "maxPrototypes": 2,
                                           "distance": "jaccard", "unmatchedCost": "zero",
                                           "seed": 9}
    assert [b["label"] for b in report["classes"]] == ["classA"]


# Loaded by none of start-up, the miner alone, or a whole run: scipy, the
# process-pool machinery (mining runs in one process), and what only the
# report's metadata would need (OpenSSL's libcrypto behind hashlib, and
# importlib.metadata for the version).  numpy too, except where mining runs:
# run, selftest and library calls that mine load it.
UNLOADED = ("numpy", "scipy", "concurrent.futures", "multiprocessing",
            "hashlib", "_hashlib", "importlib.metadata")


def _loaded_after(code, **env):
    """The modules of ``UNLOADED`` in ``sys.modules`` after a fresh
    interpreter runs ``code``.  ``OPENBLAS_NUM_THREADS`` is unset there
    unless ``env`` sets it."""
    # A package's submodules are never loaded without the package.
    code += f"\nimport sys; print([u for u in {UNLOADED!r} if u in sys.modules])"
    return run_fresh(code, **env).splitlines()[-1]


@pytest.mark.parametrize("module", ["semproto", "semproto.cli", "semproto.mining"])
def test_import_leaves_unused_modules_unloaded(module):
    assert _loaded_after(f"import {module}") == "[]"


def test_commands_that_mine_nothing_load_no_numpy(tmp_path, capsys):
    data, out = tmp_path / "scenes.jsonl", tmp_path / "report.json"
    assert main(["generate", "--samples-per-class", "5", "--seed", "1",
                 "--output", str(data)]) == EXIT_OK
    assert main(["run", "--dataset", str(data), "--output", str(out)]) == EXIT_OK
    capsys.readouterr()
    sample = json.loads(out.read_text())["classes"][0]["prototypes"][0]["sampleId"]
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("pos/s1,a,1.0\nneg/s2,b,1.0\n")
    for argv in (["generate", "--samples-per-class", "5", "--output",
                  str(tmp_path / "g.jsonl")],
                 ["convert", "--matrix", str(matrix), "--output", str(tmp_path / "c.jsonl")],
                 ["validate", "--dataset", str(data)],
                 ["explain", "--report", str(out), "--sample", sample]):
        assert _loaded_after(f"import semproto.cli\n"
                             f"assert semproto.cli.main({argv!r}) == 0") == "[]", argv[0]


# run, in a fresh interpreter, with a check that numpy is loaded before the
# dataset, so that its import counts as start-up and not as mining time
RUN_IN_FRESH_INTERPRETER = """
import os, sys
import semproto.cli as cli
load = cli.load_dataset
def load_dataset(*args, **kwargs):
    assert "numpy" in sys.modules, "numpy is imported after the dataset is loaded"
    return load(*args, **kwargs)
cli.load_dataset = load_dataset
assert cli.main({argv!r}) == 0
assert os.environ["OPENBLAS_NUM_THREADS"] == {threads!r}, os.environ["OPENBLAS_NUM_THREADS"]
if {threads!r} == "1" and sys.platform == "linux":
    assert len(os.listdir("/proc/self/task")) == 1, os.listdir("/proc/self/task")
"""


def test_run_leaves_unused_modules_unloaded(tmp_path, capsys):
    """run loads numpy before the dataset, with one OpenBLAS thread unless
    the variable is set, and no module of UNLOADED besides."""
    data, out = tmp_path / "scenes.jsonl", tmp_path / "report.json"
    assert main(["generate", "--samples-per-class", "5", "--seed", "1",
                 "--output", str(data)]) == EXIT_OK
    capsys.readouterr()
    argv = ["run", "--dataset", str(data), "--output", str(out)]
    assert _loaded_after(RUN_IN_FRESH_INTERPRETER.format(argv=argv, threads="1")) \
        == "['numpy']"
    assert out.with_suffix(".md").exists()
    assert _loaded_after(RUN_IN_FRESH_INTERPRETER.format(argv=argv, threads="2"),
                         OPENBLAS_NUM_THREADS="2") == "['numpy']"


def test_library_mining_leaves_the_environment_alone():
    assert _loaded_after(
        "import os, semproto\n"
        "before = dict(os.environ)\n"
        "dataset, _ = semproto.generate_clevr_hans3(\n"
        "    semproto.GeneratorConfig(samples_per_class=5, seed=1))\n"
        "assert semproto.run_pipeline(dataset).classes\n"
        "assert dict(os.environ) == before") == "['numpy']"
