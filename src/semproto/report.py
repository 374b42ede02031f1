"""Report building and rendering.

A run produces one JSON report (machine readable, self-contained: attribute
names, not ids) plus a markdown rendering of the same content.  Reports are
deterministic for a given dataset and flags: volatile values such as wall
clock time never enter the report body, so identical runs are byte-identical.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .data import Dataset
from .errors import ConfigError, SemprotoError
from .pipeline import ClassResult, PipelineResult
from .prototypes import PrototypeRecord

SCHEMA_VERSION = 1
TOOL_NAME = "semproto"

# The definition of report schema 1: every field, in the order build_report
# writes it.  A field's type is one of the scalar kinds of _KINDS (a trailing
# "?" also allows null), a one-item list [T] for a list of T, or a dict for
# an object with those fields.  Readers ignore fields the table does not name.
_ENTITY = ["string"]
REPORT_FIELDS = {
    "schemaVersion": "integer",
    "metadata": {
        "tool": "string",
        "version": "string",
        "dataset": "string",
        "datasetSha256": "string",
        "flags": {
            "classFilter": "string?",
            "maxPrototypes": "integer?",
            "distance": "string",
            "unmatchedCost": "string",
            "seed": "integer",
        },
    },
    "warnings": ["string"],
    "classes": [{
        "label": "string",
        "positives": "integer",
        "minedCandidates": "integer",
        "ccds": [{
            "asd": [_ENTITY],
            "ruleText": "string",
            "coverageCount": "integer",
            "coverageFraction": "number",
            "newlyCovered": "integer",
            "cumulativeCovered": "integer",
        }],
        "uncovered": ["string"],
        "ruleRecovered": "boolean?",
        "prototypes": [{
            "sampleId": "string",
            "ccdIndex": "integer",
            "metric": "string",
            "distance": "number",
            "feasibleInjective": "boolean",
            "editTotal": "integer",
            "matched": [{
                "ruleEntity": _ENTITY,
                "sampleEntityIndex": "integer",
                "insertions": "integer",
                "sampleEntity": _ENTITY,
                "extraAttributes": _ENTITY,
            }],
            "unmatchedEntities": [{
                "sampleEntityIndex": "integer",
                "cost": "integer",
                "entity": _ENTITY,
            }],
            "runnersUp": [{
                "sampleId": "string",
                "distance": "number",
            }],
            "sampleAsd": [_ENTITY],
        }],
    }],
}

# JSON booleans load as Python bools, which are ints: a bool is never an
# integer or a number here.
_KINDS = {
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}


# ----------------------------------------------------------------------------
# building
# ----------------------------------------------------------------------------

def build_report(result: PipelineResult, dataset: Dataset, *, version: str,
                 seed: int) -> dict:
    """Assemble the JSON-ready report for a finished pipeline run.

    The dataset's path and sha256 come from a ``load_dataset`` result
    (``ValueError`` for another dataset), the flags from ``result`` and ``seed``.
    Runtime knobs (parallelism) and wall clock stay out, so identical inputs
    give byte-identical reports.
    """
    if dataset.source is None or dataset.sha256 is None:
        raise ValueError("build_report needs a dataset read by load_dataset: "
                         "the report names its file and that file's sha256")
    classes = [_class_block(c, dataset) for c in result.classes]
    return {
        "schemaVersion": SCHEMA_VERSION,
        "metadata": {
            "tool": TOOL_NAME,
            "version": version,
            "dataset": dataset.source,
            "datasetSha256": dataset.sha256,
            "flags": {
                "classFilter": result.class_filter,
                "maxPrototypes": result.max_prototypes,
                "distance": result.metric,
                "unmatchedCost": result.unmatched_cost,
                "seed": seed,
            },
        },
        "warnings": list(result.warnings),
        "classes": classes,
    }


def _class_block(c: ClassResult, dataset: Dataset) -> dict:
    vocab = dataset.vocabulary
    ccds = []
    rule_names = []  # per selected rule, as its prototype's block shows it too
    for step in c.selection:
        names = step.ccd.asd.to_name_lists(vocab)
        rule_names.append(names)
        ccds.append({
            "asd": names,
            "ruleText": rule_text(names, c.label),
            "coverageCount": len(step.ccd.coverage),
            "coverageFraction": len(step.ccd.coverage) / c.positive_count,
            "newlyCovered": step.newly_covered,
            "cumulativeCovered": step.cumulative_covered,
        })
    return {
        "label": c.label,
        "positives": c.positive_count,
        "minedCandidates": len(c.candidates),
        "ccds": ccds,
        "uncovered": list(c.uncovered),
        "ruleRecovered": c.rule_recovered,
        "prototypes": [_prototype_block(p, i, rule_names[i], dataset)
                       for i, p in enumerate(c.prototypes)],
    }


def _prototype_block(p: PrototypeRecord, ccd_index: int, rule_names: list[list[str]],
                     dataset: Dataset) -> dict:
    # The sample's own description goes in too, so the report stands alone.
    names = dataset.by_id[p.sample_id].asd.to_name_lists(dataset.vocabulary)
    return {
        "sampleId": p.sample_id,
        "ccdIndex": ccd_index,
        "metric": p.metric,
        "distance": p.distance,
        "feasibleInjective": p.breakdown.feasible_injective,
        "editTotal": p.breakdown.total,
        "matched": [
            {"ruleEntity": rule_names[i], "sampleEntityIndex": j, "insertions": w,
             "sampleEntity": names[j],
             "extraAttributes": sorted(set(names[j]) - set(rule_names[i]),
                                       key=names[j].index)}
            for i, j, w in p.breakdown.matched_pairs
        ],
        "unmatchedEntities": [
            {"sampleEntityIndex": j, "cost": cost, "entity": names[j]}
            for j, cost in p.breakdown.unmatched_sample_entities
        ],
        "runnersUp": [{"sampleId": sid, "distance": d} for sid, d in p.runners_up],
        "sampleAsd": names,
    }


def serialize_report(report: dict, handle: TextIO) -> None:
    """Write ``report`` onto an open text handle as indented JSON and a final
    newline, chunk by chunk as the encoder yields them, so the text is never
    held whole."""
    json.dump(report, handle, indent=2, ensure_ascii=False)
    handle.write("\n")


# ----------------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------------

def _json_type(value) -> str:
    if value is None:
        return "null"
    for kind, is_kind in _KINDS.items():
        if is_kind(value):
            return kind
    return "list" if isinstance(value, list) else "object"


def _check(value, spec, path: str, problems: list[str]) -> None:
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            problems.append(f"{path}: expected object, got {_json_type(value)}")
            return
        for name, field in spec.items():
            if name in value:
                _check(value[name], field, f"{path}.{name}", problems)
            else:
                problems.append(f"{path}.{name}: missing")
    elif isinstance(spec, list):
        if not isinstance(value, list):
            problems.append(f"{path}: expected list, got {_json_type(value)}")
            return
        for i, item in enumerate(value):
            _check(item, spec[0], f"{path}[{i}]", problems)
    else:
        kind = spec.rstrip("?")
        if not (_KINDS[kind](value) or (value is None and spec.endswith("?"))):
            expected = f"{kind} or null" if spec.endswith("?") else kind
            problems.append(f"{path}: expected {expected}, got {_json_type(value)}")


def check_report(report) -> list[str]:
    """Every departure of a parsed report from schema 1, as ``JSON path:
    problem`` lines; empty when the report conforms.

    Besides the field types of REPORT_FIELDS, each prototype's ``ccdIndex``
    must index its class's ``ccds``, the one index the renderers follow.
    That range check runs once every type is right.
    """
    problems: list[str] = []
    _check(report, REPORT_FIELDS, "$", problems)
    if problems:
        return problems
    for i, block in enumerate(report["classes"]):
        rules = len(block["ccds"])
        for j, proto in enumerate(block["prototypes"]):
            if not 0 <= proto["ccdIndex"] < rules:
                problems.append(f"$.classes[{i}].prototypes[{j}].ccdIndex: expected "
                                f"0 <= ccdIndex < {rules}, got {proto['ccdIndex']}")
    return problems


def read_report(path: str | Path) -> dict:
    """Read a JSON report and check it against schema 1.

    Raises ``SemprotoError`` with a one-line message when the file cannot be
    read or parsed, carries another ``schemaVersion``, or fails
    ``check_report`` (the first problem is named).
    """
    path = Path(path)
    try:
        # ValueError covers text that is not UTF-8 and text that is not JSON;
        # RecursionError, JSON nested too deep to parse.
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise SemprotoError(f"cannot read report {path}: {exc}") from exc
    if isinstance(report, dict) and report.get("schemaVersion") != SCHEMA_VERSION:
        raise SemprotoError(f"unsupported report schema {report.get('schemaVersion')!r}")
    problems = check_report(report)
    if problems:
        more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
        raise SemprotoError(f"malformed report {path}: {problems[0]}{more}")
    return report


# ----------------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------------

def _entity_text(names: Iterable[str]) -> str:
    return "{" + ", ".join(names) + "}"


def rule_text(asd_names: list[list[str]], label: str) -> str:
    body = " and ".join("an entity with " + _entity_text(e) for e in asd_names)
    return f"IF a data point has {body} THEN it belongs to class {label!r}."


def render_markdown(report: dict, handle: TextIO) -> None:
    """Write the markdown rendering of ``report`` onto an open text handle,
    one class block at a time.  The text ends in a single newline: trailing
    whitespace is held back until more text follows it, and dropped at the
    end."""
    pending = ""
    for chunk in _markdown_blocks(report):
        body = chunk.rstrip()
        if body:
            handle.write(pending + body)
            pending = chunk[len(body):]
        else:
            pending += chunk
    handle.write("\n")


def _markdown_blocks(report: dict) -> Iterator[str]:
    """The markdown text in pieces, each ending in a newline: the header with
    the warnings, then one piece per class."""
    meta = report["metadata"]
    lines = ["# Class description report", ""]
    lines.append(f"- dataset: `{meta['dataset']}` (sha256 `{meta['datasetSha256'][:16]}...`)")
    flags = meta["flags"]
    lines.append(f"- distance: {flags['distance']} "
                 f"(unmatched cost: {flags['unmatchedCost']})")
    if flags["maxPrototypes"] is not None:
        lines.append(f"- rules per class: at most {flags['maxPrototypes']}")
    lines.append("")
    for warning in report["warnings"]:
        lines.append(f"> warning: {warning}")
        lines.append("")
    yield "\n".join(lines) + "\n"
    for block in report["classes"]:
        lines = [f"## {block['label']} ({block['positives']} samples)", ""]
        if block["ruleRecovered"] is not None:
            verdict = "matches" if block["ruleRecovered"] else "does NOT match"
            lines.append(f"- top rule {verdict} the ground-truth rule")
            lines.append("")
        if not block["ccds"]:
            lines.append("_No rules selected._")
            lines.append("")
        protos = {p["ccdIndex"]: p for p in reversed(block["prototypes"])}  # first wins
        for i, ccd in enumerate(block["ccds"]):
            lines.append(f"### Rule {i + 1}: {ccd['ruleText']}")
            lines.append(f"- coverage: {ccd['coverageCount']}/{block['positives']} "
                         f"samples ({100.0 * ccd['coverageFraction']:.1f}%), "
                         f"{ccd['newlyCovered']} newly covered")
            proto = protos.get(i)
            if proto is not None:
                lines.append(f"- prototype: `{proto['sampleId']}` "
                             f"({proto['metric']} distance {proto['distance']})")
                lines.extend(_breakdown_lines(proto, indent="  "))
            lines.append("")
        if block["uncovered"]:
            lines.append(f"_Uncovered positives: {', '.join(block['uncovered'][:10])}"
                         f"{', ...' if len(block['uncovered']) > 10 else ''}_")
            lines.append("")
        yield "\n".join(lines) + "\n"


def _breakdown_lines(proto: dict, indent: str = "") -> list[str]:
    lines = []
    if not proto["feasibleInjective"]:
        lines.append(f"{indent}- witnesses had to be shared "
                     "(no one-to-one match exists)")
    for pair in proto["matched"]:
        extra = pair["extraAttributes"]
        extra_text = (f" (+{pair['insertions']}: {', '.join(extra)})"
                      if extra else " (exact)")
        lines.append(f"{indent}- rule entity {_entity_text(pair['ruleEntity'])} "
                     f"matches {_entity_text(pair['sampleEntity'])}{extra_text}")
    for un in proto["unmatchedEntities"]:
        lines.append(f"{indent}- extra entity {_entity_text(un['entity'])} "
                     f"(cost {un['cost']})")
    if proto["editTotal"] == 0:
        lines.append(f"{indent}- the sample carries no redundant attributes")
    return lines


def render_explanation(report: dict, sample_id: str) -> str:
    """Full plain-text explanation for one prototype sample: one per rule it
    is the prototype of, in report order, separated by a blank line.

    ``report`` must pass ``check_report``; a ``sample_id`` that is not one of
    its prototypes raises ``ConfigError``.
    """
    texts = [_explanation_text(report, block, proto)
             for block in report["classes"] for proto in block["prototypes"]
             if proto["sampleId"] == sample_id]
    if not texts:
        raise ConfigError(f"sample {sample_id!r} is not a prototype in this report")
    return "\n".join(texts)


def _explanation_text(report: dict, block: dict, proto: dict) -> str:
    ccd = block["ccds"][proto["ccdIndex"]]
    lines = [
        f"Prototype {proto['sampleId']} for class {block['label']!r} "
        f"(rule {proto['ccdIndex'] + 1} of {len(block['ccds'])})",
        "",
        f"Rule: {ccd['ruleText']}",
        f"Coverage: {ccd['coverageCount']} of {block['positives']} "
        f"{block['label']!r} samples ({100.0 * ccd['coverageFraction']:.1f}%).",
        "",
        "Sample description:",
    ]
    for names in proto["sampleAsd"]:
        lines.append(f"  {_entity_text(names)}")
    lines.append("")
    lines.append(f"Why this sample ({proto['metric']} distance {proto['distance']}):")
    lines.extend(_breakdown_lines(proto, indent="  "))
    if proto["runnersUp"]:
        lines.append("")
        lines.append("Runners up: " + ", ".join(
            f"{r['sampleId']} ({r['distance']})" for r in proto["runnersUp"]))
    return "\n".join(lines) + "\n"
