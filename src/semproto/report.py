"""Report building and rendering.

A run produces one JSON report (machine readable, self-contained: attribute
names, not ids) plus a markdown rendering of the same content.  Reports are
deterministic for a given dataset and flags: volatile values such as wall
clock time never enter the report body, so identical runs are byte-identical.
"""
from __future__ import annotations

import json
from typing import Iterable

from .data import Dataset
from .pipeline import ClassResult, PipelineResult
from .prototypes import PrototypeRecord

SCHEMA_VERSION = 1
TOOL_NAME = "semproto"


# ----------------------------------------------------------------------------
# building
# ----------------------------------------------------------------------------

def build_report(result: PipelineResult, dataset: Dataset, *,
                 dataset_path: str, dataset_sha256: str, version: str,
                 flags: dict) -> dict:
    """Assemble the JSON-ready report for a finished pipeline run."""
    classes = [_class_block(c, dataset) for c in result.classes]
    return {
        "schemaVersion": SCHEMA_VERSION,
        "metadata": {
            "tool": TOOL_NAME,
            "version": version,
            "dataset": dataset_path,
            "datasetSha256": dataset_sha256,
            "flags": flags,
        },
        "warnings": list(result.warnings),
        "classes": classes,
    }


def _class_block(c: ClassResult, dataset: Dataset) -> dict:
    vocab = dataset.vocabulary
    ccds = []
    for step in c.selection:
        names = step.ccd.asd.to_name_lists(vocab)
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
        "prototypes": [_prototype_block(p, i, dataset)
                       for i, p in enumerate(c.prototypes)],
    }


def _prototype_block(p: PrototypeRecord, ccd_index: int, dataset: Dataset) -> dict:
    vocab = dataset.vocabulary
    rule_names = p.ccd.asd.to_name_lists(vocab)
    # The sample's own description goes in too, so the report stands alone.
    names = dataset.by_id[p.sample_id].asd.to_name_lists(vocab)
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


def serialize_report(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"


# ----------------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------------

def _entity_text(names: Iterable[str]) -> str:
    return "{" + ", ".join(names) + "}"


def rule_text(asd_names: list[list[str]], label: str) -> str:
    body = " and ".join("an entity with " + _entity_text(e) for e in asd_names)
    return f"IF a data point has {body} THEN it belongs to class {label!r}."


def render_markdown(report: dict) -> str:
    meta = report["metadata"]
    lines = ["# Class description report", ""]
    lines.append(f"- dataset: `{meta['dataset']}` (sha256 `{meta['datasetSha256'][:16]}...`)")
    flags = meta["flags"]
    lines.append(f"- distance: {flags.get('distance')} "
                 f"(unmatched cost: {flags.get('unmatchedCost')})")
    if flags.get("maxPrototypes") is not None:
        lines.append(f"- rules per class: at most {flags['maxPrototypes']}")
    lines.append("")
    for warning in report["warnings"]:
        lines.append(f"> warning: {warning}")
        lines.append("")
    for block in report["classes"]:
        lines.append(f"## {block['label']} ({block['positives']} samples)")
        lines.append("")
        if block["ruleRecovered"] is not None:
            verdict = "matches" if block["ruleRecovered"] else "does NOT match"
            lines.append(f"- top rule {verdict} the ground-truth rule")
            lines.append("")
        if not block["ccds"]:
            lines.append("_No rules selected._")
            lines.append("")
        for i, ccd in enumerate(block["ccds"]):
            lines.append(f"### Rule {i + 1}: {ccd['ruleText']}")
            lines.append(f"- coverage: {ccd['coverageCount']}/{block['positives']} "
                         f"samples ({100.0 * ccd['coverageFraction']:.1f}%), "
                         f"{ccd['newlyCovered']} newly covered")
            proto = next((p for p in block["prototypes"] if p["ccdIndex"] == i), None)
            if proto is not None:
                lines.append(f"- prototype: `{proto['sampleId']}` "
                             f"({proto['metric']} distance {proto['distance']})")
                lines.extend(_breakdown_lines(proto, indent="  "))
            lines.append("")
        if block["uncovered"]:
            lines.append(f"_Uncovered positives: {', '.join(block['uncovered'][:10])}"
                         f"{', ...' if len(block['uncovered']) > 10 else ''}_")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


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
    """Full plain-text explanation for one prototype sample."""
    for block in report["classes"]:
        for proto in block["prototypes"]:
            if proto["sampleId"] == sample_id:
                return _explanation_text(report, block, proto)
    raise ValueError(f"sample {sample_id!r} is not a prototype in this report")


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
