"""Checks a ``semproto run`` report against computations made apart from it.

Reads the dataset file and the report JSON as plain sets of attribute names
and never imports ``semproto``.  Every check is a property the method must
have; ``check_report`` returns one message per violation (empty when sound).
"""
from __future__ import annotations

import itertools
import json
from pathlib import Path

Description = list[frozenset]


def read_dataset(path: Path) -> dict[str, tuple[str, Description]]:
    """Sample id -> (label, description as a list of attribute-name sets)."""
    samples = {}
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                # a description is a set: repeated entities count once
                asd = list(dict.fromkeys(frozenset(e) for e in record["asd"]))
                samples[record["id"]] = (record["label"], asd)
    return samples


def read_rules(path: Path) -> dict[str, Description]:
    rules = {}
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                rules[record["label"]] = [frozenset(e) for e in record["rule"]]
    return rules


def describes(rule: Description, sample: Description) -> bool:
    """Every rule entity is a subset of some sample entity."""
    return all(any(r <= s for s in sample) for r in rule)


def _injective_witness(rule: Description, sample: Description) -> bool:
    """A matching gives every rule entity its own superset sample entity."""
    owner: dict[int, int] = {}

    def claim(i: int, seen: set) -> bool:
        for j, s in enumerate(sample):
            if j not in seen and rule[i] <= s:
                seen.add(j)
                if j not in owner or claim(owner[j], seen):
                    owner[j] = i
                    return True
        return False
    return all(claim(i, set()) for i in range(len(rule)))


def edit_distance(rule: Description, sample: Description, budget: int = 200_000) -> int:
    """Fewest attribute insertions from the rule to the sample ("attrs" mode).

    Each rule entity maps to a superset sample entity and pays for its extra
    attributes; sample entities no rule entity maps to cost their size.  With
    an injective witness that is (sample attributes) - (rule attributes);
    otherwise every mapping is tried.
    """
    if _injective_witness(rule, sample):
        return sum(len(s) for s in sample) - sum(len(r) for r in rule)
    options = [[j for j, s in enumerate(sample) if r <= s] for r in rule]
    size = 1
    for choice in options:
        size *= len(choice)
    if size > budget:
        raise ValueError(f"exhaustive edit distance needs {size} mappings")
    best = None
    for mapping in itertools.product(*options):
        cost = sum(len(sample[j] - r) for r, j in zip(rule, mapping))
        cost += sum(len(s) for j, s in enumerate(sample) if j not in mapping)
        best = cost if best is None else min(best, cost)
    return best


def check_report(report: dict, samples: dict[str, tuple[str, Description]], *,
                 cover_all: bool, truth: dict[str, Description] | None = None) -> list[str]:
    """Violations of the method's properties found in one report."""
    errors: list[str] = []
    by_label: dict[str, list[str]] = {}
    for sample_id, (label, _) in samples.items():
        by_label.setdefault(label, []).append(sample_id)
    if sorted(b["label"] for b in report["classes"]) != sorted(by_label):
        errors.append("report classes differ from the dataset's labels")

    for block in report["classes"]:
        label = block["label"]
        positives = by_label.get(label, [])
        where = f"class {label}"
        if block["positives"] != len(positives):
            errors.append(f"{where}: {block['positives']} positives reported, "
                          f"{len(positives)} in the dataset")
        covered: set[str] = set()
        rules = []
        previous_gain = None
        for k, ccd in enumerate(block["ccds"]):
            rule = [frozenset(e) for e in ccd["asd"]]
            rules.append(rule)
            at = f"{where} rule {k + 1}"
            for sample_id, (other, asd) in samples.items():
                if other != label and describes(rule, asd):
                    errors.append(f"{at} describes {sample_id} of class {other}")
                    break
            coverage = {s for s in positives if describes(rule, samples[s][1])}
            if ccd["coverageCount"] != len(coverage):
                errors.append(f"{at}: coverageCount {ccd['coverageCount']}, "
                              f"a fresh scan finds {len(coverage)}")
            gain = len(coverage - covered)
            covered |= coverage
            if ccd["newlyCovered"] != gain or ccd["cumulativeCovered"] != len(covered):
                errors.append(f"{at}: marginal/cumulative coverage "
                              f"{ccd['newlyCovered']}/{ccd['cumulativeCovered']}, "
                              f"expected {gain}/{len(covered)}")
            if previous_gain is not None and gain > previous_gain:
                errors.append(f"{at}: marginal coverage rose from {previous_gain} to {gain}")
            previous_gain = gain
        if cover_all and covered != set(positives):
            errors.append(f"{where}: rules leave {len(set(positives) - covered)} "
                          "positives uncovered")
        if sorted(block["uncovered"]) != sorted(set(positives) - covered):
            errors.append(f"{where}: 'uncovered' differs from a fresh scan")
        if truth is not None and label in truth:
            want = truth[label]
            recovered = bool(rules) and describes(rules[0], want) and describes(want, rules[0])
            if not recovered:
                errors.append(f"{where}: top rule is not equivalent to the generating rule")
            if block["ruleRecovered"] is not recovered:
                errors.append(f"{where}: ruleRecovered is {block['ruleRecovered']}")

        if len(block["prototypes"]) != len(rules):
            errors.append(f"{where}: {len(block['prototypes'])} prototypes "
                          f"for {len(rules)} rules")
        for proto in block["prototypes"]:
            errors.extend(_check_prototype(proto, rules, positives, samples, where))
    return errors


def _check_prototype(proto: dict, rules: list[Description], positives: list[str],
                     samples: dict, where: str) -> list[str]:
    errors = []
    rule = rules[proto["ccdIndex"]]
    at = f"{where} prototype {proto['sampleId']}"
    # entity indexes refer to the report's own (canonical) entity order
    sample = [frozenset(e) for e in proto["sampleAsd"]]
    if sorted(map(sorted, sample)) != sorted(map(sorted, samples[proto["sampleId"]][1])):
        errors.append(f"{at}: embedded description differs from the dataset")
    parts = sum(m["insertions"] for m in proto["matched"])
    parts += sum(u["cost"] for u in proto["unmatchedEntities"])
    if proto["editTotal"] != parts:
        errors.append(f"{at}: editTotal {proto['editTotal']} != insertions plus "
                      f"unmatched costs {parts}")
    for m in proto["matched"]:
        r, s = frozenset(m["ruleEntity"]), sample[m["sampleEntityIndex"]]
        if not r <= s or m["insertions"] != len(s - r):
            errors.append(f"{at}: matched pair {sorted(r)} -> {sorted(s)} is wrong")
    matched = [m["sampleEntityIndex"] for m in proto["matched"]]
    unmatched = [u["sampleEntityIndex"] for u in proto["unmatchedEntities"]]
    if (sorted(sorted(m["ruleEntity"]) for m in proto["matched"]) != sorted(map(sorted, rule))
            or set(matched) & set(unmatched)
            or set(matched) | set(unmatched) != set(range(len(sample)))):
        errors.append(f"{at}: the matching does not pair every rule entity once "
                      "and leave the other sample entities unmatched")
    for u in proto["unmatchedEntities"]:
        if u["cost"] != len(sample[u["sampleEntityIndex"]]):
            errors.append(f"{at}: unmatched entity cost {u['cost']} is wrong")
    distances = {s: edit_distance(rule, samples[s][1])
                 for s in positives if describes(rule, samples[s][1])}
    if proto["sampleId"] not in distances:
        errors.append(f"{at}: the rule does not describe its prototype")
        return errors
    best = min(distances.values())
    first = min(s for s, d in distances.items() if d == best)
    if proto["distance"] != best or proto["editTotal"] != best:
        errors.append(f"{at}: distance {proto['distance']}, minimum over the rule's "
                      f"{len(distances)} samples is {best}")
    elif proto["sampleId"] != first:
        errors.append(f"{at}: tie at distance {best} should go to {first}")
    return errors


def check_conversion(matrix: Path, threshold: float,
                     samples: dict[str, tuple[str, Description]]) -> list[str]:
    """The converted dataset keeps rows at or above the threshold, one entity per part."""
    expected: dict[str, tuple[str, dict[str, set]]] = {}
    with matrix.open(encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            sample_id, attr, value, label = line.rstrip("\n").split(",")
            parts = expected.setdefault(sample_id, (label, {}))[1]
            if float(value) >= threshold:
                parts.setdefault(attr.split("::", 1)[0], set()).add(attr)
    errors = []
    if set(expected) != set(samples):
        errors.append("converted dataset holds other sample ids than the matrix")
    for sample_id, (label, parts) in expected.items():
        got = samples.get(sample_id)
        if got is not None and (got[0] != label
                                or sorted(map(sorted, got[1])) != sorted(map(sorted, parts.values()))):
            errors.append(f"sample {sample_id} was converted wrongly")
    return errors
