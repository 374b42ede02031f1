"""Seeded input generators for the benchmark (standard library only).

Both generators are written apart from the program, so a change to
``semproto generate`` or to the package's generator cannot change what the
benchmark measures.

* ``scenes``: three-class scenes shaped like CLEVR-Hans3 (Stammer et al.,
  CVPR 2021).  Each scene holds 3 to 10 objects with a size, material, shape
  and colour; two objects are forced to satisfy the class rule, and a scene
  is drawn again while another class's rule describes it.
* ``wide``: an attribute matrix shaped like the CUB-200-2011 attribute
  setting (Wah et al., 2011): many classes, 300 ``part::attr`` attributes in
  15 parts, about 30 attributes per sample, and certainty values.  Each class
  has signature attributes that its samples carry with high probability;
  every sample also carries random noise attributes and rows below the
  certainty threshold.  Samples are drawn again while one would describe (be
  a subset of) a sample of another class, or be described by one.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

SCENE_RULES = (
    ("class1", (("Large", "Cube"), ("Large", "Cylinder"))),
    ("class2", (("Small", "Metal", "Cube"), ("Small", "Sphere"))),
    ("class3", (("Large", "Blue", "Sphere"), ("Small", "Yellow", "Sphere"))),
)
SCENE_AXES = (
    ("Small", "Large"),
    ("Metal", "Rubber"),
    ("Cube", "Sphere", "Cylinder"),
    ("Gray", "Red", "Blue", "Green", "Brown", "Purple", "Cyan", "Yellow"),
)

PARTS = ("back", "beak", "belly", "breast", "crown", "forehead", "left_eye",
         "left_leg", "left_wing", "nape", "right_eye", "right_leg",
         "right_wing", "tail", "throat")
PART_VALUES = ("color_blue", "color_brown", "color_iridescent", "color_purple",
               "color_rufous", "color_grey", "color_yellow", "color_olive",
               "color_green", "color_pink", "color_orange", "color_black",
               "pattern_solid", "pattern_spotted", "pattern_striped",
               "pattern_multi", "shape_curved", "shape_dagger", "shape_hooked",
               "shape_cone")
WIDE_ATTRIBUTES = tuple(f"{part}::{value}" for part in PARTS for value in PART_VALUES)
THRESHOLD = 0.5
SIGNATURE_SIZE = 6   # signature attributes per class
KEEP = 0.85          # chance that a sample carries one of its signature attributes
NOISE = 26           # random attributes per sample
BELOW = 10           # rows per sample below the certainty threshold


def _subsumes(general: list[frozenset], specific: list[frozenset]) -> bool:
    return all(any(g <= s for s in specific) for g in general)


def scenes(per_class: int, seed: int) -> tuple[list[dict], dict[str, list[list[str]]]]:
    """Scene records (id, label, asd) and the generating rule of each class."""
    rng = random.Random(seed)
    rules = {label: [frozenset(e) for e in entities] for label, entities in SCENE_RULES}
    records = []
    for label, entities in SCENE_RULES:
        others = [rules[o] for o, _ in SCENE_RULES if o != label]
        for i in range(per_class):
            while True:
                objects = [[rng.choice(axis) for axis in SCENE_AXES]
                           for _ in range(rng.randint(3, 10))]
                for slot, entity in enumerate(entities):
                    for attr in entity:
                        axis = next(a for a, values in enumerate(SCENE_AXES)
                                    if attr in values)
                        objects[slot][axis] = attr
                asd = [frozenset(o) for o in objects]
                if not any(_subsumes(rule, asd) for rule in others):
                    break
            records.append({"id": f"{label}-{i:04d}", "label": label,
                            "asd": objects})
    return records, {label: [list(e) for e in entities] for label, entities in SCENE_RULES}


def wide(classes: int, per_class: int, seed: int,
         ) -> tuple[list[tuple[str, str, float, str]], dict[str, list[str]]]:
    """Matrix rows (sample_id, attribute, certainty, label) and class signatures."""
    rng = random.Random(seed)
    signatures: dict[str, frozenset] = {}
    while len(signatures) < classes:
        sig = frozenset(rng.sample(WIDE_ATTRIBUTES, SIGNATURE_SIZE))
        if all(not (sig <= s or s <= sig) for s in signatures.values()):
            signatures[f"bird{len(signatures):03d}"] = sig
    rows: list[tuple[str, str, float, str]] = []
    kept: list[tuple[str, frozenset]] = []
    for label, sig in signatures.items():
        for i in range(per_class):
            while True:
                # sorted: set order of strings changes with the hash seed
                present = {a for a in sorted(sig) if rng.random() < KEEP}
                if not present:
                    continue
                present |= set(rng.sample(WIDE_ATTRIBUTES, NOISE))
                attrs = frozenset(present)
                # With part-prefix grouping one sample describes another
                # exactly when its attribute set is a subset of the other's.
                if all(other == label or not (attrs <= a or a <= attrs)
                       for other, a in kept):
                    break
            kept.append((label, attrs))
            absent = [a for a in WIDE_ATTRIBUTES if a not in attrs]
            sample_id = f"{label}-{i:03d}"
            sample_rows = [(sample_id, a, round(rng.uniform(THRESHOLD, 1.0), 3), label)
                           for a in sorted(attrs)]
            sample_rows += [(sample_id, a, round(rng.uniform(0.0, THRESHOLD - 0.001), 3),
                             label) for a in rng.sample(absent, BELOW)]
            rng.shuffle(sample_rows)
            rows.extend(sample_rows)
    return rows, {label: sorted(sig) for label, sig in signatures.items()}


def write_scenes(directory: Path, per_class: int, seed: int) -> tuple[Path, Path]:
    records, rules = scenes(per_class, seed)
    dataset = directory / "scenes.jsonl"
    with dataset.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    truth = directory / "scenes.rules.jsonl"
    with truth.open("w", encoding="utf-8") as handle:
        for label, rule in rules.items():
            handle.write(json.dumps({"label": label, "rule": rule}) + "\n")
    return dataset, truth


def write_wide(directory: Path, classes: int, per_class: int, seed: int) -> tuple[Path, Path]:
    rows, signatures = wide(classes, per_class, seed)
    matrix = directory / "wide.csv"
    with matrix.open("w", encoding="utf-8") as handle:
        handle.write("sample_id,attribute,certainty,label\n")
        for sample_id, attr, value, label in rows:
            handle.write(f"{sample_id},{attr},{value},{label}\n")
    sig_path = directory / "wide.signatures.json"
    sig_path.write_text(json.dumps(signatures, indent=1) + "\n", encoding="utf-8")
    return matrix, sig_path
