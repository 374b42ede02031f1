"""Dataset model, line-delimited JSON I/O, scene generation, matrix conversion.

Datasets are files of one JSON record per line:

    {"id": "class1-0000", "label": "class1", "asd": [["Large", "Cube"], ...]}

with an optional "ref" field pointing at the raw data.  Attribute names are
case-sensitive exact strings; ids must be unique; entities must be non-empty;
identical descriptions under different labels are rejected because no sound
rule could ever separate them.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from .asd import ASD, Vocabulary, subsumes
from .errors import ConfigError, DatasetValidationError, Diagnostic, GenerationError
from .mining import Sample


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable collection of labeled samples over one vocabulary."""

    vocabulary: Vocabulary
    samples: tuple[Sample, ...]
    source: str | None = None

    @cached_property
    def label_index(self) -> dict[str, tuple[str, ...]]:
        """Label -> sample ids, both in first-appearance order."""
        index: dict[str, list[str]] = {}
        for s in self.samples:
            index.setdefault(s.label, []).append(s.id)
        return {label: tuple(ids) for label, ids in index.items()}

    @cached_property
    def by_id(self) -> dict[str, Sample]:
        return {s.id: s for s in self.samples}

    def labels(self) -> list[str]:
        return sorted(self.label_index)

    def split(self, label: str) -> tuple[list[Sample], list[Sample]]:
        """Positives with the label, negatives everything else."""
        positives = [s for s in self.samples if s.label == label]
        negatives = [s for s in self.samples if s.label != label]
        return positives, negatives

    def __len__(self) -> int:
        return len(self.samples)


# ----------------------------------------------------------------------------
# reading input files
# ----------------------------------------------------------------------------

def _read_lines(path: Path, what: str) -> list[str]:
    """The lines of a UTF-8 text file; an unreadable file is a validation error."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetValidationError([Diagnostic(f"cannot read {what}: {exc}")],
                                     source=str(path))
    # Only "\n": str.splitlines would also split JSON strings at U+2028 and
    # other separators that a JSON string may hold unescaped.
    return text.split("\n")


def _json_objects(lines: Iterable[str], diagnostics: list[Diagnostic],
                  ) -> Iterator[tuple[int, dict]]:
    """(line number, object) per non-blank line; other lines become diagnostics."""
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            diagnostics.append(Diagnostic(f"malformed JSON ({exc.msg})", line=line_no))
            continue
        if not isinstance(record, dict):
            diagnostics.append(Diagnostic("record is not a JSON object", line=line_no))
            continue
        yield line_no, record


def _entity_problem(value: object, field: str) -> str | None:
    """Why ``value`` is not a non-empty list of non-empty lists of non-blank
    strings, or None when it is one."""
    if not isinstance(value, list) or not value:
        return f"{field!r} must be a non-empty list of entities"
    for entity in value:
        if not isinstance(entity, list) or not entity:
            return f"empty entity in {field!r}"
        if not all(isinstance(attr, str) and attr.strip() for attr in entity):
            return "entity attributes must be non-empty strings"
    return None


class _SampleBuilder:
    """Makes the samples of one input over a fresh vocabulary.

    Names are interned in the order the samples are added, and attribute ids
    fix the canonical entity order, so callers add samples in file order.  A
    description identical to an earlier one under another label is refused.
    """

    def __init__(self):
        self.vocab = Vocabulary()
        self.samples: list[Sample] = []
        self._first: dict[ASD, Sample] = {}

    def add(self, sample_id: str, label: str, names: list[list[str]],
            ref: str | None = None, line: int | None = None) -> Diagnostic | None:
        sample = Sample(sample_id, label, ASD.from_names(self.vocab, names, intern=True),
                        raw_ref=ref)
        first = self._first.setdefault(sample.asd, sample)
        if first.label != label:
            return Diagnostic(
                f"identical description under different labels "
                f"(same as sample {first.id!r} with label {first.label!r}); "
                "no rule can separate them",
                line=line, sample_id=sample_id)
        self.samples.append(sample)
        return None


# ----------------------------------------------------------------------------
# loading and validation
# ----------------------------------------------------------------------------

def scan_dataset(lines: Iterable[str], source: str | None = None,
                 ) -> tuple[Dataset | None, list[Diagnostic]]:
    """Parse and validate dataset lines, collecting every problem found.

    Returns the dataset (when clean) and all diagnostics; never stops at the
    first error.  Blank lines are allowed and skipped.
    """
    builder = _SampleBuilder()
    diagnostics: list[Diagnostic] = []
    seen_ids: dict[str, int] = {}
    for line_no, record in _json_objects(lines, diagnostics):
        sample_id = record.get("id")
        label = record.get("label")
        names = record.get("asd")
        ref = record.get("ref")
        named = sample_id if isinstance(sample_id, str) and sample_id else None
        problems = []
        if named is None:
            problems.append("missing or empty 'id'")
        if not isinstance(label, str) or not label:
            problems.append("missing or empty 'label'")
        entity_problem = _entity_problem(names, "asd")
        if entity_problem:
            problems.append(entity_problem)
        if ref is not None and not isinstance(ref, str):
            problems.append("'ref' must be a string when present")
        if problems:
            diagnostics.extend(Diagnostic(p, line=line_no, sample_id=named)
                               for p in problems)
            continue
        if sample_id in seen_ids:
            diagnostics.append(Diagnostic(
                f"duplicate sample id (first seen at line {seen_ids[sample_id]})",
                line=line_no, sample_id=sample_id))
            continue
        seen_ids[sample_id] = line_no
        clash = builder.add(sample_id, label, names, ref, line=line_no)
        if clash:
            diagnostics.append(clash)

    if diagnostics:
        return None, diagnostics
    if not builder.samples:
        return None, [Diagnostic("dataset contains no samples")]
    return Dataset(builder.vocab, tuple(builder.samples), source=source), []


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate a dataset file; raises with every diagnostic on failure."""
    path = Path(path)
    dataset, diagnostics = scan_dataset(_read_lines(path, "dataset"), source=str(path))
    if diagnostics:
        raise DatasetValidationError(diagnostics, source=str(path))
    return dataset


def validate_dataset(path: str | Path) -> list[Diagnostic]:
    """All validation findings for a dataset file (empty when clean)."""
    try:
        load_dataset(path)
    except DatasetValidationError as exc:
        return exc.diagnostics
    return []


def sample_record(sample: Sample, vocab: Vocabulary) -> dict:
    record: dict = {"id": sample.id, "label": sample.label,
                    "asd": sample.asd.to_name_lists(vocab)}
    if sample.raw_ref is not None:
        record["ref"] = sample.raw_ref
    return record


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to line-delimited JSON in canonical order."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for sample in dataset.samples:
            handle.write(json.dumps(sample_record(sample, dataset.vocabulary)))
            handle.write("\n")


# ----------------------------------------------------------------------------
# synthetic scenes
# ----------------------------------------------------------------------------

CLEVR_HANS3_RULES: tuple[tuple[str, tuple[tuple[str, ...], ...]], ...] = (
    ("class1", (("Large", "Cube"), ("Large", "Cylinder"))),
    ("class2", (("Small", "Metal", "Cube"), ("Small", "Sphere"))),
    ("class3", (("Large", "Blue", "Sphere"), ("Small", "Yellow", "Sphere"))),
)

# The fixed object axes of CLEVR-Hans3: size, material, shape, colour.  Every
# object takes one value on each, drawn in this order; the vocabulary interns
# the values in this order too, which fixes the canonical entity order.
CLEVR_HANS3_AXES: tuple[tuple[str, ...], ...] = (
    ("Small", "Large"),
    ("Metal", "Rubber"),
    ("Cube", "Sphere", "Cylinder"),
    ("Gray", "Red", "Blue", "Green", "Brown", "Purple", "Cyan", "Yellow"),
)
_AXIS_OF = {value: axis for axis, values in enumerate(CLEVR_HANS3_AXES)
            for value in values}

# Draws per scene before giving up on one that no other class rule describes.
REJECTION_BUDGET = 1000


@dataclass(frozen=True)
class GeneratorConfig:
    """Configuration for the three-class synthetic scene generator."""

    samples_per_class: int = 200
    objects_min: int = 3
    objects_max: int = 10
    seed: int = 0
    confounded: bool = False

    def __post_init__(self):
        if self.samples_per_class < 1:
            raise ConfigError("samples_per_class must be >= 1")
        if self.objects_min < 2 or self.objects_max < self.objects_min:
            raise ConfigError("object count range must satisfy 2 <= min <= max")


def generate_clevr_hans3(config: GeneratorConfig = GeneratorConfig(),
                         ) -> tuple[Dataset, dict[str, ASD]]:
    """Generate the three-class scene dataset and its ground-truth rules.

    Each scene draws a uniform object count and uniform attributes per object,
    force-fills two objects so the class rule holds, and is rejection-sampled
    until neither other class rule describes it.  The same config always
    yields the same dataset.  Raises ``GenerationError`` when
    ``REJECTION_BUDGET`` draws in a row all fall under another class rule.
    """
    vocab = Vocabulary()
    for axis in CLEVR_HANS3_AXES:
        for name in axis:
            vocab.intern(name)
    rules = {label: ASD.from_names(vocab, entities, intern=True)
             for label, entities in CLEVR_HANS3_RULES}

    rng = random.Random(config.seed)
    samples: list[Sample] = []
    width = max(4, len(str(config.samples_per_class - 1)))
    for label, rule_entities in CLEVR_HANS3_RULES:
        other_rules = [rules[other] for other, _ in CLEVR_HANS3_RULES if other != label]
        for i in range(config.samples_per_class):
            for _ in range(REJECTION_BUDGET):
                asd = _draw_scene(rng, config, vocab, label, rule_entities)
                if not any(subsumes(other, asd) for other in other_rules):
                    break
            else:
                raise GenerationError(
                    f"gave up after {REJECTION_BUDGET} draws for a "
                    f"{label!r} scene that no other rule describes")
            samples.append(Sample(f"{label}-{i:0{width}d}", label, asd))
    return Dataset(vocab, tuple(samples)), rules


def _draw_scene(rng: random.Random, config: GeneratorConfig, vocab: Vocabulary,
                label: str, rule_entities: tuple[tuple[str, ...], ...]) -> ASD:
    count = rng.randint(config.objects_min, config.objects_max)
    objects = [[rng.choice(axis) for axis in CLEVR_HANS3_AXES] for _ in range(count)]
    # Overwrite the constrained axes of the first objects so the class rule
    # holds; the free axes keep their drawn values.
    for slot, entity in enumerate(rule_entities):
        for attr in entity:
            objects[slot][_AXIS_OF[attr]] = attr
    if config.confounded:
        # Reconstructed shortcut attributes: the witness objects of the first
        # two classes get a fixed free axis, so mining picks up the shortcut.
        if label == "class1":
            objects[0][_AXIS_OF["Gray"]] = "Gray"
        elif label == "class2":
            objects[1][_AXIS_OF["Metal"]] = "Metal"
    return ASD.from_names(vocab, objects, intern=False)


def write_ground_truth(rules: dict[str, ASD], vocab: Vocabulary,
                       path: str | Path) -> None:
    """Write one {"label", "rule"} JSON record per class."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for label, asd in rules.items():
            handle.write(json.dumps({"label": label, "rule": asd.to_name_lists(vocab)}))
            handle.write("\n")


def load_ground_truth(path: str | Path, vocab: Vocabulary) -> dict[str, ASD]:
    """Read ground-truth rules, interning attribute names into ``vocab``."""
    path = Path(path)
    rules: dict[str, ASD] = {}
    first_line: dict[str, int] = {}
    diagnostics: list[Diagnostic] = []
    for line_no, record in _json_objects(_read_lines(path, "ground truth"), diagnostics):
        label, rule = record.get("label"), record.get("rule")
        problem = ("'label' must be a string" if not isinstance(label, str)
                   else _entity_problem(rule, "rule"))
        if problem is None and label in first_line:
            problem = f"duplicate label {label!r} (first at line {first_line[label]})"
        if problem:
            diagnostics.append(Diagnostic(problem, line=line_no))
        else:
            first_line[label] = line_no
            rules[label] = ASD.from_names(vocab, rule, intern=True)
    if not diagnostics and not rules:
        diagnostics.append(Diagnostic("ground-truth file holds no rules"))
    if diagnostics:
        raise DatasetValidationError(diagnostics, source=str(path))
    return rules


# ----------------------------------------------------------------------------
# attribute matrix conversion
# ----------------------------------------------------------------------------

GROUPINGS = ("whole", "part-prefix")


def convert_attribute_matrix(path: str | Path, grouping: str = "whole",
                             threshold: float = 1.0) -> Dataset:
    """Convert (sample_id, attribute_name, value[, label]) rows to a dataset.

    Values are certainties in [0, 1]; attributes below the threshold are
    dropped.  Grouping "whole" makes one entity per sample; "part-prefix"
    groups attributes by the name part before "::" into one entity per part.
    Labels come from the optional fourth column, else from a "label/rest"
    sample id prefix.  The first non-blank line sets the delimiter (tab when
    it holds one, else comma) and is skipped as a header when its value
    column is not a number.  Samples whose attributes all fall below the
    threshold are an error, not silently dropped.
    """
    if grouping not in GROUPINGS:
        raise ConfigError(f"unknown grouping {grouping!r}; expected one of {GROUPINGS}")
    path = Path(path)
    diagnostics: list[Diagnostic] = []
    rows: list[tuple[str, str, float, str | None]] = []
    lines = _read_lines(path, "matrix")
    first = next((n for n, line in enumerate(lines, start=1) if line.strip()), None)
    delimiter = "\t" if first is not None and "\t" in lines[first - 1] else ","
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(delimiter)]
        if len(parts) not in (3, 4):
            diagnostics.append(Diagnostic(
                f"expected 3 or 4 {'tab' if delimiter == chr(9) else 'comma'}-separated "
                f"columns, got {len(parts)}", line=line_no))
            continue
        try:
            value = float(parts[2])
        except ValueError:
            if line_no == first:
                continue  # header row
            diagnostics.append(Diagnostic(f"value {parts[2]!r} is not a number",
                                          line=line_no))
            continue
        if not parts[0] or not parts[1]:
            diagnostics.append(Diagnostic("empty sample id or attribute name",
                                          line=line_no))
            continue
        label = parts[3] if len(parts) == 4 else None
        rows.append((parts[0], parts[1], value, label))

    kept: dict[str, list[str]] = {}  # in first-appearance order
    labels: dict[str, str] = {}
    for sample_id, attr, value, label in rows:
        attrs = kept.setdefault(sample_id, [])
        if label is not None:
            previous = labels.get(sample_id)
            if previous is not None and previous != label:
                diagnostics.append(Diagnostic(
                    f"conflicting labels {previous!r} and {label!r}",
                    sample_id=sample_id))
            labels[sample_id] = label
        if value >= threshold:
            attrs.append(attr)

    builder = _SampleBuilder()
    for sample_id, attrs in kept.items():
        if not attrs:
            diagnostics.append(Diagnostic(
                f"no attribute at or above threshold {threshold}", sample_id=sample_id))
            continue
        label = labels.get(sample_id)
        if label is None and "/" in sample_id:
            label = sample_id.split("/", 1)[0]
        if label is None:
            diagnostics.append(Diagnostic(
                "no label: add a fourth column or use 'label/...' sample ids",
                sample_id=sample_id))
            continue
        if grouping == "whole":
            entities = [attrs]
        else:
            by_part: dict[str, list[str]] = {}
            for attr in attrs:
                by_part.setdefault(attr.split("::", 1)[0], []).append(attr)
            entities = [by_part[part] for part in sorted(by_part)]
        clash = builder.add(sample_id, label, entities)
        if clash:
            diagnostics.append(clash)

    if not diagnostics and not builder.samples:
        diagnostics.append(Diagnostic("matrix holds no samples"))
    if diagnostics:
        raise DatasetValidationError(diagnostics, source=str(path))
    return Dataset(builder.vocab, tuple(builder.samples), source=str(path))
