"""One-vs-rest orchestration: mine, select, and pick prototypes per class."""
from __future__ import annotations

from dataclasses import dataclass, field

from .asd import ASD, subsumes
from .data import Dataset
from .errors import ConfigError, DatasetValidationError, Diagnostic
from .mining import (ClassClusterDescription, NegativeAttributeIndex, SelectionStep,
                     check_ccd, mine_ccds, select_ccds)
from .prototypes import PrototypeRecord, distance_metric_select, find_prototype


@dataclass
class ClassResult:
    label: str
    positive_count: int
    candidates: list[ClassClusterDescription]
    selection: list[SelectionStep]
    uncovered: list[str]
    prototypes: list[PrototypeRecord]
    rule_recovered: bool | None = None


@dataclass
class PipelineResult:
    """The classes of one run, and the settings ``run_pipeline`` ran with."""
    classes: list[ClassResult]
    class_filter: str | None
    max_prototypes: int | None
    metric: str
    unmatched_cost: str
    warnings: list[str] = field(default_factory=list)


def equivalent(a: ASD, b: ASD) -> bool:
    """Mutual subsumption: the two descriptions describe the same data points."""
    return subsumes(a, b) and subsumes(b, a)


def run_pipeline(dataset: Dataset, *, class_filter: str | None = None,
                 max_prototypes: int | None = None, metric: str = "edit",
                 unmatched_cost: str = "attrs",
                 ground_truth: dict[str, ASD] | None = None) -> PipelineResult:
    """Mine rules and prototypes for every class (or one chosen class).

    ``max_prototypes`` caps the rules (and hence prototypes) per class; absent,
    rules are picked until every positive is covered or no candidate helps.
    Classes are mined one after another in this process.  With
    ``ground_truth``, each class's top rule is compared for mutual
    subsumption against the known rule; a label that names no class of the
    dataset is a ``ConfigError``.
    """
    if max_prototypes is not None and max_prototypes < 0:
        raise ConfigError(f"max_prototypes must be >= 0, got {max_prototypes}")
    distance_metric_select(metric, unmatched_cost)  # ConfigError for unknown names
    labels = dataset.labels()
    unknown = sorted(set(ground_truth or ()) - set(labels))
    if unknown:
        raise ConfigError(f"ground-truth label(s) {unknown} name no class of the dataset "
                          f"(available: {labels})")
    if class_filter is not None:
        if class_filter not in dataset.by_label:
            raise DatasetValidationError(
                [Diagnostic(f"label {class_filter!r} does not occur in the dataset "
                            f"(available: {labels})")],
                source=dataset.source)
        labels = [class_filter]

    result = PipelineResult([], class_filter, max_prototypes, metric, unmatched_cost)
    # One index over the whole dataset; mine_ccds masks it to each class.
    index = NegativeAttributeIndex(dataset.samples)
    for label in labels:
        positives = dataset.by_label[label]
        candidates = mine_ccds(positives, index)
        # Independent soundness re-check, naive scan only.
        negatives = [s for s in dataset.samples if s.label != label]
        for candidate in candidates:
            if not check_ccd(candidate.asd, negatives):  # pragma: no cover
                raise RuntimeError("mined candidate failed the naive soundness scan")
        steps, uncovered = select_ccds(candidates, positives, k=max_prototypes)
        if uncovered and max_prototypes is None:
            result.warnings.append(
                f"class {label!r}: {len(uncovered)} positive(s) not coverable by any "
                f"mined rule: {uncovered[:5]}{'...' if len(uncovered) > 5 else ''}")
        prototypes = [
            find_prototype(step.ccd, positives, metric=metric,
                           unmatched_cost=unmatched_cost)
            for step in steps
        ]
        recovered = None
        if ground_truth is not None and label in ground_truth:
            recovered = bool(steps) and equivalent(steps[0].ccd.asd, ground_truth[label])
        result.classes.append(ClassResult(
            label=label,
            positive_count=len(positives),
            candidates=candidates,
            selection=steps,
            uncovered=uncovered,
            prototypes=prototypes,
            rule_recovered=recovered,
        ))
    return result
