"""One-vs-rest orchestration: mine, select, and pick prototypes per class."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .asd import ASD, entity_from_ids, entity_ids, subsumes
from .data import Dataset
from .errors import ConfigError, DatasetValidationError, Diagnostic
from .mining import (ClassClusterDescription, NegativeAttributeIndex, Sample, SelectionStep,
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


class _UnionFilter:
    """Which samples have an attribute union that contains a description's:
    the necessary condition for the description to describe them, since
    each of its entities then lies inside some entity of the sample.

    Built once over a dataset's samples: for each attribute id, a bitset of
    the sample positions whose ``attribute_union`` holds it.  It knows no
    labels and shares only ``asd`` primitives with
    ``NegativeAttributeIndex``, so the soundness re-check does not rest on
    the index it re-checks.
    """

    def __init__(self, samples: Sequence[Sample]):
        self._samples = samples
        self._all = (1 << len(samples)) - 1
        holders: dict[int, list[int]] = {}
        for pos, sample in enumerate(samples):
            for a in entity_ids(sample.asd.attribute_union):
                holders.setdefault(a, []).append(pos)
        self._holders = {a: entity_from_ids(ps) for a, ps in holders.items()}

    def containing(self, description: ASD) -> list[Sample]:
        """The samples, of any label, whose attribute union contains the
        description's, in position order; the empty union keeps them all."""
        mask = self._all
        for a in entity_ids(description.attribute_union):
            mask &= self._holders.get(a, 0)
        samples = self._samples
        return [samples[p] for p in entity_ids(mask)]


def run_pipeline(dataset: Dataset, *, class_filter: str | None = None,
                 max_prototypes: int | None = None, metric: str = "edit",
                 unmatched_cost: str = "attrs",
                 ground_truth: dict[str, ASD] | None = None) -> PipelineResult:
    """Mine rules and prototypes for every class (or one chosen class).

    ``max_prototypes`` caps the rules (and hence prototypes) per class; absent,
    rules are picked until every positive is covered or no candidate helps.
    Classes are mined one after another in this process, all against one
    ``NegativeAttributeIndex`` over the dataset.  Each mined candidate is
    then re-checked by a naive ``check_ccd`` scan that does not use the
    index.  ``_UnionFilter``, also built once over the dataset, gives the
    samples whose attribute union contains the candidate's; those of the
    candidate's class, read off each sample's label, are dropped, and the
    scan gets the rest.  It leaves out only negatives the candidate could
    not describe, so the verdict is the full scan's; a candidate that fails
    it is a ``RuntimeError``.  With ``ground_truth``, each class's top
    rule is compared for mutual subsumption against the known rule; a label
    that names no class of the dataset is a ``ConfigError``.
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
    unions = _UnionFilter(dataset.samples)
    for label in labels:
        positives = dataset.by_label[label]
        candidates = mine_ccds(positives, index)
        # Independent soundness re-check: a naive scan of the negatives
        # whose attribute union contains the candidate's.
        for candidate in candidates:
            negatives = [s for s in unions.containing(candidate.asd) if s.label != label]
            if not check_ccd(candidate.asd, negatives):
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
