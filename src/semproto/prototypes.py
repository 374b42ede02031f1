"""Edit distance from a rule description to a sample, and prototype search.

The distance counts how many attributes must be added to the rule description
to reproduce a sample it describes: each rule entity is matched to a superset
entity of the sample (insertions = the extra attributes of the witness), and
sample entities that no rule entity uses are charged their full attribute
count (mode "attrs", the default) or nothing (mode "zero").

Matching prefers an injective assignment (distinct witnesses, found with an
exact assignment solver).  When no injective assignment exists the distance is
the exact minimum over many-to-one mappings, computed by an augmented
assignment that lets rule entities either claim a distinct witness or ride the
cheapest one.  The prototype of a rule is simply the covered sample at minimal
distance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .asd import ASD, similarity
from .errors import ConfigError
from .mining import ClassClusterDescription, Sample

UNMATCHED_COST_MODES = ("attrs", "zero")

_BIG = 1 << 40  # larger than any real total; marks forbidden assignment cells


@dataclass(frozen=True)
class EditDistanceBreakdown:
    """Edit distance together with the matching that realizes it.

    matched_pairs: (rule entity index, sample entity index, inserted attrs),
    one per rule entity, ordered by rule entity index.
    unmatched_sample_entities: (sample entity index, charged cost) for sample
    entities no rule entity was matched to, ordered by index.
    feasible_injective is False when witnesses had to be shared.
    """

    matched_pairs: tuple[tuple[int, int, int], ...]
    unmatched_sample_entities: tuple[tuple[int, int], ...]
    total: int
    feasible_injective: bool


@dataclass(frozen=True)
class PrototypeRecord:
    """The covered sample closest to a rule description."""

    ccd: ClassClusterDescription
    sample_id: str
    metric: str
    distance: float
    breakdown: EditDistanceBreakdown
    runners_up: tuple[tuple[str, float], ...] = ()


def _check_mode(unmatched_cost: str) -> None:
    if unmatched_cost not in UNMATCHED_COST_MODES:
        raise ConfigError(
            f"unknown unmatched cost mode {unmatched_cost!r}; "
            f"expected one of {UNMATCHED_COST_MODES}"
        )


def edit_distance(rule: ASD, sample: ASD,
                  unmatched_cost: str = "attrs") -> EditDistanceBreakdown:
    """Minimum attribute insertions turning ``rule`` into ``sample``.

    Precondition: ``rule`` describes ``sample`` (every rule entity has at
    least one superset entity in the sample); raises ``ValueError`` otherwise.
    """
    _check_mode(unmatched_cost)
    if not rule.entities or not sample.entities:
        raise ValueError("edit distance requires non-empty descriptions")
    r = rule.entities
    z = sample.entities
    nr, nz = len(r), len(z)
    z_cost = [ze.bit_count() if unmatched_cost == "attrs" else 0 for ze in z]

    # weight[i][j] = attributes to insert into rule entity i to reach sample
    # entity j, or _BIG when j is not a superset of i
    weight = [[(z[j] & ~r[i]).bit_count() if r[i] & z[j] == r[i] else _BIG
               for j in range(nz)] for i in range(nr)]
    # ride[i]: the cheapest witness of rule entity i.  Without any witness the
    # rule does not describe the sample.
    ride = [min(row) for row in weight]
    if _BIG in ride:
        raise ValueError("rule does not describe the sample; edit distance undefined")

    if nr <= nz:
        rows, cols = linear_sum_assignment(np.array(weight, dtype=np.int64))
        if all(weight[i][j] < _BIG for i, j in zip(rows, cols)):
            assignment = {int(i): int(j) for i, j in zip(rows, cols)}
            return _build_breakdown(assignment, weight, z_cost, feasible=True)

    # No injective assignment saturates the rule side.  Exact many-to-one
    # optimum: a rule entity either claims a distinct sample entity (earning
    # back its unmatched cost) or rides its cheapest superset.
    augmented = [[weight[i][j] - z_cost[j] if weight[i][j] < _BIG else _BIG
                  for j in range(nz)]
                 + [ride[i] if extra == i else _BIG for extra in range(nr)]
                 for i in range(nr)]
    rows, cols = linear_sum_assignment(np.array(augmented, dtype=np.int64))
    assignment = {}
    for i, j in zip(rows, cols):
        i, j = int(i), int(j)
        if j < nz:
            assignment[i] = j
        else:
            assignment[i] = min(range(nz), key=lambda jj: (weight[i][jj], jj))
    return _build_breakdown(assignment, weight, z_cost, feasible=False)


def _build_breakdown(assignment: dict[int, int], weight: list[list[int]],
                     z_cost: list[int], feasible: bool) -> EditDistanceBreakdown:
    pairs = tuple((i, assignment[i], weight[i][assignment[i]])
                  for i in sorted(assignment))
    used = set(assignment.values())
    unmatched = tuple((j, z_cost[j]) for j in range(len(z_cost)) if j not in used)
    total = sum(w for _, _, w in pairs) + sum(c for _, c in unmatched)
    return EditDistanceBreakdown(pairs, unmatched, total, feasible)


def distance_metric_select(name: str,
                           unmatched_cost: str = "attrs") -> Callable[[ASD, ASD], float]:
    """Return the distance function for a metric name ("edit" or "jaccard")."""
    _check_mode(unmatched_cost)
    if name == "edit":
        return lambda rule, sample: edit_distance(rule, sample, unmatched_cost).total
    if name == "jaccard":
        return lambda rule, sample: 1.0 - similarity(rule, sample)
    raise ConfigError(f"unknown distance metric {name!r}; expected 'edit' or 'jaccard'")


def find_prototype(ccd: ClassClusterDescription, samples: Sequence[Sample], *,
                   metric: str = "edit", unmatched_cost: str = "attrs",
                   runners_up: int = 0) -> PrototypeRecord:
    """Pick the covered sample with minimal distance to the rule description.

    Ties break toward the smallest sample id.  The matching breakdown is
    always given for the winner so explanations can show which sample
    entity witnesses which rule entity, whichever metric drove the choice:
    with "edit" it is the one the scoring solved, with "jaccard" it is solved
    for the winner alone.
    """
    covered = [s for s in samples if s.id in ccd.coverage]
    if not covered:
        raise ValueError(f"rule for class {ccd.class_label!r} covers no given sample")
    if metric == "edit":
        def score(sample: Sample) -> tuple[float, EditDistanceBreakdown | None]:
            breakdown = edit_distance(ccd.asd, sample.asd, unmatched_cost)
            return breakdown.total, breakdown
    else:
        distance = distance_metric_select(metric, unmatched_cost)

        def score(sample: Sample) -> tuple[float, EditDistanceBreakdown | None]:
            return distance(ccd.asd, sample.asd), None
    scored = sorted((score(s) + (s,) for s in covered), key=lambda t: (t[0], t[2].id))
    best_distance, breakdown, winner = scored[0]
    if breakdown is None:
        breakdown = edit_distance(ccd.asd, winner.asd, unmatched_cost)
    return PrototypeRecord(
        ccd=ccd,
        sample_id=winner.id,
        metric=metric,
        distance=best_distance,
        breakdown=breakdown,
        runners_up=tuple((s.id, d) for d, _, s in scored[1:1 + max(0, runners_up)]),
    )
