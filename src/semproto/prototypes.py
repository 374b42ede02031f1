"""Edit distance from a rule description to a sample, and prototype search.

The distance counts how many attributes must be added to the rule description
to reproduce a sample it describes: each rule entity is matched to a superset
entity of the sample (insertions = the extra attributes of the witness), and
sample entities that no rule entity uses are charged their full attribute
count (mode "attrs", the default) or nothing (mode "zero").

Matching prefers an injective assignment (distinct witnesses).  When no
injective assignment exists the distance is the exact minimum over
many-to-one mappings, computed by an augmented assignment that lets rule
entities either claim a distinct witness or ride the cheapest one.

Tie-break: the reported mapping (the sample entity per rule entity, in rule
order) is the lexicographically smallest mapping of minimal total, among
injective mappings when one exists and among many-to-one mappings otherwise.

Both cases solve one exact minimum-cost assignment (``linear_sum_assignment``,
the Hungarian method with potentials) over cells ``(w - z_cost[j], j)``: the
insertions ``w`` of a match less the unmatched charge it earns back.  The
integer cell weights ``cost * nz**nr + column * nz**(nr - 1 - row)`` fold the
tie-break into the optimum.  In "attrs" mode every cell of rule entity ``i``
costs ``-|r_i|``, because each rule entity is a subset of its witness, so
there the tie-break alone picks the mapping, and every injective mapping
totals the sample's attribute count minus the rule's.  Whether an injective
mapping exists is tested first by augmenting paths (Kuhn 1955).  The
prototype of a rule is the covered sample at minimal distance, ties broken
toward the smallest sample id.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .asd import ASD, similarity
from .errors import ConfigError
from .mining import ClassClusterDescription, Sample

METRICS = ("edit", "jaccard")
UNMATCHED_COST_MODES = ("attrs", "zero")

# weight[i][j]: attributes to insert into rule entity i to reach sample entity
# j, or None when j is not a superset of i
Weights = list[list["int | None"]]


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
    """Minimum attribute insertions turning ``rule`` into ``sample``, with the
    lexicographically smallest optimal mapping.

    Precondition: ``rule`` describes ``sample`` (every rule entity has at
    least one superset entity in the sample); raises ``ValueError`` otherwise.
    """
    weight, z_cost = _weights(rule, sample, unmatched_cost)
    nz = len(z_cost)
    # a match's insertions less the unmatched charge it earns back
    cells = [[None if w is None else (w - z_cost[j], j) for j, w in enumerate(row)]
             for row in weight]
    feasible = _injective(weight, nz)
    if feasible:
        assignment = _lexmin_assignment(cells, nz)
    else:
        assignment = _many_to_one(weight, cells, nz)
    pairs = tuple((i, j, weight[i][j]) for i, j in enumerate(assignment))
    used = set(assignment)
    unmatched = tuple((j, cost) for j, cost in enumerate(z_cost) if j not in used)
    total = sum(w for _, _, w in pairs) + sum(cost for _, cost in unmatched)
    return EditDistanceBreakdown(pairs, unmatched, total, feasible)


def _edit_total(rule: ASD, sample: ASD, unmatched_cost: str) -> int:
    """``edit_distance(...).total``, without the mapping when "attrs" mode
    has an injective assignment (they all cost the same)."""
    if unmatched_cost == "attrs":
        weight, z_cost = _weights(rule, sample, unmatched_cost)
        if _injective(weight, len(z_cost)):
            return sample.total_attributes - rule.total_attributes
    return edit_distance(rule, sample, unmatched_cost).total


def _weights(rule: ASD, sample: ASD, unmatched_cost: str) -> tuple[Weights, list[int]]:
    """Insertion weights and the charge of each unmatched sample entity."""
    _check_mode(unmatched_cost)
    if not rule.entities or not sample.entities:
        raise ValueError("edit distance requires non-empty descriptions")
    z = sample.entities
    weight = [[(zj & ~ri).bit_count() if ri & zj == ri else None for zj in z]
              for ri in rule.entities]
    if any(all(w is None for w in row) for row in weight):
        raise ValueError("rule does not describe the sample; edit distance undefined")
    z_cost = [zj.bit_count() if unmatched_cost == "attrs" else 0 for zj in z]
    return weight, z_cost


def _augment(row: int, weight: Weights, owner: list, seen: list[bool]) -> bool:
    """Kuhn's augmenting path: give ``row`` a witness no other row holds,
    moving holders along; columns marked in ``seen`` are not visited."""
    for j, w in enumerate(weight[row]):
        if w is not None and not seen[j]:
            seen[j] = True
            if owner[j] is None or _augment(owner[j], weight, owner, seen):
                owner[j] = row
                return True
    return False


def _injective(weight: Weights, nz: int) -> bool:
    """Whether every rule entity can have a witness of its own."""
    owner: list = [None] * nz
    return len(weight) <= nz and all(_augment(i, weight, owner, [False] * nz)
                                     for i in range(len(weight)))


def _many_to_one(weight: Weights, cells: list[list], nz: int) -> list[int]:
    """Exact many-to-one optimum: a rule entity either claims a distinct
    sample entity (its cell in ``cells``) or rides its cheapest superset
    (smallest index among equals) in a column of its own."""
    nr = len(weight)
    ride = [min((w, j) for j, w in enumerate(row) if w is not None) for row in weight]
    augmented = [row + [ride[i] if extra == i else None for extra in range(nr)]
                 for i, row in enumerate(cells)]
    return [c if c < nz else ride[i][1]
            for i, c in enumerate(_lexmin_assignment(augmented, nz))]


def _lexmin_assignment(cells: list[list], nz: int) -> list[int]:
    """Solve ``cells[i][c] = (cost, mapped sample entity)`` (None: forbidden)
    for minimal total cost, ties toward the lexicographically smallest
    sequence of mapped sample entities; returns the cell column per row."""
    nr = len(cells)
    scale = nz ** nr  # exceeds every tie-break sum, so cost decides first
    weighted = [[None if cell is None else cell[0] * scale + cell[1] * nz ** (nr - 1 - i)
                 for cell in row] for i, row in enumerate(cells)]
    return linear_sum_assignment(weighted)


def linear_sum_assignment(cost: list[list["int | None"]]) -> list[int]:
    """Minimum-cost assignment of each row to its own column.

    ``cost`` has at most as many rows as columns and None marks a forbidden
    cell; raises ``ValueError`` when every assignment uses one.  Returns the
    column of each row.  Shortest augmenting paths with row and column
    potentials (the Hungarian method: Kuhn 1955, Munkres 1957), O(rows^2 *
    columns) in exact integer arithmetic.
    """
    n, m = len(cost), len(cost[0])
    inf = float("inf")
    u = [0] * (n + 1)      # row potentials, rows numbered from 1
    v = [0] * (m + 1)      # column potentials; column 0 is the search root
    owner = [0] * (m + 1)  # the row holding each column, 0 for none
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        way = [0] * (m + 1)
        used = [False] * (m + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            row = cost[i0 - 1]
            delta, j1 = inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    c = row[j - 1]
                    if c is not None and c - u[i0] - v[j] < minv[j]:
                        minv[j], way[j] = c - u[i0] - v[j], j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            if not j1:
                raise ValueError("no assignment avoids the forbidden cells")
            for j in range(m + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    columns = [0] * n
    for j in range(1, m + 1):
        if owner[j]:
            columns[owner[j] - 1] = j - 1
    return columns


def distance_metric_select(name: str,
                           unmatched_cost: str = "attrs") -> Callable[[ASD, ASD], float]:
    """Return the distance function for a metric name, one of ``METRICS``."""
    _check_mode(unmatched_cost)
    if name == "edit":
        return lambda rule, sample: _edit_total(rule, sample, unmatched_cost)
    if name == "jaccard":
        return lambda rule, sample: 1.0 - similarity(rule, sample)
    raise ConfigError(f"unknown distance metric {name!r}; expected one of {METRICS}")


def find_prototype(ccd: ClassClusterDescription, samples: Sequence[Sample], *,
                   metric: str = "edit", unmatched_cost: str = "attrs",
                   runners_up: int = 0) -> PrototypeRecord:
    """Pick the covered sample with minimal distance to the rule description.

    Ties break toward the smallest sample id.  Candidates are scored by
    distance alone; the matching breakdown is solved for the winner, so
    explanations can show which sample entity witnesses which rule entity,
    whichever metric drove the choice.
    """
    covered = [s for s in samples if s.id in ccd.coverage]
    if not covered:
        raise ValueError(f"rule for class {ccd.class_label!r} covers no given sample")
    distance = distance_metric_select(metric, unmatched_cost)
    scored = sorted(((distance(ccd.asd, s.asd), s) for s in covered),
                    key=lambda t: (t[0], t[1].id))
    best_distance, winner = scored[0]
    return PrototypeRecord(
        ccd=ccd,
        sample_id=winner.id,
        metric=metric,
        distance=best_distance,
        breakdown=edit_distance(ccd.asd, winner.asd, unmatched_cost),
        runners_up=tuple((s.id, d) for d, s in scored[1:1 + max(0, runners_up)]),
    )
