"""Set-of-sets descriptions and the operations that make them a lattice.

A description (ASD, attribute set description) is a set of entities, and an
entity is a set of attributes drawn from a shared vocabulary.  Attribute names
are interned to dense integer ids, and entities are stored as integer bitmasks
over those ids, so intersections and subset tests are single machine
operations.  Descriptions are kept in a canonical order (entity size first,
then the sorted attribute ids lexicographically), which makes equality,
hashing, and report output deterministic.

The key operations:

* ``subsumes(general, specific)``: every entity of the general description is
  contained in some entity of the specific one.  "general subsumes specific"
  reads as "general describes the data point specific".
* ``similarity``: symmetric Jaccard-based score in [0, 1].
* ``merge``: the most specific common generalization of two descriptions
  (pairwise entity intersections, trimmed to an antichain).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence


# ----------------------------------------------------------------------------
# vocabulary
# ----------------------------------------------------------------------------

class Vocabulary:
    """Interns attribute names to dense ids 0..n-1, first come first served.

    Names are case-sensitive exact strings.  Interning the same name twice
    returns the same id; ids are never reused or reordered.
    """

    __slots__ = ("names", "_ids")

    def __init__(self, names: Iterable[str] = ()):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        for name in names:
            self.intern(name)

    def intern(self, name: str) -> int:
        if not isinstance(name, str) or not name.strip():
            raise ValueError(f"attribute name must be a non-empty string, got {name!r}")
        found = self._ids.get(name)
        if found is not None:
            return found
        new_id = len(self.names)
        self.names.append(name)
        self._ids[name] = new_id
        return new_id

    def id_of(self, name: str) -> int:
        return self._ids[name]

    def name_of(self, attr_id: int) -> str:
        return self.names[attr_id]

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"Vocabulary({len(self.names)} attributes)"


# ----------------------------------------------------------------------------
# entities as bitmasks
# ----------------------------------------------------------------------------

def entity_from_ids(ids: Iterable[int]) -> int:
    """Pack attribute ids into an entity bitmask."""
    mask = 0
    for attr_id in ids:
        if attr_id < 0:
            raise ValueError(f"attribute id must be non-negative, got {attr_id}")
        mask |= 1 << attr_id
    return mask


def entity_ids(mask: int) -> tuple[int, ...]:
    """Unpack an entity bitmask into its ascending attribute ids."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return tuple(ids)


def entity_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key for an entity: (size, ascending ids)."""
    return (mask.bit_count(), entity_ids(mask))


def jaccard(a: int, b: int) -> float:
    """Jaccard index of two entity bitmasks.

    By convention two empty entities score 1.0 and an empty entity against a
    non-empty one scores 0.0, so intermediates of ``merge`` (which may contain
    the empty entity) never divide by zero.
    """
    if a == 0 and b == 0:
        return 1.0
    inter = (a & b).bit_count()
    if inter == 0:
        return 0.0
    return inter / (a | b).bit_count()


# ----------------------------------------------------------------------------
# descriptions
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ASD:
    """An attribute set description: a canonical, deduplicated set of entities.

    ``entities`` is a tuple of bitmasks in canonical order.  Construction
    canonicalizes whatever iterable it is given; duplicates collapse because a
    description is a set.  An empty description is representable (and passes
    through ``canonicalize``) but is rejected by the operations that have no
    meaning for it.
    """

    entities: tuple[int, ...] = ()

    def __post_init__(self):
        canon = tuple(sorted(set(self.entities), key=entity_key))
        object.__setattr__(self, "entities", canon)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_id_sets(id_sets: Iterable[Iterable[int]]) -> "ASD":
        return ASD(tuple(entity_from_ids(ids) for ids in id_sets))

    @staticmethod
    def from_names(vocab: Vocabulary, name_lists: Iterable[Iterable[str]],
                   intern: bool = True) -> "ASD":
        to_id = vocab.intern if intern else vocab.id_of
        return ASD(tuple(entity_from_ids(to_id(n) for n in names) for names in name_lists))

    # -- views ----------------------------------------------------------------

    def to_id_sets(self) -> list[tuple[int, ...]]:
        return [entity_ids(e) for e in self.entities]

    def to_name_lists(self, vocab: Vocabulary) -> list[list[str]]:
        return [[vocab.name_of(i) for i in entity_ids(e)] for e in self.entities]

    def __len__(self) -> int:
        return len(self.entities)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entities)

    def __repr__(self) -> str:
        return f"ASD({self.to_id_sets()!r})"

    # -- cached structure -----------------------------------------------------

    @cached_property
    def total_attributes(self) -> int:
        """Total attribute count over all entities (used for tie-breaking)."""
        return sum(e.bit_count() for e in self.entities)

    @cached_property
    def attribute_union(self) -> int:
        mask = 0
        for e in self.entities:
            mask |= e
        return mask

    @cached_property
    def sort_key(self) -> tuple:
        """A total order over descriptions, used wherever output must be stable."""
        return (len(self.entities), tuple(entity_key(e) for e in self.entities))

    @cached_property
    def trimmed(self) -> "ASD":
        """This description with proper-subset entities removed (an antichain)."""
        kept = trim(self.entities)
        if len(kept) == len(self.entities):
            return self
        return ASD(kept)

    @cached_property
    def is_antichain(self) -> bool:
        return self.trimmed is self


# ----------------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------------

def canonicalize(raw: "ASD | Iterable[Iterable[int]]") -> ASD:
    """Return the canonical form of a description given as id sets (or an ASD).

    Sorting and deduplication only; subset entities are kept.  An empty input
    passes through as the empty description.
    """
    if isinstance(raw, ASD):
        return raw
    return ASD.from_id_sets(raw)


def subsumes(general: ASD, specific: ASD) -> bool:
    """True iff every entity of ``general`` is a subset of some entity of ``specific``.

    Witness entities may be shared.  The empty entity is a subset of anything,
    so a description containing only the empty entity subsumes every
    description.
    """
    specific_entities = specific.entities
    for g in general.entities:
        for s in specific_entities:
            if g & s == g:
                break
        else:
            return False
    return True


def similarity(a: ASD, b: ASD) -> float:
    """Symmetric similarity of two descriptions in [0, 1].

    For each entity of one description take the best Jaccard match in the
    other, average per side, then average the two directions.  Identical
    descriptions score exactly 1.0.  Raises ``ValueError`` for an empty
    description (the score would be meaningless).
    """
    ae, be = a.entities, b.entities
    if not ae or not be:
        raise ValueError("similarity is undefined for an empty description")
    return 0.5 * _directed_similarity(ae, be) + 0.5 * _directed_similarity(be, ae)


def _directed_similarity(xs: Sequence[int], ys: Sequence[int]) -> float:
    total = 0.0
    for x in xs:
        best = 0.0
        for y in ys:
            j = jaccard(x, y)
            if j > best:
                best = j
                if best == 1.0:
                    break
        total += best
    return total / len(xs)


def trim(entities: Iterable[int]) -> tuple[int, ...]:
    """Drop entities that are proper subsets of another; keep equal ones once.

    The result is an antichain under set inclusion, in no canonical order
    (``ASD`` sorts its entities).  Trimming never changes which data points
    a description describes, because any witness for a dropped entity also
    witnesses the superset entity that covered it.
    """
    # Largest first: a proper subset is strictly smaller, so it can only be
    # contained in an earlier entity, and entities of equal size never
    # contain one another, so their order does not change what is kept.
    ordered = sorted(set(entities), key=int.bit_count, reverse=True)
    kept: list[int] = []
    for e in ordered:
        for k in kept:
            if e & k == e:
                break
        else:
            kept.append(e)
    return tuple(kept)


def merge(a: ASD, b: ASD) -> ASD:
    """Most specific common generalization of two non-empty descriptions.

    Intersect every entity of ``a`` with every entity of ``b``, then trim to
    an antichain.  The result subsumes both inputs, and any description that
    subsumes both also subsumes the result.  When the inputs share nothing the
    result is the single empty entity, which subsumes everything.

    The result is known to be an antichain: its cached ``trimmed`` is set to
    itself, so ``is_antichain`` does not trim it again.
    """
    if not a.entities or not b.entities:
        raise ValueError("merge is undefined for an empty description")
    products = {x & y for x in a.entities for y in b.entities}
    merged = ASD(trim(products))
    merged.__dict__["trimmed"] = merged  # where cached_property keeps its value
    return merged
