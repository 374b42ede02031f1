"""Shared strategies and helpers for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from semproto import ASD
from semproto.report import REPORT_FIELDS, check_report

settings.register_profile(
    "semproto",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("semproto")

# small id universe on purpose: collisions, duplicate entities, and nested
# subsets must show up often, or the antichain/trim paths go untested
entity_sets = st.frozensets(st.integers(0, 9), max_size=5)
nonempty_entity_sets = st.frozensets(st.integers(0, 9), min_size=1, max_size=5)


def build(id_sets) -> ASD:
    return ASD.from_id_sets(id_sets)


asds = st.lists(entity_sets, max_size=5).map(build)
nonempty_asds = st.lists(nonempty_entity_sets, min_size=1, max_size=5).map(build)


@st.composite
def generalizations(draw, specific=None):
    """(general, specific) with general subsuming specific by construction.

    Each general entity is a random subset of a randomly chosen specific
    entity, so the witness property holds without consulting subsumes().
    """
    if specific is None:
        specific = draw(nonempty_asds)
    width = draw(st.integers(1, 4))
    entities = []
    for _ in range(width):
        witness = draw(st.sampled_from(specific.entities))
        keep = draw(st.integers(0, (1 << witness.bit_length()) - 1 if witness else 0))
        entities.append(witness & keep)
    return ASD(tuple(entities)), specific


@st.composite
def subsumption_chains(draw):
    """(x, y, z) with x subsuming y and y subsuming z, built constructively."""
    y, z = draw(generalizations())
    x, _ = draw(generalizations(specific=y))
    return x, y, z


@st.composite
def common_generalizations(draw):
    """(w, z1, z2) where w subsumes both z1 and z2.

    Every w entity is a subset of (e1 & e2) for some e1 in z1, e2 in z2, so
    both sides hold a witness for it.
    """
    z1 = draw(nonempty_asds)
    z2 = draw(nonempty_asds)
    width = draw(st.integers(1, 4))
    entities = []
    for _ in range(width):
        e1 = draw(st.sampled_from(z1.entities))
        e2 = draw(st.sampled_from(z2.entities))
        both = e1 & e2
        keep = draw(st.integers(0, (1 << both.bit_length()) - 1 if both else 0))
        entities.append(both & keep)
    return ASD(tuple(entities)), z1, z2


def assert_schema_1(report: dict) -> None:
    """A report the writer produced passes check_report, and every object in
    it holds exactly the schema table's fields, in the table's order."""
    assert check_report(report) == []

    def walk(value, spec):
        if isinstance(spec, dict):
            assert list(value) == list(spec)
            for name, field in spec.items():
                walk(value[name], field)
        elif isinstance(spec, list):
            for item in value:
                walk(item, spec[0])

    walk(report, REPORT_FIELDS)


def run_fresh(code: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ``semproto``, and return its stdout once it has exited 0.  The child
    inherits the environment less ``OPENBLAS_NUM_THREADS``, with ``env``
    set over it."""
    import semproto
    src = str(Path(semproto.__file__).resolve().parent.parent)
    inherited = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env = {**inherited, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout
