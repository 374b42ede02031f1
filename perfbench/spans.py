"""Spans and counters recorded around the package's layer boundaries.

The benchmark never edits the program: ``install`` replaces module attributes
of an imported ``semproto`` with wrappers defined here, in the process that
runs one ``semproto`` command.  Two kinds of wrapper exist:

* spans, for calls that happen a few hundred times per run (a class's
  mining, selection, a prototype search, report building).  Each span keeps
  its name, start, end and the index of the span that was open when it
  began, so a layer's self time is its spans' duration minus their children.
* fine counters, for calls that happen up to millions of times (merge, an
  index lookup, a naive negative scan, ``similarity``).  They keep a call
  count and, except for ``similarity``, the summed time; a span per call
  would cost more than the call.  ``similarity`` is counted only.

Pool workers started with ``fork`` inherit the wrappers.  Each worker starts
from zeroed counters when the pool initializer runs and writes them to a file
when it exits; the parent folds those files into its own counts after each
class.
"""
from __future__ import annotations

import json
import os
import time
from pathlib import Path


class Tracer:
    def __init__(self, worker_dir: Path):
        self.worker_dir = worker_dir
        self.spans: list[list] = []     # [name, start, end, parent, fine_s]
        self._open: list[int] = []
        self.counts: dict[str, int] = {}
        self.fine: dict[str, list] = {}  # name -> [calls, seconds]
        self.worker_fine: dict[str, list] = {}
        self.sim = [0]                   # similarity calls (a cell, for speed)
        self.distinct_pairs = 0
        # reference description (by value) -> bitmask of the positives (by
        # value) it was compared with, for the class being mined
        self._ref_masks: dict[tuple, int] = {}
        self._item_index: dict[int, int] = {}   # id(positive ASD) -> bit
        self._item_keep: list = []  # keeps those ASDs alive, so ids stay unique
        self._by_value: dict[tuple, int] = {}

    # -- recording ------------------------------------------------------------

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _fine_seconds(self) -> float:
        return sum(acc[1] for acc in self.fine.values())

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            record = [name, time.perf_counter(), None, parent, self._fine_seconds()]
            self.spans.append(record)
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                record[2] = time.perf_counter()
                record[4] = self._fine_seconds() - record[4]
        return wrapper

    def timed(self, name: str, fn, after=None):
        acc = self.fine.setdefault(name, [0, 0.0])
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            start = perf()
            result = fn(*args, **kwargs)
            acc[1] += perf() - start
            acc[0] += 1
            if after is not None:
                after(result)
            return result
        return wrapper

    # -- similarity pairs -------------------------------------------------------

    def start_class(self, positive_asds) -> None:
        """Index the positives of one class by value, for distinct-pair counts."""
        by_value: dict[tuple, int] = {}
        self._item_index = {}
        self._item_keep = list(positive_asds)
        for asd in self._item_keep:
            self._item_index[id(asd)] = by_value.setdefault(asd.entities, len(by_value))
        self._by_value = by_value
        self._ref_masks = {}

    def similarity(self, fn):
        sim = self.sim
        state = {"ref": None, "key": None}

        def wrapper(a, b):
            sim[0] += 1
            if a is not state["ref"]:
                state["ref"] = a
                state["key"] = a.entities
            index = self._item_index.get(id(b))
            if index is None:
                index = self._by_value.setdefault(b.entities, len(self._by_value))
            key = state["key"]
            self._ref_masks[key] = self._ref_masks.get(key, 0) | (1 << index)
            return fn(a, b)
        return wrapper

    def end_class(self) -> None:
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            data = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            self.sim[0] += data["similarity_calls"]
            for name, n in data["counts"].items():
                self.add(name, n)
            for name, (calls, seconds) in data["fine"].items():
                acc = self.worker_fine.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += seconds
            for key, mask in data["ref_masks"]:
                key = tuple(key)
                self._ref_masks[key] = self._ref_masks.get(key, 0) | mask
        self.distinct_pairs += sum(m.bit_count() for m in self._ref_masks.values())
        self._ref_masks = {}

    # -- pool workers -------------------------------------------------------------

    def worker_started(self) -> None:
        """Zero what the worker inherited and arrange a dump at its exit."""
        from multiprocessing import util

        self.spans, self._open, self.counts = [], [], {}
        for acc in self.fine.values():
            acc[0], acc[1] = 0, 0.0
        self.sim[0] = 0
        util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        data = {
            "similarity_calls": self.sim[0],
            "counts": self.counts,
            "fine": {k: v for k, v in self.fine.items() if v[0]},
            "ref_masks": [[list(k), m] for k, m in self._ref_masks.items()],
        }
        path = self.worker_dir / f"worker-{os.getpid()}-{time.monotonic_ns()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data), encoding="utf-8")
        tmp.rename(path)

    # -- output -------------------------------------------------------------------

    def dump(self) -> dict:
        fine = {}
        for name in sorted(set(self.fine) | set(self.worker_fine)):
            calls, seconds = self.fine.get(name, [0, 0.0])
            w_calls, w_seconds = self.worker_fine.get(name, [0, 0.0])
            fine[name] = {"calls": calls + w_calls, "seconds": seconds + w_seconds,
                          "main_seconds": seconds}
        counts = dict(self.counts)
        counts["asd.similarity_calls"] = self.sim[0]
        counts["asd.similarity_distinct_pairs"] = self.distinct_pairs
        for name, entry in fine.items():
            counts[name + "_calls"] = entry["calls"]
        return {"spans": self.spans, "counts": counts, "fine": fine}


def install(tracer: Tracer, semproto) -> None:
    """Wrap the layer entry points of an imported ``semproto`` package."""
    cli, mining, pipeline, prototypes = (semproto.cli, semproto.mining,
                                         semproto.pipeline, semproto.prototypes)

    cli.load_dataset = tracer.span("data.load", cli.load_dataset)
    cli.convert_attribute_matrix = tracer.span("data.convert",
                                               cli.convert_attribute_matrix)
    cli.run_pipeline = tracer.span("pipeline.run", cli.run_pipeline)
    cli.build_report = tracer.span("report.build", cli.build_report)
    cli.serialize_report = tracer.span("report.render", cli.serialize_report)
    cli.render_markdown = tracer.span("report.render", cli.render_markdown)

    mine = mining.mine_ccds

    def mine_ccds(positives, negatives, *args, **kwargs):
        tracer.start_class([p.asd for p in positives])
        try:
            result = mine(positives, negatives, *args, **kwargs)
        finally:
            tracer.end_class()
        tracer.add("mining.candidates", len(result))
        return result
    pipeline.mine_ccds = tracer.span("mining.mine", mine_ccds)
    pipeline.select_ccds = tracer.span("mining.select", pipeline.select_ccds)
    pipeline.find_prototype = tracer.span("prototypes.find", pipeline.find_prototype)

    mining.merge = tracer.timed("asd.merge", mining.merge)
    mining.similarity = tracer.similarity(mining.similarity)
    trace = mining._trace

    def counted_trace(*args, **kwargs):
        tracer.add("mining.traces")
        return trace(*args, **kwargs)
    mining._trace = counted_trace

    pool_init = mining._pool_init

    def worker_init(*args, **kwargs):
        tracer.worker_started()
        pool_init(*args, **kwargs)
        # index the worker's own ASD objects, which similarity() receives
        tracer.start_class([asd for _, asd in mining._POOL_STATE["positives"]])
    mining._pool_init = worker_init

    index_cls = mining.NegativeAttributeIndex
    index_cls.__init__ = tracer.timed("mining.index_build", index_cls.__init__)

    def count_none(result):
        if result is None:
            tracer.add("mining.index_checks_none")
    index_cls.first_described = tracer.timed("mining.index_check",
                                             index_cls.first_described, count_none)

    def naive_wrapper(check):
        naive = tracer.timed("mining.naive_check", check)

        def check_ccd(candidate, negatives, index=None):
            if index is not None:
                return check(candidate, negatives, index)
            return naive(candidate, negatives)
        return check_ccd
    mining.check_ccd = naive_wrapper(mining.check_ccd)
    pipeline.check_ccd = naive_wrapper(pipeline.check_ccd)

    # Counted, not timed: the assignment solve runs inside edit_distance, and
    # nested fine timers would count the same seconds twice.
    edit_distance = prototypes.edit_distance

    def counted_edit_distance(*args, **kwargs):
        breakdown = edit_distance(*args, **kwargs)
        tracer.add("prototypes.edit_distance_calls")
        if not breakdown.feasible_injective:
            tracer.add("prototypes.injective_infeasible")
        return breakdown
    prototypes.edit_distance = counted_edit_distance
    solve = prototypes.linear_sum_assignment

    def counted_solve(*args, **kwargs):
        tracer.add("prototypes.assignment_solves")
        return solve(*args, **kwargs)
    prototypes.linear_sum_assignment = counted_solve
