"""Benchmark of ``semproto run`` on three seeded generated workloads.

    python3 perfbench/run.py --workload scenes --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --quick
    python3 perfbench/run.py --scaling

Run from the root of a checkout; the package is imported from its ``src``.
Each round starts ``semproto`` in a fresh process (``child.py``) and checks
its report with ``check.py``, which does not import the package.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``--trace`` the metrics are end to end;
with ``--trace 1`` they are per layer, from rounds wrapped by ``spans.py``.
Work files go to ``.bench_work/``.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402

WORKLOADS = {
    # name: (input, --parallelism)
    "scenes": ("scenes", 1),
    "scenes-par2": ("scenes", 2),
    "wide-parts": ("wide", 1),
}
# setup_probes: set-up-only runs before the timed rounds
FULL = {"scenes_per_class": 200, "wide_classes": 100, "wide_per_class": 8,
        "setup_probes": 2}
QUICK = {"scenes_per_class": 50, "wide_classes": 12, "wide_per_class": 4,
         "setup_probes": 1}
CHILD_TIMEOUT = 150.0   # seconds; one run of the whole benchmark must end in 180

END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "data.import_s": "s", "data.convert_s": "s", "data.load_s": "s",
    "asd.similarity_calls": "count", "asd.similarity_distinct_pairs": "count",
    "asd.merge_calls": "count", "asd.merge_s": "s",
    "mining.mine_s": "s", "mining.traces": "count", "mining.candidates": "count",
    "mining.candidates_per_trace": "ratio",
    "mining.index_builds": "count", "mining.index_build_s": "s",
    "mining.index_checks": "count", "mining.index_check_s": "s",
    "mining.merge_accept_ratio": "ratio",
    "mining.naive_checks": "count", "mining.naive_check_s": "s",
    "mining.select_s": "s",
    "prototypes.find_s": "s", "prototypes.edit_distance_calls": "count",
    "prototypes.assignment_solves": "count", "prototypes.injective_infeasible": "count",
    "report.build_s": "s", "report.render_s": "s",
    "data.self_s": "s", "asd.self_s": "s", "mining.self_s": "s",
    "prototypes.self_s": "s", "report.self_s": "s",
    "trace.overhead_s": "s",
}
LAYERS = ("cli", "data", "asd", "mining", "pipeline", "prototypes", "report")


class BenchError(Exception):
    """The benchmark could not run (not a failed operation of the program)."""


# ----------------------------------------------------------------------------
# one process
# ----------------------------------------------------------------------------

def spawn(work: Path, command: list[str], trace: Path | None = None,
          stop_after_load: bool = False) -> dict:
    """Run ``semproto COMMAND`` through child.py; return its marks plus timings."""
    result = work / "child-result.json"
    result.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(SRC), str(result),
            str(trace) if trace else "-"]
    if stop_after_load:
        argv.append("--stop-after-load")
    argv += ["--", *command]
    with (work / "child.out").open("wb") as out, (work / "child.err").open("wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=work, stdout=out, stderr=err,
                                start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"semproto {command[0]} ran past {CHILD_TIMEOUT} s")
        finally:
            if proc.poll() is None:  # interrupted: leave no process behind
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    finished = time.monotonic()
    marks = json.loads(result.read_text()) if result.exists() else {}
    marks.update(started=started, wall=finished - started, returncode=proc.returncode)
    if proc.returncode != 0:
        tail = (work / "child.err").read_text(errors="replace")[-2000:]
        print(f"semproto {' '.join(command)} exited {proc.returncode}:\n{tail}",
              file=sys.stderr)
    return marks


# ----------------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------------

class Workload:
    def __init__(self, name: str, seed: int, sizes: dict):
        self.name = name
        self.input, self.parallelism = WORKLOADS[name]
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.truth = None
        if self.input == "scenes":
            gen.write_scenes(self.work, sizes["scenes_per_class"], seed)
            self.dataset = "scenes.jsonl"
            self.run_args = ["run", "--dataset", self.dataset, "--max-prototypes", "1",
                             "--ground-truth", "scenes.rules.jsonl"]
            self.truth = check.read_rules(self.work / "scenes.rules.jsonl")
        else:
            gen.write_wide(self.work, sizes["wide_classes"], sizes["wide_per_class"], seed)
            self.dataset = "wide.jsonl"
            self.convert_args = ["convert", "--matrix", "wide.csv", "--grouping",
                                 "part-prefix", "--threshold", str(gen.THRESHOLD),
                                 "--output", self.dataset]
            self.run_args = ["run", "--dataset", self.dataset]
        self.run_args += ["--seed", str(seed), "--output", "report.json"]
        self.reference: tuple[bytes, bytes] | None = None
        self.errors: list[str] = []

    def _converted(self, trace_dir: Path | None) -> float | None:
        """Convert the matrix (wide input); its wall time, None if it failed."""
        if self.input != "wide":
            return 0.0
        trace = trace_dir / "convert.json" if trace_dir else None
        marks = spawn(self.work, self.convert_args, trace)
        return marks["wall"] if marks["returncode"] == 0 else None

    def setup_probe(self) -> float:
        convert = self._converted(None)
        marks = spawn(self.work, self.run_args, stop_after_load=True)
        if convert is None or marks["returncode"] != 0 or "loaded" not in marks:
            raise BenchError(f"{self.name}: set-up probe failed")
        return convert + marks["loaded"] - marks["started"]

    def round(self, parallelism: int, trace_dir: Path | None = None) -> dict | None:
        """One timed ``semproto run``; None when it failed."""
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
        convert = self._converted(trace_dir)
        if convert is None:
            return None
        args = self.run_args + ["--parallelism", str(parallelism)]
        marks = spawn(self.work, args, trace_dir / "run.json" if trace_dir else None)
        if marks["returncode"] != 0 or "loaded" not in marks:
            return None
        self._verify()
        return {
            "run_s": marks["ended"] - marks["loaded"],
            "setup_s": convert + marks["loaded"] - marks["started"],
            "cpu_s": marks["cpu_end"] - marks["cpu_loaded"],
            "peak_rss_mb": marks["peak_rss_mb"],
        }

    def _verify(self) -> None:
        """Check the first report in full; later reports must repeat it byte for byte."""
        report = self.work / "report.json"
        got = (report.read_bytes(), report.with_suffix(".md").read_bytes())
        if self.reference is None:
            self.reference = got
            self.errors += self._check_in_full(json.loads(got[0]))
        elif got != self.reference:
            self.errors.append("report differs from the first report of this run "
                               "(reference run at --parallelism 1)")

    def _check_in_full(self, report: dict) -> list[str]:
        samples = check.read_dataset(self.work / self.dataset)
        errors = check.check_report(report, samples, cover_all=self.input == "wide",
                                    truth=self.truth)
        if self.input == "wide":
            errors += check.check_conversion(self.work / "wide.csv", gen.THRESHOLD, samples)
        markdown = (self.work / "report.md").read_text(encoding="utf-8")
        errors += [f"markdown report lacks class {b['label']}"
                   for b in report["classes"] if f"## {b['label']} " not in markdown]
        return errors


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict = FULL) -> dict:
    """Measure one workload; the result object the benchmark prints."""
    wl = Workload(name, seed, sizes)
    setups = [wl.setup_probe() for _ in range(sizes["setup_probes"])]
    if wl.parallelism > 1:
        # the single-process report every parallel report must equal
        if wl.round(1) is None:
            raise BenchError(f"{name}: the --parallelism 1 reference run failed")

    rounds: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        # traced runs alternate with plain ones: T U T U ...
        tracing = trace and len(traced) <= len(rounds)
        trace_dir = wl.work / f"trace-{len(traced)}" if tracing else None
        attempted += 1
        measured = wl.round(wl.parallelism, trace_dir)
        if measured is None:
            failed += 1
        elif tracing:
            layers, own = layer_metrics(trace_dir)
            traced.append(dict(measured, layers=layers, self_s=own))
        else:
            rounds.append(measured)
        done = time.monotonic() - start >= seconds
        if done and (not trace or (len(traced) >= 2 and rounds)):
            break
        if attempted >= 2 and failed == attempted:
            break

    if not rounds and not traced:
        raise BenchError(f"{name}: every round failed")
    errors = list(wl.errors)
    metrics: dict[str, float] = {}
    if trace:
        counts = [{k: v for k, v in t["layers"].items() if PER_LAYER[k] == "count"}
                  for t in traced]
        if any(c != counts[0] for c in counts):
            errors.append("two traced runs of one seed gave different counts")
        for key in PER_LAYER:
            if key != "trace.overhead_s":
                metrics[key] = statistics.median(t["layers"][key] for t in traced)
        metrics["trace.overhead_s"] = (statistics.median(t["run_s"] for t in traced)
                                       - statistics.median(r["run_s"] for r in rounds))
        write_trace_summary(wl.work, traced, metrics)
        units = PER_LAYER
    else:
        setups += [r["setup_s"] for r in rounds]
        metrics = {key: statistics.median(r[key] for r in rounds) for key in END_TO_END}
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    for label, group in (("untraced", rounds), ("traced", traced)):
        if group:
            print(f"{name}: {label} rounds, run_s: "
                  + " ".join(f"{r['run_s']:.3f}" for r in group), file=sys.stderr)
    for message in errors:
        print(f"{name}: CHECK FAILED: {message}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


# ----------------------------------------------------------------------------
# traced rounds
# ----------------------------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(dumps: list[dict]) -> dict[str, float]:
    """Self time per layer over the traced processes of one round.

    A span's self time is its duration minus its child spans and minus the
    fine-timed calls made directly inside it; those calls count for their own
    layer.  Fine-timed work done in pool workers overlaps the parent's spans
    and is left out here.
    """
    own = {layer: 0.0 for layer in LAYERS}
    for dump in dumps:
        spans = dump["spans"]
        for i, (name, start, end, _, fine) in enumerate(spans):
            kids = [s for s in spans if s[3] == i]
            own[_layer(name)] += ((end - start) - sum(k[2] - k[1] for k in kids)
                                  - (fine - sum(k[4] for k in kids)))
        for fname, entry in dump["fine"].items():
            own[_layer(fname)] += entry["main_seconds"]
    return own


def layer_metrics(trace_dir: Path) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced round (the run and, if any, the convert)."""
    dumps = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
    span_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    fine: dict[str, float] = {}
    for dump in dumps:
        for name, start, end, _, _ in dump["spans"]:
            span_s[name] = span_s.get(name, 0.0) + (end - start)
        for name, n in dump["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, entry in dump["fine"].items():
            fine[name] = fine.get(name, 0.0) + entry["seconds"]

    traces = counts.get("mining.traces", 0)
    index_checks = counts.get("mining.index_check_calls", 0)
    own = self_times(dumps)
    layers = {
        "data.import_s": span_s.get("data.import", 0.0),
        "data.convert_s": span_s.get("data.convert", 0.0),
        "data.load_s": span_s.get("data.load", 0.0),
        "asd.similarity_calls": counts.get("asd.similarity_calls", 0),
        "asd.similarity_distinct_pairs": counts.get("asd.similarity_distinct_pairs", 0),
        "asd.merge_calls": counts.get("asd.merge_calls", 0),
        "asd.merge_s": fine.get("asd.merge", 0.0),
        "mining.mine_s": span_s.get("mining.mine", 0.0),
        "mining.traces": traces,
        "mining.candidates": counts.get("mining.candidates", 0),
        "mining.candidates_per_trace": counts.get("mining.candidates", 0) / max(traces, 1),
        "mining.index_builds": counts.get("mining.index_build_calls", 0),
        "mining.index_build_s": fine.get("mining.index_build", 0.0),
        "mining.index_checks": index_checks,
        "mining.index_check_s": fine.get("mining.index_check", 0.0),
        "mining.merge_accept_ratio":
            counts.get("mining.index_checks_none", 0) / max(index_checks, 1),
        "mining.naive_checks": counts.get("mining.naive_check_calls", 0),
        "mining.naive_check_s": fine.get("mining.naive_check", 0.0),
        "mining.select_s": span_s.get("mining.select", 0.0),
        "prototypes.find_s": span_s.get("prototypes.find", 0.0),
        "prototypes.edit_distance_calls": counts.get("prototypes.edit_distance_calls", 0),
        "prototypes.assignment_solves": counts.get("prototypes.assignment_solves", 0),
        "prototypes.injective_infeasible": counts.get("prototypes.injective_infeasible", 0),
        "report.build_s": span_s.get("report.build", 0.0),
        "report.render_s": span_s.get("report.render", 0.0),
    }
    for layer in ("data", "asd", "mining", "prototypes", "report"):
        layers[f"{layer}.self_s"] = own[layer]
    return layers, own


def write_trace_summary(work: Path, traced: list[dict], metrics: dict) -> None:
    """Self time and share per layer of each traced round, next to the raw traces."""
    rounds = []
    for t in traced:
        own = t["self_s"]
        total = sum(own.values())
        rounds.append({"run_s": t["run_s"], "setup_s": t["setup_s"],
                       "self_s": own,
                       "share": {k: v / total for k, v in own.items()} if total else {}})
    summary = {"rounds": rounds, "metrics": metrics,
               "traces": sorted(str(p.relative_to(work)) for p in work.glob("trace-*/*.json"))}
    (work / "trace-summary.json").write_text(json.dumps(summary, indent=1) + "\n")


# ----------------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------------

def print_result(name: str, result: dict) -> None:
    for key, m in result["metrics"].items():
        print(f"{name:12s} {key:32s} {m['value']:14.6f} {m['unit']}")
    print(f"{name:12s} attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")


def scaling(seed: int) -> None:
    """run_s of ``scenes`` at 50, 100, 200 and 400 per class, and the fitted exponent."""
    points = []
    for n in (50, 100, 200, 400):
        r = run_workload("scenes", seed, 0, False,
                         dict(FULL, scenes_per_class=n, setup_probes=1))
        points.append((n, r["metrics"]["run_s"]["value"]))
        print(f"scenes {n:4d} per class: run_s {points[-1][1]:.3f} s")
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    print(f"scaling exponent (least squares, log run_s on log n): {slope:.2f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true", help="every workload in turn")
    mode.add_argument("--quick", action="store_true",
                      help="every workload at a small size, untraced and traced")
    mode.add_argument("--scaling", action="store_true",
                      help="scenes at 50, 100, 200 and 400 per class")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="latest",
                        help="--all writes BENCH_<label>.json")
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds, so spawn() kills the running command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "semproto" / "__init__.py").is_file():
        print(f"no package source at {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.scaling:
            scaling(args.seed)
            return 0
        if args.workload:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print_result(args.workload, result)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        results = {}
        for name in WORKLOADS:
            if args.quick:
                results[name] = run_workload(name, args.seed, 0, False, QUICK)
                print_result(name, results[name])
                results[name + " (traced)"] = run_workload(name, args.seed, 0, True, QUICK)
                print_result(name, results[name + " (traced)"])
            else:
                results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
                print_result(name, results[name])
        if args.all:
            out = ROOT / f"BENCH_{args.label}.json"
            out.write_text(json.dumps({
                "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                "python": sys.version.split()[0], "cpus": os.cpu_count(),
                "results": results}, indent=1) + "\n")
            print(f"results written to {out}")
        ok = all(r["correct"] and not r["failed"] for r in results.values())
        print("all checks passed" if ok else "SOME CHECKS FAILED")
        return 0 if ok else 1
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
