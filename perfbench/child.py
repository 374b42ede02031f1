"""Runs one ``semproto`` command in a fresh process and records when it got where.

Usage: python3 child.py SRC RESULT_JSON TRACE_JSON|- [--stop-after-load] -- ARGS...

SRC is the package source directory of the checkout under test.  ARGS are
the ``semproto`` command line.  RESULT_JSON receives the exit code, the
monotonic time at which the dataset was loaded and at which the command
ended, and CPU time and peak memory; the benchmark's parent process holds the
time the process was started.  With TRACE_JSON the layer wrappers of
``spans.py`` are installed and their spans and counts written there.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


class _StopAfterLoad(BaseException):
    """Ends a set-up probe; not an Exception, so the CLI's handlers let it by."""


def _usage() -> tuple[float, float]:
    """CPU seconds and peak RSS in MB of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def main(argv: list[str]) -> int:
    src, result_path, trace_path = Path(argv[0]).resolve(), Path(argv[1]), argv[2]
    rest = argv[3:]
    stop_after_load = "--stop-after-load" in rest[:rest.index("--")]
    command = rest[rest.index("--") + 1:]

    sys.path.insert(0, str(src))
    import_start = time.perf_counter()
    import semproto.cli
    import_end = time.perf_counter()
    if not Path(semproto.__file__).resolve().is_relative_to(src):
        print(f"semproto was imported from {semproto.__file__}, not {src}",
              file=sys.stderr)
        return 3

    tracer = None
    if trace_path != "-":
        import spans
        tracer = spans.Tracer(Path(trace_path).parent)
        spans.install(tracer, semproto)
        tracer.spans.append(["data.import", import_start, import_end, -1, 0.0])

    marks: dict = {}
    load = semproto.cli.load_dataset

    def load_dataset(*args, **kwargs):
        dataset = load(*args, **kwargs)
        marks["loaded"] = time.monotonic()
        marks["cpu_loaded"] = _usage()[0]
        if stop_after_load:
            raise _StopAfterLoad
        return dataset
    semproto.cli.load_dataset = load_dataset

    run = semproto.cli.main
    if tracer is not None:
        run = tracer.span("cli.main", run)
    try:
        code = run(command)
    except _StopAfterLoad:
        code = 0
    marks["ended"] = time.monotonic()
    cpu, rss = _usage()
    marks.update(exit=code, cpu_end=cpu, peak_rss_mb=rss)
    if tracer is not None:
        Path(trace_path).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    result_path.write_text(json.dumps(marks), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
