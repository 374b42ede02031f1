"""Command line interface.

Subcommands: run (mine rules and prototypes, write a report), explain (render
one prototype's explanation from a report), validate (check a dataset file),
generate (synthesize the three-class scene dataset), convert (attribute matrix
to dataset), selftest (the oracle cross-check batteries).  Exit codes: 0
success, 2 validation or usage error, 3 internal error.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from . import __version__
from .data import (GROUPINGS, GeneratorConfig, convert_attribute_matrix,
                   generate_clevr_hans3, load_dataset, load_ground_truth,
                   validate_dataset, write_dataset, write_ground_truth)
from .errors import ConfigError, DatasetValidationError, SemprotoError
from .pipeline import run_pipeline
from .prototypes import METRICS, UNMATCHED_COST_MODES
from .report import (build_report, read_report, render_explanation, render_markdown,
                     serialize_report)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3


def _version() -> str:
    return __version__


def _check_outputs(output: str, reads: dict[str, str | None],
                   writes: dict[str, str | Path]) -> None:
    """Refuse a command whose outputs would overwrite an input or each other,
    or cannot be written as files (a path given with a trailing separator,
    a missing directory, or a directory at the path).  ``reads`` and
    ``writes`` map what a file holds to its path as given.  Every output is
    checked before the first is written, so a refused command writes nothing
    (exit 2)."""
    taken = {Path(given).resolve(): (what, given) for what, given in reads.items() if given}
    for what, given in writes.items():
        path = Path(given).resolve()
        if path in taken:
            old, source = taken[path]
            raise ConfigError(f"--output {output!r} would overwrite the {old} {source!r} "
                              f"with the {what}")
        taken[path] = what, str(given)
    separators = tuple(sep for sep in (os.sep, os.altsep) if sep)
    for given in writes.values():
        path = Path(given)
        # Path drops a trailing separator: "out/" would be written as the file "out"
        if str(given).endswith(separators):
            raise ConfigError(f"cannot write {given}: a path that ends in a separator "
                              "names a directory")
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise ConfigError(f"cannot write {path}: no directory {path.parent}")


def _load_ranker() -> None:
    """Import the ranker, and with it numpy, for a command that mines.

    No semproto code calls a BLAS routine, yet numpy's OpenBLAS starts its
    worker threads at import; on a 2-vCPU VM the one worker spun for
    0.06-0.14 s of CPU per process.  So unless the user has set
    ``OPENBLAS_NUM_THREADS``, the CLI asks for one thread; OpenBLAS reads the
    variable only when numpy is first imported, so it is left alone once
    numpy is loaded.  Library calls never write to the environment.
    """
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import ranker  # noqa: F401


@contextmanager
def _writing(path: Path | str) -> Iterator[None]:
    """Failing to write ``path`` inside the block is a usage error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    out = Path(args.output)
    if not out.name or out.suffix == ".md":
        raise ConfigError(f"--output {args.output!r} must name a file whose suffix is "
                          "not .md: the markdown report goes beside it with that suffix")
    md = out.with_suffix(".md")
    _check_outputs(args.output,  # before mining, not after
                   {"dataset": args.dataset, "ground truth": args.ground_truth},
                   {"report": args.output, "markdown report": md})
    # Accepted and checked, but mining always runs in one process.
    if args.parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {args.parallelism}")
    # Before the load, not at the first mine_ccds, so that numpy's 70-90 ms
    # import is start-up, not mining time in the elapsed line.
    _load_ranker()
    dataset = load_dataset(args.dataset)
    ground_truth = None
    if args.ground_truth:
        ground_truth = load_ground_truth(args.ground_truth, dataset.vocabulary)
    started = time.monotonic()
    result = run_pipeline(
        dataset,
        class_filter=args.class_filter,
        max_prototypes=args.max_prototypes,
        metric=args.distance,
        unmatched_cost=args.unmatched_cost,
        ground_truth=ground_truth,
    )
    elapsed = time.monotonic() - started
    report = build_report(result, dataset, version=_version(), seed=args.seed)
    with _writing(out), out.open("w", encoding="utf-8") as handle:
        serialize_report(report, handle)
    with _writing(md), md.open("w", encoding="utf-8") as handle:
        render_markdown(report, handle)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for c in result.classes:
        recovered = ""
        if c.rule_recovered is not None:
            recovered = (" [ground truth recovered]" if c.rule_recovered
                         else " [ground truth NOT recovered]")
        print(f"{c.label}: {len(c.selection)} rule(s), "
              f"{len(c.prototypes)} prototype(s){recovered}")
    print(f"report written to {out} (markdown: {md})")
    print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    report = read_report(args.report)
    print(render_explanation(report, args.sample), end="")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    diagnostics = validate_dataset(args.dataset)
    if not diagnostics:
        print(f"{args.dataset}: OK")
        return EXIT_OK
    for diagnostic in diagnostics:
        print(f"{args.dataset}: {diagnostic}")
    print(f"{len(diagnostics)} validation error(s)")
    return EXIT_VALIDATION


def cmd_generate(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        samples_per_class=args.samples_per_class,
        objects_min=args.objects[0],
        objects_max=args.objects[1],
        seed=args.seed,
        confounded=args.confounded,
    )
    out = Path(args.output)
    # out.with_suffix(".rules.jsonl"), also for an --output with no name,
    # which _check_outputs then refuses as a directory
    rules_path = (Path(args.ground_truth) if args.ground_truth
                  else out.parent / f"{out.stem}.rules.jsonl")
    _check_outputs(args.output, {},
                   {"dataset": args.output, "ground-truth rules": args.ground_truth or rules_path})
    dataset, rules = generate_clevr_hans3(config)
    with _writing(out):
        write_dataset(dataset, out)
    with _writing(rules_path):
        write_ground_truth(rules, dataset.vocabulary, rules_path)
    print(f"wrote {len(dataset)} samples over {len(dataset.by_label)} classes to {out}")
    print(f"ground-truth rules: {rules_path}")
    return EXIT_OK


def cmd_convert(args: argparse.Namespace) -> int:
    _check_outputs(args.output, {"matrix": args.matrix}, {"dataset": args.output})
    dataset = convert_attribute_matrix(args.matrix, grouping=args.grouping,
                                       threshold=args.threshold)
    with _writing(args.output):
        write_dataset(dataset, args.output)
    print(f"wrote {len(dataset)} samples over {len(dataset.by_label)} classes "
          f"to {args.output}")
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    _load_ranker()
    from .selftest import run_selftest
    results = run_selftest(cases=args.budget, seed=args.seed)
    failed = 0
    for name, cases, failures in results:
        status = "PASS" if failures == 0 else "FAIL"
        print(f"{status} {name} ({cases} cases, {failures} failures)")
        failed += failures
    return EXIT_OK if failed == 0 else EXIT_INTERNAL


# ----------------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semproto",
        description="Mine set-of-sets class rules and pick prototype samples.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {_version()}")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{run,explain,validate,generate,convert,selftest}")

    p_run = sub.add_parser("run", help="mine rules and prototypes, write a report")
    p_run.add_argument("--dataset", required=True, help="dataset file (JSON lines)")
    p_run.add_argument("--class", dest="class_filter", default=None,
                       help="restrict to one class label")
    p_run.add_argument("--max-prototypes", type=int, default=None,
                       help="max rules (and prototypes) per class; default: cover all")
    p_run.add_argument("--distance", choices=METRICS, default="edit",
                       help="prototype distance metric (default: edit)")
    p_run.add_argument("--unmatched-cost", choices=UNMATCHED_COST_MODES, default="attrs",
                       help="cost of sample entities the rule does not use")
    p_run.add_argument("--seed", type=int, default=0,
                       help="echoed into the report; mining itself is deterministic")
    p_run.add_argument("--parallelism", type=int, default=1,
                       help="accepted for compatibility (N >= 1); mining runs in one process")
    p_run.add_argument("--ground-truth", default=None,
                       help="rules file to compare the top rule per class against")
    p_run.add_argument("--output", required=True, help="report path (JSON)")
    p_run.set_defaults(func=cmd_run)

    p_explain = sub.add_parser("explain", help="explain one prototype from a report")
    p_explain.add_argument("--report", required=True, help="report written by 'run'")
    p_explain.add_argument("--sample", required=True, help="prototype sample id")
    p_explain.set_defaults(func=cmd_explain)

    p_validate = sub.add_parser("validate", help="validate a dataset file")
    p_validate.add_argument("--dataset", required=True)
    p_validate.set_defaults(func=cmd_validate)

    p_generate = sub.add_parser("generate", help="generate the synthetic scene dataset")
    p_generate.add_argument("--samples-per-class", type=int, default=200)
    p_generate.add_argument("--objects", type=int, nargs=2, default=[3, 10],
                            metavar=("MIN", "MAX"),
                            help="objects per scene range (default: 3 10)")
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.add_argument("--confounded", action="store_true",
                            help="add the shortcut attributes to witness objects")
    p_generate.add_argument("--ground-truth", default=None,
                            help="where to write the rules (default: <output>.rules.jsonl)")
    p_generate.add_argument("--output", required=True, help="dataset path")
    p_generate.set_defaults(func=cmd_generate)

    p_convert = sub.add_parser("convert", help="convert an attribute matrix to a dataset")
    p_convert.add_argument("--matrix", required=True,
                           help="CSV/TSV of (sample_id, attribute, value[, label])")
    p_convert.add_argument("--grouping", choices=GROUPINGS, default="whole")
    p_convert.add_argument("--threshold", type=float, default=1.0,
                           help="keep attributes with value >= threshold (default 1.0)")
    p_convert.add_argument("--output", required=True, help="dataset path")
    p_convert.set_defaults(func=cmd_convert)

    p_selftest = sub.add_parser("selftest", help="run the oracle cross-check batteries")
    p_selftest.add_argument("--budget", type=int, default=1000,
                            help="cases per property battery (at least 1)")
    p_selftest.add_argument("--seed", type=int, default=0)
    p_selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except DatasetValidationError as exc:
        for diagnostic in exc.diagnostics:
            where = exc.source or "input"
            print(f"{where}: {diagnostic}", file=sys.stderr)
        print(f"error: {len(exc.diagnostics)} validation error(s)", file=sys.stderr)
        return EXIT_VALIDATION
    except SemprotoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def entry() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
