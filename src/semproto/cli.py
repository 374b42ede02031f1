"""Command line interface.

Subcommands: run (mine rules and prototypes, write a report), explain (render
one prototype's explanation from a report), validate (check a dataset file),
generate (synthesize the three-class scene dataset), convert (attribute matrix
to dataset).  Exit codes: 0 success, 2 validation or usage error, 3 internal
error.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

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
    try:
        return metadata.version("semproto")
    except metadata.PackageNotFoundError:  # pragma: no cover - editable quirk
        return "0.0.0"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    out = Path(args.output)
    if not out.name or out.suffix == ".md":
        raise ConfigError(f"--output {args.output!r} must name a file whose suffix is "
                          "not .md: the markdown report goes beside it with that suffix")
    md = out.with_suffix(".md")
    for what, given in (("dataset", args.dataset), ("ground truth", args.ground_truth)):
        if given and Path(given).resolve() in (out.resolve(), md.resolve()):
            raise ConfigError(f"--output {args.output!r} would overwrite the {what} "
                              f"{given!r} with a report")
    # Accepted and checked, but mining always runs in one process.
    if args.parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {args.parallelism}")
    dataset_path = Path(args.dataset)
    dataset = load_dataset(dataset_path)
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
    report = build_report(result, dataset,
                          dataset_path=str(dataset_path),
                          dataset_sha256=_sha256(dataset_path),
                          version=_version(),
                          class_filter=args.class_filter,
                          max_prototypes=args.max_prototypes,
                          distance=args.distance,
                          unmatched_cost=args.unmatched_cost,
                          seed=args.seed)
    out.write_text(serialize_report(report), encoding="utf-8")
    md.write_text(render_markdown(report), encoding="utf-8")
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
    dataset, rules = generate_clevr_hans3(config)
    out = Path(args.output)
    write_dataset(dataset, out)
    rules_path = Path(args.ground_truth) if args.ground_truth else out.with_suffix(".rules.jsonl")
    write_ground_truth(rules, dataset.vocabulary, rules_path)
    print(f"wrote {len(dataset)} samples over {len(dataset.label_index)} classes to {out}")
    print(f"ground-truth rules: {rules_path}")
    return EXIT_OK


def cmd_convert(args: argparse.Namespace) -> int:
    dataset = convert_attribute_matrix(args.matrix, grouping=args.grouping,
                                       threshold=args.threshold)
    write_dataset(dataset, args.output)
    print(f"wrote {len(dataset)} samples over {len(dataset.label_index)} classes "
          f"to {args.output}")
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
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
        metavar="{run,explain,validate,generate,convert}")

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

    # Undocumented: the oracle cross-check batteries of selftest.py, which the
    # oracle tests in tests/ also run.
    p_selftest = sub.add_parser("selftest")
    p_selftest.add_argument("--budget", type=int, default=1000,
                            help="cases per property battery")
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
