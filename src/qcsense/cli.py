"""Command-line surface: reproducible analyses with versioned JSON reports.

Every subcommand reads its inputs, runs the corresponding library
routines, and emits a single JSON report on stdout (optionally also to a
file).  Reports are deterministic: sorted keys, no timestamps, explicit
seeds and generator names, and a content digest of each input, so
re-running a command with identical inputs yields byte-identical output.

Exit codes: 0 on success, 1 when --strict escalates analysis warnings,
2 on usage or input errors (diagnostics go to stderr; stdout stays
machine-readable).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

from . import __version__
from .central import completeness_test
from .estimator import (
    GENERATOR_NAME,
    compute_Lk,
    d_hat_low,
    decide_dimension,
    subsample_functions,
    subsample_points,
)
from .geometry import RegularPairSpec, sample_pair
from .ingest import DataMatrix, load_matrix
from .interleave import interleaving_distance

SCHEMA = 2


def _positive_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return x


def _positive_int(text: str) -> int:
    try:
        x = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if x < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return x


def _nonneg_int(text: str) -> int:
    try:
        x = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if x < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return x


def _load_input(path_str: str) -> tuple[DataMatrix, str]:
    """Read a CSV input; returns the matrix and a sha256 content digest."""
    data = Path(path_str).read_bytes()
    digest = "sha256:" + hashlib.sha256(data).hexdigest()
    return load_matrix(data), digest


def _report(command: str, params: dict, input_digest, seed, result, warnings) -> dict:
    return {
        "schema": SCHEMA,
        "tool": "qcsense",
        "version": __version__,
        "command": command,
        "params": params,
        "input_digest": input_digest,
        "seed": seed,
        "generator": GENERATOR_NAME if seed is not None else None,
        "warnings": list(warnings),
        "result": result,
    }


def _emit(report: dict, output: str | None, strict: bool) -> int:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if output:  # first, so a failed write leaves stdout empty
        Path(output).write_text(text)
    sys.stdout.write(text)
    if strict and report["warnings"]:
        return 1
    return 0


def _stderr_progress(label: str, total: int):
    step = max(1, total // 10)

    def cb(done: int, _total: int):
        if done % step == 0 or done == total:
            print(f"{label}: {done}/{total} replicates", file=sys.stderr)

    return cb


def cmd_analyze(args) -> int:
    matrix, digest = _load_input(args.input)
    profile = compute_Lk(matrix, d_up=args.dup, per_column=args.per_column)
    estimate = d_hat_low(profile, args.epsilon)
    result = {
        "m": profile.m,
        "n": profile.n,
        "d_up": profile.d_up,
        "epsilon": args.epsilon,
        "L": list(profile.L),
        "d_hat_low": int(estimate),
        "flags": list(estimate.flags),
    }
    if args.per_column:
        result["per_column"] = {
            str(a): list(lengths.lengths) for a, lengths in profile.per_column.items()
        }
    params = {
        "input": args.input,
        "dup": profile.d_up,
        "epsilon": args.epsilon,
        "per_column": bool(args.per_column),
    }
    report = _report("analyze", params, digest, None, result, matrix.warnings)
    return _emit(report, args.output, args.strict)


def cmd_subsample(args) -> int:
    matrix, digest = _load_input(args.input)
    progress = _stderr_progress(f"subsample[{args.mode}]", args.reps)
    runner = subsample_points if args.mode == "points" else subsample_functions
    res = runner(
        matrix,
        args.size,
        args.reps,
        d_up=args.dup,
        seed=args.seed,
        progress=progress,
    )
    verdict = decide_dimension(res.boxplots)

    csv_path = args.replicates_csv
    if csv_path is None and args.output:
        p = Path(args.output)
        csv_path = str(p.with_name(p.stem + ".replicates.csv"))
    if csv_path is not None:
        Path(csv_path).write_text(res.replicates_csv())

    result = {
        "mode": res.mode,
        "subsample_size": res.subsample_size,
        "reps": res.reps,
        "d_up": res.d_up,
        "boxplots": {str(k): bp.to_json_obj() for k, bp in sorted(res.boxplots.items())},
        "verdict": int(verdict),
        "verdict_flags": list(verdict.flags),
        "replicates_csv": csv_path,
    }
    params = {
        "input": args.input,
        "mode": args.mode,
        "size": args.size,
        "reps": args.reps,
        "dup": res.d_up,
        "seed": args.seed,
    }
    report = _report("subsample", params, digest, args.seed, result, matrix.warnings)
    try:
        return _emit(report, args.output, args.strict)
    except OSError:  # a failed command leaves no file behind
        if csv_path is not None:
            Path(csv_path).unlink(missing_ok=True)
        raise


def cmd_central(args) -> int:
    matrix, digest = _load_input(args.input)
    res = completeness_test(matrix, threshold=args.threshold)
    result = res.to_json_obj()
    result["m"] = matrix.m
    result["n"] = matrix.n
    params = {"input": args.input, "threshold": args.threshold}
    report = _report("central", params, digest, None, result, matrix.warnings)
    return _emit(report, args.output, args.strict)


def cmd_generate(args) -> int:
    if args.family == "linear":
        spec = RegularPairSpec.random_linear(args.d, args.m, args.seed)
    else:
        spec = RegularPairSpec.random_quadratic(args.d, args.m, args.seed)
    cloud, matrix = sample_pair(spec, args.n)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    spec_path = outdir / "spec.json"
    matrix_path = outdir / "matrix.csv"
    cloud_path = outdir / "cloud.csv"
    spec_path.write_text(json.dumps(spec.to_json_obj(), sort_keys=True, indent=2) + "\n")
    matrix_path.write_text(matrix.to_csv())
    cloud_path.write_text(
        "\n".join(",".join(repr(float(x)) for x in row) for row in cloud.points) + "\n"
    )
    params = {
        "family": args.family,
        "d": args.d,
        "m": args.m,
        "n": args.n,
        "seed": args.seed,
        "outdir": args.outdir,
    }
    digest = "sha256:" + hashlib.sha256(
        json.dumps(params, sort_keys=True).encode()
    ).hexdigest()
    result = {
        "files": {
            "spec": str(spec_path),
            "matrix": str(matrix_path),
            "cloud": str(cloud_path),
        },
        "shape": {"m": matrix.m, "n": matrix.n, "d": cloud.d},
        "matrix_digest": "sha256:"
        + hashlib.sha256(matrix_path.read_bytes()).hexdigest(),
    }
    report = _report("generate", params, digest, args.seed, result, matrix.warnings)
    return _emit(report, args.output, args.strict)


def cmd_interleave(args) -> int:
    matrix_a, digest_a = _load_input(args.a)
    matrix_b, digest_b = _load_input(args.b)
    skeleton = None if args.dup is None else args.dup + 1
    res = interleaving_distance(matrix_a, matrix_b, skeleton=skeleton)
    params = {"a": args.a, "b": args.b, "dup": args.dup}
    report = _report(
        "interleave",
        params,
        {"a": digest_a, "b": digest_b},
        None,
        res.to_json_obj(),
        tuple(matrix_a.warnings) + tuple(matrix_b.warnings),
    )
    return _emit(report, args.output, args.strict)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", help="also write the JSON report to this path")
    sub.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when the report carries analysis warnings",
    )


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.  Each
    `cmd_*` resolves the library functions it calls when it runs."""
    parser = argparse.ArgumentParser(
        prog="qcsense",
        description=(
            "Infer the intrinsic dimension a family of unknown quasi-convex "
            "functions can sense, from a measurement matrix alone."
        ),
    )
    parser.add_argument("--version", action="version", version=f"qcsense {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="maximal persistence lengths and dimension bound")
    p.add_argument("--input", required=True, help="CSV measurement matrix (rows = functions)")
    p.add_argument("--dup", type=_nonneg_int, default=None, help="top homology dimension")
    p.add_argument("--epsilon", type=_positive_float, default=0.05, help="signal threshold")
    p.add_argument("--per-column", action="store_true", help="report per-column lengths")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("subsample", help="replicate L-vectors over random subsamples")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("points", "functions"), required=True)
    p.add_argument("--size", type=_positive_int, required=True, help="subsample size")
    p.add_argument("--reps", type=_positive_int, default=100)
    p.add_argument("--dup", type=_nonneg_int, default=None)
    p.add_argument("--seed", type=int, default=0)
    # Ignored: replicates run one after another.  perfbench's subsample
    # jobs still pass it; the line goes when they stop.
    p.add_argument("--threads", type=_positive_int, default=None)
    p.add_argument("--replicates-csv", help="path for the raw replicate CSV")
    _add_common(p)
    p.set_defaults(func=cmd_subsample)

    p = subs.add_parser("central", help="discretized central region and completeness test")
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=_positive_float, default=0.05)
    _add_common(p)
    p.set_defaults(func=cmd_central)

    p = subs.add_parser("generate", help="sample a synthetic function family and matrix")
    p.add_argument("--family", choices=("linear", "quadratic"), required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("interleave", help="interleaving distance between two matrices")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--dup", type=_nonneg_int, default=None, help="truncate to this homology dimension")
    _add_common(p)
    p.set_defaults(func=cmd_interleave)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
