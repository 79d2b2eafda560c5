"""Command-line front end: solve, gen, bench."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import MethodSpec, run_bench, write_summary_csv, write_summary_json
from .instance import (
    GRID_COST_KINDS,
    InstanceError,
    SYNTH_CLASSES,
    grid_problem,
    load_instance,
    save_instance,
)
from .pdhg import ADAPTIVE, FIXED_BETA


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="otsolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance and write a JSON report")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--method", required=True, choices=["pdot", "sinkhorn"])
    p_solve.add_argument("--tol", type=float)
    p_solve.add_argument("--time-limit", type=float)
    p_solve.add_argument("--penalty", type=float, help="sinkhorn regularization penalty")
    p_solve.add_argument("--restart", choices=[ADAPTIVE, FIXED_BETA])
    p_solve.add_argument("--beta", type=float, help="fixed-mode restart decay factor")
    p_solve.add_argument("--deterministic", action="store_true",
                         help="byte-stable reports (wall time reported as 0.0)")
    p_solve.add_argument("--out", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic grid instance file")
    p_gen.add_argument("--class", dest="klass", required=True, choices=list(SYNTH_CLASSES))
    p_gen.add_argument("--resolution", type=int, required=True)
    p_gen.add_argument("--norm", required=True, choices=list(GRID_COST_KINDS))
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", help="run a method sweep over an instance directory")
    p_bench.add_argument("--instances", required=True, help="directory of *.txt instance files")
    p_bench.add_argument("--methods", required=True,
                         help="comma list, e.g. pdot,sinkhorn:0.01,sinkhorn:0.001")
    p_bench.add_argument("--summary", required=True, help="summary CSV path")
    p_bench.add_argument("--json", required=True, help="full JSON output path")
    p_bench.add_argument("--tol", type=float)
    p_bench.add_argument("--time-limit", type=float)
    p_bench.add_argument("--deterministic", action="store_true",
                         help="byte-stable summaries (wall times reported as 0.0)")
    return parser


def _cmd_solve(args) -> int:
    prob = load_instance(args.instance)
    # Settings not given are None, and the method's config takes its default.
    spec = MethodSpec(args.method, args.penalty)
    cfg = spec.config(
        tol=args.tol, time_limit_s=args.time_limit, restart_mode=args.restart, beta=args.beta
    )
    report = spec.run(prob, cfg)
    if args.deterministic:
        report.wall_time_s = 0.0
    Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
    print(
        f"{report.method}: solved={report.solved} iters={report.iterations} "
        f"objective={report.rounded_objective:.10g} gap={report.duality_gap:.4g} "
        f"-> {args.out}"
    )
    return 0


def _cmd_gen(args) -> int:
    prob = grid_problem(args.klass, args.resolution, args.norm, args.seed)
    save_instance(prob, args.out)
    print(f"wrote {args.klass} r={args.resolution} {args.norm} seed={args.seed} -> {args.out}")
    return 0


def _cmd_bench(args) -> int:
    paths = sorted(Path(args.instances).glob("*.txt"))
    if not paths:
        raise InstanceError(f"no *.txt instance files in {args.instances}")
    summary = run_bench(paths, args.methods, args.tol, args.time_limit, args.deterministic)
    write_summary_csv(summary, args.summary)
    write_summary_json(summary, args.json)
    for label, group in summary.groups.items():
        gap = group["geomean_gap"]
        print(
            f"{label}: solved {group['solved']}/{group['instances']} "
            f"sgm10={group['sgm10_time']:.4g}s "
            f"geomean_gap={'none' if gap is None else format(gap, '.4g')}"
        )
    for line in summary.missing:
        print(f"skipped: {line}", file=sys.stderr)
    for line in summary.failed:
        print(f"failed: {line}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"solve": _cmd_solve, "gen": _cmd_gen, "bench": _cmd_bench}
    try:
        return handlers[args.command](args)
    except (InstanceError, OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
