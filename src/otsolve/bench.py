"""Benchmark runner: per-cell solves, SGM10 timing, geometric-mean gaps."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .instance import InstanceError, OTProblem, load_instance
from .pdhg import SolverConfig, solve
from .reports import SolveReport
from .sinkhorn import SinkhornConfig, sinkhorn_solve

GAP_FLOOR = 1e-16
SGM_SHIFT = 10.0


def sgm10(times, solved, time_limit: float) -> float:
    """Shifted geometric mean of solve times with shift 10.

    Unsolved entries count as the time limit.
    """
    if len(times) == 0:
        raise ValueError("sgm10 of an empty list")
    if len(times) != len(solved):
        raise ValueError("times and solved must have equal length")
    adjusted = np.array([t if ok else time_limit for t, ok in zip(times, solved)])
    return float(np.exp(np.mean(np.log(adjusted + SGM_SHIFT))) - SGM_SHIFT)


def geomean_gap(gaps) -> float:
    """Unshifted geometric mean; zero gaps are floored at 1e-16."""
    if len(gaps) == 0:
        raise ValueError("geometric mean of an empty list")
    arr = np.maximum(np.asarray(gaps, dtype=np.float64), GAP_FLOOR)
    return float(np.exp(np.mean(np.log(arr))))


@dataclass
class MethodSpec:
    name: str  # "pdot" or "sinkhorn"
    penalty: float | None = None

    @property
    def label(self) -> str:
        if self.name == "pdot":
            return "pdot"
        return f"sinkhorn({self.penalty:g})"


def parse_methods(methods_csv: str, default_penalty: float = 0.001) -> list[MethodSpec]:
    """Parse a methods list like ``pdot,sinkhorn:0.01,sinkhorn:0.001``."""
    specs = []
    for token in methods_csv.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "pdot":
            specs.append(MethodSpec("pdot"))
        elif token == "sinkhorn":
            specs.append(MethodSpec("sinkhorn", default_penalty))
        elif token.startswith("sinkhorn:"):
            specs.append(MethodSpec("sinkhorn", float(token.split(":", 1)[1])))
        else:
            raise ValueError(f"unknown method {token!r}")
    if not specs:
        raise ValueError("no methods given")
    return specs


@dataclass
class BenchCell:
    instance: str
    method: str
    penalty: float | None
    report: SolveReport


@dataclass
class BenchSummary:
    cells: list = field(default_factory=list)
    groups: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    failed: list = field(default_factory=list)


def _method_config(spec: MethodSpec, tol, time_limit_s, deterministic):
    if spec.name == "pdot":
        return SolverConfig(tol=tol, time_limit_s=time_limit_s, deterministic=deterministic)
    return SinkhornConfig(
        penalty=spec.penalty, tol=tol, time_limit_s=time_limit_s, deterministic=deterministic
    )


def _run_cell(prob: OTProblem, spec: MethodSpec, cfg) -> SolveReport:
    # Each method's gap is measured against its own duals, mirroring how the
    # trade-off between the solvers is usually reported.
    if spec.name == "pdot":
        return solve(prob, cfg)[1]
    return sinkhorn_solve(prob, cfg)[2]


def _failed_report(spec: MethodSpec, cfg, elapsed: float) -> SolveReport:
    """An unsolved cell whose solver raised: it has no iterate to report on."""
    return SolveReport(
        method=spec.name,
        solved=False,
        wall_time_s=0.0 if cfg.deterministic else elapsed,
        iterations=None,
        restarts=None,
        final_relative_kkt=None,
        rounded_objective=None,
        duality_gap=None,
        termination_reason="numerical_failure",
        config_echo=asdict(cfg),
    )


def run_bench(
    instance_paths,
    methods_csv: str = "pdot",
    tol: float = 1e-4,
    time_limit_s: float = 3600.0,
    deterministic: bool = False,
) -> BenchSummary:
    """Run every (instance, method) cell and aggregate per-method metrics.

    Unreadable or malformed instance files are recorded in ``missing`` and
    skipped. A solver ``RuntimeError`` is recorded in ``failed`` and its cell
    kept as unsolved with ``termination_reason="numerical_failure"`` and no
    objective or gap. Per the reporting protocol, every cell's objective and
    gap come from the rounded feasible plan, unsolved cells enter SGM10 at the
    time limit, and the geometric-mean gap is taken over the cells that have
    a gap (``None`` if none do).
    """
    specs = parse_methods(methods_csv)
    # Built before any solve, so a bad setting fails before the sweep starts.
    configs = [_method_config(spec, tol, time_limit_s, deterministic) for spec in specs]
    summary = BenchSummary()
    for path in instance_paths:
        name = str(path)
        try:
            prob = load_instance(path)
        except (OSError, InstanceError) as exc:
            summary.missing.append(f"{name}: {exc}")
            continue
        for spec, cfg in zip(specs, configs):
            start = time.perf_counter()
            try:
                report = _run_cell(prob, spec, cfg)
            except RuntimeError as exc:
                summary.failed.append(f"{name} {spec.label}: {exc}")
                report = _failed_report(spec, cfg, time.perf_counter() - start)
            summary.cells.append(
                BenchCell(instance=name, method=spec.label, penalty=spec.penalty, report=report)
            )
    for spec in specs:
        rows = [c for c in summary.cells if c.method == spec.label]
        if not rows:
            continue
        times = [c.report.wall_time_s for c in rows]
        solved = [c.report.solved for c in rows]
        gaps = [c.report.duality_gap for c in rows if c.report.duality_gap is not None]
        summary.groups[spec.label] = {
            "sgm10_time": sgm10(times, solved, time_limit_s),
            "geomean_gap": geomean_gap(gaps) if gaps else None,
            "solved": int(sum(solved)),
            "instances": len(rows),
            "gap_floored": bool(gaps) and min(gaps) < GAP_FLOOR,
        }
    return summary


def write_summary_json(summary: BenchSummary, path) -> None:
    payload = {
        "cells": [
            {
                "instance": c.instance,
                "method": c.method,
                "penalty": c.penalty,
                "report": asdict(c.report),
            }
            for c in summary.cells
        ],
        "groups": summary.groups,
        "missing": summary.missing,
        "failed": summary.failed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_summary_csv(summary: BenchSummary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["instance", "method", "penalty", "time_s", "solved", "iterations",
             "relative_kkt", "objective", "gap"]
        )
        for c in summary.cells:
            writer.writerow(
                [
                    c.instance,
                    c.method,
                    "" if c.penalty is None else c.penalty,
                    c.report.wall_time_s,
                    c.report.solved,
                    c.report.iterations,
                    c.report.final_relative_kkt,
                    c.report.rounded_objective,
                    c.report.duality_gap,
                ]
            )
