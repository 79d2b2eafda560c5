"""Benchmark runner: per-cell solves, SGM10 timing, geometric-mean gaps."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, fields

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
    """A method of a sweep, and the one place that tells the solvers apart."""

    name: str  # "pdot" or "sinkhorn"
    penalty: float | None = None  # Sinkhorn's; None leaves the config default

    def config(self, **settings) -> SolverConfig | SinkhornConfig:
        """This method's config from the given settings and the config's defaults.

        A setting given as None, or not a field of this method's config (such
        as ``beta`` for Sinkhorn), is left out.
        """
        cls = SolverConfig if self.name == "pdot" else SinkhornConfig
        names = {f.name for f in fields(cls)}
        given = {"penalty": self.penalty, **settings}
        return cls(**{k: v for k, v in given.items() if k in names and v is not None})

    def run(self, prob: OTProblem, cfg) -> SolveReport:
        # Each method's gap is measured against its own duals, mirroring how the
        # trade-off between the solvers is usually reported.
        if self.name == "pdot":
            return solve(prob, cfg)[1]
        return sinkhorn_solve(prob, cfg)[2]

    def label(self, cfg) -> str:
        return "pdot" if self.name == "pdot" else f"sinkhorn({cfg.penalty!r})"


def parse_methods(methods_csv: str) -> list[MethodSpec]:
    """Parse a methods list like ``pdot,sinkhorn:0.01,sinkhorn``."""
    specs = []
    for token in methods_csv.split(","):
        token = token.strip()
        if not token:
            continue
        if token in ("pdot", "sinkhorn"):
            specs.append(MethodSpec(token))
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


def run_bench(instance_paths, methods_csv: str = "pdot", tol: float | None = None,
              time_limit_s: float | None = None, deterministic: bool = False) -> BenchSummary:
    """Run every (instance, method) cell and aggregate per-method metrics.

    ``tol`` and ``time_limit_s`` left as None take each method's config
    default, and ``deterministic`` writes every wall time as 0.0. Unreadable
    or malformed instance files are recorded in ``missing`` and skipped. A
    solver ``RuntimeError`` is recorded in ``failed`` and its cell kept as
    unsolved with ``termination_reason="numerical_failure"`` and no objective
    or gap. Per the reporting protocol, every cell's objective and gap come
    from the rounded feasible plan, unsolved cells enter SGM10 at their
    method's time limit, and the geometric-mean gap is taken over the cells
    that have a gap (``None`` if none do).
    """
    # Built before any solve, so a bad setting or a repeated method fails
    # before the sweep starts.
    methods = {}
    for spec in parse_methods(methods_csv):
        cfg = spec.config(tol=tol, time_limit_s=time_limit_s)
        label = spec.label(cfg)
        if label in methods:
            raise ValueError(f"method {label} given twice")
        methods[label] = (spec, cfg)
    summary = BenchSummary()
    for path in instance_paths:
        name = str(path)
        try:
            prob = load_instance(path)
        except (OSError, InstanceError) as exc:
            summary.missing.append(f"{name}: {exc}")
            continue
        for label, (spec, cfg) in methods.items():
            start = time.perf_counter()
            try:
                report = spec.run(prob, cfg)
            except RuntimeError as exc:
                summary.failed.append(f"{name} {label}: {exc}")
                # An unsolved cell: its solver left no iterate to report on.
                elapsed = time.perf_counter() - start
                report = SolveReport(spec.name, False, elapsed, "numerical_failure",
                                     config_echo=asdict(cfg))
            if deterministic:
                report.wall_time_s = 0.0
            summary.cells.append(BenchCell(name, label, getattr(cfg, "penalty", None), report))
    for label, (_, cfg) in methods.items():
        rows = [c for c in summary.cells if c.method == label]
        if not rows:
            continue
        times = [c.report.wall_time_s for c in rows]
        solved = [c.report.solved for c in rows]
        gaps = [c.report.duality_gap for c in rows if c.report.duality_gap is not None]
        summary.groups[label] = {
            "sgm10_time": sgm10(times, solved, cfg.time_limit_s),
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
