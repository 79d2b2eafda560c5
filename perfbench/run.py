"""otsolve benchmark: time whole solves from outside and check every answer.

    python3 perfbench/run.py --workload pdot-grid16 --seed 1 --seconds 20 --trace 0

Run from the repository root. One process solves one problem at a time (a
closed loop with one client) through the public entry points
``otsolve.solve`` and ``otsolve.sinkhorn_solve``. Passes over the workload's
problems repeat until ``--seconds`` is spent (the first pass always runs to
the end); the ``--seed`` sets the order of each pass. Every answer is checked
against the HiGHS optimum cached in ``reference.json``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see spans.py) and the tracing overhead. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. Spans, full results and determinism records go to ``perfbench/out``.
"""

import os

# Pin the BLAS pool before numpy is loaded; the program may still start
# threads of its own.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

TIME_QUANTILE = 0.9
SETUP_REPEATS = 15
SETUP_MIN_S = 1.0
MARGINAL_TOL = 1e-12
# A feasible plan cannot beat the optimum by more than HiGHS's own tolerance.
BELOW_OPTIMUM_TOL = 1e-7
REFERENCE_TIMEOUT_S = 150
# No solve starts once this many seconds have passed since start-up.
RUN_BUDGET_S = 140
STARTED = time.perf_counter()


def import_program():
    """Import otsolve from this checkout's src/, or stop without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import otsolve
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import otsolve from {SRC}: {exc}")
    if Path(otsolve.__file__).resolve().parent != SRC / "otsolve":
        sys.exit(f"perfbench: imported otsolve from {otsolve.__file__}, not from {SRC}")
    return otsolve


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


@dataclass
class Outcome:
    """One timed solve and the verdict of its checks."""

    label: str
    seconds: float
    error: str | None = None  # None when every check passed
    wrong: bool = False  # the solver answered, and the answer failed a check
    iterations: int | None = None
    restarts: int | None = None
    objective: float | None = None
    gap: float | None = None
    rel_err: float | None = None

    def signature(self):
        return (self.iterations, self.restarts, self.objective, self.gap)


class Bench:
    def __init__(self, otsolve, workload, problems, optima):
        self.ot = otsolve
        self.w = workload
        self.problems = problems
        self.optima = optima
        self.run_deadline = STARTED + RUN_BUDGET_S

    def solve(self, i: int, tracer=None) -> Outcome:
        """Time one solve from outside, then check its answer (untimed)."""
        case, prob = self.w.cases[i], self.problems[i]
        cfg = case.config(self.w.time_limit_s)
        fn = self.ot.solve if case.method == "pdot" else self.ot.sinkhorn_solve
        out = Outcome(case.label, self.w.time_limit_s)
        start = time.perf_counter()
        try:
            if tracer is None:
                result = fn(prob, cfg)
            else:
                tracer.solve_id = i
                result = tracer.call(spans.ROOT_SOLVE[case.method], fn, prob, cfg)
        except RuntimeError as exc:
            out.error = f"raised RuntimeError: {exc}"
            return out
        out.seconds = time.perf_counter() - start
        X = result[0].X if case.method == "pdot" else result[0]
        report = result[-1]
        out.iterations, out.restarts = report.iterations, report.restarts
        out.objective, out.gap = report.rounded_objective, report.duality_gap
        out.rel_err = (out.objective - self.optima[case.label]) / self.optima[case.label]
        if not report.solved:
            out.error = f"unsolved: {report.termination_reason}"
        elif out.seconds > self.w.time_limit_s:
            out.error = f"took {out.seconds:.3f} s, over the {self.w.time_limit_s} s limit"
        else:
            out.error = self.check(prob, X, out)
            out.wrong = out.error is not None
        return out

    def check(self, prob, X, out: Outcome) -> str | None:
        plan = self.ot.rounding.round_to_feasible(prob, X)
        if not np.all(plan >= 0.0):
            return "rounded plan has a negative entry"
        off = max(float(np.abs(plan.sum(axis=1) - prob.f).max()),
                  float(np.abs(plan.sum(axis=0) - prob.g).max()))
        if off > MARGINAL_TOL:
            return f"rounded plan misses a marginal by {off:.3g}"
        objective = float(np.vdot(prob.C, plan))
        if abs(objective - out.objective) > 1e-12 * abs(objective):
            return f"reported objective {out.objective!r} != rounded plan's {objective!r}"
        if out.rel_err > self.w.rel_err_tol:
            return f"rel_obj_err {out.rel_err:.3g} over {self.w.rel_err_tol:g}"
        if out.rel_err < -BELOW_OPTIMUM_TOL:
            return f"objective below the exact optimum (rel {out.rel_err:.3g})"
        return None

    def measure(self, seconds: float, rng, tracer=None) -> list:
        """Outcomes per problem: whole passes in a seeded order until time runs out.

        The first pass always completes; after it, a solve starts only if its
        median time so far still fits before the deadline.
        """
        samples = [[] for _ in self.w.cases]
        deadline = time.perf_counter() + seconds
        first = True
        while True:
            for i in rng.permutation(len(samples)):
                if not first:
                    expected = statistics.median(o.seconds for o in samples[i])
                    if time.perf_counter() + expected > deadline:
                        return samples
                if time.perf_counter() > self.run_deadline:
                    # Keeps a run of a badly broken build within its time budget.
                    samples[i].append(Outcome(self.w.cases[i].label, self.w.time_limit_s,
                                              "skipped: the run's time budget is spent"))
                else:
                    samples[i].append(self.solve(i, tracer))
            first = False


def problem_seconds(runs, quantile: float = TIME_QUANTILE) -> float:
    """A problem's time: a quantile of its solve times, the 90th by default.

    On a shared host the speed jumps up by 25-30% for tens of seconds at a
    time. Those fast episodes come and go between runs, while the upper end
    of the solve times repeats, so the 90th percentile spreads least from
    run to run (the median spread up to three times as much).
    """
    return float(np.quantile([o.seconds for o in runs], quantile))


def mark_nondeterminism(samples, baseline=None) -> None:
    """Every solve of a problem must agree bit for bit with its first solve.

    With ``baseline`` (an earlier measurement of the same problems), every
    solve must agree with the baseline's first solve instead.
    """
    for i, runs in enumerate(samples):
        want = (baseline[i] if baseline is not None else runs)[0].signature()
        for o in runs:
            if o.error is None and o.signature() != want:
                o.error = f"nondeterministic: {o.signature()} != {want}"
                o.wrong = True


def summarize(ot, workload, samples, baseline=None) -> dict:
    """End-to-end figures of one measurement, paper protocol via otsolve.bench."""
    mark_nondeterminism(samples, baseline)
    times = [problem_seconds(runs) for runs in samples]
    ok = [all(o.error is None for o in runs) for runs in samples]
    firsts = [runs[0] for runs in samples if runs[0].iterations is not None]
    outcomes = [o for runs in samples for o in runs]
    return {
        "sgm10_s": ot.bench.sgm10(times, ok, workload.time_limit_s),
        "sgm10_median_s": ot.bench.sgm10([problem_seconds(runs, 0.5) for runs in samples], ok,
                                         workload.time_limit_s),
        "iterations": sum(o.iterations for o in firsts),
        "restarts": sum(o.restarts for o in firsts),
        "rel_obj_err": max((o.rel_err for o in firsts), default=None),
        "geomean_gap": ot.bench.geomean_gap([o.gap for o in firsts]) if firsts else None,
        "attempted": len(outcomes),
        "failed": sum(o.error is not None for o in outcomes),
        "wrong": sum(o.wrong for o in outcomes),
        "errors": [f"{o.label}: {o.error}" for o in outcomes if o.error is not None],
        "solves_per_problem": [len(runs) for runs in samples],
        "p90_s_per_problem": times,
        "solve_s_per_problem": [[o.seconds for o in runs] for runs in samples],
    }


def time_setup(workload):
    """Median wall time of building the workload's problems, and the problems.

    The build repeats at least SETUP_REPEATS times and for at least
    SETUP_MIN_S seconds, so a set-up of a few milliseconds gets many samples.
    """
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        start = time.perf_counter()
        problems = workload.build()
        times.append(time.perf_counter() - start)
    return statistics.median(times), problems


def reference_optima(workload) -> dict:
    """Exact optima for the workload's problems, computed in a child process if stale."""
    import scipy

    import reference
    from workloads import INSTANCE_SEED

    labels = [c.label for c in workload.cases]
    local = OUT / f"reference-{workload.name}.json"
    for path in (reference.CACHE, local):
        optima = reference.lookup(path, labels, scipy.__version__, INSTANCE_SEED)
        if optima is not None:
            return optima
    print(f"computing HiGHS references for {workload.name} into {local.relative_to(ROOT)}")
    subprocess.run(
        [sys.executable, str(HERE / "reference.py"), "--workload", workload.name,
         "--out", str(local)],
        check=True, timeout=REFERENCE_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )
    optima = reference.lookup(local, labels, scipy.__version__, INSTANCE_SEED)
    if optima is None:
        sys.exit("perfbench: the reference computation did not cover every problem")
    return optima


def warm_up(ot, workload) -> None:
    """Run each solver configuration once on a 3x3 problem so lazy set-up is done."""
    C = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
    prob = ot.OTProblem(ot.CostMatrix(C), ot.Marginal([1.0, 2.0, 3.0]),
                        ot.Marginal([3.0, 2.0, 1.0]))
    for case in {(c.method, tuple(sorted(c.options.items()))): c for c in workload.cases}.values():
        cfg = case.config(workload.time_limit_s)
        try:
            (ot.solve if case.method == "pdot" else ot.sinkhorn_solve)(prob, cfg)
        except RuntimeError:
            pass  # the timed solves meet it again and count it as a failure


def source_hash() -> str:
    """Hash of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "otsolve").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_caches() -> dict:
    """Per-core cache sizes in bytes by level, from sysfs."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and size and kind in ("Unified", "Data") and size[-1] in "KM":
            sizes[f"L{level}"] = int(size[:-1]) * (1024 if size[-1] == "K" else 1024 ** 2)
    return sizes


def environment(seed: int) -> dict:
    import scipy

    from workloads import WORKLOADS

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor() or "unknown")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    caches = cpu_caches()
    l2 = caches.get("L2")
    return {
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "git_commit": commit,
        "source_sha256": source_hash(),
        "seed": seed,
        "plan_bytes_vs_l2": {
            w.name: {"plan_bytes": max(c.plan_bytes() for c in w.cases), "l2_bytes": l2,
                     "fits": None if l2 is None else max(c.plan_bytes() for c in w.cases) <= l2}
            for w in WORKLOADS.values()
        },
    }


def check_repeatable(workload_name: str, section: str, values: dict) -> str | None:
    """Compare ``values`` with what an earlier run of this source recorded."""
    path = OUT / f"determinism-{workload_name}.json"
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = {}
    key = source_hash()
    earlier = record.setdefault(key, {}).get(section)
    if earlier is not None:
        diff = {k: (earlier.get(k), v) for k, v in values.items() if earlier.get(k) != v}
        return f"differs from an earlier run of this source: {diff}" if diff else None
    record[key][section] = values
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return None


def print_outcomes(samples) -> None:
    for runs in samples:
        o = runs[0]
        status = "ok" if all(r.error is None for r in runs) else "FAILED"
        print(f"  {o.label:22s} {problem_seconds(runs):9.4f} s x{len(runs):<3d} "
              f"it {o.iterations!s:>7} "
              f"restarts {o.restarts!s:>5} rel_err {o.rel_err!s:>24} gap {o.gap!s:>24} "
              f"{status}")


def print_anchor(anchor_us: dict, stats, metrics: dict) -> None:
    """Per-call times beside the ROADMAP re-anchor figures (which include children)."""
    parts = []
    for key, span in (("pdhg_step", "pdhg.pdhg_step"), ("stepsize_bound", "pdhg.stepsize_bound"),
                      ("kkt_error", "kkt.kkt_error")):
        own, total = stats.per_call_us(span)
        parts.append(f"{key} {anchor_us[key]:g} -> self {own:.1f}, inclusive {total:.1f}")
    parts[-1] += f", {metrics['kkt.per_iter'][0]:.2f} calls/iter"
    parts.append(f"loop {anchor_us['loop']:g} -> self "
                 f"{metrics['pdhg.loop_self_us_per_iter'][0]:.1f} per iter")
    print("us per call, ROADMAP re-anchor -> now: " + "; ".join(parts))


def trace_layers(ot, workload, bench, rng, plain, samples):
    """One traced pass: per-layer metrics and the pass's own summary.

    The problems are built again under tracing, so the set-up shows as the
    instance layer. Every traced solve must match the untraced one exactly.
    """
    tracer = spans.Tracer()
    tracer.install()
    try:
        bench.problems = tracer.call(spans.ROOT_SETUP, workload.build)
        traced_samples = bench.measure(0.0, rng, tracer)
    finally:
        tracer.uninstall()
    traced = summarize(ot, workload, traced_samples, baseline=samples)
    stats = spans.SpanStats(tracer)
    tracer.save(OUT / f"spans-{workload.name}.npz")
    firsts = [(runs[0], c.method) for runs, c in zip(traced_samples, workload.cases)
              if runs[0].iterations is not None]
    pdot_iters = sum(o.iterations for o, method in firsts if method == "pdot")
    sk_iters = sum(o.iterations for o, method in firsts if method == "sinkhorn")
    restarts = sum(o.restarts for o, method in firsts if method == "pdot")
    metrics = spans.layer_metrics(stats, pdot_iters, sk_iters, restarts)
    # One traced solve per problem, so compare it with the untraced median.
    metrics["trace.overhead_frac"] = (traced["sgm10_s"] / plain["sgm10_median_s"] - 1.0,
                                      "fraction")
    traced["counts"] = {k: v for k, (v, unit) in metrics.items()
                        if unit == "calls/iter" or k == "pdhg.restarts"}
    print(f"traced pass: {sum(stats.calls.values())} spans, traced sgm10 "
          f"{traced['sgm10_s']!r} s vs untraced median {plain['sgm10_median_s']!r} s")
    if stats.absent:
        print(f"absent functions: {sorted(stats.absent)}")
    if workload.anchor_us:
        print_anchor(workload.anchor_us, stats, metrics)
    return metrics, traced


def run(args) -> dict:
    declared = declared_metrics()
    ot = sys.modules["otsolve"]
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    setup_s, problems = time_setup(workload)
    optima = reference_optima(workload)
    warm_up(ot, workload)
    bench = Bench(ot, workload, problems, optima)
    rng = np.random.default_rng(args.seed)

    measured = args.seconds / 2 if args.trace else args.seconds
    samples = bench.measure(measured, rng)
    plain = summarize(ot, workload, samples)
    print(f"{workload.name}: {len(workload.cases)} problems, {plain['attempted']} solves "
          f"(closed loop, 1 client), time limit {workload.time_limit_s} s per solve")
    print_outcomes(samples)
    repeat_values = {k: plain[k] for k in ("iterations", "restarts", "rel_obj_err",
                                          "geomean_gap")}
    errors = list(plain["errors"])
    # Disagreements with an earlier run of the same sources.
    unrepeated = [check_repeatable(workload.name, "end_to_end", repeat_values)]
    result = {"env": env, "workload": workload.name, "trace": args.trace,
              "untraced": plain, "setup_s": setup_s}

    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "sgm10_s": (plain["sgm10_s"], "s"),
            "iterations": (plain["iterations"], "count"),
            "rel_obj_err": (plain["rel_obj_err"], "ratio"),
            "geomean_gap": (plain["geomean_gap"], "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        attempted, failed, wrong = plain["attempted"], plain["failed"], plain["wrong"]
    else:
        metrics, traced = trace_layers(ot, workload, bench, rng, plain, samples)
        errors += traced["errors"]
        unrepeated.append(check_repeatable(workload.name, "trace", traced["counts"]))
        result["traced"] = traced
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        wrong = plain["wrong"] + traced["wrong"]

    unrepeated = [f"determinism: {p}" for p in unrepeated if p]
    errors += unrepeated
    failed = min(attempted, failed + len(unrepeated))
    wrong += len(unrepeated)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value!r} {unit}")
    print(f"{'fail_rate':34s} {failed / attempted!r} fraction ({failed} of {attempted})")
    for e in errors:
        print(f"FAILED {e}")

    want = declared[args.trace]
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        sys.exit(f"perfbench: metrics {got} do not match BENCHMARK.json {want}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["errors"] = errors
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": result["metrics"]}


def main(argv=None) -> int:
    import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    summary = run(args)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
