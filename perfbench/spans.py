"""Span recording around the solver's layer functions, and per-layer metrics.

``Tracer.install`` replaces the functions the solver looks up at module
level with wrappers that record one span per call: name, start, end, parent
span and solve id. Spans are appended to flat arrays in memory (a pass of
``pdot-tiny`` records over a million) and written out once, at the end.
``Tracer.uninstall`` puts the original functions back.

A span's self time is its duration minus the durations of its direct
children. The benchmark opens a root span around each solve it times and
around each set-up, so a root's self time is the work of the loop itself:
averaging, norms, restarts and the interpreter.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (module, attribute, span name). Several modules may share one span name:
# pdhg.py and kkt.py each import apply_A, and both count as the operator layer.
TRACED = (
    ("otsolve.instance", "grid_problem", "instance.grid_problem"),
    ("otsolve.pdhg", "pdhg_step", "pdhg.pdhg_step"),
    ("otsolve.pdhg", "stepsize_bound", "pdhg.stepsize_bound"),
    ("otsolve.pdhg", "kkt_error", "kkt.kkt_error"),
    ("otsolve.pdhg", "apply_A", "operator.apply_A"),
    ("otsolve.pdhg", "apply_At", "operator.apply_At"),
    ("otsolve.kkt", "apply_A", "operator.apply_A"),
    ("otsolve.kkt", "apply_At", "operator.apply_At"),
    ("otsolve.pdhg", "round_to_feasible", "rounding.round_to_feasible"),
    ("otsolve.sinkhorn", "round_to_feasible", "rounding.round_to_feasible"),
    ("otsolve.sinkhorn", "_update_phi", "sinkhorn._update_phi"),
    ("otsolve.sinkhorn", "_update_psi", "sinkhorn._update_psi"),
    ("otsolve.sinkhorn", "_plan", "sinkhorn._plan"),
)
ROOT_SETUP = "setup"
ROOT_SOLVE = {"pdot": "solve.pdot", "sinkhorn": "solve.sinkhorn"}

# Layer of each span name; a root span's self time belongs to the layer
# whose loop (or set-up) it wraps.
LAYER_OF = {
    ROOT_SETUP: "instance",
    ROOT_SOLVE["pdot"]: "pdhg",
    ROOT_SOLVE["sinkhorn"]: "sinkhorn",
    **{span: span.split(".")[0] for _, _, span in TRACED},
}
LAYERS = ("instance", "operator", "pdhg", "kkt", "rounding", "sinkhorn")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.solve = array("q")
        self.solve_id = -1
        self.stack: list[int] = []
        self.absent: set[str] = set()
        self._saved: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter
        name_id, start, end = self.name_id, self.start, self.end
        parent, solve, stack = self.parent, self.solve, self.stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            solve.append(tracer.solve_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        present, missing = set(), set()
        for module_name, attr, span in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.add(span)
                continue
            present.add(span)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(span, fn))
        # A function a later version removed is reported as absent, not as zero.
        self.absent = missing - present

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays (times in seconds)."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "solve": np.frombuffer(self.solve, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


class SpanStats:
    """Per-name call counts and self-time totals over a set of spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                            minlength=duration.size)
        self_time = duration - child
        k = len(tracer.names)
        self.calls = dict(zip(tracer.names, np.bincount(a["name_id"], minlength=k).tolist()))
        totals = np.bincount(a["name_id"], weights=self_time, minlength=k)
        self.self_s = dict(zip(tracer.names, totals.tolist()))
        totals = np.bincount(a["name_id"], weights=duration, minlength=k)
        self.total_s = dict(zip(tracer.names, totals.tolist()))
        roots = ~has_parent
        self.root_s = float(duration[roots].sum())
        self.absent = set(tracer.absent)

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def s(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def per_call_us(self, name: str) -> tuple[float, float]:
        """Mean self and inclusive time per call, in microseconds."""
        calls = self.n(name) or 1
        return 1e6 * self.s(name) / calls, 1e6 * self.total_s.get(name, 0.0) / calls

    def layer_s(self, layer: str) -> float:
        return sum(t for name, t in self.self_s.items() if LAYER_OF.get(name) == layer)


def layer_metrics(stats: SpanStats, pdot_iters: int, sinkhorn_iters: int, restarts: int) -> dict:
    """Per-layer metrics, name -> (value, unit).

    Per-call times are mean self times; a function with no calls reads 0 and
    one that no longer exists reads None. Per-iteration counts divide by the
    iterations of the solver that calls the function.
    """

    def per(num, den):
        return num / den if den else 0.0

    def us(*names):
        if all(name in stats.absent for name in names):
            return None
        return 1e6 * per(sum(stats.s(x) for x in names), sum(stats.n(x) for x in names))

    def count(name, iters):
        return None if name in stats.absent else per(stats.n(name), iters)

    grid_ms = us("instance.grid_problem")
    steps = stats.n("pdhg.pdhg_step")
    out = {
        "instance.grid_problem_ms": (None if grid_ms is None else grid_ms / 1e3, "ms"),
        "operator.apply_A_us": (us("operator.apply_A"), "us"),
        "operator.apply_At_us": (us("operator.apply_At"), "us"),
        "operator.apply_A_per_iter": (count("operator.apply_A", pdot_iters), "calls/iter"),
        "operator.apply_At_per_iter": (count("operator.apply_At", pdot_iters), "calls/iter"),
        "pdhg.step_us": (us("pdhg.pdhg_step"), "us"),
        "pdhg.step_per_iter": (count("pdhg.pdhg_step", pdot_iters), "calls/iter"),
        "pdhg.step_accept_ratio": (
            None if "pdhg.pdhg_step" in stats.absent else per(pdot_iters, steps), "ratio"),
        "pdhg.stepsize_bound_us": (us("pdhg.stepsize_bound"), "us"),
        "pdhg.stepsize_bound_per_iter": (count("pdhg.stepsize_bound", pdot_iters), "calls/iter"),
        "pdhg.loop_self_us_per_iter": (1e6 * per(stats.s(ROOT_SOLVE["pdot"]), pdot_iters), "us"),
        "pdhg.restarts": (restarts, "count"),
        "pdhg.iters_per_restart": (per(pdot_iters, restarts), "iter"),
        "kkt.kkt_error_us": (us("kkt.kkt_error"), "us"),
        "kkt.per_iter": (count("kkt.kkt_error", pdot_iters), "calls/iter"),
        "rounding.round_us": (us("rounding.round_to_feasible"), "us"),
        "sinkhorn.half_update_us": (us("sinkhorn._update_phi", "sinkhorn._update_psi"), "us"),
        "sinkhorn.plan_us": (us("sinkhorn._plan"), "us"),
        "sinkhorn.plan_per_iter": (count("sinkhorn._plan", sinkhorn_iters), "calls/iter"),
        "sinkhorn.loop_self_us_per_iter": (
            1e6 * per(stats.s(ROOT_SOLVE["sinkhorn"]), sinkhorn_iters), "us"),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = (per(stats.layer_s(layer), stats.root_s), "fraction")
    return out
