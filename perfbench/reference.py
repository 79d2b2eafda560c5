"""Exact optima of the benchmark's problems, from HiGHS, and their cache.

The optima live in ``reference.json`` beside this file, stamped with the
instance seed and the scipy version that produced them. The benchmark
computes missing or stale entries in a child process, before any timing,
so neither the LP solve nor scipy.optimize's memory shows in a run.

    python3 perfbench/reference.py --out perfbench/reference.json  # (re)build the cache
    python3 perfbench/reference.py --check  # re-derive every cached optimum
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CACHE = HERE / "reference.json"
CHECK_RTOL = 1e-9


def highs_optimum(prob) -> tuple[float, float]:
    """Optimal objective of the transport LP by HiGHS, and the seconds it took."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.optimize import linprog

    m, n = prob.m, prob.n
    A = sp.vstack(
        [sp.kron(sp.identity(m), np.ones((1, n))), sp.kron(np.ones((1, m)), sp.identity(n))],
        format="csr",
    )
    start = time.perf_counter()
    res = linprog(prob.C.ravel(), A_eq=A, b_eq=np.concatenate([prob.f, prob.g]),
                  bounds=(0, None), method="highs")
    seconds = time.perf_counter() - start
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun), seconds


def compute(workload_names) -> dict:
    """Reference record for the named workloads' problems."""
    import scipy

    from workloads import INSTANCE_SEED, WORKLOADS

    optima = {}
    for name in workload_names:
        w = WORKLOADS[name]
        for case, prob in zip(w.cases, w.build()):
            if case.label not in optima:
                value, seconds = highs_optimum(prob)
                optima[case.label] = {"optimum": value, "highs_s": round(seconds, 3)}
    return {"scipy": scipy.__version__, "instance_seed": INSTANCE_SEED, "optima": optima}


def lookup(path: Path, labels, scipy_version: str, instance_seed: int) -> dict | None:
    """The cached optima for ``labels``, or None if the cache cannot serve them."""
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        return None
    if record.get("scipy") != scipy_version or record.get("instance_seed") != instance_seed:
        return None
    optima = record.get("optima", {})
    if not all(label in optima for label in labels):
        return None
    return {label: optima[label]["optimum"] for label in labels}


def write(record: dict, path: Path) -> None:
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def check() -> int:
    """Re-derive every optimum in the cache; return the number that disagree."""
    from workloads import WORKLOADS

    with open(CACHE, encoding="utf-8") as fh:
        cached = json.load(fh)
    fresh = compute(WORKLOADS)
    bad = 0
    for label, entry in fresh["optima"].items():
        want = cached["optima"].get(label, {}).get("optimum")
        if want is None or abs(entry["optimum"] - want) > CHECK_RTOL * abs(want):
            bad += 1
            print(f"MISMATCH {label}: cached {want!r}, fresh {entry['optimum']!r}")
    print(f"{len(fresh['optima'])} optima re-derived, {bad} differ by more than {CHECK_RTOL:g}")
    for key in ("scipy", "instance_seed"):
        if fresh[key] != cached.get(key):
            print(f"{key}: cached {cached.get(key)!r}, here {fresh[key]!r}")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path, help="write the reference record here")
    parser.add_argument("--check", action="store_true", help="re-derive the cached optima")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    if args.check:
        return 1 if check() else 0
    if args.out is None:
        parser.error("give --out or --check")
    from workloads import WORKLOADS

    write(compute(args.workload or list(WORKLOADS)), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
