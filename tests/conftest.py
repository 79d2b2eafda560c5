"""Test-wide settings.

BLAS runs on one thread, as in the benchmark (``perfbench/run.py``): a solve's
bits, and so its iteration path, depend on the BLAS thread count. The
variables are set before anything imports numpy, which reads them once.

Hypothesis runs derandomized, with examples drawn from a hash of each test,
so every run of the suite tries the same cases. No deadline: a slow example
on a loaded machine is not a failure. No example database, so a run reads
and writes no state between runs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

settings.register_profile("otsolve", derandomize=True, deadline=None, database=None)
settings.load_profile("otsolve")


@pytest.fixture
def split_passes(monkeypatch):
    """``use(w)`` splits every plan-sized pass, however small the plan, over
    w workers (w = 1: none is split), from a new pool; the pools a test
    makes are shut down after it."""
    from otsolve import _par

    original = _par._pool

    def release():
        if _par._pool is not None and _par._pool is not original:
            _par._pool.shutdown()

    def use(workers):
        release()
        monkeypatch.setattr(_par, "_pool", None)
        monkeypatch.setattr(_par, "_WORKERS", workers)
        monkeypatch.setattr(_par, "_MIN_ENTRIES", 1)

    yield use
    release()
