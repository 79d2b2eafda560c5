"""The suite's own pytest settings (``pyproject.toml``) report failures."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_is_reported_not_a_crash(tmp_path):
    # Reporting a failing example imports a third-party module that warns on
    # import; under "every warning is an error" that warning must not stop
    # pytest with INTERNALERROR before the remaining tests run.
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout
