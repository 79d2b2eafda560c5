"""The README's Python examples run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    # conftest.py has pinned BLAS to one thread in os.environ
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for block in blocks:
        run = subprocess.run([sys.executable, "-W", "error", "-c", block], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, f"{block}\n{run.stderr}"
