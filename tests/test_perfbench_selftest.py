"""The benchmark's output checks can fail: run perfbench/selftest.py, which
feeds every check known-good and deliberately wrong outputs."""

import subprocess
import sys
from pathlib import Path

import pytest

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


@pytest.mark.skipif(not SELFTEST.exists(), reason="perfbench/ is not in this checkout")
def test_perfbench_selftest():
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 wrong" in proc.stdout
