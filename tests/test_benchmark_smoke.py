"""The benchmark's own smoke check runs against this checkout.

``perfbench/tracing.py`` wraps library functions by name, so a rename or a
deletion there fails only when tracing is on; the smoke run traces every
workload on a few tasks and catches it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    if not (ROOT / "perfbench" / "smoke.py").is_file():
        pytest.skip("perfbench/ is not in this checkout")
    pytest.importorskip("mpmath")
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
