import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# every demo runs in a second or two
FAST_DEMOS = ["01_gegenbauer_basis", "02_codes_and_distributions",
              "03_bounds_lp_vs_sdp", "04_kissing_contradiction", "05_certificate_checks",
              "06_reproduce_reports"]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
