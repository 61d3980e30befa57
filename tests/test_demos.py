import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the demos that run in a second or two; 04 and 06 rerun the kissing pipeline
FAST_DEMOS = ["01_gegenbauer_basis", "02_codes_and_distributions",
              "03_bounds_lp_vs_sdp", "05_certificate_checks"]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
