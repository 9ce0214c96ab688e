"""The experiment scripts under scripts/ run end to end on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("field_scan.py", ["--points", "2"]),
        ("texture_dilation.py", ["--scales", "1.0"]),
        (
            "recovery_study.py",
            ["--seeds", "1", "--grid", "8", "--theta-step-deg", "45", "--noise", "0.05"],
        ),
    ],
)
def test_script_exits_zero(script, args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
