"""Smoke tests of the scripts under ``scripts/``, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_generic_vs_invariant_prints_the_gap():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "generic_vs_invariant.py"),
         "det:2", "monprod:4", "matmul:2,2,2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split() == [
        "form", "sylvester", "ranestad_schreyer", "generic", "distinguished", "direction",
    ]
    rows = {cells[0]: cells for cells in (line.split(maxsplit=5) for line in lines)}
    assert list(rows) == ["det:2", "monprod:4", "matmul:2,2,2"]
    assert rows["monprod:4"][3:5] == ["6", "8"]
    assert rows["matmul:2,2,2"][2] == "13/2"
    assert rows["matmul:2,2,2"][4] == "9"
    assert rows["matmul:2,2,2"][5] == "d_x[1,1] + d_y[1,1]"
