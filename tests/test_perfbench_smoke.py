"""The benchmark's self-test runs against the library as it stands, so a
change to an API it calls (Cocycle(check=...), read_coc, ...) fails here
rather than only when the benchmark is next run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke ok" in proc.stdout
