"""The benchmark's tracer wraps skewalg functions by name.

perfbench/tracing.py lists the public names it wraps in TRACED, and a
traced benchmark session installs the tracer at startup.  Running that
startup here makes a rename or deletion of a traced name fail the tests
instead of the benchmark.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_library():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import skewalg, tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
