"""Importing skewalg loads neither dataclasses nor inspect, whose imports
would cost every fresh process (see the README design notes)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_dataclasses_or_inspect():
    # -S: no site-packages .pth file decides what is already loaded
    code = ("import skewalg, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"
