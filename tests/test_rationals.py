import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_FALLBACK_PROBE = """
import sys
sys.modules["gmpy2"] = None  # makes `import gmpy2` raise ImportError
from fractions import Fraction
from skewalg.rationals import QQ, qq_div, qq_str
assert QQ is Fraction, QQ
third = qq_div(1, 3)
assert type(third) is Fraction and third == Fraction(1, 3)
assert qq_div(6, -4) == Fraction(-3, 2)
assert qq_div(10**30 + 1, 10**30) == Fraction(10**30 + 1, 10**30)
assert qq_str(qq_div(6, -4)) == "-3/2"
assert qq_str(4) == "4" and qq_str(Fraction(8, 2)) == "4"
import skewalg
assert skewalg.QQ is Fraction
print("ok")
"""


def test_fraction_fallback_without_gmpy2():
    out = subprocess.run([sys.executable, "-c", _FALLBACK_PROBE],
                         env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
