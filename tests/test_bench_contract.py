"""The benchmark's tracer wraps skewalg functions by name.

perfbench/tracing.py lists the public names it wraps in TRACED, and a
traced benchmark session installs the tracer at startup.  Running that
startup here makes a rename or deletion of a traced name fail the tests
instead of the benchmark.  The tracer also counts streamed generators
through the wrapped consequence_generators and echelon writes through
insert_reduce; a saturation that stopped going through either would read
zero on those counters, so one is run and its counts checked.  In the same
way skew must call alternate through the module, and fm must recurse
through its module-level name, or the per-layer term counts would miss
the nested calls.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_traced(code: str) -> str:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import skewalg, tracing\n" + code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_installs_on_the_library():
    _run_traced("tracing.install(tracing.Tracer())")


def test_tracer_counts_a_saturation():
    out = _run_traced(
        "tr = tracing.Tracer()\n"
        "tracing.install(tr)\n"
        "tr.enabled = True\n"
        "from skewalg import variety\n"
        "space = variety.component_space(variety.builtin_variety('alt'), {1: 1, 2: 1, 3: 1})\n"
        "space.saturate()\n"
        "print(tr.streamed, tr.acc_calls.get(space.acc, 0), space.acc.rank)\n")
    streamed, inserts, rank = map(int, out.split())
    assert streamed >= inserts >= rank > 0


def test_tracer_counts_nested_term_builders():
    out = _run_traced(
        "from skewalg import family, symmetrize\n"
        "u = family.x_bracket(5).poly\n"
        "tr = tracing.Tracer()\n"
        "tracing.install(tr)\n"
        "tr.enabled = True\n"
        "s = symmetrize.skew(u)\n"
        "print(tr.terms_out, len(s))\n"
        "family.fm(5)\n"
        "print(*sorted(tr.fm_built.items()))\n")
    terms, fm_built = out.splitlines()
    terms_out, skew_terms = map(int, terms.split())
    assert terms_out == 2 * skew_terms  # skew and the alternate inside it
    assert fm_built == "(1, 1) (2, 2) (3, 12) (4, 96) (5, 1440)"
