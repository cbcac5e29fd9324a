"""The benchmark's tracer wraps skewalg functions by name.

perfbench/tracing.py lists the public names it wraps in TRACED, and a
traced benchmark session installs the tracer at startup.  Running that
startup here makes a rename or deletion of a traced name fail the tests
instead of the benchmark.  The tracer also counts streamed generators
through the wrapped consequence_generators and echelon writes through
insert_reduce; a saturation that stopped going through either would read
zero on those counters, so one is run and its counts checked, together
with the per-layer readings of its provenance and rows, so that a layout
the tracer cannot read fails here instead of skewing those metrics.  In the same
way skew must call alternate through the module, and fm must recurse
through its module-level name, or the per-layer term counts would miss
the nested calls.  A second component_space call on the same component
must return the cached space, or variety.cache_hit_ratio would read 0; the
alternating checks reach their space through family.alternating_space,
which must look it up through that traced name on every call and keep no
cache of its own, or the ratio would miss their lookups or their hits.
variety.cert_entries is counted where MembershipCertificate.write calls
the traced to_json, so a writer that emitted the file without it would
read zero entries.  A lazy membership must show its rereduce calls as
spans and put every insertion into its space through the traced
insert_reduce, and residual_of must finish a saturation without a
variety.saturate span under it, which would count the saturation twice in
the span tree.
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
        "from skewalg import variety\n"
        "alt, md = variety.builtin_variety('alt'), {1: 1, 2: 1, 3: 1}\n"
        # an untraced saturation fills the slot-orbit memo, whose throwaway
        # accumulators the tracer would otherwise count too
        "variety.ComponentSpace(alt, md).saturate()\n"
        "tr.enabled = True\n"
        "space = variety.component_space(alt, md)\n"
        "space.saturate()\n"
        "m = tracing.per_layer_metrics(tr, 0.0)\n"
        "print(tr.streamed, tr.acc_calls.get(space.acc, 0), space.acc.rank)\n"
        "print(m['linalg.provenance_nnz'], m['linalg.max_coeff_bits'],\n"
        "      sum(len(p) for p in space.acc.provenance.values()))\n")
    counts, layers = out.splitlines()
    streamed, inserts, rank = map(int, counts.split())
    assert streamed >= inserts >= rank > 0
    provenance_nnz, max_coeff_bits, stored = map(int, layers.split())
    assert provenance_nnz == stored > 0
    assert max_coeff_bits >= 1


def test_tracer_counts_a_lazy_membership():
    out = _run_traced(
        "tr = tracing.Tracer()\n"
        "tracing.install(tr)\n"
        "from skewalg import variety\n"
        "from skewalg.family import fm\n"
        "from skewalg.poly import MultiPoly, multiply, substitute\n"
        "x, y, z = map(MultiPoly.variable, (1, 2, 3))\n"
        "p = substitute(fm(4), {1: multiply(x, x), 2: x, 3: y, 4: z})\n"  # lemma2 m=4
        "tr.enabled = True\n"
        "space = variety.ComponentSpace(variety.builtin_variety('flex'), {1: 3, 2: 1, 3: 1})\n"
        "space.membership(p)\n"
        "stop = space.acc.n_inserted\n"
        "space.residual_of(p)\n"  # inserts the rest of the queue
        "names, parents = tr.names, tr.parents\n"
        "print(names.count('linalg.rereduce'), names.count('variety.residual_of'),\n"
        "      sum(name == 'variety.saturate' and parents[i] >= 0\n"
        "          and names[parents[i]] == 'variety.residual_of'\n"
        "          for i, name in enumerate(names)))\n"
        "print(tr.acc_calls[space.acc], space.acc.n_inserted, stop)\n")
    spans, counts = out.splitlines()
    rereduces, residual_ofs, saturates_under_residual_of = map(int, spans.split())
    assert rereduces >= 1 and residual_ofs == 1
    assert saturates_under_residual_of == 0
    traced_inserts, inserted, stop = map(int, counts.split())
    assert traced_inserts == inserted > stop


def test_tracer_counts_a_cache_hit():
    out = _run_traced(
        "tr = tracing.Tracer()\n"
        "tracing.install(tr)\n"
        "tr.enabled = True\n"
        "from skewalg import variety\n"
        "first = variety.component_space(variety.builtin_variety('alt'), {1: 1, 2: 1})\n"
        "again = variety.component_space(variety.builtin_variety('alt'), {2: 1, 1: 1})\n"
        "print(tr.space_calls, tr.space_hits, first is again)\n"
        "skewalg.verify('skew_dim', {'d': 3})\n"
        "skewalg.verify('fm_nonzero', {'m': 3})\n"
        "print(tr.space_calls, tr.space_hits)\n")
    assert out.split() == ["2", "1", "True", "4", "2"]


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


def test_tracer_counts_written_certificate_entries(tmp_path):
    out = _run_traced(
        "import json\n"
        "tr = tracing.Tracer()\n"
        "tracing.install(tr)\n"
        "tr.enabled = True\n"
        f"config = skewalg.Config(certificate_directory={str(tmp_path)!r})\n"
        "(path,) = skewalg.verify('lemma3', {'m': 5}, config).certificates\n"
        "with open(path) as fh:\n"
        "    written = len(json.load(fh)['generators'])\n"
        "print(tr.cert_entries, written)\n")
    counted, written = map(int, out.split())
    assert counted == written > 0  # m=5: lemma3 m=4's certificate has no entries
