"""Acceptance suite: one test and one printed pass/fail line per criterion.

All assertions are exact (integer/rational equality); run with `pytest -s`
to watch the lines appear, or read captured output on failure.
"""

import time
from fractions import Fraction

import pytest

from oracles import dense_rank
from skewalg.config import Config
from skewalg.family import basea_count, fm
from skewalg.variety import (ComponentSpace, builtin_variety,
                             consequence_generators, expand_descriptor)
from skewalg.verify import verify


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    return Config(certificate_directory=str(tmp_path_factory.mktemp("certs")))


def _line(criterion, ok, text, t0):
    ms = int((time.perf_counter() - t0) * 1000)
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {text} ({ms} ms)")


def test_criterion_1_skew_symmetry_suite(config):
    t0 = time.perf_counter()
    reports = [verify("lemma1", {"m": m}, config) for m in range(3, 8)]
    ok = all(r.verdict == "pass" for r in reports)
    _line(1, ok, "collapse of fm(m) vanishes for every pair, m=3..7, free magma", t0)
    assert ok
    assert all(Fraction(c).denominator == 1 for c in fm(7).terms.values())


def test_criterion_2_square_commutator_identity(config):
    t0 = time.perf_counter()
    r = verify("eq1", {}, config)
    ok = r.verdict == "pass" and len(r.certificates) == 1
    _line(2, ok, "[x^2,y] - x o [x,y] in T_flex at (2,1) with exact certificate", t0)
    assert ok
    # the certificate file re-validates standalone
    import json

    from skewalg.variety import MembershipCertificate
    doc = json.loads(open(r.certificates[0]).read())
    assert MembershipCertificate.from_json(doc).recheck(builtin_variety("flex"))


def test_criterion_3_strong_skew_symmetry(config):
    t0 = time.perf_counter()
    reports = [verify("lemma2", {"m": m}, config) for m in (3, 4, 5)]
    ok = all(r.verdict == "pass" for r in reports)
    _line(3, ok, "fm(m)(x^2, x, ...) in T_flex at (3,1,..), m=3,4,5", t0)
    assert ok


def test_criterion_4_nonvanishing(config):
    t0 = time.perf_counter()
    reports = [verify("fm_nonzero", {"m": m}, config) for m in (3, 4, 5)]
    ok = all(r.verdict == "pass" and r.details.get("witness") for r in reports)
    _line(4, ok, "fm(m) outside T_alt with witness word, m=3,4,5", t0)
    assert ok
    assert [r.details["ambient"] for r in reports] == [12, 120, 1680]


def test_criterion_5_skew_dimension_table(config):
    t0 = time.perf_counter()
    expected = [1, 1, 2, 3, 4]
    reports = [verify("skew_dim", {"d": d}, config) for d in range(1, 6)]
    got = [r.details.get("skew_dimension") for r in reports]
    ok = all(r.verdict == "pass" for r in reports) and got == expected
    assert [basea_count(d) for d in range(1, 6)] == expected
    # dense-elimination oracle for the rank side at d = 3, 4
    assert [_dense_skew_dim(d, config) for d in (3, 4)] == [2, 3]
    stretch = verify("skew_dim", {"d": 6}, config)
    ok = ok and stretch.verdict in ("pass", "resource_limit")
    _line(5, ok, f"skew dimensions d=1..5 = {got}; d=6 verdict {stretch.verdict}", t0)
    assert ok


def _dense_skew_dim(d, config):
    from skewalg.poly import MultiPoly
    from skewalg.symmetrize import alternate
    md = {i: 1 for i in range(1, d + 1)}
    alt = builtin_variety("alt")
    space = ComponentSpace(alt, md, config)
    gens = [space.vec(expand_descriptor(alt, d))
            for d in consequence_generators(alt, md)]
    images = []
    for shape in _shapes(d):
        images.append(space.vec(alternate(MultiPoly.monomial(shape))))
    return dense_rank(gens + images, len(space.ambient)) - dense_rank(gens, len(space.ambient))


def _shapes(n):
    def build(lo, hi):
        if hi - lo == 1:
            return [lo]
        return [(a, b) for mid in range(lo + 1, hi)
                for a in build(lo, mid) for b in build(mid, hi)]

    return build(1, n + 1)


def test_criterion_6_two_generator_vanishing(config):
    t0 = time.perf_counter()
    r = verify("cor2_assoc", {"degree_bound": 3}, config)
    ok = (r.verdict == "pass" and r.details["full_nonzero"] == 0
          and r.details["sampled_nonzero"] == 0
          and r.details["sampled_subsets"] == 100)
    _line(6, ok, "fm(6) vanishes under two-letter associative evaluation "
                 "(full deg<=2 and 100 seeded deg<=3 subsets)", t0)
    assert ok


def test_criterion_7_kernel_classification(config):
    t0 = time.perf_counter()
    r = verify("assoc_projection", {"d": 9}, config)
    ok = r.verdict == "pass"
    _line(7, ok, "x^[k] projects to 0 for k=3..9; skew powers hit 2^m * S_n, n<=5", t0)
    assert ok


def test_criterion_8_skew_decomposition(config):
    t0 = time.perf_counter()
    reports = [verify("lemma3", {"m": m}, config) for m in (4, 5)]
    ok = all(r.verdict == "pass" and Fraction(r.details["alpha"]) != 0 for r in reports)
    _line(8, ok, "fm = alpha Skew x^[m] + beta Skew z^[m-2] mod T_alt, "
                 f"alpha = {[r.details['alpha'] for r in reports]}, m=4,5", t0)
    assert ok


def test_criterion_9_engine_soundness(config):
    t0 = time.perf_counter()
    r = verify("engine_soundness", {}, config)
    ok = r.verdict == "pass"
    # independent dense-oracle confirmation of dim(alt, (1,1,1)) = 7
    alt = builtin_variety("alt")
    md = {1: 1, 2: 1, 3: 1}
    space = ComponentSpace(alt, md, config)
    vecs = [space.vec(expand_descriptor(alt, d))
            for d in consequence_generators(alt, md)]
    ok = ok and (12 - dense_rank(vecs, 12)) == 7
    _line(9, ok, "dims n! (n<=5) and alt (1,1,1)=7 incl. dense oracle; "
                 "200 certificate re-expansions; 20x10 shuffle stability", t0)
    assert ok
    assert r.details["certificates_rechecked"] == 200
    assert r.details["shuffle_stable_sets"] == 10
