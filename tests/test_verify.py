import json
import os
import sys

import pytest

from skewalg.config import Config
from skewalg.poly import MultiPoly
from skewalg.variety import MembershipCertificate, builtin_variety
from skewalg.verify import CHECKS, DESK_SUITE, verify


def test_registry_names():
    expected = {"lemma1", "eq1", "lemma2", "eq4", "fm_nonzero", "skew_dim",
                "cor2_assoc", "assoc_projection", "lemma3",
                "eq6", "cor4_tiny", "engine_soundness"}
    assert expected <= set(CHECKS)


def test_unknown_check_and_params(config):
    with pytest.raises(ValueError, match="unknown check 'nope'; known: .*eq1"):
        verify("nope", {}, config)
    with pytest.raises(ValueError, match="check 'lemma1' does not take q"):
        verify("lemma1", {"q": 3}, config)


@pytest.mark.parametrize("check, params", [
    ("lemma1", {"m": True}),  # once ran as m=1 and reported m=True
    ("lemma1", {"m": 2.5}),
    ("skew_dim", {"d": "3"}),
    ("engine_soundness", {"n_sets": None}),
])
def test_non_integer_parameter_runs_nothing(check, params, config, monkeypatch):
    def run(*args):
        raise AssertionError("the check ran")
    monkeypatch.setitem(CHECKS, check, CHECKS[check]._replace(runner=run))
    (name,) = params
    with pytest.raises(ValueError, match=f"^{check} needs an integer {name}$"):
        verify(check, params, config)


def test_report_schema(config):
    r = verify("lemma1", {"m": 3}, config)
    doc = r.to_json()
    assert set(doc) == {"check", "params", "verdict", "details",
                        "certificates", "elapsed_ms"}
    assert doc["verdict"] == "pass"
    assert doc["params"] == {"m": 3}
    json.dumps(doc)  # serializable


def test_verdicts_deterministic(config):
    a = verify("skew_dim", {"d": 3}, config)
    b = verify("skew_dim", {"d": 3}, config)
    assert a.verdict == b.verdict == "pass"
    assert a.details == b.details


def test_eq1_writes_certificate_file(config):
    r = verify("eq1", {}, config)
    assert r.verdict == "pass"
    assert len(r.certificates) == 1
    path = r.certificates[0]
    assert os.path.exists(path)
    doc = json.loads(open(path).read())
    cert = MembershipCertificate.from_json(doc)
    assert cert.recheck(builtin_variety("flex"))


def test_no_certificate_directory_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    r = verify("eq1", {}, Config())
    assert r.verdict == "pass" and r.details["generators_used"] > 0
    assert r.certificates == []
    assert list(tmp_path.iterdir()) == []


def test_resource_limit_verdict(config):
    r = verify("skew_dim", {"d": 6}, config)
    assert r.verdict == "resource_limit"
    assert r.details["limit"] == "max_ambient_dimension"
    assert r.details["needed"] == 30240


def test_eq4_check(config):
    r = verify("eq4", {"k": 3}, config)
    assert r.verdict == "pass"


def test_eq6_check(config):
    for m in (4, 5):
        r = verify("eq6", {"m": m}, config)
        assert r.verdict == "pass"
        assert r.details["lambda"] == "2"
        assert r.details["nu"] == "0"


def test_lemma1_fail_reports_nonvanishing_pairs(config, monkeypatch):
    from skewalg.family import fm
    from skewalg.symmetrize import collapse
    from skewalg.words import relabel, sort_key

    f = fm(4)
    word = min(f.terms, key=sort_key)  # the first word in canonical order
    c = f.terms[word]
    one_coefficient = MultiPoly({**f.terms, word: c + 1})
    # antisymmetric under x1 <-> x2 only, so collapse(., 1, 2) still vanishes
    swapped = relabel(word, {1: 2, 2: 1})
    two_terms = f + MultiPoly({word: 1, swapped: -1})
    for broken in (one_coefficient, two_terms):
        # the package re-exports the function verify under the module's name
        monkeypatch.setattr(sys.modules["skewalg.verify"], "fm", lambda m: broken)
        r = verify("lemma1", {"m": 4}, config)
        assert r.verdict == "fail"
        expected = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)
                    if not collapse(broken, i, j).is_zero()]
        assert expected
        assert r.details["nonvanishing_pairs"] == expected
        assert r.details["terms"] == len(broken)
    assert (1, 2) not in r.details["nonvanishing_pairs"]


@pytest.mark.parametrize("m", range(1, 7))
def test_cor2_passes_exactly_from_m_three(m, config):
    # x1 and [x1, x2] do not vanish on two generators; fm(m) for m >= 3 does
    r = verify("cor2_assoc", {"m": m}, config)
    assert r.verdict == ("pass" if m >= 3 else "fail")
    assert r.details["image_terms"] == {1: 1, 2: 2}.get(m, 0)


@pytest.mark.parametrize("check, patched", [("cor2_assoc", "fm"), ("cor4_tiny", "skew")])
def test_nonzero_associative_image_fails(check, patched, config, monkeypatch):
    from skewalg.family import fm
    from skewalg.poly import parse_poly

    # fm(6)'s image is zero, and this word's is the one term x1x2x3x4x5x6
    broken = fm(6) + parse_poly("(((((x1*x2)*x3)*x4)*x5)*x6)")
    # the package re-exports the function verify under the module's name
    monkeypatch.setattr(sys.modules["skewalg.verify"], patched, lambda *args: broken)
    r = verify(check, {}, config)
    assert r.verdict == "fail"
    assert r.details["image_terms"] == 1


def test_desk_suite_layout():
    names = [name for name, _ in DESK_SUITE]
    assert names.count("lemma1") == 5
    assert names.count("lemma2") == 3
    assert names.count("fm_nonzero") == 3
    assert names.count("skew_dim") == 5
    assert names.count("lemma3") == 2
    assert "engine_soundness" in names
    for name, params in DESK_SUITE:
        assert name in CHECKS
        assert set(params) <= set(CHECKS[name].defaults)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_each_parameter_has_a_lowest_value(name):
    cdef = CHECKS[name]
    assert set(cdef.lowest) == set(cdef.defaults)
    assert all(cdef.defaults[p] >= low for p, low in cdef.lowest.items())
