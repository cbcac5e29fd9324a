import gc
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import multidegrees_by_text

from skewalg.family import fm, x_bracket
from skewalg.linalg import _ratio
from skewalg.poly import (MultiPoly, ParseError, add_terms, associator,
                          commutator, format_poly, jordan, multiply,
                          parse_identity_file, parse_poly, parse_word,
                          relabel_poly, substitute)
from skewalg.symmetrize import linearize, skew
from skewalg.words import enumerate_words

x1 = MultiPoly.variable(1)
x2 = MultiPoly.variable(2)
x3 = MultiPoly.variable(3)


def test_multiply_words():
    assert multiply(x1, x2) == MultiPoly.monomial((1, 2))
    assert multiply(x1 + x2, x1) == MultiPoly({(1, 1): Fraction(1), (2, 1): Fraction(1)})
    assert multiply(MultiPoly.zero(), x1).is_zero()


def test_multiply_degree_additivity():
    rng = random.Random(7)
    ws = enumerate_words({1: 2, 2: 1})
    from skewalg.words import degree
    for _ in range(20):
        a, b = rng.choice(ws), rng.choice(ws)
        prod = multiply(MultiPoly.monomial(a), MultiPoly.monomial(b))
        ((w, _),) = prod.terms.items()
        assert degree(w) == degree(a) + degree(b)


def test_derived_products():
    assert commutator(x1, x2) == parse_poly("(x1*x2) - (x2*x1)")
    assert associator(x1, x2, x3) == parse_poly("((x1*x2)*x3) - (x1*(x2*x3))")
    assert jordan(x1, x1) == parse_poly("2*(x1*x1)")


def test_substitute_examples():
    p = commutator(x1, x2)
    image = substitute(p, {1: multiply(x1, x1), 2: x2})
    assert image == commutator(multiply(x1, x1), x2)

    q = associator(x1, x2, x3)
    assert substitute(q, {1: x1, 2: x2, 3: x3}) == q
    allx = substitute(q, {1: x1, 2: x1, 3: x1})
    assert allx == parse_poly("((x1*x1)*x1) - (x1*(x1*x1))")


def test_substitute_requires_assignment():
    with pytest.raises(ValueError):
        substitute(commutator(x1, x2), {1: x1})


def test_substitute_distributes_over_multiply():
    rng = random.Random(11)
    words = enumerate_words({1: 1, 2: 1}) + enumerate_words({1: 2})

    def rand_poly():
        return MultiPoly({rng.choice(words): Fraction(rng.randint(-3, 3))
                          for _ in range(rng.randint(1, 3))})

    assignment = {1: parse_poly("(x1*x2) + x3"), 2: parse_poly("2*x1")}
    for _ in range(25):
        p, q = rand_poly(), rand_poly()
        lhs = substitute(multiply(p, q), assignment)
        rhs = multiply(substitute(p, assignment), substitute(q, assignment))
        assert lhs == rhs


def test_substitute_multilinear_in_images():
    p = commutator(x1, x2)
    a, b = multiply(x1, x1), x3
    one = substitute(p, {1: a, 2: x2})
    two = substitute(p, {1: b, 2: x2})
    both = substitute(p, {1: a + b, 2: x2})
    assert both == one + two


def test_parse_format_roundtrip_examples():
    s = "3/2*((x1*x2)*x3) - (x1*(x2*x3))"
    p = parse_poly(s)
    assert format_poly(p) == s
    assert parse_poly(format_poly(p)) == p
    assert format_poly(MultiPoly.zero()) == "0"
    assert parse_poly("0").is_zero()
    neg = parse_poly("-1*x1")
    assert neg == MultiPoly({1: Fraction(-1)})
    assert parse_poly(format_poly(neg)) == neg
    assert parse_poly("x1 + x1") == MultiPoly({1: Fraction(2)})
    assert parse_poly("x1 - x1").is_zero()


def test_roundtrip_random():
    rng = random.Random(3)
    words = (enumerate_words({1: 1, 2: 1, 3: 1}) + enumerate_words({1: 3})
             + enumerate_words({2: 2, 4: 1}))
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            terms[rng.choice(words)] = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        p = MultiPoly(terms)
        assert parse_poly(format_poly(p)) == p


def test_parse_errors():
    for bad in ["x0", "(x1*x2", "x1 ** x2", "3*", "x1 x2", "1/0*x1", "()", "+"]:
        with pytest.raises(ParseError):
            parse_poly(bad)
    with pytest.raises(ParseError):
        parse_word("(x1*x2) + x3")
    with pytest.raises(ParseError):
        parse_word("_")  # hole only allowed when requested
    assert parse_word("_", allow_hole=True) == 0


def test_deeply_nested_word_is_parse_error():
    deep = "(" * 5000 + "x1" + "*x1)" * 5000
    for parse in (parse_poly, parse_word):
        with pytest.raises(ParseError, match="^word nested too deeply$"):
            parse(deep)
    with pytest.raises(ParseError, match="^line 2: word nested too deeply$"):
        parse_identity_file("(x1*x2)\n" + deep)


def test_parse_identity_file():
    text = """
    # flexible law, linearized by hand
    ((x1*x2)*x3) - (x1*(x2*x3)) + ((x3*x2)*x1) - (x3*(x2*x1))

    (x1*x1)  # comment
    """
    ids = parse_identity_file(text)
    assert len(ids) == 2
    assert ids[1] == parse_poly("(x1*x1)")
    with pytest.raises(ParseError):
        parse_identity_file("x1 +")


def test_homogeneous_components_and_multilinearity():
    p = parse_poly("(x1*x2) + ((x1*x1)*x2) + x1")
    comps = p.homogeneous_components()
    assert len(comps) == 3
    assert sum((c for c in comps.values()), MultiPoly.zero()) == p
    assert parse_poly("(x1*x2) - (x2*x1)").multidegree() == {1: 1, 2: 1}
    assert parse_poly("(x1*x1)").multidegree() == {1: 2}
    with pytest.raises(ValueError, match="^polynomial is not multihomogeneous$"):
        p.multidegree()


@st.composite
def _mixed_degree(draw):
    """Sums over one to three multidegrees of total degree at most 4."""
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        md = draw(st.dictionaries(st.integers(1, 4), st.integers(1, 3), min_size=1,
                                  max_size=3))
        if sum(md.values()) > 4:
            md = dict.fromkeys(md, 1)
        pairs += draw(st.lists(st.tuples(st.sampled_from(enumerate_words(md)),
                                         st.integers(-2, 2).filter(bool)),
                               min_size=1, max_size=3))
    return MultiPoly.from_pairs(pairs)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mixed_degree(), st.integers(1, 5).map(fm)))
@example(MultiPoly.zero())
@example(parse_poly("x3"))
@example(parse_poly("x1 + (x1*x2)"))
@example(parse_poly("(x1*x2) + (x3*x4)"))
@example(parse_poly("((x1*x1)*x2) + ((x1*x2)*x2)"))  # one variable set, two degrees
@example(parse_poly("((x2*x2)*x1) - (x1*(x2*x2))"))
@example(fm(5))  # shared subwords
def test_multidegree_matches_text_oracle(p):
    mds = multidegrees_by_text(p)
    if len(mds) > 1:
        with pytest.raises(ValueError, match="^polynomial is not multihomogeneous$"):
            p.multidegree()
    else:
        # the same exponents, the variables ascending
        assert list(p.multidegree().items()) == list(mds.pop() if mds else ())


@settings(max_examples=150, deadline=None)
@given(st.one_of(_mixed_degree(),
                 st.tuples(st.integers(1, 5).map(fm), _mixed_degree()).map(lambda t: t[0] + t[1])))
@example(MultiPoly.zero())
@example(parse_poly("x3"))
@example(parse_poly("x1 + (x1*x2)"))
@example(parse_poly("(x1*x2) + (x3*x4) - (x2*x1)"))
@example(parse_poly("((x1*x1)*x2) + ((x1*x2)*x2) + ((x2*x1)*x1)"))  # one variable set
@example(fm(5) + parse_poly("((x1*x2)*x3) + x6"))  # shared subwords beside off-degree terms
def test_homogeneous_components_match_text_oracle(p):
    by_text = {}  # multidegree -> the terms of p that have it, in p's order
    for w, c in p.terms.items():
        (key,) = multidegrees_by_text(MultiPoly.monomial(w))
        by_text.setdefault(key, {})[w] = c
    comps = p.homogeneous_components()
    assert set(comps) == multidegrees_by_text(p) == set(by_text)
    for key, comp in comps.items():
        assert list(comp.terms.items()) == list(by_text[key].items())


def test_scalar_arithmetic():
    p = parse_poly("(x1*x2) - 2*(x2*x1)")
    assert p.scale(Fraction(1, 2)) == parse_poly("1/2*(x1*x2) - (x2*x1)")
    assert (-p) + p == MultiPoly.zero()
    assert Fraction(3) * p == p.scale(3)
    assert relabel_poly(p, {1: 2, 2: 1}) == parse_poly("(x2*x1) - 2*(x1*x2)")


@st.composite
def _start_and_pairs(draw):
    """A zero-free start dict and (key, int or rational) pairs in which some
    keys are forced to cancel exactly."""
    coeff = st.one_of(st.integers(-4, 4),
                      st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
    start = draw(st.dictionaries(st.integers(0, 5), coeff.filter(bool), max_size=4))
    pairs = draw(st.lists(st.tuples(st.integers(0, 5), coeff), max_size=20))
    totals = dict(start)
    for k, c in pairs:
        totals[k] = totals.get(k, 0) + c
    for k in draw(st.lists(st.sampled_from(sorted(totals)), unique=True)) if totals else ():
        pairs.append((k, -totals[k]))
    return start, draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(_start_and_pairs())
def test_add_terms_matches_naive_sum(case):
    start, pairs = case
    naive = dict(start)
    for k, c in pairs:
        naive[k] = naive.get(k, 0) + c
    acc = dict(start)
    assert add_terms(acc, iter(pairs)) is acc
    assert acc == {k: c for k, c in naive.items() if c}
    assert all(acc.values())


def test_integer_work_keeps_int_coefficients():
    x1, x2 = MultiPoly.variable(1), MultiPoly.variable(2)
    integral = [fm(5), skew(x_bracket(5).poly),
                linearize(associator(multiply(x1, x1), x2, x1)),
                parse_poly("2*(x1*x2) - x3")]
    for p in integral:
        assert p and all(type(c) is int for c in p.terms.values())
    half = parse_poly("1/2*x1")
    assert type(half.terms[1]) is not int and half.terms[1] == Fraction(1, 2)
    assert format_poly(integral[3]) == "-1*x3 + 2*(x1*x2)"
    assert format_poly(half) == "1/2*x1"
    assert format_poly(skew(x_bracket(3).poly)) == (
        "2*((x1*x2)*x3) - 2*((x1*x3)*x2) - 2*((x2*x1)*x3) + 2*((x2*x3)*x1)"
        " + 2*((x3*x1)*x2) - 2*((x3*x2)*x1) - 2*(x1*(x2*x3)) + 2*(x1*(x3*x2))"
        " + 2*(x2*(x1*x3)) - 2*(x2*(x3*x1)) - 2*(x3*(x1*x2)) + 2*(x3*(x2*x1))")


@pytest.fixture
def gc_state():
    """Yields a setter for the collector's state and restores it afterwards."""
    was = gc.isenabled()

    def set_enabled(on):
        if on:
            gc.enable()
        else:
            gc.disable()
    yield set_enabled
    set_enabled(was)


@pytest.mark.parametrize("on", [True, False])
def test_term_building_restores_collector_state(gc_state, on):
    gc_state(on)
    add_terms({}, [(1, 1), (1, -1)])
    assert gc.isenabled() is on
    MultiPoly.from_pairs([((1, 2), 3)])
    assert gc.isenabled() is on
    skew(x_bracket(4).poly)
    assert gc.isenabled() is on


def test_collector_restored_when_parse_fails_mid_sum(gc_state):
    gc_state(True)
    seen = []

    def pairs():
        seen.append(gc.isenabled())
        yield from ()
    add_terms({}, pairs())
    assert seen == [False]  # the pairs are drawn while the collector is paused
    with pytest.raises(ParseError):
        parse_poly("x1 +")  # raised inside the parser's generator of terms
    assert gc.isenabled()


def test_skew_runs_no_full_collection(gc_state):
    gc_state(True)
    gc.collect()
    before = gc.get_stats()[2]["collections"]
    skew(x_bracket(7).poly)
    assert gc.get_stats()[2]["collections"] == before


def test_coefficients_print_alike_as_int_and_fraction():
    assert str(_ratio(6, -4)) == "-3/2"
    for text in ("x1 - 3/2*x2", "-1*x1 + 2*x2", "-1/3*x1 + 7/2*x2"):
        assert format_poly(parse_poly(text)) == text
    assert format_poly(parse_poly("x1 + x2").scale(Fraction(4, 2))) == "2*x1 + 2*x2"
    assert format_poly(parse_poly("x1 - x2").scale(Fraction(-1, 2))) == "-1/2*x1 + 1/2*x2"
