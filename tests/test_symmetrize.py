import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import alternate_by_relabel, linearize_by_relabel, multidegrees_by_text

from skewalg import family, poly, symmetrize, words
from skewalg.family import associative_projection, fm, x_bracket, z_word
from skewalg.poly import MultiPoly, multiply, parse_poly, relabel_poly
from skewalg.symmetrize import (alternate, as_one_variable, collapse,
                                is_skew_symmetric, linearize,
                                permutation_sign, skew)
from skewalg.words import enumerate_words, fill, relabel, split_words


def one_var_words(n):
    return enumerate_words({1: n})


def test_permutation_sign():
    assert permutation_sign((1, 2, 3)) == 1
    assert permutation_sign((2, 1, 3)) == -1
    assert permutation_sign((3, 1, 2)) == 1


def test_linearize_square():
    p = parse_poly("(x1*x1)")
    assert linearize(p) == parse_poly("(x1*x2) + (x2*x1)")


def test_linearize_commutator_with_square():
    # [x^2, y] linearizes to [x1x2 + x2x1, x3] with the fresh block renaming
    x, y = MultiPoly.variable(1), MultiPoly.variable(2)
    from skewalg.poly import commutator
    p = commutator(multiply(x, x), y)
    expected = commutator(parse_poly("(x1*x2) + (x2*x1)"), MultiPoly.variable(3))
    assert linearize(p) == expected


def test_linearize_multilinear_is_renaming():
    p = parse_poly("(x2*x5)")
    assert linearize(p) == parse_poly("(x1*x2)")


def test_linearize_restriction_recovers_multiple():
    for text, md in [("(x1*(x1*x1))", {1: 3}),
                     ("((x1*x1)*x2) - 2*(x2*(x1*x1))", {1: 2, 2: 1})]:
        p = parse_poly(text)
        lin = linearize(p)
        assert lin.multidegree() == dict.fromkeys(range(1, sum(md.values()) + 1), 1)
        # linearize numbers fresh variables in blocks, sorted by original
        blocks, offset = {}, 0
        for v in sorted(md):
            blocks.update({k: v for k in range(offset + 1, offset + 1 + md[v])})
            offset += md[v]
        back = relabel_poly(lin, blocks)
        scale = 1
        for e in md.values():
            scale *= factorial(e)
        assert back == p.scale(scale)


_COEFFS = st.integers(-3, 3).filter(bool)


def _combination(draw, words):
    return MultiPoly.from_pairs(draw(st.lists(st.tuples(st.sampled_from(words), _COEFFS),
                                              min_size=1, max_size=6)))


@st.composite
def _multihomogeneous(draw):
    variables = sorted(draw(st.sets(st.integers(1, 5), min_size=1, max_size=3)))
    md = {v: draw(st.integers(1, 3)) for v in variables}
    if sum(md.values()) > 5:
        md = {v: 1 for v in variables}
    return md, _combination(draw, enumerate_words(md))


@settings(max_examples=300, deadline=None)
@given(_multihomogeneous())
def test_linearize_then_restrict_is_factorial_multiple(case):
    md, p = case
    if p.is_zero():
        return
    lin = linearize(p)
    assert lin.multidegree() == dict.fromkeys(range(1, sum(md.values()) + 1), 1)
    # fresh variables come in blocks, one per original variable in sorted order
    back, offset = {}, 0
    for v in sorted(md):
        back.update({k: v for k in range(offset + 1, offset + 1 + md[v])})
        offset += md[v]
    assert relabel_poly(lin, back) == p.scale(prod(factorial(e) for e in md.values()))


@settings(max_examples=300, deadline=None)
@given(_multihomogeneous())
@example(({1: 2, 2: 2}, parse_poly("((x1*x2)*(x2*x1)) - 2*((x2*x1)*(x1*x2)) + (x1*(x1*(x2*x2)))")))
@example(({3: 3}, parse_poly("(x3*(x3*x3)) + ((x3*x3)*x3)")))
def test_linearize_matches_relabel_oracle(case):
    _, p = case
    assume(not p.is_zero())
    # the same terms in the same order
    assert list(linearize(p).terms.items()) == list(linearize_by_relabel(p).terms.items())


def test_linearize_rejects_inhomogeneous():
    with pytest.raises(ValueError, match="^polynomial is not multihomogeneous$"):
        linearize(parse_poly("x1 + (x1*x1)"))


def test_linearize_of_zero_is_zero():
    assert linearize(MultiPoly.zero()) == MultiPoly.zero()


@pytest.mark.parametrize("text, message", [
    ("(x1*x2)", "element is not written in a single variable"),
    ("x1 + (x1*x1)", "polynomial is not multihomogeneous"),
])
def test_skew_rejects(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        skew(parse_poly(text))


def test_skew_square_is_commutator():
    assert skew(parse_poly("(x1*x1)")) == parse_poly("(x1*x2) - (x2*x1)")


def test_skew_of_leaf():
    assert skew(parse_poly("x1")) == parse_poly("x1")


def test_skew_left_comb_matches_signed_sum():
    u = MultiPoly.monomial(((1, 1), 1))
    got = skew(u)
    expected = MultiPoly.zero()
    for s in permutations((1, 2, 3)):
        w = ((s[0], s[1]), s[2])
        expected = expected + MultiPoly.monomial(w, permutation_sign(s))
    assert got == expected


def test_skew_is_linear():
    u = MultiPoly.monomial(((1, 1), 1), 2)
    w = MultiPoly.monomial((1, (1, 1)), -3)
    assert skew(u + w) == skew(u) + skew(w)
    assert skew(u.scale(Fraction(1, 2))) == skew(u).scale(Fraction(1, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_skew_output_skew_symmetric_all_words(n):
    for w in one_var_words(n):
        s = skew(MultiPoly.monomial(w))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert collapse(s, i, j).is_zero()


def test_skew_output_skew_symmetric_sampled_degree_6_7():
    rng = random.Random(5)
    for n in (6, 7):
        ws = one_var_words(n)
        for w in rng.sample(ws, 6):
            s = skew(MultiPoly.monomial(w))
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            assert collapse(s, i, j).is_zero()


def test_skew_leaf_assignment_independence():
    # assigning leaves by a fixed permutation tau only multiplies by sgn(tau)
    rng = random.Random(9)
    for n in (2, 3, 4, 5):
        for w in rng.sample(one_var_words(n), min(4, len(one_var_words(n)))):
            base = skew(MultiPoly.monomial(w))
            (shape, _), = split_words([w])
            for tau in (tuple(range(n, 0, -1)), tuple(rng.sample(range(1, n + 1), n))):
                # name the leaves tau left to right instead of 1..n, then alternate
                v = MultiPoly.monomial(fill(shape, tau))
                assert alternate(v) == base.scale(permutation_sign(tau))


def test_alternate_examples():
    assert alternate(parse_poly("(x1*x2)")) == parse_poly("(x1*x2) - (x2*x1)")
    assert alternate(parse_poly("(x1*x2) + (x2*x1)")).is_zero()
    assert alternate(MultiPoly.monomial(((1, 2), 3))) == skew(
        MultiPoly.monomial(((1, 1), 1)))


def test_alternate_idempotent_up_to_factorial():
    for text in ["(x1*x2)", "((x1*x2)*x3)", "(x1*(x2*x3))"]:
        p = parse_poly(text)
        n = len(p.multidegree())
        assert alternate(alternate(p)) == alternate(p).scale(factorial(n))


def test_alternate_rejects_nonmultilinear():
    # a repeated leaf, two multidegrees, two variable sets of one degree
    for text in ("(x1*x1)", "x1 + (x1*x2)", "(x1*x2) + (x3*x4)"):
        with pytest.raises(ValueError, match="^alternate requires a multilinear polynomial$"):
            alternate(parse_poly(text))


@st.composite
def _multilinear_by_shape(draw):
    """Multilinear polynomials with several leaf orders per shape; some
    shapes get one more term that cancels their alternated coefficient."""
    variables = draw(st.lists(st.integers(1, 7), min_size=1, max_size=5, unique=True))
    n = len(variables)
    words = enumerate_words(dict.fromkeys(range(1, n + 1), 1))
    shapes = sorted({shape for shape, _ in split_words(words)}, key=repr)
    orders = list(permutations(variables))
    pairs = []
    for shape in draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=4, unique=True)):
        coefficient = 0  # C_shape: sum of sgn(order) * c over the shape's terms
        for order in draw(st.lists(st.sampled_from(orders), min_size=1, max_size=4)):
            c = draw(_COEFFS)
            pairs.append((fill(shape, order), c))
            coefficient += permutation_sign(order) * c
        if coefficient and draw(st.booleans()):
            order = draw(st.sampled_from(orders))
            pairs.append((fill(shape, order), -permutation_sign(order) * coefficient))
    return MultiPoly.from_pairs(pairs)


@settings(max_examples=300, deadline=None)
@given(_multilinear_by_shape())
@example(parse_poly("(x1*x2) + (x2*x1)"))
@example(parse_poly("x5"))
@example(parse_poly("x3"))
@example(parse_poly("((x2*x5)*x7) + 2*(x7*(x2*x5)) - (x5*(x7*x2))"))
@example(parse_poly("((x1*x2)*x3) + ((x2*x1)*x3) + 3*(x1*(x3*x2))"))  # C_shape 0 on one shape
def test_alternate_matches_relabel_oracle(p):
    a = alternate(p)
    assert a == alternate_by_relabel(p)
    assert alternate(a) == a.scale(factorial(len(p.multidegree())))


@pytest.mark.parametrize("build, k", [*((x_bracket, k) for k in range(1, 7)),
                                     *((z_word, k) for k in range(2, 6))])
def test_skew_of_brackets_matches_relabel_oracle(build, k):
    u = build(k).poly
    representative = MultiPoly.from_pairs(
        (fill(shape, range(1, len(order) + 1)), c)
        for (shape, order), c in zip(split_words(u.terms), u.terms.values()))
    assert skew(u) == alternate_by_relabel(representative)


def _node_objects_and_values(words):
    """Internal nodes reachable from words: distinct objects, distinct values."""
    objects, values, stack = set(), set(), list(words)
    while stack:
        w = stack.pop()
        if isinstance(w, int) or id(w) in objects:
            continue
        objects.add(id(w))
        values.add(w)
        stack.extend(w)
    return len(objects), len(values)


def test_subwords_are_built_once():
    # every subword of an alternate is one object, whichever words hold it
    assert _node_objects_and_values(skew(x_bracket(7).poly).terms) == (265902, 265902)
    # fm rebuilds each distinct node value of fm(m-1) once per relabelling;
    # equal images made by different relabellings stay apart (80670
    # objects unshared, 34470 when nodes were shared by object only)
    assert _node_objects_and_values(fm(6).terms) == (32310, 30510)


def test_skew_peak_memory():
    u = x_bracket(7).poly
    tracemalloc.start()
    try:
        skew(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


_MEMO_PEAK, _MEMO_KEPT = 3 * 2**20, 2**16


def _traced_memory(split, p):
    """(kept, peak) bytes traced over split(p).  Two calls beforehand fill
    CPython's tuple free lists, and a full collection before the read
    empties them, so that kept counts objects still alive and not freed
    tuples parked there."""
    split(p)
    split(p)
    tracemalloc.start()
    try:
        split(p)
        gc.collect()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("split", [associative_projection, is_skew_symmetric])
def test_node_memo_peak_memory(split):
    # the per-call memo holds fm(6)'s 12150 subword objects, not its 20160
    # words, and none of it outlives the call
    kept, peak = _traced_memory(split, fm(6))
    assert peak <= _MEMO_PEAK
    assert kept <= _MEMO_KEPT


@pytest.mark.parametrize("split", [associative_projection, alternate])
def test_node_memo_kept_alive_is_caught(split, monkeypatch):
    kept_memos = []

    def keeping(ws):  # split_words, with each call's memo kept
        memo = {}
        kept_memos.append(memo)
        for w in ws:
            yield words._split(w, memo)
    monkeypatch.setattr(symmetrize, "split_words", keeping)
    monkeypatch.setattr(family, "split_words", keeping)
    kept, _ = _traced_memory(split, fm(6))
    assert kept > _MEMO_KEPT


@pytest.mark.parametrize("fn", [alternate, is_skew_symmetric])
def test_one_split_pass(fn, monkeypatch):
    # validation rides on the one shape split: no separate reader of letters
    p, calls = fm(5), []

    def counting(ws):
        calls.append(ws)
        return words.split_words(ws)
    monkeypatch.setattr(symmetrize, "split_words", counting)
    monkeypatch.setattr(poly, "split_words", counting)
    fn(p)
    assert len(calls) == 1


@st.composite
def _skew_candidates(draw):
    """Multilinear polynomials, their alternates, and near misses of those;
    fm(m) for m <= 5."""
    variables = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
    words = enumerate_words(dict.fromkeys(variables, 1))
    base = _combination(draw, words)
    kind = draw(st.sampled_from(["raw", "alternate", "perturbed", "repeated_leaf",
                                 "two_variable_sets", "unshared", "fm"]))
    if kind == "raw":
        return base
    if kind == "fm":
        return fm(draw(st.integers(1, 5)))
    p = alternate(base)
    if kind == "unshared":  # equal words rebuilt from distinct subword objects
        return MultiPoly.from_pairs((relabel(w, {}), c) for w, c in p.terms.items())
    word = draw(st.sampled_from(words))
    if kind == "perturbed":
        return p + MultiPoly.monomial(word, draw(_COEFFS))
    if kind == "repeated_leaf":
        v = variables[0]
        return p + MultiPoly.monomial(relabel(word, {variables[-1]: v}) if len(variables) > 1
                                      else (v, v), draw(_COEFFS))
    if kind == "two_variable_sets":
        return p + alternate(relabel_poly(base, {variables[0]: 7}))
    return p


def _skew_by_collapse(p):
    if p.is_zero():
        return True
    mds = multidegrees_by_text(p)
    if len(mds) != 1:
        return False
    (md,) = mds
    return all(e == 1 for _, e in md) and all(
        collapse(p, i, j).is_zero() for (i, _), (j, _) in combinations(md, 2))


@settings(max_examples=400, deadline=None)
@given(_skew_candidates())
@example(parse_poly("(x1*x2) + (x1*x1)"))
@example(parse_poly("(x1*x1) + (x1*x2)"))
@example(parse_poly("(x1*x1)"))
@example(parse_poly("(x2*x1)"))  # nonzero, with no ascending word
@example(MultiPoly.zero())
def test_is_skew_symmetric_matches_collapse(p):
    assert is_skew_symmetric(p) == _skew_by_collapse(p)


def test_collapse_examples():
    assert collapse(parse_poly("(x1*x2) - (x2*x1)"), 1, 2).is_zero()
    assert collapse(parse_poly("(x1*x2)"), 1, 2) == parse_poly("(x1*x1)")
    assert collapse(parse_poly("(x1*x2)"), 2, 2) == parse_poly("(x1*x2)")


def test_collapse_matches_relabel():
    rng = random.Random(2)
    words = enumerate_words({1: 1, 2: 1, 3: 1, 4: 1})
    for _ in range(10):
        p = MultiPoly({rng.choice(words): Fraction(rng.randint(-4, 4))
                       for _ in range(5)})
        assert collapse(p, 2, 4) == relabel_poly(p, {4: 2})


def test_as_one_variable():
    assert as_one_variable(parse_poly("((x2*x2)*x2)")) == (2, 3)
    with pytest.raises(ValueError):
        as_one_variable(parse_poly("(x1*x2)"))
    with pytest.raises(ValueError):
        as_one_variable(parse_poly("x1 + (x1*x1)"))
