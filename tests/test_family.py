import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import dense_express, fm_by_relabel, fm_by_substitution
from skewalg.family import (BaseDescriptor, SuperWord, alternating_space,
                            associative_projection, base_descriptors, base_element, basea_count, fm,
                            n_bound, odd_generator, solve_skew_decomposition,
                            standard_polynomial, super_commutator,
                            super_jordan, t_element, t_power,
                            u_word, x_bracket, z_word)
from skewalg.poly import MultiPoly, add_terms, commutator, parse_poly
from skewalg.symmetrize import alternate, collapse, is_skew_symmetric, skew
from skewalg.variety import (ComponentSpace, builtin_variety, component_space,
                             consequence_generators, expand_descriptor)
from skewalg.words import enumerate_words, leaves, relabel, sort_key


def test_fm_base_cases():
    assert fm(1) == parse_poly("x1")
    assert fm(2) == parse_poly("(x1*x2) - (x2*x1)")


def test_fm3_hand_expansion():
    x1, x2, x3 = (MultiPoly.variable(i) for i in (1, 2, 3))
    expected = (commutator(commutator(x1, x2), x3)
                - commutator(commutator(x1, x3), x2)
                + commutator(commutator(x2, x3), x1))
    assert fm(3) == expected


@pytest.mark.parametrize("m", range(1, 7))
def test_fm_multilinear_integer(m):
    f = fm(m)
    assert f.is_multilinear()
    assert f.variables() == set(range(1, m + 1))
    for c in f.terms.values():
        assert Fraction(c).denominator == 1


@pytest.mark.parametrize("m", range(1, 7))
def test_fm_matches_substitution_oracle(m):
    assert fm(m) == fm_by_substitution(m)


@pytest.mark.parametrize("m", range(1, 8))
def test_fm_matches_relabel_recursion(m):
    assert fm(m) == fm_by_relabel(m)


def test_fm_term_counts_frozen():
    assert {m: len(fm(m).terms) for m in range(1, 7)} == {
        1: 1, 2: 2, 3: 12, 4: 96, 5: 1440, 6: 20160}


@pytest.mark.parametrize("m", range(2, 7))
def test_fm_skew_symmetric(m):
    f = fm(m)
    assert is_skew_symmetric(f)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            assert collapse(f, i, j).is_zero()


def test_super_commutator_of_generator():
    x = odd_generator()
    t = super_commutator(x, x)
    assert t.poly == parse_poly("2*(x1*x1)")
    assert t.parity == 0
    assert super_commutator(t, t).poly.is_zero()


def test_super_jordan_parity_and_symmetry():
    x = odd_generator()
    t = t_element()
    xt = super_jordan(x, t)
    assert xt.parity == 1
    assert xt.poly == parse_poly("2*(x1*(x1*x1)) + 2*((x1*x1)*x1)")
    # even-odd super products are plain products of signs +1
    assert super_jordan(t, x).poly == xt.poly


def test_super_antisymmetry_rule():
    rng = random.Random(5)
    from skewalg.words import enumerate_words
    for _ in range(10):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        a = SuperWord(MultiPoly.monomial(rng.choice(enumerate_words({1: da}))), da)
        b = SuperWord(MultiPoly.monomial(rng.choice(enumerate_words({1: db}))), db)
        sign = -1 if (da % 2 and db % 2) else 1
        assert super_commutator(a, b).poly == super_commutator(b, a).poly.scale(-sign)
        assert super_jordan(a, b).poly == super_jordan(b, a).poly.scale(sign)


def test_superword_validation():
    with pytest.raises(ValueError):
        SuperWord(parse_poly("(x1*x2)"), 2)
    with pytest.raises(ValueError):
        SuperWord(parse_poly("(x1*x1)"), 3)


def test_x_bracket_values():
    assert x_bracket(1).poly == parse_poly("x1")
    assert x_bracket(2).poly == parse_poly("2*(x1*x1)")
    assert x_bracket(3).poly == parse_poly("2*((x1*x1)*x1) - 2*(x1*(x1*x1))")
    assert x_bracket(4).parity == 0
    assert t_element().poly == x_bracket(2).poly
    # a SuperWord is a tuple underneath, yet + and n * neither join nor repeat it
    with pytest.raises(TypeError):
        x_bracket(2) + x_bracket(3)
    with pytest.raises(TypeError):
        2 * x_bracket(2)


def test_z_and_u_words():
    t = t_element()
    z4 = z_word(4)
    assert z4.degree == 6
    direct = super_commutator(x_bracket(4), t)
    assert z4.poly == direct.poly
    u4 = u_word(4)
    assert u4.degree == 7
    with pytest.raises(ValueError):
        z_word(1)
    with pytest.raises(ValueError):
        u_word(0)


def test_base_element_examples():
    t = base_element(BaseDescriptor("power", m=1))
    assert t.poly == parse_poly("2*(x1*x1)")
    x3 = base_element(BaseDescriptor("bracket", m=0, k=1))
    assert x3.poly == x_bracket(3).poly
    z_smallest = base_element(BaseDescriptor("z_family", m=0, k=1, eps=0))
    assert z_smallest.poly == z_word(4).poly
    assert base_element(BaseDescriptor("power", m=0, sigma=1)).poly == parse_poly("x1")
    # degrees agree with the declared formula
    for d in range(1, 9):
        for desc in base_descriptors(d):
            assert desc.degree == d
            assert base_element(desc).degree == d


def test_base_descriptor_validation():
    with pytest.raises(ValueError):
        BaseDescriptor("power", m=0, sigma=0)
    with pytest.raises(ValueError):
        BaseDescriptor("bracket", m=1, k=0)
    with pytest.raises(ValueError):
        BaseDescriptor("tower", m=1)
    # parameters a family ignores would give one element several descriptors
    for family, kwargs in (("power", {"m": 1, "k": 5}), ("power", {"m": 1, "eps": 9}),
                           ("power", {"sigma": 1, "eps": 1}),
                           ("bracket", {"k": 1, "eps": 1}),
                           ("u_family", {"k": 1, "eps": 2}),
                           ("z_family", {"k": 1, "eps": -1})):
        with pytest.raises(ValueError):
            BaseDescriptor(family, **kwargs)


def test_base_descriptors_unchanged_by_validation():
    # the catalogue sets only the parameters each family reads, so it builds as before
    labels = [[desc.label() for desc in base_descriptors(d)] for d in range(1, 11)]
    assert labels == [
        ["x"],
        ["t"],
        ["t*x", "x[3]"],
        ["t^2", "x[4]", "(x[3]*x)"],
        ["t^2*x", "t*x[3]", "x[5]", "(x[4]*x)"],
        ["t^3", "t*x[4]", "x[6]", "t*(x[3]*x)", "(x[5]*x)", "z[4]"],
        ["t^3*x", "t^2*x[3]", "t*x[5]", "x[7]", "t*(x[4]*x)", "(x[6]*x)", "u[4]", "z[5]",
         "(z[4]*x)"],
        ["t^4", "t^2*x[4]", "t*x[6]", "x[8]", "t^2*(x[3]*x)", "t*(x[5]*x)", "(x[7]*x)",
         "u[5]", "(u[4]*x)", "t*z[4]", "(z[5]*x)"],
        ["t^4*x", "t^3*x[3]", "t^2*x[5]", "t*x[7]", "x[9]", "t^2*(x[4]*x)", "t*(x[6]*x)",
         "(x[8]*x)", "t*u[4]", "(u[5]*x)", "t*z[5]", "t*(z[4]*x)"],
        ["t^5", "t^3*x[4]", "t^2*x[6]", "t*x[8]", "x[10]", "t^3*(x[3]*x)", "t^2*(x[5]*x)",
         "t*(x[7]*x)", "(x[9]*x)", "t*u[5]", "t*(u[4]*x)", "t^2*z[4]", "z[8]",
         "t*(z[5]*x)"],
    ]


def test_basea_counts():
    assert [basea_count(d) for d in range(1, 7)] == [1, 1, 2, 3, 4, 6]
    assert basea_count(0) == 0


def test_base_labels():
    labels = {d.label() for d in base_descriptors(5)}
    assert labels == {"t^2*x", "t*x[3]", "x[5]", "(x[4]*x)"}
    assert BaseDescriptor("bracket", m=2, k=3, sigma=1).label() == "t^2*(x[5]*x)"


def test_n_bound():
    assert n_bound(0) == 0
    assert n_bound(2) == 3
    assert n_bound(3) == 7
    with pytest.raises(ValueError):
        n_bound(-1)


def test_associative_projection_brackets_vanish():
    for k in range(3, 10):
        assert associative_projection(x_bracket(k).poly) == {}
    for k in (4, 5, 6):  # z/u images checked through total degree 9
        assert associative_projection(z_word(k).poly) == {}
        assert associative_projection(u_word(k).poly) == {}


def test_associative_projection_powers():
    for m in (1, 2, 3):
        for sigma in (0, 1):
            el = base_element(BaseDescriptor("power", m=m, sigma=sigma))
            proj = associative_projection(el.poly)
            n = 2 * m + sigma
            assert proj == {(1,) * n: Fraction(2) ** m}


def test_skew_powers_project_to_standard_polynomial():
    for m, sigma in [(0, 1), (1, 0), (1, 1), (2, 0)]:
        n = 2 * m + sigma
        el = base_element(BaseDescriptor("power", m=m, sigma=sigma))
        got = associative_projection(skew(el.poly))
        want = {w: (Fraction(2) ** m) * c for w, c in standard_polynomial(n).items()}
        assert got == want


_COEFFS = st.integers(-3, 3).filter(bool)


@st.composite
def _projection_inputs(draw):
    """fm and alternate outputs, whose words share subword objects, as they
    are, rebuilt from distinct objects, or with one word also held as the
    subword of another term."""
    if draw(st.booleans()):
        p = fm(draw(st.integers(1, 5)))
    else:
        variables = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4, unique=True))
        words = enumerate_words(dict.fromkeys(variables, 1))
        p = alternate(MultiPoly.from_pairs(draw(st.lists(
            st.tuples(st.sampled_from(words), _COEFFS), min_size=1, max_size=4))))
    kind = draw(st.sampled_from(["shared", "unshared", "nested"]))
    if kind == "unshared":
        return MultiPoly.from_pairs((relabel(w, {}), c) for w, c in p.terms.items())
    if kind == "nested" and p:
        w = draw(st.sampled_from(sorted(p.terms, key=sort_key)))
        return p + MultiPoly.monomial((w, 9), draw(_COEFFS))
    return p


@settings(max_examples=200, deadline=None)
@given(_projection_inputs())
@example(MultiPoly.zero())
@example(parse_poly("x3"))
@example(parse_poly("x2 - 2*(x1*x2) + ((x1*x2)*x1)"))
def test_associative_projection_matches_leaf_walk(p):
    want = add_terms({}, ((tuple(leaves(w)), c) for w, c in p.terms.items()))
    assert associative_projection(p) == want


def test_standard_polynomial_small():
    assert standard_polynomial(1) == {(1,): Fraction(1)}
    assert standard_polynomial(2) == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}
    s3 = standard_polynomial(3)
    assert len(s3) == 6 and s3[(3, 2, 1)] == Fraction(-1)


def test_solve_skew_decomposition_small(config):
    alt = builtin_variety("alt")
    for m, expect_free in [(2, False), (3, False), (4, True), (5, True)]:
        md = {i: 1 for i in range(1, m + 1)}
        assert alternating_space(m, config) is component_space(alt, md, config)
        r = solve_skew_decomposition(m, config)
        assert r.status == "ok"
        assert r.alpha == Fraction(1, 2)
        assert r.beta is None
        assert r.beta_free is expect_free
        residual = r.certificate.target
        assert residual == fm(m) - skew(x_bracket(m).poly).scale(r.alpha)
        assert residual.is_zero() == (m < 5)
        assert (r.certificate.entries == []) == (m < 5)
        assert r.certificate.recheck(alt)


def test_alpha4_against_dense_oracle(config):
    # independent route: dense solve of fm(4) over {Skew x^[4]} + alt generators
    alt = builtin_variety("alt")
    md = {i: 1 for i in range(1, 5)}
    space = ComponentSpace(alt, md, config)
    rows = [space.vec(skew(x_bracket(4).poly))]
    rows += [space.vec(expand_descriptor(alt, d))
             for d in consequence_generators(alt, md)]
    coeffs = dense_express(rows, space.vec(fm(4)), len(space.ambient))
    assert coeffs is not None
    assert coeffs.get(0) == Fraction(1, 2)


def test_t_power_is_left_associated():
    assert t_power(2).poly == parse_poly("4*((x1*x1)*(x1*x1))")
    assert t_power(3).degree == 6


def test_solver_rejects_bad_m():
    with pytest.raises(ValueError):
        solve_skew_decomposition(0)
