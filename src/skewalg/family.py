"""The recursive alternating commutator family f_m, super-bracket words in
one odd generator, the base catalogue with its degree bookkeeping, the
generator-count bound, the ambient of the alternating checks and the
two-parameter skew decomposition solver.

f_1(x1) = x1, f_2(x1, x2) = [x1, x2], and

    f_{m+1}(x1..x_{m+1}) =
        sum over i < j of (-1)^(i+j-1) f_m([xi, xj], x1..^xi..^xj..x_{m+1})

where ^xk omits the argument.  All coefficients are integers.

Super-bracket convention (parities: |a| = degree mod 2, generator odd):

    [a, b]_s  = ab - (-1)^(|a||b|) ba        super-commutator
    a circ_s b = ab + (-1)^(|a||b|) ba        super-Jordan product

so x^[2] = 2 x*x is nonzero while [t, t]_s = 0.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb

from .config import DEFAULT_CONFIG
from .poly import MultiPoly, _wrap, add_terms, gc_paused, multiply
from .symmetrize import as_one_variable, permutation_sign, skew
from .variety import ComponentSpace, builtin_variety, component_space
from .words import flatten


@lru_cache(maxsize=None)
def fm(m: int) -> MultiPoly:
    """The degree-m alternating polynomial of the recursion, in x1..xm.

    [xi, xj] for x1 is two relabellings: x1 -> (xi xj) and x1 -> -(xj xi).
    fm(m-1)'s distinct subwords are flattened once; each relabelling then
    rebuilds them in one pass, children first."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return MultiPoly.variable(1)
    prev = fm(m - 1).terms
    nodes, roots = flatten(prev, m)
    coeffs = list(prev.values())
    acc = {}
    with gc_paused():
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                sign = 1 if (i + j) % 2 else -1  # (-1)^(i+j-1)
                rest = [k for k in range(1, m + 1) if k != i and k != j]
                for first, s in (((i, j), sign), ((j, i), -sign)):
                    images = [0, first, *rest]  # position v < m holds x_v's image
                    grow = images.append
                    for left, right in nodes:
                        grow((images[left], images[right]))
                    add_terms(acc, ((images[r], s * c) for r, c in zip(roots, coeffs)))
    return _wrap(acc)


# -- one-odd-generator super-bracket words -----------------------------------


class SuperWord(namedtuple("SuperWord", "poly degree")):
    """A one-variable element with its parity grading (degree mod 2)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.poly.is_zero():
            _, deg = as_one_variable(self.poly)
            if deg != self.degree:
                raise ValueError("declared degree does not match the element")
        return self

    @property
    def parity(self) -> int:
        return self.degree % 2

    def __mul__(self, other: "SuperWord") -> "SuperWord":
        return SuperWord(multiply(self.poly, other.poly), self.degree + other.degree)

    def __add__(self, other):  # no tuple concatenation or repetition
        return NotImplemented

    __rmul__ = __add__


def odd_generator() -> SuperWord:
    return SuperWord(MultiPoly.variable(1), 1)


def super_commutator(a: SuperWord, b: SuperWord) -> SuperWord:
    sign = -1 if (a.parity and b.parity) else 1
    p = multiply(a.poly, b.poly) - multiply(b.poly, a.poly).scale(sign)
    return SuperWord(p, a.degree + b.degree)


def super_jordan(a: SuperWord, b: SuperWord) -> SuperWord:
    sign = -1 if (a.parity and b.parity) else 1
    p = multiply(a.poly, b.poly) + multiply(b.poly, a.poly).scale(sign)
    return SuperWord(p, a.degree + b.degree)


@lru_cache(maxsize=None)
def x_bracket(k: int) -> SuperWord:
    """Iterated bracket x^[k]: x^[1] = x, x^[k+1] = [x^[k], x]_s."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return odd_generator()
    return super_commutator(x_bracket(k - 1), odd_generator())


def t_element() -> SuperWord:
    """t = x^[2] = 2 x*x, the even square."""
    return x_bracket(2)


@lru_cache(maxsize=None)
def t_power(m: int) -> SuperWord:
    """Left-associated t^m, degree 2m (m >= 1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return t_element()
    return t_power(m - 1) * t_element()


def z_word(k: int) -> SuperWord:
    """z^[k] = [x^[k], t]_s, defined for k > 1."""
    if k < 2:
        raise ValueError("z words need k > 1")
    return super_commutator(x_bracket(k), t_element())


def u_word(k: int) -> SuperWord:
    """u^[k] = x^[k] circ_s x^[3], defined for k > 1."""
    if k < 2:
        raise ValueError("u words need k > 1")
    return super_jordan(x_bracket(k), x_bracket(3))


# -- the base catalogue -------------------------------------------------------


class BaseDescriptor(namedtuple("BaseDescriptor", "family m sigma k eps",
                                defaults=(0, 0, 0, 0))):
    """One element of the spanning catalogue of the one-generator superalgebra.

    Families and degrees:
      power    t^m x^s                degree 2m + s,            m + s >= 1
      bracket  t^m (x^[k+2] x^s)      degree 2m + k + 2 + s,    k >= 1
      u_family t^m (u^[4k+e] x^s)     degree 2m + 4k + e + 3 + s, k >= 1
      z_family t^m (z^[4k+e] x^s)     degree 2m + 4k + e + 2 + s, k >= 1
    with s, e in {0, 1}.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in ("power", "bracket", "u_family", "z_family"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.m < 0 or self.sigma not in (0, 1):
            raise ValueError("bad parameters")
        if self.family == "power":
            if self.m + self.sigma < 1:
                raise ValueError("power family needs m + sigma >= 1")
            if self.k != 0:
                raise ValueError("power family takes no k")
        else:
            if self.k < 1:
                raise ValueError("k must be >= 1")
        if self.family in ("u_family", "z_family"):
            if self.eps not in (0, 1):
                raise ValueError("eps must be 0 or 1")
        elif self.eps != 0:
            raise ValueError(f"{self.family} family takes no eps")
        return self

    @property
    def degree(self) -> int:
        return 2 * self.m + self.sigma + _core_degree(self.family, self.k, self.eps)

    def label(self) -> str:
        head = "" if self.m == 0 else ("t" if self.m == 1 else f"t^{self.m}")
        if self.family == "power":
            tail = "x" if self.sigma else ""
        else:
            sym = {"bracket": "x", "u_family": "u", "z_family": "z"}[self.family]
            idx = self.k + 2 if self.family == "bracket" else 4 * self.k + self.eps
            inner = f"{sym}[{idx}]"
            tail = f"({inner}*x)" if self.sigma else inner
        if head and tail:
            return f"{head}*{tail}"
        return head or tail


def base_element(desc: BaseDescriptor) -> SuperWord:
    """Construct the catalogue element literally, products as printed."""
    if desc.family == "power":
        inner = odd_generator() if desc.sigma else None
    else:
        if desc.family == "bracket":
            core = x_bracket(desc.k + 2)
        elif desc.family == "u_family":
            core = u_word(4 * desc.k + desc.eps)
        else:
            core = z_word(4 * desc.k + desc.eps)
        inner = core * odd_generator() if desc.sigma else core
    if desc.m == 0:
        if inner is None:
            raise ValueError("empty element")
        return inner
    head = t_power(desc.m)
    return head * inner if inner is not None else head


def _core_degree(family: str, k: int, eps: int) -> int:
    """Degree of a family's element at m = sigma = 0 (the table in
    BaseDescriptor's docstring)."""
    if family == "power":
        return 0
    if family == "bracket":
        return k + 2
    return 4 * k + eps + (3 if family == "u_family" else 2)


def base_descriptors(degree: int) -> list:
    """All catalogue descriptors of the given degree, in a fixed order:
    family, then sigma, then k, then eps."""
    if degree < 1:
        return []
    out = []
    for family in ("power", "bracket", "u_family", "z_family"):
        ks = (0,) if family == "power" else range(1, degree + 1)
        epss = (0, 1) if family in ("u_family", "z_family") else (0,)
        for sigma, k, eps in product((0, 1), ks, epss):
            rem = degree - sigma - _core_degree(family, k, eps)
            if rem >= 0 and rem % 2 == 0:
                out.append(BaseDescriptor(family, m=rem // 2, sigma=sigma, k=k, eps=eps))
    return out


def basea_count(degree: int) -> int:
    """Number of catalogue descriptors of the given degree."""
    return len(base_descriptors(degree))


def n_bound(m: int) -> int:
    """N(m) = m + C(m,2) + C(m,3): every m-generated alternative algebra
    satisfies f_{n+1} = 0 for all n > 1 + N(m)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return m + comb(m, 2) + comb(m, 3)


# -- associative shadow -------------------------------------------------------


def associative_projection(p: MultiPoly) -> dict:
    """Image under forgetting the bracketing: word -> tuple of its leaves."""
    memo = {}  # id of a subword object -> its leaves; p keeps them alive
    return add_terms({}, ((_leaves(w, memo), c) for w, c in p.terms.items()))


def _leaves(w, memo):
    """The leaves of w, its children's leaves joined.

    Each child's tuple is kept in memo under the child's id, so a subword
    object is split once however many words hold it; w's own is not, as
    a term's word is met once.
    """
    if isinstance(w, int):
        return (w,)
    left, right = w
    left_leaves, right_leaves = memo.get(id(left)), memo.get(id(right))
    if left_leaves is None:
        left_leaves = memo[id(left)] = _leaves(left, memo)
    if right_leaves is None:
        right_leaves = memo[id(right)] = _leaves(right, memo)
    return left_leaves + right_leaves


def standard_polynomial(n: int) -> dict:
    """S_n as an associative polynomial: sum of sgn(s) x_{s(1)}...x_{s(n)}."""
    return {perm: permutation_sign(perm) for perm in permutations(range(1, n + 1))}


# -- the alternating ambient and the skew decomposition -----------------------


def alternating_space(m: int, config=DEFAULT_CONFIG) -> ComponentSpace:
    """The multilinear degree-m component of the alternative T-ideal.

    Every alternating claim (fm_nonzero, skew_dim, lemma3, eq6) is decided
    in this one ambient.  Each call looks the space up through
    component_space, whose session cache is the only one.
    """
    return component_space(builtin_variety("alt"), {i: 1 for i in range(1, m + 1)},
                           config)


# status is "ok" or "no_solution"; beta is None when the z term is absent or
# zero; certificate's target is fm - alpha*skew(x^[m]) - beta*skew(z^[m-2]).
SkewDecomposition = namedtuple("SkewDecomposition",
                               "m status alpha beta beta_free certificate",
                               defaults=(None, None, False, None))


def solve_skew_decomposition(m: int, config=DEFAULT_CONFIG) -> SkewDecomposition:
    """Solve fm(m) = alpha * Skew(x^[m]) + beta * Skew(z^[m-2]) modulo the
    alternative T-ideal at the multilinear component of degree m.

    The z term participates only for m - 2 >= 2 (the bracket z^[k] is
    defined for k > 1); when it is absent or expands to zero the solve runs
    on the x^[m] term alone and beta is reported free.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    space = alternating_space(m, config)
    s1 = skew(x_bracket(m).poly)
    s2 = skew(z_word(m - 2).poly) if m - 2 >= 2 else MultiPoly.zero()
    quotient = space.quotient([s1])  # insertion id 0
    z_independent = quotient.insert_reduce(space.residual_of(s2))  # insertion id 1
    coeffs, _ = quotient.express_in_span(space.residual_of(fm(m)))
    if coeffs is None:
        return SkewDecomposition(m, "no_solution")
    alpha = Fraction(coeffs.get(0, 0))
    beta = Fraction(coeffs.get(1, 0)) if z_independent else None
    beta_free = (m - 2 >= 2) and not z_independent

    combo = s1.scale(alpha)
    if beta is not None:
        combo = combo + s2.scale(beta)
    residual = fm(m) - combo
    certificate, witness = space.express(residual)
    if certificate is None:
        raise RuntimeError(
            f"residual escaped the saturated component at word {witness}")
    return SkewDecomposition(m, "ok", alpha, beta, beta_free, certificate)
