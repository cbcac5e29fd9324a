"""Multilinearization, skew-symmetrization, the skew-symmetry test and
variable collapse.

The skew operator sends a one-variable element u of degree n to the signed
sum over all n! relabellings of the multilinear representative obtained by
naming the leaves x1..xn left-to-right.  The representative choice only
fixes the output up to the documented convention: any other fixed leaf
assignment changes the result by the sign of the connecting permutation.

No 1/n! normalization is applied anywhere, so integral inputs stay
integral and certificates remain exact.
"""

from itertools import permutations, product
from math import factorial

from .poly import MultiPoly, _wrap, add_terms, gc_paused, relabel_poly


def permutation_sign(perm) -> int:
    """Parity of a permutation given as a tuple of images (by inversions)."""
    sign = 1
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def homogeneous_multidegree(p: MultiPoly) -> dict:
    mds = p.multidegrees()
    if len(mds) != 1:
        raise ValueError("polynomial is not multihomogeneous")
    return dict(mds.pop())


def as_one_variable(p: MultiPoly):
    """Validate that every leaf of every word is the same variable.

    Returns (variable, degree); this is the OneVarElement contract.
    """
    md = homogeneous_multidegree(p)
    if len(md) != 1:
        raise ValueError("element is not written in a single variable")
    (var, deg), = md.items()
    return var, deg


def _positional(w, order):
    """Relabel leaves by their left-to-right position 1..n.

    The original leaves are appended to order, left to right.
    """
    if isinstance(w, int):
        order.append(w)
        return len(order)
    return (_positional(w[0], order), _positional(w[1], order))


def skew(u: MultiPoly) -> MultiPoly:
    """Signed symmetrization of a one-variable element over x1..xn.

    Linear in u: the alternate of u's positional representative.  The
    output is multilinear and vanishes under any collapse of two variables.
    """
    if u.is_zero():
        return MultiPoly.zero()
    as_one_variable(u)
    return alternate(MultiPoly.from_pairs((_positional(w, []), c)
                                          for w, c in u.terms.items()))


def alternate(p: MultiPoly) -> MultiPoly:
    """Sum of sgn(s) * s(p) over all permutations s of p's variables.

    Requires p multilinear; alternate(alternate(p)) = n! * alternate(p).
    Computed once per positional shape, not once per term: writing each
    term as fill(shape, order), with order its leaves left to right,

        alternate(p) = sum over shapes, over permutations t of the variables,
                       of sgn(t) * C_shape * fill(shape, t),
        C_shape = sum of sgn(order) * c over the terms of that shape.

    A word determines its shape and its leaf order, so distinct (shape, t)
    pairs give distinct words and the output needs no accumulation.
    """
    if p.is_zero():
        return MultiPoly.zero()
    if not p.is_multilinear():
        raise ValueError("alternate requires a multilinear polynomial")

    def signed_shapes():
        for w, c in p.terms.items():
            order = []
            shape = _positional(w, order)
            yield shape, permutation_sign(order) * c
    shapes = add_terms({}, signed_shapes())
    perms = [(permutation_sign(t), t) for t in permutations(sorted(p.variables()))]
    builders = [(_builder(shape), c) for shape, c in shapes.items()]
    with gc_paused():
        return _wrap({build(t): sign * c for build, c in builders for sign, t in perms})


def _builder(shape):
    """A function t -> fill(shape, t), leaf at position k taking t[k-1].

    The source is made only from the integer positions that _positional
    assigned, never from input text.
    """
    def source(s):
        if isinstance(s, int):
            return f"t[{s - 1}]"
        return f"({source(s[0])}, {source(s[1])})"
    return eval(f"lambda t: {source(shape)}")


def is_skew_symmetric(p: MultiPoly) -> bool:
    """Whether every transposition of two variables negates p, in one pass.

    Each term splits into its positional shape and its leaf order.  p passes
    when every leaf order is a permutation of one variable set, when
    sgn(order) * coefficient is the same on every term of a shape (so each
    coefficient is sgn(order) times that of the shape's ascending word), and
    when each shape occurs with all n! orders.  In characteristic 0 this is
    equivalent to p being multilinear with every collapse(p, i, j) zero; the
    zero polynomial passes.
    """
    signs = {}    # leaf order -> its sign, once checked against the variables
    shapes = {}   # positional shape -> [sgn(order) * coefficient, orders seen]
    variables = None
    for w, c in p.terms.items():
        order = []
        shape = _positional(w, order)
        order = tuple(order)
        sign = signs.get(order)
        if sign is None:
            if variables is None:
                variables = sorted(set(order))
            if sorted(order) != variables:
                return False
            sign = signs[order] = permutation_sign(order)
        entry = shapes.get(shape)
        if entry is None:
            shapes[shape] = [sign * c, 1]
        elif entry[0] != sign * c:
            return False
        else:
            entry[1] += 1
    n_orders = factorial(len(variables or ()))
    return all(count == n_orders for _, count in shapes.values())


def collapse(p: MultiPoly, i: int, j: int) -> MultiPoly:
    """Substitute x_j -> x_i and combine terms."""
    return relabel_poly(p, {j: i})


def linearize(p: MultiPoly) -> MultiPoly:
    """Full multilinearization of a multihomogeneous polynomial.

    Each variable of exponent k is replaced by k fresh variables summed over
    all k! placements, without dividing by factorials.  Fresh variables are
    numbered 1..n in blocks following the sorted original variables, so the
    result is multilinear in x1..xn.  Sending every fresh variable back to
    its original recovers (prod k_v!) * p.
    """
    md = homogeneous_multidegree(p)
    vs = sorted(md)
    blocks = {}
    offset = 0
    for v in vs:
        blocks[v] = list(range(offset + 1, offset + 1 + md[v]))
        offset += md[v]
    return MultiPoly.from_pairs(
        (_linearize_word(w, dict(zip(vs, map(list, choice)))), c)
        for w, c in p.terms.items()
        for choice in product(*(permutations(blocks[v]) for v in vs)))


def _linearize_word(w, labels):
    """Relabel leaves consuming each variable's fresh-label list left-to-right."""
    if isinstance(w, int):
        return labels[w].pop(0)
    return (_linearize_word(w[0], labels), _linearize_word(w[1], labels))

