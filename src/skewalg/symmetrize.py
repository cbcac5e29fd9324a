"""Multilinearization, skew-symmetrization and variable collapse.

The skew operator sends a one-variable element u of degree n to the signed
sum over all n! relabellings of the multilinear representative obtained by
naming the leaves x1..xn left-to-right.  The representative choice only
fixes the output up to the documented convention: any other fixed leaf
assignment changes the result by the sign of the connecting permutation.

No 1/n! normalization is applied anywhere, so integral inputs stay
integral and certificates remain exact.
"""

from itertools import permutations, product

from .poly import MultiPoly, add_terms


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


def _positional(w, counter):
    """Relabel leaves by their left-to-right position 1..n."""
    if isinstance(w, int):
        counter[0] += 1
        return counter[0]
    return (_positional(w[0], counter), _positional(w[1], counter))


def skew(u: MultiPoly) -> MultiPoly:
    """Signed symmetrization of a one-variable element over x1..xn.

    Linear in u; the output is multilinear and vanishes under any collapse
    of two variables.
    """
    if u.is_zero():
        return MultiPoly.zero()
    var, n = as_one_variable(u)
    perms = [(permutation_sign(s), dict(enumerate(s, start=1))) for s in permutations(range(1, n + 1))]
    bases = [(_positional(w, [0]), c) for w, c in u.terms.items()]
    return MultiPoly.from_pairs((_relabel_raw(base, mapping), sign * c)
                                for base, c in bases for sign, mapping in perms)


def _relabel_raw(w, mapping):
    if isinstance(w, int):
        return mapping[w]
    return (_relabel_raw(w[0], mapping), _relabel_raw(w[1], mapping))


def alternate(p: MultiPoly) -> MultiPoly:
    """Sum of sgn(s) * s(p) over all permutations s of p's variables.

    Requires p multilinear; alternate(alternate(p)) = n! * alternate(p).
    """
    if p.is_zero():
        return MultiPoly.zero()
    if not p.is_multilinear():
        raise ValueError("alternate requires a multilinear polynomial")
    vs = sorted(p.variables())
    perms = [(permutation_sign(s), dict(zip(vs, s))) for s in permutations(vs)]
    return MultiPoly.from_pairs((_relabel_raw(w, mapping), sign * c)
                                for sign, mapping in perms for w, c in p.terms.items())


def collapse(p: MultiPoly, i: int, j: int) -> MultiPoly:
    """Substitute x_j -> x_i and combine terms.

    Terms are merged on (shape, relabelled leaves) pairs and only surviving
    terms are rebuilt as trees, so mass cancellations (the typical case for
    skew-symmetric inputs) cost no tree construction.
    """
    if i == j:
        return p
    table, dec = p.shape_view()
    acc = add_terms({}, (((sid, tuple(i if v == j else v for v in lv)), c)
                         for sid, lv, c in dec))
    return MultiPoly({table.rebuild(sid, iter(lv)): c for (sid, lv), c in acc.items()})


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

