"""Multilinearization, skew-symmetrization, the skew-symmetry test and
variable collapse.

The skew operator sends a one-variable element u of degree n to the signed
sum over all n! relabellings of the multilinear representative obtained by
naming the leaves x1..xn left-to-right: words.fill(shape, 1..n) of each
term's shape.  The representative choice only fixes the output up to the
documented convention: any other fixed leaf assignment changes the result
by the sign of the connecting permutation.

No 1/n! normalization is applied anywhere, so integral inputs stay
integral and certificates remain exact.

skew, alternate and linearize read each term as its bracketing shape and
its leaf order, from words.split_words; skew and linearize rebuild words
from such pairs with its inverse, words.fill.  alternate splits p once, in
a pass that checks each distinct leaf order once; as_one_variable and
linearize read the letters from MultiPoly.multidegree.  is_skew_symmetric
is one comparison: p against the alternate of its ascending words, the
words of p whose leaves are its variables in ascending order.  alternate,
and with it skew and is_skew_symmetric, fills each shape by recursion over
its tree: a node's words, kept in one list per sign, are the products of
its children's lists over every split of its variables, memoised per
subshape and variable set.  So every distinct subword is one tuple, shared
by all words holding it, and the collector tracks far fewer.
"""

from itertools import chain, combinations, permutations, product, repeat

from .poly import MultiPoly, _wrap, add_terms, gc_paused, relabel_poly
from .words import degree, enumerate_words, fill, leaves, split_words


def permutation_sign(perm) -> int:
    """Parity of a permutation given as a tuple of images (by inversions)."""
    sign = 1
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def as_one_variable(p: MultiPoly):
    """Validate that every leaf of every word is the same variable.

    Returns (variable, degree); this is the OneVarElement contract.
    """
    md = p.multidegree()
    if len(md) != 1:
        raise ValueError("element is not written in a single variable")
    (var, deg), = md.items()
    return var, deg


def skew(u: MultiPoly) -> MultiPoly:
    """Signed symmetrization of a one-variable element over x1..xn.

    Linear in u: the alternate of u's positional representative, each
    term's shape filled with 1..n.  The output is multilinear and vanishes
    under any collapse of two variables.
    """
    if u.is_zero():
        return MultiPoly.zero()
    positions = range(1, as_one_variable(u)[1] + 1)
    return alternate(MultiPoly.from_pairs((fill(shape, positions), c) for (shape, _), c
                                          in zip(split_words(u.terms), u.terms.values())))


def alternate(p: MultiPoly) -> MultiPoly:
    """Sum of sgn(s) * s(p) over all permutations s of p's variables.

    Requires p multilinear; alternate(alternate(p)) = n! * alternate(p).
    Computed once per shape, not once per term: writing each term as
    fill(shape, order), its split by words.split_words,

        alternate(p) = sum over shapes, over permutations t of the variables,
                       of sgn(t) * C_shape * fill(shape, t),
        C_shape = sum of sgn(order) * c over the terms of that shape.

    A word determines its shape and its leaf order, so distinct (shape, t)
    pairs give distinct words and the output needs no accumulation.  Each
    shape is filled by recursion over its tree (see _fill), and every
    distinct subword is built once and shared by all words that hold it.
    """
    if p.is_zero():
        return MultiPoly.zero()
    signs = {}
    shapes = add_terms({}, _signed(p, signs))
    variables = tuple(sorted(next(iter(signs))))
    memo = {}
    out = {}
    with gc_paused():
        for shape, c in shapes.items():
            if shape == 0:  # the one-leaf shape: p is c * x_v
                out[variables[0]] = c
                continue
            plus, minus = repeat(c), repeat(-c)
            for positive, negative in _splits(shape, variables, memo):
                out.update(zip(positive, plus))
                out.update(zip(negative, minus))
    return _wrap(out)


def _signed(p: MultiPoly, signs: dict):
    """(shape, sgn(order) * c) for each term of p, from one split: alternate's
    pass.  signs caches each distinct leaf order's sign, in the order first
    met; an order is checked once, against the first order's distinct
    variables, and one that is not a permutation of them raises ValueError."""
    for (shape, order), c in zip(split_words(p.terms), p.terms.values()):
        sign = signs.get(order)
        if sign is None:
            if sorted(order) != sorted(set(next(iter(signs), order))):
                raise ValueError("alternate requires a multilinear polynomial")
            sign = signs[order] = permutation_sign(order)
        yield shape, sign * c


def _splits(skeleton, variables, memo):
    """The fillings of a node by its splits of the sorted variables.

    Positions run left to right, so the left child, with a leaves, takes
    the first a positions.  For each a-subset S of variables (by indices)
    the left child is filled from S and the right child from the rest, and
    the shuffle putting S before the rest has the cross sign
    (-1)^(sum of S's indices - a(a-1)/2).  A product of two fillings has
    the sign of its children's signs and the cross sign multiplied, so
    each split yields two iterators: its words of sign +1, then of -1.
    """
    left, right = skeleton
    a = degree(left)
    offset = a * (a - 1) // 2
    indices = range(len(variables))
    for chosen in combinations(indices, a):
        left_pos, left_neg = _fill(left, tuple(variables[i] for i in chosen), memo)
        right_pos, right_neg = _fill(
            right, tuple(variables[i] for i in indices if i not in chosen), memo)
        same = chain(product(left_pos, right_pos), product(left_neg, right_neg))
        mixed = chain(product(left_pos, right_neg), product(left_neg, right_pos))
        yield (mixed, same) if (sum(chosen) - offset) % 2 else (same, mixed)


def _fill(skeleton, variables, memo):
    """(positive, negative): fill(skeleton, t) over every ordering t of
    variables, split by sgn(t).

    skeleton is a shape with every leaf 0 and variables a sorted tuple.
    Memoised on (skeleton, variables), so a subword is built once per call
    of alternate however many words hold it.  Keeping one list per sign,
    rather than a sign beside each word, stores no sign per word and lets
    every product of two lists take one sign.
    """
    key = (skeleton, variables)
    hit = memo.get(key)
    if hit is None:
        if skeleton == 0:
            hit = [variables[0]], []
        else:
            hit = [], []
            for positive, negative in _splits(skeleton, variables, memo):
                hit[0].extend(positive)
                hit[1].extend(negative)
        memo[key] = hit
    return hit


def is_skew_symmetric(p: MultiPoly) -> bool:
    """Whether every transposition of two variables negates p: in
    characteristic 0, whether p is the alternate of its ascending part, its
    terms fill(shape, variables) with the variables, read off the first
    term's leaves, ascending.  Then each word fill(shape, t) has sgn(t)
    times its shape's ascending coefficient.  The zero polynomial passes."""
    if p.is_zero():
        return True
    variables = sorted(leaves(next(iter(p.terms))))
    if len(set(variables)) < len(variables):
        return False
    # fill reads only the shape of each one-variable word
    ascending = (fill(shape, variables) for shape in enumerate_words({1: len(variables)}))
    part = {w: p.terms[w] for w in ascending if w in p.terms}
    return alternate(_wrap(part)).terms == p.terms


def collapse(p: MultiPoly, i: int, j: int) -> MultiPoly:
    """Substitute x_j -> x_i and combine terms."""
    return relabel_poly(p, {j: i})


def linearize(p: MultiPoly) -> MultiPoly:
    """Full multilinearization of a multihomogeneous polynomial.

    Each variable of exponent k is replaced by k fresh variables summed over
    all k! placements, without dividing by factorials.  Fresh variables are
    numbered 1..n in blocks following the sorted original variables, so the
    result is multilinear in x1..xn.  Sending every fresh variable back to
    its original recovers (prod k_v!) * p.  Each term's shape is filled
    once per placement, its leaves of variable v taking v's fresh labels in
    the placement's order, read off the term's leaf order.
    """
    md = p.multidegree()
    blocks, offset = [], 0
    for e in md.values():
        blocks.append(permutations(range(offset + 1, offset + 1 + e)))
        offset += e
    placements = list(product(*blocks))
    return MultiPoly.from_pairs(
        (fill(shape, [next(fresh[v]) for v in order]), c)
        for (shape, order), c in zip(split_words(p.terms), p.terms.values())
        for fresh in (dict(zip(md, map(iter, choice))) for choice in placements))
