"""Independent oracles: linear algebra over Fractions and the f_m recursion.

Deliberately naive and separate from skewalg.linalg: plain dense Gaussian
elimination on lists of Fractions, used to cross-check ranks and span
coefficients produced by the sparse accumulator, and a sparse echelon that
composes provenance eagerly on every insert, used to check certificates
entry for entry.  UnprunedSaturation feeds the whole generator stream,
exact duplicates dropped by raw vector, into an accumulator of its own,
used to check that skipping generators by slot orbit changes no row,
provenance value or certificate.  DictSweepEchelon is the integer echelon
with its sweep on a dict work vector and rational provenance, used to
check the engine's dense sweep and integer provenance value for value.
WordPathSaturation is the saturation with generators expanded word by
word, used to check the engine's word table insertion for insertion.
splits_by_filter is variety._splits as the whole product of the
variables' compositions with the tuples that leave a slot empty dropped,
used to check the engine's pruned walk split for split.
Both saturations take the generators in the engine's order, high group
keys first (_engine_order).
fm_by_substitution builds f_m with polynomial substitution and
fm_by_relabel with one relabel_shared per term, both separate from
skewalg.family's flattened relabelling; relabel_shared is words.relabel
with subtrees shared in the input kept shared in the output.
alternate_by_relabel alternates term by term, separate from
skewalg.symmetrize's per-shape alternation, and linearize_by_relabel
relabels each word's leaves one by one, separate from linearize's
shape filling.  leaves_by_text reads a word's leaves off its text,
separate from skewalg.words.split_words, and multidegrees_by_text counts
them per term, separate from MultiPoly.multidegree; the oracles read
letters only through these two (tests/test_oracles.py checks it).
"""

import heapq
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import gcd, lcm

from skewalg.linalg import EchelonAccumulator
from skewalg.poly import MultiPoly, add_terms, commutator, substitute
from skewalg.variety import _slot_orbits, consequence_generators, expand_descriptor
from skewalg.words import HOLE, enumerate_words, format_word, relabel


def dense_matrix(sparse_rows, dim):
    return [[Fraction(row.get(j, 0)) for j in range(dim)] for row in sparse_rows]


def dense_rank(sparse_rows, dim):
    m = dense_matrix(sparse_rows, dim)
    rank = 0
    for col in range(dim):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def dense_express(sparse_rows, target, dim):
    """Coefficients c with sum(c_k row_k) == target, or None.

    Solves the transposed system by full elimination on [rows^T | target].
    """
    n = len(sparse_rows)
    aug = [[Fraction(row.get(j, 0)) for row in sparse_rows] + [Fraction(target.get(j, 0))]
           for j in range(dim)]
    pivots = []
    rank = 0
    for col in range(n):
        piv = None
        for r in range(rank, dim):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = Fraction(1) / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for r in range(dim):
            if r != rank and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, dim):
        if aug[r][n] != 0:
            return None  # inconsistent: target outside the span
    coeffs = {}
    for r, col in enumerate(pivots):
        if aug[r][n] != 0:
            coeffs[col] = aug[r][n]
    return coeffs


def _sub_scaled(target, c, src):
    """target -= c * src, dropping exact zeros."""
    for k, v in src.items():
        nv = target.get(k, 0) - c * v
        if nv:
            target[k] = nv
        elif k in target:
            del target[k]


class EagerProvenanceEchelon:
    """Sparse forward echelon that composes provenance on every insert.

    Same pivot rule and elimination order as the engine's accumulator, but
    each new pivot row is expressed over the inserted vectors at once
    (prov = inv * e_id - sum inv * c * prov[col]), and express composes
    whole provenance rows.  Coefficients over the rank-raising insertions
    are unique, so the engine's deferred composition must match exactly.
    """

    def __init__(self):
        self.rows = {}        # pivot column -> row, 1 at the pivot
        self.provenance = {}  # pivot column -> {insertion id -> coefficient}
        self.n_inserted = 0

    def _reduce(self, vec):
        combo = {}
        while True:
            cols = [k for k in vec if k in self.rows]
            if not cols:
                return combo
            col = min(cols)
            c = vec[col]
            _sub_scaled(vec, c, self.rows[col])
            combo[col] = combo.get(col, 0) + c

    def insert(self, vec):
        ins_id = self.n_inserted
        self.n_inserted += 1
        work = {k: Fraction(v) for k, v in vec.items() if v}
        combo = self._reduce(work)
        if not work:
            return False
        pivot = min(work)
        inv = 1 / work[pivot]
        self.rows[pivot] = {k: inv * v for k, v in work.items()}
        prov = {ins_id: inv}
        for col, c in combo.items():
            _sub_scaled(prov, inv * c, self.provenance[col])
        self.provenance[pivot] = prov
        return True

    def remainder(self, vec):
        """The reduced remainder of vec (zero on every pivot column)."""
        work = {k: Fraction(v) for k, v in vec.items() if v}
        self._reduce(work)
        return work

    def express(self, vec):
        """{insertion id -> coefficient} when vec is in the span, else None."""
        work = {k: Fraction(v) for k, v in vec.items() if v}
        combo = self._reduce(work)
        if work:
            return None
        coeffs = {}
        for col, c in combo.items():
            _sub_scaled(coeffs, -c, self.provenance[col])
        return coeffs


def _ratio(n, d):
    return n // d if n % d == 0 else Fraction(n, d)


class DictSweepEchelon:
    """Forward echelon over the integers whose sweep works on a dict.

    Same pivot rule, elimination order and primitive rows as the engine's
    accumulator, but the work vector is a dict whose cancelled entries are
    deleted, and provenance is stored as rationals: provenance[pivot] maps
    each eliminated pivot to its multiplier w/d, and pivot_source[pivot] is
    (insertion id, d / lead of the remainder).  Uses nothing of
    skewalg.linalg.
    """

    def __init__(self):
        self.rows = {}
        self.provenance = {}
        self.pivot_source = {}
        self.n_inserted = 0

    @staticmethod
    def _to_integers(vec):
        d = lcm(*(v.denominator for v in vec.values()))
        return {k: v.numerator * (d // v.denominator)
                for k, v in vec.items() if v}, d

    def _reduce(self, work, d, combo):
        """Reduce work/d in place; returns the new denominator."""
        rows = self.rows
        heap = [k for k in work if k in rows]
        heapq.heapify(heap)
        while heap:
            col = heapq.heappop(heap)
            w = work.get(col)
            if w is None:
                continue
            if combo is not None:
                combo.append((col, w, d))
            row = rows[col]
            a = row[col]
            g = gcd(a, w)
            if a != g:
                scale = a // g
                for k in work:
                    work[k] *= scale
                d *= scale
            c = w // g
            for k, v in row.items():
                old = work.get(k)
                if old is None:
                    work[k] = -c * v
                    if k in rows:
                        heapq.heappush(heap, k)
                elif old == c * v:
                    del work[k]
                else:
                    work[k] = old - c * v
        return d

    def insert_reduce(self, vec):
        ins_id = self.n_inserted
        self.n_inserted += 1
        work, d = self._to_integers(vec)
        combo = []
        d = self._reduce(work, d, combo)
        if not work:
            return False
        pivot = min(work)
        lead = work[pivot]
        content = gcd(*work.values())
        if lead < 0:
            content = -content
        self.rows[pivot] = {k: v // content for k, v in work.items()}
        self.provenance[pivot] = {col: _ratio(w, dw) for col, w, dw in combo}
        self.pivot_source[pivot] = (ins_id, _ratio(d, lead))
        return True

    def residual(self, vec):
        work, d = self._to_integers(vec)
        d = self._reduce(work, d, None)
        return {k: _ratio(v, d) for k, v in work.items()}


def _engine_order(variety, multidegree, index, pruned):
    """The streamed generators as (descriptor, vector) pairs in the
    engine's insertion order, each vector built by expand_descriptor and
    indexed word by word.

    Groups are keyed by (context word, set of slot words).  A group's key
    is the largest leading column among the nonzero vectors the slot-orbit
    memo keeps in it; groups come by descending key, groups of equal key in
    the order the stream first reaches them, and each group's generators
    in stream order.  With pruned, a generator the memo drops is left out
    and so is a zero vector; without, the memo only sets the keys.
    """
    orbits = _slot_orbits(variety.identities)
    groups = {}  # group -> [words in first-seen order, state, key, generators]
    for desc in consequence_generators(variety, multidegree):
        subs = desc.substitution
        group = groups.setdefault((desc.context, frozenset(subs)),
                                  [tuple(dict.fromkeys(subs)), frozenset(), -1, []])
        poly = expand_descriptor(variety, desc)
        vec = {index[w]: c for w, c in poly.terms.items()}
        state = orbits.after(group[1], (desc.identity_index, tuple(map(group[0].index, subs))))
        if state is not None:
            group[1] = state
            if vec:
                group[2] = max(group[2], min(vec))
        if not pruned or (state is not None and vec):
            group[3].append((desc, vec))
    for group in sorted(groups.values(), key=lambda g: -g[2]):
        yield from group[3]


class UnprunedSaturation:
    """A T-ideal component saturated from every streamed generator, in the
    engine's order (see _engine_order).

    Each generator is vectorised and offered to the echelon unless an
    identical raw vector was offered before; nothing else is skipped and
    the stream is read to the end.
    """

    def __init__(self, variety, multidegree):
        self.ambient = enumerate_words(multidegree)
        index = {w: i for i, w in enumerate(self.ambient)}
        self.acc = EchelonAccumulator(len(self.ambient))
        self.descriptors = {}  # insertion id -> descriptor, rank-raising only
        seen = set()
        for desc, vec in _engine_order(variety, multidegree, index, pruned=False):
            key = frozenset(vec.items())
            if key in seen:
                continue
            seen.add(key)
            if self.acc.insert_reduce(vec):
                self.descriptors[self.acc.n_inserted - 1] = desc

    def express(self, vec):
        """[(descriptor, coefficient)] in insertion order, or None."""
        coeffs = self.acc.express_in_span(vec).coefficients
        if coeffs is None:
            return None
        return [(self.descriptors[i], c) for i, c in sorted(coeffs.items())]


class WordPathSaturation:
    """A T-ideal component saturated through words: the engine's stream,
    slot-orbit memo and order, with groups keyed by (context word, set of
    slot words) and each kept generator expanded by expand_descriptor and
    indexed word by word (see _engine_order)."""

    def __init__(self, variety, multidegree):
        self.ambient = enumerate_words(multidegree)
        index = {w: i for i, w in enumerate(self.ambient)}
        self.acc = EchelonAccumulator(len(self.ambient))
        self.descriptors = {}  # insertion id -> descriptor, rank-raising only
        for desc, vec in _engine_order(variety, multidegree, index, pruned=True):
            if self.acc.insert_reduce(vec):
                self.descriptors[self.acc.n_inserted - 1] = desc
                if self.acc.rank == len(self.ambient):
                    break


def splits_by_filter(d: dict, k: int):
    """(context multidegree, k nonzero slot multidegrees) summing to d:
    every tuple of the variables' compositions into k + 1 parts, in
    product order, with each tuple that leaves a slot empty dropped."""
    vars_ = sorted(d)
    per_var = [sorted(t for t in product(range(d[v] + 1), repeat=k + 1) if sum(t) == d[v])
               for v in vars_]
    for combo in product(*per_var):
        slots = []
        for b in range(1, k + 1):
            md = tuple((v, parts[b]) for v, parts in zip(vars_, combo) if parts[b])
            if not md:
                break
            slots.append(md)
        else:
            yield tuple((v, parts[0]) for v, parts in zip(vars_, combo) if parts[0]), slots


@lru_cache(maxsize=None)
def fm_by_substitution(m: int) -> MultiPoly:
    """f_m with [xi, xj] substituted for x1 of f_{m-1}, pair by pair."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return MultiPoly.variable(1)
    prev = fm_by_substitution(m - 1)
    acc = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            sign = 1 if (i + j) % 2 else -1  # (-1)^(i+j-1)
            rest = [k for k in range(1, m + 1) if k != i and k != j]
            assignment = {1: commutator(MultiPoly.variable(i), MultiPoly.variable(j))}
            for slot, var in enumerate(rest, start=2):
                assignment[slot] = MultiPoly.variable(var)
            add_terms(acc, ((w, sign * c)
                            for w, c in substitute(prev, assignment).terms.items()))
    return MultiPoly(acc)


def relabel_shared(w, mapping, shared: dict):
    """words.relabel(w, mapping), except that an internal node object met
    again maps to the image already built for it, keyed by id(node), so
    subtrees shared in the input stay shared in the output.  One shared
    dict serves one mapping, and the caller keeps every input word alive
    while shared lives: an id names an object only as long as it exists."""
    if isinstance(w, int):
        return mapping.get(w, w)
    image = shared.get(id(w))
    if image is None:
        image = shared[id(w)] = (relabel_shared(w[0], mapping, shared),
                                 relabel_shared(w[1], mapping, shared))
    return image


def fm_by_relabel(m: int) -> MultiPoly:
    """f_m by the relabelling recursion, one relabel_shared per term and pair:
    [xi, xj] for x1 is x1 -> (xi xj) and x1 -> -(xj xi).  Not cached, so
    fm(7) lives only as long as the caller keeps it."""
    if m < 1:
        raise ValueError("m must be >= 1")
    f = MultiPoly.variable(1)
    for n in range(2, m + 1):
        prev = f.terms.items()
        acc = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                sign = 1 if (i + j) % 2 else -1  # (-1)^(i+j-1)
                rest = dict(enumerate((k for k in range(1, n + 1) if k != i and k != j),
                                      start=2))
                for first, s in (((i, j), sign), ((j, i), -sign)):
                    mapping, shared = {1: first, **rest}, {}  # prev keeps its words alive
                    add_terms(acc, ((relabel_shared(w, mapping, shared), s * c)
                                    for w, c in prev))
        f = MultiPoly(acc)
    return f


def _sign(perm) -> int:
    """Parity of a sequence of distinct values, by counting inversions."""
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


def alternate_by_relabel(p: MultiPoly) -> MultiPoly:
    """Sum of sgn(s) * s(p) over all permutations s of p's variables,
    relabelling every term under every permutation."""
    if p.is_zero():
        return MultiPoly.zero()
    mds = multidegrees_by_text(p)
    if len(mds) != 1 or any(e != 1 for _, e in next(iter(mds))):
        raise ValueError("alternate requires a multilinear polynomial")
    vs = [v for v, _ in mds.pop()]
    perms = [(_sign(s), dict(zip(vs, s))) for s in permutations(vs)]
    return MultiPoly.from_pairs((relabel(w, mapping), sign * c)
                                for w, c in p.terms.items() for sign, mapping in perms)


def linearize_by_relabel(p: MultiPoly) -> MultiPoly:
    """Full multilinearization, each word rebuilt leaf by leaf: the leaves of
    variable v take the fresh labels of v's block in a placement's order."""
    (md,) = multidegrees_by_text(p)
    blocks, offset = [], 0
    for v, e in md:
        blocks.append(permutations(range(offset + 1, offset + 1 + e)))
        offset += e
    vs, placements = [v for v, _ in md], list(product(*blocks))
    return MultiPoly.from_pairs((_relabel_consuming(w, dict(zip(vs, map(list, choice)))), c)
                                for w, c in p.terms.items() for choice in placements)


def _relabel_consuming(w, labels):
    """w with each leaf v replaced by the next label popped from labels[v]."""
    if isinstance(w, int):
        return labels[w].pop(0)
    return (_relabel_consuming(w[0], labels), _relabel_consuming(w[1], labels))


def leaves_by_text(w) -> tuple:
    """w's leaves left to right, read off its text (the hole prints as _)."""
    return tuple(int(v or HOLE) for v in re.findall(r"x(\d+)|_", format_word(w)))


def multidegrees_by_text(p: MultiPoly) -> set:
    """The set of p's per-term multidegrees, each as sorted (variable,
    exponent) pairs, counted from the leaves read off each word's text."""
    return {tuple(sorted(Counter(leaves_by_text(w)).items())) for w in p.terms}
