"""Incremental exact row reduction over the integers, with provenance.

The accumulator keeps a forward echelon: each pivot row leads at its pivot
column (the pivot is its minimum column) and contains no pivot column that
existed when it was installed.  Rows are never modified afterwards;
reducing a vector walks its columns in ascending order, and eliminating a
pivot column only introduces larger columns, which keeps the sweep finite.

Arithmetic is fraction-free.  A pivot row is stored as a primitive integer
dict R whose lead R[pivot] is positive; the normalised row, with 1 at the
pivot, is R / R[pivot].  A vector being reduced is an integer dict W with a
positive integer denominator d, standing for W/d: a rational input is
scaled by the lcm of its denominators on entry.  Eliminating a pivot column
with lead a from a work entry w is W <- (a/g)*W - (w/g)*R with
d <- (a/g)*d, g = gcd(a, w); in the common case a == 1 that is W -= w*R.
One pass over R does the subtraction and queues each pivot column that
enters W, so the sweep needs no second look at the row.  Remainders leave
as exact rationals, int where integral.

Provenance is stored, not composed, at insert time: each pivot keeps its
insertion id, the inverse d/W[pivot] of its leading remainder coefficient,
and the exact multipliers w/d with which the reduction eliminated earlier
(normalised) pivot rows.  The sweep records each multiplier as the raw
integers (w, d); they become rationals only when the insertion raises the
rank, so dependent insertions never build one and never enter provenance.
express_in_span composes a certificate on demand: it reduces the vector
and back-substitutes the stored multipliers over the pivots it reaches,
newest first, giving exact coefficients keyed by insertion id.

Pivot choice is always the lowest column of the reduced remainder, so
ranks, remainders and certificates are deterministic functions of the
insertion sequence, whatever the arithmetic: the remainder is the unique
element of v + rowspace that vanishes on every pivot column, and the
combination over the rank-raising insertions is unique.  Expressing a
vector that already lies in the span of an earlier prefix of insertions
gives the same combination no matter how many further pivots exist: a
column that pops nonzero during the sweep must have its pivot inside any
sufficient prefix, otherwise the vector could not have reduced to zero
there; the back-substitution then follows stored multipliers only to older
pivots, which lie inside that prefix too.
"""

import heapq
from collections import namedtuple
from math import gcd, lcm

from .rationals import qq_div

SpanResult = namedtuple("SpanResult", "coefficients witness")
"""coefficients: {insertion id -> coefficient} when in span, else None;
witness: leading column of the nonzero remainder, else None."""


def _ratio(n: int, d: int):
    """Exact n/d: an int when d divides n, else QQ."""
    return n // d if n % d == 0 else qq_div(n, d)


def _to_integers(vec: dict):
    """(W, d): an integer dict and a positive int with W/d == vec.

    d is the lcm of the denominators; zero entries are dropped.
    """
    d = lcm(*(int(v.denominator) for v in vec.values()))
    return {k: int(v.numerator) * (d // int(v.denominator))
            for k, v in vec.items() if v}, d


def _to_rationals(work: dict, d: int) -> dict:
    """The exact rational dict W/d, int where integral."""
    if d == 1:
        return work
    return {k: _ratio(v, d) for k, v in work.items()}


class EchelonAccumulator:
    def __init__(self, dimension: int):
        if dimension < 0:
            raise ValueError("dimension must be nonnegative")
        self.dimension = dimension
        self.rows = {}  # pivot column -> primitive integer row, lead > 0
        # pivot column -> {earlier pivot column -> elimination multiplier}
        self.provenance = {}
        self.pivot_source = {}  # pivot column -> (insertion id, inverse)
        self.n_inserted = 0
        self.last_pivot = None  # pivot column installed by the latest insert

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _check_dim(self, vec: dict):
        for k in vec:
            if not 0 <= k < self.dimension:
                raise ValueError(f"column {k} outside dimension {self.dimension}")

    def _reduce(self, work: dict, d: int, combo: list | None) -> int:
        """Eliminate every pivot column from work/d, recording pivot multiples.

        work is reduced in place and the new denominator is returned; combo,
        when given, receives one raw (column, w, d) per elimination, the
        multiplier w/d left for the caller to form.  Rows lead at their
        pivot, so elimination introduces only larger columns and the columns
        pop in ascending order.  One pass over the row updates work and
        pushes each pivot column that newly enters it; a column may then sit
        on the heap twice, or have cancelled since its push, and an entry
        whose column is no longer in work is stale.
        """
        rows = self.rows
        heap = [k for k in work if k in rows]
        heapq.heapify(heap)
        push, pop, get = heapq.heappush, heapq.heappop, work.get
        while heap:
            col = pop(heap)
            w = get(col)
            if w is None:
                continue
            if combo is not None:
                combo.append((col, w, d))
            row = rows[col]
            # W <- (a/g) W - (w/g) R, d <- (a/g) d; a unit lead needs no scaling
            a = row[col]
            g = gcd(a, w)
            if a != g:
                scale = a // g
                for k in work:
                    work[k] *= scale
                d *= scale
            c = w // g
            for k, v in row.items():
                old = get(k)
                if old is None:
                    work[k] = -c * v
                    if k in rows:
                        push(heap, k)
                else:
                    nv = old - c * v
                    if nv:
                        work[k] = nv
                    else:
                        del work[k]
        return d

    def insert_reduce(self, vec: dict) -> bool:
        """Reduce a vector and install the remainder as a new pivot if nonzero.

        Returns whether the rank increased.  vec is not modified.
        """
        self._check_dim(vec)
        ins_id = self.n_inserted
        self.n_inserted += 1
        work, d = _to_integers(vec)
        combo = []
        d = self._reduce(work, d, combo)
        if not work:
            self.last_pivot = None
            return False
        pivot = min(work)
        lead = work[pivot]
        content = gcd(*work.values())
        if lead < 0:
            content = -content
        if content != 1:
            work = {k: v // content for k, v in work.items()}
        self.rows[pivot] = work
        self.provenance[pivot] = {col: _ratio(w, dw) for col, w, dw in combo}
        self.pivot_source[pivot] = (ins_id, _ratio(d, lead))
        self.last_pivot = pivot
        return True

    def residual(self, vec: dict) -> dict:
        """Remainder of vec modulo the current row space (a fresh dict)."""
        self._check_dim(vec)
        work, d = _to_integers(vec)
        return _to_rationals(work, self._reduce(work, d, None))

    def rereduce(self, residual: dict):
        """Re-reduce an externally held residual after new pivots appeared."""
        work, d = _to_integers(residual)
        d = self._reduce(work, d, None)
        residual.clear()
        residual.update(_to_rationals(work, d))

    def express_in_span(self, vec: dict) -> SpanResult:
        """Exact coefficients of vec over the inserted vectors, or a witness.

        When vec lies in the span the returned combination satisfies
        sum(c_k * inserted_k) == vec coefficient-by-coefficient; otherwise
        the witness is the leading (minimum) column of the remainder.
        """
        self._check_dim(vec)
        work, d = _to_integers(vec)
        combo = []
        self._reduce(work, d, combo)
        if work:
            return SpanResult(None, min(work))
        weights = {col: _ratio(w, dw) for col, w, dw in combo}
        # vec = sum w_p row_p, and row_p = inv_p (inserted_p - sum m_pk row_k)
        # over older pivots k: settle pivots newest first, so each weight is
        # final when its pivot is popped.
        source = self.pivot_source
        heap = [(-source[col][0], col) for col in weights]
        heapq.heapify(heap)
        coeffs = {}
        while heap:
            _, col = heapq.heappop(heap)
            w = weights[col]
            if not w:
                continue
            ins_id, inv = source[col]
            s = w * inv
            coeffs[ins_id] = s
            for k, m in self.provenance[col].items():
                if k in weights:
                    weights[k] -= s * m
                else:
                    weights[k] = -s * m
                    heapq.heappush(heap, (-source[k][0], k))
        return SpanResult(coeffs, None)
