"""Incremental exact row reduction over the integers, with provenance.

The accumulator keeps a forward echelon: each pivot row leads at its pivot
column (the pivot is its minimum column) and contains no pivot column that
existed when it was installed.  Rows are never modified afterwards;
reducing a vector walks its columns in ascending order, and eliminating a
pivot column only introduces larger columns, which keeps the sweep finite.

Arithmetic is fraction-free.  A pivot row is stored as a primitive integer
dict R whose lead R[pivot] is positive; the normalised row, with 1 at the
pivot, is R / R[pivot].  A vector being reduced is an integer vector W with
a positive integer denominator d, standing for W/d.  Every input's columns
are checked against the dimension by one min and one max, before any
state changes.  An input whose values are all int (a word-table vector, or
the vector of an integral polynomial) then enters as it is, with d = 1;
any other rational input is scaled by the lcm of its denominators.
Eliminating a pivot column with lead a from a work entry w is
W <- (a/g)*W - (w/g)*R with d <- (a/g)*d, g = gcd(a, w); in the common
case a == 1 that is W -= w*R.  During a sweep W lives in the accumulator's
one dense scratch list, as long as the dimension and made at its first
sweep, with a list of the columns it touched: one pass over R does the
subtraction and queues each pivot column that W touches for the first
time, so the sweep needs no second look at the row.  When the sweep ends,
by return or by exception, it resets the slots it touched, so every sweep
starts from an empty list; sweeps of one accumulator must therefore not
run at once, from two threads say.  Remainders leave as exact Fractions,
int where integral.

Provenance is stored, not composed, at insert time, and in integers.  A
sweep that eliminated pivot k with work entry w_k over denominator d_k and
ended with denominator d and raw lead L = W[pivot] gives the new
normalised row as (d*v - sum M_k*row_k) / L over the normalised rows of
older pivots, with integer numerators M_k = w_k * (d // d_k).  The sweep
records the pivots and the M_k in two parallel lists, multiplying the
recorded entries whenever d grows, so while d stays 1 each M_k is the
work entry as it was.  The pivot keeps its insertion id with (d, L) and
the M_k, all divided by their common gcd; dependent insertions store
nothing.  express_in_span composes
a certificate on demand: it reduces the vector and back-substitutes the
stored numerators over the pivots it reaches, newest first, keeping every
weight and coefficient an integer over one common denominator, and forms
each coefficient's exact rational once, at the end.  Coefficients are
keyed by insertion id.

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
from fractions import Fraction
from math import gcd, lcm

_INT = {int}  # the value types of a vector that enters a sweep as it is

SpanResult = namedtuple("SpanResult", "coefficients witness")
"""coefficients: {insertion id -> coefficient} when in span, else None;
witness: leading column of the nonzero remainder, else None."""


def _ratio(n: int, d: int):
    """Exact n/d: an int when d divides n, else a Fraction."""
    return n // d if n % d == 0 else Fraction(n, d)


def _from_integers(work: dict, d: int) -> dict:
    """The exact dict W/d, int where integral."""
    if d == 1:
        return work
    return {k: _ratio(v, d) for k, v in work.items()}


class EchelonAccumulator:
    def __init__(self, dimension: int):
        if dimension < 0:
            raise ValueError("dimension must be nonnegative")
        self.dimension = dimension
        self.rows = {}  # pivot column -> primitive integer row, lead > 0
        # pivot column -> {earlier pivot column -> integer multiplier M_k}
        self.provenance = {}
        # pivot column -> (insertion id, d, L): row = (d*v - sum M_k row_k) / L
        self.pivot_source = {}
        self.n_inserted = 0
        self.last_pivot = None  # pivot column installed by the latest insert
        self._scratch = None  # the sweep's dense work list, all None between sweeps

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _integers(self, vec: dict):
        """(W, d): vec checked against the dimension, as an integer dict W
        and a positive int d with W/d == vec.

        An all-int vec is W itself, with d = 1, zero entries and all; else
        d is the lcm of the denominators and W drops zero entries.
        """
        if vec:
            low, high = min(vec), max(vec)
            if low < 0 or high >= self.dimension:
                raise ValueError(f"column {low if low < 0 else high} outside "
                                 f"dimension {self.dimension}")
        if set(map(type, vec.values())) <= _INT:
            return vec, 1
        d = lcm(*(v.denominator for v in vec.values()))
        return {k: v.numerator * (d // v.denominator)
                for k, v in vec.items() if v}, d

    def _reduce(self, work: dict, d: int):
        """Eliminate every pivot column from work/d, recording pivot multiples.

        Returns (remainder, d, cols, ws): the remainder as an integer dict
        over the final denominator d, and in parallel lists the pivot
        columns eliminated and their multipliers M_k, the work entries
        scaled by every later growth of d, so that each is over d too.

        The sweep runs in the accumulator's one dense scratch list, made at
        its first sweep.  A slot holds None until the sweep first touches
        its column; that first touch appends the column to touched and, if
        it is a pivot column, pushes it.  Rows lead at their pivot, so
        elimination introduces only larger columns and the columns pop in
        ascending order, each once; a column that cancelled since its push
        holds 0 and is skipped, and it cannot come back after its pop.  The
        touched slots go back to None when the sweep ends, even by an
        exception, so no sweep sees another's entries.
        """
        rows = self.rows
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = [None] * self.dimension
        touched = list(work)
        cols, ws = [], []
        try:
            for k, v in work.items():
                scratch[k] = v
            heap = [k for k in touched if k in rows]
            heapq.heapify(heap)
            push, pop = heapq.heappush, heapq.heappop
            while heap:
                col = pop(heap)
                w = scratch[col]
                if not w:
                    continue
                cols.append(col)
                ws.append(w)
                row = rows[col]
                # W <- (a/g) W - (w/g) R, d <- (a/g) d; a unit lead needs no scaling
                a = row[col]
                if a == 1:
                    c = w
                else:
                    g = gcd(a, w)
                    if a != g:
                        scale = a // g
                        for k in touched:
                            scratch[k] *= scale
                        ws = [m * scale for m in ws]
                        d *= scale
                    c = w // g
                for k, v in row.items():
                    old = scratch[k]
                    if old is None:
                        scratch[k] = -c * v
                        touched.append(k)
                        if k in rows:
                            push(heap, k)
                    else:
                        scratch[k] = old - c * v
            return {k: scratch[k] for k in touched if scratch[k]}, d, cols, ws
        finally:
            for k in touched:
                scratch[k] = None

    def insert_reduce(self, vec: dict) -> bool:
        """Reduce a vector and install the remainder as a new pivot if nonzero.

        Returns whether the rank increased.  vec is not modified, and a
        call that raises changes nothing.
        """
        work, d, cols, ws = self._reduce(*self._integers(vec))
        ins_id = self.n_inserted
        self.n_inserted += 1
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
        if d != 1:
            g = gcd(d, lead, *ws)
            if g != 1:
                ws = [m // g for m in ws]
                d //= g
                lead //= g
        self.provenance[pivot] = dict(zip(cols, ws))
        self.pivot_source[pivot] = (ins_id, d, lead)
        self.last_pivot = pivot
        return True

    def residual(self, vec: dict) -> dict:
        """Remainder of vec modulo the current row space (a fresh dict)."""
        work, d, _, _ = self._reduce(*self._integers(vec))
        return _from_integers(work, d)

    def rereduce(self, residual: dict):
        """Re-reduce an externally held residual after new pivots appeared.

        Only the part the sweep can reach is converted and reduced: the
        pivot columns in residual and every column of the rows of the
        pivots reached from them.  The rest holds no pivot column, so the
        remainder keeps it as it is.
        """
        rows = self.rows
        stack = [k for k in residual if k in rows]
        reach = set(stack)
        while stack:
            for k in rows[stack.pop()]:
                if k not in reach:
                    reach.add(k)
                    if k in rows:
                        stack.append(k)
        part = {k: residual.pop(k) for k in reach if k in residual}
        work, d, _, _ = self._reduce(*self._integers(part))
        residual.update(_from_integers(work, d))

    def express_in_span(self, vec: dict) -> SpanResult:
        """Exact coefficients of vec over the inserted vectors, or a witness.

        When vec lies in the span the returned combination satisfies
        sum(c_k * inserted_k) == vec coefficient-by-coefficient; otherwise
        the witness is the leading (minimum) column of the remainder.
        """
        work, den, cols, ws = self._reduce(*self._integers(vec))
        if work:
            return SpanResult(None, min(work))
        # vec = sum (W_p/den) row_p, and row_p = (d_p v_p - sum M_pk row_k)
        # / L_p over older pivots k: settle pivots newest first, so each
        # weight is final when its pivot is popped.  Weights and coefficients
        # are integers over den, which grows when L_p does not divide W_p.
        weights = dict(zip(cols, ws))
        source = self.pivot_source
        heap = [(-source[col][0], col) for col in weights]
        heapq.heapify(heap)
        coeffs = {}
        while heap:
            _, col = heapq.heappop(heap)
            w = weights[col]
            if not w:
                continue
            ins_id, d, lead = source[col]
            if w % lead:
                scale = abs(lead) // gcd(w, lead)
                for k in weights:
                    weights[k] *= scale
                for k in coeffs:
                    coeffs[k] *= scale
                den *= scale
                w *= scale
            q = w // lead
            coeffs[ins_id] = q * d
            for k, m in self.provenance[col].items():
                if k in weights:
                    weights[k] -= q * m
                else:
                    weights[k] = -q * m
                    heapq.heappush(heap, (-source[k][0], k))
        return SpanResult({i: _ratio(c, den) for i, c in coeffs.items()}, None)
