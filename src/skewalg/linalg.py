"""Incremental exact-rational row reduction with provenance.

The accumulator keeps a forward echelon: each pivot row has coefficient 1
at its pivot column, leads there (the pivot is its minimum column), and
contains no pivot column that existed when it was installed.  Rows are
never modified afterwards; reducing a vector walks its columns in
ascending order, and eliminating a pivot column only introduces larger
columns, which keeps the sweep finite.

Provenance is stored, not composed, at insert time: each pivot keeps its
insertion id, the inverse of its leading remainder coefficient, and the
multipliers with which the reduction eliminated earlier pivot columns.
Dependent insertions never enter provenance.  express_in_span composes a
certificate on demand: it reduces the vector and back-substitutes the
stored multipliers over the pivots it reaches, newest first, giving exact
coefficients keyed by insertion id.

Pivot choice is always the lowest column of the reduced remainder, so
ranks, remainders and certificates are deterministic functions of the
insertion sequence.  Expressing a vector that already lies in the span of
an earlier prefix of insertions gives the same combination no matter how
many further pivots exist: a column that pops nonzero during the sweep
must have its pivot inside any sufficient prefix, otherwise the vector
could not have reduced to zero there; the back-substitution then follows
stored multipliers only to older pivots, which lie inside that prefix too.
"""

import heapq
from collections import namedtuple

from .rationals import qq_div

SpanResult = namedtuple("SpanResult", "coefficients witness")
"""coefficients: {insertion id -> coefficient} when in span, else None;
witness: leading column of the nonzero remainder, else None."""


def _axpy(target: dict, c, src: dict):
    """target -= c * src, dropping exact zeros.

    The echelon's own kernel, kept apart from poly.add_terms: the +-1
    branches skip a Fraction multiplication per entry.  A single generic
    loop here made the alt (1^5) saturation 1.3-2.2x slower (5.2-7.0 s
    against 9.1-11.5 s on a 2-vCPU host, Fraction arithmetic).
    """
    if c == 1:
        for k, v in src.items():
            nv = target.get(k, 0) - v
            if nv:
                target[k] = nv
            elif k in target:
                del target[k]
    elif c == -1:
        for k, v in src.items():
            nv = target.get(k, 0) + v
            if nv:
                target[k] = nv
            elif k in target:
                del target[k]
    else:
        for k, v in src.items():
            nv = target.get(k, 0) - c * v
            if nv:
                target[k] = nv
            elif k in target:
                del target[k]


class EchelonAccumulator:
    def __init__(self, dimension: int):
        if dimension < 0:
            raise ValueError("dimension must be nonnegative")
        self.dimension = dimension
        self.rows = {}  # pivot column -> row dict
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

    def _reduce(self, vec: dict, combo: dict | None):
        """Eliminate every pivot column from vec, recording pivot multiples.

        Rows lead at their pivot, so elimination introduces only larger
        columns; an ascending-column sweep therefore terminates.
        """
        heap = [k for k in vec if k in self.rows]
        heapq.heapify(heap)
        seen = set()
        rows = self.rows
        while heap:
            col = heapq.heappop(heap)
            if col in seen or col not in vec:
                continue
            seen.add(col)
            row = rows[col]
            c = vec[col]
            _axpy(vec, c, row)
            for k in row:
                if k in rows and k not in seen and k in vec:
                    heapq.heappush(heap, k)
            if combo is not None:
                combo[col] = c
        return vec

    def insert_reduce(self, vec: dict) -> bool:
        """Reduce a vector and install the remainder as a new pivot if nonzero.

        Returns whether the rank increased.  vec is not modified.
        """
        self._check_dim(vec)
        ins_id = self.n_inserted
        self.n_inserted += 1
        work = dict(vec)
        combo = {}
        self._reduce(work, combo)
        if not work:
            self.last_pivot = None
            return False
        pivot = min(work)
        inv = qq_div(1, work[pivot])
        self.rows[pivot] = {k: inv * v for k, v in work.items()}
        self.provenance[pivot] = combo
        self.pivot_source[pivot] = (ins_id, inv)
        self.last_pivot = pivot
        return True

    def residual(self, vec: dict) -> dict:
        """Remainder of vec modulo the current row space (a fresh dict)."""
        self._check_dim(vec)
        work = dict(vec)
        self._reduce(work, None)
        return work

    def rereduce(self, residual: dict):
        """Re-reduce an externally held residual after new pivots appeared."""
        self._reduce(residual, None)

    def express_in_span(self, vec: dict) -> SpanResult:
        """Exact coefficients of vec over the inserted vectors, or a witness.

        When vec lies in the span the returned combination satisfies
        sum(c_k * inserted_k) == vec coefficient-by-coefficient; otherwise
        the witness is the leading (minimum) column of the remainder.
        """
        self._check_dim(vec)
        work = dict(vec)
        weights = {}
        self._reduce(work, weights)
        if work:
            return SpanResult(None, min(work))
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
