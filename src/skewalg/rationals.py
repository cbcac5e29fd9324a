"""Exact rational coefficients.

Coefficients are plain ints until a division happens; QQ holds them after
(echelon pivots, '/' in parsed text, rational scale factors).  gmpy2's mpq
is used when available (roughly an order of magnitude faster than
fractions.Fraction in the row-reduction inner loops); the stdlib Fraction
is a drop-in fallback.  Both keep values in lowest terms with a positive
denominator and never round, and both mix exactly with int.
"""

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as QQ


def qq_div(a, b):
    """Exact a/b.  Wraps both sides in QQ so int/int never hits float division."""
    return QQ(a) / QQ(b)


def qq_str(c) -> str:
    """Canonical text form: 'n' or 'n/d', lowest terms, '-' on the numerator."""
    return str(QQ(c))
