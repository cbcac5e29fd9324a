"""Exact rational coefficients.

Coefficients are plain ints until a division happens; QQ holds them after
('/' in parsed text, rational scale factors, and certificate coefficients,
multipliers and remainders of the echelon where they are not integral).
The echelon eliminates over the integers (see linalg), so QQ is not in its
inner loop.  gmpy2's mpq is used when installed (the optional `fast` extra);
otherwise the stdlib fractions.Fraction is QQ.  Both keep values in lowest
terms with a positive denominator and never round, and both mix exactly
with int.
"""

try:
    from gmpy2 import mpq as QQ
except ImportError:
    from fractions import Fraction as QQ


def qq_div(a, b):
    """Exact a/b.  Wraps both sides in QQ so int/int never hits float division."""
    return QQ(a) / QQ(b)


def qq_str(c) -> str:
    """Canonical text form: 'n' or 'n/d', lowest terms, '-' on the numerator."""
    return str(QQ(c))
