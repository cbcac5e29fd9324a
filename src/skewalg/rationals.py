"""Exact rational coefficients.

Coefficients are plain ints until a division happens; QQ holds them after
('/' in parsed text, rational scale factors, and certificate coefficients,
multipliers and remainders of the echelon where they are not integral).
The echelon eliminates over the integers (see linalg), so QQ is not in its
inner loop.  QQ is the stdlib fractions.Fraction: it keeps values in lowest
terms with a positive denominator, never rounds, mixes exactly with int,
and prints as 'n' or 'n/d' just as an int prints as 'n'.
"""

from fractions import Fraction as QQ
