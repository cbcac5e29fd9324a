from fractions import Fraction

from skewalg.linalg import _ratio
from skewalg.poly import format_poly, parse_poly


def test_ratio_is_exact_and_int_where_integral():
    third = _ratio(1, 3)
    assert type(third) is Fraction and third == Fraction(1, 3)
    assert _ratio(6, -4) == Fraction(-3, 2)
    assert _ratio(10**30 + 1, 10**30) == Fraction(10**30 + 1, 10**30)
    for n, d, q in ((8, 2, 4), (-9, 3, -3), (0, 7, 0), (10**40, 10**20, 10**20)):
        r = _ratio(n, d)
        assert type(r) is int and r == q


def test_coefficients_print_alike_as_int_and_fraction():
    assert str(_ratio(6, -4)) == "-3/2"
    for text in ("x1 - 3/2*x2", "-1*x1 + 2*x2", "-1/3*x1 + 7/2*x2"):
        assert format_poly(parse_poly(text)) == text
    assert format_poly(parse_poly("x1 + x2").scale(Fraction(4, 2))) == "2*x1 + 2*x2"
    assert format_poly(parse_poly("x1 - x2").scale(Fraction(-1, 2))) == "-1/2*x1 + 1/2*x2"
