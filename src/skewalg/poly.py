"""Sparse exact-rational linear combinations of magma words.

MultiPoly is the universal element type: a map word -> nonzero rational,
immutable by convention.  The text format is

    poly     := term (('+'|'-') term)*
    term     := [rational '*']? word
    word     := var | '(' word '*' word ')'
    var      := 'x' int
    rational := int ['/' int]

with an optional leading '-' on the first term and the single token '0'
for the zero polynomial.  format/parse round-trip exactly.

Coefficients are exact: plain ints until a division happens (a '/' in the
text, a rational scale factor, an echelon certificate), fractions.Fraction
after.  Integer work therefore never pays for rational normalisation.
"""

import gc
import re
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from .words import HOLE, md_key, relabel, sort_key, split_words


class ParseError(ValueError):
    pass


@contextmanager
def gc_paused():
    """Hold off Python's cyclic garbage collector for the block.

    Restores the collector only if it was on before, so nesting is safe and
    a caller that turned it off keeps it off.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def add_terms(acc: dict, pairs) -> dict:
    """Add (key, coefficient) pairs into acc in place, dropping exact zeros.

    Every signed sum in the package goes through here; returns acc.  The
    loop runs with the cyclic collector paused: words are nested tuples of
    ints and coefficients are numbers, so term data makes no reference
    cycles and pausing frees nothing late, while a collection during the
    loop would walk every tuple built so far, again and again as the sum
    grows.
    """
    get = acc.get
    with gc_paused():
        for k, c in pairs:
            nc = get(k, 0) + c
            if nc:
                acc[k] = nc
            else:
                acc.pop(k, None)
    return acc


def _wrap(terms: dict) -> "MultiPoly":
    """A MultiPoly owning terms, which must already be free of zeros."""
    out = MultiPoly.__new__(MultiPoly)
    out.terms = terms
    return out


class MultiPoly:
    """Immutable sparse polynomial over the free magma algebra."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {w: c for w, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly()

    @staticmethod
    def variable(i: int) -> "MultiPoly":
        if i < 1:
            raise ValueError("variable indices start at 1")
        return MultiPoly({i: 1})

    @staticmethod
    def monomial(word, coeff=1) -> "MultiPoly":
        return MultiPoly({word: coeff})

    @staticmethod
    def from_pairs(pairs) -> "MultiPoly":
        """The sum of (word, coefficient) pairs; repeated words combine."""
        return _wrap(add_terms({}, pairs))

    # -- basic structure ---------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def multidegree(self) -> dict:
        """{variable: exponent}, in ascending variables; {} for zero.  One
        split pass, and each distinct leaf order is compared once with the
        first one's sorted letters: raises ValueError if two terms differ."""
        orders = dict.fromkeys(order for _, order in split_words(self.terms))
        letters = sorted(next(iter(orders), ()))
        if any(sorted(order) != letters for order in orders):
            raise ValueError("polynomial is not multihomogeneous")
        return dict(Counter(letters))

    def homogeneous_components(self) -> dict:
        """Group terms by multidegree; keys are md_key tuples.  One split
        pass, and each distinct leaf order is counted once."""
        comps, keys = {}, {}  # keys: leaf order -> its md_key
        for (w, c), (_, order) in zip(self.terms.items(), split_words(self.terms)):
            key = keys.get(order)
            if key is None:
                key = keys[order] = md_key(Counter(order))
            comps.setdefault(key, {})[w] = c
        return {k: _wrap(v) for k, v in comps.items()}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return _wrap(add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return _wrap(add_terms(dict(self.terms),
                               ((w, -c) for w, c in other.terms.items())))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "MultiPoly":
        if not c:
            return MultiPoly()
        return _wrap({w: c * v for w, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, MultiPoly):
            return NotImplemented
        return self.scale(c)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        return multiply(self, other)

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"MultiPoly({format_poly(self)})"

    def __str__(self):
        return format_poly(self)


def multiply(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Bilinear extension of the magma pairing; on words (u, v) -> (u v).

    The pairs (wp, wq) are distinct and products of nonzero coefficients
    are nonzero, so nothing combines or cancels.
    """
    return _wrap({(wp, wq): cp * cq for wp, cp in p.terms.items()
                  for wq, cq in q.terms.items()})


def commutator(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """[a, b] = ab - ba."""
    return multiply(a, b) - multiply(b, a)


def jordan(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """a o b = ab + ba."""
    return multiply(a, b) + multiply(b, a)


def associator(a: MultiPoly, b: MultiPoly, c: MultiPoly) -> MultiPoly:
    """(a, b, c) = (ab)c - a(bc)."""
    return multiply(multiply(a, b), c) - multiply(a, multiply(b, c))


def _substitute_word(w, images: dict) -> dict:
    """Expansion of one word under leaf -> MultiPoly images; returns a raw dict."""
    if isinstance(w, int):
        try:
            return images[w].terms
        except KeyError:
            raise ValueError(f"no assignment for variable x{w}") from None
    left = _substitute_word(w[0], images)
    right = _substitute_word(w[1], images)
    return {(wl, wr): cl * cr for wl, cl in left.items() for wr, cr in right.items()}


def substitute(p: MultiPoly, assignment: dict) -> MultiPoly:
    """Algebra-homomorphic extension of variable -> MultiPoly images.

    Every variable occurring in p must be assigned.
    """
    return MultiPoly.from_pairs((w2, c * c2) for w, c in p.terms.items()
                                for w2, c2 in _substitute_word(w, assignment).items())


def relabel_poly(p: MultiPoly, mapping: dict) -> MultiPoly:
    """Leaf relabelling x_v -> x_mapping[v]; cheaper than substitute for renamings."""
    return MultiPoly.from_pairs((relabel(w, mapping), c) for w, c in p.terms.items())


# -- text format -------------------------------------------------------------

_TOKEN = re.compile(r"\s*(x\d+|\d+|[()*/+_-])")


def _tokenize(s: str):
    pos = 0
    out = []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip():
                raise ParseError(f"bad character at position {pos}: {s[pos:pos+8]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, allow_hole=False):
        self.toks = tokens
        self.i = 0
        self.allow_hole = allow_hole

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expect=None):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input")
        if expect is not None and t != expect:
            raise ParseError(f"expected {expect!r}, got {t!r}")
        self.i += 1
        return t

    def word(self):
        t = self.take()
        if t == "(":
            left = self.word()
            self.take("*")
            right = self.word()
            self.take(")")
            return (left, right)
        if t.startswith("x"):
            idx = int(t[1:])
            if idx < 1:
                raise ParseError("variable indices start at 1")
            return idx
        if t == "_" and self.allow_hole:
            return HOLE
        raise ParseError(f"expected a word, got {t!r}")

    def rational(self, sign):
        n = int(self.take())
        if self.peek() == "/":
            self.take()
            d = int(self.take())
            if d == 0:
                raise ParseError("zero denominator")
            return Fraction(sign * n, d)
        return sign * n

    def term(self, sign):
        t = self.peek()
        if t is not None and t.isdigit():
            c = self.rational(sign)
            self.take("*")
            return self.word(), c
        return self.word(), sign

    def poly(self):
        if self.toks == ["0"]:
            return MultiPoly.zero()
        return MultiPoly.from_pairs(self._terms())

    def _terms(self):
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        while True:
            yield self.term(sign)
            t = self.peek()
            if t is None:
                return
            if t == "+":
                sign = 1
            elif t == "-":
                sign = -1
            else:
                raise ParseError(f"expected '+' or '-', got {t!r}")
            self.take()


# The parser recurses once per nesting level, so a word nested deeper than
# the interpreter's recursion limit allows is refused as a ParseError.
_TOO_DEEP = "word nested too deeply"


def parse_poly(s: str) -> MultiPoly:
    try:
        return _Parser(_tokenize(s)).poly()
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None


def parse_word(s: str, allow_hole=False):
    p = _Parser(_tokenize(s), allow_hole=allow_hole)
    try:
        w = p.word()
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None
    if p.peek() is not None:
        raise ParseError(f"trailing input after word: {p.peek()!r}")
    return w


def format_poly(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    # canonical order, each word formatted once by sort_key: texts are
    # distinct, so coefficients are never compared
    terms = sorted((*sort_key(w), c) for w, c in p.terms.items())
    parts = []
    for idx, (_, text, c) in enumerate(terms):
        mag = c if c > 0 else -c
        coeff = "" if mag == 1 else f"{mag}*"
        if idx == 0:
            parts.append(f"{coeff}{text}" if c > 0 else f"-{mag}*{text}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {coeff}{text}")
    return " ".join(parts)


def parse_identity_file(text: str) -> list:
    """One polynomial per line; blank lines and '#' comments skipped."""
    out = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(parse_poly(line))
        except ParseError as e:
            raise ParseError(f"line {ln}: {e}") from None
    return out
