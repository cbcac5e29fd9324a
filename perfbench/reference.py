"""The benchmark's own algebra, written apart from skewalg.

Words use the same plain encoding as skewalg's public data: a positive
int is the leaf x_i, the int 0 is the hole of a one-hole context, and a
pair (left, right) is a product.  A polynomial is a dict word -> Fraction
(or int).  Everything here is used to build inputs and to check the
program's outputs, so none of it may call into skewalg.
"""

import re
from fractions import Fraction
from math import lcm

HOLE = 0


# -- text format ----------------------------------------------------------------

def format_word(w) -> str:
    if isinstance(w, int):
        return "_" if w == HOLE else f"x{w}"
    return f"({format_word(w[0])}*{format_word(w[1])})"


def format_poly(p: dict) -> str:
    """Text in skewalg's input grammar; term order is by word text."""
    if not p:
        return "0"
    parts = []
    for text, c in sorted((format_word(w), c) for w, c in p.items()):
        mag = abs(c)
        body = text if mag == 1 else f"{mag}*{text}"
        if not parts:
            parts.append(body if c > 0 else f"-{mag}*{text}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


_TOKEN = re.compile(r"\s*(x\d+|\d+|[()*/+_-])")


def _tokens(text: str) -> list:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad text at {pos}: {text[pos:pos + 10]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _word(toks, i):
    t = toks[i]
    if t == "(":
        left, i = _word(toks, i + 1)
        if toks[i] != "*":
            raise ValueError("expected '*'")
        right, i = _word(toks, i + 1)
        if toks[i] != ")":
            raise ValueError("expected ')'")
        return (left, right), i + 1
    if t == "_":
        return HOLE, i + 1
    if t.startswith("x"):
        return int(t[1:]), i + 1
    raise ValueError(f"expected a word, got {t!r}")


def parse_word(text: str):
    toks = _tokens(text)
    w, i = _word(toks, 0)
    if i != len(toks):
        raise ValueError("trailing text after word")
    return w


def parse_poly(text: str) -> dict:
    toks = _tokens(text)
    if toks == ["0"]:
        return {}
    out, i, sign = {}, 0, 1
    while i < len(toks):
        if toks[i] in "+-":
            sign = 1 if toks[i] == "+" else -1
            i += 1
        c = Fraction(1)
        if toks[i].isdigit():
            c = Fraction(int(toks[i]))
            i += 1
            if toks[i] == "/":
                c /= int(toks[i + 1])
                i += 2
            if toks[i] != "*":
                raise ValueError("expected '*' after a coefficient")
            i += 1
        w, i = _word(toks, i)
        add_term(out, w, sign * c)
    return out


# -- polynomial arithmetic -------------------------------------------------------

def add_term(p: dict, w, c):
    v = p.get(w, 0) + c
    if v:
        p[w] = v
    else:
        p.pop(w, None)


def combine(*pairs) -> dict:
    """sum of c * p over (c, p) pairs."""
    out = {}
    for c, p in pairs:
        for w, v in p.items():
            add_term(out, w, c * v)
    return out


def leaves(w):
    if isinstance(w, int):
        return (w,)
    return leaves(w[0]) + leaves(w[1])


def rename(w, mapping: dict):
    """Replace each leaf v of w by mapping.get(v, v), a leaf or a word.

    This substitutes words for variables, and a word for the hole of a
    one-hole context.
    """
    if isinstance(w, int):
        return mapping.get(w, w)
    return (rename(w[0], mapping), rename(w[1], mapping))


def relabel(p: dict, mapping: dict) -> dict:
    out = {}
    for w, c in p.items():
        add_term(out, rename(w, mapping), c)
    return out


def associative_projection(p: dict) -> dict:
    """Forget the bracketing: word -> tuple of its leaves."""
    out = {}
    for w, c in p.items():
        add_term(out, leaves(w), c)
    return out


def _associator(a, b, c) -> dict:
    """(a, b, c) = (ab)c - a(bc) on words."""
    return {((a, b), c): 1, (a, (b, c)): -1}


FLEX_IDENTITY = combine((1, _associator(1, 2, 3)), (1, _associator(3, 2, 1)))
ALT_IDENTITIES = (
    combine((1, _associator(1, 2, 3)), (1, _associator(1, 3, 2))),
    combine((1, _associator(1, 2, 3)), (1, _associator(2, 1, 3))),
)


def expand_generator(identity: dict, slots: dict, context) -> dict:
    """identity with slots[v] substituted for x_v, placed in the context."""
    out = {}
    for w, c in identity.items():
        add_term(out, rename(context, {HOLE: rename(w, slots)}), c)
    return out


def expand_certificate(doc: dict) -> dict:
    """Re-expand a certificate JSON document: sum of coefficient * generator."""
    total = {}
    for g in doc["generators"]:
        identity = parse_poly(g["identity"])
        slots = {int(k[1:]): parse_word(v) for k, v in g["substitution"].items()}
        gen = expand_generator(identity, slots, parse_word(g["context"]))
        c = Fraction(g["coefficient"])
        for w, v in gen.items():
            add_term(total, w, c * v)
    return total


def random_word(rng, labels: list):
    """A uniformly split bracketing over the labels in their given order."""
    if len(labels) == 1:
        return labels[0]
    k = rng.randint(1, len(labels) - 1)
    return (random_word(rng, labels[:k]), random_word(rng, labels[k:]))


# -- integer octonions ------------------------------------------------------------

def _cayley_dickson_table(level: int) -> dict:
    """Basis products e_i e_j = s e_k of the doubled algebra of dim 2^level.

    Doubling rule: (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)).
    """
    if level == 0:
        return {(0, 0): (1, 0)}
    half = 1 << (level - 1)
    sub = _cayley_dickson_table(level - 1)
    conj = [1] + [-1] * (half - 1)  # conj(e_0) = e_0, conj(e_i) = -e_i
    table = dict(sub)
    for i in range(half):
        for j in range(half):
            s, k = sub[(i, j)]
            s_ji, k_ji = sub[(j, i)]
            table[(i, half + j)] = (s_ji, half + k_ji)
            table[(half + i, j)] = (conj[j] * s, half + k)
            table[(half + i, half + j)] = (-conj[j] * s_ji, k_ji)
    return table


_TABLE = _cayley_dickson_table(3)
_OCTONION = tuple(tuple((j, *_TABLE[(i, j)]) for j in range(8)) for i in range(8))


def omul(a, b) -> tuple:
    out = [0] * 8
    for i, ai in enumerate(a):
        if ai:
            for j, s, k in _OCTONION[i]:
                bj = b[j]
                if bj:
                    out[k] += s * ai * bj
    return tuple(out)


def osub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def random_octonions(rng, n: int) -> list:
    return [tuple(rng.randint(-3, 3) for _ in range(8)) for _ in range(n)]


def evaluate(p: dict, values: list) -> tuple:
    """p at x_i = values[i-1], as 8 exact Fractions.

    The sum runs in ints, scaled by the lcm of the denominators.
    """
    memo = {}

    def ev(w):
        if isinstance(w, int):
            return values[w - 1]
        v = memo.get(w)
        if v is None:
            v = memo[w] = omul(ev(w[0]), ev(w[1]))
        return v

    scale = lcm(*(Fraction(c).denominator for c in p.values())) if p else 1
    total = [0] * 8
    for w, c in p.items():
        c = int(c * scale)
        for k, x in enumerate(ev(w)):
            total[k] += c * x
    return tuple(Fraction(t, scale) for t in total)


def octonion_self_test(rng) -> list:
    """Alternative and flexible laws hold and associativity fails."""
    failures = []
    for _ in range(5):
        x, y, z = random_octonions(rng, 3)
        assoc = lambda a, b, c: osub(omul(omul(a, b), c), omul(a, omul(b, c)))
        if any(assoc(x, x, y)) or any(assoc(y, x, x)) or any(assoc(x, y, x)):
            failures.append("octonions: alternative or flexible law failed")
        if not any(assoc(x, y, z)):
            failures.append("octonions: a sampled associator vanished")
    for identity in (FLEX_IDENTITY, *ALT_IDENTITIES):
        if any(evaluate(identity, random_octonions(rng, 3))):
            failures.append("octonions: an identity did not vanish")
    return failures
