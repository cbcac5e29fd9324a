"""Nonassociative monomials: binary trees with variable-labelled leaves.

A word is either a leaf, written as a plain positive int naming the
variable (1 means x1), or a pair ``(left, right)`` of words.  The int 0 is
reserved as the hole marker used by one-hole ideal contexts and is never a
real variable.

Words compare by the canonical order (degree, then the parenthesized
serialization), which is a strict total order and fixes matrix columns,
iteration order and certificate layout everywhere else.
"""

from functools import lru_cache
from itertools import product
from math import comb, factorial, prod

HOLE = 0


def degree(w) -> int:
    """Number of leaves."""
    if isinstance(w, int):
        return 1
    return degree(w[0]) + degree(w[1])


def format_word(w) -> str:
    if isinstance(w, int):
        return "_" if w == HOLE else f"x{w}"
    return f"({format_word(w[0])}*{format_word(w[1])})"


def sort_key(w):
    """(degree, text): the canonical order's key."""
    return (degree(w), format_word(w))


def relabel(w, mapping):
    """Rebuild w with each leaf v replaced by mapping.get(v, v); an image may
    be a word (a monomial for a variable, a word for the hole) and is kept."""
    if isinstance(w, int):
        return mapping.get(w, w)
    return (relabel(w[0], mapping), relabel(w[1], mapping))


def split_words(words):
    """Yield (shape, leaf order) for each word, lazily: the shape is the word
    with every leaf 0 and the order its leaves left to right.

    A node's shape pairs its children's and its order joins theirs; each
    subword object is split once per call however many words hold it, and
    looked up by id, so the words must stay alive while the iterator runs.
    Equal shapes met in one call are one object.
    """
    memo = {}  # id of a subword object -> its split (a word's own is not
               # kept); a shape -> itself, the one object of its value
    for w in words:
        yield _split(w, memo)


def _split(w, memo):
    """(shape, leaf order) of w, from its children's kept in memo."""
    if isinstance(w, int):
        return 0, (w,)
    left, right = w
    left_split, right_split = memo.get(id(left)), memo.get(id(right))
    if left_split is None:
        left_split = memo[id(left)] = _split(left, memo)
    if right_split is None:
        right_split = memo[id(right)] = _split(right, memo)
    shape = (left_split[0], right_split[0])
    return memo.setdefault(shape, shape), left_split[1] + right_split[1]


def fill(shape, order):
    """The word of shape with its leaves taken from order left to right:
    the inverse of split_words, fill(*split) == word."""
    return _fill(shape, iter(order))


def _fill(shape, order):
    """fill's recursion; order is an iterator, consumed left to right."""
    if isinstance(shape, int):
        return next(order)
    return (_fill(shape[0], order), _fill(shape[1], order))


def leaves(w) -> tuple:
    """Leaf variables left to right: w's split order."""
    return next(split_words((w,)))[1]


def flatten(words, n: int) -> tuple:
    """(nodes, roots) for words whose leaves are variables 1..n-1.

    A position below n is the leaf of that variable; position n + k is
    nodes[k], a pair (left position, right position) listed after its
    children.  Equal subwords share one position, and roots holds the
    position of each word in order.  The words must stay alive during
    the call: node objects met before are looked up by id.
    """
    by_pair = {}  # (left position, right position) -> position, in node order
    by_id = {}    # id of a node object met before -> position
    roots = [_position(w, n, by_pair, by_id) for w in words]
    return list(by_pair), roots


def _position(w, n, by_pair, by_id):
    """w's position in flatten's numbering, adding its new nodes."""
    if isinstance(w, int):
        return w
    pos = by_id.get(id(w))
    if pos is None:
        key = (_position(w[0], n, by_pair, by_id), _position(w[1], n, by_pair, by_id))
        pos = by_pair.get(key)
        if pos is None:
            pos = by_pair[key] = n + len(by_pair)
        by_id[id(w)] = pos
    return pos


def md_key(md) -> tuple:
    """Canonical hashable form of a multidegree mapping: sorted (var, exp)
    pairs, zero exponents dropped.  The one gate on multidegrees: raises
    ValueError for a variable below 1 (0 is the hole marker) or a negative
    exponent."""
    key = tuple(sorted((v, e) for v, e in md.items() if e))
    if key and key[0][0] < 1:
        raise ValueError("variable indices start at 1")
    if any(e < 0 for _, e in key):
        raise ValueError("multidegree exponents must be positive")
    return key


def word_count(md) -> int:
    """(n! / prod d_i!) * Catalan(n-1) words of multidegree md, n = total degree."""
    exps = [e for _, e in md_key(md)]
    n = sum(exps)
    if n == 0:
        return 0
    multinomial = factorial(n) // prod(map(factorial, exps))
    catalan = comb(2 * (n - 1), n - 1) // n
    return multinomial * catalan


@lru_cache(maxsize=None)
def _words_for(key: tuple) -> tuple:
    total = sum(e for _, e in key)
    if total == 1:
        return (key[0][0],)
    out = []
    vars_ = [v for v, _ in key]
    exps = [e for _, e in key]
    # left sub-multidegree ranges over all proper nonzero sub-vectors
    for left_exps in product(*(range(e + 1) for e in exps)):
        if not any(left_exps) or left_exps == tuple(exps):
            continue
        left = tuple((v, e) for v, e in zip(vars_, left_exps) if e)
        right = tuple((v, e - le) for v, e, le in zip(vars_, exps, left_exps) if e - le)
        rights = [(b, format_word(b) + ")") for b in _words_for(right)]
        for a in _words_for(left):
            head = f"({format_word(a)}*"
            out.extend((head + tail, (a, b)) for b, tail in rights)
    # every word here has degree total, so the text alone is the sort key;
    # texts are distinct, so the words themselves are never compared
    out.sort()
    return tuple(w for _, w in out)


def enumerate_words(md) -> list:
    """All words of the given multidegree, canonically ordered, no duplicates."""
    key = md_key(md)
    return list(_words_for(key)) if key else []
