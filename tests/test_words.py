from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import leaves_by_text, relabel_shared
from skewalg.poly import MultiPoly
from skewalg.words import (HOLE, degree, enumerate_words, fill, format_word, leaves,
                           md_key, relabel, sort_key, split_words, word_count)


def test_degree_and_leaves():
    w = ((1, 2), 3)
    assert degree(w) == 3
    assert leaves(w) == (1, 2, 3)
    assert leaves(5) == (5,)
    assert leaves(((1, HOLE), 1)) == (1, HOLE, 1)
    assert degree(5) == 1


def test_multidegree_examples():
    def multidegree(w):
        return list(MultiPoly.monomial(w).multidegree().items())
    assert multidegree((1, 2)) == [(1, 1), (2, 1)]
    assert multidegree(((1, 1), 2)) == [(1, 2), (2, 1)]
    assert multidegree((2, (1, 1))) == [(1, 2), (2, 1)]
    assert multidegree(3) == [(3, 1)]


def test_format_word():
    assert format_word(1) == "x1"
    assert format_word(((1, 2), 3)) == "((x1*x2)*x3)"
    assert format_word(HOLE) == "_"


@pytest.mark.parametrize("md,count", [
    ({1: 1, 2: 1, 3: 1}, 12),
    ({1: 2, 2: 1}, 6),
    ({1: 1, 2: 1, 3: 1, 4: 1}, 120),
    ({1: 3}, 2),
    ({1: 1}, 1),
])
def test_enumerate_word_counts(md, count):
    ws = enumerate_words(md)
    assert len(ws) == count
    assert word_count(md) == count
    assert len(set(ws)) == count
    for w in ws:
        assert Counter(leaves(w)) == md


def _direct_words(leaf_seqs):
    """Independent generator: all bracketings over all leaf orderings."""
    def brackets(seq):
        if len(seq) == 1:
            return [seq[0]]
        out = []
        for cut in range(1, len(seq)):
            for a in brackets(seq[:cut]):
                for b in brackets(seq[cut:]):
                    out.append((a, b))
        return out

    out = set()
    for seq in leaf_seqs:
        out.update(brackets(seq))
    return out


def test_enumeration_matches_direct_generation():
    from itertools import permutations

    for md in [{1: 1, 2: 1, 3: 1}, {1: 2, 2: 1}, {1: 1, 2: 1, 3: 1, 4: 1},
               {1: 2, 2: 2}, {1: 4}, {1: 3, 2: 1, 3: 1}]:
        flat = []
        for v, e in sorted(md.items()):
            flat.extend([v] * e)
        seqs = set(permutations(flat))
        assert set(enumerate_words(md)) == _direct_words(seqs)


def test_count_formula_high_degree():
    # spot checks against the closed formula at total degree 7 and 8
    assert len(enumerate_words({1: 7})) == word_count({1: 7}) == 132
    assert len(enumerate_words({1: 5, 2: 3})) == word_count({1: 5, 2: 3})
    assert len(enumerate_words({1: 4, 2: 2, 3: 2})) == word_count({1: 4, 2: 2, 3: 2})
    assert len(enumerate_words({1: 2, 2: 2, 3: 2, 4: 1})) == word_count(
        {1: 2, 2: 2, 3: 2, 4: 1})


def test_canonical_order_is_strict_and_stable():
    ws = enumerate_words({1: 2, 2: 1})
    keys = [sort_key(w) for w in ws]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert ws == enumerate_words({2: 1, 1: 2})


def test_relabel_word_images_partial_map_and_hole():
    w = ((1, 2), 1)
    assert relabel(w, {1: 3}) == ((3, 2), 3)  # partial map: x2 stays
    assert relabel(w, {}) == w
    assert relabel(w, {1: (5, 5), 2: 4}) == (((5, 5), 4), (5, 5))  # word images
    assert relabel(w, {1: (2, 1), 2: 1}) == (((2, 1), 1), (2, 1))  # not relabelled again
    ctx = ((1, HOLE), 2)
    assert relabel(ctx, {HOLE: (3, 3)}) == ((1, (3, 3)), 2)
    assert relabel(HOLE, {HOLE: w}) == w


def test_relabel_shared_dict_word_images_partial_map_and_hole():
    w = ((1, 2), 1)
    assert relabel_shared(w, {1: 3}, {}) == ((3, 2), 3)
    assert relabel_shared(w, {}, {}) == w
    assert relabel_shared(w, {1: (5, 5), 2: 4}, {}) == (((5, 5), 4), (5, 5))
    assert relabel_shared(w, {1: (2, 1), 2: 1}, {}) == (((2, 1), 1), (2, 1))
    ctx = ((1, HOLE), 2)
    assert relabel_shared(ctx, {HOLE: (3, 3)}, {}) == ((1, (3, 3)), 2)
    assert relabel_shared(HOLE, {HOLE: w}, {}) == w


def test_relabel_shared_subword_has_one_image():
    s = (1, 2)
    image = relabel_shared((s, (3, s)), {1: 4}, {})
    assert image == ((4, 2), (3, (4, 2)))
    assert image[0] is image[1][1]


_LEAVES = st.integers(HOLE, 5)
_IMAGES = st.recursive(st.integers(1, 7), lambda sub: st.tuples(sub, sub), max_leaves=4)


@st.composite
def _words_sharing_subwords(draw):
    """Words over a pool in which each new node reuses earlier node objects."""
    pool = draw(st.lists(_LEAVES, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 10))):
        pool.append((draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
    return pool


@settings(max_examples=300, deadline=None)
@given(_words_sharing_subwords(), st.dictionaries(_LEAVES, _IMAGES, max_size=4))
def test_relabel_shared_matches_plain(words, mapping):
    shared = {}
    images = [relabel_shared(w, mapping, shared) for w in words]
    assert images == [relabel(w, mapping) for w in words]
    image_of = {id(w): image for w, image in zip(words, images)}
    for w, image in zip(words, images):  # a shared input node has one image object
        if not isinstance(w, int):
            for child, child_image in zip(w, image):
                if not isinstance(child, int):
                    assert child_image is image_of[id(child)]


def _shape_nodes(shape, nodes):
    """Add every internal node of shape to nodes, as value -> set of ids."""
    stack = [shape]
    while stack:
        node = stack.pop()
        if not isinstance(node, int):
            nodes.setdefault(node, set()).add(id(node))
            stack.extend(node)


def test_split_words_example():
    s = (1, 2)
    assert list(split_words([(s, (3, s)), 4])) == [(((0, 0), (0, (0, 0))), (1, 2, 3, 1, 2)),
                                                   (0, (4,))]
    assert fill(((0, 0), (0, (0, 0))), (1, 2, 3, 1, 2)) == (s, (3, s))
    assert fill(0, [4]) == 4


@settings(max_examples=300, deadline=None)
@given(_words_sharing_subwords())
def test_split_words_matches_plain_walk(words):
    splits = list(split_words(words))
    assert len(splits) == len(words)
    nodes = {}
    for w, (shape, order) in zip(words, splits):
        assert order == leaves_by_text(w)
        assert shape == relabel(w, dict.fromkeys(order, 0))
        assert fill(shape, order) == w
        _shape_nodes(shape, nodes)
    # equal shapes, and equal subshapes, within one split are one object
    assert all(len(ids) == 1 for ids in nodes.values())


def test_md_key_normalization():
    assert md_key({2: 1, 1: 3, 5: 0}) == ((1, 3), (2, 1))


def test_enumerate_rejects_nonpositive():
    with pytest.raises(ValueError, match="^multidegree exponents must be positive$"):
        enumerate_words({1: -1, 2: 2})
    assert enumerate_words({}) == []

