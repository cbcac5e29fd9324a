"""Term data makes no reference cycles, so pausing the cyclic collector
while terms are built frees nothing late (see the README design notes),
only the word module keys memos by object identity, and records are
built through their constructors."""

import ast
import gc
from pathlib import Path

import pytest

from skewalg.family import associative_projection, fm, solve_skew_decomposition
from skewalg.poly import MultiPoly
from skewalg.symmetrize import alternate, is_skew_symmetric
from skewalg.variety import ComponentSpace, builtin_variety
from skewalg.words import relabel

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "skewalg").glob("*.py"))


def _recursive_closures(tree):
    """(line, name) of each function nested in another function that refers
    to its own name: it reaches itself through its closure cell, a cycle."""
    found = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(node, ast.Name) and node.id == inner.name
                   for node in ast.walk(inner)):
                found.add((inner.lineno, inner.name))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_recursive_closures(path):
    assert _recursive_closures(ast.parse(path.read_text(), str(path))) == []


def test_recursive_closure_is_found():
    tree = ast.parse("def outer():\n"
                     "    def walk(u):\n"
                     "        return walk(u[0]) if u else 0\n"
                     "    def leaf(u):\n"
                     "        return u\n"
                     "    return walk\n")
    assert _recursive_closures(tree) == [(2, "walk")]


def _id_calls(tree):
    """Lines that call the builtin id."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "id")


def test_only_words_keys_by_identity():
    # words.split_words and words.flatten own the id-keyed memos
    callers = {path.name for path in SOURCES
               if _id_calls(ast.parse(path.read_text(), str(path)))}
    assert callers == {"words.py"}


def test_id_call_is_found():
    tree = ast.parse("memo = {}\n"
                     "def key(w):\n"
                     "    return memo.get(id(w)), w.id(), identity(w)\n")
    assert _id_calls(tree) == [3]


def _record_bypasses(tree):
    """Lines that call an attribute named _make or _replace, which build a
    named tuple without its __new__ and so without its validation."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("_make", "_replace"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_records_are_built_through_their_constructor(path):
    assert _record_bypasses(ast.parse(path.read_text(), str(path))) == []


def test_record_bypass_is_found():
    tree = ast.parse("a = Desc._make(fields)\n"
                     "b = a._replace(m=2)\n"
                     "c = make(a), a._asdict()\n")
    assert _record_bypasses(tree) == [1, 2]


def _saturate_flex_211(tmp_path):
    flex = builtin_variety("flex")
    return lambda: ComponentSpace(flex, {1: 2, 2: 1, 3: 1}).saturate()


def _build_fm_6(tmp_path):
    fm(5)
    return lambda: fm.__wrapped__(6)


def _split_fm_6(tmp_path):
    p = fm(6)
    terms = dict(p.terms)
    half = list(terms)[len(terms) // 2]
    terms[half] += 1
    broken = MultiPoly(terms)
    # one word made non-multilinear halfway: alternate's split fails there
    # and is abandoned
    non_multilinear = MultiPoly({relabel(w, {2: 1}) if w == half else w: c
                                 for w, c in p.terms.items()})

    def run():
        assert is_skew_symmetric(p)
        associative_projection(p)
        assert not is_skew_symmetric(broken)
        with pytest.raises(ValueError, match="^alternate requires a multilinear polynomial$"):
            alternate(non_multilinear)
    return run


def _write_lemma3_certificate(tmp_path):
    cert = solve_skew_decomposition(5).certificate
    alt = builtin_variety("alt")
    return lambda: cert.write(str(tmp_path / "lemma3.json"), alt)


@pytest.mark.parametrize("prepare", [_saturate_flex_211, _build_fm_6, _split_fm_6,
                                     _write_lemma3_certificate],
                         ids=["saturate-flex-211", "fm-6", "split-fm-6", "write-lemma3-m5"])
def test_leaves_no_cyclic_garbage(tmp_path, prepare):
    run = prepare(tmp_path)
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
