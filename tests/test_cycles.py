"""Term data makes no reference cycles, so pausing the cyclic collector
while terms are built frees nothing late (see the README design notes)."""

import ast
import gc
from pathlib import Path

import pytest

from skewalg.family import fm, solve_skew_decomposition
from skewalg.variety import ComponentSpace, builtin_variety

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


def _saturate_flex_211(tmp_path):
    flex = builtin_variety("flex")
    return lambda: ComponentSpace(flex, {1: 2, 2: 1, 3: 1}).saturate()


def _build_fm_6(tmp_path):
    fm(5)
    return lambda: fm.__wrapped__(6)


def _write_lemma3_certificate(tmp_path):
    cert = solve_skew_decomposition(5).certificate
    alt = builtin_variety("alt")
    return lambda: cert.write(str(tmp_path / "lemma3.json"), alt)


@pytest.mark.parametrize("prepare", [_saturate_flex_211, _build_fm_6, _write_lemma3_certificate],
                         ids=["saturate-flex-211", "fm-6", "write-lemma3-m5"])
def test_leaves_no_cyclic_garbage(tmp_path, prepare):
    run = prepare(tmp_path)
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
