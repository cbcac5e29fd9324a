"""The oracles in tests/oracles.py check the package's readers of a word's
letters, so they must not read letters through them: no split_words, fill
or leaves from skewalg.words, and no MultiPoly.multidegree or
homogeneous_components."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"
READERS = {"split_words", "fill", "leaves", "multidegree", "homogeneous_components"}


def _reader_uses(tree):
    """(line, name) of each reader imported by name or reached as an
    attribute (a module's function or a MultiPoly method)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.update((node.lineno, a.name) for a in node.names if a.name in READERS)
        elif isinstance(node, ast.Attribute) and node.attr in READERS:
            found.add((node.lineno, node.attr))
    return sorted(found)


def test_oracles_use_no_reader():
    assert _reader_uses(ast.parse(ORACLES.read_text(), str(ORACLES))) == []


def test_reader_use_is_found():
    tree = ast.parse("from skewalg.words import HOLE, split_words as split\n"
                     "import skewalg.words as W\n"
                     "def md(p, w):\n"
                     "    p.multidegree()\n"
                     "    comps = p.homogeneous_components\n"
                     "    return W.fill(w, ()), leaves_by_text(w), p.terms.items()\n")
    assert _reader_uses(tree) == [(1, "split_words"), (4, "multidegree"),
                                  (5, "homogeneous_components"), (6, "fill")]
