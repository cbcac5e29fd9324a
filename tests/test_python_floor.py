"""Every module of the package parses at the oldest Python that
pyproject.toml's requires-python admits, so syntax newer than the floor
fails here rather than at a user's import."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "skewalg").glob("*.py"))


def _floor() -> tuple:
    # a regex, since tomllib is not in every Python the floor admits
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert found, "pyproject.toml names no requires-python floor"
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_parses_at_the_floor(path):
    ast.parse(path.read_text(), str(path), feature_version=_floor())
