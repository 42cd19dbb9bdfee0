"""The docs name only what exists.

Every backticked ``repro.…`` dotted name in README.md, DESIGN.md and
EXPERIMENTS.md must import (the longest importable module prefix, then
attribute access for the rest), and every backticked ``*.py`` path must
name a file: a path with a directory part relative to the repo root,
``src/`` or ``src/repro/``, a bare file name anywhere in the tree's
Python files.  The frozen benchmark harness's README is not checked.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
CODE_DIRS = ("src", "tests", "benchmarks", "examples")

_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"\brepro(?:\.\w+)+")
_PY_PATH = re.compile(r"[\w./-]*\w\.py\b")


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def _exists(path: str, basenames: set) -> bool:
    if "/" not in path:
        return path in basenames
    return any((base / path).is_file() for base in (ROOT, ROOT / "src", ROOT / "src" / "repro"))


@pytest.fixture(scope="module")
def basenames():
    return {p.name for d in CODE_DIRS for p in (ROOT / d).rglob("*.py")}


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_names_and_paths_exist(doc, basenames):
    stale = set()
    for span in _SPAN.findall((ROOT / doc).read_text()):
        stale.update(name for name in _DOTTED.findall(span) if not _resolves(name))
        stale.update(path for path in _PY_PATH.findall(span) if not _exists(path, basenames))
    assert not stale, f"{doc} names what does not exist: {sorted(stale)}"
