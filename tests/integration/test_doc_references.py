"""The prose docs name code that exists.

Every backticked dotted ``repro.…`` name in the top-level docs and
``docs/*.md`` must resolve to a module, or to an attribute reached from
the longest importable module prefix — a row naming a module that was
folded away or renamed fails here instead of misleading a reader.
"""

from __future__ import annotations

import importlib
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[2]
DOCS = [REPO / name for name in ("DESIGN.md", "README.md", "EXPERIMENTS.md", "CONTRIBUTING.md")]
DOCS += sorted((REPO / "docs").glob("*.md"))
NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")


def referenced_names():
    names = {}
    for path in DOCS:
        for name in NAME.findall(path.read_text()):
            names.setdefault(name, path.relative_to(REPO).as_posix())
    return names


def resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def test_every_named_module_and_attribute_resolves():
    names = referenced_names()
    assert len(names) > 50, "the docs stopped naming code, or the pattern broke"
    assert sorted(f"{where}: {name}" for name, where in names.items() if not resolves(name)) == []
