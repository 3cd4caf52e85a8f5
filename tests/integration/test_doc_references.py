"""The prose docs name code that exists.

Every backticked dotted ``repro.…`` name in the top-level docs and
``docs/*.md`` must resolve to a module, or to an attribute reached from
the longest importable module prefix — a row naming a module that was
folded away or renamed fails here instead of misleading a reader.  Every
example script and every ``python -m repro`` subcommand that README.md,
DESIGN.md, ``docs/*.md`` or the CLI's own docstring names must exist too.
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[2]
DOCS = [REPO / name for name in ("DESIGN.md", "README.md", "EXPERIMENTS.md", "CONTRIBUTING.md")]
DOCS += sorted((REPO / "docs").glob("*.md"))
NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")
#: The docs whose examples and CLI commands must exist (EXPERIMENTS.md also
#: names commands of earlier commits, for experiments removed since).
USAGE_DOCS = [REPO / "README.md", REPO / "DESIGN.md", *sorted((REPO / "docs").glob("*.md"))]
EXAMPLE_PATH = re.compile(r"examples/(\w+\.py)")
#: A row of a table whose first column is headed "Example": ``| `name.py` | ...``.
EXAMPLE_ROW = re.compile(r"^\|\s*`(\w+\.py)`\s*\|", re.MULTILINE)
COMMAND = re.compile(r"python -m repro\b([^`\n#]*)")


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


def named_examples():
    names = set()
    for path in USAGE_DOCS:
        text = path.read_text()
        names.update((path.name, name) for name in EXAMPLE_PATH.findall(text))
        for table in re.split(r"\n\s*\n", text):
            if table.lstrip().startswith("| Example "):
                names.update((path.name, name) for name in EXAMPLE_ROW.findall(table))
    return names


def test_every_named_example_exists():
    names = named_examples()
    assert len(names) > 5, "the docs stopped naming examples, or the pattern broke"
    missing = [(where, name) for where, name in names if not (REPO / "examples" / name).exists()]
    assert sorted(missing) == []


def named_commands(parser):
    """(where, subcommand) for every ``python -m repro [global options] <command>``;
    alternatives written ``a | b`` count one each, placeholders (``<command>``)
    none."""
    takes_value = {
        flag
        for action in parser._actions
        if action.option_strings and action.nargs != 0
        for flag in action.option_strings
    }
    sources = [*USAGE_DOCS, REPO / "src" / "repro" / "cli.py"]
    for path in sources:
        for match in COMMAND.finditer(path.read_text()):
            for alternative in match.group(1).split("|"):
                words = alternative.split()
                while words and words[0].startswith("-"):
                    if words.pop(0) in takes_value and words:
                        words.pop(0)
                if words and not words[0].startswith("<"):
                    yield path.relative_to(REPO).as_posix(), words[0]


def test_every_named_cli_command_is_registered():
    from repro.cli import _build_parser

    parser = _build_parser()
    (commands,) = [
        action.choices
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    named = set(named_commands(parser))
    assert len(named) > 5, "the docs stopped naming commands, or the pattern broke"
    assert sorted((where, command) for where, command in named if command not in commands) == []
