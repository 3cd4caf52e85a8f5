"""Which owner runs each ``src/repro`` file, and which function bodies none runs.

A ``src/`` file stays when one of the project's owners runs it:

* the ``BENCHMARK.json`` workloads, through ``benchmarks.e2e.cli.run_workload``
  at ``--quick`` size;
* the failover gate, ``benchmarks/failover.py --quick``;
* the paper's Charts 1-3, the E4 throughput sweep and the E7 ablations as
  ``python -m repro`` regenerates them, and the E8 baseline comparison
  (which has no subcommand), each at the smallest size its harness runs;
* the Figures 2/4/5 golden tests, ``tests/integration/test_paper_figures.py``;
* the public client and broker API as ``examples/quickstart.py`` uses it.

Each owner runs in a child process under ``sys.setprofile`` and
``threading.setprofile``, which record every function whose code started.
A file is owned by an owner that called one of its functions, or that ran a
``src/`` method on an object whose class is, or derives from, a class the
file defines (an interface is used through its implementations).  A file that defines no
function other than dunder methods (a package ``__init__``, an exception
hierarchy) has nothing to call, so an owner that imported it owns it.

The table gives, per file, its owners, its lines, and the lines of function
bodies that no owner called (an uncalled function's nested functions count
once, inside it).  The exit code is 1 when a file has no owner, unless
``KEPT`` names it with the reason it stays.

Run from the repo root; it probes the checkout that holds this file and
takes a few minutes::

    python benchmarks/ownership.py
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from typing import Dict, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Files that stay although no owner runs them, and why.
KEPT = {
    "repro/testkit.py": "test harness: tests and examples import it",
    "repro/workload/scenarios.py": "test harness: the failover tests import it",
    "repro/broker/persistent_log.py": "durable client logs: safety code",
}


def _python_m_repro(*arguments: str) -> str:
    return (
        "import runpy, sys\n"
        f"sys.argv = ['repro', *{list(arguments)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as stop:\n"
        "    assert not stop.code, stop.code\n"
    )


def _script(path: str, *arguments: str) -> str:
    return (
        "import runpy, sys\n"
        f"sys.argv = [{path!r}, *{list(arguments)!r}]\n"
        "try:\n"
        f"    runpy.run_path({path!r}, run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    assert not stop.code, stop.code\n"
    )


def owners(scratch: pathlib.Path) -> Dict[str, str]:
    """Owner name -> the Python source its child process runs."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {
        workload["name"]: (
            "from benchmarks.e2e.cli import run_workload\n"
            f"run_workload({workload['name']!r}, 1, 1.0, False, True)\n"
        )
        for workload in manifest["workloads"]
    }
    table.update(
        {
            "failover": _script("benchmarks/failover.py", "--quick", "--bench-out", str(scratch)),
            "chart1": _python_m_repro("chart1", "--subscriptions", "100"),
            "chart2": _python_m_repro("chart2", "--subscriptions", "100", "--events", "40"),
            "chart3": _python_m_repro("chart3", "--subscriptions", "1000", "--events", "60"),
            "throughput": _python_m_repro("throughput"),
            "ablations": _python_m_repro("ablations"),
            "baselines": (
                "from repro.experiments import BaselineConfig, run_baseline_comparison\n"
                "run_baseline_comparison(BaselineConfig(subscription_counts=(100,),"
                " subscribers_per_broker=3, num_events_per_publisher=120))\n"
            ),
            "figures": (
                "import pytest\n"
                "code = pytest.main(['-q', '-p', 'no:cacheprovider',"
                " 'tests/integration/test_paper_figures.py'])\n"
                "assert code == 0, code\n"
            ),
            "quickstart": _script("examples/quickstart.py"),
        }
    )
    return table


# The child: run one owner's source under the profiler, then write what ran.
_CHILD = """
import json, sys, threading
src = SRC + "/"
ours = src + "repro/"
seen = set()
classes = set()
def profile(frame, event, arg):
    if event == "call" and frame.f_code not in seen:
        code = frame.f_code
        seen.add(code)
        if (
            code.co_argcount
            and code.co_varnames[0] in ("self", "cls")
            and code.co_filename.startswith(ours)
        ):
            receiver = frame.f_locals.get(code.co_varnames[0])
            classes.update((receiver if isinstance(receiver, type) else type(receiver)).__mro__)
threading.setprofile(profile)
sys.setprofile(profile)
try:
    exec(compile(OWNER, "<owner>", "exec"), {"__name__": "__owner__"})
finally:
    sys.setprofile(None)
    threading.setprofile(None)
ran = [code for code in seen if code.co_filename.startswith(ours)]
files = {
    name: (getattr(module, "__file__", None) or "")
    for name, module in list(sys.modules.items())
}
imported = {path for path in files.values() if path.startswith(ours)}
imported |= {code.co_filename for code in ran if code.co_name == "<module>"}
used = {files.get(kind.__module__, "") for kind in classes}
with open(OUT, "w") as out:
    json.dump({
        "called": [
            (code.co_filename[len(src):], code.co_firstlineno, code.co_name) for code in ran
        ],
        "imported": [path[len(src):] for path in imported],
        "classes": [path[len(src):] for path in used if path.startswith(ours)],
    }, out)
"""


def run_owner(name: str, source: str, out: pathlib.Path) -> Tuple[Set, Set[str], Set[str]]:
    """Run one owner in a child process; returns the functions it called, the
    files it imported and the files whose classes its objects are made of."""
    child = f"OWNER = {source!r}\nSRC = {str(SRC)!r}\nOUT = {str(out)!r}\n" + _CHILD
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run(
        [sys.executable, "-c", child],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"owner {name!r} failed:\n{done.stderr[-3000:]}")
    data = json.loads(out.read_text())
    called = {(path, line, function) for path, line, function in data["called"]}
    return called, set(data["imported"]), set(data["classes"])


class FileFunctions:
    """The functions one source file defines, keyed as their code objects are."""

    def __init__(self, path: pathlib.Path) -> None:
        self.text = path.read_text()
        self.lines = self.text.count("\n")
        self.roots: List[ast.AST] = []  # outermost functions, in source order
        self.children: Dict[ast.AST, List[ast.AST]] = {}
        self.entry_points = 0  # module-level functions and non-dunder methods
        self._collect(ast.parse(self.text), None, in_class=False)

    def _collect(self, node: ast.AST, parent, *, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                (self.children.setdefault(parent, []) if parent else self.roots).append(child)
                self.children.setdefault(child, [])
                if not (in_class and child.name.startswith("__") and child.name.endswith("__")):
                    self.entry_points += 1
                self._collect(child, child, in_class=False)
            elif isinstance(child, ast.ClassDef):
                self._collect(child, parent, in_class=True)
            else:
                self._collect(child, parent, in_class=in_class)

    @staticmethod
    def key(function) -> Tuple[int, str]:
        first = min([function.lineno] + [d.lineno for d in function.decorator_list])
        return first, function.name

    def all_keys(self) -> Set[Tuple[int, str]]:
        return {self.key(function) for function in self.children}

    def uncalled_lines(self, called: Set[Tuple[int, str]]) -> int:
        def walk(functions) -> int:
            total = 0
            for function in functions:
                if self.key(function) in called:
                    total += walk(self.children[function])
                else:
                    total += function.end_lineno - function.lineno + 1
            return total

        return walk(self.roots)


def main() -> int:
    files = {
        path.relative_to(SRC).as_posix(): FileFunctions(path)
        for path in sorted((SRC / "repro").rglob("*.py"))
    }
    owned_by: Dict[str, List[str]] = {name: [] for name in files}
    called_anywhere: Dict[str, Set[Tuple[int, str]]] = {name: set() for name in files}
    with tempfile.TemporaryDirectory() as scratch:
        scratch = pathlib.Path(scratch)
        for index, (owner, source) in enumerate(owners(scratch).items()):
            print(f"running owner {owner} ...", file=sys.stderr, flush=True)
            called, imported, classes = run_owner(owner, source, scratch / f"{index}.json")
            by_file: Dict[str, Set[Tuple[int, str]]] = {}
            for path, line, function in called:
                by_file.setdefault(path, set()).add((line, function))
            for name, functions in files.items():
                hits = by_file.get(name, set()) & functions.all_keys()
                called_anywhere[name] |= hits
                if hits or name in classes or (functions.entry_points == 0 and name in imported):
                    owned_by[name].append(owner)

    print("| file | lines | uncalled lines | owners |")
    print("|---|---:|---:|---|")
    total_lines = total_uncalled = 0
    for name, functions in files.items():
        uncalled = functions.uncalled_lines(called_anywhere[name])
        total_lines += functions.lines
        total_uncalled += uncalled
        owners_text = ", ".join(owned_by[name]) or (
            f"kept: {KEPT[name]}" if name in KEPT else "**none**"
        )
        print(f"| `{name}` | {functions.lines} | {uncalled} | {owners_text} |")
    print(f"| total | {total_lines} | {total_uncalled} | |")

    orphans = [name for name in files if not owned_by[name] and name not in KEPT]
    if orphans:
        print(f"\n{len(orphans)} file(s) no owner runs:")
        for name in orphans:
            print(f"- `{name}`")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
