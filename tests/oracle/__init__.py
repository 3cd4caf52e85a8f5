"""The object-graph Parallel Search Tree: the reference the compiled
program is held against.

The package ships one matcher, :class:`~repro.matching.compile.CompiledProgram`.
This is the paper's Sections 2–3 read literally — a tree of node objects
(:mod:`~tests.oracle.pst`), per-broker trit annotations
(:mod:`~tests.oracle.annotation`), the recursive refinement search
(:mod:`~tests.oracle.link_matcher`) — plus a view and a router over it that
take the same packed masks the program does.  Equivalence properties build
both from one subscription history and compare them.
"""

from tests.oracle.annotation import TreeAnnotation
from tests.oracle.link_matcher import LinkMatcher, LinkMatchResult
from tests.oracle.pst import ParallelSearchTree, PSTNode, build_pst, child_for_test
from tests.oracle.router import OracleRouter
from tests.oracle.view import OracleView

__all__ = [
    "LinkMatchResult",
    "LinkMatcher",
    "OracleRouter",
    "OracleView",
    "PSTNode",
    "ParallelSearchTree",
    "TreeAnnotation",
    "build_pst",
    "child_for_test",
]
