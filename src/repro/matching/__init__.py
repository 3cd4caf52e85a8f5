"""Content-based matching: schemas, events, predicates, and the Parallel
Search Tree of Section 2 of the paper as a compiled program (plus its
optimizations)."""

from repro.matching.base import Matcher, MatcherEngine
from repro.matching.compile import CompiledProgram, MatchResult
from repro.matching.events import Event
from repro.matching.optimizations import OUT_OF_DOMAIN, DagNode, FactoredMatcher, SearchDag
from repro.matching.ordering import (
    declaration_order,
    dont_care_counts,
    order_by_fewest_dont_cares,
    order_quality,
    reverse_declaration_order,
)
from repro.matching.parser import parse_predicate
from repro.matching.predicates import (
    DONT_CARE,
    AttributeTest,
    DontCare,
    EqualityTest,
    IntervalTest,
    Predicate,
    RangeOp,
    RangeTest,
    Subscription,
    normalize_tests,
)
from repro.matching.schema import (
    Attribute,
    AttributeType,
    AttributeValue,
    EventSchema,
    InformationSpace,
    stock_trade_schema,
    uniform_schema,
)

# The engine implementations live in repro.matching.engines, which depends on
# repro.core (trits).  Importing them eagerly here would create an import
# cycle (repro.core's routers import this package), so they are exposed
# lazily instead.
_ENGINE_EXPORTS = (
    "CompiledEngine",
    "FactoredEngine",
    "create_matcher",
    "view_of",
)


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        from repro.matching import engines

        return getattr(engines, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Attribute",
    "AttributeTest",
    "AttributeType",
    "AttributeValue",
    "CompiledEngine",
    "CompiledProgram",
    "DONT_CARE",
    "DagNode",
    "DontCare",
    "EqualityTest",
    "Event",
    "EventSchema",
    "FactoredEngine",
    "FactoredMatcher",
    "InformationSpace",
    "IntervalTest",
    "MatchResult",
    "Matcher",
    "MatcherEngine",
    "OUT_OF_DOMAIN",
    "create_matcher",
    "view_of",
    "Predicate",
    "RangeOp",
    "RangeTest",
    "SearchDag",
    "Subscription",
    "declaration_order",
    "dont_care_counts",
    "normalize_tests",
    "order_by_fewest_dont_cares",
    "order_quality",
    "parse_predicate",
    "reverse_declaration_order",
    "stock_trade_schema",
    "uniform_schema",
]
