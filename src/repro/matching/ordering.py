"""Attribute-ordering heuristics for the Parallel Search Tree.

Section 2 of the paper: "The way in which attributes are ordered from root to
leaf in the PST can be arbitrary.  In our experience, however, performance
seems to be better if the attributes near the root are chosen to have the
fewest number of subscriptions labeled with a ``*``."

This module provides that heuristic (:func:`order_by_fewest_dont_cares`) plus
two baselines used by the ablation benchmarks (declaration order and its
reverse — the worst case puts the least selective attributes at the root).
All functions return a permutation of the schema's attribute names, ready to
pass as ``attribute_order`` to :class:`~repro.matching.compile.CompiledProgram`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.matching.predicates import Predicate
from repro.matching.schema import EventSchema


def dont_care_counts(schema: EventSchema, predicates: Iterable[Predicate]) -> Dict[str, int]:
    """How many of ``predicates`` leave each attribute unconstrained."""
    counts = {name: 0 for name in schema.names}
    for predicate in predicates:
        if predicate.schema != schema:
            continue
        for attribute, test in zip(schema, predicate.tests):
            if test.is_dont_care:
                counts[attribute.name] += 1
    return counts


def order_by_fewest_dont_cares(
    schema: EventSchema, predicates: Iterable[Predicate]
) -> List[str]:
    """The paper's heuristic: most-constrained attributes first.

    Ties break by schema declaration order, so the result is deterministic.
    """
    counts = dont_care_counts(schema, predicates)
    declaration_rank = {name: i for i, name in enumerate(schema.names)}
    return sorted(schema.names, key=lambda name: (counts[name], declaration_rank[name]))


def declaration_order(schema: EventSchema) -> List[str]:
    """Baseline: the order attributes were declared in."""
    return list(schema.names)


def reverse_declaration_order(schema: EventSchema) -> List[str]:
    """Adversarial baseline for ablations: declaration order reversed."""
    return list(reversed(schema.names))


def order_quality(
    schema: EventSchema, predicates: Sequence[Predicate], order: Sequence[str]
) -> float:
    """A cheap proxy for how good an ordering is: the average tree depth at
    which a predicate's first constrained attribute appears (lower is better,
    because searches fan out at ``*``-levels before the first real test).

    Used by tests and the ordering ablation to check the heuristic actually
    improves on the baselines for the paper's workloads.
    """
    if not predicates:
        return 0.0
    rank = {name: i for i, name in enumerate(order)}
    total = 0
    for predicate in predicates:
        constrained = [
            rank[attribute.name]
            for attribute, test in zip(schema, predicate.tests)
            if not test.is_dont_care
        ]
        total += min(constrained) if constrained else len(order)
    return total / len(predicates)
