"""Reproduction of "An Efficient Multicast Protocol for Content-Based
Publish-Subscribe Systems" (Banavar et al., ICDCS 1999) — the Gryphon link
matching protocol, with the full substrate it needs: a content-based matching
engine, a broker-network model, a discrete-event simulator, and a prototype
broker.

Public API highlights
---------------------
* :mod:`repro.matching` — event schemas, predicates, the Parallel Search Tree
  (as a compiled program).
* :mod:`repro.core` — trits, masks, the link-matching router.
* :mod:`repro.network` — topologies, routing tables, spanning trees.
* :mod:`repro.sim` / :mod:`repro.protocols` — the network simulator and the
  link-matching / flooding / match-first protocols it compares.
* :mod:`repro.workload` — the paper's random workload generators.
* :mod:`repro.broker` — the Section 4.2 prototype broker.
* :mod:`repro.experiments` — harnesses that regenerate Charts 1-3.
"""

__version__ = "1.0.0"

from repro.core import (  # noqa: E402 (re-exports after module docstring)
    ContentRoutedNetwork,
    ContentRouter,
    DeliveryTrace,
    Trit,
    TritVector,
)
from repro.matching import (  # noqa: E402
    Event,
    EventSchema,
    FactoredMatcher,
    Predicate,
    SearchDag,
    Subscription,
    parse_predicate,
    stock_trade_schema,
    uniform_schema,
)
from repro.network import Topology, figure6_topology  # noqa: E402

__all__ = [
    "ContentRoutedNetwork",
    "ContentRouter",
    "DeliveryTrace",
    "Event",
    "EventSchema",
    "FactoredMatcher",
    "Predicate",
    "SearchDag",
    "Subscription",
    "Topology",
    "Trit",
    "TritVector",
    "figure6_topology",
    "parse_predicate",
    "stock_trade_schema",
    "uniform_schema",
    "__version__",
]
