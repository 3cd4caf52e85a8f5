"""Pluggable execution backends for the compiled matching kernels.

:mod:`repro.matching.compile` lowers a Parallel Search Tree into one flat
record per node; *how those records are executed* is this package's axis.  A
:class:`KernelBackend` implements the raw kernels over a compiled program's
records — single-event search, batched search, and the Section 3.3 link
refinement — while :class:`~repro.matching.compile.CompiledProgram` keeps
everything execution-independent: schema checks, insert/remove, and
annotation.

Backends (:data:`BACKEND_NAMES`):

``interp``
    The reference backend: the single-event interpreter loops; a batch is
    answered one event at a time.  Every other backend is pinned against it
    by the property suite (``tests/property/test_prop_backends.py``).
``vector``
    A columnar backend that advances a whole ``(node, event)`` frontier one
    tree level at a time with bulk numpy array operations.  Asking for it
    without numpy installed is a :class:`~repro.errors.SubscriptionError`.
    Identical match sets, step counts, and masks; only match-list order
    (already unspecified between the engines' batch and single paths) and
    the wall clock change.  See :mod:`repro.matching.backends.vector`.

The kernel interface is deliberately narrow: kernels receive the program
plus plain value tuples (events are projected by the caller) and return
plain ``(matched, steps)`` data.  They read the program's record surface
(:attr:`~repro.matching.compile.CompiledProgram._records`, ``value_ids``,
``ann_yes``, ``ann_maybe``, ``generation``, ``backend_state``) and nothing
else — and ``_records`` is all the structure a program has: no parallel
arrays or pools describe it a second time.

``program.generation`` increments on every mutation of the records
(insert, remove or re-annotation) and ``program.backend_state`` is a scratch dict
cleared alongside it: backends key derived structures (the vector backend's
columnar index) on the generation and rebuild lazily when it moves.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SubscriptionError

#: Valid backend names, in documentation order.
BACKEND_NAMES = ("interp", "vector")

#: The backend used when callers do not choose one.
DEFAULT_BACKEND = "interp"


class KernelBackend(abc.ABC):
    """Raw kernel execution over one compiled program's record arrays.

    Contract (pinned by ``tests/property/test_prop_backends.py``): every
    backend returns what ``interp`` returns — the same matched subscription
    *set* per event (order is unspecified, exactly as it already is between
    the engines' batch and single paths), the same per-event step counts,
    and the same refined link masks.  Kernels are pure: they read the
    program's records and never mutate its arrays.

    ``values`` arguments are full event value tuples
    (:meth:`~repro.matching.events.Event.as_tuple`); batch variants receive
    one tuple per event, repeats included, and default to the per-tuple
    loop — a backend overrides them only when it has a real batch kernel.
    """

    #: Registry name ("interp" / "vector").
    name: str = "abstract"

    @abc.abstractmethod
    def match(self, program, values: tuple) -> Tuple[list, int]:
        """Single-event Section 2 search: ``(matched_subscriptions, steps)``."""

    def match_batch(
        self, program, value_tuples: Sequence[tuple]
    ) -> List[Tuple[list, int]]:
        """Batched search; element ``i`` equals ``match(value_tuples[i])``."""
        return [self.match(program, values) for values in value_tuples]

    @abc.abstractmethod
    def match_links(
        self, program, values: tuple, yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        """Section 3.3 refinement: ``(final_yes_bits, steps)``."""

    def match_links_batch(
        self, program, value_tuples: Sequence[tuple], yes_bits: int, maybe_bits: int
    ) -> List[Tuple[int, int]]:
        """Batched refinement of one shared initialization mask; element
        ``i`` equals ``match_links(value_tuples[i], yes_bits, maybe_bits)``."""
        return [
            self.match_links(program, values, yes_bits, maybe_bits)
            for values in value_tuples
        ]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


#: Kernel-backend singletons are stateless (the vector backend keeps its
#: derived index on the *program*), so one instance per name suffices.
_instances: Dict[str, KernelBackend] = {}


def validate_backend(backend: str) -> str:
    """Check ``backend`` is a known name; returns it for chaining."""
    if backend not in BACKEND_NAMES:
        raise SubscriptionError(
            f"unknown kernel backend {backend!r} — expected one of {BACKEND_NAMES}"
        )
    return backend


def require_backend_for(engine: str, backend: Optional[str]) -> None:
    """Fail now, not at the first match, on a ``backend`` that ``engine``
    cannot run: an unknown name, anything but the default on the ``tree``
    engine (it walks the object graph and has no kernels), or ``vector``
    without numpy.  ``None`` means :data:`DEFAULT_BACKEND` and always passes.
    """
    if backend is None:
        return
    validate_backend(backend)
    if engine != "tree":
        create_backend(backend)
    elif backend != DEFAULT_BACKEND:
        raise SubscriptionError(
            f"engine 'tree' walks the object graph directly and has no "
            f"kernel backends — backend {backend!r} requires engine='compiled'"
        )


def create_backend(backend: str) -> KernelBackend:
    """The kernel backend singleton named ``backend``."""
    validate_backend(backend)
    instance = _instances.get(backend)
    if instance is None:
        if backend == "interp":
            from repro.matching.backends.interp import InterpBackend

            instance = InterpBackend()
        else:
            from repro.matching.backends.vector import VectorBackend

            instance = VectorBackend()
        _instances[backend] = instance
    return instance
