"""Unit tests for the kernel-backend axis and its failure modes.

Covers the registry surface (:mod:`repro.matching.backends`), how
``backend=`` threads through :func:`create_engine`, generation-keyed
backend scratch on :class:`CompiledProgram`, and the fail-closed knobs
(``vector`` without numpy).
"""

from __future__ import annotations

import pytest

from repro.errors import SubscriptionError
from repro.matching import Event, Predicate, Subscription, uniform_schema
from repro.matching.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    create_backend,
    validate_backend,
)
from repro.matching.backends.vector import VectorBackend
from repro.matching.engines import CompiledEngine, create_engine
from repro.matching.predicates import EqualityTest

SCHEMA = uniform_schema(3)
DOMAINS = {name: [0, 1, 2] for name in SCHEMA.names}


def sub(value, subscriber="s0"):
    tests = {SCHEMA.names[0]: EqualityTest(value)}
    return Subscription(Predicate(SCHEMA, tests), subscriber)


def event(values=(0, 0, 0)):
    return Event.from_tuple(SCHEMA, values)


class TestRegistry:
    def test_names(self):
        assert BACKEND_NAMES == ("interp", "vector")
        assert DEFAULT_BACKEND in BACKEND_NAMES

    def test_validate(self):
        assert validate_backend("vector") == "vector"
        with pytest.raises(SubscriptionError, match="unknown kernel backend"):
            validate_backend("jit")

    def test_singletons(self):
        pytest.importorskip("numpy")
        for name in BACKEND_NAMES:
            backend = create_backend(name)
            assert backend.name == name
            assert create_backend(name) is backend

    def test_vector_without_numpy_fails_closed(self, monkeypatch):
        """No silent slow path: every way of asking for ``vector`` on a
        numpy-free interpreter is a SubscriptionError that names numpy."""
        from repro.matching import backends
        from repro.matching.backends import vector

        monkeypatch.setattr(vector, "_np", None)
        monkeypatch.setattr(backends, "_instances", {})
        for construct in (
            VectorBackend,
            lambda: create_backend("vector"),
            lambda: CompiledEngine(SCHEMA, backend="vector"),
            lambda: create_engine("compiled", SCHEMA, backend="vector"),
            lambda: create_engine("compiled", SCHEMA, backend="vector", aggregate=True),
        ):
            with pytest.raises(SubscriptionError, match="numpy"):
                construct()
        # The default backend never needs it.
        create_engine("compiled", SCHEMA).insert(sub(0))


class TestEngineWiring:
    def test_compiled_backend_name(self):
        assert CompiledEngine(SCHEMA).backend_name == DEFAULT_BACKEND
        pytest.importorskip("numpy")
        engine = CompiledEngine(SCHEMA, backend="vector")
        assert engine.backend_name == "vector"
        # A backend *instance* is accepted as-is.
        instance = VectorBackend()
        assert CompiledEngine(SCHEMA, backend=instance).program.backend is instance

    def test_create_engine_validates_backend(self):
        with pytest.raises(SubscriptionError, match="unknown kernel backend"):
            create_engine("compiled", SCHEMA, backend="jit")

    def test_create_engine_tree_rejects_non_default_backend(self):
        with pytest.raises(SubscriptionError, match="tree"):
            create_engine("tree", SCHEMA, backend="vector")
        # The default backend is the tree engine's own semantics.
        create_engine("tree", SCHEMA, backend=DEFAULT_BACKEND)


class TestGenerationScratch:
    @pytest.fixture(autouse=True)
    def _needs_numpy(self):
        pytest.importorskip("numpy")

    def test_patch_bumps_generation_and_drops_backend_state(self):
        engine = CompiledEngine(SCHEMA, domains=DOMAINS, backend="vector")
        engine.insert(sub(0))
        program = engine.program
        # Two distinct events: single-event batches take the single-match
        # path and never touch the batched kernel's columnar index.
        engine.match_batch([event((0, 0, 0)), event((1, 1, 1))])
        assert program.backend_state  # columnar index built lazily
        generation = program.generation
        engine.insert(sub(1))
        assert program.generation > generation
        assert not program.backend_state

    def test_annotate_bumps_generation(self):
        engine = CompiledEngine(SCHEMA, domains=DOMAINS, backend="vector")
        engine.insert(sub(0))
        program = engine.program
        engine.match_batch([event((0, 0, 0)), event((1, 1, 1))])
        assert program.backend_state
        generation = program.generation
        # Annotation rewrites the leaf mask arrays in place — stale
        # backend scratch must go with it.
        program.annotate(2, lambda subscription: 0)
        assert program.generation > generation
        assert not program.backend_state
