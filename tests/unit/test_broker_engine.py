"""Unit tests for the prototype broker's matching engine."""

from __future__ import annotations

import pytest

from repro.broker import MatchingEngine
from repro.errors import ParseError, SubscriptionError
from repro.matching import CompiledEngine, Event, FactoredEngine, FactoredMatcher


class TestSubscriptionManager:
    def test_add_from_expression(self, stock_schema):
        engine = MatchingEngine(stock_schema)
        subscription = engine.add_subscription("alice", "issue='IBM'")
        assert subscription.subscriber == "alice"
        assert engine.subscription_count == 1

    def test_add_from_predicate(self, stock_schema):
        from repro.matching import Predicate

        engine = MatchingEngine(stock_schema)
        engine.add_subscription("alice", Predicate.from_values(stock_schema, issue="IBM"))
        assert engine.subscription_count == 1

    def test_bad_expression_raises(self, stock_schema):
        engine = MatchingEngine(stock_schema)
        with pytest.raises(ParseError):
            engine.add_subscription("alice", "nonsense ===")

    def test_explicit_subscription_id(self, stock_schema):
        engine = MatchingEngine(stock_schema)
        subscription = engine.add_subscription("alice", "*", subscription_id=42)
        assert subscription.subscription_id == 42

    def test_remove(self, stock_schema):
        engine = MatchingEngine(stock_schema)
        subscription = engine.add_subscription("alice", "issue='IBM'")
        engine.remove_subscription(subscription.subscription_id)
        assert engine.subscription_count == 0
        with pytest.raises(SubscriptionError):
            engine.remove_subscription(subscription.subscription_id)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"factoring_attributes": ["a1"], "domains": {"a1": [0, 1, 2]}},
        ],
        ids=["compiled", "factored"],
    )
    def test_count_does_not_list_the_subscriptions(self, schema5, monkeypatch, kwargs):
        """``subscription_count`` (and ``repr``) must come from the
        matcher's own tally, not ``len(subscriptions)``."""
        engine = MatchingEngine(schema5, **kwargs)
        added = [engine.add_subscription("alice", f"a1={v}") for v in (0, 1, 1)]

        def listing_forbidden(self):
            raise AssertionError("subscription_count listed the subscriptions")

        monkeypatch.setattr(
            type(engine.matcher), "subscriptions", property(listing_forbidden)
        )
        assert engine.subscription_count == 3
        engine.remove_subscription(added[1].subscription_id)
        assert engine.subscription_count == 2
        assert repr(engine) == "MatchingEngine(2 subscriptions)"


class TestEventParser:
    def test_match_data_pipeline(self, stock_schema, ibm_event):
        engine = MatchingEngine(stock_schema)
        engine.add_subscription("alice", "issue='IBM' & price<120")
        engine.add_subscription("bob", "volume>5000")
        data = engine.encode_event(ibm_event)
        result = engine.match_data(data, publisher="P1")
        assert {s.subscriber for s in result.subscriptions} == {"alice"}

    def test_parse_event_applies_publisher(self, stock_schema, ibm_event):
        engine = MatchingEngine(stock_schema)
        parsed = engine.parse_event(engine.encode_event(ibm_event), publisher="P9")
        assert parsed.publisher == "P9"
        assert parsed == ibm_event


class TestMatcherSelection:
    def test_default_is_compiled_engine(self, stock_schema):
        assert isinstance(MatchingEngine(stock_schema).matcher, CompiledEngine)

    def test_unknown_engine_rejected(self, stock_schema):
        """There is one matcher: the engine knob is gone, not ignored."""
        for name in ("tree", "compiled"):
            with pytest.raises(TypeError):
                MatchingEngine(stock_schema, engine=name)

    def test_factoring_selects_factored_matcher(self, schema5):
        engine = MatchingEngine(
            schema5,
            domains={f"a{i}": [0, 1, 2] for i in range(1, 6)},
            factoring_attributes=["a1"],
        )
        assert isinstance(engine.matcher, FactoredEngine)
        assert isinstance(engine.matcher.matcher, FactoredMatcher)

    def test_factoring_without_domains_rejected(self, schema5):
        with pytest.raises(SubscriptionError):
            MatchingEngine(schema5, factoring_attributes=["a1"])

    def test_attribute_order_respected(self, schema5):
        engine = MatchingEngine(
            schema5, attribute_order=["a5", "a4", "a3", "a2", "a1"]
        )
        engine.add_subscription("alice", "a5=1")
        assert engine.match(Event.from_tuple(schema5, (0, 0, 0, 0, 1))).subscribers == {
            "alice"
        }
