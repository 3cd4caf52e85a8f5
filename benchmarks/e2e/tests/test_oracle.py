"""The oracle can say "wrong": drop, duplicate or reorder one delivery and
``failed_ratio`` leaves zero; and its bit sets agree with brute force."""

import random

import pytest

from repro.workload.generators import EventGenerator, SubscriptionGenerator
from repro.workload.spec import WorkloadSpec

from benchmarks.e2e.oracle import OracleError, SubscriptionTable, check_sequences

EXPECTED = {"alice": [(1, 1), (2, 2), (3, 3), (1, 1)], "bob": [(5, 5)]}


def received():
    return {client: list(events) for client, events in EXPECTED.items()}


def test_equal_sequences_have_no_failures():
    failures = check_sequences(EXPECTED, received())
    assert failures.failed == 0 and failures.failed_ratio == 0.0
    assert failures.expected == 5


def test_a_dropped_delivery_is_missing():
    got = received()
    del got["alice"][1]
    failures = check_sequences(EXPECTED, got)
    assert (failures.missing, failures.spurious, failures.duplicate) == (1, 0, 0)
    assert failures.failed_ratio > 0
    assert failures.examples[0][:2] == ("missing", "alice")


def test_a_repeated_delivery_is_a_duplicate():
    got = received()
    got["bob"].append((5, 5))
    failures = check_sequences(EXPECTED, got)
    assert (failures.missing, failures.spurious, failures.duplicate) == (0, 0, 1)
    assert failures.failed_ratio > 0


def test_swapped_deliveries_are_out_of_order():
    got = received()
    got["alice"][1], got["alice"][2] = got["alice"][2], got["alice"][1]
    failures = check_sequences(EXPECTED, got)
    assert (failures.missing, failures.spurious, failures.duplicate) == (0, 0, 0)
    assert failures.out_of_order == 2 and failures.failed_ratio > 0


def test_an_event_never_due_is_spurious_even_for_an_unknown_client():
    got = received()
    got["mallory"] = [(9, 9)]
    failures = check_sequences(EXPECTED, got)
    assert failures.spurious == 1 and failures.failed_ratio > 0


def _events(spec, count, seed):
    generator = EventGenerator(spec, seed=seed)
    return [generator.event_for("p") for _ in range(count)]


def _table(spec, clients, count, seed=3):
    table = SubscriptionTable(spec.schema(), spec.domains(), clients)
    generator = SubscriptionGenerator(spec, seed=seed)
    predicates = {}
    for key in range(count):
        client = clients[key % len(clients)]
        predicates[key] = (client, generator.predicate_for(client))
        table.add(key, *predicates[key])
    return table, predicates


def test_bit_sets_agree_with_predicate_matches_through_churn():
    spec = WorkloadSpec(values_per_attribute=4, factoring_levels=0, locality_regions=1,
                        range_probability=0.3)
    clients = ["a", "b", "c"]
    table, predicates = _table(spec, clients, 120)
    events = _events(spec, 200, seed=4)
    rng = random.Random(5)
    for key in rng.sample(sorted(predicates), 60):
        table.remove(key)
    for key in range(200, 230):  # reuses freed slots
        table.add(key, "b", predicates[key - 200][1])
    assert len(table) == 90
    assert table.cross_check(events, budget=10**9) == len(events)
    assert any(table.matching_clients(event) for event in events)


def test_cross_check_reports_a_corrupted_table():
    spec = WorkloadSpec(values_per_attribute=3, factoring_levels=0, locality_regions=1)
    table, _predicates = _table(spec, ["a"], 40)
    events = _events(spec, 100, seed=6)
    table._dont_care[0] = 0  # forget which subscriptions ignore attribute 1
    table._accepts[0] = {value: 0 for value in table._accepts[0]}
    with pytest.raises(OracleError):
        table.cross_check(events, budget=10**9)
