"""Span arithmetic, and the call-count assertion that catches a wrapper
which silently failed to bind."""

import threading
import time

import pytest

from benchmarks.e2e.trace import Span, Tracer, budget, check_call_counts, first_route_after_churn


def span(id, name, start, end, parent=0, thread=1, cause=0, obj=0):
    return Span(id, name, start, end, parent, thread, cause, obj)


def test_nested_spans_subtract_from_their_parent_only():
    rows = budget(
        [
            span(1, "outer", 0.0, 10.0),
            span(2, "middle", 1.0, 7.0, parent=1),
            span(3, "inner", 2.0, 4.0, parent=2),
        ]
    )
    assert rows["outer"].self_s == pytest.approx(4.0)  # 10 - middle's 6, not inner's 2 again
    assert rows["middle"].self_s == pytest.approx(4.0)
    assert rows["inner"].self_s == pytest.approx(2.0)
    assert sum(row.self_s for row in rows.values()) == pytest.approx(10.0)  # sums to wall


def test_siblings_add_up_and_share_a_row_by_name():
    rows = budget(
        [
            span(1, "handler", 0.0, 10.0),
            span(2, "decode", 1.0, 2.0, parent=1),
            span(3, "decode", 3.0, 5.5, parent=1),
            span(4, "route", 6.0, 9.0, parent=1),
        ]
    )
    assert rows["decode"].calls == 2 and rows["decode"].total_s == pytest.approx(3.5)
    assert rows["handler"].self_s == pytest.approx(10.0 - 3.5 - 3.0)


def test_a_handler_on_another_thread_takes_nothing_from_the_send_that_caused_it():
    rows = budget(
        [
            span(1, "send", 0.0, 1.0, thread=1),
            # Runs on thread 2 while thread 1 is still inside "send".
            span(2, "on_message", 0.5, 4.0, thread=2, cause=1),
            span(3, "decode", 1.0, 2.0, parent=2, thread=2),
        ]
    )
    assert rows["send"].self_s == pytest.approx(1.0)
    assert rows["on_message"].self_s == pytest.approx(2.5)


def test_a_child_is_clipped_to_its_parent_interval():
    rows = budget([span(1, "parent", 0.0, 2.0), span(2, "child", 1.5, 3.0, parent=1)])
    assert rows["parent"].self_s == pytest.approx(1.5)


def test_wrappers_record_nesting_threads_and_nothing_while_inactive():
    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.01), "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    outer()  # inactive: a plain call
    assert tracer.drain() == []
    tracer.active = True
    outer()
    worker = threading.Thread(target=inner)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    spans = tracer.drain()
    by_name = {name: [s for s in spans if s.name == name] for name in ("inner", "outer")}
    (parent,) = by_name["outer"]
    nested = [s for s in by_name["inner"] if s.parent == parent.id]
    alone = [s for s in by_name["inner"] if s.parent == 0]
    assert len(nested) == 2 and len(alone) == 1
    assert alone[0].thread != parent.thread
    rows = budget(spans)
    assert rows["outer"].self_s < 0.005 < rows["inner"].self_s


def test_first_route_after_churn_is_per_router():
    spans = [
        span(1, "router.add_subscription", 0, 1, obj=7),
        span(2, "router.route", 2, 5, obj=8),  # another router: not dirty
        span(3, "router.route", 6, 10, obj=7),  # first on router 7 since the add
        span(4, "router.route", 11, 12, obj=7),
    ]
    assert first_route_after_churn(spans) == [4]


def test_call_count_mismatches_are_named():
    rows = budget([span(1, "codec.decode_event", 0, 1), span(2, "codec.decode_event", 1, 2)])
    assert check_call_counts(rows, {"codec.decode_event": 2}) == []
    (problem,) = check_call_counts(rows, {"codec.decode_event": 3})
    assert "codec.decode_event" in problem and "3 predicted" in problem
    assert check_call_counts(rows, {"event_log.append": 1}) != []


@pytest.fixture
def installed_tracer():
    from repro import obs

    previous = obs.get_registry().enabled
    obs.configure(enabled=True)
    tracer = Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()
    obs.configure(enabled=previous)


def _traced_fanout(tracer):
    from benchmarks.e2e.workloads import FanoutMem

    workload = FanoutMem(seed=1, quick=True, tracer=tracer)
    workload.setup()
    try:
        workload.prepare()
        workload.closed_loop_repetition(True, True)
    finally:
        workload.teardown()
    return workload.result


def test_every_predicted_wrapper_binds(installed_tracer):
    result = _traced_fanout(installed_tracer)
    assert result.problems == [] and result.failures.failed == 0


def test_a_misbound_wrapper_trips_the_call_count_assertion(installed_tracer):
    import repro.broker.client as client_module

    # What a forgotten ``from codec import decode_event`` binding looks like:
    # the client keeps calling the unwrapped function.
    client_module.decode_event = client_module.decode_event.__wrapped__
    result = _traced_fanout(installed_tracer)
    assert any("codec.decode_event" in problem for problem in result.problems)


def test_uninstall_restores_every_binding():
    import repro.broker.client as client_module
    from repro.broker.transport import Connection, InMemoryConnection

    before = (client_module.decode_event, InMemoryConnection.send)
    tracer = Tracer()
    tracer.install()
    assert client_module.decode_event is not before[0]
    assert isinstance(vars(Connection)["on_message"], property)
    tracer.uninstall()
    assert (client_module.decode_event, InMemoryConnection.send) == before
    assert "on_message" not in vars(Connection)
