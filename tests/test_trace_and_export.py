"""Tests for the tracing subsystem and result export."""

import csv
import io
import json

import pytest

from repro.analysis import rows_from, to_csv, to_json
from repro.experiments import SeriesPoint
from repro.sim import Environment, Tracer, ms


# -- Tracer -------------------------------------------------------------------

def test_tracer_points_and_spans():
    env = Environment()
    tracer = Tracer(env)

    def proc(env):
        tracer.point("req1", "submitted", size=4096)
        span = tracer.begin("req1", "service")
        yield env.timeout(500)
        tracer.end(span, outcome="ok")
        tracer.point("req1", "completed")

    env.process(proc(env))
    env.run()
    items = tracer.trace("req1")
    assert [getattr(i, "name") for i in items] == [
        "submitted", "service", "completed"]
    assert tracer.span_durations("service") == [500]
    assert items[1].attrs["outcome"] == "ok"


def test_tracer_isolates_traces():
    env = Environment()
    tracer = Tracer(env)
    tracer.point("a", "x")
    tracer.point("b", "y")
    assert len(tracer.trace("a")) == 1
    assert len(tracer.trace("b")) == 1


def test_tracer_end_unknown_span_is_noop():
    env = Environment()
    tracer = Tracer(env)
    tracer.end(424242)  # must not raise


def test_tracer_capacity_drops_counted():
    env = Environment()
    tracer = Tracer(env, capacity=2)
    for i in range(5):
        tracer.point("t", f"e{i}")
    assert len(tracer.events) == 2
    assert tracer.dropped == 3


def test_tracer_capacity_keeps_most_recent():
    """Eviction is oldest-first: the newest history always survives."""
    env = Environment()
    tracer = Tracer(env, capacity=3)
    for i in range(7):
        tracer.point("t", f"e{i}")
    assert [e.name for e in tracer.events] == ["e4", "e5", "e6"]
    assert tracer.dropped == 4


def test_tracer_span_eviction_forgets_open_handle():
    env = Environment()
    tracer = Tracer(env, capacity=1)
    first = tracer.begin("a", "one")
    tracer.begin("b", "two")  # evicts "one"
    assert tracer.dropped == 1
    tracer.end(first)  # stale handle: must be a no-op, not a resurrection
    assert len(tracer.spans) == 1
    assert tracer.spans[0].name == "two"


def test_tracer_rejects_non_positive_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Tracer(env, capacity=0)


def test_chrome_trace_round_trips_through_json():
    env = Environment()
    tracer = Tracer(env)

    def proc(env):
        tracer.point("req", "submitted", size=4096)
        span = tracer.begin("req", "service", worker="w0")
        yield env.timeout(1500)
        tracer.end(span)
        tracer.begin("req", "dangling")  # stays open

    env.process(proc(env))
    env.run()
    doc = json.loads(json.dumps(tracer.to_chrome_trace()))
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert len(events) == 3
    by_name = {e["name"]: e for e in events}
    complete = by_name["service"]
    assert complete["ph"] == "X"
    assert complete["dur"] == pytest.approx(1.5)  # 1500 ns in us
    assert complete["args"]["trace_id"] == "req"
    assert by_name["dangling"]["ph"] == "B"
    instant = by_name["submitted"]
    assert instant["ph"] == "i" and instant["s"] == "t"
    assert instant["args"]["size"] == 4096
    for record in events:
        for key in ("name", "ph", "ts", "pid", "tid"):
            assert key in record
    # One trace id -> one tid row.
    assert len({e["tid"] for e in events}) == 1


def test_tracer_format_trace():
    env = Environment()
    tracer = Tracer(env)
    tracer.point("req", "go")
    text = tracer.format_trace("req")
    assert "trace req:" in text
    assert "go" in text


def test_vrio_datapath_traces_request_lifecycle():
    """A traced vRIO setup records the hop-by-hop journey of one message."""
    from repro.cluster import TestbedSpec, build_testbed
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    tracer = Tracer(tb.env)
    tb.model.tracer = tracer
    port, client = tb.ports[0], tb.clients[0]
    port.receive_handler = lambda m: port.send(m.src, 64)
    client.receive_handler = lambda m: None
    message = client.send(port.mac, 64)
    tb.env.run(until=ms(5))
    names = [getattr(i, "name") for i in tracer.trace(message.message_id)]
    assert "iohost_service" in names
    assert "guest_deliver" in names
    # The IOhost service spans completed with durations.
    assert all(d is not None and d >= 0
               for d in tracer.span_durations("iohost_service"))


# -- export --------------------------------------------------------------------

def test_rows_from_series_points():
    points = [SeriesPoint("vrio", 1, 41.2), SeriesPoint("elvis", 1, 33.8)]
    rows = rows_from(points)
    assert rows[0] == {"model": "vrio", "n_vms": 1, "value": 41.2}


def test_rows_from_dict_of_dicts():
    result = {"optimum": {99.9: 33.0}, "vrio": {99.9: 46.0}}
    rows = rows_from(result)
    assert {"group": "optimum", "99.9": 33.0} in rows


def test_rows_from_grouped_lists():
    result = {"memcached": [{"model": "vrio", "tps": 1.0}]}
    rows = rows_from(result)
    assert rows == [{"group": "memcached", "model": "vrio", "tps": 1.0}]


def test_rows_from_pairs():
    assert rows_from([(1, 2.0)]) == [{"x": 1, "y": 2.0}]


def test_rows_from_rejects_garbage():
    with pytest.raises(TypeError):
        rows_from(42)
    with pytest.raises(TypeError):
        rows_from([42])


def test_to_json_round_trips():
    points = [SeriesPoint("vrio", 7, 42.1)]
    data = json.loads(to_json(points))
    assert data == [{"model": "vrio", "n_vms": 7, "value": 42.1}]


def test_to_csv_union_of_columns():
    rows = [{"a": 1}, {"a": 2, "b": 3}]
    parsed = list(csv.DictReader(io.StringIO(to_csv(rows))))
    assert parsed[0]["a"] == "1"
    assert parsed[1]["b"] == "3"


def test_to_csv_empty():
    assert to_csv([]) == ""


def test_export_real_experiment():
    from repro.experiments import run_tab02
    rows = rows_from(run_tab02())
    assert len(rows) == 2
    assert "elvis_price_usd" in rows[0]
    assert to_csv(run_tab02()).count("\n") >= 3
