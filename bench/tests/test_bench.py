"""Tests for the benchmark itself: span arithmetic, the workload generators,
probe coverage and BENCHMARK.json consistency.

    python3 -m pytest bench/tests -q
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from agentmesh import contractnet, identity, mailbox, registry, scenario, wire  # noqa: E402


def _span(name, start, end, parent=None):
    span = spans.Span(name, start, parent)
    span.end = end
    return span


def test_self_time_subtracts_covered_child_time():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    b = _span("b", 3.0, 6.0, root)  # overlaps a: the union 1..6 counts once
    leaf = _span("leaf", 2.0, 3.0, a)
    late = _span("late", 9.0, 12.0, root)  # runs past its parent: clipped to 9..10
    totals = spans.self_times([root, a, b, leaf, late])
    assert totals["root"] == 10.0 - 5.0 - 1.0
    assert totals["a"] == 3.0 - 1.0
    assert totals["b"] == 3.0
    assert totals["leaf"] == 1.0
    assert totals["late"] == 3.0


def test_self_time_sums_spans_of_one_name():
    outer = _span("x", 0.0, 4.0)
    inner = _span("x", 1.0, 2.0, outer)
    assert spans.self_times([outer, inner])["x"] == 4.0


def test_recorder_links_a_root_span_on_another_thread_to_the_open_link():
    import threading

    rec = spans.Recorder()
    rpc = rec.begin("services.rpc", link=True)
    seen = []

    def server():
        route = rec.begin("services.route")
        seen.append(route.parent)
        rec.end(route)

    thread = threading.Thread(target=server)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    rec.end(rpc, link=True)
    assert seen == [rpc]
    assert rec.begin("after").parent is None


def test_order_seeds_are_deterministic_and_distinct():
    assert workloads.order_seed(3, 0) == workloads.order_seed(3, 0)
    seeds = {workloads.order_seed(s, i) for s in (1, 2) for i in range(-1, 50)}
    assert len(seeds) == 2 * 51


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    for cls in workloads.WORKLOADS.values():
        workload = cls()
        assert workload.config(11) == workload.config(11), cls.name
        assert workload.config(11) != workload.config(12), cls.name


def test_fleet_shape():
    config = workloads.fleet_config(5)
    assert len(config.couriers) == workloads.FLEET_SIZE
    assert len(config.offline) == workloads.FLEET_SIZE // 4
    assert {c.service_area for c in config.couriers} == {"cambridge"}
    per_courier = {c.name: 0 for c in config.couriers}
    for name, _ in config.reviews:
        per_courier[name] += 1
    assert set(per_courier.values()) <= {0, 1, 2, 3}
    assert config.forged_bids == 0


def _traced_order(name: str):
    """Metrics of one traced order, and whether its output passed the
    workload's after-the-loop checks (for `services`: equals the in-process
    run)."""
    import machine

    workload = workloads.WORKLOADS[name]()
    seed = workloads.order_seed(1, 0)
    workload.setup(seed)
    totals, recorder = spans.LayerTotals(), spans.Recorder()
    reference = machine.Reference(workload.reference_round_trips)
    try:
        with spans.Tracer(recorder):
            orders = run.run_loop(workload, [seed], reference, recorder, totals)
    finally:
        reference.close()
    workload.finish()
    assert orders.failed() == 0, orders.problems
    assert workload.post_check(workload.config(seed), orders.digests[0]) == []
    return totals.metrics(orders.factors, 0.0)


def test_traced_forged_bids_order_reaches_every_binding_site():
    metrics = _traced_order("forged_bids")
    assert metrics["wire.open.calls"] >= workloads.FORGED_BIDS
    assert metrics["identity.verify.calls"] > 0
    assert metrics["contractnet.verify_bid.calls"] >= workloads.FORGED_BIDS
    assert metrics["contractnet.verify_bid.rejects"] == workloads.FORGED_BIDS
    assert metrics["identity.derive.calls"] > 0
    assert metrics["mailbox.deposit.calls"] == 0
    assert metrics["services.rpc.calls"] == 0


def test_traced_services_order_reaches_the_servers():
    metrics = _traced_order("services")
    assert metrics["services.rpc.calls"] > 0
    assert metrics["services.rpc.errors"] == 0
    assert metrics["mailbox.deposit.calls"] >= 1
    assert metrics["mailbox.retrieved"] >= 1
    assert metrics["registry.register.calls"] >= 1


def test_speed_factors_scale_by_the_reference_around_each_order():
    import machine

    reference = machine.Reference(round_trips=2)
    try:
        assert reference.measure_ms() > 0
        slow = reference.nominal_ms
        assert slow == machine.COMPUTE_MS + 2 * machine.ROUND_TRIP_MS
        assert reference.speed_factors([slow, slow, slow / 2]) == pytest.approx([1.0, 4 / 3])
    finally:
        reference.close()


def test_tracer_puts_every_original_back():
    originals = [
        (registry, "verify_digest"), (mailbox, "verify_digest"), (wire, "verify_digest"),
        (contractnet, "verify_digest"), (identity, "verify_digest"),
        (scenario, "select_winner"), (wire, "ModelSchema"),
    ]
    before = [getattr(owner, attr) for owner, attr in originals]
    digest = wire.ModelSchema.__dict__["digest"]
    with spans.Tracer(spans.Recorder()):
        assert registry.verify_digest is not before[0]
        assert scenario.select_winner is not before[5]
    assert [getattr(owner, attr) for owner, attr in originals] == before
    assert wire.ModelSchema.__dict__["digest"] is digest


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
