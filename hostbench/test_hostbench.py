"""Tests of the benchmark itself: oracles, planted faults, tracing wrappers.

Run from the repository root::

    python3 -m pytest hostbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from workloads import workloads  # noqa: E402

from repro.bench.kv_bench import KNEE_EFFICIENCY  # noqa: E402

TINY = workloads("tiny")


def _job(wl, inputs, factory=None):
    return run.run_job(wl, inputs, factory)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_job_passes_its_oracle(name):
    wl = TINY[name]
    inputs = wl.generate(3)
    wl.prepare(inputs)
    job = _job(wl, inputs)
    assert job["ops"] > 0
    assert job["failed"] == 0
    assert job["sim_s"] > 0
    assert 0 < job["setup_s"] < job["wall_s"]


def test_same_seed_same_inputs_other_seed_other_inputs():
    wl = TINY["dht_insert"]
    assert wl.generate(5) == wl.generate(5)
    assert wl.generate(5) != wl.generate(6)


def _payloads(wl, inputs):
    body, ctx = wl.make_body(inputs)
    import repro.upcxx as upcxx

    return list(upcxx.run_spmd(body, wl.ranks, **wl.run_kwargs())), ctx


def test_corrupted_dht_payload_is_caught():
    wl = TINY["dht_insert"]
    inputs = wl.generate(4)
    key, val = inputs[2][0]
    planted = [list(m) for m in inputs]
    planted[2][0] = (key, val[:-1] + bytes([val[-1] ^ 0xFF]))
    payloads, ctx = _payloads(wl, planted)
    assert wl.check(inputs, payloads, ctx) == 1


def test_dropped_kv_write_is_caught():
    wl = TINY["kv_mixed"]
    traffic = wl.generate(4)
    payloads, ctx = _payloads(wl, traffic)
    assert wl.check(traffic, payloads, ctx) == 0
    for rank, (_rec, items) in enumerate(payloads):
        if items:
            items.pop(next(iter(items)))
            break
    assert wl.check(traffic, payloads, ctx) >= 1


def test_wrong_count_and_stale_read_are_caught():
    wl = TINY["agg_count"]
    inputs = wl.generate(4)
    payloads, ctx = _payloads(wl, inputs)
    assert wl.check(inputs, payloads, ctx) == 0
    _rec, _got, items = next(p for p in payloads if p[2])
    key = next(iter(items))
    items[key] += 1
    assert wl.check(inputs, payloads, ctx) >= 1
    items[key] -= 1
    _rec, got, _items = next(p for p in payloads if p[1][-1])
    k, v = got[-1][0]
    got[-1][0] = (k, v - 1)  # a read that missed an increment
    assert wl.check(inputs, payloads, ctx) == 1


def test_offered_rate_past_the_knee_is_caught():
    wl = workloads("tiny")["kv_mixed"]
    wl.rate *= 16
    traffic = wl.generate(1)
    payloads, ctx = _payloads(wl, traffic)
    assert wl.utilization(payloads) < KNEE_EFFICIENCY
    assert wl.check(traffic, payloads, ctx) >= wl.ops(traffic)


@pytest.mark.xfail(strict=True, reason="known program defect: replicas of a key written "
                   "concurrently by two front ends keep different values after the drain")
def test_kv_replicas_agree_after_concurrent_writes():
    wl = workloads()["kv_mixed"]
    traffic = wl.generate(4)  # two front ends write one key close together
    payloads, ctx = _payloads(wl, traffic)
    assert wl.check(traffic, payloads, ctx) == 0


def test_wrong_extend_add_entry_is_caught():
    wl = TINY["eadd_rpc"]
    plan = wl.generate(4)
    wl.prepare(plan)
    payloads, collect = _payloads(wl, plan)
    assert wl.check(plan, payloads, collect) == 0
    pid = plan.parents[-1]
    rank = plan.teams[pid][0]
    blk = next(iter(collect[rank][pid].blocks.values()))
    blk.flat[0] += 1.0
    assert wl.check(plan, payloads, collect) >= 1


def test_sharded_divergence_from_reference_is_caught():
    wl = TINY["dht_sharded"]
    inputs = wl.generate(4)
    wl.prepare(inputs)
    payloads = [(p[0] * 2, p[1]) for p in wl.reference]
    assert wl.check(inputs, payloads, None) == wl.ops(inputs)


def _bindings():
    """Every attribute an installation may patch, by identity."""
    out = {}
    for row in layers.ENTRY_POINTS:
        owner, attr, value = layers._resolve(row[2])
        out[(id(owner), attr)] = value
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.startswith("repro"):
            for name, value in vars(mod).items():
                if callable(value):
                    out[(id(mod), name)] = value
    for target in (layers._WORKER_ENTRY, layers._WORKER_STATS):
        owner, attr, value = layers._resolve(target)
        out[(id(owner), attr)] = value
    return out


def test_install_then_remove_restores_every_entry_point():
    before = _bindings()
    inst = layers.Installation(layers.Tracer())
    try:
        patched = _bindings()
        changed = [k for k in before if patched[k] is not before[k]]
        assert len(changed) >= len(layers.ENTRY_POINTS) + 2
    finally:
        inst.remove()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_renamed_entry_point_fails_loudly(monkeypatch):
    before = _bindings()
    bogus = layers.ENTRY_POINTS + (
        ("apps", "gone", "repro.apps.dht.rma_lz:DhtRmaLz.insert_renamed", None, layers.WORK),
    )
    monkeypatch.setattr(layers, "ENTRY_POINTS", bogus)
    with pytest.raises(LookupError, match="insert_renamed"):
        layers.Installation(layers.Tracer())
    monkeypatch.undo()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_job_counts_layers_and_excludes_park():
    wl = TINY["dht_insert"]
    inputs = wl.generate(1)
    tracer = layers.Tracer()
    job = _job(wl, inputs, lambda: layers.Installation(tracer))
    assert job["failed"] == 0
    totals = tracer.totals()
    assert totals[("apps", "dht.insert")]["calls"] == wl.ops(inputs)
    assert totals[("upcxx.rma", "rput")]["calls"] == wl.ops(inputs)
    assert totals[("gasnet.segment", "init")]["bytes"] == wl.ranks * wl.segment_size
    work = sum(r["self_s"] for r in totals.values() if r["kind"] == layers.WORK)
    # work self time tiles the job's wall time: parked fibers are waits
    assert 0 < work <= job["wall_s"]
    assert totals[("sim.coop", "park")]["self_s"] > 0


def test_traced_extend_add_records_the_app_entry():
    wl = TINY["eadd_rpc"]
    plan = wl.generate(1)
    wl.prepare(plan)
    tracer = layers.Tracer()
    job = _job(wl, plan, lambda: layers.Installation(tracer))
    assert job["failed"] == 0
    assert tracer.totals()[("apps", "eadd.run")]["calls"] == wl.ranks


def test_coverage_check_flags_both_directions():
    metrics = {f"{layer}.calls": {"value": 1} for layer in layers.LAYERS}
    metrics["gasnet.conduit.amo.calls"] = {"value": 0}
    errs = run.coverage_errors("dht_insert", metrics)
    assert any(e.startswith("sim.shard:") for e in errs)
    metrics["sim.shard.calls"]["value"] = 0
    metrics["upcxx.aggregator.calls"]["value"] = 0
    metrics["upcxx.replication.calls"]["value"] = 0
    assert run.coverage_errors("dht_insert", metrics) == []
    metrics["upcxx.rma.calls"]["value"] = 0
    assert run.coverage_errors("dht_insert", metrics) == [
        "upcxx.rma: predicted to run on dht_insert, recorded no calls"]
    metrics["upcxx.rma.calls"]["value"] = 1
    metrics["gasnet.conduit.amo.calls"]["value"] = 2
    assert run.coverage_errors("dht_insert", metrics) == [
        "gasnet.conduit.amo: predicted idle on every workload, recorded 2 calls"]


def test_chrome_trace_is_valid_json(tmp_path):
    wl = TINY["dht_sharded"]
    inputs = wl.generate(1)
    wl.prepare(inputs)
    tracer = layers.Tracer()
    job = _job(wl, inputs, lambda: layers.Installation(tracer))
    assert job["failed"] == 0
    tracer.absorb(job["stats"])
    assert len(tracer.remote) == wl.shards
    path = tmp_path / "trace.json"
    layers.write_chrome_trace(tracer.chrome_trace(), str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert len({e["pid"] for e in events}) == 1 + wl.shards
    assert any(e["name"] == "sim.shard.dispatch" for e in events)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    # by hand only: dht_sharded's spread exceeds the bounds (README, "Noise"),
    # kv_mixed fails its oracle on some seeds (README, "Oracles")
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in workloads() if name not in ("dht_sharded", "kv_mixed")]
    assert list(workloads()) == list(run.PREDICTED_IDLE)
