#!/usr/bin/env python3
"""Host-time benchmark of the UPC++ simulator, end to end and per layer.

Drives whole ``repro.upcxx.run_spmd`` jobs from this one process, one at a
time (a closed loop of jobs), checks every job's outputs with the oracles
in ``workloads.py``, and prints one JSON result as its last line::

    python3 hostbench/run.py --workload dht_insert --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced jobs.
``--trace 1`` alternates untraced and traced jobs, reports per-layer self
time and counts (see ``layers.py``), the tracing overhead, and writes a
Perfetto-loadable trace to ``.hostbench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".hostbench_out"

#: (name, unit) of every end-to-end metric, in output order
END_TO_END = (
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("ops_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_s", "s"),
)


def _layer_metrics() -> tuple:
    out = [
        ("bench.setup_s", "s", "lower"),
        ("bench.simulate_s", "s", "lower"),
        ("bench.teardown_s", "s", "lower"),
        ("bench.jobs", "count", "higher"),
        ("bench.traced_jobs", "count", "higher"),
        ("bench.wall_s_untraced", "s", "lower"),
        ("bench.wall_s_traced", "s", "lower"),
        ("bench.trace_overhead_s", "s", "lower"),
        ("sim.engine.events", "count", "lower"),
        ("sim.engine.events_per_op", "count", "lower"),
        ("sim.coop.switches", "count", "lower"),
        ("sim.coop.park_s", "s", "lower"),
        ("sim.shard.windows", "count", "lower"),
        ("sim.shard.window_stall_s", "s", "lower"),
        ("sim.shard.envelopes", "count", "lower"),
        ("upcxx.aggregator.updates_per_batch", "count", "higher"),
        ("upcxx.aggregator.cache_hit_ratio", "ratio", "higher"),
        ("upcxx.aggregator.credit_stall_s", "s", "lower"),
        ("upcxx.replication.failover_reads", "count", "lower"),
    ]
    for layer in (
        "sim.engine", "sim.coop", "sim.shard", "gasnet.segment", "gasnet.conduit",
        "upcxx.serialization", "upcxx.rpc", "upcxx.rma", "upcxx.future",
        "upcxx.runtime", "upcxx.collectives", "upcxx.aggregator",
        "upcxx.replication", "apps",
    ):
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    for op in ("charge", "block", "wake", "checkpoint", "dispatch"):
        out += [(f"sim.coop.{op}.calls", "count", "lower"),
                (f"sim.coop.{op}.self_s", "s", "lower")]
    out.append(("gasnet.segment.bytes", "B", "lower"))
    for op in ("put_nb", "get_nb", "am_send", "amo"):
        out += [(f"gasnet.conduit.{op}.calls", "count", "lower"),
                (f"gasnet.conduit.{op}.self_s", "s", "lower"),
                (f"gasnet.conduit.{op}.bytes", "B", "lower")]
    for op in ("pack", "unpack"):
        out += [(f"upcxx.serialization.{op}.calls", "count", "lower"),
                (f"upcxx.serialization.{op}.self_s", "s", "lower"),
                (f"upcxx.serialization.{op}.bytes", "B", "lower")]
    out += [("upcxx.future.wait.calls", "count", "lower"),
            ("upcxx.future.wait.self_s", "s", "lower"),
            ("upcxx.runtime.progress.calls", "count", "lower"),
            ("upcxx.runtime.progress.self_s", "s", "lower")]
    return tuple(out)


#: (name, unit, better) of every per-layer metric, in output order
PER_LAYER = _layer_metrics()

#: layers each workload is predicted NOT to run; every other layer must
#: record calls in the traced pass (README, "How the metrics interact")
PREDICTED_IDLE = {
    "dht_insert": {"sim.shard", "upcxx.aggregator", "upcxx.replication"},
    "eadd_rpc": {"sim.shard", "upcxx.rma", "upcxx.aggregator", "upcxx.replication"},
    "agg_count": {"sim.shard", "upcxx.rma", "apps"},
    "kv_mixed": {"sim.shard", "upcxx.rma"},
    "dht_sharded": {"upcxx.aggregator", "upcxx.replication"},
}

#: entry points predicted idle on every workload although their layer
#: runs: no workload issues remote atomics
PREDICTED_IDLE_OPS = ("gasnet.conduit.amo",)


# ------------------------------------------------------------- host facts
def calibrate_ns(reps: int = 5, n: int = 200_000) -> float:
    """ns per iteration of a fixed pure-Python loop (median of ``reps``)."""
    samples = []
    for _ in range(reps):
        x = 1
        t0 = time.perf_counter()
        for _i in range(n):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        samples.append((time.perf_counter() - t0) / n * 1e9)
    return statistics.median(samples)


def steal_s() -> float:
    """Host-wide CPU steal time so far (seconds), or -1 when unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return -1.0


# -------------------------------------------------------------- peak RSS
def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark so it covers one job only (where
    the kernel refuses, the mark keeps the process-lifetime peak)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _peak_rss_mb(n_workers: int) -> float:
    """This process's peak RSS since the last reset, plus ``n_workers``
    times the largest reaped worker's peak (copy-on-write pages shared
    with the parent count once per process)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    kb = int(line.split()[1])
                    break
    except OSError:
        pass
    if n_workers:
        kb += n_workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _children_cpu_s() -> float:
    """User + system CPU seconds of every reaped child process so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# ------------------------------------------------------------------ jobs
def run_job(wl, inputs, installation_factory=None) -> dict:
    """One whole ``run_spmd`` job with its phase split and oracle verdict."""
    import repro.upcxx as upcxx

    body, ctx = wl.make_body(inputs)

    def rank_main():
        t_in, c_in = time.perf_counter(), time.process_time()
        out = body()
        return t_in, time.perf_counter(), out, os.getpid(), c_in

    stats: dict = {}
    gc.collect()  # no job pays for another's garbage
    _reset_peak_rss()
    env = wl.job_env()
    old_env = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    inst = installation_factory() if installation_factory else None
    try:
        kids0 = _children_cpu_s()
        c_call, t_call = time.process_time(), time.perf_counter()
        res = upcxx.run_spmd(rank_main, wl.ranks, sched_stats=stats, **wl.run_kwargs())
        t_ret, c_ret = time.perf_counter(), time.process_time()
        kids = _children_cpu_s() - kids0
    finally:
        if inst is not None:
            inst.remove()
        for k, v in old_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    rss = _peak_rss_mb(getattr(wl, "shards", 0))
    t_enter = max(r[0] for r in res)
    t_exit = max(r[1] for r in res)
    payloads = [r[2] for r in res]
    cpu = c_ret - c_call + kids
    if all(r[3] == os.getpid() for r in res):
        # ranks run one at a time, so the last one in saw the whole setup
        setup = max(r[4] for r in res) - c_call
    else:
        # ranks in forked workers: their CPU clocks are not ours
        setup = t_enter - t_call
    return {
        "t_call": t_call,
        "wall_s": t_ret - t_call,
        "cpu_s": cpu,
        "setup_s": setup,
        "setup_wall_s": t_enter - t_call,
        "simulate_s": t_exit - t_enter,
        "teardown_s": t_ret - t_exit,
        "ops": wl.ops(inputs),
        "ops_per_cpu_s": wl.served(inputs, payloads) / (cpu - setup),
        "peak_rss_mb": rss,
        "sim_s": wl.sim_s(payloads),
        "failed": min(wl.ops(inputs), wl.check(inputs, payloads, ctx)),
        "stats": stats,
        "counters": wl.layer_counters(payloads),
    }


def _median(jobs, key) -> float:
    return statistics.median(j[key] for j in jobs)


def _measure(wl, inputs, seconds: float, traced: bool):
    """Closed loop of jobs for ``seconds``; in traced mode every untraced
    job is followed by a traced one.  Returns the untraced jobs and
    (tracer, job) pairs for the traced ones."""
    from layers import MAX_TRACE_EVENTS, Installation, Tracer

    untraced, tracers = [], []
    t0 = time.perf_counter()
    while True:
        untraced.append(run_job(wl, inputs))
        if traced:
            # spans for the Perfetto trace come from the first traced job
            tracer = Tracer(max_events=0 if tracers else MAX_TRACE_EVENTS)
            job = run_job(wl, inputs, lambda: Installation(tracer))
            tracer.absorb(job["stats"])
            tracers.append((tracer, job))
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(untraced) >= seconds:
            return untraced, tracers


# --------------------------------------------------------------- metrics
def end_to_end_metrics(jobs) -> dict:
    return {name: {"value": _median(jobs, name), "unit": unit} for name, unit in END_TO_END}


def layer_metrics(untraced, tracers) -> dict:
    """Per-layer metrics: medians over traced jobs for self time, counts
    from the program's own counters, phases from the untraced jobs."""
    per_job = []
    for tracer, job in tracers:
        totals = tracer.totals()
        m: dict = defaultdict(int)
        for (layer, op), rec in totals.items():
            if rec["kind"] == "wait":
                continue
            for prefix in (layer, f"{layer}.{op}"):
                m[f"{prefix}.calls"] += rec["calls"]
                m[f"{prefix}.self_s"] += rec["self_s"]
            m[f"{layer}.{op}.bytes"] += rec["bytes"]
        m["gasnet.segment.bytes"] = totals[("gasnet.segment", "init")]["bytes"]
        m["sim.coop.park_s"] = totals[("sim.coop", "park")]["self_s"]
        st = job["stats"]
        m["sim.engine.events"] = st.get("events_fired", 0)
        m["sim.engine.events_per_op"] = st.get("events_fired", 0) / job["ops"]
        m["sim.coop.switches"] = st.get("switches", 0)
        m["sim.shard.windows"] = st.get("windows", 0)
        m["sim.shard.window_stall_s"] = st.get("window_stall_s", 0.0)
        m["sim.shard.envelopes"] = st.get("envelopes_exchanged", 0)
        m.update(job["counters"])
        m["bench.wall_s_traced"] = job["wall_s"]
        per_job.append(m)
    out = {}
    for name, unit, _better in PER_LAYER:
        vals = [m.get(name, 0) for m in per_job]
        out[name] = {"value": statistics.median(vals) if vals else 0, "unit": unit}
    wall_u = _median(untraced, "wall_s")
    for name, key in (("bench.setup_s", "setup_wall_s"), ("bench.simulate_s", "simulate_s"),
                      ("bench.teardown_s", "teardown_s")):
        out[name]["value"] = _median(untraced, key)
    out["bench.jobs"]["value"] = len(untraced)
    out["bench.traced_jobs"]["value"] = len(tracers)
    out["bench.wall_s_untraced"]["value"] = wall_u
    out["bench.trace_overhead_s"]["value"] = out["bench.wall_s_traced"]["value"] - wall_u
    return out


def coverage_errors(workload: str, metrics: dict) -> list:
    """Layers and entry points whose traced call count contradicts the
    prediction table."""
    from layers import LAYERS

    idle = PREDICTED_IDLE[workload]
    errs = []
    for layer in LAYERS:
        calls = metrics[f"{layer}.calls"]["value"]
        if layer in idle and calls:
            errs.append(f"{layer}: predicted idle on {workload}, recorded {calls} calls")
        if layer not in idle and not calls:
            errs.append(f"{layer}: predicted to run on {workload}, recorded no calls")
    for op in PREDICTED_IDLE_OPS:
        calls = metrics[f"{op}.calls"]["value"]
        if calls:
            errs.append(f"{op}: predicted idle on every workload, recorded {calls} calls")
    return errs


# ------------------------------------------------------------------ main
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"hostbench: the program's sources are missing ({src}/repro)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]
    from workloads import workloads

    table = workloads()
    if args.workload not in table:
        print(f"hostbench: unknown workload {args.workload!r}; one of {sorted(table)}",
              file=sys.stderr)
        return 2
    wl = table[args.workload]

    host = {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "calib_ns_per_iter_start": calibrate_ns(),
    }
    steal0 = steal_s()
    t_run = time.perf_counter()
    inputs = wl.generate(args.seed)
    wl.prepare(inputs)
    warm = run_job(wl, inputs)  # untimed: imports, caches, allocator pools
    untraced, tracers = _measure(wl, inputs, args.seconds, bool(args.trace))
    jobs = [warm] + untraced + [job for _tracer, job in tracers]
    host["calib_ns_per_iter_end"] = calibrate_ns()
    host["steal_s"] = steal_s() - steal0 if steal0 >= 0 else -1.0
    host["run_s"] = time.perf_counter() - t_run

    attempted = sum(j["ops"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    sim_values = {j["sim_s"] for j in jobs}
    correct = failed == 0 and len(sim_values) == 1

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        metrics = layer_metrics(untraced, tracers)
        errs = coverage_errors(wl.name, metrics)
        if errs:
            print("hostbench: coverage check failed:\n  " + "\n  ".join(errs), file=sys.stderr)
            return 3
        from layers import write_chrome_trace

        tracer, job = tracers[0]
        phases = [
            {"name": "bench.setup", "t0": job["t_call"], "dur": job["setup_wall_s"]},
            {"name": "bench.simulate", "t0": job["t_call"] + job["setup_wall_s"],
             "dur": job["simulate_s"]},
            {"name": "bench.teardown",
             "t0": job["t_call"] + job["setup_wall_s"] + job["simulate_s"],
             "dur": job["teardown_s"]},
        ]
        trace_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        write_chrome_trace(tracer.chrome_trace(phases), str(trace_path))
        host["trace"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = end_to_end_metrics(untraced)

    samples = [{k: j[k] for k in ("wall_s", "cpu_s", "setup_s", "setup_wall_s", "simulate_s",
                                  "teardown_s", "ops_per_cpu_s", "peak_rss_mb", "sim_s",
                                  "failed")}
               for j in untraced]
    with open(OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"host": host, "untraced_jobs": samples}, fh, indent=1)
    print(f"hostbench {wl.name} seed={args.seed}: {len(untraced)} untraced jobs, "
          f"{len(tracers)} traced; cpu_s median {_median(untraced, 'cpu_s'):.4f} s, "
          f"wall_s median {_median(untraced, 'wall_s'):.4f} s "
          f"(n={len(untraced)}); {attempted} ops checked, {failed} failed")
    print(json.dumps({"host": host}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
