"""Per-layer host-time tracing, installed from outside the program.

The traced pass wraps the entry points listed in :data:`ENTRY_POINTS`
(one row per function or method where control enters a layer of the
stack) with a span recorder; nothing under ``src/`` is edited.  Every
span records its duration into the thread that ran it.  A layer's *self
time* is its spans' duration minus the part covered by nested spans, so
time spent in a deeper layer is billed to that layer only.

Two spans are *waits*, not work: ``sim.coop.park`` (a rank fiber parked
on its baton while another entity holds it) and ``sim.shard.exchange``
(a shard worker blocked on the window barrier).  They nest inside the
span that parked, so their duration is subtracted from the parent's
self time and reported separately.

Entry points are resolved by name when the wrappers are installed; a
renamed or removed entry point raises :class:`LookupError` and fails the
traced run instead of silently reading zero.

Sharded jobs run rank code in forked workers.  Two hooks (no spans)
carry their numbers home: the worker entry clears the counters the fork
inherited, and the worker's stats record gains the worker's snapshot,
which the scheduler already ships to the parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

WORK = "work"
WAIT = "wait"


def _size(x) -> int:
    n = getattr(x, "nbytes", None)
    return int(n) if n is not None else len(x)


def _arg(i: int, name: str):
    """Byte count taken from positional argument ``i`` (self is 0) or
    keyword ``name``."""
    return lambda a, k, r: _size(a[i] if len(a) > i else k[name])


def _int_arg(i: int, name: str):
    return lambda a, k, r: int(a[i] if len(a) > i else k[name])


def _dtype_arg(i: int, name: str):
    """Element size of the numpy dtype in argument ``i`` or ``name``."""
    return lambda a, k, r: np.dtype(a[i] if len(a) > i else k[name]).itemsize


#: (layer, op, "module:qualified.name", byte counter or None, kind)
ENTRY_POINTS: Tuple[tuple, ...] = (
    ("sim.engine", "push", "repro.sim.engine:EventQueue.push", None, WORK),
    ("sim.engine", "push", "repro.sim.coop:_StampedQueue.push", None, WORK),
    ("sim.engine", "push_keyed", "repro.sim.engine:EventQueue.push_keyed", None, WORK),
    ("sim.coop", "charge", "repro.sim.coop:CoroutineScheduler.charge", None, WORK),
    ("sim.coop", "checkpoint", "repro.sim.coop:CoroutineScheduler.checkpoint", None, WORK),
    ("sim.coop", "block", "repro.sim.coop:CoroutineScheduler.block", None, WORK),
    ("sim.coop", "wake", "repro.sim.coop:CoroutineScheduler.wake", None, WORK),
    ("sim.coop", "post", "repro.sim.coop:CoroutineScheduler.post", None, WORK),
    ("sim.coop", "post", "repro.sim.coop:CoroutineScheduler.post_at", None, WORK),
    ("sim.coop", "dispatch", "repro.sim.coop:CoroutineScheduler._dispatch", None, WORK),
    ("sim.coop", "park", "repro.sim.coop:CoroutineScheduler._switch_out", None, WAIT),
    ("sim.shard", "checkpoint", "repro.sim.shard:ShardedScheduler._checkpoint_slow", None, WORK),
    ("sim.shard", "dispatch", "repro.sim.shard:ShardedScheduler._dispatch", None, WORK),
    ("sim.shard", "wake", "repro.sim.shard:ShardedScheduler.wake", None, WORK),
    ("sim.shard", "emit_envelope", "repro.sim.shard:ShardedScheduler.emit_envelope", None, WORK),
    ("sim.shard", "insert_envelope", "repro.sim.shard:ShardedScheduler._insert_envelope", None, WORK),
    ("sim.shard", "merge", "repro.sim.shard:ShardedScheduler._merge", None, WORK),
    ("sim.shard", "exchange", "repro.sim.shard:_Channel.exchange_window", None, WAIT),
    ("sim.shard", "exchange", "repro.sim.shard:_Channel.exchange_catchup", None, WAIT),
    ("gasnet.segment", "init", "repro.gasnet.segment:Segment.__init__", _int_arg(1, "size"), WORK),
    ("gasnet.segment", "allocate", "repro.gasnet.segment:Segment.allocate", None, WORK),
    ("gasnet.conduit", "put_nb", "repro.gasnet.conduit:Conduit.put_nb", _arg(4, "data"), WORK),
    ("gasnet.conduit", "get_nb", "repro.gasnet.conduit:Conduit.get_nb", _int_arg(4, "nbytes"), WORK),
    ("gasnet.conduit", "am_send", "repro.gasnet.conduit:Conduit.am_send", _int_arg(5, "nbytes"), WORK),
    ("gasnet.conduit", "amo", "repro.gasnet.conduit:Conduit.amo", _dtype_arg(5, "dtype"), WORK),
    ("upcxx.serialization", "pack", "repro.upcxx.serialization:pack", lambda a, k, r: len(r), WORK),
    ("upcxx.serialization", "unpack", "repro.upcxx.serialization:unpack", _arg(0, "buf"), WORK),
    ("upcxx.rpc", "rpc", "repro.upcxx.rpc:rpc", None, WORK),
    ("upcxx.rpc", "rpc_ff", "repro.upcxx.rpc:rpc_ff", None, WORK),
    ("upcxx.rpc", "execute", "repro.upcxx.rpc:_execute_rpc_body", None, WORK),
    ("upcxx.rma", "rput", "repro.upcxx.rma:rput", None, WORK),
    ("upcxx.rma", "rget", "repro.upcxx.rma:rget", None, WORK),
    ("upcxx.future", "wait", "repro.upcxx.future:Future.wait", None, WORK),
    ("upcxx.future", "then", "repro.upcxx.future:Future.then", None, WORK),
    ("upcxx.future", "when_all", "repro.upcxx.future:when_all", None, WORK),
    ("upcxx.runtime", "init", "repro.upcxx.runtime:Runtime.__init__", None, WORK),
    ("upcxx.runtime", "progress", "repro.upcxx.runtime:Runtime.progress", None, WORK),
    ("upcxx.runtime", "internal_progress", "repro.upcxx.runtime:Runtime.internal_progress", None, WORK),
    ("upcxx.collectives", "barrier", "repro.upcxx.collectives:barrier", None, WORK),
    ("upcxx.collectives", "broadcast", "repro.upcxx.collectives:broadcast", None, WORK),
    ("upcxx.collectives", "reduce_one", "repro.upcxx.collectives:reduce_one", None, WORK),
    ("upcxx.collectives", "reduce_all", "repro.upcxx.collectives:reduce_all", None, WORK),
    ("upcxx.aggregator", "update_to", "repro.upcxx.aggregator:AggStore.update_to", None, WORK),
    ("upcxx.aggregator", "poll", "repro.upcxx.aggregator:AggStore.poll", None, WORK),
    ("upcxx.aggregator", "flush", "repro.upcxx.aggregator:AggStore.flush", None, WORK),
    ("upcxx.aggregator", "read_from", "repro.upcxx.aggregator:AggStore.read_from", None, WORK),
    ("upcxx.aggregator", "quiesce", "repro.upcxx.aggregator:AggStore.quiesce", None, WORK),
    ("upcxx.aggregator", "apply", "repro.upcxx.aggregator:_agg_apply", None, WORK),
    ("upcxx.replication", "owners", "repro.upcxx.replication:ReplicatedStore.owners", None, WORK),
    ("upcxx.replication", "read", "repro.upcxx.replication:ReplicatedStore.read", None, WORK),
    ("upcxx.replication", "anti_entropy", "repro.upcxx.replication:ReplicatedStore.anti_entropy", None, WORK),
    ("apps", "dht.insert", "repro.apps.dht.rma_lz:DhtRmaLz.insert", None, WORK),
    ("apps", "dht.make_lz", "repro.apps.dht.rma_lz:_make_lz", None, WORK),
    ("apps", "eadd.run", "repro.apps.sparse.extend_add:upcxx_eadd_run", None, WORK),
    ("apps", "eadd.accum", "repro.apps.sparse.extend_add:_accum", None, WORK),
    ("apps", "eadd.pack", "repro.apps.sparse.frontal:FrontInstance.pack_for_parent", None, WORK),
    ("apps", "kv.put", "repro.apps.kvservice.service:KvService.put", None, WORK),
    ("apps", "kv.get", "repro.apps.kvservice.service:KvService.get", None, WORK),
    ("apps", "kv.drain", "repro.apps.kvservice.service:KvService.drain", None, WORK),
)

#: every layer the traced pass reports, in stack order
LAYERS = tuple(dict.fromkeys(row[0] for row in ENTRY_POINTS))

#: hooks that carry a forked shard worker's numbers back to the parent
_WORKER_ENTRY = "repro.sim.shard:ShardedScheduler._worker_entry"
_WORKER_STATS = "repro.sim.shard:ShardedScheduler._worker_stats"
#: key under which a worker's snapshot rides its shipped stats record
SNAPSHOT_KEY = "hostbench_layers"

#: cap on spans kept for the Perfetto trace, per process
MAX_TRACE_EVENTS = 200_000


class _ThreadState:
    __slots__ = ("stack", "counts", "tid")

    def __init__(self, n_entries: int, tid: int):
        self.stack: List[float] = []
        #: flat [calls, self_s, bytes] per entry point
        self.counts: list = [0, 0.0, 0] * n_entries
        self.tid = tid


class Tracer:
    """Span recorder shared by every wrapper of one traced job.

    Counters live per thread (a baton handoff briefly overlaps two
    threads, so shared read-modify-write counters could lose updates).
    """

    def __init__(self, max_events: int = MAX_TRACE_EVENTS):
        self.max_events = max_events
        self._tls = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self.events: list = []
        self.thread_names: Dict[int, str] = {}
        self.pid = os.getpid()
        #: snapshots shipped home by forked shard workers
        self.remote: List[dict] = []

    def _new_state(self) -> _ThreadState:
        with self._lock:
            st = _ThreadState(len(ENTRY_POINTS), len(self.thread_names))
            self.thread_names[st.tid] = threading.current_thread().name
            self._states.append(st)
        self._tls.st = st
        return st

    def wrap(self, fn: Callable, eid: int, nbytes: Optional[Callable]) -> Callable:
        tls = self._tls
        new_state = self._new_state
        clock = time.perf_counter
        events = self.events
        cap = self.max_events
        i = 3 * eid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                st = tls.st
            except AttributeError:
                st = new_state()
            stack = st.stack
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                counts = st.counts
                counts[i] += 1
                counts[i + 1] += dur - child
                if stack:
                    stack[-1] += dur
                if len(events) < cap:
                    events.append((eid, st.tid, t0, dur))
            if nbytes is not None:
                st.counts[i + 2] += nbytes(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------- shard workers
    def reset_after_fork(self) -> None:
        """Drop what the fork inherited, so a worker reports its own work."""
        self.pid = os.getpid()
        for st in self._states:
            st.counts[:] = [0, 0.0, 0] * len(ENTRY_POINTS)
        self.events.clear()

    def snapshot(self) -> dict:
        """This process's counters and spans (plain data, picklable)."""
        counts = [0, 0.0, 0] * len(ENTRY_POINTS)
        for st in list(self._states):
            for j, v in enumerate(st.counts):
                counts[j] += v
        return {
            "pid": self.pid,
            "counts": counts,
            "events": list(self.events),
            "threads": dict(self.thread_names),
        }

    def absorb(self, sched_stats: dict) -> None:
        """Collect the snapshots forked workers shipped in ``per_shard``."""
        for st in sched_stats.get("per_shard", ()):
            snap = st.pop(SNAPSHOT_KEY, None)
            if snap is not None:
                self.remote.append(snap)

    # ------------------------------------------------------------- results
    def totals(self) -> Dict[Tuple[str, str], dict]:
        """(layer, op) -> {"calls", "self_s", "bytes", "kind"} over this
        process and every absorbed worker."""
        snaps = [self.snapshot()] + self.remote
        out: Dict[Tuple[str, str], dict] = {}
        for eid, (layer, op, _target, _nb, kind) in enumerate(ENTRY_POINTS):
            rec = out.setdefault(
                (layer, op), {"calls": 0, "self_s": 0.0, "bytes": 0, "kind": kind}
            )
            for s in snaps:
                c = s["counts"]
                rec["calls"] += c[3 * eid]
                rec["self_s"] += c[3 * eid + 1]
                rec["bytes"] += c[3 * eid + 2]
        return out

    def chrome_trace(self, extra_events: Optional[list] = None) -> dict:
        """Chrome/Perfetto trace: one process per OS process (parent and
        each shard worker), one thread track per rank fiber."""
        snaps = [self.snapshot()] + self.remote
        origin = min((e[2] for s in snaps for e in s["events"]), default=0.0)
        for e in extra_events or ():
            origin = min(origin, e["t0"])
        out: list = []
        for k, s in enumerate(snaps):
            pid = s["pid"]
            pname = "hostbench" if k == 0 else f"shard worker {k - 1}"
            out.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                        "args": {"name": pname}})
            used = {e[1] for e in s["events"]}
            for tid in sorted(used):
                out.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": tid + 1,
                            "args": {"name": s["threads"].get(tid, f"thread {tid}")}})
            for eid, tid, t0, dur in s["events"]:
                layer, op, _t, _nb, kind = ENTRY_POINTS[eid]
                out.append({"ph": "X", "name": f"{layer}.{op}", "cat": f"{layer},{kind}",
                            "pid": pid, "tid": tid + 1,
                            "ts": (t0 - origin) * 1e6, "dur": dur * 1e6})
        for e in extra_events or ():
            out.append({"ph": "X", "name": e["name"], "cat": "bench", "pid": self.pid,
                        "tid": 0, "ts": (e["t0"] - origin) * 1e6, "dur": e["dur"] * 1e6})
        return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(trace: dict, path: str) -> None:
    """Write the trace and read it back, so a malformed file fails here."""
    with open(path, "w") as fh:
        json.dump(trace, fh)
    with open(path) as fh:
        json.load(fh)


# ------------------------------------------------------------ installation
def _resolve(target: str):
    """``"module:Qual.name"`` -> (owner object, attribute name, current value)."""
    mod_name, _, qual = target.partition(":")
    owner = importlib.import_module(mod_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"entry point {target}: {part!r} not found (renamed?)")
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise LookupError(f"entry point {target}: {attr!r} is not defined on {owner.__name__}")
        value = owner.__dict__[attr]
    else:
        if not hasattr(owner, attr):
            raise LookupError(f"entry point {target}: {attr!r} not found (renamed?)")
        value = getattr(owner, attr)
    if not callable(value):
        raise LookupError(f"entry point {target} is not callable")
    return owner, attr, value


class Installation:
    """Wrappers installed for one traced job; :meth:`remove` restores
    every patched attribute to the object it held before."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patched: List[Tuple[object, str, object]] = []
        try:
            self._install()
        except BaseException:
            self.remove()
            raise

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _install(self) -> None:
        tracer = self.tracer
        resolved = [_resolve(row[2]) for row in ENTRY_POINTS]
        module_funcs: Dict[int, object] = {}
        for eid, ((owner, attr, fn), row) in enumerate(zip(resolved, ENTRY_POINTS)):
            wrapper = tracer.wrap(fn, eid, row[3])
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                module_funcs[id(fn)] = (fn, wrapper)
        # a module-level function is also bound under other names (package
        # re-exports, ``from x import f``): patch every alias in the package
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for name, value in list(vars(mod).items()):
                hit = module_funcs.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, name, hit[1])

        owner, attr, entry = _resolve(_WORKER_ENTRY)

        @functools.wraps(entry)
        def worker_entry(*args, **kwargs):
            tracer.reset_after_fork()
            return entry(*args, **kwargs)

        self._patch(owner, attr, worker_entry)
        owner, attr, stats = _resolve(_WORKER_STATS)

        @functools.wraps(stats)
        def worker_stats(*args, **kwargs):
            out = stats(*args, **kwargs)
            out[SNAPSHOT_KEY] = tracer.snapshot()
            return out

        self._patch(owner, attr, worker_stats)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
