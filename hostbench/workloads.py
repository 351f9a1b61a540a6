"""The benchmark's workloads: input generators, SPMD bodies and oracles.

Each workload turns ``--seed`` into concrete inputs outside the program,
hands the program only those inputs, and checks every job's outputs
against an oracle computed here, independently of the code under test.
Every rank body returns a payload; ``run.py`` adds host
timestamps around it.

The amount of application work per job does not depend on the seed: the
rank counts, inserts per rank, requests and writes per rank, the offered
window and the tree are fixed.  The seed changes keys, piece placement
and arrival times, which move simulated time (and host time with it) by
a few percent from seed to seed; for one seed every job is identical.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_left
from collections import Counter, defaultdict
from typing import Dict, List, Optional

import numpy as np

import repro.upcxx as upcxx
from repro.apps.dht import DhtRmaLz
from repro.apps.kvservice import KvService, Overloaded, zipf_cdf
from repro.apps.kvservice.service import _sleep_until
import repro.apps.sparse.extend_add as extend_add
from repro.apps.sparse.extend_add import EaddPlan, build_eadd_plan
from repro.bench.kv_bench import KNEE_EFFICIENCY
from repro.bench.platforms import PLATFORMS
from repro.sim.shard import SHARDS_ENV
from repro.upcxx.replication import ReplicatedStore
from repro.util.units import KiB, MiB

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix_home(key: int, n: int) -> int:
    """Key -> owner rank, re-derived here from the splitmix64 finalizer
    the DHT and the KV store both document as their placement rule."""
    z = (key + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) % n


class Workload:
    """Interface shared by the workloads."""

    name = ""
    backend = "coroutines"
    ranks = 0

    def generate(self, seed: int):
        """Inputs for ``seed`` (pure function of the seed)."""
        raise NotImplementedError

    def prepare(self, inputs) -> None:
        """Untimed, once per run: references the oracle compares against."""

    def make_body(self, inputs):
        """-> (rank body, per-job context handed to :meth:`check`)."""
        raise NotImplementedError

    def run_kwargs(self) -> dict:
        """``run_spmd`` arguments.  The run seed is fixed: the program
        receives the seed only through the generated inputs."""
        raise NotImplementedError

    def ops(self, inputs) -> int:
        """Application operations one job performs (fixed by the inputs)."""
        raise NotImplementedError

    def served(self, inputs, payloads) -> int:
        """Operations the job completed (for ``ops_per_s``)."""
        return self.ops(inputs)

    def check(self, inputs, payloads, ctx) -> int:
        """Oracle: number of operations whose result is wrong."""
        raise NotImplementedError

    def sim_s(self, payloads) -> float:
        """Simulated seconds of the timed region (slowest rank)."""
        raise NotImplementedError

    def layer_counters(self, payloads) -> dict:
        """Counters read from the program's own ``stats()`` records."""
        return {}

    def job_env(self) -> Dict[str, str]:
        return {}


# -------------------------------------------------------------------- DHT
class DhtInsert(Workload):
    """Fig. 4a blocking DHT inserts (RPC for the landing zone, then rput)."""

    name = "dht_insert"
    value_size = 4 * KiB

    def __init__(self, ranks: int = 256, inserts: int = 4, ppn: Optional[int] = None):
        self.ranks = ranks
        self.inserts = inserts
        self.ppn = ppn or PLATFORMS["haswell"].ppn_dht
        # dht_bench's Fig. 4a segment: >= 4 MiB per rank, eagerly zeroed
        self.segment_size = max(4 * MiB, 4 * inserts * self.value_size)

    def payload(self, key: int) -> bytes:
        """The value stored under ``key``: its 8 bytes repeated."""
        return key.to_bytes(8, "little") * (self.value_size // 8)

    def generate(self, seed: int) -> List[List[tuple]]:
        """Random 64-bit keys, drawn until every rank is the home of
        exactly ``inserts`` of them, then dealt out in a random order:
        every rank sends and receives the same number of inserts."""
        rng = random.Random(f"{self.name}:{seed}")
        homes: Dict[int, list] = {r: [] for r in range(self.ranks)}
        seen = set()
        todo = self.ranks * self.inserts
        while todo:
            key = rng.getrandbits(64)
            bucket = homes[splitmix_home(key, self.ranks)]
            if key not in seen and len(bucket) < self.inserts:
                seen.add(key)
                bucket.append(key)
                todo -= 1
        flat = [k for r in range(self.ranks) for k in homes[r]]
        rng.shuffle(flat)
        return [
            [(k, self.payload(k)) for k in flat[r * self.inserts : (r + 1) * self.inserts]]
            for r in range(self.ranks)
        ]

    def run_kwargs(self) -> dict:
        return dict(platform="haswell", ppn=self.ppn, segment_size=self.segment_size,
                    seed=0, backend=self.backend)

    def make_body(self, inputs):
        def body():
            mine = inputs[upcxx.rank_me()]
            dht = DhtRmaLz()
            upcxx.barrier()
            t0 = upcxx.sim_now()
            for key, val in mine:
                dht.insert(key, val).wait()  # blocking, as in Fig. 4a
            upcxx.barrier()
            elapsed = upcxx.sim_now() - t0
            stored = tuple(sorted(
                (k, lz.length, zlib.crc32(lz.gptr.local()))
                for k, lz in dht.local_map.items()
            ))
            return elapsed, stored

        return body, None

    def ops(self, inputs) -> int:
        return sum(len(m) for m in inputs)

    def check(self, inputs, payloads, ctx) -> int:
        """Every key sits exactly once, on its home rank, holding the
        bytes derived from the key; nothing else is stored."""
        where = defaultdict(list)
        for rank, (_elapsed, stored) in enumerate(payloads):
            for key, length, crc in stored:
                where[key].append((rank, length, crc))
        expected = {k: [(splitmix_home(k, self.ranks), len(v), zlib.crc32(v))]
                    for mine in inputs for k, v in mine}
        failed = sum(1 for k in where if k not in expected)
        failed += sum(1 for k, want in expected.items() if where.get(k) != want)
        return failed

    def sim_s(self, payloads) -> float:
        return max(p[0] for p in payloads)


class DhtSharded(DhtInsert):
    """The Fig. 4a DHT respread over several nodes per shard, on the
    sharded backend; checked bit-for-bit against a coroutine reference.
    Run by hand only: its spread between runs exceeds the benchmark's
    bounds, so ``BENCHMARK.json`` leaves it out (README, "Noise")."""

    name = "dht_sharded"
    backend = "sharded"
    shards = 2

    def __init__(self, ranks: int = 16, inserts: int = 384, ppn: int = 2):
        super().__init__(ranks=ranks, inserts=inserts, ppn=ppn)
        self.reference: Optional[list] = None

    def job_env(self) -> Dict[str, str]:
        return {SHARDS_ENV: str(self.shards)}

    def prepare(self, inputs) -> None:
        body, _ = self.make_body(inputs)
        kw = dict(self.run_kwargs(), backend="coroutines")
        self.reference = list(upcxx.run_spmd(body, self.ranks, **kw))

    def check(self, inputs, payloads, ctx) -> int:
        failed = super().check(inputs, payloads, ctx)
        for rank, (got, want) in enumerate(zip(payloads, self.reference)):
            if got != want:
                failed += len(inputs[rank])
        return failed


# ------------------------------------------------------------- extend-add
class EaddRpc(Workload):
    """Fig. 8 extend-add, UPC++ RPC variant with ``make_view`` payloads."""

    name = "eadd_rpc"

    def __init__(self, ranks: int = 16, grid=(24, 24, 16), leaf: int = 48):
        self.ranks = ranks
        self.grid = tuple(grid)
        self.leaf = leaf
        self._base: Optional[EaddPlan] = None
        self.reference: Optional[Dict[int, np.ndarray]] = None

    def generate(self, seed: int) -> EaddPlan:
        """The proxy tree's plan with world ranks relabelled by a seeded
        permutation: which rank holds which piece of every front."""
        if self._base is None:
            self._base = build_eadd_plan(*self.grid, n_procs=self.ranks, leaf_size=self.leaf)
        base = self._base
        perm = random.Random(f"{self.name}:{seed}").sample(range(self.ranks), self.ranks)
        return EaddPlan(
            fronts=base.fronts,
            teams={nid: [perm[r] for r in team] for nid, team in base.teams.items()},
            parents=base.parents,
            expected={(pid, perm[r]): n for (pid, r), n in base.expected.items()},
            n_procs=base.n_procs,
            block=base.block,
            total_entries=base.total_entries,
        )

    def prepare(self, plan: EaddPlan) -> None:
        self.reference = dense_extend_add(plan)

    def run_kwargs(self) -> dict:
        return dict(platform="haswell", ppn=PLATFORMS["haswell"].ppn_eadd, seed=0,
                    backend=self.backend)

    def make_body(self, plan: EaddPlan):
        collect: dict = {}
        # looked up on the module, so the traced pass sees its wrapper
        return (lambda: extend_add.upcxx_eadd_run(plan, collect)), collect

    def ops(self, plan: EaddPlan) -> int:
        return sum(plan.expected.values())

    def check(self, plan: EaddPlan, payloads, collect) -> int:
        """Each rank's blocks of every parent front equal the dense
        reference, and the team's blocks tile the front exactly."""
        nb = plan.block
        failed = 0
        for pid in plan.parents:
            ref = self.reference[pid]
            n = ref.shape[0]
            area = 0
            seen = set()
            for r in plan.teams[pid]:
                inst = collect.get(r, {}).get(pid)
                bad = inst is None
                for (bi, bj), blk in (inst.blocks.items() if inst is not None else ()):
                    area += blk.size
                    bad |= (bi, bj) in seen
                    seen.add((bi, bj))
                    want = ref[bi * nb : bi * nb + blk.shape[0], bj * nb : bj * nb + blk.shape[1]]
                    bad |= not np.array_equal(blk, want)
                if bad:
                    failed += max(1, plan.expected.get((pid, r), 0))
            if area != n * n:
                failed += max(1, sum(plan.expected.get((pid, r), 0) for r in plan.teams[pid]))
        return failed

    def sim_s(self, payloads) -> float:
        return max(payloads)


def dense_extend_add(plan: EaddPlan) -> Dict[int, np.ndarray]:
    """Dense numpy extend-add over the whole tree: leaves carry a unit
    contribution block, every parent sums its children's blocks into the
    rows and columns their border vertices map to."""
    memo: Dict[int, np.ndarray] = {}

    def front(nid: int) -> np.ndarray:
        if nid in memo:
            return memo[nid]
        sym = plan.fronts[nid]
        d = np.zeros((sym.front_size, sym.front_size))
        if not sym.children:
            d[sym.n_cols :, sym.n_cols :] = 1.0
        pos_of = {int(g): k for k, g in enumerate(sym.row_indices)}
        for cid in sym.children:
            child = plan.fronts[cid]
            pos = np.array([pos_of[int(g)] for g in child.border], dtype=np.int64)
            d[np.ix_(pos, pos)] += front(cid)[child.n_cols :, child.n_cols :]
        memo[nid] = d
        return d

    return {pid: front(pid) for pid in plan.parents}


def aggregator_counters(recs) -> dict:
    """Per-layer counters summed over the ranks' store records (the
    aggregator's ``stats()`` fields plus ``failover_reads``)."""
    tot = {k: sum(r[k] for r in recs) for k in (
        "updates_sent", "batches_sent", "cache_hits", "cache_misses",
        "credit_stall_s", "failover_reads")}
    lookups = tot["cache_hits"] + tot["cache_misses"]
    return {
        "upcxx.aggregator.updates_per_batch":
            tot["updates_sent"] / tot["batches_sent"] if tot["batches_sent"] else 0.0,
        "upcxx.aggregator.cache_hit_ratio": tot["cache_hits"] / lookups if lookups else 0.0,
        "upcxx.aggregator.credit_stall_s": tot["credit_stall_s"],
        "upcxx.replication.failover_reads": tot["failover_reads"],
    }


# --------------------------------------------------------------------- KV
class KvMixed(Workload):
    """Open-loop Poisson/Zipf KV traffic below the knee, rf=2.

    Every rank issues the same number of requests, exactly
    ``write_fraction`` of them writes, over the same offered window
    ``requests / rate``: the arrivals are a Poisson process conditioned
    on its count (sorted uniform times), so the seed changes keys, values
    and arrival times but not how much work a job does.
    """

    name = "kv_mixed"

    def __init__(self, ranks: int = 24, requests: int = 160, rate: float = 100_000.0):
        self.ranks = ranks
        self.requests = requests
        self.rate = rate
        self.write_fraction = 0.1
        self.n_keys = 1024
        self.ppn = 4
        self.replication = 2
        #: a backlog the service reaches past the knee (it sheds from 4x
        #: this rate on) but not at this rate
        self.admission_limit = 64
        self.segment_size = 1 * MiB

    def generate(self, seed: int) -> List[list]:
        cdf = zipf_cdf(self.n_keys, 1.1)
        window = self.requests / self.rate
        n_writes = round(self.write_fraction * self.requests)
        streams = []
        for r in range(self.ranks):
            rng = random.Random(f"{self.name}:{seed}:{r}")
            times = sorted(rng.uniform(0.0, window) for _ in range(self.requests))
            writes = set(rng.sample(range(self.requests), n_writes))
            stream = []
            for i, t in enumerate(times):
                key = bisect_left(cdf, rng.random())
                if i in writes:
                    stream.append((t, "put", key, rng.getrandbits(31)))
                else:
                    stream.append((t, "get", key, 0))
            streams.append(stream)
        return streams

    def run_kwargs(self) -> dict:
        return dict(platform="haswell", ppn=self.ppn, segment_size=self.segment_size,
                    seed=0, backend=self.backend)

    def make_body(self, traffic):
        def body():
            rt = upcxx.runtime_here()
            svc = KvService(batch_size=64, credits=8, max_dwell=40e-6, cache_capacity=128,
                            replication=self.replication,
                            admission_limit=self.admission_limit)
            upcxx.barrier()
            t_start = upcxx.sim_now()
            for dt, op, key, val in traffic[upcxx.rank_me()]:
                t_arr = t_start + dt
                if rt.now() < t_arr:
                    _sleep_until(rt, t_arr)
                try:
                    if op == "get":
                        svc.get(key, t_arr)
                    else:
                        svc.put(key, val, t_arr)
                except Overloaded:
                    pass  # counted in requests_shed; the oracle fails it
                svc.poll()
            svc.drain()
            rec = svc.result()
            rec["t_serve_s"] = upcxx.sim_now() - t_start
            return rec, svc._store.local_items()

        return body, None

    def ops(self, traffic) -> int:
        return sum(len(t) for t in traffic)

    def served(self, traffic, payloads) -> int:
        return sum(rec["requests_served"] for rec, _items in payloads)

    def check(self, traffic, payloads, ctx) -> int:
        """Served equals issued with nothing shed and the served rate
        within ``KNEE_EFFICIENCY`` of the offered rate; after the drain
        every written key is held by each of its rf owners with one value
        the traffic wrote to it; no rank stores anything else."""
        recs = [rec for rec, _items in payloads]
        issued = sum(r["requests_issued"] for r in recs)
        failed = self.ops(traffic) - issued
        failed += issued - sum(r["requests_served"] for r in recs)
        failed += sum(r["requests_shed"] for r in recs)
        if self.utilization(payloads) < KNEE_EFFICIENCY:
            failed += self.ops(traffic)  # offered rate is past the knee
        writes = defaultdict(list)
        for stream in traffic:
            for _dt, op, key, val in stream:
                if op == "put":
                    writes[key].append(val)
        items = [it for _rec, it in payloads]
        n = self.ranks
        owners = {k: {(splitmix_home(k, n) + i) % n for i in range(self.replication)}
                  for k in writes}
        for key, vals in writes.items():
            held = [items[o].get(key) for o in sorted(owners[key])]
            if len(set(held)) != 1 or held[0] not in vals:
                failed += len(vals)
        for rank, it in enumerate(items):
            failed += sum(1 for k in it if rank not in owners.get(k, ()))
        return max(0, failed)

    def utilization(self, payloads) -> float:
        """Served over offered throughput, as ``kv_bench`` defines it."""
        served = sum(rec["requests_served"] for rec, _items in payloads)
        return served / (self.sim_s(payloads) * self.ranks * self.rate)

    def sim_s(self, payloads) -> float:
        return max(rec["t_serve_s"] for rec, _items in payloads)

    def layer_counters(self, payloads) -> dict:
        return aggregator_counters([rec for rec, _items in payloads])


# --------------------------------------------------------- replicated count
class AggCount(Workload):
    """Replicated counting through the aggregation layer, k-mer style.

    Every rank streams ``+`` increments for Zipf keys into one
    ``ReplicatedStore`` (rf=2: each update fans out to both owners,
    batched, dwell-bounded and credit flow-controlled), open loop at a
    fixed rate, then reads keys back through the hot-key cache.  Two
    rounds: the second round's increments invalidate what the first
    round's reads cached, so its reads check the watchers too.  Every
    round has the same counts for every seed.
    """

    name = "agg_count"

    def __init__(self, ranks: int = 24, updates: int = 48, reads: int = 32,
                 rounds: int = 2, rate: float = 100_000.0):
        self.ranks = ranks
        self.updates = updates
        self.reads = reads
        self.rounds = rounds
        self.rate = rate
        self.n_keys = 1024
        self.ppn = 4
        self.replication = 2
        self.segment_size = 1 * MiB

    def _stream(self, rng, n: int, cdf) -> list:
        """``n`` Zipf keys at Poisson arrivals conditioned on their count
        over the fixed window ``n / rate``."""
        times = sorted(rng.uniform(0.0, n / self.rate) for _ in range(n))
        return [(t, bisect_left(cdf, rng.random())) for t in times]

    def generate(self, seed: int) -> List[list]:
        """Per rank, per round: (updates [(dt, key, inc)], reads [(dt, key)])."""
        cdf = zipf_cdf(self.n_keys, 1.1)
        out = []
        for r in range(self.ranks):
            rng = random.Random(f"{self.name}:{seed}:{r}")
            rounds = []
            for _ in range(self.rounds):
                ups = [(t, k, rng.randint(1, 1000)) for t, k in self._stream(rng, self.updates, cdf)]
                rounds.append((ups, self._stream(rng, self.reads, cdf)))
            out.append(rounds)
        return out

    def run_kwargs(self) -> dict:
        return dict(platform="haswell", ppn=self.ppn, segment_size=self.segment_size,
                    seed=0, backend=self.backend)

    def make_body(self, inputs):
        def body():
            rt = upcxx.runtime_here()
            store = ReplicatedStore("+", batch_size=64, replication=self.replication,
                                    max_dwell=40e-6, credits=8, cache_capacity=128)
            got = []
            upcxx.barrier()
            t_start = upcxx.sim_now()
            for ups, reads in inputs[upcxx.rank_me()]:
                t0 = upcxx.sim_now()
                for dt, key, inc in ups:
                    if rt.now() < t0 + dt:
                        _sleep_until(rt, t0 + dt)
                    store.update(key, inc)
                    store.poll()
                store.store.quiesce()
                seen = []
                t0 = upcxx.sim_now()
                for dt, key in reads:
                    if rt.now() < t0 + dt:
                        _sleep_until(rt, t0 + dt)
                    store.read(key, 0, cb=lambda k, v, seen=seen: seen.append((k, v)))
                rt.wait_quiet(lambda: store.reads_outstanding() == 0, "agg_count::reads")
                got.append(seen)
                upcxx.barrier()
            store.anti_entropy()  # a no-op without a death; kept as a drain does
            rec = dict(store.store.stats(), failover_reads=store.failover_reads,
                       t_serve_s=upcxx.sim_now() - t_start)
            return rec, got, store.local_items()

        return body, None

    def ops(self, inputs) -> int:
        return sum(len(ups) + len(reads) for rounds in inputs for ups, reads in rounds)

    def check(self, inputs, payloads, ctx) -> int:
        """Each read returns the key's exact sum over every increment of
        its round and the rounds before (0 for a key never written);
        after the last round each written key is held by exactly its rf
        owners, each with the exact total, and nothing else is stored."""
        n = self.ranks
        failed = 0
        totals: Dict[int, int] = defaultdict(int)
        count: Dict[int, int] = defaultdict(int)
        for rnd in range(self.rounds):
            for rounds in inputs:
                for _dt, key, inc in rounds[rnd][0]:
                    totals[key] += inc
                    count[key] += 1
            for rank, (_rec, got, _items) in enumerate(payloads):
                want = Counter((k, totals.get(k, 0)) for _dt, k in inputs[rank][rnd][1])
                have = Counter(got[rnd] if rnd < len(got) else ())
                failed += max(sum((want - have).values()), sum((have - want).values()))
        items = [it for _rec, _got, it in payloads]
        owners = {k: {(splitmix_home(k, n) + i) % n for i in range(self.replication)}
                  for k in totals}
        for key, total in totals.items():
            if [items[o].get(key) for o in sorted(owners[key])] != [total] * self.replication:
                failed += count[key]
        for rank, it in enumerate(items):
            failed += sum(1 for k in it if rank not in owners.get(k, ()))
        return failed

    def sim_s(self, payloads) -> float:
        return max(rec["t_serve_s"] for rec, _got, _items in payloads)

    def layer_counters(self, payloads) -> dict:
        return aggregator_counters([rec for rec, _got, _items in payloads])


def workloads(scale: str = "full") -> Dict[str, Workload]:
    """The benchmark's workloads; ``tiny`` shrinks every job for tests."""
    if scale == "tiny":
        wl = [DhtInsert(ranks=8, inserts=2), EaddRpc(ranks=4, grid=(8, 8, 6)),
              AggCount(ranks=4, updates=32, reads=16, rate=25_000.0),
              KvMixed(ranks=4, requests=64, rate=25_000.0), DhtSharded(ranks=16, inserts=4, ppn=4)]
    else:
        wl = [DhtInsert(), EaddRpc(), AggCount(), KvMixed(), DhtSharded()]
    return {w.name: w for w in wl}

