"""The benchmark's four workloads: inputs from a seed, rounds, answer checks.

Every workload builds its inputs from ``--seed`` before anything is
timed and hands the program only generated edge arrays and request
traces.  A *round* is the workload's fixed unit of work: a *cycle* per
input graph (kernel workloads) or one ``serve()`` call over the whole
trace (``serve-rw``).  Rounds repeat identical work, so counts per round
are exact and simulated times are the same in every round.

Answers are checked after each round, outside the timed region, against
oracles that share no code with the kernels: ``scipy.sparse`` for the
kernel workloads, the serial :class:`~repro.serve.ServingEngine` and a
plain :class:`~repro.graphstore.GraphStore` replay for ``serve-rw``.
"""

from __future__ import annotations

import gc
import heapq
import json
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

import numpy as np
import scipy.sparse as sp

from repro import GraphStore, Session, UpdateBatch
from repro.core import CacheSpec, LCCConfig
from repro.graph.csr import CSRGraph
from repro.graph.generators import powerlaw_configuration, rmat
from repro.serve import (
    AsyncServeConfig,
    AsyncServingEngine,
    CacheAffinityScheduler,
    ServeConfig,
    ServingEngine,
    WorkloadSpec,
    default_catalog,
    generate_workload,
)
from repro.dynamic import random_update_arrays

perf_counter = time.perf_counter


def sub_seed(seed: int, *labels: int) -> int:
    """A 32-bit seed derived from the run seed and integer labels."""
    return int(np.random.SeedSequence([seed, *labels]).generate_state(1)[0])


class HostSpeed:
    """Reference work timed around every operation, to track host speed.

    The host this benchmark was tuned on (2 vCPUs of a shared machine)
    switches between a fast and a slow state every few seconds; in the
    slow state the program runs up to twice as slow.  The reference work
    is a fixed mix of what the program does — dictionary and object
    bookkeeping, a heap, JSON, small NumPy calls — timed right before
    and right after each operation with the garbage collector off, so it
    depends on nothing the program allocates.  An operation measured
    ``wall`` seconds between reference times ``pre`` and ``post`` counts
    ``wall * scale`` seconds at the nominal host speed, where ``scale =
    NOMINAL_S / mean(pre, post)``.  On that host, over ten seeds, this
    took the spread of ``cold_query_s`` on lcc-reuse from 0.16–0.18
    (measured) to 0.03; scaling whole rounds by a reference timed before
    each round took it only from 0.25 to 0.14.
    """

    NOMINAL_S = 0.010

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._arrays = [rng.integers(0, 500, size=int(k))
                        for k in rng.integers(20, 300, size=100)]
        self._doc = json.dumps([{"id": i, "name": f"v{i}",
                                 "deg": self._arrays[i].tolist()[:8]}
                                for i in range(100)])
        self.samples: list[float] = []
        self.spent = 0.0           # seconds of reference work so far
        self._last: Optional[float] = None

    def _work(self) -> None:
        table: dict = {}
        heap: list = []
        for i in range(3000):
            key = (i * 7919) % 2053
            entry = table.get(key)
            if entry is None:
                table[key] = entry = [key, i & 63, 0.0]
                heapq.heappush(heap, (entry[1], key))
            else:
                entry[2] = entry[2] * 0.5 + 1.0
        while heap:
            heapq.heappop(heap)
        sorted(table.values(), key=lambda e: (e[2], e[0]))
        json.loads(self._doc)
        for a in self._arrays:
            u = np.unique(a)
            np.bincount(np.searchsorted(u, a), minlength=u.shape[0])
            np.concatenate((a[a > 250], np.cumsum(u)))

    def sample(self) -> float:
        """Time the reference work once; returns its duration."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self._work()
            dt = perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dt)
        self.spent += dt
        self._last = dt
        return dt

    def restart(self) -> None:
        """Forget the last sample: time passed since it was taken."""
        self._last = None

    def timed(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """``(fn(), wall seconds, host-speed scale)``."""
        pre = self._last if self._last is not None else self.sample()
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0
        post = self.sample()
        return result, wall, 2.0 * self.NOMINAL_S / (pre + post)


def timed(host: Optional[HostSpeed], fn: Callable[[], Any]
          ) -> tuple[Any, float, float]:
    """Time ``fn``; without ``host`` (traced rounds) the scale is 1."""
    if host is not None:
        return host.timed(fn)
    t0 = perf_counter()
    result = fn()
    return result, perf_counter() - t0, 1.0


class SampledAffinityScheduler(CacheAffinityScheduler):
    """The affinity scheduler, timing the host-speed reference as it picks.

    The requests inside one ``serve()`` call cannot be bracketed one by
    one, so the reference is timed at a pick at most every ``EVERY_S``
    seconds, and a request's scale interpolates the reference at the time
    it was picked (the mean reference when the engine dispatched it
    without asking the scheduler).  Decisions are the parent's; the
    caller takes the reference time out of the call's wall time.
    """

    EVERY_S = 0.1

    def __init__(self, host: HostSpeed) -> None:
        super().__init__()
        self.host = host
        self.times: list[float] = []
        self.refs: list[float] = []
        self.picked_at: dict[int, float] = {}

    def sample(self) -> None:
        self.refs.append(self.host.sample())
        self.times.append(perf_counter())

    def pick(self, queued, last_key, pool):
        if not self.times or perf_counter() - self.times[-1] >= self.EVERY_S:
            self.sample()
        req = super().pick(queued, last_key, pool)
        self.picked_at[req.qid] = perf_counter()
        return req

    def scale(self, qid: int) -> float:
        at = self.picked_at.get(qid)
        ref = (np.interp(at, self.times, self.refs) if at is not None
               else np.mean(self.refs))
        return HostSpeed.NOMINAL_S / float(ref)


@dataclass
class Op:
    """One timed operation: a query or an update."""

    kind: str                 # "cold" | "warm" | "query" | "update"
    wall: float               # measured seconds
    scale: float              # host-speed scale, see HostSpeed
    sim: float                # simulated job (service) time
    sim_latency: float        # simulated arrival-to-answer time
    cycle: int


@dataclass
class RoundLog:
    """What one round did, on both clocks, and how its answers checked."""

    wall: float = 0.0
    busy: float = 0.0          # wall time of the timed requests, scaled
    busy_raw: float = 0.0      # the same, measured
    requests: int = 0          # requests completed in ``busy``
    setups: list = field(default_factory=list)    # (wall, scale)
    ops: list = field(default_factory=list)
    pending: list = field(default_factory=list)   # results to check
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    extra: Counter = field(default_factory=Counter)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Oracle:
    """Triangle answers computed with ``scipy.sparse`` alone.

    ``tpv`` is diag(A³), the row sums of ``(A @ A) ∘ A``: twice the
    number of triangles at each vertex, which is what the kernels'
    ``triangles_per_vertex`` holds.  The global count is trace(A³)/6 and
    the LCC is diag(A³) / (d (d - 1)), zero where d < 2.
    """

    tpv: np.ndarray
    lcc: np.ndarray
    triangles: int

    @classmethod
    def of(cls, edges: np.ndarray, n: int) -> "Oracle":
        ones = np.ones(edges.shape[0], dtype=np.int64)
        a = sp.csr_matrix((ones, (edges[:, 0], edges[:, 1])), shape=(n, n))
        tpv = np.asarray((a @ a).multiply(a).sum(axis=1),
                         dtype=np.int64).ravel()
        deg = np.asarray(a.sum(axis=1), dtype=np.float64).ravel()
        denom = deg * (deg - 1.0)
        lcc = np.zeros(n, dtype=np.float64)
        mask = denom > 0
        lcc[mask] = tpv[mask] / denom[mask]
        return cls(tpv=tpv, lcc=lcc, triangles=int(tpv.sum()) // 6)

    def mismatch(self, kernel: str, result: Any) -> Optional[str]:
        """Why ``result`` is wrong, or None when it is right."""
        if int(result.global_triangles) != self.triangles:
            return (f"{kernel}: {result.global_triangles} triangles, "
                    f"expected {self.triangles}")
        if kernel in ("lcc", "lcc2d"):
            if not np.array_equal(result.triangles_per_vertex, self.tpv):
                return f"{kernel}: triangles_per_vertex differs"
            if not np.array_equal(result.lcc, self.lcc):
                return f"{kernel}: lcc differs"
        return None


@dataclass(frozen=True)
class GraphInput:
    edges: np.ndarray
    n: int
    name: str

    @classmethod
    def of(cls, graph: CSRGraph, name: str) -> "GraphInput":
        return cls(edges=graph.edges(), n=graph.n, name=name)

    def build(self) -> CSRGraph:
        return CSRGraph.from_edges(self.edges, self.n, name=self.name)


# ---------------------------------------------------------------------------
# Kernel workloads
# ---------------------------------------------------------------------------

class Workload:
    """What the runner needs from a workload.

    ``tail_pct`` is the percentile ``query_tail_s`` reports: the highest
    of p99/p90/p75/p50 with at least ten samples beyond it in a run of
    the length ``BENCHMARK.json`` sets.  It is fixed per workload so that
    the metric means the same thing in every run, whatever the number
    of samples a run happens to take.
    """

    name = ""
    tail_pct = 90.0
    oracle_s: list

    def run_round(self, log: RoundLog, first_cycle: int,
                  host: Optional[HostSpeed]) -> None:
        raise NotImplementedError

    def check(self, log: RoundLog) -> None:
        raise NotImplementedError

    def reference_s(self) -> float:
        """Single-threaded scipy oracle wall time per graph (median)."""
        return float(np.median(self.oracle_s))


class KernelWorkload(Workload):
    """Fresh sessions over generated graphs, one cycle per graph.

    ``sessions`` lists, per cycle, the sessions to open: how the
    cluster is acquired (``"1d"`` or ``"grid"``) and the queries run on
    it, each ``(kind, kernel)``.  Set-up is ``CSRGraph.from_edges`` plus
    the first resident-cluster acquire, so the first query runs on a
    freshly acquired cluster with empty caches.
    """

    nranks = 8
    sessions: tuple = ()

    def __init__(self, seed: int, size: str = "full") -> None:
        self.size = size
        self.inputs = [GraphInput.of(self.make_graph(sub_seed(seed, k)),
                                     f"{self.name}-{k}")
                       for k in range(self.graph_count())]
        self.oracles = []
        self.oracle_s = []
        for inp in self.inputs:
            t0 = perf_counter()
            self.oracles.append(Oracle.of(inp.edges, inp.n))
            self.oracle_s.append(perf_counter() - t0)

    # -- per-workload shape --------------------------------------------------
    def graph_count(self) -> int:
        raise NotImplementedError

    def make_graph(self, seed: int) -> CSRGraph:
        raise NotImplementedError

    def cache(self, graph: CSRGraph) -> Optional[CacheSpec]:
        return None

    # -- one round -----------------------------------------------------------
    def run_round(self, log: RoundLog, first_cycle: int,
                  host: Optional[HostSpeed]) -> None:
        for k, inp in enumerate(self.inputs):
            for acquire, queries in self.sessions:
                self._run_session(k, inp, acquire, queries, log,
                                  first_cycle + k, host)

    def _set_up(self, inp: GraphInput, acquire: str) -> Session:
        graph = inp.build()
        config = LCCConfig(nranks=self.nranks, cache=self.cache(graph))
        session = Session(graph, config)
        if acquire == "grid":
            session.resident_grid(config)
        else:
            session.resident_cluster(config, keep_cache=True,
                                     need_epochs=config.cache is not None)
        return session

    def _run_session(self, k: int, inp: GraphInput, acquire: str,
                     queries: tuple, log: RoundLog, cycle: int,
                     host: Optional[HostSpeed]) -> None:
        log.attempted += 1
        if host is not None:
            host.restart()
        try:
            session, wall, scale = timed(
                host, lambda: self._set_up(inp, acquire))
        except Exception as exc:  # counted, the round goes on
            log.fail(f"{inp.name} set-up raised {exc!r}")
            return
        log.setups.append((wall, scale))
        with session:
            for kind, kernel in queries:
                log.attempted += 1
                try:
                    result, wall, scale = timed(
                        host, lambda: session.run(kernel, keep_cache=True))
                except Exception as exc:  # counted, the round goes on
                    log.fail(f"{inp.name} {kernel} raised {exc!r}")
                    return
                log.busy += wall * scale
                log.busy_raw += wall
                log.requests += 1
                log.ops.append(Op(kind, wall, scale, result.time,
                                  result.time, cycle))
                log.pending.append((k, kernel, result))

    def check(self, log: RoundLog) -> None:
        for k, kernel, result in log.pending:
            why = self.oracles[k].mismatch(kernel, result)
            if why is not None:
                log.fail(f"{self.inputs[k].name} {why}")
        log.pending.clear()


class LCCReuse(KernelWorkload):
    name = "lcc-reuse"
    sessions = (("1d", (("cold", "lcc"),) + (("warm", "lcc"),) * 4
                 + (("query", "tc"),)),)

    def graph_count(self) -> int:
        return 24 if self.size == "full" else 2

    def make_graph(self, seed: int) -> CSRGraph:
        n, m = (500, 3750) if self.size == "full" else (120, 600)
        return powerlaw_configuration(n, m, seed=seed)

    def cache(self, graph: CSRGraph) -> CacheSpec:
        return CacheSpec.relative(graph.nbytes, 0.5, 1.0)


class LCCEvict(KernelWorkload):
    name = "lcc-evict"
    sessions = (("1d", (("cold", "lcc"), ("warm", "lcc"), ("query", "tc"))),)

    def graph_count(self) -> int:
        return 10 if self.size == "full" else 2

    def make_graph(self, seed: int) -> CSRGraph:
        n, m = (200, 1500) if self.size == "full" else (120, 600)
        return powerlaw_configuration(n, m, seed=seed)

    def cache(self, graph: CSRGraph) -> CacheSpec:
        return CacheSpec.paper_split(graph.nbytes // 4, graph.n,
                                     score="degree")


class UncachedGrid(KernelWorkload):
    name = "uncached-grid"
    tail_pct = 75.0
    sessions = (("1d", (("cold", "lcc"), ("warm", "lcc"))),
                ("grid", (("cold", "tc2d_spgemm"), ("warm", "tc2d_spgemm"))),
                ("grid", (("cold", "lcc2d"), ("warm", "lcc2d"))))

    def __init__(self, seed: int, size: str = "full") -> None:
        self.nranks = 9 if size == "full" else 4
        super().__init__(seed, size)

    def graph_count(self) -> int:
        return 2 if self.size == "full" else 1

    def make_graph(self, seed: int) -> CSRGraph:
        scale, factor = (12, 16) if self.size == "full" else (6, 8)
        return rmat(scale, factor, seed=seed)


# ---------------------------------------------------------------------------
# Serving workload
# ---------------------------------------------------------------------------

SERVE_KERNELS = ("lcc", "tc", "tc2d_spgemm", "lcc2d")

#: Seed of the recorded request sequence (see :func:`serve_trace`).
TRACE_SEED = 2022


def serve_trace(catalog: dict, seed: int, n_requests: int,
                rate: float) -> list:
    """The recorded read/write trace, with update contents from ``seed``.

    The request sequence — Poisson arrivals at ``rate`` simulated
    requests per second, Zipf tenants, the kernels, and which requests
    are updates (30%) — is one :func:`~repro.serve.generate_workload`
    draw from :data:`TRACE_SEED`, so the pool's build/reuse pattern and
    the cost of a run are the same for every seed.  ``seed`` draws the
    edges each update inserts and deletes.
    """
    spec = WorkloadSpec(n_queries=n_requests, arrival_rate=rate,
                        graphs=tuple(catalog), kernels=SERVE_KERNELS,
                        update_mix=0.3, seed=TRACE_SEED)
    rng = np.random.default_rng(sub_seed(seed))
    trace = []
    for req in generate_workload(spec, catalog):
        if req.is_update:
            inserts, deletes = random_update_arrays(
                catalog[req.graph], spec.update_edges,
                spec.update_delete_fraction, seed=rng)
            req = replace(req, inserts=inserts, deletes=deletes)
        trace.append(req)
    return trace


class ServeRW(Workload):
    name = "serve-rw"
    nranks = 9
    rate = 300.0

    def __init__(self, seed: int, size: str = "full") -> None:
        catalog = default_catalog(1.0 if size == "full" else 0.1)
        n_requests = 120 if size == "full" else 24
        self.inputs = {name: GraphInput.of(g, name)
                       for name, g in catalog.items()}
        self.trace = serve_trace(catalog, seed, n_requests, self.rate)
        self.oracle_s = []
        for inp in self.inputs.values():
            t0 = perf_counter()
            Oracle.of(inp.edges, inp.n)
            self.oracle_s.append(perf_counter() - t0)
        serial = ServingEngine(self._catalog(),
                               ServeConfig(nranks=self.nranks,
                                           pool_capacity=3),
                               scheduler=CacheAffinityScheduler())
        self.expected_digests = serial.serve(list(self.trace)).digests()
        self.expected_versions = self._replay_updates()

    def _catalog(self) -> dict:
        return {name: inp.build() for name, inp in self.inputs.items()}

    def _replay_updates(self) -> dict:
        """Final (version, digest) per graph from a plain GraphStore."""
        store = GraphStore(self._catalog())
        for req in self.trace:
            if req.is_update:
                graph = store.graph(req.graph)
                store.apply(req.graph, UpdateBatch.build(
                    req.inserts, req.deletes, n=graph.n,
                    directed=graph.directed))
        return {name: (store.version(name).version, store.digest(name))
                for name in store.names()}

    def _set_up(self, scheduler: CacheAffinityScheduler
                ) -> AsyncServingEngine:
        catalog = self._catalog()
        store = GraphStore(catalog)
        return AsyncServingEngine(
            catalog, AsyncServeConfig(nranks=self.nranks, pool_capacity=3),
            scheduler=scheduler, store_factory=lambda _: store)

    def run_round(self, log: RoundLog, first_cycle: int,
                  host: Optional[HostSpeed]) -> None:
        log.attempted += 1
        scheduler = (CacheAffinityScheduler() if host is None
                     else SampledAffinityScheduler(host))
        if host is not None:
            host.restart()
        try:
            engine, wall, scale = timed(host, lambda: self._set_up(scheduler))
        except Exception as exc:  # counted, the round goes on
            log.fail(f"serve set-up raised {exc!r}")
            return
        log.setups.append((wall, scale))
        log.attempted += len(self.trace) + len(self.expected_versions)
        spent = host.spent if host is not None else 0.0
        try:
            t0 = perf_counter()
            outcome = engine.serve(list(self.trace))
            wall = perf_counter() - t0
        except Exception as exc:  # counted, the round goes on
            log.failed += len(self.trace)
            log.errors.append(f"serve raised {exc!r}")
            return
        scale, scale_of = 1.0, (lambda qid: 1.0)
        if host is not None:
            wall -= host.spent - spent
            scheduler.sample()
            scale = HostSpeed.NOMINAL_S / float(np.mean(scheduler.refs))
            scale_of = scheduler.scale
        served = len(outcome.records) + len(outcome.update_records)
        log.busy += wall * scale
        log.busy_raw += wall
        log.requests += served
        for r in outcome.records:
            kind = ("cold" if r.built_session else
                    "warm" if r.warm_cache else "query")
            log.ops.append(Op(kind, r.wall_s, scale_of(r.qid), r.service_s,
                              r.latency, first_cycle))
        for u in outcome.update_records:
            log.ops.append(Op("update", u.wall_s, scale_of(u.qid),
                              u.service_s, u.latency, first_cycle))
        x = log.extra
        x["serve.pool_builds"] += outcome.pool_stats["builds"]
        x["serve.pool_reuses"] += outcome.pool_stats["reuses"]
        x["serve.queue_wait_sum"] += sum(r.start - r.arrival
                                         for r in outcome.records)
        x["serve.queries"] += len(outcome.records)
        x["serve.updates_coalesced"] += outcome.aggregates[
            "updates_coalesced"]
        x["serve.update_wall_sum"] += sum(u.wall_s
                                          for u in outcome.update_records)
        x["serve.updates"] += len(outcome.update_records)
        log.pending.append(outcome)

    def check(self, log: RoundLog) -> None:
        for outcome in log.pending:
            got = outcome.digests()
            for qid, digest in self.expected_digests.items():
                if got.get(qid) != digest:
                    log.fail(f"request {qid}: digest differs from the "
                             "serial oracle" if qid in got else
                             f"request {qid}: not served")
            for name, expected in self.expected_versions.items():
                if outcome.graph_versions.get(name) != expected:
                    log.fail(f"graph {name}: final version "
                             f"{outcome.graph_versions.get(name)} differs "
                             f"from the plain store's {expected}")
        log.pending.clear()


WORKLOADS = {w.name: w for w in (LCCReuse, LCCEvict, ServeRW, UncachedGrid)}
