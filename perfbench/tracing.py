"""The traced run: spans around the public functions of each layer.

Nothing under ``src/`` is instrumented.  :meth:`Patches.install`
replaces public functions and methods with wrappers that open a span,
call the original and close the span; :meth:`Patches.restore` puts
every original back.
A name bound with ``from ... import`` is patched where it is *used*
(``repro.serve.engine.apply_delta``, ``repro.graphstore.resident
.resync_distributed``, ...); methods are patched on their class, which
reaches every call through an instance.  ``execute_lcc`` and
``execute_tc`` import the batched replay lazily at call time, so
patching ``repro.core.replay`` reaches them.

Span names are ``<layer>.<what>``.  A span's *self time* is its
duration minus the time covered by its child spans; the benchmark's
own round span (``bench.round``) is the root, so its self time is the
part of the traced wall time no layer accounts for.  Self times of
every span add up to the root durations exactly; the accounting check
is that the unattributed remainder stays below
:data:`UNATTRIBUTED_TOLERANCE` of the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Optional

#: Share of the traced wall time that may fall outside every layer span.
UNATTRIBUTED_TOLERANCE = 0.05

#: The layers with wall-clock spans, by span-name prefix (``runtime``
#: is reported on the simulated clock only).
LAYERS = ("graph", "graphstore", "session", "core", "clampi", "dynamic",
          "serve")

ROOT_SPAN = "bench.round"


class Tracer:
    """In-memory span recorder with online self-time accounting.

    Spans are single-threaded and strictly nested, so a stack gives each
    closing span its parent and the time its children covered.  Closed
    spans are kept as ``(id, parent_id, name, start, end)`` while
    ``keep_spans`` is true (the first traced round), and written out
    when the benchmark ends.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.keep_spans = True
        self._stack: list[list] = []
        self._next_id = 0

    def push(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def pop(self) -> float:
        """Close the innermost span; returns its duration."""
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if self.keep_spans:
            self.spans.append((sid, parent[0] if parent else None, name,
                               start, end))
        return dur

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def _wrap(tracer: Tracer, fn: Callable, name: str,
          on_result: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop()
        if on_result is not None:
            on_result(tracer, args, result)
        return result
    return wrapper


# -- counters read from what a layer returns ---------------------------------

def _kernel_result(tracer: Tracer, args: tuple, result: Any) -> None:
    """Session.run: CLaMPI statistics and simulated time of the query."""
    raw = result.raw
    for stats in (getattr(raw, "offsets_cache_stats", None),
                  getattr(raw, "adj_cache_stats", None)):
        if not stats:
            continue
        c = tracer.counts
        c["clampi.hits"] += stats["hits"]
        c["clampi.misses"] += stats["misses"]
        c["clampi.evictions"] += (stats["capacity_evictions"]
                                  + stats["conflict_evictions"])
        c["clampi.insert_failures"] += stats["insert_failures"]
        c["clampi.bytes_fetched"] += stats["bytes_fetched"]
    tracer.counts["runtime.sim_comm_s"] += raw.comm_time
    tracer.counts["runtime.sim_comp_s"] += raw.comp_time


def _acquire_result(tracer: Tracer, args: tuple, result: Any) -> None:
    """Cluster acquire: did it reuse the resident cluster?"""
    tracer.counts["graphstore.reused"] += bool(args[0].last_reused)


def _delta_result(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["dynamic.affected_vertices"] += int(
        result.affected.shape[0])


def _targets() -> list[tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, on_result)`` for every patch."""
    from repro.clampi.cache import ClampiCache
    from repro.graph.csr import CSRGraph
    from repro.graph.distributed import DistributedCSR
    from repro.graphstore.grid2d import GridCluster2D
    from repro.graphstore.resident import Cluster1D
    from repro.graphstore.store import GraphStore
    from repro.serve.engine import AsyncServingEngine
    from repro.serve.pool import SessionPool
    from repro.serve.scheduler import SCHEDULERS
    from repro.session import Session

    def mod(name: str):
        return importlib.import_module(name)

    targets = [
        (CSRGraph, "from_edges", "graph.from_edges", None),
        (DistributedCSR, "__init__", "graph.distribute", None),
        (mod("repro.graphstore.grid2d"), "build_grid_blocks",
         "graph.distribute", None),
        (Cluster1D, "acquire", "graphstore.acquire", _acquire_result),
        (GridCluster2D, "acquire", "graphstore.acquire", _acquire_result),
        (Cluster1D, "resync", "graphstore.resync", None),
        (GridCluster2D, "resync", "graphstore.resync", None),
        (GraphStore, "apply", "graphstore.commit", None),
        (Session, "run", "session.run", _kernel_result),
        (Session, "sync_to", "session.sync", None),
        (Session, "close", "session.close", None),
        (mod("repro.core.replay"), "execute_lcc_batched", "core.replay",
         None),
        (mod("repro.core.replay"), "execute_tc_batched", "core.replay",
         None),
        (mod("repro.session"), "run_distributed_lcc_fast", "core.lcc_fast",
         None),
        (mod("repro.graphstore.grid2d"), "summa_stats", "core.summa", None),
        (mod("repro.graphstore.grid2d"), "execute_tc2d_spgemm",
         "core.spgemm", None),
        (mod("repro.graphstore.grid2d"), "execute_lcc2d", "core.lcc2d",
         None),
        (ClampiCache, "access_batch", "clampi.batch", None),
        (ClampiCache, "access", "clampi.scalar", None),
        (ClampiCache, "invalidate", "clampi.invalidate", None),
        (ClampiCache, "rekey", "clampi.rekey", None),
        (mod("repro.graphstore.store"), "apply_delta", "dynamic.apply_delta",
         _delta_result),
        (mod("repro.serve.engine"), "apply_delta", "dynamic.apply_delta",
         _delta_result),
        (mod("repro.session"), "apply_delta", "dynamic.apply_delta",
         _delta_result),
        (mod("repro.graphstore.resident"), "resync_distributed",
         "dynamic.resync_plan", None),
        (SessionPool, "acquire", "serve.pool_acquire", None),
        (AsyncServingEngine, "serve", "serve.engine", None),
    ]
    for cls in SCHEDULERS.values():
        if "pick" in vars(cls):
            targets.append((cls, "pick", "serve.pick", None))
    return targets


class Patches:
    """The installed wrappers, and the originals to put back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracing wrappers are already installed")
        for owner, attr, name, on_result in _targets():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patched = classmethod(_wrap(self.tracer, original.__func__,
                                            name, on_result))
            else:
                patched = _wrap(self.tracer, original, name, on_result)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
