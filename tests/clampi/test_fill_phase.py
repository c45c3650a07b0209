"""Pin where ``access_batch`` resolves misses: in bulk or on the scalar path.

A cache is in its *fill phase* from creation (or a flush or resize) until
the first insert that needs an eviction or finds its probe window full.
While it lasts, and without an adaptive tuner, ``access_batch`` resolves
misses in bulk; the miss that ends it and every later one take the scalar
:meth:`ClampiCache.access`.  These tests record both paths on real cached
queries and check the split, and that the answers still equal the
per-edge loop's.
"""

import numpy as np
import pytest

from repro.clampi.cache import ClampiCache
from repro.core.config import CacheSpec, LCCConfig
from repro.graph.generators import powerlaw_configuration
from repro.session import Session

GRAPH = powerlaw_configuration(300, 2000, seed=5)


@pytest.fixture
def calls(monkeypatch):
    """Per-cache log of ``("bulk" | "scalar", filling before, after)``."""
    log: dict[int, list] = {}
    access, fill_run = ClampiCache.access, ClampiCache._fill_run

    def record(kind, inner):
        def wrapper(self, *args):
            before = self._filling
            out = inner(self, *args)
            log.setdefault(id(self), []).append((kind, before,
                                                 self._filling))
            return out
        return wrapper

    monkeypatch.setattr(ClampiCache, "access", record("scalar", access))
    monkeypatch.setattr(ClampiCache, "_fill_run", record("bulk", fill_run))
    return log


def run_cold(cache: CacheSpec, fast_path: bool = True):
    config = LCCConfig(nranks=4, cache=cache, fast_path=fast_path)
    with Session(GRAPH, config) as session:
        return session.run("lcc", keep_cache=True)


def test_roomy_cold_lcc_reaches_scalar_only_past_the_fill_phase(calls):
    spec = CacheSpec.relative(GRAPH.nbytes, 0.5, 1.0)
    result = run_cold(spec)
    events = [e for log in calls.values() for e in log]
    scalar = [e for e in events if e[0] == "scalar"]
    misses = (result.adj_cache_stats["misses"]
              + result.offsets_cache_stats["misses"])
    assert any(e[0] == "bulk" for e in events)
    # A scalar miss either came after the fill phase ended, or is the
    # miss that could not insert freely and so ended it.
    assert all(not after for _, _, after in scalar)
    assert len(scalar) < misses / 2
    # The bulk path changes no answer.
    calls.clear()
    oracle = run_cold(spec, fast_path=False)
    assert result.outcome.clocks == oracle.outcome.clocks
    assert result.adj_cache_stats == oracle.adj_cache_stats
    assert result.offsets_cache_stats == oracle.offsets_cache_stats
    assert np.array_equal(result.lcc, oracle.lcc)


def test_pressured_cache_makes_no_bulk_attempt_after_the_fill_phase(calls):
    spec = CacheSpec.paper_split(GRAPH.nbytes // 4, GRAPH.n, score="degree")
    config = LCCConfig(nranks=4, cache=spec)
    with Session(GRAPH, config) as session:
        session.run("lcc", keep_cache=True)
        session.run("lcc", keep_cache=True)  # warm: still past the phase
        adj_caches = session._adj_caches
    assert all(not cache._filling for cache in adj_caches)
    for cache in adj_caches:
        log = calls[id(cache)]
        ended = next(i for i, (_, before, after) in enumerate(log)
                     if before and not after)
        assert all(kind == "scalar" for kind, _, _ in log[ended + 1:])
