"""Property-based equivalence of ``access_batch`` and scalar ``access``.

Twin caches (identical config, seed and window) are driven with the same
random access stream — one through :meth:`ClampiCache.access_batch` in
chunks, the other one access at a time.  Whatever the geometry, policy and
stream, they must agree on every hit/miss verdict, every duration, the
accumulated timing, the statistics, and both must pass
``check_invariants()`` at every chunk boundary.

The tight geometries mostly exercise the eviction path; the roomy ones
(buffer at or above the working set, many more hash slots than keys, long
Zipf-skewed streams) keep the caches in their fill phase, where
``access_batch`` resolves misses in bulk, and also cover the fill-to-evict
transition inside one batch, flushes, invalidations and rekeys between
batches, and an adaptive tuner resizing mid-stream.  There the twins are
compared on their full state: every counter, the clock, the eviction RNG,
the allocator and hash-slot layout, the key order and every entry.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clampi.adaptive import AdaptiveConfig
from repro.clampi.cache import BatchStream, ClampiCache, ClampiConfig
from repro.clampi.scores import AppScorePolicy, DefaultScorePolicy, LRUScorePolicy
from repro.runtime.window import Window

N = 96

accesses = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1),       # target rank
              st.integers(min_value=0, max_value=N - 9),   # offset
              st.integers(min_value=1, max_value=8)),      # count
    min_size=1, max_size=150,
)

geometries = st.tuples(
    st.integers(min_value=48, max_value=1024),   # capacity bytes (tight)
    st.integers(min_value=2, max_value=48),      # hash slots
)

policies = st.sampled_from(["default", "lru", "degree"])

chunk_sizes = st.integers(min_value=1, max_value=40)


def make_window() -> Window:
    return Window("adj", [np.arange(N, dtype=np.int64),
                          np.arange(5000, 5000 + N, dtype=np.int64)])


def make_cache(window: Window, capacity: int, nslots: int,
               policy_name: str, adaptive: AdaptiveConfig | None = None
               ) -> ClampiCache:
    if policy_name == "degree":
        cfg = ClampiConfig(capacity_bytes=capacity, nslots=nslots,
                           score_policy=AppScorePolicy(),
                           app_score_fn=lambda t, o, c, d: float(c),
                           adaptive=adaptive)
    else:
        policy = (DefaultScorePolicy() if policy_name == "default"
                  else LRUScorePolicy())
        cfg = ClampiConfig(capacity_bytes=capacity, nslots=nslots,
                           score_policy=policy, adaptive=adaptive)
    return ClampiCache(window, 0, cfg)


def assert_same_state(batched: ClampiCache, scalar: ClampiCache) -> None:
    """Everything that drives future verdicts, durations and evictions."""
    assert dataclasses.asdict(batched.stats) == dataclasses.asdict(scalar.stats)
    assert batched._clock == scalar._clock
    assert batched._rng.getstate() == scalar._rng.getstate()
    assert batched._seen == scalar._seen
    assert batched._filling == scalar._filling
    assert batched.config.nslots == scalar.config.nslots
    assert batched.config.capacity_bytes == scalar.config.capacity_bytes
    ba, sa = batched.allocator, scalar.allocator
    assert ba.used_blocks() == sa.used_blocks()
    assert ba._free_start_to_size == sa._free_start_to_size
    assert list(ba._free_by_size) == list(sa._free_by_size)
    assert ba.free_bytes == sa.free_bytes
    assert ([None if s is None else s[0] for s in batched.index._slots]
            == [None if s is None else s[0] for s in scalar.index._slots])
    assert batched._keys == scalar._keys
    assert batched._key_pos == scalar._key_pos
    n = len(batched._keys)
    assert np.array_equal(batched._mirror[:n], scalar._mirror[:n])
    for be, se in zip(batched.entries(), scalar.entries()):
        assert be.key == se.key
        assert be.last_access == se.last_access
        assert be.n_accesses == se.n_accesses
        assert be.buffer_offset == se.buffer_offset
        assert be.nbytes == se.nbytes
        assert be.app_score == se.app_score
        assert be.data.dtype == se.data.dtype
        assert np.array_equal(be.data, se.data)


@given(accesses, geometries, policies, chunk_sizes)
@settings(max_examples=100, deadline=None)
def test_batch_equals_scalar(stream, geometry, policy, chunk):
    capacity, nslots = geometry
    window = make_window()
    window.lock_all(0)
    batched = make_cache(window, capacity, nslots, policy)
    scalar = make_cache(window, capacity, nslots, policy)

    keys = np.array(stream, dtype=np.int64)
    for lo in range(0, keys.shape[0], chunk):
        part = keys[lo:lo + chunk]
        durations, hits = batched.access_batch(part[:, 0], part[:, 1],
                                               part[:, 2])
        for i, (t, o, c) in enumerate(part):
            _, dt, hit = scalar.access(int(t), int(o), int(c))
            assert hit == bool(hits[i]), (lo + i, (t, o, c))
            assert dt == durations[i], (lo + i, (t, o, c))
        # Timing sums and statistics agree at every chunk boundary...
        assert batched.stats.mgmt_time == scalar.stats.mgmt_time
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        assert len(batched) == len(scalar)
        assert batched.used_bytes == scalar.used_bytes
        # ...and both caches stay internally consistent.
        batched.check_invariants()
        scalar.check_invariants()

    # Entry metadata, layout and RNG (drive future evictions) tracked too.
    assert_same_state(batched, scalar)


@given(accesses, geometries, policies)
@settings(max_examples=40, deadline=None)
def test_prebuilt_stream_replay(stream, geometry, policy):
    """A shared BatchStream replayed twice matches two scalar passes."""
    capacity, nslots = geometry
    window = make_window()
    window.lock_all(0)
    batched = make_cache(window, capacity, nslots, policy)
    scalar = make_cache(window, capacity, nslots, policy)

    keys = np.array(stream, dtype=np.int64)
    prepared = BatchStream(keys[:, 0], keys[:, 1], keys[:, 2])
    for _ in range(2):  # second pass reuses the cache's per-stream memo
        durations, hits = batched.access_batch(stream=prepared)
        for i, (t, o, c) in enumerate(keys):
            _, dt, hit = scalar.access(int(t), int(o), int(c))
            assert hit == bool(hits[i])
            assert dt == durations[i]
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        batched.check_invariants()
    assert_same_state(batched, scalar)


def test_batch_rejects_bad_shapes():
    import pytest

    from repro.utils.errors import CacheError

    window = make_window()
    window.lock_all(0)
    cache = make_cache(window, 256, 8, "default")
    with pytest.raises(CacheError):
        cache.access_batch(np.zeros(3, dtype=np.int64),
                           np.zeros(2, dtype=np.int64),
                           np.zeros(3, dtype=np.int64))


def test_empty_batch():
    window = make_window()
    window.lock_all(0)
    cache = make_cache(window, 256, 8, "default")
    durations, hits = cache.access_batch(np.zeros(0, dtype=np.int64),
                                         np.zeros(0, dtype=np.int64),
                                         np.zeros(0, dtype=np.int64))
    assert durations.shape == hits.shape == (0,)
    assert cache.stats.accesses == 0


# -- roomy geometries: the fill-phase bulk path --------------------------------

def zipf_stream(seed: int, n_keys: int, length: int, skew: float,
                empty_share: float) -> tuple[np.ndarray, np.ndarray]:
    """A Zipf-skewed access stream over ``n_keys`` distinct keys.

    Returns ``(stream, pool)``: the stream rows and the distinct key pool.
    ``empty_share`` of the keys read zero elements, which no insert holds.
    """
    rng = np.random.default_rng(seed)
    cells = rng.choice(2 * (N - 8), size=n_keys, replace=False)
    counts = rng.integers(1, 9, size=n_keys)
    counts[rng.random(n_keys) < empty_share] = 0
    pool = np.stack([cells // (N - 8), cells % (N - 8), counts], axis=1)
    weights = 1.0 / np.arange(1, n_keys + 1) ** skew
    picks = rng.choice(n_keys, size=length, p=weights / weights.sum())
    return pool[picks].astype(np.int64), pool.astype(np.int64)


roomy_streams = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),     # stream seed
    st.integers(min_value=8, max_value=160),           # distinct keys
    st.integers(min_value=200, max_value=1500),        # stream length
    st.floats(min_value=0.6, max_value=1.6),           # Zipf skew
    st.sampled_from([0.0, 0.0, 0.1]),                  # empty-read share
)

#: Buffer size as a multiple of the stream's working set: at or above it
#: the whole stream fills, below it the fill phase ends mid-stream.
capacity_factors = st.sampled_from([0.3, 0.7, 1.0, 1.0, 1.5, 3.0])

slot_factors = st.sampled_from([1, 4, 8, 32])

#: What happens to the batched twin (and the scalar one, at the same
#: point) between two chunks.
between = st.sampled_from(["none", "none", "flush", "invalidate", "rekey"])


def run_twins(batched, scalar, keys, chunk, hook, hook_rng):
    """Drive both twins chunk by chunk, comparing after each one."""
    for lo in range(0, keys.shape[0], chunk):
        part = keys[lo:lo + chunk]
        fallbacks = batched.scalar_fallbacks
        durations, hits = batched.access_batch(part[:, 0], part[:, 1],
                                               part[:, 2])
        for i, (t, o, c) in enumerate(part):
            _, dt, hit = scalar.access(int(t), int(o), int(c))
            assert hit == bool(hits[i]), (lo + i, (t, o, c))
            assert dt == durations[i], (lo + i, (t, o, c))
        if batched._filling and batched._tuner is None:
            # A chunk that never left the fill phase ran fully in bulk.
            assert batched.scalar_fallbacks == fallbacks
        assert_same_state(batched, scalar)
        batched.check_invariants()
        scalar.check_invariants()
        if hook == "flush":
            batched.flush()
            scalar.flush()
        elif hook == "invalidate" and len(batched):
            live = list(batched._keys)
            drop = [live[i] for i in hook_rng.choice(
                len(live), size=max(1, len(live) // 3), replace=False)]
            assert batched.invalidate(drop) == scalar.invalidate(drop)
        elif hook == "rekey" and len(batched):
            live = list(batched._keys)
            moved = [(k, (k[0], k[1] + 1, k[2])) for k in live[::3]]
            assert batched.rekey(moved) == scalar.rekey(moved)
        assert_same_state(batched, scalar)


@given(roomy_streams, capacity_factors, slot_factors, policies,
       st.integers(min_value=20, max_value=2000), between)
@settings(max_examples=60, deadline=None)
def test_roomy_batch_equals_scalar(spec, cap_factor, slot_factor, policy,
                                   chunk, hook):
    keys, pool = zipf_stream(*spec)
    working_set = int(pool[:, 2].sum()) * 8
    capacity = max(8, int(cap_factor * working_set))
    nslots = slot_factor * pool.shape[0]
    window = make_window()
    window.lock_all(0)
    batched = make_cache(window, capacity, nslots, policy)
    scalar = make_cache(window, capacity, nslots, policy)
    run_twins(batched, scalar, keys, chunk, hook,
              np.random.default_rng(spec[0]))


@given(roomy_streams, policies, st.integers(min_value=20, max_value=400))
@settings(max_examples=25, deadline=None)
def test_adaptive_resize_mid_stream(spec, policy, chunk):
    """A tuner growing the hash table flushes mid-batch; twins still agree."""
    keys, pool = zipf_stream(*spec)
    capacity = int(pool[:, 2].sum()) * 8 + 8
    adaptive = AdaptiveConfig(check_interval=32, conflict_threshold=0.0,
                              max_nslots=4096)
    window = make_window()
    window.lock_all(0)
    batched = make_cache(window, capacity, 4, policy, adaptive)
    scalar = make_cache(window, capacity, 4, policy, adaptive)
    run_twins(batched, scalar, keys, chunk, "none", None)
    if pool.shape[0] > 32:
        assert batched.stats.adaptive_resizes > 0


def test_fill_to_evict_inside_one_batch():
    """The fill phase ends mid-batch; the rest of the batch goes scalar."""
    keys, pool = zipf_stream(7, 120, 1500, 0.8, 0.0)
    capacity = int(pool[:, 2].sum()) * 8 // 2
    window = make_window()
    window.lock_all(0)
    batched = make_cache(window, capacity, 4 * pool.shape[0], "default")
    scalar = make_cache(window, capacity, 4 * pool.shape[0], "default")
    run_twins(batched, scalar, keys, keys.shape[0], "none", None)
    assert not batched._filling
    assert batched.stats.capacity_evictions > 0
    # The bulk prefix took the fill phase's misses, the scalar path the rest.
    assert 0 < batched.scalar_fallbacks < batched.stats.misses
