"""Tests for the bounded-probing hash index."""

import pytest

from repro.clampi.hashtable import HashIndex
from repro.utils.errors import CacheError


class TestBasicOps:
    def test_insert_lookup(self):
        h = HashIndex(64)
        assert h.insert(("k", 1), "v1")
        assert h.lookup(("k", 1)) == "v1"
        assert h.lookup(("k", 2)) is None
        assert len(h) == 1

    def test_update_in_place(self):
        h = HashIndex(64)
        h.insert("a", 1)
        h.insert("a", 2)
        assert h.lookup("a") == 2
        assert len(h) == 1

    def test_remove(self):
        h = HashIndex(64)
        h.insert("a", 1)
        assert h.remove("a") == 1
        assert h.lookup("a") is None
        assert len(h) == 0

    def test_remove_missing_rejected(self):
        h = HashIndex(16)
        with pytest.raises(CacheError):
            h.remove("nope")

    def test_invalid_geometry_rejected(self):
        with pytest.raises(CacheError):
            HashIndex(0)
        with pytest.raises(CacheError):
            HashIndex(8, probe_limit=0)

    def test_clear(self):
        h = HashIndex(16)
        for i in range(5):
            h.insert(i, i)
        h.clear()
        assert len(h) == 0
        assert h.lookup(3) is None


class TestProbing:
    def test_conflict_when_window_full(self):
        # One slot, probe window of 1: second distinct key must conflict.
        h = HashIndex(1, probe_limit=1)
        assert h.insert("a", 1)
        assert not h.insert("b", 2)
        assert h.conflicts == 1
        # The resident key is still intact.
        assert h.lookup("a") == 1

    def test_probe_window_lists_occupants(self):
        h = HashIndex(1, probe_limit=1)
        h.insert("a", 1)
        window = h.probe_window("b")
        assert window == [("a", 1)]

    def test_conflict_eviction_allows_insert(self):
        h = HashIndex(1, probe_limit=1)
        h.insert("a", 1)
        assert not h.insert("b", 2)
        h.remove("a")
        assert h.insert("b", 2)
        assert h.lookup("b") == 2

    def test_free_slot_is_where_insert_lands(self):
        h, twin = HashIndex(4, probe_limit=2), HashIndex(4, probe_limit=2)
        for key in range(3):
            slot = h.free_slot(key)
            h.put(slot, key, key)
            twin.insert(key, key)
        assert h._slots == twin._slots
        assert len(h) == len(twin) == 3

    def test_free_slot_none_when_window_full(self):
        h = HashIndex(1, probe_limit=1)
        h.insert("a", 1)
        assert h.free_slot("b") is None
        assert h.conflicts == 0  # the probe changes nothing

    def test_put_refuses_an_occupied_slot(self):
        h = HashIndex(1, probe_limit=1)
        h.insert("a", 1)
        with pytest.raises(CacheError):
            h.put(0, "b", 2)

    def test_load_factor(self):
        h = HashIndex(10)
        for i in range(5):
            h.insert(i, i)
        assert h.load_factor == pytest.approx(0.5)


class TestBackshift:
    def test_lookup_survives_removal_in_cluster(self):
        # Force collisions by using a table where many keys share slots.
        h = HashIndex(8, probe_limit=8)
        keys = list(range(40, 48))  # fill every slot
        inserted = [k for k in keys if h.insert(k, k * 10)]
        assert len(inserted) >= 4
        victim = inserted[0]
        h.remove(victim)
        for k in inserted[1:]:
            assert h.lookup(k) == k * 10, f"lost key {k} after backshift"

    def test_churn(self):
        h = HashIndex(128, probe_limit=8)
        live = {}
        for i in range(2000):
            k = i % 150
            if k in live:
                h.remove(k)
                del live[k]
            else:
                if h.insert(k, k):
                    live[k] = k
        for k, v in live.items():
            assert h.lookup(k) == v
        assert len(h) == len(live)

    def test_items_iterates_all(self):
        h = HashIndex(64)
        for i in range(10):
            h.insert(i, str(i))
        assert dict(h.items()) == {i: str(i) for i in range(10)}
