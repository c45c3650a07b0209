"""Tests for the best-fit buffer allocator."""

import numpy as np
import pytest

from repro.clampi.allocator import BufferAllocator
from repro.utils.errors import AllocationError


class TestBasicAllocation:
    def test_simple_alloc_free(self):
        a = BufferAllocator(100)
        off = a.alloc(40)
        assert off == 0
        assert a.used_bytes == 40
        assert a.free(off) == 40
        assert a.used_bytes == 0
        a.check_invariants()

    def test_full_allocation(self):
        a = BufferAllocator(64)
        assert a.alloc(64) == 0
        assert a.alloc(1) is None
        assert a.free_bytes == 0

    def test_alloc_returns_none_when_no_fit(self):
        a = BufferAllocator(100)
        a.alloc(60)
        assert a.alloc(50) is None

    def test_zero_size_rejected(self):
        a = BufferAllocator(10)
        with pytest.raises(AllocationError):
            a.alloc(0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(AllocationError):
            BufferAllocator(0)

    def test_double_free_rejected(self):
        a = BufferAllocator(10)
        off = a.alloc(5)
        a.free(off)
        with pytest.raises(AllocationError):
            a.free(off)

    def test_free_unknown_offset_rejected(self):
        a = BufferAllocator(10)
        with pytest.raises(AllocationError):
            a.free(3)


class TestBestFit:
    def test_best_fit_prefers_smallest_hole(self):
        a = BufferAllocator(100)
        o1 = a.alloc(30)   # [0, 30)
        o2 = a.alloc(10)   # [30, 40)
        o3 = a.alloc(30)   # [40, 70)
        a.free(o2)         # 10-byte hole at 30, 30-byte tail at 70
        # A 10-byte request must take the 10-byte hole, not the tail.
        assert a.alloc(10) == 30

    def test_split_leaves_remainder(self):
        a = BufferAllocator(100)
        o1 = a.alloc(100)
        a.free(o1)
        a.alloc(60)
        assert a.largest_free_block() == 40


class TestBumpRun:
    """``commit_run`` of a run within ``bump_run``'s bounds equals alloc()s."""

    @staticmethod
    def state(a):
        return a.used_blocks(), list(a._free_by_size), a.free_bytes

    def test_fresh_buffer_bumps_from_zero(self):
        a, b = BufferAllocator(100), BufferAllocator(100)
        assert a.bump_run() == (0, 100, 0)
        sizes = [30, 10, 25]
        a.commit_run(0, sizes)
        assert [b.alloc(s) for s in sizes] == [0, 30, 40]
        assert self.state(a) == self.state(b)
        a.check_invariants()

    def test_floor_is_the_second_largest_region(self):
        a = BufferAllocator(100)
        o = [a.alloc(s) for s in (20, 10, 30)]  # tail [60, 100)
        a.free(o[1])                            # 10-byte hole at 20
        assert a.bump_run() == (60, 40, 10)
        # Larger than the hole: best fit takes the bump region.
        assert a.alloc(11) == 60
        # Not larger: best fit takes the hole instead.
        assert a.alloc(10) == 20

    def test_whole_region_run(self):
        a = BufferAllocator(64)
        a.commit_run(0, [32, 32])
        assert a.free_bytes == 0 and a.bump_run() == (0, 0, 0)
        a.check_invariants()

    def test_oversized_run_rejected(self):
        a = BufferAllocator(64)
        with pytest.raises(AllocationError):
            a.commit_run(0, [40, 40])
        with pytest.raises(AllocationError):
            a.commit_run(8, [4])  # not the head of a free region
        a.commit_run(0, [])       # an empty run changes nothing
        assert a.free_bytes == 64


class TestCoalescing:
    def test_adjacent_frees_merge(self):
        a = BufferAllocator(100)
        offs = [a.alloc(25) for _ in range(4)]
        a.free(offs[1])
        a.free(offs[2])
        # The two interior blocks must have merged into one 50-byte region.
        assert a.largest_free_block() == 50
        assert a.n_free_regions() == 1
        a.check_invariants()

    def test_merge_both_sides(self):
        a = BufferAllocator(90)
        o1, o2, o3 = a.alloc(30), a.alloc(30), a.alloc(30)
        a.free(o1)
        a.free(o3)
        a.free(o2)  # merges with both neighbours
        assert a.n_free_regions() == 1
        assert a.largest_free_block() == 90
        a.check_invariants()

    def test_fragmentation_metric(self):
        a = BufferAllocator(100)
        offs = [a.alloc(20) for _ in range(5)]
        a.free(offs[0])
        a.free(offs[2])
        a.free(offs[4])
        # Three separate 20-byte regions: largest 20 of 60 free.
        assert a.external_fragmentation() == pytest.approx(1 - 20 / 60)
        assert a.n_free_regions() == 3

    def test_no_fragmentation_when_contiguous(self):
        a = BufferAllocator(100)
        a.alloc(50)
        assert a.external_fragmentation() == 0.0


class TestAdjacentFree:
    def test_adjacent_free_measures_neighbours(self):
        a = BufferAllocator(100)
        o1, o2, o3 = a.alloc(30), a.alloc(30), a.alloc(30)  # 10 free at tail
        assert a.adjacent_free(o2) == 0
        a.free(o1)
        assert a.adjacent_free(o2) == 30
        a.free(o3)
        assert a.adjacent_free(o2) == 70  # 30 before + 30 + 10 after

    def test_adjacent_free_unknown_block_rejected(self):
        a = BufferAllocator(10)
        with pytest.raises(AllocationError):
            a.adjacent_free(0)


class TestChurn:
    def test_random_churn_conserves_bytes(self):
        rng = np.random.default_rng(11)
        a = BufferAllocator(1 << 14)
        live: dict[int, int] = {}
        for _ in range(3000):
            if live and rng.random() < 0.45:
                off = int(rng.choice(list(live)))
                del live[off]
                a.free(off)
            else:
                size = int(rng.integers(1, 600))
                off = a.alloc(size)
                if off is not None:
                    live[off] = size
        a.check_invariants()
        assert a.used_bytes == sum(live.values())
