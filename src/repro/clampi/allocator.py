"""Best-fit variable-size allocator over a bounded cache buffer.

CLaMPI reserves a contiguous memory buffer for cached entries and tracks
the *free* regions in an AVL tree.  Because entries have variable sizes
(adjacency lists are as long as the vertex degree), the buffer suffers
**external fragmentation**: free space may exist but be split into pieces
too small for a new entry.  The paper's positional eviction score exists
precisely to fight this; the allocator therefore exposes
:meth:`BufferAllocator.adjacent_free`, the amount of free space bordering a
used block (how much would coalesce if the block were evicted).

No real bytes live here — the simulated cache stores NumPy arrays — but the
offsets are real, so fragmentation behaves exactly as it would in C.
"""

from __future__ import annotations

from repro.clampi.avl import AVLTree
from repro.utils.errors import AllocationError


class BufferAllocator:
    """Offset-based best-fit allocator with free-region coalescing."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise AllocationError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.free_bytes = self.capacity
        # Free regions: AVL of (size, start) for best-fit; dicts for coalescing.
        self._free_by_size = AVLTree()
        self._free_start_to_size: dict[int, int] = {}
        self._free_end_to_start: dict[int, int] = {}
        # Used blocks: start -> size.
        self._used: dict[int, int] = {}
        self._add_free(0, self.capacity)

    # -- free-region bookkeeping ---------------------------------------------
    def _add_free(self, start: int, size: int) -> None:
        self._free_by_size.insert((size, start))
        self._free_start_to_size[start] = size
        self._free_end_to_start[start + size] = start

    def _remove_free(self, start: int, size: int) -> None:
        self._free_by_size.remove((size, start))
        del self._free_start_to_size[start]
        del self._free_end_to_start[start + size]

    # -- public API ----------------------------------------------------------
    def alloc(self, size: int) -> int | None:
        """Allocate ``size`` bytes; returns the offset or None if impossible.

        Best fit: the smallest free region that can hold ``size``.  Returning
        None (rather than raising) mirrors CLaMPI, which simply does not cache
        an entry it cannot place and lets the caller decide whether to evict.
        """
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        best = self._free_by_size.ceiling((size, -1))
        if best is None:
            return None
        region_size, start = best
        self._remove_free(start, region_size)
        if region_size > size:
            self._add_free(start + size, region_size - size)
        self._used[start] = size
        self.free_bytes -= size
        return start

    def bump_run(self) -> tuple[int, int, int]:
        """``(start, room, floor)``: where best fit places a run of allocations.

        ``start`` and ``room`` are the head and size of the largest free
        region, ``floor`` the size of the largest *other* one.  While each
        allocation of a run is larger than ``floor`` and the run so far
        still fits in ``room``, every other region is too small, so best
        fit places the allocations back to back from ``start`` — exactly
        what :meth:`commit_run` records.
        """
        top = self._free_by_size.max()
        if top is None:
            return 0, 0, 0
        room, start = top
        below = self._free_by_size.floor((room, start - 1))
        return start, room, below[0] if below is not None else 0

    def commit_run(self, start: int, sizes: list[int]) -> None:
        """Record ``sizes`` allocated back to back from free region ``start``.

        The state equals one :meth:`alloc` per size when the run obeys
        :meth:`bump_run`'s bounds, at the cost of one AVL update.
        """
        if not sizes:
            return
        region = self._free_start_to_size.get(start)
        total = sum(sizes)
        if region is None or total > region or min(sizes) <= 0:
            raise AllocationError(
                f"run of {total} bytes does not fit free region at {start}")
        self._remove_free(start, region)
        if region > total:
            self._add_free(start + total, region - total)
        used = self._used
        for size in sizes:
            used[start] = size
            start += size
        self.free_bytes -= total

    def free(self, offset: int) -> int:
        """Release the block at ``offset``; returns its size.

        Adjacent free regions are coalesced immediately, so the free list is
        always maximal (two free regions never touch).
        """
        try:
            size = self._used.pop(offset)
        except KeyError:
            raise AllocationError(f"no used block at offset {offset}") from None
        start, end = offset, offset + size
        # Coalesce with the free region ending exactly at our start.
        prev_start = self._free_end_to_start.get(start)
        if prev_start is not None:
            prev_size = self._free_start_to_size[prev_start]
            self._remove_free(prev_start, prev_size)
            start = prev_start
        # Coalesce with the free region starting exactly at our end.
        next_size = self._free_start_to_size.get(end)
        if next_size is not None:
            self._remove_free(end, next_size)
            end += next_size
        self._add_free(start, end - start)
        self.free_bytes += size
        return size

    # -- inspection -------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self.capacity - self.free_bytes

    def block_size(self, offset: int) -> int:
        """Size of the used block at ``offset``."""
        try:
            return self._used[offset]
        except KeyError:
            raise AllocationError(f"no used block at offset {offset}") from None

    def largest_free_block(self) -> int:
        """Largest contiguous free region (0 when full)."""
        top = self._free_by_size.max()
        return top[0] if top is not None else 0

    def external_fragmentation(self) -> float:
        """1 - largest_free/free_total; 0 = one contiguous free region."""
        if self.free_bytes == 0:
            return 0.0
        return 1.0 - self.largest_free_block() / self.free_bytes

    def adjacent_free(self, offset: int) -> int:
        """Free bytes bordering the used block at ``offset``.

        This is the paper's positional signal: a block surrounded by free
        space would, if evicted, produce a large coalesced region, so it is a
        preferred victim even at equal temporal locality.
        """
        size = self.block_size(offset)
        total = 0
        prev_start = self._free_end_to_start.get(offset)
        if prev_start is not None:
            total += self._free_start_to_size[prev_start]
        nxt = self._free_start_to_size.get(offset + size)
        if nxt is not None:
            total += nxt
        return total

    def n_free_regions(self) -> int:
        return len(self._free_start_to_size)

    def n_used_blocks(self) -> int:
        return len(self._used)

    def used_blocks(self) -> dict[int, int]:
        """Snapshot of used blocks (offset -> size)."""
        return dict(self._used)

    # -- validation (test hook) ---------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the free/used accounting exactly tiles the buffer."""
        self._free_by_size.check_invariants()
        regions = sorted(
            [(s, sz, "free") for s, sz in self._free_start_to_size.items()]
            + [(s, sz, "used") for s, sz in self._used.items()]
        )
        cursor = 0
        prev_kind = None
        for start, size, kind in regions:
            assert start == cursor, f"gap/overlap at offset {cursor} vs {start}"
            assert size > 0, f"empty region at {start}"
            if kind == "free":
                assert prev_kind != "free", f"uncoalesced free regions at {start}"
            cursor = start + size
            prev_kind = kind
        assert cursor == self.capacity, f"buffer not tiled: {cursor} != {self.capacity}"
        assert self.free_bytes == sum(self._free_start_to_size.values())
