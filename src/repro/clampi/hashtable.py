"""Bounded-probing hash index for cached entries.

CLaMPI indexes cached entries with a hash table whose size is a tunable
parameter (the paper spends Section III-B1 on choosing it: ~n/2 slots for
the offsets cache, a power-law-informed estimate for the adjacency cache).
We model it as open addressing with **bounded linear probing**: a lookup or
insert examines at most ``probe_limit`` slots.  An insert that finds its
whole probe window occupied by other keys is a **conflict** — in CLaMPI
this triggers eviction within the window (victim chosen by score) and is
one of the signals the adaptive tuner watches.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator

from repro.utils.errors import CacheError


class HashIndex:
    """Open-addressing hash table with a bounded probe window."""

    def __init__(self, nslots: int, probe_limit: int = 8):
        if nslots <= 0:
            raise CacheError(f"hash table needs >= 1 slot, got {nslots}")
        if probe_limit <= 0:
            raise CacheError(f"probe_limit must be >= 1, got {probe_limit}")
        self.nslots = int(nslots)
        self.probe_limit = min(int(probe_limit), self.nslots)
        self._slots: list[tuple[Hashable, Any] | None] = [None] * self.nslots
        self._count = 0
        self.conflicts = 0  # inserts that found a full probe window

    def __len__(self) -> int:
        return self._count

    @property
    def load_factor(self) -> float:
        return self._count / self.nslots

    def _probe(self, key: Hashable) -> Iterator[int]:
        start = hash(key) % self.nslots
        for i in range(self.probe_limit):
            yield (start + i) % self.nslots

    # -- operations -------------------------------------------------------------
    def lookup(self, key: Hashable) -> Any | None:
        """Return the stored value or None."""
        for idx in self._probe(key):
            slot = self._slots[idx]
            if slot is None:
                return None
            if slot[0] == key:
                return slot[1]
        return None

    def insert(self, key: Hashable, value: Any) -> bool:
        """Insert or update; False (and a conflict count) if the window is full.

        The caller is expected to react to a False return by evicting one of
        :meth:`probe_window` and retrying.
        """
        free_idx = None
        for idx in self._probe(key):
            slot = self._slots[idx]
            if slot is None:
                if free_idx is None:
                    free_idx = idx
                break  # probing stops at the first empty slot
            if slot[0] == key:
                self._slots[idx] = (key, value)
                return True
        if free_idx is None:
            self.conflicts += 1
            return False
        self._slots[free_idx] = (key, value)
        self._count += 1
        return True

    def free_slot(self, key: Hashable) -> int | None:
        """Slot :meth:`insert` would fill for an absent ``key``; changes nothing.

        None when the probe window is full (the insert would conflict).
        """
        n = self.nslots
        home = hash(key) % n
        slots = self._slots
        for i in range(self.probe_limit):
            idx = (home + i) % n
            if slots[idx] is None:
                return idx
        return None

    def put(self, idx: int, key: Hashable, value: Any) -> None:
        """Store an absent ``key`` in the slot :meth:`free_slot` returned."""
        if self._slots[idx] is not None:
            raise CacheError(f"hash index: slot {idx} is occupied")
        self._slots[idx] = (key, value)
        self._count += 1

    def remove(self, key: Hashable) -> Any:
        """Remove ``key`` and return its value; raises CacheError if absent.

        Removal re-inserts the tail of the probe cluster so lookups never
        break across the hole (standard open-addressing backshift).
        """
        target_idx = None
        for idx in self._probe(key):
            slot = self._slots[idx]
            if slot is None:
                break
            if slot[0] == key:
                target_idx = idx
                break
        if target_idx is None:
            raise CacheError(f"hash index: key not present: {key!r}")
        value = self._slots[target_idx][1]  # type: ignore[index]
        self._slots[target_idx] = None
        self._count -= 1
        # Backshift: rehash the contiguous cluster following the hole.
        idx = (target_idx + 1) % self.nslots
        scanned = 0
        while self._slots[idx] is not None and scanned < self.nslots:
            k, v = self._slots[idx]  # type: ignore[misc]
            self._slots[idx] = None
            self._count -= 1
            if not self.insert(k, v):
                # Cannot happen: removing freed a slot inside the window.
                raise CacheError("hash index backshift failed")  # pragma: no cover
            idx = (idx + 1) % self.nslots
            scanned += 1
        return value

    def probe_window(self, key: Hashable) -> list[tuple[Hashable, Any]]:
        """Occupied (key, value) pairs in ``key``'s probe window."""
        out = []
        for idx in self._probe(key):
            slot = self._slots[idx]
            if slot is not None:
                out.append(slot)
        return out

    def items(self) -> Iterator[tuple[Hashable, Any]]:
        for slot in self._slots:
            if slot is not None:
                yield slot

    def clear(self) -> None:
        self._slots = [None] * self.nslots
        self._count = 0
