"""An indexed binary min-heap supporting decrease-key and removal.

The storage caches need a priority queue where an entry's priority can
change (a key's frequency or next use) without tombstone buildup.  This
implementation keeps a position index so ``update`` / ``remove`` are
O(log n) and membership checks are O(1).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

__all__ = ["IndexedHeap"]


class IndexedHeap:
    """Min-heap of ``(priority, key)`` with O(log n) update and removal.

    Keys must be hashable and unique.  Priorities are compared with ``<``;
    tuples are the usual choice for tie-breaking.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[Any, Hashable]] = []
        self._pos: Dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._pos

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, key: Hashable, priority: Any) -> None:
        """Insert ``key`` with ``priority``; raises if already present."""
        if key in self._pos:
            raise KeyError(f"key {key!r} already in heap")
        self._heap.append((priority, key))
        idx = len(self._heap) - 1
        self._pos[key] = idx
        self._sift_up(idx)

    def peek(self) -> Tuple[Hashable, Any]:
        """Return ``(key, priority)`` of the minimum without removing it."""
        if not self._heap:
            raise IndexError("peek from empty heap")
        priority, key = self._heap[0]
        return key, priority

    def pop(self) -> Tuple[Hashable, Any]:
        """Remove and return ``(key, priority)`` of the minimum."""
        if not self._heap:
            raise IndexError("pop from empty heap")
        priority, key = self._heap[0]
        self._remove_at(0)
        return key, priority

    def remove(self, key: Hashable) -> Any:
        """Remove ``key``; returns its priority. Raises KeyError if absent."""
        idx = self._pos[key]
        priority = self._heap[idx][0]
        self._remove_at(idx)
        return priority

    def update(self, key: Hashable, priority: Any) -> None:
        """Change the priority of ``key`` (up or down)."""
        idx = self._pos[key]
        old = self._heap[idx][0]
        self._heap[idx] = (priority, key)
        if priority < old:
            self._sift_up(idx)
        else:
            self._sift_down(idx)

    def push_or_update(self, key: Hashable, priority: Any) -> None:
        """Insert ``key`` or change its priority if present."""
        if key in self._pos:
            self.update(key, priority)
        else:
            self.push(key, priority)

    def priority(self, key: Hashable) -> Any:
        """Current priority of ``key``."""
        return self._heap[self._pos[key]][0]

    def get_priority(self, key: Hashable, default: Optional[Any] = None) -> Any:
        """Priority of ``key`` or ``default`` when absent."""
        idx = self._pos.get(key)
        return default if idx is None else self._heap[idx][0]

    # -- internals --------------------------------------------------------

    def _remove_at(self, idx: int) -> None:
        key = self._heap[idx][1]
        last = self._heap.pop()
        del self._pos[key]
        if idx < len(self._heap):
            self._heap[idx] = last
            self._pos[last[1]] = idx
            self._sift_down(idx)
            self._sift_up(idx)

    def _sift_up(self, idx: int) -> None:
        item = self._heap[idx]
        while idx > 0:
            parent = (idx - 1) >> 1
            if self._heap[parent][0] <= item[0]:
                break
            self._heap[idx] = self._heap[parent]
            self._pos[self._heap[idx][1]] = idx
            idx = parent
        self._heap[idx] = item
        self._pos[item[1]] = idx

    def _sift_down(self, idx: int) -> None:
        n = len(self._heap)
        item = self._heap[idx]
        while True:
            child = 2 * idx + 1
            if child >= n:
                break
            right = child + 1
            if right < n and self._heap[right][0] < self._heap[child][0]:
                child = right
            if self._heap[child][0] >= item[0]:
                break
            self._heap[idx] = self._heap[child]
            self._pos[self._heap[idx][1]] = idx
            idx = child
        self._heap[idx] = item
        self._pos[item[1]] = idx

    def check_invariants(self) -> None:
        """Assert heap order and index consistency (used by property tests)."""
        n = len(self._heap)
        assert len(self._pos) == n
        for i in range(n):
            priority, key = self._heap[i]
            assert self._pos[key] == i
            left, right = 2 * i + 1, 2 * i + 2
            if left < n:
                assert not (self._heap[left][0] < priority)
            if right < n:
                assert not (self._heap[right][0] < priority)
