"""Incremental sorted-set primitives for cluster/scheduler hot paths.

The scheduler's placement loop needs two things from its node indices:
*deterministic sorted iteration* (allocation order is part of the trace
contract) and *cheap membership churn* (every allocate/release/incident
moves nodes between buckets).  A Python ``set`` gives O(1) churn but
forces a ``sorted()`` per query; a heap gives neither stable iteration
nor deletion.  :class:`SortedIntSet` keeps a sorted int list under
bisect: O(log n) membership, O(n) worst-case insert/remove via
``memmove`` (cheap at bucket sizes), and iteration is already sorted —
the per-allocation ``sorted()`` disappears from the hot loop.
"""

from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional


class SortedIntSet:
    """A set of ints maintained in ascending order.

    Iteration yields ascending ids with no per-call sort.  Mutating while
    iterating is not supported (callers snapshot or defer mutations).
    """

    __slots__ = ("_items",)

    def __init__(self, items: Optional[Iterable[int]] = None):
        if items is None:
            self._items: List[int] = []
        else:
            self._items = sorted(set(items))

    def add(self, value: int) -> None:
        items = self._items
        i = bisect_left(items, value)
        if i == len(items) or items[i] != value:
            items.insert(i, value)

    def discard(self, value: int) -> None:
        items = self._items
        i = bisect_left(items, value)
        if i < len(items) and items[i] == value:
            del items[i]

    def __contains__(self, value: int) -> bool:
        items = self._items
        i = bisect_left(items, value)
        return i < len(items) and items[i] == value

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other) -> bool:
        if isinstance(other, SortedIntSet):
            return self._items == other._items
        if isinstance(other, (set, frozenset)):
            return set(self._items) == other
        if isinstance(other, (list, tuple)):
            return self._items == list(other)
        return NotImplemented

    def clear(self) -> None:
        self._items.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SortedIntSet({self._items!r})"
