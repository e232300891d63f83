"""Secondary index structures: ordered (B-tree-like) and hash indexes.

The ordered index stores ``(key, row_id)`` pairs in sorted order and
supports point lookups, range scans, and full ordered scans -- the three
access patterns the optimizer cares about.  A real B-tree's node structure
is irrelevant to optimization decisions; what matters is the *page count*
of the index and whether it is clustered, both of which are modelled.
"""

from __future__ import annotations

import bisect
from array import array
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import IndexDef
from repro.errors import StorageError
from repro.storage.table import HeapTable, Row

Key = Tuple[Any, ...]

# Modelled size of one index entry: key bytes are approximated by the
# indexed columns' widths plus an 8-byte row pointer.
_ROW_POINTER_BYTES = 8


def _index_key(row: Sequence[Any], positions: Sequence[int]) -> Optional[Key]:
    """The row's index key, or None when a component is NULL (NULL keys
    are never indexed: they satisfy no seek predicate)."""
    key = tuple([row[position] for position in positions])
    return None if None in key else key


class OrderedIndex:
    """A sorted ``(key, row_id)`` index supporting point and range access.

    Keys with ``None`` components are excluded, matching SQL semantics where
    NULL never satisfies an index-seek predicate.

    Args:
        definition: index metadata (columns, clustered/unique flags).
        table: the indexed heap table.
    """

    def __init__(self, definition: IndexDef, table: HeapTable) -> None:
        self.definition = definition
        self.table = table
        self._column_positions = [
            table.schema.column_index(name) for name in definition.columns
        ]
        key_width = sum(
            table.schema.column(name).width_bytes for name in definition.columns
        )
        self._entry_width = key_width + _ROW_POINTER_BYTES
        # Parallel columns in key order; within one key, row ids ascend
        # (the order build() gives).  Row ids are machine words: an
        # array holds them without a Python int object per entry.
        self._keys: List[Key] = []
        self._row_ids = array("q")
        self.build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        """(Re)build the index from the current table contents."""
        entries: List[Tuple[Key, int]] = []
        for row_id, row in self.table.scan():
            key = self._key(row)
            if key is not None:
                entries.append((key, row_id))
        entries.sort(key=itemgetter(0))
        if self.definition.unique:
            for left, right in zip(entries, entries[1:]):
                if left[0] == right[0]:
                    raise StorageError(
                        f"duplicate key {left[0]!r} in unique index "
                        f"{self.definition.name!r}"
                    )
        self._keys = [entry[0] for entry in entries]
        self._row_ids = array("q", [entry[1] for entry in entries])

    def insert_entry(self, row: Sequence[Any], row_id: int) -> None:
        """Incrementally index one newly inserted row.

        Keys with NULL components are skipped, matching :meth:`build`.
        Unique indexes are enforced here, at insert time: an existing
        entry with the same key conflicts iff its heap version is still
        live (dead versions -- committed deletes, aborted inserts, and
        the old half of an in-flight UPDATE -- share keys legally and
        are ignored).  The raise is a statement-level error, so the
        failing INSERT/UPDATE rolls back cleanly before the duplicate
        ever commits.

        Raises:
            StorageError: the key already exists in a unique index.
        """
        key = self._key(row)
        if key is None:
            return
        if self.definition.unique:
            self._check_unique(key, row_id)
        self._insert(key, row_id)

    def compact(
        self, removed: Sequence[Tuple[int, Row]], moved: Dict[int, int]
    ) -> None:
        """Follow a table vacuum (see :meth:`HeapTable.compact`): drop the
        entries of the ``removed`` ``(row_id, row)`` versions, then give
        each ``moved`` row (old id -> new id) its new id.  A bisect and a
        list splice per entry touched; the result equals a fresh
        :meth:`build`."""
        for row_id, row in removed:
            key = self._key(row)
            if key is not None:
                self._delete(key, row_id)
        for old, new in moved.items():
            key = self._key(self.table.fetch(new))
            if key is not None:
                self._delete(key, old)
                self._insert(key, new)

    def _key(self, row: Sequence[Any]) -> Optional[Key]:
        return _index_key(row, self._column_positions)

    def _position(self, key: Key, row_id: int) -> int:
        """Where ``(key, row_id)`` sits (or belongs) in key, row-id order."""
        low = bisect.bisect_left(self._keys, key)
        high = bisect.bisect_right(self._keys, key, low)
        return bisect.bisect_left(self._row_ids, row_id, low, high)

    def _insert(self, key: Key, row_id: int) -> None:
        position = self._position(key, row_id)
        self._keys.insert(position, key)
        self._row_ids.insert(position, row_id)

    def _delete(self, key: Key, row_id: int) -> None:
        # A version whose statement failed before reaching this index
        # has no entry to drop.
        position = self._position(key, row_id)
        if (
            position < len(self._row_ids)
            and self._row_ids[position] == row_id
            and self._keys[position] == key
        ):
            del self._keys[position]
            del self._row_ids[position]

    def _check_unique(self, key: Key, row_id: int) -> None:
        left = bisect.bisect_left(self._keys, key)
        right = bisect.bisect_right(self._keys, key)
        for existing in self._row_ids[left:right]:
            if existing != row_id and self.table.row_visible(existing, None):
                raise StorageError(
                    f"duplicate key {key!r} in unique index "
                    f"{self.definition.name!r}"
                )

    # ------------------------------------------------------------------
    # Modelled size
    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        """Number of index entries."""
        return len(self._keys)

    @property
    def page_count(self) -> int:
        """Modelled leaf-page count of the index."""
        if not self._keys:
            return 0
        per_page = max(1, self.table.page_size_bytes // self._entry_width)
        return (len(self._keys) + per_page - 1) // per_page

    @property
    def height(self) -> int:
        """Modelled B-tree height (root-to-leaf), used for seek cost."""
        pages = self.page_count
        height = 1
        fanout = max(2, self.table.page_size_bytes // self._entry_width)
        while pages > 1:
            pages = (pages + fanout - 1) // fanout
            height += 1
        return height

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def _as_key(self, value: Any) -> Key:
        if isinstance(value, tuple):
            return value
        return (value,)

    def seek(self, key: Any) -> List[int]:
        """Row ids whose full key equals ``key`` (point lookup).

        NULL key components never match (SQL seek semantics).
        """
        key = self._as_key(key)
        if any(part is None for part in key):
            return []
        left = bisect.bisect_left(self._keys, key)
        right = bisect.bisect_right(self._keys, key)
        return self._row_ids[left:right].tolist()

    def seek_prefix(self, prefix: Any) -> List[int]:
        """Row ids whose key starts with ``prefix`` (leading-column lookup).

        NULL prefix components never match.
        """
        prefix = self._as_key(prefix)
        if any(part is None for part in prefix):
            return []
        left = bisect.bisect_left(self._keys, prefix)
        row_ids: List[int] = []
        for position in range(left, len(self._keys)):
            if self._keys[position][: len(prefix)] != prefix:
                break
            row_ids.append(self._row_ids[position])
        return row_ids

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> List[int]:
        """Row ids with keys in ``[low, high]`` (bounds optional/inclusive)."""
        if low is None:
            left = 0
        else:
            low_key = self._as_key(low)
            left = (
                bisect.bisect_left(self._keys, low_key)
                if include_low
                else bisect.bisect_right(self._keys, low_key)
            )
        if high is None:
            right = len(self._keys)
        else:
            high_key = self._as_key(high)
            right = (
                bisect.bisect_right(self._keys, high_key)
                if include_high
                else bisect.bisect_left(self._keys, high_key)
            )
        return self._row_ids[left:right].tolist()

    def ordered_row_ids(self, descending: bool = False) -> List[int]:
        """All row ids in key order -- an ordered index scan."""
        if descending:
            return self._row_ids[::-1].tolist()
        return self._row_ids.tolist()

    def ordered_entries(self) -> Iterator[Tuple[Key, int]]:
        """Yield ``(key, row_id)`` in ascending key order."""
        return zip(iter(self._keys), iter(self._row_ids))

    def __repr__(self) -> str:
        kind = "clustered" if self.definition.clustered else "unclustered"
        return (
            f"OrderedIndex({self.definition.name} on "
            f"{self.definition.table}({', '.join(self.definition.columns)}), "
            f"{kind}, entries={self.entry_count})"
        )


class HashIndex:
    """An equality-only index mapping keys to row-id lists.

    Useful to model hash-based access paths; has no order, so it never
    contributes an interesting order to the optimizer.
    """

    def __init__(self, definition: IndexDef, table: HeapTable) -> None:
        self.definition = definition
        self.table = table
        self._column_positions = [
            table.schema.column_index(name) for name in definition.columns
        ]
        self._buckets: Dict[Key, List[int]] = {}
        self.build()

    def build(self) -> None:
        """(Re)build the hash buckets from the current table contents."""
        buckets: Dict[Key, List[int]] = {}
        for row_id, row in self.table.scan():
            key = self._key(row)
            if key is not None:
                buckets.setdefault(key, []).append(row_id)
        if self.definition.unique:
            for key, ids in buckets.items():
                if len(ids) > 1:
                    raise StorageError(
                        f"duplicate key {key!r} in unique index "
                        f"{self.definition.name!r}"
                    )
        self._buckets = buckets

    def insert_entry(self, row: Sequence[Any], row_id: int) -> None:
        """Incrementally index one newly inserted row (NULL keys skipped).

        Unique hash indexes conflict only with *live* heap versions,
        mirroring :meth:`OrderedIndex.insert_entry`.

        Raises:
            StorageError: the key already exists in a unique index.
        """
        key = self._key(row)
        if key is None:
            return
        bucket = self._buckets.get(key)
        if self.definition.unique and bucket:
            for existing in bucket:
                if existing != row_id and self.table.row_visible(
                    existing, None
                ):
                    raise StorageError(
                        f"duplicate key {key!r} in unique index "
                        f"{self.definition.name!r}"
                    )
        self._buckets.setdefault(key, []).append(row_id)

    def compact(
        self, removed: Sequence[Tuple[int, Row]], moved: Dict[int, int]
    ) -> None:
        """Follow a table vacuum as :meth:`OrderedIndex.compact` does;
        buckets keep their row ids ascending, as :meth:`build` leaves
        them."""
        for row_id, row in removed:
            key = self._key(row)
            if key is not None:
                self._delete(key, row_id)
        for old, new in moved.items():
            key = self._key(self.table.fetch(new))
            if key is not None:
                self._delete(key, old)
                bisect.insort(self._buckets.setdefault(key, []), new)

    def _key(self, row: Sequence[Any]) -> Optional[Key]:
        return _index_key(row, self._column_positions)

    def _delete(self, key: Key, row_id: int) -> None:
        # As in OrderedIndex._delete, the entry may never have been made.
        bucket = self._buckets.get(key, [])
        if row_id in bucket:
            bucket.remove(row_id)
            if not bucket:
                del self._buckets[key]

    @property
    def entry_count(self) -> int:
        """Number of indexed rows."""
        return sum(len(ids) for ids in self._buckets.values())

    @property
    def distinct_keys(self) -> int:
        """Number of distinct key values."""
        return len(self._buckets)

    def seek(self, key: Any) -> List[int]:
        """Row ids whose key equals ``key``."""
        if not isinstance(key, tuple):
            key = (key,)
        return list(self._buckets.get(key, ()))

    def __repr__(self) -> str:
        return (
            f"HashIndex({self.definition.name} on "
            f"{self.definition.table}({', '.join(self.definition.columns)}), "
            f"keys={self.distinct_keys})"
        )
