"""In-memory heap tables with a simulated page model.

The survey's cost discussion (Section 5) is phrased in terms of *pages*:
the number of data pages in a relation, pages in an index, and buffer-pool
behaviour.  We therefore store rows in memory but expose a faithful page
abstraction -- each table reports how many pages it occupies and the
executor counts page reads, so that measured I/O matches the analytic cost
model's vocabulary.
"""

from __future__ import annotations

import threading
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.catalog.schema import TableSchema
from repro.errors import SerializationError, StorageError

DEFAULT_PAGE_SIZE_BYTES = 8192

Row = Tuple[Any, ...]


class HeapTable:
    """A heap of rows honouring a :class:`TableSchema`, organised into pages.

    Rows are stored in insertion order.  ``rows_per_page`` is derived from
    the schema's modelled row width and the page size, mimicking how a disk
    based system packs fixed-width rows into slotted pages.

    Args:
        schema: the table schema.
        page_size_bytes: modelled page capacity (default 8 KiB).
    """

    def __init__(
        self, schema: TableSchema, page_size_bytes: int = DEFAULT_PAGE_SIZE_BYTES
    ) -> None:
        if page_size_bytes <= 0:
            raise StorageError("page size must be positive")
        self.schema = schema
        self.page_size_bytes = page_size_bytes
        self.rows_per_page = max(1, page_size_bytes // schema.row_width_bytes)
        self._rows: List[Row] = []
        # Monotonic mutation counter plus a scratch dict for engines that
        # cache derived images of the table (e.g. the columnar engine's
        # column arrays); a cache entry is valid only while data_version
        # matches the version it was built against.
        self._data_version = 0
        self.runtime_cache: dict = {}
        # MVCC version metadata, kept *sparse*: a row id appears in these
        # dicts only when a transaction created or deleted it.  A table
        # with both dicts empty is "flat" -- every row is committed and
        # visible -- and all read paths skip visibility checks entirely,
        # so read-only workloads pay nothing for the machinery.
        self._xmin: Dict[int, int] = {}
        self._xmax: Dict[int, int] = {}
        # Live reference to the transaction manager's aborted-txid set,
        # installed when the first transaction writes to this table; lets
        # snapshot-free readers (legacy direct-execute paths) skip rows
        # created by aborted transactions.
        self._mvcc_aborted: Set[int] = set()
        # Live reference to the manager's in-flight txid set (installed
        # with the aborted set): lets ANALYZE count committed rows only.
        self._mvcc_active: Set[int] = set()
        # Guards every heap mutation: append + row-id assignment and the
        # conflict check + version-stamp write must be atomic under
        # concurrent writer threads.  Reentrant so the DML executors can
        # hold it across a whole per-row sequence (heap mutation plus
        # incremental index maintenance) while the methods below still
        # lock when called directly.
        self.lock = threading.RLock()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[Any]) -> int:
        """Validate and append one row; returns its row id (position)."""
        validated = self.schema.validate_row(row)
        with self.lock:
            self._rows.append(validated)
            self._data_version += 1
            return len(self._rows) - 1

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Insert many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def truncate(self) -> None:
        """Remove all rows."""
        with self.lock:
            self._rows.clear()
            self._xmin.clear()
            self._xmax.clear()
            self._data_version += 1
            self.runtime_cache.clear()

    # ------------------------------------------------------------------
    # MVCC version store
    # ------------------------------------------------------------------
    @property
    def is_flat(self) -> bool:
        """Whether every row is committed-visible (no version metadata).

        Flat tables take the fast read paths: raw ``scan()``, cached
        columnar images, no per-row visibility checks.
        """
        return not self._xmin and not self._xmax

    def bump_data_version(self) -> None:
        """Advance the mutation counter (called once per commit per table,
        never mid-statement, so cached plans and column images only ever
        observe committed states)."""
        self._data_version += 1

    def attach_mvcc(self, aborted: Set[int], active: Set[int]) -> None:
        """Install the transaction manager's live aborted- and
        active-txid sets."""
        self._mvcc_aborted = aborted
        self._mvcc_active = active

    def mvcc_insert(self, row: Sequence[Any], txid: int) -> int:
        """Append a row created by ``txid``; invisible to other snapshots
        until that transaction commits.  Does NOT bump ``data_version`` --
        version bumps happen at commit only."""
        validated = self.schema.validate_row(row)
        with self.lock:
            # Version metadata before the row: a reader that sees the
            # row also sees that it is uncommitted.
            row_id = len(self._rows)
            self._xmin[row_id] = txid
            self._rows.append(validated)
            return row_id

    def mvcc_delete(self, row_id: int, txid: int) -> None:
        """Mark a row deleted by ``txid`` (first-writer-wins).

        Raises:
            SerializationError: a concurrent, non-aborted transaction
                already deleted (or updated) this row version.
            StorageError: the row id is out of range.
        """
        with self.lock:
            if not 0 <= row_id < len(self._rows):
                raise StorageError(
                    f"row id {row_id} out of range for table "
                    f"{self.schema.name!r}"
                )
            current = self._xmax.get(row_id, 0)
            if (
                current
                and current != txid
                and current not in self._mvcc_aborted
            ):
                raise SerializationError(
                    f"row {row_id} of {self.schema.name!r} already written "
                    f"by concurrent transaction {current}",
                    table=self.schema.name,
                    row_id=row_id,
                )
            self._xmax[row_id] = txid

    def undo_insert(self, row_id: int, txid: int) -> None:
        """Undo an insert by marking the row self-deleted; with
        ``xmin == xmax == txid`` the row is invisible to every snapshot
        (including its creator) and is reclaimed by the next vacuum."""
        with self.lock:
            self._xmax[row_id] = txid

    def undo_delete(self, row_id: int) -> None:
        """Undo a delete mark, releasing the row version for other writers."""
        with self.lock:
            self._xmax.pop(row_id, None)

    def row_visible(self, row_id: int, snapshot: Optional[Any] = None) -> bool:
        """Whether a row version is visible to ``snapshot``.

        With ``snapshot=None`` (no transaction manager, or ``execute``
        called outside a Database) the check is read-latest: rows from
        aborted transactions and committed deletes are hidden, everything
        else is visible.
        """
        if not self._xmin and not self._xmax:
            return True
        xmin = self._xmin.get(row_id, 0)
        xmax = self._xmax.get(row_id, 0)
        if snapshot is None:
            if xmin and xmin in self._mvcc_aborted:
                return False
            return not xmax or xmax in self._mvcc_aborted
        aborted = snapshot.aborted
        if xmin and xmin != snapshot.txid:
            # Created by someone else: must have committed before us.
            if xmin in aborted or xmin >= snapshot.high or xmin in snapshot.active:
                return False
        if not xmax:
            return True
        if xmax == snapshot.txid:
            return False  # our own delete
        # Deleted by someone else: the delete hides the row only if the
        # deleter committed before our snapshot.
        if xmax in aborted or xmax >= snapshot.high or xmax in snapshot.active:
            return True
        return False

    def visible_rows(
        self, snapshot: Optional[Any] = None
    ) -> Iterator[Tuple[int, Row]]:
        """Yield visible ``(row_id, row)`` pairs in heap order.

        A flat table yields the rows present at the call, counted before
        the flatness check: rows a writer appends meanwhile carry version
        metadata first and are not this reader's to see.
        """
        rows = self._rows
        count = len(rows)
        if not self._xmin and not self._xmax:
            return islice(enumerate(rows), count)
        return (
            (row_id, row)
            for row_id, row in enumerate(rows)
            if self.row_visible(row_id, snapshot)
        )

    def committed_row_count(self) -> int:
        """Rows whose insert has committed and whose delete, if any, has
        not: the base that commit-time row-count deltas move.  Reads only
        the sparse version maps."""
        with self.lock:
            if not self._xmin and not self._xmax:
                return len(self._rows)
            pending = self._mvcc_active | self._mvcc_aborted
            uncommitted = {
                row_id for row_id, xmin in self._xmin.items() if xmin in pending
            }
            deleted = {
                row_id for row_id, xmax in self._xmax.items()
                if xmax not in pending
            }
            return len(self._rows) - len(uncommitted | deleted)

    def dead_row_ids(self) -> List[int]:
        """Sorted ids of the row versions no snapshot can see any more --
        committed deletes and aborted inserts -- assuming no transaction
        is in flight (vacuum's precondition).  Only rows in the sparse
        version maps can be dead, so this never visits the whole heap."""
        aborted = self._mvcc_aborted
        dead = {
            row_id for row_id, xmax in self._xmax.items() if xmax not in aborted
        }
        dead.update(
            row_id for row_id, xmin in self._xmin.items() if xmin in aborted
        )
        return sorted(dead)

    def compact(
        self, dead: Sequence[int]
    ) -> Tuple[List[Tuple[int, Row]], Dict[int, int]]:
        """Vacuum: drop the row versions ``dead`` (sorted ids) and fold the
        version metadata.

        Each dead slot, highest first, takes the heap's last live row
        (swap-remove), so only the moved rows change id and the cost is
        proportional to the dead rows, not the table.  An UPDATE appends
        its new versions last, so unless other rows were appended after
        them, vacuum puts each back in its old version's slot and heap
        order survives the update; a DELETE's hole takes the last row.

        Returns:
            ``(removed, moved)``: the dropped ``(row_id, row)`` versions,
            and the old id -> new id of every row that moved, for index
            maintenance.
        """
        with self.lock:
            rows = list(self._rows)
            removed = [(row_id, rows[row_id]) for row_id in dead]
            moved: Dict[int, int] = {}
            origin: Dict[int, int] = {}  # slot -> original id of its row
            for row_id in reversed(dead):
                last = len(rows) - 1
                if row_id != last:
                    rows[row_id] = rows[last]
                    source = origin.pop(last, last)
                    origin[row_id] = source
                    moved[source] = row_id
                rows.pop()
            self.replace_rows(rows)
            return removed, moved

    def replace_rows(self, rows: List[Row]) -> None:
        """Swap in a fully-committed row image (vacuum / crash recovery):
        clears all version metadata and cached derived images."""
        with self.lock:
            self._rows = list(rows)
            self._xmin.clear()
            self._xmax.clear()
            self.runtime_cache.clear()
            self._data_version += 1

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def data_version(self) -> int:
        """Bumped on every mutation; keys cached derived images."""
        return self._data_version

    @property
    def row_count(self) -> int:
        """Number of stored rows (the paper's cardinality statistic)."""
        return len(self._rows)

    @property
    def page_count(self) -> int:
        """Number of pages the table occupies (the paper's pages statistic)."""
        if not self._rows:
            return 0
        return (len(self._rows) + self.rows_per_page - 1) // self.rows_per_page

    def fetch(self, row_id: int) -> Row:
        """Fetch one row by id.

        Raises:
            StorageError: if the id is out of range.
        """
        if not 0 <= row_id < len(self._rows):
            raise StorageError(
                f"row id {row_id} out of range for table {self.schema.name!r}"
            )
        return self._rows[row_id]

    def page_of(self, row_id: int) -> int:
        """The page number holding a given row id."""
        return row_id // self.rows_per_page

    def scan(self) -> Iterator[Tuple[int, Row]]:
        """Yield ``(row_id, row)`` pairs in heap order."""
        return enumerate(iter(self._rows))

    def rows(self) -> List[Row]:
        """All rows as a list (copy-free view; callers must not mutate)."""
        return self._rows

    def column_values(self, column: str) -> List[Any]:
        """All values of one column, in heap order."""
        index = self.schema.column_index(column)
        return [row[index] for row in self._rows]

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return (
            f"HeapTable({self.schema.name}, rows={self.row_count}, "
            f"pages={self.page_count})"
        )
