"""The catalog: the registry of tables, indexes, views, and statistics.

The optimizer consults the catalog for everything it knows about stored
data: schemas, access paths (Section 3), statistical summaries
(Section 5.1), and view definitions (Sections 4.2.1 and 7.3).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.catalog.schema import Column, ColumnType, IndexDef, TableSchema
from repro.errors import CatalogError
from repro.storage.index import HashIndex, OrderedIndex
from repro.storage.table import DEFAULT_PAGE_SIZE_BYTES, HeapTable


class Catalog:
    """Registry of tables, indexes, views, materialized views, and stats.

    Args:
        page_size_bytes: page size used for every table created through
            this catalog; a single knob so costs are comparable.
    """

    def __init__(self, page_size_bytes: int = DEFAULT_PAGE_SIZE_BYTES) -> None:
        self.page_size_bytes = page_size_bytes
        self._tables: Dict[str, HeapTable] = {}
        self._indexes: Dict[str, OrderedIndex] = {}
        self._hash_indexes: Dict[str, HashIndex] = {}
        self._indexes_by_table: Dict[str, List[str]] = {}
        # View name -> SQL text of its defining query (parsed lazily by the
        # front end, so the catalog has no dependency on the parser).
        self._views: Dict[str, str] = {}
        # Table statistics, keyed by table name.  Values are
        # repro.stats.summaries.TableStats, stored untyped to keep the
        # catalog free of a dependency on the stats package.
        self._stats: Dict[str, Any] = {}
        # Held by every writer of a table's row count: ANALYZE's count of
        # committed rows and its publication, and (wired by the Database
        # as the transaction manager's publish lock) a commit leaving the
        # active set together with its row-count move.  ANALYZE thus sees
        # each commit either counted or moved by its delta, never both.
        self.stats_lock = threading.RLock()
        # Materialized view descriptors (repro.core.matviews objects).
        self._materialized_views: Dict[str, Any] = {}
        # Monotonic schema/statistics version.  Every DDL change and
        # statistics refresh bumps it; plan caches compare the version
        # recorded at optimization time to decide whether a cached plan
        # is still trustworthy (Section 5's premise that plans are only
        # as good as the metadata they were costed against).
        self._version = 0

    @property
    def version(self) -> int:
        """Current schema/statistics version (bumped by DDL and ANALYZE)."""
        return self._version

    def _bump_version(self) -> None:
        self._version += 1

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Optional[Sequence[str]] = None,
    ) -> HeapTable:
        """Create and register an empty table.

        Raises:
            CatalogError: if a table or view with this name already exists.
        """
        self._check_name_free(name)
        schema = TableSchema(name, columns, primary_key=primary_key)
        table = HeapTable(schema, page_size_bytes=self.page_size_bytes)
        self._tables[name] = table
        self._indexes_by_table[name] = []
        self._bump_version()
        return table

    def register_table(self, table: HeapTable) -> None:
        """Register an externally built table (e.g. from a data generator)."""
        self._check_name_free(table.schema.name)
        self._tables[table.schema.name] = table
        self._indexes_by_table[table.schema.name] = []
        self._bump_version()

    def drop_table(self, name: str) -> None:
        """Remove a table, its indexes, and its statistics."""
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        for index_name in list(self._indexes_by_table.get(name, [])):
            self._indexes.pop(index_name, None)
            self._hash_indexes.pop(index_name, None)
        del self._tables[name]
        self._indexes_by_table.pop(name, None)
        self._stats.pop(name, None)
        self._bump_version()

    def has_table(self, name: str) -> bool:
        """Whether a base table with this name exists."""
        return name in self._tables

    def table(self, name: str) -> HeapTable:
        """Look up a base table.

        Raises:
            CatalogError: if the table does not exist.
        """
        try:
            return self._tables[name]
        except KeyError as exc:
            raise CatalogError(f"unknown table {name!r}") from exc

    def schema(self, name: str) -> TableSchema:
        """Schema of a base table."""
        return self.table(name).schema

    def table_names(self) -> List[str]:
        """All base-table names."""
        return sorted(self._tables)

    def _check_name_free(self, name: str) -> None:
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        if name in self._views:
            raise CatalogError(f"view {name!r} already exists")

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def create_index(
        self,
        name: str,
        table: str,
        columns: Sequence[str],
        clustered: bool = False,
        unique: bool = False,
    ) -> OrderedIndex:
        """Create an ordered (B-tree-like) index on a table.

        Raises:
            CatalogError: on duplicate name, unknown table/column, or a
                second clustered index on the same table.
        """
        if name in self._indexes or name in self._hash_indexes:
            raise CatalogError(f"index {name!r} already exists")
        heap = self.table(table)
        for column in columns:
            heap.schema.column(column)  # raises on unknown column
        if clustered and any(
            self._indexes[existing].definition.clustered
            for existing in self._indexes_by_table[table]
            if existing in self._indexes
        ):
            raise CatalogError(f"table {table!r} already has a clustered index")
        definition = IndexDef(
            name=name,
            table=table,
            columns=tuple(columns),
            clustered=clustered,
            unique=unique,
        )
        index = OrderedIndex(definition, heap)
        self._indexes[name] = index
        self._indexes_by_table[table].append(name)
        self._bump_version()
        return index

    def create_hash_index(
        self, name: str, table: str, columns: Sequence[str], unique: bool = False
    ) -> HashIndex:
        """Create a hash index (equality lookups only, no order)."""
        if name in self._indexes or name in self._hash_indexes:
            raise CatalogError(f"index {name!r} already exists")
        heap = self.table(table)
        for column in columns:
            heap.schema.column(column)
        definition = IndexDef(
            name=name, table=table, columns=tuple(columns), unique=unique
        )
        index = HashIndex(definition, heap)
        self._hash_indexes[name] = index
        self._indexes_by_table[table].append(name)
        self._bump_version()
        return index

    def indexes_on(self, table: str) -> List[OrderedIndex]:
        """All ordered indexes on a table."""
        return [
            self._indexes[name]
            for name in self._indexes_by_table.get(table, [])
            if name in self._indexes
        ]

    def hash_indexes_on(self, table: str) -> List[HashIndex]:
        """All hash indexes on a table."""
        return [
            self._hash_indexes[name]
            for name in self._indexes_by_table.get(table, [])
            if name in self._hash_indexes
        ]

    def index(self, name: str) -> OrderedIndex:
        """Look up an ordered index by name."""
        try:
            return self._indexes[name]
        except KeyError as exc:
            raise CatalogError(f"unknown index {name!r}") from exc

    def rebuild_indexes(self, table: str) -> None:
        """Rebuild every index on a table after bulk loading or crash
        recovery replaced its rows."""
        for index in self.indexes_on(table):
            index.build()
        for hash_index in self.hash_indexes_on(table):
            hash_index.build()

    def compact_indexes(
        self,
        table: str,
        removed: Sequence[Tuple[int, Tuple[Any, ...]]],
        moved: Dict[int, int],
    ) -> None:
        """Follow a vacuum of ``table`` (see ``HeapTable.compact``) in
        every index, touching only the removed and moved rows' entries."""
        for index in self.indexes_on(table):
            index.compact(removed, moved)
        for hash_index in self.hash_indexes_on(table):
            hash_index.compact(removed, moved)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def create_view(self, name: str, sql: str) -> None:
        """Register a (virtual) view by its defining SQL text."""
        self._check_name_free(name)
        self._views[name] = sql
        self._bump_version()

    def has_view(self, name: str) -> bool:
        """Whether a view with this name exists."""
        return name in self._views

    def view_sql(self, name: str) -> str:
        """The defining SQL of a view."""
        try:
            return self._views[name]
        except KeyError as exc:
            raise CatalogError(f"unknown view {name!r}") from exc

    def view_names(self) -> List[str]:
        """All view names."""
        return sorted(self._views)

    def drop_view(self, name: str) -> None:
        """Remove a view definition."""
        if name not in self._views:
            raise CatalogError(f"unknown view {name!r}")
        del self._views[name]
        self._bump_version()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def set_stats(self, table: str, stats: Any) -> None:
        """Attach a statistics summary to a table."""
        if table not in self._tables:
            raise CatalogError(f"unknown table {table!r}")
        self._stats[table] = stats
        self._bump_version()

    def stats(self, table: str) -> Optional[Any]:
        """The statistics summary for a table, or None if never analyzed."""
        return self._stats.get(table)

    # ------------------------------------------------------------------
    # Materialized views
    # ------------------------------------------------------------------
    def register_materialized_view(self, name: str, descriptor: Any) -> None:
        """Register a materialized view descriptor (see repro.core.matviews)."""
        self._materialized_views[name] = descriptor
        self._bump_version()

    def materialized_views(self) -> Dict[str, Any]:
        """All registered materialized views, keyed by name."""
        return dict(self._materialized_views)

    def __repr__(self) -> str:
        return (
            f"Catalog(tables={len(self._tables)}, indexes="
            f"{len(self._indexes) + len(self._hash_indexes)}, "
            f"views={len(self._views)})"
        )
