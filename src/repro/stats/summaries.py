"""Statistical summaries of stored data (Section 5.1.1).

:class:`ColumnStats` carries the per-column parameters the paper lists:
distinct-value count, null fraction, min/max -- with the practical twist
the paper mentions that the *second* lowest/highest values are kept,
since the extremes are often outliers -- plus an optional histogram.
:class:`TableStats` aggregates these with the table-level cardinality and
page count.  ``analyze_table`` computes everything from stored data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.catalog.catalog import Catalog
from repro.catalog.schema import ColumnType
from repro.errors import StatisticsError
from repro.stats.histogram import (
    CompressedHistogram,
    EquiDepthHistogram,
    EquiWidthHistogram,
    Histogram,
    MaxDiffHistogram,
)

_HISTOGRAM_BUILDERS = {
    "equi-width": EquiWidthHistogram.from_values,
    "equi-depth": EquiDepthHistogram.from_values,
    "compressed": CompressedHistogram.from_values,
    "maxdiff": MaxDiffHistogram.from_values,
}


@dataclass
class ColumnStats:
    """Summary of one column's value distribution.

    Attributes:
        column: column name.
        distinct_count: number of distinct non-null values.
        null_fraction: fraction of rows that are NULL.
        min_value / max_value: extreme values.
        second_min / second_max: robust extremes used for range estimates.
        histogram: optional histogram over the (numeric) values.
        avg_width_bytes: modelled storage width.
    """

    column: str
    distinct_count: float
    null_fraction: float = 0.0
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None
    second_min: Optional[Any] = None
    second_max: Optional[Any] = None
    histogram: Optional[Histogram] = None
    avg_width_bytes: int = 8

    def robust_min(self) -> Optional[Any]:
        """The second-lowest value when available, else the minimum."""
        return self.second_min if self.second_min is not None else self.min_value

    def robust_max(self) -> Optional[Any]:
        """The second-highest value when available, else the maximum."""
        return self.second_max if self.second_max is not None else self.max_value

    def scaled(self, row_factor: float) -> "ColumnStats":
        """Stats after an independent predicate reduced rows by ``row_factor``.

        Distinct counts shrink assuming values are hit uniformly; the
        histogram is scaled.  This is the lossy step Section 5.1.3 calls
        out: correlations with the filtered column are not captured.
        """
        new_histogram = (
            self.histogram.scale_rows(row_factor) if self.histogram else None
        )
        return ColumnStats(
            column=self.column,
            distinct_count=max(1.0, self.distinct_count * min(1.0, row_factor))
            if self.distinct_count
            else 0.0,
            null_fraction=self.null_fraction,
            min_value=self.min_value,
            max_value=self.max_value,
            second_min=self.second_min,
            second_max=self.second_max,
            histogram=new_histogram,
            avg_width_bytes=self.avg_width_bytes,
        )


@dataclass
class TableStats:
    """Summary of one stored table.

    Attributes:
        table: table name.
        row_count: cardinality.
        page_count: data pages occupied.
        columns: per-column stats keyed by column name.
    """

    table: str
    row_count: float
    page_count: float
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        """Stats for a column, or None when not collected."""
        return self.columns.get(name)

    def distinct(self, name: str, default_ratio: float = 0.1) -> float:
        """Distinct count for a column, falling back to a fixed ratio of rows."""
        stats = self.columns.get(name)
        if stats is not None and stats.distinct_count > 0:
            return stats.distinct_count
        return max(1.0, self.row_count * default_ratio)


def compute_column_stats(
    column: str,
    values: Sequence[Any],
    histogram_kind: Optional[str] = "equi-depth",
    bucket_count: int = 20,
    width_bytes: int = 8,
) -> ColumnStats:
    """Compute full column statistics from raw values.

    Args:
        column: column name (for labelling).
        values: raw values including NULLs.
        histogram_kind: 'equi-width' | 'equi-depth' | 'compressed' | None.
        bucket_count: histogram resolution.
        width_bytes: modelled value width.

    Raises:
        StatisticsError: for an unknown histogram kind.
    """
    total = len(values)
    non_null = [value for value in values if value is not None]
    null_fraction = (total - len(non_null)) / total if total else 0.0
    distinct_sorted = sorted(set(non_null)) if non_null else []
    numeric = all(not isinstance(value, str) for value in non_null)
    histogram: Optional[Histogram] = None
    if histogram_kind is not None and non_null and numeric:
        try:
            builder = _HISTOGRAM_BUILDERS[histogram_kind]
        except KeyError as exc:
            raise StatisticsError(
                f"unknown histogram kind {histogram_kind!r}"
            ) from exc
        histogram = builder(non_null, bucket_count)
    return ColumnStats(
        column=column,
        distinct_count=float(len(distinct_sorted)),
        null_fraction=null_fraction,
        min_value=distinct_sorted[0] if distinct_sorted else None,
        max_value=distinct_sorted[-1] if distinct_sorted else None,
        second_min=distinct_sorted[1] if len(distinct_sorted) > 1 else None,
        second_max=distinct_sorted[-2] if len(distinct_sorted) > 1 else None,
        histogram=histogram,
        avg_width_bytes=width_bytes,
    )


def analyze_table(
    catalog: Catalog,
    table: str,
    histogram_kind: Optional[str] = "equi-depth",
    bucket_count: int = 20,
    columns: Optional[Sequence[str]] = None,
) -> TableStats:
    """Collect statistics for a table and register them in the catalog.

    Args:
        catalog: the catalog holding the table.
        table: table name.
        histogram_kind: histogram class for numeric columns (None = none).
        bucket_count: buckets per histogram.
        columns: restrict collection to these columns (default: all).

    Returns:
        The computed :class:`TableStats` (also stored in the catalog).
    """
    heap = catalog.table(table)
    schema = heap.schema
    wanted = list(columns) if columns is not None else schema.column_names
    column_stats: Dict[str, ColumnStats] = {}
    for name in wanted:
        definition = schema.column(name)
        values = heap.column_values(name)
        kind = histogram_kind if definition.col_type is not ColumnType.STR else None
        column_stats[name] = compute_column_stats(
            name,
            values,
            histogram_kind=kind,
            bucket_count=bucket_count,
            width_bytes=definition.width_bytes,
        )
    with catalog.stats_lock:
        stats = TableStats(
            table=table,
            row_count=float(heap.committed_row_count()),
            page_count=float(heap.page_count),
            columns=column_stats,
        )
        catalog.set_stats(table, stats)
    return stats


def analyze_all(
    catalog: Catalog,
    histogram_kind: Optional[str] = "equi-depth",
    bucket_count: int = 20,
) -> Dict[str, TableStats]:
    """Analyze every table in the catalog; returns stats keyed by table."""
    return {
        name: analyze_table(catalog, name, histogram_kind, bucket_count)
        for name in catalog.table_names()
    }
