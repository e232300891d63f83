"""The columnar batch engine: numpy column payloads between operators.

The vectorized alternative to the row-batch engine (see
:mod:`repro.engine.executor`).  Activated by
``ExecContext.columnar_mode = True``; the row-batch path stays the
differential oracle.

Batches are :class:`ColumnarBatch` objects -- one
:class:`~repro.expr.vector.VColumn` (numpy values + boolean validity
mask) per output slot -- instead of lists of row tuples.  Operators
with a profitable whole-batch form (scan, filter, project, limit,
hash join, hash/stream aggregate, union, sort, distinct) have
columnar handlers; everything else (index scans, the three row-centric
joins, Apply, CHECK, UDF filters) *bridges*: the operator and its
subtree run on the row-batch engine and its output batches are
converted to columns at the boundary.  Bridged operators keep their
row-engine accounting; columnar handlers mirror the row handlers'
counters at batch granularity (same totals, fewer increments).

Semantics contract: for any plan, draining this engine produces rows
bit-identical to the row-batch engine -- same values, same types, same
order, same first error.  The guards that make numpy safe for that
contract (int64 overflow, the 2**53 cast horizon, NaN-vs-NULL, ordered
float accumulation) live in :mod:`repro.expr.vector` and in the
aggregate kernels below.  NaN *join, group, and distinct keys* are
canonicalized to one shared NaN object on every backend (see
``executor._canon_key_part``), so NaN==NaN as a key everywhere and
columnar transport -- which cannot preserve float object identity --
agrees with the row-batch engine.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.catalog.catalog import Catalog
from repro.catalog.schema import ColumnType
from repro.cost.model import pages_for_rows
from repro.engine.context import ExecContext
from repro.engine.interpreter import sort_rows
from repro.errors import ExecutionError, MemoryBudgetExceeded
from repro.expr.aggregates import AggFunc
from repro.expr.schema import StreamSchema
from repro.expr.vector import VColumn, compile_vector, compile_vector_predicate
from repro.logical.operators import JoinKind
from repro.physical.plans import (
    DistinctP,
    FilterP,
    HashAggP,
    HashJoinP,
    LimitP,
    PhysicalOp,
    ProjectP,
    SeqScanP,
    SortP,
    StreamAggP,
    UnionAllP,
)

Row = Tuple[Any, ...]


# ======================================================================
# Columnar batches
# ======================================================================
class ColumnarBatch:
    """A batch as columns: one VColumn per schema slot, shared length.

    Columns crossing operator boundaries never carry deferred errors --
    every handler raises them before yielding.
    """

    __slots__ = ("vcolumns", "length", "_row_cache")

    def __init__(self, vcolumns: List[VColumn], length: int) -> None:
        self.vcolumns = vcolumns
        self.length = length
        self._row_cache: Optional[List[Row]] = None

    # -- construction ---------------------------------------------------
    @staticmethod
    def from_rows(rows: Sequence[Row], schema: StreamSchema) -> "ColumnarBatch":
        n = len(rows)
        vcolumns = [
            _ingest_column(
                [row[j] for row in rows], schema.type_at(j), n
            )
            for j in range(schema.arity)
        ]
        return ColumnarBatch(vcolumns, n)

    # -- materialization ------------------------------------------------
    def to_rows(self) -> List[Row]:
        """Rows as native-Python tuples.

        ``tolist`` converts numpy scalars back to Python ints/floats
        (bit-identical values); object columns return the very objects
        that were ingested.  Invalid lanes become None regardless of the
        garbage the values array holds there.
        """
        if self.length == 0:
            return []
        columns = []
        for vc in self.vcolumns:
            values = vc.values.tolist()
            if not vc.valid.all():
                valid = vc.valid
                values = [
                    v if valid[i] else None for i, v in enumerate(values)
                ]
            columns.append(values)
        if not columns:
            return [() for _ in range(self.length)]
        return list(zip(*columns))

    def rows(self) -> List[Row]:
        """Cached row view (for row-at-a-time fallback kernels)."""
        if self._row_cache is None:
            self._row_cache = self.to_rows()
        return self._row_cache

    # -- restructuring --------------------------------------------------
    def take(self, indices: np.ndarray) -> "ColumnarBatch":
        vcolumns = [
            VColumn(vc.values[indices], vc.valid[indices])
            for vc in self.vcolumns
        ]
        return ColumnarBatch(vcolumns, len(indices))

    def compress(self, mask: np.ndarray) -> "ColumnarBatch":
        return self.take(np.nonzero(mask)[0])

    def slice(self, start: int, stop: int) -> "ColumnarBatch":
        vcolumns = [
            VColumn(vc.values[start:stop], vc.valid[start:stop])
            for vc in self.vcolumns
        ]
        return ColumnarBatch(vcolumns, max(0, stop - start))

    @staticmethod
    def concat(
        batches: List["ColumnarBatch"], schema: StreamSchema
    ) -> "ColumnarBatch":
        if not batches:
            return ColumnarBatch.from_rows([], schema)
        if len(batches) == 1:
            return batches[0]
        vcolumns = []
        for j in range(schema.arity):
            # Mixed dtypes across batches (an int64 batch beside an
            # object-fallback batch) promote to object, never lossily.
            values = np.concatenate([b.vcolumns[j].values for b in batches])
            valid = np.concatenate([b.vcolumns[j].valid for b in batches])
            vcolumns.append(VColumn(values, valid))
        return ColumnarBatch(vcolumns, sum(b.length for b in batches))


def _ingest_column(
    values: List[Any], col_type: Optional[object], n: int
) -> VColumn:
    """Build one VColumn from Python values, honouring dtype fallbacks.

    INT columns try int64 and fall back to object when any value
    overflows (Python ints are arbitrary precision; numpy would wrap).
    FLOAT columns store NaN in invalid lanes, but the validity mask is
    authoritative -- a NaN in a *valid* lane is a value, not a NULL.
    Everything else (strings, untyped derived columns) stays object,
    preserving value identity exactly.
    """
    valid = np.fromiter((v is not None for v in values), dtype=bool, count=n)
    if col_type is ColumnType.INT:
        try:
            data = np.fromiter(
                (0 if v is None else v for v in values),
                dtype=np.int64,
                count=n,
            )
            return VColumn(data, valid)
        except OverflowError:
            pass
    elif col_type is ColumnType.FLOAT:
        data = np.fromiter(
            (np.nan if v is None else v for v in values),
            dtype=np.float64,
            count=n,
        )
        return VColumn(data, valid)
    data = np.empty(n, dtype=object)
    for i, v in enumerate(values):
        data[i] = v
    return VColumn(data, valid)


def _raise_first_error(vcolumns: Sequence[VColumn]) -> None:
    """Raise the error a row-at-a-time loop would hit first: lowest lane
    wins; on the same lane, the earliest expression (list order) wins."""
    best_lane: Optional[int] = None
    best: Optional[ExecutionError] = None
    for vc in vcolumns:
        if not vc.errors:
            continue
        lane = min(vc.errors)
        if best_lane is None or lane < best_lane:
            best_lane = lane
            best = vc.errors[lane]
    if best is not None:
        raise best


def _key_tuples(key_columns: List[VColumn], n: int) -> List[Tuple[Any, ...]]:
    """Join/group keys as native tuples (None in invalid lanes).

    NaN lanes are canonicalized to the row engines' shared NaN sentinel
    so key tuples hash and compare identically across all backends
    (``tolist`` materializes fresh float objects, which would otherwise
    make every NaN key distinct).
    """
    from repro.engine.executor import _canon_key_part

    columns = []
    for vc in key_columns:
        values = [_canon_key_part(v) for v in vc.values.tolist()]
        if not vc.valid.all():
            valid = vc.valid
            values = [v if valid[i] else None for i, v in enumerate(values)]
        columns.append(values)
    if not columns:
        return [() for _ in range(n)]
    return list(zip(*columns))


# ======================================================================
# Table column cache
# ======================================================================
def _table_columns(
    table: Any, schema: StreamSchema, snapshot: Any = None
) -> Tuple[List[VColumn], int]:
    """Columnar image of a heap table; returns ``(columns, row_count)``.

    Flat tables (no in-flight MVCC versions) cache the image on the
    table, invalidated by its data version -- which only moves at commit
    boundaries, so cached images are always committed state.  Non-flat
    tables build a transient image of exactly the rows visible to the
    snapshot and never cache it: visibility is per-snapshot, and the
    version counter does not move for uncommitted writes.
    """
    # Version and row count are read before the flatness check, as in
    # HeapTable.visible_rows: rows a writer appends meanwhile are not in
    # the image, and a commit meanwhile leaves it tagged stale.
    version = table.data_version
    rows = table.rows()
    n = len(rows)
    if not table.is_flat:
        rows = [row for _row_id, row in table.visible_rows(snapshot)]
        n = len(rows)
        return (
            [
                _ingest_column([row[j] for row in rows], schema.type_at(j), n)
                for j in range(schema.arity)
            ],
            n,
        )
    cached = table.runtime_cache.get("columnar")
    if cached is not None and cached[0] == version:
        return cached[1], n
    rows = rows[:n]
    vcolumns = [
        _ingest_column([row[j] for row in rows], schema.type_at(j), n)
        for j in range(schema.arity)
    ]
    table.runtime_cache["columnar"] = (version, vcolumns)
    return vcolumns, n


# ======================================================================
# Driver
# ======================================================================
def drain_columns(
    op: PhysicalOp, catalog: Catalog, ctx: ExecContext
) -> List[Row]:
    """Fully evaluate a plan with the columnar engine; rows out."""
    out: List[Row] = []
    gen = stream_columns(op, catalog, ctx)
    try:
        for cbatch in gen:
            out.extend(cbatch.to_rows())
    finally:
        gen.close()
    return out


def stream_columns(
    op: PhysicalOp, catalog: Catalog, ctx: ExecContext
) -> Iterator[ColumnarBatch]:
    """Columnar twin of ``stream_batches``: same per-pull accounting
    (wall time, pages, retries, actual rows, governor protocol), batch
    lengths read off ``ColumnarBatch.length``.

    Operators without a columnar handler bridge to the row-batch engine,
    whose driver already accounts for them -- the bridge adds nothing.
    """
    handler = _COLUMNAR_HANDLERS.get(type(op))
    if handler is None:
        for op_type, candidate in _COLUMNAR_HANDLERS.items():
            if isinstance(op, op_type):
                handler = candidate
                break
    if handler is None:
        yield from _bridge(op, catalog, ctx)
        return
    governor = ctx.governor
    if governor is not None:
        governor.check()
    node = ctx.runtime.node_for(op) if ctx.runtime is not None else None
    if node is not None:
        node.invocations += 1
    inner = handler(op, catalog, ctx)
    produced = 0
    try:
        while True:
            if node is None:
                try:
                    cbatch = next(inner)
                except StopIteration:
                    return
            else:
                pages_before = ctx.counters.total_page_reads
                retries_before = ctx.counters.retries
                start = time.perf_counter()
                try:
                    cbatch = next(inner)
                except StopIteration:
                    node.wall_seconds += time.perf_counter() - start
                    node.pages_read += (
                        ctx.counters.total_page_reads - pages_before
                    )
                    node.retries += ctx.counters.retries - retries_before
                    return
                node.wall_seconds += time.perf_counter() - start
                node.pages_read += ctx.counters.total_page_reads - pages_before
                node.retries += ctx.counters.retries - retries_before
                node.actual_rows += cbatch.length
                node.peak_resident_rows = max(
                    node.peak_resident_rows, cbatch.length
                )
            produced += cbatch.length
            if governor is not None:
                governor.on_rows(produced)
                governor.tick(cbatch.length)
            yield cbatch
    finally:
        inner.close()


def _bridge(
    op: PhysicalOp, catalog: Catalog, ctx: ExecContext
) -> Iterator[ColumnarBatch]:
    """Run an operator (and its whole subtree) on the row-batch engine,
    converting its output batches to columns at this boundary."""
    from repro.engine.executor import stream_batches

    schema = op.output_schema()
    child = stream_batches(op, catalog, ctx)
    try:
        for rows in child:
            yield ColumnarBatch.from_rows(rows, schema)
    finally:
        child.close()


def _cdrain(
    op: PhysicalOp, catalog: Catalog, ctx: ExecContext
) -> ColumnarBatch:
    """Pull a subplan to exhaustion as one concatenated columnar batch."""
    batches: List[ColumnarBatch] = []
    gen = stream_columns(op, catalog, ctx)
    try:
        for cbatch in gen:
            batches.append(cbatch)
    finally:
        gen.close()
    return ColumnarBatch.concat(batches, op.output_schema())


def _note_resident(ctx: ExecContext, op: PhysicalOp, count: int) -> None:
    if ctx.runtime is not None:
        node = ctx.runtime.node_for(op)
        node.peak_resident_rows = max(node.peak_resident_rows, count)


def _chunks(
    rows: List[Row], schema: StreamSchema, size: int
) -> Iterator[ColumnarBatch]:
    for start in range(0, len(rows), size):
        yield ColumnarBatch.from_rows(rows[start:start + size], schema)


# ======================================================================
# Streaming operators
# ======================================================================
def _cstream_seq_scan(
    op: SeqScanP, catalog: Catalog, ctx: ExecContext
) -> Iterator[ColumnarBatch]:
    table = catalog.table(op.table)
    schema = op.output_schema()
    batch_size = ctx.params.batch_size
    # Page reads stay up-front so the fault-injection schedule is
    # identical to both row engines'.
    for page_no in range(table.page_count):
        ctx.read_page(op.table, page_no, sequential=True)
    columns, n = _table_columns(table, schema, ctx.snapshot)
    keep = (
        compile_vector_predicate(op.predicate, schema)
        if op.predicate is not None
        else None
    )
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        cbatch = ColumnarBatch(
            [
                VColumn(vc.values[start:stop], vc.valid[start:stop])
                for vc in columns
            ],
            stop - start,
        )
        if keep is not None:
            ctx.counters.rows_compared += cbatch.length
            cbatch = cbatch.compress(keep(cbatch))
        if cbatch.length:
            ctx.counters.rows_produced += cbatch.length
            yield cbatch


def _cstream_filter(
    op: FilterP, catalog: Catalog, ctx: ExecContext
) -> Iterator[ColumnarBatch]:
    schema = op.child.output_schema()
    keep = compile_vector_predicate(op.predicate, schema)
    child = stream_columns(op.child, catalog, ctx)
    try:
        for cbatch in child:
            ctx.counters.rows_compared += cbatch.length
            out = cbatch.compress(keep(cbatch))
            if out.length:
                ctx.counters.rows_produced += out.length
                yield out
    finally:
        child.close()


def _cstream_project(
    op: ProjectP, catalog: Catalog, ctx: ExecContext
) -> Iterator[ColumnarBatch]:
    schema = op.child.output_schema()
    kernels = [compile_vector(item.expr, schema) for item in op.items]
    child = stream_columns(op.child, catalog, ctx)
    try:
        for cbatch in child:
            outputs = [kernel(cbatch) for kernel in kernels]
            _raise_first_error(outputs)
            out = ColumnarBatch(
                [VColumn(vc.values, vc.valid) for vc in outputs],
                cbatch.length,
            )
            ctx.counters.rows_produced += out.length
            yield out
    finally:
        child.close()


def _cstream_limit(
    op: LimitP, catalog: Catalog, ctx: ExecContext
) -> Iterator[ColumnarBatch]:
    to_skip = op.offset
    remaining = op.limit
    child = stream_columns(op.child, catalog, ctx)
    try:
        if remaining == 0:
            return
        for cbatch in child:
            if to_skip:
                if to_skip >= cbatch.length:
                    to_skip -= cbatch.length
                    continue
                cbatch = cbatch.slice(to_skip, cbatch.length)
                to_skip = 0
            if remaining is not None and cbatch.length > remaining:
                cbatch = cbatch.slice(0, remaining)
            if remaining is not None:
                remaining -= cbatch.length
            ctx.counters.rows_produced += cbatch.length
            yield cbatch
            if remaining is not None and remaining <= 0:
                return
    finally:
        child.close()


def _cstream_union_all(
    op: UnionAllP, catalog: Catalog, ctx: ExecContext
) -> Iterator[ColumnarBatch]:
    for side in (op.left, op.right):
        child = stream_columns(side, catalog, ctx)
        try:
            for cbatch in child:
                ctx.counters.rows_produced += cbatch.length
                yield cbatch
        finally:
            child.close()


def _cstream_sort(
    op: SortP, catalog: Catalog, ctx: ExecContext
) -> Iterator[ColumnarBatch]:
    # Sorting is row-centric (stable multi-key Python sort with SQL NULL
    # placement), but the subtree still runs columnar; only the final
    # ordering pass converts to rows.
    cbatch = _cdrain(op.child, catalog, ctx)
    _note_resident(ctx, op, cbatch.length)
    out = sort_rows(cbatch.to_rows(), op.child.output_schema(), op.sort_order)
    ctx.counters.rows_produced += len(out)
    yield from _chunks(out, op.output_schema(), ctx.params.batch_size)


def _cstream_distinct(
    op: DistinctP, catalog: Catalog, ctx: ExecContext
) -> Iterator[ColumnarBatch]:
    from repro.engine.executor import _canon_key

    governor = ctx.governor
    seen = set()
    out: List[Row] = []
    child = stream_columns(op.child, catalog, ctx)
    try:
        for cbatch in child:
            if governor is not None:
                governor.tick(cbatch.length)
            ctx.counters.rows_compared += cbatch.length
            for row in cbatch.to_rows():
                key = _canon_key(row)
                if key not in seen:
                    out.append(row)
                    seen.add(key)
    finally:
        child.close()
    _note_resident(ctx, op, len(out))
    ctx.counters.rows_produced += len(out)
    yield from _chunks(out, op.output_schema(), ctx.params.batch_size)


# ======================================================================
# Hash join
# ======================================================================
def _cstream_hash_join(
    op: HashJoinP, catalog: Catalog, ctx: ExecContext
) -> Iterator[ColumnarBatch]:
    from repro.engine.executor import (
        _SUPPORTED_JOIN_KINDS,
        _key_getter,
        _partition_of,
        _spill_partitions,
    )
    from repro.expr.compiler import compile_predicate

    if op.kind not in _SUPPORTED_JOIN_KINDS:
        raise ExecutionError(f"hash join cannot run kind {op.kind}")
    build_cb = _cdrain(op.right, catalog, ctx)
    left_schema = op.left.output_schema()
    right_schema = op.right.output_schema()
    combined = left_schema.concat(right_schema)
    left_positions = [left_schema.position(k) for k in op.left_keys]
    right_positions = [right_schema.position(k) for k in op.right_keys]
    residual_kernel = (
        compile_vector_predicate(op.residual, combined)
        if op.residual is not None
        else None
    )
    governor = ctx.governor
    build_width = right_schema.row_width_bytes()
    build_bytes = int(build_cb.length * build_width)
    build_pages = pages_for_rows(build_cb.length, build_width, ctx.params)
    _note_resident(ctx, op, build_cb.length)

    degraded = False
    if governor is not None:
        try:
            governor.reserve_memory(build_bytes, "HashJoin build")
        except MemoryBudgetExceeded:
            degraded = True

    if degraded:
        # Grace-style partitioned fallback, row-based: the vectorized
        # probe gains nothing once both sides must be spilled anyway.
        # Mirrors the row engine's degraded path counter for counter.
        right_rows = build_cb.to_rows()
        left_rows = drain_columns(op.left, catalog, ctx)
        _note_resident(ctx, op, len(right_rows) + len(left_rows))
        left_key = _key_getter(left_schema, op.left_keys)
        right_key = _key_getter(right_schema, op.right_keys)
        residual = (
            compile_predicate(op.residual, combined)
            if op.residual is not None
            else None
        )
        probe_pages = pages_for_rows(
            len(left_rows), left_schema.row_width_bytes(), ctx.params
        )
        if build_pages > ctx.params.hash_memory_pages:
            ctx.counters.sort_spill_pages += int(
                2 * (build_pages + probe_pages)
            )
        parts = _spill_partitions(
            build_bytes, governor.budget.memory_limit_bytes
        )
        ctx.counters.degraded_operators += 1
        if ctx.runtime is not None:
            ctx.runtime.node_for(op).degraded = True
        ctx.counters.sort_spill_pages += int(2 * (build_pages + probe_pages))
        build_parts: List[List[Row]] = [[] for _ in range(parts)]
        for rrow in right_rows:
            build_parts[_partition_of(right_key(rrow), parts)].append(rrow)
        probe_parts: List[List[Row]] = [[] for _ in range(parts)]
        for lrow in left_rows:
            probe_parts[_partition_of(left_key(lrow), parts)].append(lrow)
        pad = (None,) * right_schema.arity
        out: List[Row] = []
        for build_part, probe_part in zip(build_parts, probe_parts):
            governor.check()
            build: Dict[Tuple[Any, ...], List[Row]] = {}
            for rrow in build_part:
                key = right_key(rrow)
                ctx.counters.rows_compared += 1
                if any(part is None for part in key):
                    continue
                build.setdefault(key, []).append(rrow)
            for lrow in probe_part:
                governor.tick()
                key = left_key(lrow)
                ctx.counters.rows_compared += 1
                candidates = (
                    build.get(key, [])
                    if not any(part is None for part in key)
                    else []
                )
                matched = []
                for rrow in candidates:
                    if residual is not None:
                        ctx.counters.rows_compared += 1
                        if not residual(lrow + rrow):
                            continue
                    matched.append(rrow)
                if op.kind in (JoinKind.INNER, JoinKind.CROSS):
                    out.extend(lrow + rrow for rrow in matched)
                elif op.kind is JoinKind.LEFT_OUTER:
                    if matched:
                        out.extend(lrow + rrow for rrow in matched)
                    else:
                        out.append(lrow + pad)
                elif op.kind is JoinKind.SEMI:
                    if matched:
                        out.append(lrow)
                elif op.kind is JoinKind.ANTI:
                    if not matched:
                        out.append(lrow)
        ctx.counters.rows_produced += len(out)
        yield from _chunks(out, op.output_schema(), ctx.params.batch_size)
        return

    # In-memory columnar-native path.  Key columns are hashed
    # *vectorized* with the canonical value hash (the same kernel that
    # partitions columnar repartition streams, see
    # :func:`repro.expr.vector.hash_columns`), candidate pairs come
    # from a binary search over the hash-sorted build lanes, and only
    # hash-equal pairs are verified with canonical tuple equality --
    # so collisions and cross-type keys (2 vs 2.0, NaN-as-key) resolve
    # exactly like the row engine's dict probe.
    from repro.expr.vector import hash_columns

    build_keys = _key_tuples(
        [build_cb.vcolumns[p] for p in right_positions], build_cb.length
    )
    ctx.counters.rows_compared += build_cb.length
    build_valid = np.ones(build_cb.length, dtype=bool)
    for p in right_positions:
        build_valid &= build_cb.vcolumns[p].valid
    build_lanes = np.nonzero(build_valid)[0]
    build_hashes = hash_columns(
        [
            (build_cb.vcolumns[p].values, build_cb.vcolumns[p].valid)
            for p in right_positions
        ]
    )[build_lanes]
    # Stable sort keeps equal-hash lanes in build order, so each probe
    # row's matches surface in the row engine's insertion order.
    sort_order = np.argsort(build_hashes, kind="stable")
    sorted_hashes = build_hashes[sort_order]
    sorted_lanes = build_lanes[sort_order]

    probe_seen = 0
    child = stream_columns(op.left, catalog, ctx)
    try:
        for lcb in child:
            probe_seen += lcb.length
            ctx.counters.rows_compared += lcb.length
            probe_keys = _key_tuples(
                [lcb.vcolumns[p] for p in left_positions], lcb.length
            )
            probe_valid = np.ones(lcb.length, dtype=bool)
            for p in left_positions:
                probe_valid &= lcb.vcolumns[p].valid
            probe_lanes = np.nonzero(probe_valid)[0]
            probe_hashes = hash_columns(
                [
                    (lcb.vcolumns[p].values, lcb.vcolumns[p].valid)
                    for p in left_positions
                ]
            )[probe_lanes]
            lo = np.searchsorted(sorted_hashes, probe_hashes, side="left")
            hi = np.searchsorted(sorted_hashes, probe_hashes, side="right")
            counts = hi - lo
            sel = counts > 0
            sel_counts = counts[sel]
            total = int(sel_counts.sum())
            cand_l = np.repeat(probe_lanes[sel], sel_counts)
            starts = np.concatenate(
                ([0], np.cumsum(sel_counts)[:-1])
            ) if len(sel_counts) else np.empty(0, dtype=np.int64)
            within = np.arange(total) - np.repeat(starts, sel_counts)
            cand_r = sorted_lanes[np.repeat(lo[sel], sel_counts) + within]
            keep = [
                k
                for k in range(total)
                if probe_keys[cand_l[k]] == build_keys[cand_r[k]]
            ]
            pairs_l = cand_l[keep].astype(np.int64, copy=False)
            pairs_r = cand_r[keep].astype(np.int64, copy=False)
            if residual_kernel is not None and len(pairs_l):
                gathered = ColumnarBatch(
                    [
                        VColumn(vc.values[pairs_l], vc.valid[pairs_l])
                        for vc in lcb.vcolumns
                    ]
                    + [
                        VColumn(vc.values[pairs_r], vc.valid[pairs_r])
                        for vc in build_cb.vcolumns
                    ],
                    len(pairs_l),
                )
                ctx.counters.rows_compared += len(pairs_l)
                mask = residual_kernel(gathered)
                pairs_l = pairs_l[mask]
                pairs_r = pairs_r[mask]
            out = _join_output(op.kind, lcb, build_cb, pairs_l, pairs_r)
            if out is not None and out.length:
                ctx.counters.rows_produced += out.length
                yield out
    finally:
        child.close()
    if build_pages > ctx.params.hash_memory_pages:
        probe_pages = pages_for_rows(
            probe_seen, left_schema.row_width_bytes(), ctx.params
        )
        ctx.counters.sort_spill_pages += int(2 * (build_pages + probe_pages))


def _join_output(
    kind: JoinKind,
    lcb: ColumnarBatch,
    build_cb: ColumnarBatch,
    pairs_l: np.ndarray,
    pairs_r: np.ndarray,
) -> Optional[ColumnarBatch]:
    """Assemble one probe batch's join output by gather, in the row
    engine's order: probe rows ascending, matches in build order, outer
    pads exactly where the unmatched probe row sits."""
    counts = np.bincount(pairs_l, minlength=lcb.length)
    if kind in (JoinKind.INNER, JoinKind.CROSS):
        out_l, out_r = pairs_l, pairs_r
    elif kind is JoinKind.LEFT_OUTER:
        pad_l = np.nonzero(counts == 0)[0]
        out_l = np.concatenate([pairs_l, pad_l])
        out_r = np.concatenate(
            [pairs_r, np.full(len(pad_l), -1, dtype=np.int64)]
        )
        # Stable sort restores probe order; a probe row has either
        # matches or one pad, never both, so no intra-row ambiguity.
        order = np.argsort(out_l, kind="stable")
        out_l = out_l[order]
        out_r = out_r[order]
    elif kind is JoinKind.SEMI:
        return lcb.take(np.nonzero(counts > 0)[0])
    else:  # ANTI
        return lcb.take(np.nonzero(counts == 0)[0])
    if len(out_l) == 0:
        return None
    left_cols = [
        VColumn(vc.values[out_l], vc.valid[out_l]) for vc in lcb.vcolumns
    ]
    pad_mask = out_r < 0
    if pad_mask.any():
        safe_r = np.where(pad_mask, 0, out_r)
        right_cols = []
        for vc in build_cb.vcolumns:
            if build_cb.length == 0:
                values = np.zeros(len(out_r), dtype=vc.values.dtype)
                valid = np.zeros(len(out_r), dtype=bool)
            else:
                values = vc.values[safe_r]
                valid = vc.valid[safe_r] & ~pad_mask
            right_cols.append(VColumn(values, valid))
    else:
        right_cols = [
            VColumn(vc.values[out_r], vc.valid[out_r])
            for vc in build_cb.vcolumns
        ]
    return ColumnarBatch(left_cols + right_cols, len(out_l))


# ======================================================================
# Aggregation
# ======================================================================
def _cstream_hash_agg(
    op: HashAggP, catalog: Catalog, ctx: ExecContext
) -> Iterator[ColumnarBatch]:
    from repro.engine.executor import _partition_of, _spill_partitions

    cbatch = _cdrain(op.child, catalog, ctx)
    schema = op.child.output_schema()
    governor = ctx.governor
    _note_resident(ctx, op, cbatch.length)
    if governor is not None and op.keys:
        width = schema.row_width_bytes()
        table_bytes = int(cbatch.length * width)
        try:
            governor.reserve_memory(table_bytes, "HashAgg table")
        except MemoryBudgetExceeded:
            parts = _spill_partitions(
                table_bytes, governor.budget.memory_limit_bytes
            )
            ctx.counters.degraded_operators += 1
            if ctx.runtime is not None:
                ctx.runtime.node_for(op).degraded = True
            ctx.counters.sort_spill_pages += int(
                2 * pages_for_rows(cbatch.length, width, ctx.params)
            )
            key_positions = [schema.position(k) for k in op.keys]
            keys = _key_tuples(
                [cbatch.vcolumns[p] for p in key_positions], cbatch.length
            )
            part_ids = np.fromiter(
                (_partition_of(key, parts) for key in keys),
                dtype=np.int64,
                count=cbatch.length,
            )
            out: List[Row] = []
            for part in range(parts):
                governor.check()
                member = part_ids == part
                if member.any():
                    out.extend(
                        _aggregate_columns(
                            op, cbatch.compress(member), schema, ctx
                        )
                    )
            yield from _chunks(out, op.output_schema(), ctx.params.batch_size)
            return
    out = _aggregate_columns(op, cbatch, schema, ctx)
    yield from _chunks(out, op.output_schema(), ctx.params.batch_size)


def _cstream_stream_agg(
    op: StreamAggP, catalog: Catalog, ctx: ExecContext
) -> Iterator[ColumnarBatch]:
    cbatch = _cdrain(op.child, catalog, ctx)
    _note_resident(ctx, op, cbatch.length)
    out = _aggregate_columns(op, cbatch, op.child.output_schema(), ctx)
    yield from _chunks(out, op.output_schema(), ctx.params.batch_size)


def _aggregate_columns(
    op: HashAggP, cbatch: ColumnarBatch, schema: StreamSchema, ctx: ExecContext
) -> List[Row]:
    """Vectorized twin of ``_aggregate_rows``: group ids by factorize,
    then one whole-column accumulation per aggregate call."""
    n = cbatch.length
    if ctx.governor is not None:
        ctx.governor.tick(n)
    ctx.counters.rows_compared += n
    if op.keys:
        key_columns = [
            cbatch.vcolumns[schema.position(k)] for k in op.keys
        ]
        gids, group_keys = _factorize(key_columns, n)
    else:
        gids = np.zeros(n, dtype=np.int64)
        group_keys = [()]
    ngroups = len(group_keys)
    columns = []
    for call in op.aggregates:
        columns.append(
            _aggregate_one(call, cbatch, schema, gids, ngroups, n)
        )
    out = [
        group_keys[g] + tuple(column[g] for column in columns)
        for g in range(ngroups)
    ]
    ctx.counters.rows_produced += len(out)
    return out


def _factorize(
    key_columns: List[VColumn], n: int
) -> Tuple[np.ndarray, List[Tuple[Any, ...]]]:
    """Dense group ids in first-appearance order (the row engine's
    insertion order), plus each group's key tuple."""
    if len(key_columns) == 1:
        vc = key_columns[0]
        kind = vc.values.dtype.kind
        nan_free = kind == "i" or (
            kind == "f" and not np.isnan(vc.values[vc.valid]).any()
        )
        if nan_free:
            return _factorize_single_numeric(vc, n)
    # General path: dict over native key tuples, like the row engine.
    mapping: Dict[Tuple[Any, ...], int] = {}
    gids = np.empty(n, dtype=np.int64)
    group_keys: List[Tuple[Any, ...]] = []
    for i, key in enumerate(_key_tuples(key_columns, n)):
        gid = mapping.get(key)
        if gid is None:
            gid = len(group_keys)
            mapping[key] = gid
            group_keys.append(key)
        gids[i] = gid
    return gids, group_keys


def _factorize_single_numeric(
    vc: VColumn, n: int
) -> Tuple[np.ndarray, List[Tuple[Any, ...]]]:
    """np.unique-based factorize for one NaN-free numeric key.  Slot 0
    is reserved for the NULL group; absent slots are compacted away and
    the survivors renumbered by first appearance."""
    if n == 0:
        return np.empty(0, dtype=np.int64), []
    uniq, inverse = np.unique(vc.values, return_inverse=True)
    inverse = inverse.astype(np.int64) + 1
    if not vc.valid.all():
        inverse = np.where(vc.valid, inverse, 0)
    slots = len(uniq) + 1
    first_seen = np.full(slots, n, dtype=np.int64)
    np.minimum.at(first_seen, inverse, np.arange(n, dtype=np.int64))
    present = np.nonzero(first_seen < n)[0]
    order = present[np.argsort(first_seen[present], kind="stable")]
    rank = np.empty(slots, dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    gids = rank[inverse]
    uniq_native = uniq.tolist()
    group_keys = [
        (None,) if slot == 0 else (uniq_native[slot - 1],) for slot in order
    ]
    return gids, group_keys


def _aggregate_one(
    call: Any,
    cbatch: ColumnarBatch,
    schema: StreamSchema,
    gids: np.ndarray,
    ngroups: int,
    n: int,
) -> List[Any]:
    """One aggregate call over all groups; returns per-group results.

    Vectorized where numpy reproduces the row accumulator bit for bit
    (COUNT; int SUM/AVG inside proven bounds; NaN-free MIN/MAX);
    everything order- or precision-sensitive (float SUM/AVG, NaN-bearing
    MIN/MAX, DISTINCT, object columns, int sums that could exceed int64)
    folds through the row engine's own Accumulator in lane order.
    """
    if call.is_star:
        counts = np.bincount(gids, minlength=ngroups)
        return [int(c) for c in counts]
    vc = compile_vector(call.arg, schema)(cbatch)
    vc.raise_first()
    func = call.func
    kind = vc.values.dtype.kind
    if not call.distinct and kind in ("i", "f"):
        lanes = np.nonzero(vc.valid)[0]
        grp = gids[lanes]
        values = vc.values[lanes]
        counts = np.bincount(grp, minlength=ngroups)
        if func is AggFunc.COUNT:
            return [int(c) for c in counts]
        if func in (AggFunc.SUM, AggFunc.AVG) and kind == "i":
            bound = 0
            if len(values):
                bound = max(abs(int(values.min())), abs(int(values.max())))
            if len(values) * bound < 2**63:
                sums = np.zeros(ngroups, dtype=np.int64)
                if len(values):
                    order = np.argsort(grp, kind="stable")
                    sorted_grp = grp[order]
                    starts = np.nonzero(
                        np.r_[True, np.diff(sorted_grp) != 0]
                    )[0]
                    sums[sorted_grp[starts]] = np.add.reduceat(
                        values[order], starts
                    )
                if func is AggFunc.SUM:
                    return [
                        int(sums[g]) if counts[g] else None
                        for g in range(ngroups)
                    ]
                return [
                    int(sums[g]) / int(counts[g]) if counts[g] else None
                    for g in range(ngroups)
                ]
            # Bounds cannot rule out int64 overflow: exact Python ints.
        elif func in (AggFunc.MIN, AggFunc.MAX) and (
            kind == "i" or not np.isnan(values).any()
        ):
            reducer = np.minimum if func is AggFunc.MIN else np.maximum
            results: List[Any] = [None] * ngroups
            if len(values):
                order = np.argsort(grp, kind="stable")
                sorted_grp = grp[order]
                starts = np.nonzero(np.r_[True, np.diff(sorted_grp) != 0])[0]
                extremes = reducer.reduceat(values[order], starts)
                for slot, extreme in zip(sorted_grp[starts], extremes):
                    results[slot] = extreme.item()
            return results
    # Accumulator fallback: the row engine's own fold, in lane order.
    accumulators = [call.new_accumulator() for _ in range(ngroups)]
    values_list = vc.values.tolist()
    valid = vc.valid
    gid_list = gids.tolist()
    for i in range(n):
        if valid[i]:
            accumulators[gid_list[i]].add_value(values_list[i])
    return [acc.result() for acc in accumulators]


_COLUMNAR_HANDLERS = {
    SeqScanP: _cstream_seq_scan,
    FilterP: _cstream_filter,
    ProjectP: _cstream_project,
    LimitP: _cstream_limit,
    UnionAllP: _cstream_union_all,
    SortP: _cstream_sort,
    DistinctP: _cstream_distinct,
    HashJoinP: _cstream_hash_join,
    StreamAggP: _cstream_stream_agg,
    HashAggP: _cstream_hash_agg,
}

# DML runs row-oriented on every engine; the adapters emit the one-row
# rows_affected result as a columnar batch.
from repro.engine.dml import register_columnar as _register_dml  # noqa: E402

_register_dml(_COLUMNAR_HANDLERS)
