"""Physical DML execution: the fault-hardened write path.

One module serves both engines -- the row-batch engine and the
columnar engine delegate to the same per-row write sequence, because
writes are row-oriented no matter how the reads were vectorized.

The write sequence for every mutated row is strictly ordered so that a
failure at any point leaves the statement cleanly abortable:

1. governor charge (``on_rows_written``) -- budget violations abort
   before anything is touched;
2. injected fault hooks (``wal_append``, ``write_page``) -- a
   persistent fault aborts before anything is touched;
3. WAL record buffered on the transaction (statement-atomic: the
   buffer is flushed to the log only at successful statement end);
4. heap mutation (``mvcc_insert`` / ``mvcc_delete``), which also
   records the undo entry via the transaction;
5. incremental secondary-index maintenance for inserts (where unique
   constraints are checked against live versions).

Steps 4-5 run under the table's reentrant mutation lock: with
concurrent writer threads, the appended row, its assigned row id, its
version stamps, and its index entries must all describe the same row,
and the unique-index check must not race another writer inserting the
same key.  The fault gate stays *outside* the lock -- injected faults
may sleep through retries and must not serialize unrelated writers.

UPDATE and DELETE materialize the matching row ids from the statement's
snapshot *before* mutating anything (the classical Halloween-problem
avoidance), then write against latest state -- first-writer-wins
conflicts surface as :class:`~repro.errors.SerializationError` from the
heap layer and propagate to the transaction machinery.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.core.systemr.access import _split_for_index
from repro.engine.context import ExecContext
from repro.engine.executor import _collect, _index_seek
from repro.errors import ExecutionError
from repro.expr.compiler import compile_predicate, compile_scalar
from repro.expr.schema import StreamSchema
from repro.physical.plans import DML_SCHEMA, DeleteP, InsertP, UpdateP
from repro.storage.table import HeapTable

Row = Tuple[Any, ...]

# Expressions in VALUES rows reference no columns (the binder enforces
# it), so they evaluate against an empty stream.
_EMPTY_SCHEMA = StreamSchema(())


def _require_txn(ctx: ExecContext):
    """The transaction every DML statement runs in (set by Database)."""
    txn = ctx.txn
    if txn is None or txn.manager is None:
        raise ExecutionError(
            "DML requires a transaction context; run the statement "
            "through Database.sql()"
        )
    return txn


def _target_table(catalog: Catalog, name: str) -> HeapTable:
    return catalog.table(name)


def _index_insert(catalog: Catalog, name: str, row: Row, row_id: int) -> None:
    """Incrementally maintain every secondary index on ``name``."""
    for index in catalog.indexes_on(name):
        index.insert_entry(row, row_id)
    for index in catalog.hash_indexes_on(name):
        index.insert_entry(row, row_id)


def _write_gate(ctx: ExecContext, name: str, table: HeapTable, page_no: int) -> None:
    """Budget + fault gate run before each row mutation.

    Ordering matters: if the governor rejects or an injected fault
    outlives its retries, *nothing* has been written yet, so statement
    rollback restores the pre-statement image exactly.
    """
    ctx.governor.on_rows_written(1)
    ctx.wal_append(name)
    ctx.write_page(name, page_no)


def _seek_candidates(
    catalog: Catalog, op_table: str, table: HeapTable, predicate, ctx: ExecContext
) -> Optional[List[int]]:
    """Row ids an ordered index narrows the predicate to, in heap order,
    or None when no index's leading column is bound.

    The bounds come from the optimizer's access-path splitter, so a
    keyed UPDATE/DELETE seeks exactly as the same SELECT would; an
    equality seek is preferred over a range.
    """
    chosen = None
    for index in catalog.indexes_on(op_table):
        eq, low, high, low_strict, high_strict, _residual = _split_for_index(
            predicate, op_table, index.definition.columns[0]
        )
        if eq is not None:
            chosen = (index, ((eq,), None, None, False, False))
            break
        if chosen is None and (low is not None or high is not None):
            chosen = (index, (None, low, high, low_strict, high_strict))
    if chosen is None:
        return None
    index, bounds = chosen
    site = f"idx:{index.definition.name}"
    for level in range(index.height):
        ctx.read_page(site, -(level + 1), sequential=False)

    def seek() -> List[int]:
        # Concurrent writers maintain the index under the table lock.
        with table.lock:
            return _index_seek(index, *bounds)

    return sorted(ctx.index_lookup(seek, site))


def _matching_rows(
    op_table: str,
    table: HeapTable,
    predicate,
    catalog: Catalog,
    ctx: ExecContext,
) -> List[Tuple[int, Row]]:
    """Materialize (row_id, row) pairs visible to the statement snapshot
    that satisfy the predicate, in heap order.  Materializing first
    means mutations made by this very statement can never re-enter the
    scan.  A bound leading index column turns the scan into a seek, so
    a keyed write touches only its matches, not the whole table."""
    schema = StreamSchema.for_table(op_table, table.schema.column_names)
    keep = compile_predicate(predicate, schema)
    candidates = _seek_candidates(catalog, op_table, table, predicate, ctx)
    matches: List[Tuple[int, Row]] = []
    if candidates is None:
        for page_no in range(table.page_count):
            ctx.read_page(op_table, page_no, sequential=True)
        for row_id, row in table.visible_rows(ctx.snapshot):
            ctx.governor.tick()
            if keep(row):
                matches.append((row_id, row))
        return matches
    for row_id in candidates:
        ctx.governor.tick()
        if not table.row_visible(row_id, ctx.snapshot):
            continue
        ctx.read_page(op_table, table.page_of(row_id), sequential=False)
        row = table.fetch(row_id)
        if keep(row):
            matches.append((row_id, row))
    return matches


# ----------------------------------------------------------------------
# INSERT
# ----------------------------------------------------------------------
def _run_insert(op: InsertP, catalog: Catalog, ctx: ExecContext) -> List[Row]:
    txn = _require_txn(ctx)
    table = _target_table(catalog, op.table)
    txn.manager.register_write(txn, op.table, table)
    if op.source is not None:
        source_rows = _collect(op.source, catalog, ctx)
        positions = op.select_positions or []
        rows: List[Row] = [
            tuple(
                source_row[position] if position is not None else None
                for position in positions
            )
            for source_row in source_rows
        ]
    else:
        rows = []
        for value_exprs in op.rows:
            rows.append(
                tuple(
                    compile_scalar(expr, _EMPTY_SCHEMA)(()) for expr in value_exprs
                )
            )
    count = 0
    for values in rows:
        # Validate before the gate: a type/NOT NULL violation is a
        # statement error, not a storage fault, and must not charge
        # budgets or trip injected faults.
        table.schema.validate_row(values)
        _write_gate(ctx, op.table, table, table.page_of(max(0, len(table.rows()))))
        with table.lock:
            row_id = table.mvcc_insert(values, txn.txid)
            stored = table.fetch(row_id)
            txn.note_insert(op.table, table, row_id, stored)
            _index_insert(catalog, op.table, stored, row_id)
        ctx.counters.rows_written += 1
        count += 1
    return [(count,)]


# ----------------------------------------------------------------------
# DELETE
# ----------------------------------------------------------------------
def _run_delete(op: DeleteP, catalog: Catalog, ctx: ExecContext) -> List[Row]:
    txn = _require_txn(ctx)
    table = _target_table(catalog, op.table)
    txn.manager.register_write(txn, op.table, table)
    matches = _matching_rows(op.table, table, op.predicate, catalog, ctx)
    for row_id, row in matches:
        _write_gate(ctx, op.table, table, table.page_of(row_id))
        with table.lock:
            table.mvcc_delete(row_id, txn.txid)
            txn.note_delete(op.table, table, row_id, row)
        ctx.counters.rows_written += 1
    return [(len(matches),)]


# ----------------------------------------------------------------------
# UPDATE
# ----------------------------------------------------------------------
def _run_update(op: UpdateP, catalog: Catalog, ctx: ExecContext) -> List[Row]:
    txn = _require_txn(ctx)
    table = _target_table(catalog, op.table)
    txn.manager.register_write(txn, op.table, table)
    schema = StreamSchema.for_table(op.table, table.schema.column_names)
    setters = [
        (position, compile_scalar(expr, schema))
        for position, expr in op.assignments
    ]
    matches = _matching_rows(op.table, table, op.predicate, catalog, ctx)
    count = 0
    for row_id, row in matches:
        new_row = list(row)
        for position, setter in setters:
            # Every SET right-hand side sees the *old* row, per SQL.
            new_row[position] = setter(row)
        table.schema.validate_row(tuple(new_row))
        _write_gate(ctx, op.table, table, table.page_of(row_id))
        new_page = table.page_of(max(0, len(table.rows())))
        if new_page != table.page_of(row_id):
            ctx.write_page(op.table, new_page)
        with table.lock:
            table.mvcc_delete(row_id, txn.txid)
            new_row_id = table.mvcc_insert(tuple(new_row), txn.txid)
            stored = table.fetch(new_row_id)
            txn.note_update(op.table, table, row_id, new_row_id, row, stored)
            _index_insert(catalog, op.table, stored, new_row_id)
        ctx.counters.rows_written += 1
        count += 1
    return [(count,)]


# ----------------------------------------------------------------------
# Engine adapters + registration
# ----------------------------------------------------------------------
def _stream_insert(op, catalog, ctx):
    yield _run_insert(op, catalog, ctx)


def _stream_update(op, catalog, ctx):
    yield _run_update(op, catalog, ctx)


def _stream_delete(op, catalog, ctx):
    yield _run_delete(op, catalog, ctx)


def _columnar_adapter(run_handler):
    def handler(op, catalog, ctx):
        from repro.engine.columnar import _chunks

        rows = run_handler(op, catalog, ctx)
        yield from _chunks(rows, DML_SCHEMA, ctx.params.batch_size)

    return handler


def register_columnar(handlers: dict) -> None:
    """Install DML handlers into the columnar engine's dispatch table."""
    handlers[InsertP] = _columnar_adapter(_run_insert)
    handlers[UpdateP] = _columnar_adapter(_run_update)
    handlers[DeleteP] = _columnar_adapter(_run_delete)


# The row-batch engine registers here (imported at the bottom of
# executor.py, after its dispatch table exists).
from repro.engine import executor as _executor  # noqa: E402

_executor._STREAM_HANDLERS[InsertP] = _stream_insert
_executor._STREAM_HANDLERS[UpdateP] = _stream_update
_executor._STREAM_HANDLERS[DeleteP] = _stream_delete
