"""The physical-plan executor.

Executes physical operator trees against catalog data and records the
work done (page reads through the simulated buffer pool, comparisons,
UDF calls) in the :class:`~repro.engine.context.ExecContext`.
Benchmarks use these counters as the *measured* cost to validate
optimizer estimates.

Operators are generators that yield row batches of ``params.batch_size``
rows, pulled demand-driven from the root.  Streaming operators (scans,
filters, projections, the probe side of a hash join, LIMIT) hold at
most one batch; only declared pipeline breakers (see
:attr:`PhysicalOp.is_pipeline_breaker`) materialize their input.  Each
operator's high-water materialization is recorded as
``peak_resident_rows`` in the runtime stats.  Scalar expressions are
compiled once per operator into closures (:mod:`repro.expr.compiler`).
With ``ctx.columnar_mode`` the same plan runs on the columnar engine
(:mod:`repro.engine.columnar`), which bridges unsupported operators
back to this module's row-batch driver.

Robustness hooks run throughout: the context's
:class:`~repro.engine.governor.ResourceGovernor` is consulted at
operator boundaries, inside row loops, and on every page read, so
budget violations and cancellations surface as typed errors instead of
runaway executions; storage faults injected on page reads and index
lookups are retried with bounded backoff; and blocking hash operators
whose working set would bust the memory budget degrade to partitioned
(spilling) execution rather than failing.
"""

from __future__ import annotations

import time
import zlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.cost.model import pages_for_rows
from repro.engine.adaptive import ReoptimizeSignal, splice_checkpoints
from repro.engine.context import ExecContext
from repro.engine.interpreter import InterpreterStats, sort_rows
from repro.engine.runtime_stats import RuntimeStats
from repro.errors import ExecutionError, MemoryBudgetExceeded
from repro.expr.compiler import compile_predicate, compile_scalar
from repro.expr.evaluator import _param_value, bind_parameters
from repro.expr.expressions import ColumnRef, Param
from repro.expr.schema import StreamSchema
from repro.logical.operators import JoinKind
from repro.stats.feedback import harvest_feedback
from repro.physical.plans import (
    ApplyP,
    CheckP,
    CheckpointSourceP,
    DistinctP,
    FilterP,
    HashAggP,
    HashJoinP,
    INLJoinP,
    IndexScanP,
    LimitP,
    MaterializeP,
    MergeJoinP,
    NLJoinP,
    PhysicalOp,
    ProjectP,
    SeqScanP,
    SortP,
    StreamAggP,
    UdfFilterP,
    UnionAllP,
    plan_signature,
    walk_physical,
)

Row = Tuple[Any, ...]

# Cap on how finely degraded hash operators partition their input when
# squeezing under a memory budget.
_MAX_SPILL_PARTITIONS = 64


def execute(
    plan: PhysicalOp,
    catalog: Catalog,
    context: Optional[ExecContext] = None,
    parameters: Optional[Sequence[Any]] = None,
) -> Tuple[StreamSchema, List[Row]]:
    """Run a physical plan; returns ``(schema, rows)``.

    Every run attaches a *fresh* :class:`RuntimeStats` tree to
    ``context.runtime`` before touching any operator, so per-operator
    actuals (rows, invocations, wall time, pages) describe exactly one
    execution -- re-running a cached prepared-statement plan never
    accumulates counters from earlier runs.

    Args:
        plan: the physical plan to run.
        catalog: table and index data.
        context: execution context (a fresh one is created if omitted).
        parameters: positional values for ``?`` markers in the plan
            (overrides any values already on the context).

    Raises:
        ExecutionError: on malformed plans or runtime failures.
        ResourceError: when the context's budget is violated or its
            cancellation token fires (see QueryTimeout, QueryCancelled).
        TransientStorageError: when an injected fault outlives its retries.
    """
    if context is None:
        context = ExecContext()
    if parameters is not None:
        context.parameters = tuple(parameters)
    context.runtime = RuntimeStats()
    context.begin_execution()
    start = time.perf_counter()
    current = plan
    try:
        with bind_parameters(context.parameters):
            if context.adaptive is not None:
                rows, current = _run_adaptive(plan, catalog, context)
            else:
                rows = _collect(plan, catalog, context)
    finally:
        if context.adaptive is not None:
            # Materialized intermediates live only within one execution;
            # dropping them here guarantees no temps leak, success or not.
            context.adaptive.materialized.clear()
        context.runtime.total_seconds = time.perf_counter() - start
    if context.feedback is not None and not _plan_has_limit(current):
        # Close the loop: per-operator actuals recorded at operator
        # boundaries become observed selectivities for the optimizer.
        # Plans containing a LIMIT are excluded: early termination leaves
        # operators above and beside the quota with *partial* actuals,
        # which would poison the feedback cache with underestimates.
        context.feedback_summary = harvest_feedback(
            current, context.runtime, catalog, context.feedback
        )
    return current.output_schema(), rows


def _run_adaptive(
    plan: PhysicalOp, catalog: Catalog, context: ExecContext
) -> Tuple[List[Row], PhysicalOp]:
    """Progressive-optimization driver: run, and on a CHECK whose observed
    cardinality escapes its validity range, harvest what was learned,
    re-optimize the remainder, splice in already-materialized
    intermediates, and resume.  Returns ``(rows, final_plan)``.

    One RuntimeStats tree spans all attempts (stats are keyed by operator
    identity, and abandoned plans are kept alive on the state's plan
    history, so ids never collide); EXPLAIN ANALYZE over the final plan
    therefore shows checkpoint sources with the rows they replayed.
    """
    state = context.adaptive
    state.plan_history.append(plan)
    state.final_plan = plan
    current = plan
    while True:
        try:
            rows = _collect(current, catalog, context)
            return rows, current
        except ReoptimizeSignal:
            state.reoptimizations += 1
            if context.governor is not None:
                # A replan consumes budget like any other work: charge it
                # and fail typed if the deadline has already passed.
                context.governor.on_reoptimization()
            if context.feedback is not None and not _plan_has_limit(current):
                # Feed the observed cardinalities (including the row count
                # that fired the CHECK) to the estimator, so re-planning
                # sees corrected selectivities, not the ones that misled.
                harvest_feedback(
                    current, context.runtime, catalog, context.feedback
                )
            if state.replanner is None:  # pragma: no cover - note_check
                raise ExecutionError("CHECK fired without a replanner")
            remainder = splice_checkpoints(state.replanner(), state)
            state.plan_history.append(remainder)
            state.final_plan = remainder
            current = remainder


def _collect(op: PhysicalOp, catalog: Catalog, ctx: ExecContext) -> List[Row]:
    """Fully evaluate a plan on the row-batch or columnar engine."""
    if ctx.columnar_mode:
        # Imported lazily: the columnar engine reuses this module's
        # row-batch driver for bridged operators.
        from repro.engine.columnar import drain_columns

        return drain_columns(op, catalog, ctx)
    return _drain(op, catalog, ctx)


def _plan_has_limit(plan: PhysicalOp) -> bool:
    return any(isinstance(node, LimitP) for node in walk_physical(plan))


# ======================================================================
# Shared row helpers (also imported by the columnar engine)
# ======================================================================
def _row_width(schema: StreamSchema) -> float:
    """Modelled bytes per row of a stream, from slot types where known."""
    return schema.row_width_bytes()


# Canonical NaN sentinel.  IEEE 754 NaN is not equal to itself, which
# makes a raw NaN useless as a dict/set key: two NaN-keyed rows hash to
# different buckets (``hash(float("nan"))`` incorporates ``id`` on
# CPython >= 3.10) and never compare equal.  SQL systems -- and SQLite,
# our differential oracle -- treat NaN as a single grouping/distinct/join
# key value.  Mapping every NaN to this one shared object restores that:
# tuple equality short-circuits on identity before calling ``==``, so
# two keys holding _NAN_KEY in the same slot compare (and hash) equal.
_NAN_KEY = float("nan")


def _canon_key_part(value: Any) -> Any:
    """Map any float NaN to the shared sentinel; pass everything else."""
    if isinstance(value, float) and value != value:
        return _NAN_KEY
    return value


def _canon_key(values: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Canonicalize a key tuple so NaN equals NaN (see ``_NAN_KEY``)."""
    return tuple(_canon_key_part(value) for value in values)


def _key_getter(
    schema: StreamSchema, keys: Sequence[ColumnRef]
) -> Callable[[Row], Tuple[Any, ...]]:
    positions = [schema.position(ref) for ref in keys]
    return lambda row: tuple(_canon_key_part(row[p]) for p in positions)


def _partition_of(key: Tuple[Any, ...], parts: int) -> int:
    """Stable partition assignment for degraded hash operators.

    ``hash(str)`` is salted per process, so the builtin would make the
    partition layout -- and therefore per-partition work counters --
    differ between runs.  CRC32 of the key's repr is deterministic.
    """
    return zlib.crc32(repr(key).encode("utf-8")) % parts


def _spill_partitions(build_bytes: int, limit: Optional[int]) -> int:
    """Partition count for a degraded hash operator: enough that each
    partition's build side fits the budget, bounded for sanity."""
    if not limit or limit <= 0:
        return 2
    needed = -(-build_bytes // limit)  # ceil division
    return int(min(_MAX_SPILL_PARTITIONS, max(2, needed)))


# ======================================================================
# Batch-iterator engine (the default)
# ======================================================================
#
# Every handler below is a generator yielding lists of rows (batches of
# at most ``params.batch_size``).  Streaming operators transform their
# child's batches one at a time; pipeline breakers drain their input via
# ``_drain`` and record the materialized size with ``_note_resident``.
# The per-operator accounting (wall time, pages, actual rows, peaks)
# lives in one place: the ``stream_batches`` driver that wraps every
# handler.
Batch = List[Row]


def _drain(op: PhysicalOp, catalog: Catalog, ctx: ExecContext) -> List[Row]:
    """Pull a subplan to exhaustion, materializing all its rows."""
    out: List[Row] = []
    gen = stream_batches(op, catalog, ctx)
    try:
        for batch in gen:
            out.extend(batch)
    finally:
        gen.close()
    return out


def _batches_of(rows: Sequence[Row], size: int) -> Iterator[Batch]:
    for start in range(0, len(rows), size):
        yield list(rows[start:start + size])


def _note_resident(ctx: ExecContext, op: PhysicalOp, count: int) -> None:
    """Record a pipeline breaker's materialized working-set size."""
    if ctx.runtime is not None:
        node = ctx.runtime.node_for(op)
        node.peak_resident_rows = max(node.peak_resident_rows, count)


def stream_batches(
    op: PhysicalOp, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    """The batch engine's driver: streams an operator's output batches.

    Wraps the operator's handler generator with per-pull accounting:
    wall time, page reads, and retries are measured around each pull
    (inclusive of the child pulls that happen inside it, so they are
    cumulative over the subtree); ``actual_rows`` accumulates per
    batch; the governor sees a full check at stream start, the row
    budget against cumulative output, and a tick per batch.  Handlers
    for quadratic or blocking operators keep their own per-row ticks so
    timeouts still fire promptly inside a single long pull.
    """
    handler = _STREAM_HANDLERS.get(type(op))
    if handler is None:
        for op_type, candidate in _STREAM_HANDLERS.items():
            if isinstance(op, op_type):
                handler = candidate
                break
    if handler is None:
        raise ExecutionError(f"no streaming executor for {type(op).__name__}")
    governor = ctx.governor
    if governor is not None:
        # Operator boundary (first pull): full-fidelity budget check.
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
                    batch = next(inner)
                except StopIteration:
                    return
            else:
                pages_before = ctx.counters.total_page_reads
                retries_before = ctx.counters.retries
                start = time.perf_counter()
                try:
                    batch = next(inner)
                except StopIteration:
                    node.wall_seconds += time.perf_counter() - start
                    node.pages_read += (
                        ctx.counters.total_page_reads - pages_before
                    )
                    node.retries += ctx.counters.retries - retries_before
                    return
                node.wall_seconds += time.perf_counter() - start
                node.pages_read += ctx.counters.total_page_reads - pages_before
                # Cumulative over the subtree, like pages_read; the renderer
                # subtracts children to show each operator's own retries.
                node.retries += ctx.counters.retries - retries_before
                node.actual_rows += len(batch)
                # A streaming operator's footprint is the batch in flight;
                # breakers raise this further via _note_resident.
                node.peak_resident_rows = max(
                    node.peak_resident_rows, len(batch)
                )
            produced += len(batch)
            if governor is not None:
                governor.on_rows(produced)
                governor.tick(len(batch))
            yield batch
    finally:
        inner.close()


# ----------------------------------------------------------------------
# Streaming scans
# ----------------------------------------------------------------------
def _stream_seq_scan(
    op: SeqScanP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    table = catalog.table(op.table)
    schema = op.output_schema()
    keep = compile_predicate(op.predicate, schema)
    batch_size = ctx.params.batch_size
    # Page reads stay up-front so the fault-injection schedule does not
    # depend on the batch size or on how far a LIMIT pulls.
    for page_no in range(table.page_count):
        ctx.read_page(op.table, page_no, sequential=True)
    batch: Batch = []
    for _row_id, row in table.visible_rows(ctx.snapshot):
        if op.predicate is not None:
            ctx.counters.rows_compared += 1
            if not keep(row):
                continue
        batch.append(tuple(row))
        if len(batch) >= batch_size:
            ctx.counters.rows_produced += len(batch)
            yield batch
            batch = []
    if batch:
        ctx.counters.rows_produced += len(batch)
        yield batch


def _bound_value(bound: Any) -> Any:
    return _param_value(bound) if isinstance(bound, Param) else bound


def _index_seek(
    index: Any,
    eq_value: Optional[Tuple[Any, ...]],
    low: Any,
    high: Any,
    low_strict: bool,
    high_strict: bool,
) -> List[int]:
    """The row ids an index scan with these seek bounds reads, in key
    order (all of them when no bound is set).

    ``?`` bounds take their bound values here.  A NULL parameter matches
    nothing: it must never open a side of the range, which is what a
    ``None`` bound means to ``OrderedIndex.range``.  A bound whose type
    cannot be ordered against the keys behaves as the same comparison
    in a filter would: equality matches nothing, a range raises.
    """
    if eq_value is None and low is None and high is None:
        return index.ordered_row_ids()
    try:
        if eq_value is not None:
            return index.seek_prefix(tuple(_bound_value(p) for p in eq_value))
        low_value, high_value = _bound_value(low), _bound_value(high)
        if (low_value is None) != (low is None) or (
            (high_value is None) != (high is None)
        ):
            return []
        return index.range(
            low_value,
            high_value,
            include_low=not low_strict,
            include_high=not high_strict,
        )
    except TypeError as exc:
        if eq_value is not None:
            return []
        first_key = next(index.ordered_entries())[0][0]
        for bound in (low_value, high_value):
            try:
                bound is None or first_key < bound
            except TypeError:
                raise ExecutionError(
                    f"incomparable values {first_key!r} and {bound!r}"
                ) from exc
        raise


def _stream_index_scan(
    op: IndexScanP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    table = catalog.table(op.table)
    index = catalog.index(op.index_name)
    schema = op.output_schema()
    keep = compile_predicate(op.predicate, schema)
    batch_size = ctx.params.batch_size
    site = f"idx:{op.index_name}"
    for level in range(index.height):
        ctx.read_page(site, -(level + 1), sequential=False)
    row_ids = ctx.index_lookup(
        lambda: _index_seek(
            index, op.eq_value, op.low, op.high, op.low_strict, op.high_strict
        ),
        site,
    )
    if index.page_count:
        covered = max(
            1, round(index.page_count * len(row_ids) / max(index.entry_count, 1))
        )
        for leaf in range(covered):
            ctx.read_page(site, leaf, sequential=True)
    clustered = index.definition.clustered
    batch: Batch = []
    # Data pages are fetched per matched row as the stream is pulled, so
    # a LIMIT above this scan stops the I/O, not just the row copies.
    for row_id in row_ids:
        if not table.row_visible(row_id, ctx.snapshot):
            continue
        ctx.read_page(op.table, table.page_of(row_id), sequential=clustered)
        row = table.fetch(row_id)
        if op.predicate is not None:
            ctx.counters.rows_compared += 1
            if not keep(row):
                continue
        batch.append(tuple(row))
        if len(batch) >= batch_size:
            ctx.counters.rows_produced += len(batch)
            yield batch
            batch = []
    if batch:
        ctx.counters.rows_produced += len(batch)
        yield batch


# ----------------------------------------------------------------------
# Streaming row operators
# ----------------------------------------------------------------------
def _stream_filter(
    op: FilterP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    schema = op.child.output_schema()
    keep = compile_predicate(op.predicate, schema)
    child = stream_batches(op.child, catalog, ctx)
    try:
        for batch in child:
            out: Batch = []
            for row in batch:
                ctx.counters.rows_compared += 1
                if keep(row):
                    out.append(row)
            if out:
                ctx.counters.rows_produced += len(out)
                yield out
    finally:
        child.close()


def _stream_udf_filter(
    op: UdfFilterP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    schema = op.child.output_schema()
    fn = compile_scalar(op.udf, schema)
    per_tuple = max(1, int(op.udf.per_tuple_cost))
    child = stream_batches(op.child, catalog, ctx)
    try:
        for batch in child:
            out: Batch = []
            for row in batch:
                ctx.counters.udf_invocations += 1
                ctx.counters.rows_compared += per_tuple
                if fn(row) is True:
                    out.append(row)
            if out:
                ctx.counters.rows_produced += len(out)
                yield out
    finally:
        child.close()


def _stream_project(
    op: ProjectP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    schema = op.child.output_schema()
    fns = [compile_scalar(item.expr, schema) for item in op.items]
    child = stream_batches(op.child, catalog, ctx)
    try:
        for batch in child:
            out = [tuple(fn(row) for fn in fns) for row in batch]
            ctx.counters.rows_produced += len(out)
            yield out
    finally:
        child.close()


def _stream_limit(
    op: LimitP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    to_skip = op.offset
    remaining = op.limit  # None means no quota, offset-only
    child = stream_batches(op.child, catalog, ctx)
    try:
        if remaining == 0:
            return
        for batch in child:
            if to_skip:
                if to_skip >= len(batch):
                    to_skip -= len(batch)
                    continue
                batch = batch[to_skip:]
                to_skip = 0
            if remaining is not None and len(batch) > remaining:
                batch = batch[:remaining]
            if remaining is not None:
                remaining -= len(batch)
            ctx.counters.rows_produced += len(batch)
            yield batch
            if remaining is not None and remaining <= 0:
                # Quota met: stop pulling.  Closing the child (in the
                # finally) unwinds the whole pipeline beneath it.
                return
    finally:
        child.close()


# ----------------------------------------------------------------------
# Streaming pipeline breakers
# ----------------------------------------------------------------------
def _stream_sort(
    op: SortP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    rows = _drain(op.child, catalog, ctx)
    schema = op.child.output_schema()
    width = _row_width(schema)
    pages = pages_for_rows(len(rows), width, ctx.params)
    if pages > ctx.params.sort_memory_pages:
        ctx.counters.sort_spill_pages += int(2 * pages)
    if ctx.governor is not None:
        # Sorts always have the external-merge path, so a sort working
        # set over budget is recorded (high-water mark) but never fatal.
        ctx.governor.memory_high_water_bytes = max(
            ctx.governor.memory_high_water_bytes, int(len(rows) * width)
        )
    _note_resident(ctx, op, len(rows))
    out = sort_rows(rows, schema, op.sort_order)
    ctx.counters.rows_compared += int(len(rows) * max(1, len(rows)).bit_length())
    ctx.counters.rows_produced += len(out)
    for batch in _batches_of(out, ctx.params.batch_size):
        yield batch


def _stream_check(
    op: CheckP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    rows = _drain(op.child, catalog, ctx)
    state = ctx.adaptive
    if state is not None:
        # Checkpoint on pass *and* fire: any completed intermediate is
        # reusable by a later remainder plan, not just the one that fired.
        state.store_checkpoint(
            plan_signature(op.child),
            op.child.output_schema(),
            rows,
            op.context_label or "check",
        )
        if state.note_check(op, len(rows)):
            if ctx.runtime is not None:
                # The raise unwinds past the driver's per-batch accounting
                # (the invocation itself was already counted at first
                # pull); record the observation here so EXPLAIN ANALYZE
                # shows the fired CHECK.
                node = ctx.runtime.node_for(op)
                node.actual_rows += len(rows)
                node.check_fired = True
            raise ReoptimizeSignal(op, len(rows))
    _note_resident(ctx, op, len(rows))
    for batch in _batches_of(rows, ctx.params.batch_size):
        yield batch


def _stream_checkpoint_source(
    op: CheckpointSourceP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    if ctx.runtime is not None:
        ctx.runtime.node_for(op).from_checkpoint = True
    size = ctx.params.batch_size
    # Batches slice the stored checkpoint directly -- no whole-result
    # copy, and the replayed row objects keep their identity.
    for start in range(0, len(op.rows), size):
        batch = list(op.rows[start:start + size])
        ctx.counters.rows_produced += len(batch)
        yield batch


def _stream_materialize(
    op: MaterializeP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    rows = _drain(op.child, catalog, ctx)
    pages = pages_for_rows(
        len(rows), _row_width(op.child.output_schema()), ctx.params
    )
    if pages > ctx.params.sort_memory_pages:
        ctx.counters.sort_spill_pages += int(2 * pages)
    _note_resident(ctx, op, len(rows))
    for batch in _batches_of(rows, ctx.params.batch_size):
        yield batch


# ----------------------------------------------------------------------
# Streaming joins
# ----------------------------------------------------------------------
_SUPPORTED_JOIN_KINDS = (
    JoinKind.INNER,
    JoinKind.CROSS,
    JoinKind.LEFT_OUTER,
    JoinKind.SEMI,
    JoinKind.ANTI,
)


def _stream_nl_join(
    op: NLJoinP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    if op.kind not in _SUPPORTED_JOIN_KINDS:
        raise ExecutionError(f"nested loop join cannot run kind {op.kind}")
    # The inner (right) side is materialized for rescanning; the outer
    # streams through it batch by batch.
    right_rows = _drain(op.right, catalog, ctx)
    left_schema = op.left.output_schema()
    right_schema = op.right.output_schema()
    combined = left_schema.concat(right_schema)
    keep = compile_predicate(op.predicate, combined)
    governor = ctx.governor
    pad = (None,) * right_schema.arity
    batch_size = ctx.params.batch_size
    _note_resident(ctx, op, len(right_rows))

    def matches(lrow: Row, rrow: Row) -> bool:
        # Per-pair tick: a quadratic loop must observe timeouts promptly
        # even when a single outer batch implies millions of pairs.
        if governor is not None:
            governor.tick()
        ctx.counters.rows_compared += 1
        if op.predicate is None:
            return True
        return keep(lrow + rrow)

    out: Batch = []
    child = stream_batches(op.left, catalog, ctx)
    try:
        for lbatch in child:
            for lrow in lbatch:
                if op.kind in (JoinKind.INNER, JoinKind.CROSS):
                    for rrow in right_rows:
                        if matches(lrow, rrow):
                            out.append(lrow + rrow)
                elif op.kind is JoinKind.LEFT_OUTER:
                    matched = False
                    for rrow in right_rows:
                        if matches(lrow, rrow):
                            matched = True
                            out.append(lrow + rrow)
                    if not matched:
                        out.append(lrow + pad)
                elif op.kind is JoinKind.SEMI:
                    if any(matches(lrow, rrow) for rrow in right_rows):
                        out.append(lrow)
                elif op.kind is JoinKind.ANTI:
                    if not any(matches(lrow, rrow) for rrow in right_rows):
                        out.append(lrow)
                if len(out) >= batch_size:
                    ctx.counters.rows_produced += len(out)
                    yield out
                    out = []
        if out:
            ctx.counters.rows_produced += len(out)
            yield out
    finally:
        child.close()


def _stream_inl_join(
    op: INLJoinP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    if op.kind not in _SUPPORTED_JOIN_KINDS:
        raise ExecutionError(f"index NL join cannot run kind {op.kind}")
    outer_schema = op.outer.output_schema()
    table = catalog.table(op.table)
    ordered = {index.definition.name: index for index in catalog.indexes_on(op.table)}
    hashed = {
        index.definition.name: index for index in catalog.hash_indexes_on(op.table)
    }
    index = ordered.get(op.index_name) or hashed.get(op.index_name)
    if index is None:
        raise ExecutionError(f"unknown index {op.index_name!r} on {op.table!r}")
    inner_schema = StreamSchema.for_table(op.alias, op.columns, types=op.column_types)
    combined = outer_schema.concat(inner_schema)
    height = getattr(index, "height", 1)
    site = f"idx:{op.index_name}"
    governor = ctx.governor
    key_fns = [compile_scalar(expr, outer_schema) for expr in op.outer_keys]
    residual = (
        compile_predicate(op.residual, combined)
        if op.residual is not None
        else None
    )
    batch_size = ctx.params.batch_size
    out: Batch = []
    child = stream_batches(op.outer, catalog, ctx)
    try:
        for obatch in child:
            for orow in obatch:
                if governor is not None:
                    governor.tick()
                key = tuple(fn(orow) for fn in key_fns)
                if any(part is None for part in key):
                    matched_ids: List[int] = []
                else:
                    for level in range(height):
                        ctx.read_page(site, -(level + 1), sequential=False)
                    if hasattr(index, "seek_prefix"):
                        matched_ids = ctx.index_lookup(
                            lambda: index.seek_prefix(key), site
                        )
                    else:
                        matched_ids = ctx.index_lookup(lambda: index.seek(key), site)
                matched_rows: List[Row] = []
                for row_id in matched_ids:
                    if not table.row_visible(row_id, ctx.snapshot):
                        continue
                    ctx.read_page(op.table, table.page_of(row_id), sequential=False)
                    irow = table.fetch(row_id)
                    if residual is not None:
                        ctx.counters.rows_compared += 1
                        if not residual(orow + irow):
                            continue
                    matched_rows.append(tuple(irow))
                if op.kind in (JoinKind.INNER, JoinKind.CROSS):
                    out.extend(orow + irow for irow in matched_rows)
                elif op.kind is JoinKind.LEFT_OUTER:
                    if matched_rows:
                        out.extend(orow + irow for irow in matched_rows)
                    else:
                        out.append(orow + (None,) * inner_schema.arity)
                elif op.kind is JoinKind.SEMI:
                    if matched_rows:
                        out.append(orow)
                elif op.kind is JoinKind.ANTI:
                    if not matched_rows:
                        out.append(orow)
                if len(out) >= batch_size:
                    ctx.counters.rows_produced += len(out)
                    yield out
                    out = []
        if out:
            ctx.counters.rows_produced += len(out)
            yield out
    finally:
        child.close()


def _stream_merge_join(
    op: MergeJoinP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    left_rows = _drain(op.left, catalog, ctx)
    right_rows = _drain(op.right, catalog, ctx)
    left_schema = op.left.output_schema()
    right_schema = op.right.output_schema()
    combined = left_schema.concat(right_schema)
    left_key = _key_getter(left_schema, op.left_keys)
    right_key = _key_getter(right_schema, op.right_keys)
    residual = (
        compile_predicate(op.residual, combined)
        if op.residual is not None
        else None
    )
    governor = ctx.governor
    _note_resident(ctx, op, len(left_rows) + len(right_rows))
    out: Batch = []
    pad = (None,) * right_schema.arity
    i = j = 0
    n, m = len(left_rows), len(right_rows)
    while i < n:
        if governor is not None:
            governor.tick()
        lkey = left_key(left_rows[i])
        if any(part is None for part in lkey):
            # NULL join keys never match.
            if op.kind is JoinKind.LEFT_OUTER:
                out.append(left_rows[i] + pad)
            elif op.kind is JoinKind.ANTI:
                out.append(left_rows[i])
            i += 1
            continue
        while j < m:
            rkey = right_key(right_rows[j])
            ctx.counters.rows_compared += 1
            if any(part is None for part in rkey) or rkey < lkey:
                j += 1
            else:
                break
        group_start = j
        k = j
        while k < m and right_key(right_rows[k]) == lkey:
            k += 1
        group = right_rows[group_start:k]
        while i < n and left_key(left_rows[i]) == lkey:
            lrow = left_rows[i]
            matched = []
            for rrow in group:
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
            else:
                raise ExecutionError(f"merge join cannot run kind {op.kind}")
            i += 1
    ctx.counters.rows_produced += len(out)
    for batch in _batches_of(out, ctx.params.batch_size):
        yield batch


def _stream_hash_join(
    op: HashJoinP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    if op.kind not in _SUPPORTED_JOIN_KINDS:
        raise ExecutionError(f"hash join cannot run kind {op.kind}")
    # The build (right) side is a pipeline breaker; the probe streams.
    right_rows = _drain(op.right, catalog, ctx)
    left_schema = op.left.output_schema()
    right_schema = op.right.output_schema()
    combined = left_schema.concat(right_schema)
    left_key = _key_getter(left_schema, op.left_keys)
    right_key = _key_getter(right_schema, op.right_keys)
    residual = (
        compile_predicate(op.residual, combined)
        if op.residual is not None
        else None
    )
    governor = ctx.governor
    pad = (None,) * right_schema.arity
    batch_size = ctx.params.batch_size
    build_width = _row_width(right_schema)
    build_bytes = int(len(right_rows) * build_width)
    build_pages = pages_for_rows(len(right_rows), build_width, ctx.params)
    _note_resident(ctx, op, len(right_rows))

    def probe_one(
        build: Dict[Tuple[Any, ...], List[Row]], lrow: Row, out: Batch
    ) -> None:
        key = left_key(lrow)
        ctx.counters.rows_compared += 1
        candidates = (
            build.get(key, []) if not any(part is None for part in key) else []
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

    def make_table(build_rows: List[Row]) -> Dict[Tuple[Any, ...], List[Row]]:
        build: Dict[Tuple[Any, ...], List[Row]] = {}
        for rrow in build_rows:
            key = right_key(rrow)
            ctx.counters.rows_compared += 1
            if any(part is None for part in key):
                continue
            build.setdefault(key, []).append(rrow)
        return build

    degraded = False
    if governor is not None:
        try:
            governor.reserve_memory(build_bytes, "HashJoin build")
        except MemoryBudgetExceeded:
            degraded = True

    if not degraded:
        build = make_table(right_rows)
        probe_seen = 0
        out: Batch = []
        child = stream_batches(op.left, catalog, ctx)
        try:
            for lbatch in child:
                probe_seen += len(lbatch)
                for lrow in lbatch:
                    if governor is not None:
                        governor.tick()
                    probe_one(build, lrow, out)
                    if len(out) >= batch_size:
                        ctx.counters.rows_produced += len(out)
                        yield out
                        out = []
        finally:
            child.close()
        # Spill accounting needs the probe cardinality, so it lands when
        # the probe is exhausted; an abandoned (early-closed) probe never
        # ran the spill, so charging nothing then is the honest account.
        if build_pages > ctx.params.hash_memory_pages:
            probe_pages = pages_for_rows(
                probe_seen, _row_width(left_schema), ctx.params
            )
            ctx.counters.sort_spill_pages += int(2 * (build_pages + probe_pages))
        if out:
            ctx.counters.rows_produced += len(out)
            yield out
        return

    # Graceful degradation: Grace-style partitioning.  Both inputs are
    # hashed on their join keys into the same partition space, so rows
    # that could match always land in the same partition and every join
    # kind (including LEFT_OUTER/ANTI, whose unmatched probe rows stay
    # with their partition) is preserved.  The probe side must be fully
    # drained to partition it, making the whole operator a breaker here.
    left_rows = _drain(op.left, catalog, ctx)
    _note_resident(ctx, op, len(right_rows) + len(left_rows))
    probe_pages = pages_for_rows(len(left_rows), _row_width(left_schema), ctx.params)
    if build_pages > ctx.params.hash_memory_pages:
        ctx.counters.sort_spill_pages += int(2 * (build_pages + probe_pages))
    parts = _spill_partitions(build_bytes, governor.budget.memory_limit_bytes)
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
    out = []
    for build_part, probe_part in zip(build_parts, probe_parts):
        governor.check()
        build = make_table(build_part)
        for lrow in probe_part:
            if governor is not None:
                governor.tick()
            probe_one(build, lrow, out)
    ctx.counters.rows_produced += len(out)
    for batch in _batches_of(out, batch_size):
        yield batch


# ----------------------------------------------------------------------
# Streaming aggregation, distinct, union, apply
# ----------------------------------------------------------------------
def _aggregate_rows(
    op: HashAggP, rows: List[Row], schema: StreamSchema, ctx: ExecContext
) -> List[Row]:
    """Batch-engine twin of ``_aggregate_groups`` with compiled arguments."""
    key_of = _key_getter(schema, op.keys) if op.keys else (lambda _row: ())
    arg_fns = [
        None if call.is_star else compile_scalar(call.arg, schema)
        for call in op.aggregates
    ]
    governor = ctx.governor
    groups: Dict[Tuple[Any, ...], list] = {}
    order: List[Tuple[Any, ...]] = []
    for row in rows:
        if governor is not None:
            governor.tick()
        key = key_of(row)
        ctx.counters.rows_compared += 1
        if key not in groups:
            groups[key] = [call.new_accumulator() for call in op.aggregates]
            order.append(key)
        for fn, accumulator in zip(arg_fns, groups[key]):
            if fn is None:
                accumulator.add(1)
            else:
                accumulator.add_value(fn(row))
    if not groups and not op.keys:
        groups[()] = [call.new_accumulator() for call in op.aggregates]
        order.append(())
    out = [key + tuple(acc.result() for acc in groups[key]) for key in order]
    ctx.counters.rows_produced += len(out)
    return out


def _stream_hash_agg(
    op: HashAggP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    rows = _drain(op.child, catalog, ctx)
    schema = op.child.output_schema()
    governor = ctx.governor
    _note_resident(ctx, op, len(rows))
    if governor is not None and op.keys:
        # The aggregation table holds roughly one input row per group in
        # the worst case; reserve the input working set and degrade to
        # partition-wise aggregation if it busts the memory budget.
        # (Global aggregation -- no keys -- keeps O(1) state and never
        # needs to degrade; partitioning it would also fabricate one
        # spurious row per empty partition.)
        width = _row_width(schema)
        table_bytes = int(len(rows) * width)
        try:
            governor.reserve_memory(table_bytes, "HashAgg table")
        except MemoryBudgetExceeded:
            parts = _spill_partitions(table_bytes, governor.budget.memory_limit_bytes)
            ctx.counters.degraded_operators += 1
            if ctx.runtime is not None:
                ctx.runtime.node_for(op).degraded = True
            ctx.counters.sort_spill_pages += int(
                2 * pages_for_rows(len(rows), width, ctx.params)
            )
            key_of = _key_getter(schema, op.keys)
            partitions: List[List[Row]] = [[] for _ in range(parts)]
            for row in rows:
                partitions[_partition_of(key_of(row), parts)].append(row)
            out: List[Row] = []
            for partition in partitions:
                governor.check()
                if partition:
                    out.extend(_aggregate_rows(op, partition, schema, ctx))
            for batch in _batches_of(out, ctx.params.batch_size):
                yield batch
            return
    out = _aggregate_rows(op, rows, schema, ctx)
    for batch in _batches_of(out, ctx.params.batch_size):
        yield batch


def _stream_stream_agg(
    op: StreamAggP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    # The input is sorted on the keys, so groups are contiguous; the hash
    # path produces identical results and the ordering keeps them grouped.
    rows = _drain(op.child, catalog, ctx)
    _note_resident(ctx, op, len(rows))
    out = _aggregate_rows(op, rows, op.child.output_schema(), ctx)
    for batch in _batches_of(out, ctx.params.batch_size):
        yield batch


def _stream_distinct(
    op: DistinctP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    governor = ctx.governor
    seen = set()
    out: List[Row] = []
    child = stream_batches(op.child, catalog, ctx)
    try:
        for batch in child:
            for row in batch:
                if governor is not None:
                    governor.tick()
                ctx.counters.rows_compared += 1
                key = _canon_key(row)
                if key not in seen:
                    out.append(row)
                    seen.add(key)
    finally:
        child.close()
    _note_resident(ctx, op, len(out))
    ctx.counters.rows_produced += len(out)
    for batch in _batches_of(out, ctx.params.batch_size):
        yield batch


def _stream_union_all(
    op: UnionAllP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    # Child batches pass straight through -- no concatenation copy.
    for side in (op.left, op.right):
        child = stream_batches(side, catalog, ctx)
        try:
            for batch in child:
                ctx.counters.rows_produced += len(batch)
                yield batch
        finally:
            child.close()


def _stream_apply(
    op: ApplyP, catalog: Catalog, ctx: ExecContext
) -> Iterator[Batch]:
    left_schema = op.left.output_schema()
    inner_stats = InterpreterStats()
    from repro.engine.interpreter import _eval_op  # reference evaluator

    batch_size = ctx.params.batch_size
    out: Batch = []
    noted = 0
    child = stream_batches(op.left, catalog, ctx)
    try:
        for lbatch in child:
            for lrow in lbatch:
                if ctx.governor is not None:
                    ctx.governor.check()
                ctx.counters.inner_evaluations += 1
                _schema, inner_rows = _eval_op(
                    op.inner, catalog, left_schema, lrow, inner_stats
                )
                if op.kind == "semi":
                    if inner_rows:
                        out.append(lrow)
                elif op.kind == "anti":
                    if not inner_rows:
                        out.append(lrow)
                else:
                    if len(inner_rows) > 1:
                        raise ExecutionError(
                            "scalar subquery returned more than one row"
                        )
                    value = inner_rows[0][0] if inner_rows else None
                    out.append(lrow + (value,))
                if len(out) >= batch_size:
                    ctx.counters.rows_compared += inner_stats.rows_produced - noted
                    noted = inner_stats.rows_produced
                    ctx.counters.rows_produced += len(out)
                    yield out
                    out = []
        ctx.counters.rows_compared += inner_stats.rows_produced - noted
        if out:
            ctx.counters.rows_produced += len(out)
            yield out
    finally:
        child.close()


_STREAM_HANDLERS = {
    CheckP: _stream_check,
    CheckpointSourceP: _stream_checkpoint_source,
    SeqScanP: _stream_seq_scan,
    IndexScanP: _stream_index_scan,
    FilterP: _stream_filter,
    UdfFilterP: _stream_udf_filter,
    ProjectP: _stream_project,
    SortP: _stream_sort,
    MaterializeP: _stream_materialize,
    NLJoinP: _stream_nl_join,
    INLJoinP: _stream_inl_join,
    MergeJoinP: _stream_merge_join,
    HashJoinP: _stream_hash_join,
    StreamAggP: _stream_stream_agg,
    HashAggP: _stream_hash_agg,
    DistinctP: _stream_distinct,
    UnionAllP: _stream_union_all,
    LimitP: _stream_limit,
    ApplyP: _stream_apply,
}


# The DML module registers InsertP/UpdateP/DeleteP handlers into both
# dispatch tables above when it finishes importing; importing it here
# (after the tables exist) keeps direct ``execute()`` callers working
# without a separate registration step.
from repro.engine import dml as _dml  # noqa: E402,F401
