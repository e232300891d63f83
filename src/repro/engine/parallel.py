"""Partitioned-stream parallel execution: the runtime behind ExchangeP.

The optimizer half of parallelism (Section 7.1: XPRS-style two-phase
optimization, partitioning as a physical property, repartitioning cost)
has been in the repo since the two-phase work; this module supplies the
execution half.  A :class:`~repro.physical.plans.GatherP` placed by the
exchange-placement pass marks a *region*: the subtree between the gather
and the distributing :class:`~repro.physical.plans.ExchangeP` operators
below it.  The region runs in two stages:

Stage 1 (driver thread): the subtrees *below* each distributing
exchange are drained through the ordinary engine, so page reads, the
buffer pool, and fault-injection schedules stay single-threaded and
deterministic.  Every source row gets a global sequence tag, then rows
are partitioned per the exchange scheme -- hash (on the exchange's key
positions, via the canonical value hash shared with the columnar
kernels), round-robin, or broadcast (every worker sees every row).

Stage 2 (worker threads): ``dop`` workers each run tag-aware twins of
the region's operators -- filter/project chains, partitioned hash
join, partitioned hash aggregation/distinct with the Grace spill
degradation of the serial engine reproduced per partition -- pushing
output batches into a bounded queue (backpressure).  The driver merges
worker outputs by tag into one stream, so results are bit-identical to
the single-threaded oracle (``parallel_mode=False``).

Determinism rests on three facts: hash partitioning sends all build
rows of a key to one partition in their original relative order, every
probe/input tag lives in exactly one partition, and each worker emits
tag-ascending output; a k-way merge by tag therefore reproduces the
serial operator's output order exactly.

Error handling is structural: any worker error sets a region-wide abort
event, every queue put/get polls it, and the driver joins *all* workers
before re-raising the first typed error in partition order -- workers
cannot be orphaned, including under LIMIT-driven early close and
cancellation/timeout from the shared governor, which every worker polls
on the same ``CHECK_INTERVAL`` cadence as the serial engine.

Memory follows a degrade-don't-fail ladder: the admission controller's
pool is leased per worker (an over-subscribed pool halves the degree of
parallelism instead of rejecting), and the governor's per-query memory
budget is checked per partition (an oversized partition build falls
back to Grace sub-partitioning exactly like the serial operator).
"""

from __future__ import annotations

import heapq
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.cost.model import pages_for_rows
from repro.engine.context import ExecContext, ExecCounters
from repro.engine.runtime_stats import PartitionStats
from repro.errors import ExecutionError, MemoryBudgetExceeded
from repro.expr.compiler import compile_predicate, compile_scalar
from repro.logical.operators import JoinKind
from repro.physical.plans import (
    DistinctP,
    ExchangeP,
    FilterP,
    GatherP,
    HashAggP,
    HashJoinP,
    PhysicalOp,
    ProjectP,
    UdfFilterP,
)
from repro.physical.properties import PartitionScheme

Row = Tuple[Any, ...]
Batch = List[Row]
Tagged = Tuple[List[int], List[Row]]

# Bounded output queue depth per worker, in batches: deep enough to keep
# the merge fed, shallow enough that a stalled consumer exerts real
# backpressure on every worker.
_QUEUE_BATCHES = 4
# Poll interval for abort-aware queue waits; bounds how long a worker or
# the driver can stay blocked after the region has been aborted.
_POLL_SECONDS = 0.02
# Worker-side governor cadence, matching ResourceGovernor.CHECK_INTERVAL.
_CHECK_INTERVAL = 128

_PARALLEL_JOIN_KINDS = (
    JoinKind.INNER,
    JoinKind.LEFT_OUTER,
    JoinKind.SEMI,
    JoinKind.ANTI,
)

_DONE = object()


def partition_index(values: Sequence[Any], parts: int) -> int:
    """Partition assignment for one key: canonical hash mod parts.

    Uses the value-canonical hash from :mod:`repro.expr.vector`, so a
    row hashed here and a column hashed vectorized (columnar stage 1)
    agree lane for lane, and numerically equal int/float/bool keys land
    in the same partition on both sides of a repartitioned join.
    """
    # Imported on use: repro.expr.vector loads numpy, which sessions
    # that never run a parallel or columnar plan need not pay for.
    from repro.expr.vector import hash_key

    return hash_key(values) % parts


# ----------------------------------------------------------------------
# Exchange page accounting (shared by the simulated and real paths)
# ----------------------------------------------------------------------
def exchange_page_count(
    rows: int,
    width: float,
    scheme: PartitionScheme,
    degree: int,
    params,
) -> int:
    """Pages an exchange moves between processors, scheme-aware.

    This is the *measured* twin of the two-phase cost model
    (:class:`repro.core.parallel.machine.ParallelMachine`): a hash or
    round-robin repartition moves the fraction of pages that change
    processors, ``(p-1)/p``; a broadcast replicates to every other
    processor, ``p-1`` copies; a gather (singleton) ships everything to
    the coordinator once.  The serial streaming pass-through, the
    columnar pass-through, and the real parallel runtime all charge
    through this one function, so
    ``counters.exchange_pages`` agrees across engines on the same plan.
    """
    raw = pages_for_rows(rows, width, params)
    if degree <= 1:
        moved = raw
    elif scheme is PartitionScheme.BROADCAST:
        moved = raw * (degree - 1)
    elif scheme in (PartitionScheme.HASH, PartitionScheme.ROUND_ROBIN):
        moved = raw * (degree - 1) / degree
    else:
        moved = raw
    return int(moved)


# ----------------------------------------------------------------------
# Region analysis
# ----------------------------------------------------------------------
@dataclass
class _Region:
    gather: GatherP
    root: PhysicalOp
    inputs: List[ExchangeP]
    ops: List[PhysicalOp]


def analyze_region(op: GatherP) -> Optional[_Region]:
    """Validate the subtree under a gather as an executable region.

    Returns None (caller falls back to serial pass-through execution)
    when the region contains an operator the worker runtime has no twin
    for -- Sort/Limit/Apply/Check/nested Gather -- or a malformed
    exchange.  The placement pass only emits supported shapes, but the
    runtime re-validates so a hand-built plan degrades to serial
    execution instead of failing.
    """
    inputs: List[ExchangeP] = []
    ops: List[PhysicalOp] = []
    stack: List[PhysicalOp] = [op.child]
    while stack:
        node = stack.pop()
        if isinstance(node, GatherP):
            return None
        if isinstance(node, ExchangeP):
            scheme = node.target.scheme
            if scheme not in (
                PartitionScheme.HASH,
                PartitionScheme.ROUND_ROBIN,
                PartitionScheme.BROADCAST,
            ):
                return None
            if scheme is PartitionScheme.HASH and not getattr(
                node, "key_positions", None
            ):
                return None
            inputs.append(node)
            continue
        if isinstance(node, HashJoinP):
            if node.kind not in _PARALLEL_JOIN_KINDS:
                return None
        elif isinstance(node, HashAggP):
            if not node.keys:
                return None
        elif not isinstance(node, (FilterP, UdfFilterP, ProjectP, DistinctP)):
            return None
        ops.append(node)
        stack.extend(node.children())
    if not inputs:
        return None
    return _Region(gather=op, root=op.child, inputs=inputs, ops=ops)


def plan_parallel_regions(plan: PhysicalOp) -> List[GatherP]:
    """All Gather operators in a plan (for tests and benchmarks)."""
    from repro.physical.plans import walk_physical

    return [node for node in walk_physical(plan) if isinstance(node, GatherP)]


# ----------------------------------------------------------------------
# Per-operator compiled closures (built once, shared read-only)
# ----------------------------------------------------------------------
@dataclass
class _JoinFns:
    left_key: Callable[[Row], Tuple[Any, ...]]
    right_key: Callable[[Row], Tuple[Any, ...]]
    residual: Optional[Callable[[Row], bool]]
    pad: Row
    kind: JoinKind
    build_width: float
    probe_width: float


@dataclass
class _AggFns:
    key_of: Callable[[Row], Tuple[Any, ...]]
    arg_fns: List[Optional[Callable[[Row], Any]]]
    width: float


def _build_fns(region: _Region, ctx: ExecContext) -> Dict[int, Any]:
    """Compile every region operator's closures once on the driver.

    The closures (predicates, scalar projections, key getters) are pure
    functions of the row; workers share them read-only.
    """
    from repro.engine.executor import _key_getter, _row_width

    fns: Dict[int, Any] = {}
    for node in region.ops:
        if isinstance(node, FilterP):
            fns[id(node)] = compile_predicate(
                node.predicate, node.child.output_schema()
            )
        elif isinstance(node, UdfFilterP):
            fns[id(node)] = (
                compile_scalar(node.udf, node.child.output_schema()),
                max(1, int(node.udf.per_tuple_cost)),
            )
        elif isinstance(node, ProjectP):
            schema = node.child.output_schema()
            fns[id(node)] = [
                compile_scalar(item.expr, schema) for item in node.items
            ]
        elif isinstance(node, HashJoinP):
            left_schema = node.left.output_schema()
            right_schema = node.right.output_schema()
            combined = left_schema.concat(right_schema)
            fns[id(node)] = _JoinFns(
                left_key=_key_getter(left_schema, node.left_keys),
                right_key=_key_getter(right_schema, node.right_keys),
                residual=(
                    compile_predicate(node.residual, combined)
                    if node.residual is not None
                    else None
                ),
                pad=(None,) * right_schema.arity,
                kind=node.kind,
                build_width=_row_width(right_schema),
                probe_width=_row_width(left_schema),
            )
        elif isinstance(node, HashAggP):
            schema = node.child.output_schema()
            fns[id(node)] = _AggFns(
                key_of=_key_getter(schema, node.keys),
                arg_fns=[
                    None if call.is_star else compile_scalar(call.arg, schema)
                    for call in node.aggregates
                ],
                width=_row_width(schema),
            )
        # DistinctP needs no compiled state.
    return fns


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
class _Aborted(Exception):
    """Internal: the region was aborted by a peer; unwind quietly."""


class _RegionState:
    """Everything stage 2 shares: inputs, closures, abort, shards."""

    def __init__(
        self,
        region: _Region,
        ctx: ExecContext,
        dop: int,
        fns: Dict[int, Any],
        parts: Dict[int, List[List[Tuple[int, Row]]]],
    ) -> None:
        self.region = region
        self.ctx = ctx
        self.dop = dop
        self.fns = fns
        self.parts = parts
        self.params = ctx.params
        self.governor = ctx.governor
        self.abort = threading.Event()
        self.errors: List[Optional[BaseException]] = [None] * dop
        self.shards: List[ExecCounters] = [ExecCounters() for _ in range(dop)]
        # Per-worker, per-op observed output rows and resident highs,
        # merged into the RuntimeStats tree in partition order.
        self.op_rows: List[Dict[int, int]] = [dict() for _ in range(dop)]
        self.op_resident: List[Dict[int, int]] = [dict() for _ in range(dop)]
        self.degraded_ops: List[set] = [set() for _ in range(dop)]
        self.pstats = [PartitionStats(index=w) for w in range(dop)]
        self.queues: List["queue.Queue"] = [
            queue.Queue(maxsize=_QUEUE_BATCHES) for _ in range(dop)
        ]
        self.threads: List[threading.Thread] = []


class _Worker:
    """One partition's tag-aware evaluation of the region subtree."""

    def __init__(self, state: _RegionState, w: int) -> None:
        self.state = state
        self.w = w
        self.shard = state.shards[w]
        self._ticks = 0

    # -- governor / abort -----------------------------------------------
    def _check(self) -> None:
        self._ticks += 1
        if self._ticks >= _CHECK_INTERVAL:
            self._ticks = 0
            if self.state.abort.is_set():
                raise _Aborted()
            governor = self.state.governor
            if governor is not None:
                governor.check()

    def _note_rows(self, node: PhysicalOp, n: int) -> None:
        rows = self.state.op_rows[self.w]
        rows[id(node)] = rows.get(id(node), 0) + n

    def _note_resident(self, node: PhysicalOp, n: int) -> None:
        resident = self.state.op_resident[self.w]
        if n > resident.get(id(node), 0):
            resident[id(node)] = n

    # -- evaluation ------------------------------------------------------
    def stream(self, node: PhysicalOp) -> Iterator[Tagged]:
        if isinstance(node, GatherP):  # pragma: no cover - analyze rejects
            raise ExecutionError("nested gather inside a parallel region")
        if isinstance(node, ExchangeP):
            return self._stream_input(node)
        if isinstance(node, FilterP):
            return self._stream_filter(node)
        if isinstance(node, UdfFilterP):
            return self._stream_udf_filter(node)
        if isinstance(node, ProjectP):
            return self._stream_project(node)
        if isinstance(node, HashJoinP):
            return self._stream_hash_join(node)
        if isinstance(node, HashAggP):
            return self._stream_hash_agg(node)
        if isinstance(node, DistinctP):
            return self._stream_distinct(node)
        raise ExecutionError(
            f"parallel region has no worker twin for {type(node).__name__}"
        )

    def drain(self, node: PhysicalOp) -> Tuple[List[int], List[Row]]:
        tags: List[int] = []
        rows: List[Row] = []
        for chunk_tags, chunk_rows in self.stream(node):
            tags.extend(chunk_tags)
            rows.extend(chunk_rows)
        return tags, rows

    def _stream_input(self, node: ExchangeP) -> Iterator[Tagged]:
        pairs = self.state.parts[id(node)][self.w]
        size = self.state.params.batch_size
        for start in range(0, len(pairs), size):
            chunk = pairs[start : start + size]
            yield [tag for tag, _ in chunk], [row for _, row in chunk]

    def _stream_filter(self, node: FilterP) -> Iterator[Tagged]:
        keep = self.state.fns[id(node)]
        for tags, rows in self.stream(node.child):
            out_tags: List[int] = []
            out_rows: List[Row] = []
            for tag, row in zip(tags, rows):
                self._check()
                self.shard.rows_compared += 1
                if keep(row):
                    out_tags.append(tag)
                    out_rows.append(row)
            if out_rows:
                self.shard.rows_produced += len(out_rows)
                self._note_rows(node, len(out_rows))
                yield out_tags, out_rows

    def _stream_udf_filter(self, node: UdfFilterP) -> Iterator[Tagged]:
        fn, per_tuple = self.state.fns[id(node)]
        for tags, rows in self.stream(node.child):
            out_tags: List[int] = []
            out_rows: List[Row] = []
            for tag, row in zip(tags, rows):
                self._check()
                self.shard.udf_invocations += 1
                self.shard.rows_compared += per_tuple
                if fn(row) is True:
                    out_tags.append(tag)
                    out_rows.append(row)
            if out_rows:
                self.shard.rows_produced += len(out_rows)
                self._note_rows(node, len(out_rows))
                yield out_tags, out_rows

    def _stream_project(self, node: ProjectP) -> Iterator[Tagged]:
        fns = self.state.fns[id(node)]
        for tags, rows in self.stream(node.child):
            self._check()
            out_rows = [tuple(fn(row) for fn in fns) for row in rows]
            self.shard.rows_produced += len(out_rows)
            self._note_rows(node, len(out_rows))
            yield tags, out_rows

    # -- hash join -------------------------------------------------------
    def _probe_rows(
        self,
        fns: _JoinFns,
        build: Dict[Tuple[Any, ...], List[Row]],
        lrow: Row,
    ) -> List[Row]:
        """Serial ``probe_one`` twin: all output rows for one probe row."""
        key = fns.left_key(lrow)
        self.shard.rows_compared += 1
        candidates = (
            build.get(key, []) if not any(part is None for part in key) else []
        )
        matched = []
        for rrow in candidates:
            if fns.residual is not None:
                self.shard.rows_compared += 1
                if not fns.residual(lrow + rrow):
                    continue
            matched.append(rrow)
        if fns.kind in (JoinKind.INNER, JoinKind.CROSS):
            return [lrow + rrow for rrow in matched]
        if fns.kind is JoinKind.LEFT_OUTER:
            return (
                [lrow + rrow for rrow in matched] if matched else [lrow + fns.pad]
            )
        if fns.kind is JoinKind.SEMI:
            return [lrow] if matched else []
        return [] if matched else [lrow]  # ANTI

    def _make_table(
        self, fns: _JoinFns, build_rows: List[Row]
    ) -> Dict[Tuple[Any, ...], List[Row]]:
        build: Dict[Tuple[Any, ...], List[Row]] = {}
        for rrow in build_rows:
            self.shard.rows_compared += 1
            key = fns.right_key(rrow)
            if any(part is None for part in key):
                continue
            build.setdefault(key, []).append(rrow)
        return build

    def _stream_hash_join(self, node: HashJoinP) -> Iterator[Tagged]:
        from repro.engine.executor import _partition_of, _spill_partitions

        fns: _JoinFns = self.state.fns[id(node)]
        _, build_rows = self.drain(node.right)
        self._note_resident(node, len(build_rows))
        build_bytes = int(len(build_rows) * fns.build_width)
        build_pages = pages_for_rows(
            len(build_rows), fns.build_width, self.state.params
        )
        governor = self.state.governor
        degraded = False
        if governor is not None:
            try:
                governor.reserve_memory(build_bytes, "HashJoin build")
            except MemoryBudgetExceeded:
                degraded = True
        size = self.state.params.batch_size

        if not degraded:
            build = self._make_table(fns, build_rows)
            probe_seen = 0
            out_tags: List[int] = []
            out_rows: List[Row] = []
            for tags, rows in self.stream(node.left):
                probe_seen += len(rows)
                for tag, lrow in zip(tags, rows):
                    self._check()
                    produced = self._probe_rows(fns, build, lrow)
                    out_tags.extend([tag] * len(produced))
                    out_rows.extend(produced)
                    if len(out_rows) >= size:
                        self.shard.rows_produced += len(out_rows)
                        self._note_rows(node, len(out_rows))
                        yield out_tags, out_rows
                        out_tags, out_rows = [], []
            if build_pages > self.state.params.hash_memory_pages:
                probe_pages = pages_for_rows(
                    probe_seen, fns.probe_width, self.state.params
                )
                self.shard.sort_spill_pages += int(
                    2 * (build_pages + probe_pages)
                )
            if out_rows:
                self.shard.rows_produced += len(out_rows)
                self._note_rows(node, len(out_rows))
                yield out_tags, out_rows
            return

        # Grace degradation within this partition, mirroring the serial
        # operator's accounting; output is re-sorted by probe tag so the
        # gather-side merge still sees tag-ascending chunks and the
        # merged stream keeps the serial in-memory probe order.
        self.state.degraded_ops[self.w].add(id(node))
        self.state.pstats[self.w].degraded = True
        probe_tags, probe_rows = self.drain(node.left)
        self._note_resident(node, len(build_rows) + len(probe_rows))
        probe_pages = pages_for_rows(
            len(probe_rows), fns.probe_width, self.state.params
        )
        if build_pages > self.state.params.hash_memory_pages:
            self.shard.sort_spill_pages += int(2 * (build_pages + probe_pages))
        limit = (
            governor.budget.memory_limit_bytes if governor is not None else None
        )
        parts = _spill_partitions(build_bytes, limit)
        self.shard.sort_spill_pages += int(2 * (build_pages + probe_pages))
        build_parts: List[List[Row]] = [[] for _ in range(parts)]
        for rrow in build_rows:
            build_parts[_partition_of(fns.right_key(rrow), parts)].append(rrow)
        probe_parts: List[List[Tuple[int, Row]]] = [[] for _ in range(parts)]
        for tag, lrow in zip(probe_tags, probe_rows):
            probe_parts[_partition_of(fns.left_key(lrow), parts)].append(
                (tag, lrow)
            )
        collected: List[Tuple[int, int, Row]] = []
        for build_part, probe_part in zip(build_parts, probe_parts):
            if governor is not None:
                governor.check()
            build = self._make_table(fns, build_part)
            for tag, lrow in probe_part:
                self._check()
                for seq, out in enumerate(self._probe_rows(fns, build, lrow)):
                    collected.append((tag, seq, out))
        collected.sort(key=lambda item: (item[0], item[1]))
        self.shard.rows_produced += len(collected)
        self._note_rows(node, len(collected))
        for start in range(0, len(collected), size):
            chunk = collected[start : start + size]
            yield [tag for tag, _, _ in chunk], [row for _, _, row in chunk]

    # -- hash aggregate / distinct ---------------------------------------
    def _aggregate(
        self, node: HashAggP, tagged: Iterator[Tagged]
    ) -> Tuple[List[int], List[Row]]:
        fns: _AggFns = self.state.fns[id(node)]
        groups: Dict[Tuple[Any, ...], list] = {}
        order: List[Tuple[Any, ...]] = []
        first_tag: Dict[Tuple[Any, ...], int] = {}
        for tags, rows in tagged:
            for tag, row in zip(tags, rows):
                self._check()
                key = fns.key_of(row)
                self.shard.rows_compared += 1
                if key not in groups:
                    groups[key] = [
                        call.new_accumulator() for call in node.aggregates
                    ]
                    order.append(key)
                    first_tag[key] = tag
                for fn, accumulator in zip(fns.arg_fns, groups[key]):
                    if fn is None:
                        accumulator.add(1)
                    else:
                        accumulator.add_value(fn(row))
        out_rows = [
            key + tuple(acc.result() for acc in groups[key]) for key in order
        ]
        out_tags = [first_tag[key] for key in order]
        return out_tags, out_rows

    def _stream_hash_agg(self, node: HashAggP) -> Iterator[Tagged]:
        from repro.engine.executor import _partition_of, _spill_partitions

        fns: _AggFns = self.state.fns[id(node)]
        governor = self.state.governor
        size = self.state.params.batch_size
        in_tags, in_rows = self.drain(node.child)
        self._note_resident(node, len(in_rows))
        table_bytes = int(len(in_rows) * fns.width)
        degraded = False
        if governor is not None:
            try:
                governor.reserve_memory(table_bytes, "HashAgg table")
            except MemoryBudgetExceeded:
                degraded = True
        if degraded:
            self.state.degraded_ops[self.w].add(id(node))
            self.state.pstats[self.w].degraded = True
            limit = governor.budget.memory_limit_bytes
            parts = _spill_partitions(table_bytes, limit)
            self.shard.sort_spill_pages += int(
                2 * pages_for_rows(len(in_rows), fns.width, self.state.params)
            )
            partitions: List[List[Tuple[int, Row]]] = [[] for _ in range(parts)]
            for tag, row in zip(in_tags, in_rows):
                partitions[_partition_of(fns.key_of(row), parts)].append(
                    (tag, row)
                )
            merged: List[Tuple[int, Row]] = []
            for partition in partitions:
                if governor is not None:
                    governor.check()
                if partition:
                    tags, rows = self._aggregate(
                        node,
                        iter(
                            [
                                (
                                    [tag for tag, _ in partition],
                                    [row for _, row in partition],
                                )
                            ]
                        ),
                    )
                    merged.extend(zip(tags, rows))
            # Sub-partition outputs interleave tags; restore the global
            # first-seen order the in-memory path produces.
            merged.sort(key=lambda item: item[0])
            out_tags = [tag for tag, _ in merged]
            out_rows = [row for _, row in merged]
        else:
            out_tags, out_rows = self._aggregate(
                node, iter([(in_tags, in_rows)])
            )
        self.shard.rows_produced += len(out_rows)
        self._note_rows(node, len(out_rows))
        for start in range(0, len(out_rows), size):
            yield (
                out_tags[start : start + size],
                out_rows[start : start + size],
            )

    def _stream_distinct(self, node: DistinctP) -> Iterator[Tagged]:
        from repro.engine.executor import _canon_key

        seen = set()
        out_tags: List[int] = []
        out_rows: List[Row] = []
        for tags, rows in self.stream(node.child):
            for tag, row in zip(tags, rows):
                self._check()
                self.shard.rows_compared += 1
                key = _canon_key(row)
                if key not in seen:
                    seen.add(key)
                    out_tags.append(tag)
                    out_rows.append(row)
        self._note_resident(node, len(out_rows))
        self.shard.rows_produced += len(out_rows)
        self._note_rows(node, len(out_rows))
        size = self.state.params.batch_size
        for start in range(0, len(out_rows), size):
            yield (
                out_tags[start : start + size],
                out_rows[start : start + size],
            )


def _worker_main(state: _RegionState, w: int) -> None:
    out = state.queues[w]
    pstats = state.pstats[w]
    started = time.perf_counter()
    worker = _Worker(state, w)

    def put(item: Any) -> None:
        while True:
            try:
                out.put(item, timeout=_POLL_SECONDS)
                return
            except queue.Full:
                pstats.queue_wait_seconds += _POLL_SECONDS
                if state.abort.is_set():
                    raise _Aborted()

    try:
        for tags, rows in worker.stream(state.region.root):
            pstats.rows += len(rows)
            put((tags, rows))
        put(_DONE)
    except _Aborted:
        pass
    except BaseException as error:  # noqa: BLE001 - re-raised by driver
        state.errors[w] = error
        state.abort.set()
    finally:
        pstats.wall_seconds = time.perf_counter() - started
        # Best-effort sentinel so a blocked driver wakes immediately.
        try:
            out.put_nowait(_DONE)
        except queue.Full:
            pass


# ----------------------------------------------------------------------
# Driver: stage 1 partitioning, stage 2 launch, gather-side merge
# ----------------------------------------------------------------------
def _partition_source(
    ex: ExchangeP,
    rows: List[Row],
    dop: int,
    hashes: Optional[Sequence[int]] = None,
) -> List[List[Tuple[int, Row]]]:
    """Split one drained source into per-worker tagged row lists.

    ``hashes``, when supplied by a columnar driver, are precomputed
    per-row key hashes from :func:`repro.expr.vector.hash_columns`;
    the kernel's scalar/vector parity guarantees ``hashes[i] %% dop``
    equals :func:`partition_index` on the row's key values, so row and
    columnar sources of the same join land keys on the same worker.
    """
    parts: List[List[Tuple[int, Row]]] = [[] for _ in range(dop)]
    scheme = ex.target.scheme
    if scheme is PartitionScheme.BROADCAST:
        tagged = list(enumerate(rows))
        return [list(tagged) for _ in range(dop)]
    if scheme is PartitionScheme.HASH:
        if hashes is not None:
            for tag, row in enumerate(rows):
                parts[int(hashes[tag]) % dop].append((tag, row))
            return parts
        positions = ex.key_positions
        for tag, row in enumerate(rows):
            key = tuple(row[p] for p in positions)
            parts[partition_index(key, dop)].append((tag, row))
        return parts
    # ROUND_ROBIN
    for tag, row in enumerate(rows):
        parts[tag % dop].append((tag, row))
    return parts


def _negotiate_dop(
    ctx: ExecContext, requested: int, est_bytes: int
) -> Tuple[int, List[int]]:
    """Lease working memory per worker; halve DOP instead of failing.

    Returns the effective degree and the granted leases (released by
    the caller when the region finishes).  Without an admission
    controller the requested degree stands.
    """
    admission = ctx.admission
    if admission is None:
        return requested, []
    pool = admission.pool
    effective = max(1, requested)
    while True:
        per_worker = max(1, est_bytes // max(1, effective))
        grants = [pool.lease(per_worker) for _ in range(effective)]
        if effective <= 1 or sum(grants) * 2 >= per_worker * effective:
            return effective, grants
        for grant in grants:
            pool.release(grant)
        effective = max(1, effective // 2)


def gather_iterator(
    op: GatherP,
    catalog: Catalog,
    ctx: ExecContext,
    drain_source: Callable[
        [ExchangeP], Tuple[List[Row], Optional[Sequence[int]]]
    ],
) -> Optional[Iterator[Batch]]:
    """The parallel execution of one gather region, or None to fall
    back to serial pass-through execution (unsupported region shape or
    admission degraded the region all the way to one worker).

    ``drain_source`` drains one distributing exchange's child to rows
    and may return precomputed per-row partition hashes (the columnar
    driver hashes key columns vectorized; the row driver returns None
    and the runtime hashes per row)."""
    region = analyze_region(op)
    if region is None:
        return None
    width_of = _region_widths(region)
    est_bytes = int(
        sum(max(0.0, ex.child.est_rows) * width_of[id(ex)] for ex in region.inputs)
    )
    dop, leases = _negotiate_dop(ctx, op.dop, est_bytes)
    if dop <= 1:
        _release_leases(ctx, leases)
        return None
    return _run_region(
        region, catalog, ctx, drain_source, dop, leases, width_of
    )


def _region_widths(region: _Region) -> Dict[int, float]:
    from repro.engine.executor import _row_width

    return {
        id(ex): _row_width(ex.child.output_schema()) for ex in region.inputs
    }


def _release_leases(ctx: ExecContext, leases: List[int]) -> None:
    if leases and ctx.admission is not None:
        for grant in leases:
            ctx.admission.pool.release(grant)


def _run_region(
    region: _Region,
    catalog: Catalog,
    ctx: ExecContext,
    drain_source: Callable[
        [ExchangeP], Tuple[List[Row], Optional[Sequence[int]]]
    ],
    dop: int,
    leases: List[int],
    width_of: Dict[int, float],
) -> Iterator[Batch]:
    op = region.gather
    try:
        # ---- Stage 1: drain sources serially, partition, account ----
        parts: Dict[int, List[List[Tuple[int, Row]]]] = {}
        for ex in region.inputs:
            rows, hashes = drain_source(ex)
            if ctx.runtime is not None:
                node = ctx.runtime.node_for(ex)
                node.invocations += 1
                node.actual_rows += len(rows)
            ctx.counters.exchange_pages += exchange_page_count(
                len(rows),
                width_of[id(ex)],
                ex.target.scheme,
                dop,
                ctx.params,
            )
            parts[id(ex)] = _partition_source(ex, rows, dop, hashes)
        fns = _build_fns(region, ctx)
        state = _RegionState(region, ctx, dop, fns, parts)

        # ---- Stage 2: workers + deterministic tag merge -------------
        for w in range(dop):
            thread = threading.Thread(
                target=_worker_main,
                args=(state, w),
                name=f"repro-parallel-{w}",
                daemon=True,
            )
            state.threads.append(thread)
            thread.start()
        gathered = 0
        try:
            for batch in _merge(state):
                gathered += len(batch)
                yield batch
        finally:
            state.abort.set()
            _join_workers(state)
            # The gather itself ships every merged page to the
            # coordinator; charged in the finally so an early-closed
            # consumer (LIMIT) still pays for batches that crossed --
            # the same contract as the serial pass-through.
            from repro.engine.executor import _row_width

            ctx.counters.exchange_pages += exchange_page_count(
                gathered,
                _row_width(op.child.output_schema()),
                PartitionScheme.SINGLETON,
                1,
                ctx.params,
            )
        first_error = next(
            (error for error in state.errors if error is not None), None
        )
        if first_error is not None:
            raise first_error
        _merge_stats(state)
    finally:
        _release_leases(ctx, leases)


def _join_workers(state: _RegionState) -> None:
    """Join every worker, draining queues so blocked puts can finish."""
    for w, thread in enumerate(state.threads):
        while thread.is_alive():
            try:
                state.queues[w].get_nowait()
            except queue.Empty:
                pass
            thread.join(timeout=_POLL_SECONDS)


def _merge(state: _RegionState) -> Iterator[Batch]:
    """Incremental k-way merge of worker outputs by global row tag."""
    size = state.params.batch_size
    buffers: List[deque] = [deque() for _ in range(state.dop)]
    done = [False] * state.dop

    def refill(w: int) -> None:
        while not buffers[w] and not done[w]:
            waited = time.perf_counter()
            try:
                item = state.queues[w].get(timeout=_POLL_SECONDS)
            except queue.Empty:
                state.pstats[w].queue_wait_seconds += (
                    time.perf_counter() - waited
                )
                if state.abort.is_set() or not state.threads[w].is_alive():
                    done[w] = True
                    return
                continue
            if item is _DONE:
                done[w] = True
                return
            tags, rows = item
            buffers[w].extend(zip(tags, rows))

    heap: List[Tuple[int, int]] = []
    for w in range(state.dop):
        refill(w)
        if buffers[w]:
            heapq.heappush(heap, (buffers[w][0][0], w))
    out: Batch = []
    while heap:
        _tag, w = heapq.heappop(heap)
        _t, row = buffers[w].popleft()
        out.append(row)
        if not buffers[w]:
            refill(w)
        if buffers[w]:
            heapq.heappush(heap, (buffers[w][0][0], w))
        if len(out) >= size:
            yield out
            out = []
    if state.abort.is_set():
        # A worker failed: surface its typed error (raised by the
        # caller after joining), not a truncated result.
        return
    if out:
        yield out


def _merge_stats(state: _RegionState) -> None:
    """Fold worker shards into the session context, partition order.

    Runs only on successful completion; a failed or abandoned region
    leaves the main counters reflecting stage 1 alone.
    """
    ctx = state.ctx
    region = state.region
    op_index = {id(node): node for node in region.ops}
    for w in range(state.dop):
        ctx.counters.merge_from(state.shards[w])
        state.pstats[w].work_cost = state.shards[w].observed_cost(ctx.params)
    if ctx.runtime is not None:
        for node_id, node in op_index.items():
            stats = ctx.runtime.node_for(node)
            total = sum(
                state.op_rows[w].get(node_id, 0) for w in range(state.dop)
            )
            resident = sum(
                state.op_resident[w].get(node_id, 0) for w in range(state.dop)
            )
            stats.actual_rows += total
            stats.invocations = max(stats.invocations, 1)
            stats.peak_resident_rows = max(stats.peak_resident_rows, resident)
        gather_stats = ctx.runtime.node_for(region.gather)
        gather_stats.partitions = list(state.pstats)
    degraded_ids = set()
    for w in range(state.dop):
        degraded_ids.update(state.degraded_ops[w])
    for node_id in degraded_ids:
        ctx.counters.degraded_operators += 1
        if ctx.runtime is not None:
            ctx.runtime.node_for(op_index[node_id]).degraded = True
