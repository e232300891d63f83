"""Physical operator trees -- the paper's *execution plans* (Figure 1).

Each node names an algorithm, not just an algebraic operation.  Nodes
carry three annotations the optimizer fills in bottom-up, exactly as the
paper describes the System-R cost model doing: estimated output rows,
cumulative estimated cost, and the delivered sort order (a physical
property).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.cost.model import Cost, ZERO_COST
from repro.errors import PlanError
from repro.expr.aggregates import AggregateCall
from repro.expr.expressions import ColumnRef, Expr, UdfCall
from repro.expr.schema import StreamSchema
from repro.logical.operators import LogicalOp, ProjectItem
from repro.physical.properties import SortOrder, describe_order


class PhysicalOp:
    """Base class for physical operators.

    Attributes:
        est_rows: estimated output cardinality (logical property).
        est_cost: cumulative estimated cost of the subtree.
        order: delivered sort order, if any (physical property).
        feedback_fingerprint: normalized key of the predicate this
            operator applies (stamped by the plan builders), letting the
            cardinality-feedback harvest attribute observed row counts
            to the same key the estimator looks up.  None when the
            operator carries no feedback-eligible predicate.
    """

    def __init__(self) -> None:
        self.est_rows: float = 0.0
        self.est_cost: Cost = ZERO_COST
        self.order: Optional[SortOrder] = None
        self.feedback_fingerprint: Optional[str] = None
        # Worst-case subtree cost over the estimate's uncertainty interval
        # (risk-aware selection); None when the enumerator did not compute
        # one, in which case est_cost.total stands in.
        self.est_cost_hi: Optional[float] = None

    def children(self) -> Tuple["PhysicalOp", ...]:
        """Input operators."""
        return ()

    @property
    def consumes_child_fully(self) -> Tuple[bool, ...]:
        """Per-child flag: must this input be exhausted before the first
        output batch can be produced?

        The default is conservative (every child fully consumed); each
        streaming operator overrides the flag for the inputs it
        pipelines.  ``tests/test_pipeline_contract.py`` asserts the
        executor honors the declaration.
        """
        return tuple(True for _ in self.children())

    @property
    def is_pipeline_breaker(self) -> bool:
        """Whether every input must be exhausted before any output."""
        flags = self.consumes_child_fully
        return bool(flags) and all(flags)

    def output_schema(self) -> StreamSchema:
        """Layout of the output data stream."""
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """Readable multi-line plan rendering with cost annotations."""
        pad = "  " * indent
        annotation = f"  [rows={self.est_rows:.0f} cost={self.est_cost.total:.1f}"
        if self.order:
            annotation += f" order={describe_order(self.order)}"
        annotation += "]"
        lines = [pad + self._label() + annotation]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return self._label()


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------
class SeqScanP(PhysicalOp):
    """Sequential (table) scan with an optional pushed-down filter.

    ``column_types`` (optional, supplied by the plan builder from the
    catalog) lets the output schema carry real column widths for memory
    accounting; hand-built plans may omit it.
    """

    def __init__(
        self,
        table: str,
        alias: str,
        columns: Sequence[str],
        predicate: Optional[Expr] = None,
        column_types: Optional[Sequence[Any]] = None,
    ) -> None:
        super().__init__()
        self.table = table
        self.alias = alias
        self.columns = tuple(columns)
        self.predicate = predicate
        self.column_types = tuple(column_types) if column_types else None

    def output_schema(self) -> StreamSchema:
        return StreamSchema.for_table(
            self.alias, self.columns, types=self.column_types
        )

    def _label(self) -> str:
        suffix = f" filter={self.predicate.to_sql()}" if self.predicate else ""
        return f"SeqScan({self.table} AS {self.alias}{suffix})"


class IndexScanP(PhysicalOp):
    """Index scan: a seek range / equality on the index key, then fetch.

    With no bounds this is an *ordered full scan* -- the access path that
    delivers an interesting order for free.

    Attributes:
        index_name: the ordered index used.
        eq_value: full-key equality seek value (tuple), or None.
        low / high: range bounds on the leading key column, or None.
        low_strict / high_strict: whether the corresponding bound is
            exclusive (from ``>`` / ``<``) rather than inclusive.
    """

    def __init__(
        self,
        table: str,
        alias: str,
        columns: Sequence[str],
        index_name: str,
        eq_value: Optional[Tuple[Any, ...]] = None,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_strict: bool = False,
        high_strict: bool = False,
        predicate: Optional[Expr] = None,
        column_types: Optional[Sequence[Any]] = None,
    ) -> None:
        super().__init__()
        self.table = table
        self.alias = alias
        self.columns = tuple(columns)
        self.index_name = index_name
        self.eq_value = eq_value
        self.low = low
        self.high = high
        self.low_strict = low_strict
        self.high_strict = high_strict
        self.predicate = predicate
        self.column_types = tuple(column_types) if column_types else None

    def output_schema(self) -> StreamSchema:
        return StreamSchema.for_table(
            self.alias, self.columns, types=self.column_types
        )

    def _label(self) -> str:
        parts = [f"IndexScan({self.table} AS {self.alias} via {self.index_name}"]
        if self.eq_value is not None:
            parts.append(f" eq={self.eq_value}")
        if self.low is not None or self.high is not None:
            open_low = "(" if self.low_strict else "["
            close_high = ")" if self.high_strict else "]"
            parts.append(f" range={open_low}{self.low}, {self.high}{close_high}")
        if self.predicate is not None:
            parts.append(f" filter={self.predicate.to_sql()}")
        return "".join(parts) + ")"


# ----------------------------------------------------------------------
# Row-stream operators
# ----------------------------------------------------------------------
class FilterP(PhysicalOp):
    """Filter a stream by a predicate."""

    def __init__(self, child: PhysicalOp, predicate: Expr) -> None:
        super().__init__()
        if predicate is None:
            raise PlanError("FilterP requires a predicate")
        self.child = child
        self.predicate = predicate

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    @property
    def consumes_child_fully(self) -> Tuple[bool, ...]:
        return (False,)

    def output_schema(self) -> StreamSchema:
        return self.child.output_schema()

    def _label(self) -> str:
        return f"Filter({self.predicate.to_sql()})"


class UdfFilterP(PhysicalOp):
    """A filter applying one expensive user-defined predicate (Section 7.2).

    Kept distinct from FilterP so plans expose *where* each expensive
    predicate was placed -- the decision benchmark E12 studies.
    """

    def __init__(self, child: PhysicalOp, udf: UdfCall) -> None:
        super().__init__()
        self.child = child
        self.udf = udf

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    @property
    def consumes_child_fully(self) -> Tuple[bool, ...]:
        return (False,)

    def output_schema(self) -> StreamSchema:
        return self.child.output_schema()

    def _label(self) -> str:
        return (
            f"UdfFilter({self.udf.to_sql()} cost={self.udf.per_tuple_cost:.0f} "
            f"sel={self.udf.selectivity:.2f})"
        )


class ProjectP(PhysicalOp):
    """Projection / scalar computation."""

    def __init__(self, child: PhysicalOp, items: Sequence[ProjectItem]) -> None:
        super().__init__()
        if not items:
            raise PlanError("ProjectP requires at least one item")
        self.child = child
        self.items = tuple(items)

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    @property
    def consumes_child_fully(self) -> Tuple[bool, ...]:
        return (False,)

    def output_schema(self) -> StreamSchema:
        # Propagate slot types through pure column renamings so widths
        # survive projections; computed expressions stay untyped.
        child = self.child.output_schema()
        types = []
        for item in self.items:
            if isinstance(item.expr, ColumnRef) and child.has(item.expr):
                types.append(child.type_at(child.position(item.expr)))
            else:
                types.append(None)
        return StreamSchema(
            [(item.alias, item.name) for item in self.items], types=types
        )

    def _label(self) -> str:
        rendered = ", ".join(
            f"{item.expr.to_sql()} AS {item.name}" for item in self.items
        )
        return f"Project({rendered})"


class SortP(PhysicalOp):
    """External sort enforcing a sort order (the classic enforcer)."""

    def __init__(self, child: PhysicalOp, sort_order: SortOrder) -> None:
        super().__init__()
        if not sort_order:
            raise PlanError("SortP requires at least one key")
        self.child = child
        self.sort_order = tuple(sort_order)

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    def output_schema(self) -> StreamSchema:
        return self.child.output_schema()

    def _label(self) -> str:
        return f"Sort({describe_order(self.sort_order)})"


class MaterializeP(PhysicalOp):
    """Materialize an intermediate stream (bushy-join glue, rescan support)."""

    def __init__(self, child: PhysicalOp) -> None:
        super().__init__()
        self.child = child

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    def output_schema(self) -> StreamSchema:
        return self.child.output_schema()

    def _label(self) -> str:
        return "Materialize"


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
class JoinPhysicalOp(PhysicalOp):
    """Shared base for binary join algorithms."""

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        kind,
    ) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.kind = kind

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def output_schema(self) -> StreamSchema:
        from repro.logical.operators import JoinKind

        if self.kind in (JoinKind.SEMI, JoinKind.ANTI):
            return self.left.output_schema()
        return self.left.output_schema().concat(self.right.output_schema())


class NLJoinP(JoinPhysicalOp):
    """Nested-loop join with a materialized inner."""

    def __init__(self, left, right, predicate: Optional[Expr], kind) -> None:
        super().__init__(left, right, kind)
        self.predicate = predicate

    @property
    def consumes_child_fully(self) -> Tuple[bool, ...]:
        # The outer streams; the inner is materialized for rescanning.
        return (False, True)

    def _label(self) -> str:
        pred = self.predicate.to_sql() if self.predicate else "true"
        return f"NestedLoopJoin[{self.kind.value}]({pred})"


class INLJoinP(PhysicalOp):
    """Index nested-loop join: probe an inner table's index per outer row.

    Attributes:
        outer: the outer input.
        table / alias / columns: the inner base table.
        index_name: ordered or hash index on the inner join columns.
        outer_keys: expressions on the outer row producing the probe key.
        residual: extra predicate checked after the index match.
    """

    def __init__(
        self,
        outer: PhysicalOp,
        table: str,
        alias: str,
        columns: Sequence[str],
        index_name: str,
        outer_keys: Sequence[Expr],
        kind,
        residual: Optional[Expr] = None,
        column_types: Optional[Sequence[Any]] = None,
    ) -> None:
        super().__init__()
        self.outer = outer
        self.table = table
        self.alias = alias
        self.columns = tuple(columns)
        self.index_name = index_name
        self.outer_keys = tuple(outer_keys)
        self.kind = kind
        self.residual = residual
        self.column_types = tuple(column_types) if column_types else None

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.outer,)

    @property
    def consumes_child_fully(self) -> Tuple[bool, ...]:
        return (False,)

    def output_schema(self) -> StreamSchema:
        from repro.logical.operators import JoinKind

        inner = StreamSchema.for_table(
            self.alias, self.columns, types=self.column_types
        )
        if self.kind in (JoinKind.SEMI, JoinKind.ANTI):
            return self.outer.output_schema()
        return self.outer.output_schema().concat(inner)

    def _label(self) -> str:
        keys = ", ".join(expr.to_sql() for expr in self.outer_keys)
        return (
            f"IndexNLJoin[{self.kind.value}]({self.table} AS {self.alias} "
            f"via {self.index_name} on ({keys}))"
        )


class MergeJoinP(JoinPhysicalOp):
    """Sort-merge join; inputs must already be sorted on the join keys."""

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        left_keys: Sequence[ColumnRef],
        right_keys: Sequence[ColumnRef],
        kind,
        residual: Optional[Expr] = None,
    ) -> None:
        super().__init__(left, right, kind)
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError("merge join needs matching, non-empty key lists")
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.residual = residual

    def _label(self) -> str:
        pairs = ", ".join(
            f"{l.to_sql()}={r.to_sql()}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"MergeJoin[{self.kind.value}]({pairs})"


class HashJoinP(JoinPhysicalOp):
    """Hash join: build on the right input, probe with the left."""

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        left_keys: Sequence[ColumnRef],
        right_keys: Sequence[ColumnRef],
        kind,
        residual: Optional[Expr] = None,
    ) -> None:
        super().__init__(left, right, kind)
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError("hash join needs matching, non-empty key lists")
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.residual = residual

    @property
    def consumes_child_fully(self) -> Tuple[bool, ...]:
        # The probe (left) side streams; the build side is a breaker.
        return (False, True)

    def _label(self) -> str:
        pairs = ", ".join(
            f"{l.to_sql()}={r.to_sql()}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"HashJoin[{self.kind.value}]({pairs})"


# ----------------------------------------------------------------------
# Aggregation and set operations
# ----------------------------------------------------------------------
class HashAggP(PhysicalOp):
    """Hash-based grouping and aggregation."""

    def __init__(
        self,
        child: PhysicalOp,
        keys: Sequence[ColumnRef],
        aggregates: Sequence[AggregateCall],
        output_alias: str = "_g",
    ) -> None:
        super().__init__()
        self.child = child
        self.keys = tuple(keys)
        self.aggregates = tuple(aggregates)
        self.output_alias = output_alias

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    def output_schema(self) -> StreamSchema:
        child = self.child.output_schema()
        slots = [(key.table, key.column) for key in self.keys]
        types = [
            child.type_at(child.position(key)) if child.has(key) else None
            for key in self.keys
        ]
        slots.extend((self.output_alias, call.alias) for call in self.aggregates)
        types.extend(None for _call in self.aggregates)
        return StreamSchema(slots, types=types)

    def _label(self) -> str:
        keys = ", ".join(key.to_sql() for key in self.keys)
        aggs = ", ".join(call.to_sql() for call in self.aggregates)
        return f"HashAgg(keys=[{keys}], aggs=[{aggs}])"


class StreamAggP(HashAggP):
    """Grouping over an input sorted on the keys (order-exploiting)."""

    def _label(self) -> str:
        keys = ", ".join(key.to_sql() for key in self.keys)
        aggs = ", ".join(call.to_sql() for call in self.aggregates)
        return f"StreamAgg(keys=[{keys}], aggs=[{aggs}])"


class DistinctP(PhysicalOp):
    """Hash-based duplicate elimination."""

    def __init__(self, child: PhysicalOp) -> None:
        super().__init__()
        self.child = child

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    def output_schema(self) -> StreamSchema:
        return self.child.output_schema()

    def _label(self) -> str:
        return "HashDistinct"


class UnionAllP(PhysicalOp):
    """Concatenation of two schema-compatible streams."""

    def __init__(self, left: PhysicalOp, right: PhysicalOp) -> None:
        super().__init__()
        self.left = left
        self.right = right

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    @property
    def consumes_child_fully(self) -> Tuple[bool, ...]:
        return (False, False)

    def output_schema(self) -> StreamSchema:
        return self.left.output_schema()

    def _label(self) -> str:
        return "UnionAll"


class LimitP(PhysicalOp):
    """Stop after ``limit`` rows, skipping the first ``offset``.

    The payoff operator of the pipelined executor: over a streaming
    child it stops pulling once the quota is met, so upstream operators
    never produce the rows nobody asked for.
    """

    def __init__(
        self, child: PhysicalOp, limit: Optional[int], offset: int = 0
    ) -> None:
        super().__init__()
        if limit is not None and limit < 0:
            raise PlanError("LIMIT must be non-negative")
        if offset < 0:
            raise PlanError("OFFSET must be non-negative")
        self.child = child
        self.limit = limit
        self.offset = offset

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    @property
    def consumes_child_fully(self) -> Tuple[bool, ...]:
        return (False,)

    def output_schema(self) -> StreamSchema:
        return self.child.output_schema()

    def _label(self) -> str:
        count = "all" if self.limit is None else str(self.limit)
        suffix = f" offset {self.offset}" if self.offset else ""
        return f"Limit({count}{suffix})"


class ApplyP(PhysicalOp):
    """Tuple-iteration execution of a (possibly correlated) subquery.

    The inner side is a *logical* tree interpreted once per outer row --
    the execution strategy that remains when unnesting does not apply.
    """

    def __init__(
        self,
        left: PhysicalOp,
        inner: LogicalOp,
        kind: str,
        scalar_name: str = "_scalar",
        scalar_alias: str = "_apply",
    ) -> None:
        super().__init__()
        if kind not in ("semi", "anti", "scalar"):
            raise PlanError(f"unknown ApplyP kind {kind!r}")
        self.left = left
        self.inner = inner
        self.kind = kind
        self.scalar_name = scalar_name
        self.scalar_alias = scalar_alias

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.left,)

    @property
    def consumes_child_fully(self) -> Tuple[bool, ...]:
        return (False,)

    def output_schema(self) -> StreamSchema:
        if self.kind == "scalar":
            return StreamSchema(
                self.left.output_schema().slots
                + ((self.scalar_alias, self.scalar_name),)
            )
        return self.left.output_schema()

    def _label(self) -> str:
        return f"Apply[{self.kind}]"


# ----------------------------------------------------------------------
# Adaptive execution (progressive optimization)
# ----------------------------------------------------------------------
class CheckP(PhysicalOp):
    """Validity-range check at a materialization point (POP's CHECK).

    Transparent to results: passes its child's rows through unchanged.
    At runtime the executor compares the observed cardinality against
    ``[low, high]`` -- the interval over which the plan above remains
    within a configurable factor of optimal -- and triggers mid-query
    re-optimization when the count falls outside it.

    Estimated rows/cost/order are copied from the child so EXPLAIN
    arithmetic and the feedback harvest see an unchanged plan shape.
    """

    def __init__(
        self,
        child: PhysicalOp,
        low: float,
        high: float,
        context_label: str = "",
    ) -> None:
        super().__init__()
        self.child = child
        self.low = low
        self.high = high
        self.context_label = context_label
        self.est_rows = child.est_rows
        self.est_cost = child.est_cost
        self.order = child.order

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    def output_schema(self) -> StreamSchema:
        return self.child.output_schema()

    def _label(self) -> str:
        where = f" at {self.context_label}" if self.context_label else ""
        return f"Check(valid=[{self.low:.0f}, {self.high:.0f}]{where})"


class CheckpointSourceP(PhysicalOp):
    """An already-materialized intermediate replayed as a base relation.

    Spliced into re-optimized remainder plans in place of a subtree whose
    result was checkpointed before the triggering CHECK -- the work done
    so far is not thrown away (Kabra-DeWitt).
    """

    def __init__(
        self,
        schema: StreamSchema,
        rows: List[Tuple[Any, ...]],
        note: str = "",
    ) -> None:
        super().__init__()
        self.schema = schema
        self.rows = rows
        self.note = note
        self.est_rows = float(len(rows))

    def output_schema(self) -> StreamSchema:
        return self.schema

    def _label(self) -> str:
        suffix = f" from {self.note}" if self.note else ""
        return f"CheckpointSource({len(self.rows)} rows{suffix})"


# ----------------------------------------------------------------------
# DML
# ----------------------------------------------------------------------
DML_SCHEMA = StreamSchema((("dml", "rows_affected"),))


class DmlOp(PhysicalOp):
    """Base of the write operators: one output row, ``(rows_affected,)``.

    DML plans are built directly by the optimizer (no join enumeration):
    the target scan is embedded in the operator rather than modelled as
    a child, because the write loop must interleave visibility checks,
    WAL buffering, and heap mutation per matched row.
    """

    def __init__(self, table: str) -> None:
        super().__init__()
        if not table:
            raise PlanError("DML operator requires a target table")
        self.table = table
        self.est_rows = 1.0

    def output_schema(self) -> StreamSchema:
        return DML_SCHEMA


class InsertP(DmlOp):
    """INSERT: literal/expression rows, or a planned SELECT source.

    Attributes:
        rows: bound VALUES rows in full schema order (empty for
            INSERT ... SELECT).
        source: physical plan producing source rows, or None.
        select_positions: target-position -> source-position map for
            INSERT ... SELECT (None entries insert NULL).
    """

    def __init__(
        self,
        table: str,
        rows: Sequence[Sequence[Expr]] = (),
        source: Optional[PhysicalOp] = None,
        select_positions: Optional[Sequence[Optional[int]]] = None,
    ) -> None:
        super().__init__(table)
        if source is None and not rows:
            raise PlanError("INSERT requires VALUES rows or a source plan")
        if source is not None and rows:
            raise PlanError("INSERT cannot have both VALUES rows and a source")
        self.rows = tuple(tuple(row) for row in rows)
        self.source = source
        self.select_positions = (
            tuple(select_positions) if select_positions is not None else None
        )

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.source,) if self.source is not None else ()

    def _label(self) -> str:
        if self.source is not None:
            return f"Insert({self.table} from select)"
        return f"Insert({self.table}, {len(self.rows)} rows)"


class UpdateP(DmlOp):
    """UPDATE: self-contained visible-row scan, SET evaluation, write.

    Attributes:
        assignments: (schema position, bound value expression) pairs.
        predicate: bound row filter, or None for every visible row.
    """

    def __init__(
        self,
        table: str,
        assignments: Sequence[Tuple[int, Expr]],
        predicate: Optional[Expr] = None,
    ) -> None:
        super().__init__(table)
        if not assignments:
            raise PlanError("UPDATE requires at least one assignment")
        self.assignments = tuple(assignments)
        self.predicate = predicate

    def _label(self) -> str:
        suffix = " filtered" if self.predicate is not None else ""
        return f"Update({self.table}, {len(self.assignments)} cols{suffix})"


class DeleteP(DmlOp):
    """DELETE: self-contained visible-row scan and delete-mark loop."""

    def __init__(self, table: str, predicate: Optional[Expr] = None) -> None:
        super().__init__(table)
        self.predicate = predicate

    def _label(self) -> str:
        suffix = " filtered" if self.predicate is not None else ""
        return f"Delete({self.table}{suffix})"


def plan_signature(op: PhysicalOp) -> str:
    """Structural identity of a subtree, ignoring CHECK wrappers.

    Used to match a subtree of a re-optimized plan against checkpoints
    taken under the old plan: identical signatures mean identical row
    sets (the labels encode operator kind, predicates, and keys).
    """
    if isinstance(op, CheckP):
        return plan_signature(op.child)
    parts = [op._label()]
    parts.extend(plan_signature(child) for child in op.children())
    return "(" + "|".join(parts) + ")"


def walk_physical(op: PhysicalOp):
    """Pre-order traversal of a physical tree."""
    yield op
    for child in op.children():
        yield from walk_physical(child)
