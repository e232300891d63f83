"""Access-path generation: every way to scan one base relation (Section 3).

For each relation the enumerator considers a sequential scan and every
ordered index -- as a full ordered scan (which delivers an interesting
order for free) and, when a local predicate matches the index's leading
column, as a seek.  Each path is costed and annotated with the order it
delivers.  A ``?`` marker is as sargable as a literal: a prepared
statement's ``col = ?`` seeks its index, and the executor reads the
bound value when the scan starts.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.cost.model import Cost, cost_index_scan, cost_seq_scan
from repro.cost.parameters import CostParameters
from repro.expr.expressions import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    Literal,
    Param,
    conjoin,
    conjuncts,
)
from repro.logical.querygraph import QueryGraph
from repro.physical.plans import IndexScanP, PhysicalOp, SeqScanP
from repro.physical.properties import SortOrder
from repro.stats.propagation import CardinalityEstimator


def generate_access_paths(
    alias: str,
    graph: QueryGraph,
    catalog: Catalog,
    estimator: CardinalityEstimator,
    params: CostParameters,
) -> List[PhysicalOp]:
    """All costed scan alternatives for one relation of the query.

    Every returned plan has ``est_rows``, ``est_cost``, and ``order``
    filled in.  The local predicate is pushed into each scan.
    """
    node = graph.node(alias)
    table = catalog.table(node.table)
    schema = table.schema
    predicate = node.local_predicate()
    out_rows = estimator.scan_rows(alias, graph)
    # Every access path applies the full local predicate (seek bounds
    # plus residual), so they all share the predicate's fingerprint:
    # observed scan output over base rows is its observed selectivity.
    predicate_fp = estimator.selectivity.predicate_fingerprint(predicate)
    paths: List[PhysicalOp] = []

    seq = SeqScanP(
        node.table,
        alias,
        schema.column_names,
        predicate,
        column_types=schema.column_types,
    )
    seq.est_rows = out_rows
    seq.est_cost = cost_seq_scan(
        float(table.row_count),
        float(table.page_count),
        len(conjuncts(predicate)),
        params,
    )
    seq.order = None
    seq.feedback_fingerprint = predicate_fp
    paths.append(seq)

    for index in catalog.indexes_on(node.table):
        leading = index.definition.columns[0]
        seek_eq, seek_low, seek_high, low_strict, high_strict, residual = (
            _split_for_index(predicate, alias, leading)
        )
        order: SortOrder = tuple(
            (ColumnRef(alias, column), True) for column in index.definition.columns
        )
        if seek_eq is not None:
            matching = float(table.row_count) * estimator.selectivity.selectivity(
                Comparison(
                    ComparisonOp.EQ, ColumnRef(alias, leading), _operand(seek_eq)
                )
            )
            scan = IndexScanP(
                node.table,
                alias,
                schema.column_names,
                index.definition.name,
                eq_value=(seek_eq,),
                predicate=residual,
                column_types=schema.column_types,
            )
        elif seek_low is not None or seek_high is not None:
            fraction = _range_fraction(
                estimator, alias, leading,
                seek_low, seek_high, low_strict, high_strict,
            )
            matching = float(table.row_count) * fraction
            scan = IndexScanP(
                node.table,
                alias,
                schema.column_names,
                index.definition.name,
                low=seek_low,
                high=seek_high,
                low_strict=low_strict,
                high_strict=high_strict,
                predicate=residual,
                column_types=schema.column_types,
            )
        else:
            # Full ordered scan: pays for touching everything but delivers
            # the index order -- the quintessential interesting-order path.
            matching = float(table.row_count)
            scan = IndexScanP(
                node.table,
                alias,
                schema.column_names,
                index.definition.name,
                predicate=predicate,
                column_types=schema.column_types,
            )
        scan.est_rows = out_rows
        scan.est_cost = cost_index_scan(
            matching,
            float(table.row_count),
            float(table.page_count),
            index.height,
            index.definition.clustered,
            params,
        )
        scan.order = order
        scan.feedback_fingerprint = predicate_fp
        paths.append(scan)
    return paths


def _split_for_index(
    predicate: Optional[Expr], alias: str, leading_column: str
) -> Tuple[
    Optional[Any], Optional[Any], Optional[Any], bool, bool, Optional[Expr]
]:
    """Split a local predicate into seek bounds for an index.

    Returns ``(eq, low, high, low_strict, high_strict, residual)``.
    Only simple ``col op literal`` / ``col op ?`` conjuncts on the
    leading index column become seek bounds; everything else stays
    residual.  A bound is a literal value or a :class:`Param` the
    executor resolves at run time.  Strictness is tracked per bound:
    ``>`` / ``<`` produce exclusive bounds (the SQLite oracle caught
    strict bounds silently widening to inclusive, so every qualifying
    row at the boundary leaked through).

    Two bounds on one side that cannot be compared at plan time (a
    ``?`` and a literal, two ``?``, or literals of unlike types) keep
    the first as the seek bound and leave the other residual.  An
    equality seek wins over range bounds, which then stay residual.
    """
    eq_value: Optional[Any] = None
    low: Optional[Any] = None
    high: Optional[Any] = None
    low_strict = False
    high_strict = False
    residual: List[Expr] = []
    range_conjuncts: List[Expr] = []
    for conjunct in conjuncts(predicate):
        bound = _literal_bound(conjunct, alias, leading_column)
        if bound is None:
            residual.append(conjunct)
            continue
        op, value = bound
        if op is ComparisonOp.EQ and eq_value is None:
            eq_value = value
            continue
        if op in (ComparisonOp.GT, ComparisonOp.GE):
            strict = op is ComparisonOp.GT
            order = 1 if low is None else _order(value, low)
            if order is None:
                residual.append(conjunct)
                continue
            if order > 0:
                low, low_strict = value, strict
            elif order == 0:
                low_strict = low_strict or strict
        elif op in (ComparisonOp.LT, ComparisonOp.LE):
            strict = op is ComparisonOp.LT
            order = -1 if high is None else _order(value, high)
            if order is None:
                residual.append(conjunct)
                continue
            if order < 0:
                high, high_strict = value, strict
            elif order == 0:
                high_strict = high_strict or strict
        else:
            residual.append(conjunct)
            continue
        range_conjuncts.append(conjunct)
    if eq_value is not None:
        low = high = None
        low_strict = high_strict = False
        residual.extend(range_conjuncts)
    return eq_value, low, high, low_strict, high_strict, conjoin(residual)


def _order(value: Any, bound: Any) -> Optional[int]:
    """-1 / 0 / 1 as ``value`` sorts below / equal / above ``bound``, or
    None when the two cannot be compared before run time: a ``?``
    marker (Params define no ordering) or literals of unlike types."""
    try:
        return (value > bound) - (value < bound)
    except TypeError:
        return None


def _literal_bound(
    conjunct: Expr, alias: str, column: str
) -> Optional[Tuple[ComparisonOp, Any]]:
    """``(op, bound)`` when ``conjunct`` compares ``alias.column`` with a
    non-NULL literal (its value) or a ``?`` marker (the Param itself)."""
    if not isinstance(conjunct, Comparison):
        return None
    left, right, op = conjunct.left, conjunct.right, conjunct.op
    if isinstance(right, ColumnRef) and isinstance(left, (Literal, Param)):
        left, right, op = right, left, op.flip()
    if not (
        isinstance(left, ColumnRef)
        and left.table == alias
        and left.column == column
    ):
        return None
    if isinstance(right, Param):
        return op, right
    if isinstance(right, Literal) and right.value is not None:
        return op, right.value
    return None


def _operand(bound: Any) -> Expr:
    """A seek bound as a comparison operand."""
    return bound if isinstance(bound, Param) else Literal(bound)


def _range_fraction(
    estimator: CardinalityEstimator,
    alias: str,
    column: str,
    low: Optional[Any],
    high: Optional[Any],
    low_strict: bool = False,
    high_strict: bool = False,
) -> float:
    ref = ColumnRef(alias, column)
    fraction = 1.0
    if low is not None:
        op = ComparisonOp.GT if low_strict else ComparisonOp.GE
        fraction *= estimator.selectivity.selectivity(
            Comparison(op, ref, _operand(low))
        )
    if high is not None:
        op = ComparisonOp.LT if high_strict else ComparisonOp.LE
        fraction *= estimator.selectivity.selectivity(
            Comparison(op, ref, _operand(high))
        )
    return fraction
