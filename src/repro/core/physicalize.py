"""Lowering logical trees to physical plans.

Maximal SPJ regions (inner joins / filters / base-table accesses) are
handed to the System-R DP enumerator, which picks join order, join
algorithms, and access paths.  Everything else -- outer/semi/anti joins
produced by the rewrite phase, grouping, distinct, projections, residual
Apply operators -- is mapped operator by operator with sensible
algorithm choices (hash join for equijoins, stream aggregation when the
input already carries the right order).

Expensive user-defined predicates are split out of ordinary filters and
placed as a rank-ordered chain of UdfFilter operators (Section 7.2's
no-join case; the join-aware placement lives in repro.core.udf).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.cost.model import (
    cost_filter,
    cost_hash_aggregate,
    cost_hash_join,
    cost_limit,
    cost_nested_loop_join,
    cost_project,
    cost_seq_scan,
    cost_sort,
    cost_stream_aggregate,
    cost_udf_filter,
    pages_for_rows,
)
from repro.cost.parameters import DEFAULT_PARAMETERS, CostParameters
from repro.errors import OptimizerError
from repro.expr.expressions import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    UdfCall,
    conjoin,
    conjuncts,
)
from repro.logical.operators import (
    Apply,
    Distinct,
    Filter,
    Get,
    GroupBy,
    Join,
    JoinKind,
    Limit,
    LogicalOp,
    Project,
    Sort,
    Union,
)
from repro.logical.querygraph import QueryGraph
from repro.physical.plans import (
    ApplyP,
    DistinctP,
    FilterP,
    HashAggP,
    HashJoinP,
    LimitP,
    NLJoinP,
    PhysicalOp,
    ProjectP,
    SeqScanP,
    SortP,
    StreamAggP,
    UdfFilterP,
    UnionAllP,
)
from repro.physical.properties import SortOrder, make_order, order_satisfies
from repro.core.systemr.enumerator import EnumeratorConfig, SystemRJoinEnumerator
from repro.stats.propagation import CardinalityEstimator
from repro.stats.summaries import TableStats, analyze_table


class Physicalizer:
    """Translates logical trees to costed physical plans.

    Args:
        catalog: data and metadata.
        params: cost-model parameters.
        config: enumerator knobs for SPJ regions.
        feedback: optional store of runtime-observed selectivities,
            consulted by every estimator this physicalizer builds.
        adaptive: progressive-optimization knobs; when enabled,
            :meth:`plan_query` wraps materialization points of the final
            plan in validity-range CHECK operators.
    """

    def __init__(
        self,
        catalog: Catalog,
        params: CostParameters = DEFAULT_PARAMETERS,
        config: EnumeratorConfig = EnumeratorConfig(),
        feedback=None,
        adaptive=None,
    ) -> None:
        self.catalog = catalog
        self.params = params
        self.config = config
        self.feedback = feedback
        self.adaptive = adaptive

    # ------------------------------------------------------------------
    def plan_query(
        self, op: LogicalOp, required_order: Optional[SortOrder] = None
    ) -> PhysicalOp:
        """Physicalize a complete query tree.

        Unlike :meth:`physicalize` (which is re-entered recursively for
        subtrees), this runs exactly once per query, so it is the safe
        place to decorate the finished plan: with adaptivity enabled,
        validity-range CHECK operators are inserted at materialization
        points here.
        """
        plan = self.physicalize(op, required_order)
        if self.adaptive is not None and self.adaptive.enabled:
            from repro.engine.adaptive import insert_checks

            plan = insert_checks(plan, self.catalog, self.params, self.adaptive)
        return plan

    # ------------------------------------------------------------------
    def physicalize(
        self, op: LogicalOp, required_order: Optional[SortOrder] = None
    ) -> PhysicalOp:
        """Produce a physical plan for a logical tree."""
        if self._is_spj_region(op):
            return self._enumerate_region(op, required_order)
        plan = self._map_node(op, required_order)
        if required_order and not order_satisfies(plan.order, required_order):
            sort = SortP(plan, required_order)
            sort.est_rows = plan.est_rows
            sort.est_cost = plan.est_cost + cost_sort(
                plan.est_rows,
                pages_for_rows(plan.est_rows, 32.0, self.params),
                self.params,
            )
            sort.order = required_order
            plan = sort
        return plan

    # ------------------------------------------------------------------
    # SPJ region detection and enumeration
    # ------------------------------------------------------------------
    def _is_spj_region(self, op: LogicalOp) -> bool:
        if isinstance(op, Get):
            return True
        if isinstance(op, Filter):
            return not _has_udf(op.predicate) and self._is_spj_region(op.child)
        if isinstance(op, Join) and op.kind in (JoinKind.INNER, JoinKind.CROSS):
            if op.predicate is not None and _has_udf(op.predicate):
                return False
            return self._is_spj_region(op.left) and self._is_spj_region(op.right)
        return False

    def _enumerate_region(
        self, op: LogicalOp, required_order: Optional[SortOrder]
    ) -> PhysicalOp:
        graph = QueryGraph()
        self._collect_region(op, graph)
        stats = self._stats_for(graph)
        if self.config.naive:
            from repro.core.systemr.naive import NaiveExhaustiveEnumerator

            naive = NaiveExhaustiveEnumerator(
                self.catalog,
                graph,
                stats,
                self.params,
                bushy=self.config.bushy,
                allow_cartesian=True,
            )
            plan, _cost = naive.best_plan(required_order)
            return plan
        enumerator = SystemRJoinEnumerator(
            self.catalog,
            graph,
            stats,
            self.params,
            self.config,
            extra_orders=(required_order,) if required_order else (),
            feedback=self.feedback,
        )
        plan, _cost = enumerator.best_plan(required_order)
        return plan

    def _collect_region(self, op: LogicalOp, graph: QueryGraph) -> None:
        if isinstance(op, Get):
            graph.add_relation(op.alias, op.table)
            return
        if isinstance(op, Filter):
            self._collect_region(op.child, graph)
            graph.add_predicate(op.predicate)
            return
        if isinstance(op, Join):
            self._collect_region(op.left, graph)
            self._collect_region(op.right, graph)
            if op.predicate is not None:
                graph.add_predicate(op.predicate)
            return
        raise OptimizerError(f"unexpected node in SPJ region: {type(op).__name__}")

    def _stats_for(self, graph: QueryGraph) -> Dict[str, TableStats]:
        stats: Dict[str, TableStats] = {}
        for alias in graph.aliases:
            table = graph.node(alias).table
            existing = self.catalog.stats(table)
            if existing is None:
                existing = analyze_table(self.catalog, table, histogram_kind=None)
            stats[alias] = existing
        return stats

    def _estimator(self, op: LogicalOp) -> CardinalityEstimator:
        stats: Dict[str, TableStats] = {}
        for node in _walk(op):
            if isinstance(node, Get):
                existing = self.catalog.stats(node.table)
                if existing is None:
                    existing = analyze_table(
                        self.catalog, node.table, histogram_kind=None
                    )
                stats[node.alias] = existing
        return CardinalityEstimator(
            stats, damping=self.config.damping, feedback=self.feedback
        )

    # ------------------------------------------------------------------
    # Node-by-node mapping
    # ------------------------------------------------------------------
    def _map_node(
        self, op: LogicalOp, required_order: Optional[SortOrder] = None
    ) -> PhysicalOp:
        estimator = self._estimator(op)
        rows = estimator.estimate(op)
        if isinstance(op, Get):
            table = self.catalog.table(op.table)
            plan = SeqScanP(
                op.table,
                op.alias,
                op.columns,
                column_types=table.schema.column_types,
            )
            plan.est_rows = float(table.row_count)
            plan.est_cost = cost_seq_scan(
                float(table.row_count), float(table.page_count), 0, self.params
            )
            return plan
        if isinstance(op, Filter):
            return self._map_filter(op, rows, estimator)
        if isinstance(op, Project):
            # Translate an order requirement through a pure renaming so an
            # SPJ region below can satisfy it (interesting orders through
            # the projection boundary).
            child_requirement: Optional[SortOrder] = None
            if required_order and op.is_simple():
                mapping = {item.ref(): item.expr for item in op.items}
                translated = []
                for ref, ascending in required_order:
                    target = mapping.get(ref)
                    if not isinstance(target, ColumnRef):
                        translated = None
                        break
                    translated.append((target, ascending))
                if translated:
                    child_requirement = tuple(translated)
            child = self.physicalize(op.child, required_order=child_requirement)
            plan = ProjectP(child, op.items)
            plan.est_rows = child.est_rows
            plan.est_cost = child.est_cost + cost_project(
                child.est_rows, len(op.items), self.params
            )
            plan.order = _project_order(child.order, op)
            return plan
        if isinstance(op, Join):
            return self._map_join(op, rows, estimator)
        if isinstance(op, GroupBy):
            return self._map_groupby(op, rows)
        if isinstance(op, Distinct):
            child = self.physicalize(op.child)
            plan = DistinctP(child)
            plan.est_rows = rows
            plan.est_cost = child.est_cost + cost_hash_aggregate(
                child.est_rows, rows, 0, self.params
            )
            return plan
        if isinstance(op, Union):
            left = self.physicalize(op.left)
            right = self.physicalize(op.right)
            plan: PhysicalOp = UnionAllP(left, right)
            plan.est_rows = left.est_rows + right.est_rows
            plan.est_cost = left.est_cost + right.est_cost
            if not op.all_rows:
                distinct = DistinctP(plan)
                distinct.est_rows = plan.est_rows * 0.9
                distinct.est_cost = plan.est_cost + cost_hash_aggregate(
                    plan.est_rows, distinct.est_rows, 0, self.params
                )
                plan = distinct
            return plan
        if isinstance(op, Sort):
            # Pass the requirement down: an SPJ region below can satisfy
            # it through interesting orders (merge-join pipelines or
            # ordered index scans) and make this sort free.
            order_requirement: SortOrder = tuple(op.keys)
            child = self.physicalize(op.child, required_order=order_requirement)
            order = order_requirement
            if order_satisfies(child.order, order):
                return child
            plan = SortP(child, order)
            plan.est_rows = child.est_rows
            plan.est_cost = child.est_cost + cost_sort(
                child.est_rows,
                pages_for_rows(child.est_rows, 32.0, self.params),
                self.params,
            )
            plan.order = order
            return plan
        if isinstance(op, Limit):
            # No order requirement is pushed through: which rows satisfy
            # the quota must not depend on what the plan above wants.
            child = self.physicalize(op.child)
            plan = LimitP(child, op.limit, op.offset)
            plan.est_rows = rows
            plan.est_cost = child.est_cost + cost_limit(rows, self.params)
            plan.order = child.order
            return plan
        if isinstance(op, Apply):
            left = self.physicalize(op.left)
            plan = ApplyP(
                left, op.right, op.kind, op.scalar_name, op.scalar_alias
            )
            plan.est_rows = rows
            inner_rows = estimator.estimate(op.right) if op.right else 1.0
            plan.est_cost = left.est_cost + cost_nested_loop_join(
                left.est_rows,
                cost_seq_scan(inner_rows, max(inner_rows / 100.0, 1.0), 1, self.params),
                inner_rows,
                1,
                self.params,
            )
            return plan
        raise OptimizerError(f"cannot physicalize {type(op).__name__}")

    def _map_filter(
        self, op: Filter, rows: float, estimator: CardinalityEstimator
    ) -> PhysicalOp:
        child = self.physicalize(op.child)
        plain: List[Expr] = []
        expensive: List[UdfCall] = []
        for conjunct in conjuncts(op.predicate):
            if isinstance(conjunct, UdfCall):
                expensive.append(conjunct)
            else:
                plain.append(conjunct)
        plan: PhysicalOp = child
        if plain:
            predicate = conjoin(plain)
            filtered = FilterP(plan, predicate)
            filtered.est_rows = rows if not expensive else plan.est_rows * 0.5
            filtered.est_cost = plan.est_cost + cost_filter(
                plan.est_rows, len(plain), self.params
            )
            filtered.order = plan.order
            filtered.feedback_fingerprint = (
                estimator.selectivity.predicate_fingerprint(predicate)
            )
            plan = filtered
        # Cheapest-rank-first ordering of expensive predicates ([29, 30]).
        for udf in sorted(expensive, key=lambda u: u.rank):
            udf_plan = UdfFilterP(plan, udf)
            udf_plan.est_rows = plan.est_rows * udf.selectivity
            udf_plan.est_cost = plan.est_cost + cost_udf_filter(
                plan.est_rows, udf.per_tuple_cost, self.params
            )
            udf_plan.order = plan.order
            udf_plan.feedback_fingerprint = (
                estimator.selectivity.predicate_fingerprint(udf)
            )
            plan = udf_plan
        return plan

    def _map_join(
        self, op: Join, rows: float, estimator: CardinalityEstimator
    ) -> PhysicalOp:
        left = self.physicalize(op.left)
        right = self.physicalize(op.right)
        pairs, residual = _split_equi_generic(
            op.predicate, op.left.output_schema(), op.right.output_schema()
        )
        if pairs:
            plan = HashJoinP(
                left,
                right,
                [l for l, _r in pairs],
                [r for _l, r in pairs],
                op.kind,
                residual,
            )
            build_pages = pages_for_rows(right.est_rows, 32.0, self.params)
            probe_pages = pages_for_rows(left.est_rows, 32.0, self.params)
            plan.est_cost = left.est_cost + right.est_cost + cost_hash_join(
                right.est_rows, build_pages, left.est_rows, probe_pages, rows,
                self.params,
            )
        else:
            plan = NLJoinP(left, right, op.predicate, op.kind)
            rescan = cost_seq_scan(
                right.est_rows, max(right.est_rows / 100.0, 1.0), 0, self.params
            )
            plan.est_cost = left.est_cost + right.est_cost + cost_nested_loop_join(
                left.est_rows,
                rescan,
                right.est_rows,
                len(conjuncts(op.predicate)),
                self.params,
            )
        plan.est_rows = rows
        plan.feedback_fingerprint = estimator.selectivity.predicate_fingerprint(
            op.predicate
        )
        return plan

    def _map_groupby(self, op: GroupBy, rows: float) -> PhysicalOp:
        keys_order = make_order(op.keys) if op.keys else ()
        child = self.physicalize(op.child, required_order=None)
        if op.keys and order_satisfies(child.order, keys_order):
            plan: HashAggP = StreamAggP(
                child, op.keys, op.aggregates, op.output_alias
            )
            plan.est_cost = child.est_cost + cost_stream_aggregate(
                child.est_rows, rows, len(op.aggregates), self.params
            )
            plan.order = keys_order
        else:
            plan = HashAggP(child, op.keys, op.aggregates, op.output_alias)
            plan.est_cost = child.est_cost + cost_hash_aggregate(
                child.est_rows, rows, len(op.aggregates), self.params
            )
        plan.est_rows = rows
        return plan


def _has_udf(expr: Optional[Expr]) -> bool:
    if expr is None:
        return False
    if isinstance(expr, UdfCall):
        return True
    return any(_has_udf(child) for child in expr.children())


def _walk(op: LogicalOp):
    yield op
    for child in op.children():
        yield from _walk(child)


def _in_schema(schema, ref: ColumnRef) -> bool:
    return (ref.table, ref.column) in set(schema.slots)


def _split_equi_generic(
    predicate: Optional[Expr], left_schema, right_schema
) -> Tuple[List[Tuple[ColumnRef, ColumnRef]], Optional[Expr]]:
    pairs: List[Tuple[ColumnRef, ColumnRef]] = []
    residual: List[Expr] = []
    for conjunct in conjuncts(predicate):
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op is ComparisonOp.EQ
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            l, r = conjunct.left, conjunct.right
            if _in_schema(left_schema, l) and _in_schema(right_schema, r):
                pairs.append((l, r))
                continue
            if _in_schema(left_schema, r) and _in_schema(right_schema, l):
                pairs.append((r, l))
                continue
        residual.append(conjunct)
    return pairs, conjoin(residual)


def _project_order(
    child_order: Optional[SortOrder], project: Project
) -> Optional[SortOrder]:
    """Order surviving a projection: a prefix whose columns pass through."""
    if not child_order:
        return None
    passed = {}
    for item in project.items:
        if isinstance(item.expr, ColumnRef):
            passed[item.expr] = item.ref()
    result = []
    for ref, ascending in child_order:
        if ref in passed:
            result.append((passed[ref], ascending))
        else:
            break
    return tuple(result) if result else None
