"""Parametric and dynamic query optimization (paper Section 7.4).

The paper points to "being able to defer generation of complete plans
subject to availability of runtime information" ([19] dynamic plans,
[33] parametric optimization).  This module implements the parametric
flavour for one numeric query parameter (e.g. the constant of a range
predicate):

* optimize the query at sampled parameter values;
* collapse adjacent samples that choose the same plan into *regions*,
  yielding a plan diagram: parameter range -> optimal plan;
* wrap the regions in a :class:`ChoosePlan` that picks the right plan
  when the actual value arrives at run time -- Graefe/Ward's
  choose-plan operator.

The benchmark (E14) shows the claim that motivates all this: a single
static plan, optimal at one parameter value, can be far from optimal
elsewhere in the range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.cost.model import Cost
from repro.cost.parameters import DEFAULT_PARAMETERS, CostParameters
from repro.errors import OptimizerError
from repro.expr.expressions import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    Literal,
)
from repro.logical.querygraph import QueryGraph
from repro.physical.plans import PhysicalOp
from repro.core.systemr.enumerator import EnumeratorConfig, SystemRJoinEnumerator
from repro.stats.summaries import TableStats


@dataclass(frozen=True)
class ParameterMarker:
    """Identifies the parameterized predicate: ``column op ?``."""

    column: ColumnRef
    op: ComparisonOp


def _plan_signature(plan: PhysicalOp) -> str:
    """A structural signature: operator types plus the tables/indexes
    they touch, in pre-order.  Parameter constants are deliberately
    excluded so plans differing only in the bound value compare equal
    (that is what makes regions mergeable)."""
    parts: List[str] = []

    def visit(node: PhysicalOp) -> None:
        piece = type(node).__name__
        for attribute in ("table", "alias", "index_name"):
            value = getattr(node, attribute, None)
            if value is not None:
                piece += f":{value}"
        parts.append(piece)
        for child in node.children():
            visit(child)

    visit(plan)
    return "|".join(parts)


@dataclass
class PlanRegion:
    """One region of the plan diagram: a parameter interval and its plan."""

    low: float
    high: float
    plan: PhysicalOp
    signature: str
    cost_at_samples: Dict[float, float] = field(default_factory=dict)

    def contains(self, value: float) -> bool:
        """Whether a parameter value falls in this region."""
        return self.low <= value <= self.high


@dataclass
class ChoosePlan:
    """A dynamic plan: regions plus the run-time selection step ([19]).

    Attributes:
        marker: which predicate the parameter feeds.
        regions: the plan diagram, ordered by interval.
    """

    marker: ParameterMarker
    regions: List[PlanRegion]

    def choose(self, value: float) -> PhysicalOp:
        """The plan for an actual parameter value (nearest region when
        the value falls outside every sampled interval)."""
        for region in self.regions:
            if region.contains(value):
                return region.plan
        if not self.regions:
            raise OptimizerError("empty plan diagram")
        if value < self.regions[0].low:
            return self.regions[0].plan
        return self.regions[-1].plan

    @property
    def distinct_plans(self) -> int:
        """Number of structurally distinct plans across the diagram."""
        return len({region.signature for region in self.regions})


class ParametricOptimizer:
    """Optimizes a query graph across a numeric parameter range.

    The graph must contain exactly one predicate of the form
    ``marker.column marker.op <literal>``; its literal is replaced by
    each sampled value before enumeration.

    Args:
        catalog / stats_by_alias / params / config: as in the
            System-R enumerator.
        graph_builder: builds the query graph for a parameter value
            (called per sample, so local predicates re-route correctly).
    """

    def __init__(
        self,
        catalog: Catalog,
        graph_builder: Callable[[float], QueryGraph],
        stats_by_alias: Dict[str, TableStats],
        marker: ParameterMarker,
        params: CostParameters = DEFAULT_PARAMETERS,
        config: EnumeratorConfig = EnumeratorConfig(),
    ) -> None:
        self.catalog = catalog
        self.graph_builder = graph_builder
        self.stats_by_alias = stats_by_alias
        self.marker = marker
        self.params = params
        self.config = config

    # ------------------------------------------------------------------
    def optimize_at(self, value: float) -> Tuple[PhysicalOp, Cost]:
        """A static plan optimized for one parameter value."""
        graph = self.graph_builder(value)
        enumerator = SystemRJoinEnumerator(
            self.catalog, graph, self.stats_by_alias, self.params, self.config
        )
        return enumerator.best_plan()

    def plan_diagram(self, samples: Sequence[float]) -> ChoosePlan:
        """Optimize at each sample and merge same-plan neighbours.

        Raises:
            OptimizerError: on an empty sample list.
        """
        if not samples:
            raise OptimizerError("need at least one parameter sample")
        ordered = sorted(samples)
        regions: List[PlanRegion] = []
        for value in ordered:
            plan, cost = self.optimize_at(value)
            signature = _plan_signature(plan)
            if regions and regions[-1].signature == signature:
                regions[-1].high = value
                regions[-1].cost_at_samples[value] = cost.total
            else:
                regions.append(
                    PlanRegion(
                        low=value,
                        high=value,
                        plan=plan,
                        signature=signature,
                        cost_at_samples={value: cost.total},
                    )
                )
        return ChoosePlan(marker=self.marker, regions=regions)

    def static_regret(
        self, static_value: float, samples: Sequence[float]
    ) -> List[Tuple[float, float, float]]:
        """Observed cost of the single plan optimized at ``static_value``
        when the parameter actually takes each sampled value, vs the
        per-value optimal plan.  Both plans are *executed* with the
        actual value bound, and the executor's observed counters are
        priced in the cost model's units.
        """
        from repro.engine.context import ExecContext
        from repro.engine.executor import execute

        static_plan, _cost = self.optimize_at(static_value)
        results = []
        for value in samples:
            bound_static = bind_parameter(
                static_plan, self.marker, value, self.catalog
            )
            optimal_plan, _ = self.optimize_at(value)
            costs = []
            for plan in (bound_static, optimal_plan):
                context = ExecContext(self.params)
                execute(plan, self.catalog, context)
                costs.append(context.counters.observed_cost(self.params))
            results.append((value, costs[0], costs[1]))
        return results


def bind_parameter(
    plan: PhysicalOp, marker: ParameterMarker, value: float, catalog: Catalog
) -> PhysicalOp:
    """A copy of ``plan`` with the parameter's constant replaced.

    Rewrites (a) predicate comparisons matching the marker and (b) the
    seek bounds of index scans whose index leads with the marker's
    column (``catalog`` resolves each scan's index); bounds of an index
    on another column are left alone.  This is the run-time binding
    step of a choose-plan operator.
    """
    import copy

    def rewrite_expr(expr: Optional[Expr]) -> Optional[Expr]:
        if expr is None:
            return None
        if (
            isinstance(expr, Comparison)
            and expr.op is marker.op
            and expr.left == marker.column
            and isinstance(expr.right, Literal)
        ):
            return Comparison(expr.op, expr.left, Literal(value))
        children = expr.children()
        if not children:
            return expr
        new_children = [rewrite_expr(child) for child in children]
        if all(new is old for new, old in zip(new_children, children)):
            return expr
        return expr.replace_children(new_children)

    cloned = copy.copy(plan)
    children = plan.children()
    if children:
        new_children = [
            bind_parameter(child, marker, value, catalog) for child in children
        ]
        for attribute in ("child", "left", "right", "outer"):
            if hasattr(cloned, attribute):
                old = getattr(plan, attribute)
                for new, original in zip(new_children, children):
                    if old is original:
                        setattr(cloned, attribute, new)
    for attribute in ("predicate", "residual"):
        if hasattr(cloned, attribute):
            setattr(cloned, attribute, rewrite_expr(getattr(plan, attribute)))
    # Index-scan bounds on the marker column.
    from repro.physical.plans import IndexScanP

    if (
        isinstance(cloned, IndexScanP)
        and cloned.alias == marker.column.table
        and catalog.index(cloned.index_name).definition.columns[0]
        == marker.column.column
    ):
        if marker.op in (ComparisonOp.LT, ComparisonOp.LE) and cloned.high is not None:
            cloned.high = value
        if marker.op in (ComparisonOp.GT, ComparisonOp.GE) and cloned.low is not None:
            cloned.low = value
        if marker.op is ComparisonOp.EQ and cloned.eq_value is not None:
            cloned.eq_value = (value,)
    return cloned


def _leaf_order(plan: PhysicalOp) -> List[str]:
    """Base-relation aliases in the plan's left-to-right leaf order."""
    order: List[str] = []

    def visit(node: PhysicalOp) -> None:
        alias = getattr(node, "alias", None)
        children = node.children()
        for child in children:
            visit(child)
        if alias is not None and not children:
            order.append(alias)
        elif alias is not None and children:
            order.append(alias)  # INL join carries its inner alias

    visit(plan)
    seen = set()
    unique = []
    for alias in order:
        if alias not in seen:
            seen.add(alias)
            unique.append(alias)
    return unique
