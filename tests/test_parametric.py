"""Tests for parametric / dynamic plan optimization (Section 7.4)."""

import random

import pytest

from repro.catalog import Catalog, Column, ColumnType
from repro.core.parametric import (
    ChoosePlan,
    ParameterMarker,
    ParametricOptimizer,
)
from repro.datagen import graph_stats
from repro.errors import OptimizerError
from repro.expr import Comparison, ComparisonOp, col, lit
from repro.logical.querygraph import QueryGraph
from repro.stats import analyze_table


@pytest.fixture(scope="module")
def setup():
    """Fact(k, v) joined with Small(k, w); the parameter filters Fact.v.

    At tiny selectivity an index path wins; at large selectivity a scan
    + hash join wins, so the plan diagram has at least two regions.
    """
    catalog = Catalog()
    rng = random.Random(141)
    fact = catalog.create_table(
        "Fact",
        [Column("k", ColumnType.INT), Column("v", ColumnType.INT)],
    )
    for _ in range(8000):
        fact.insert((rng.randint(1, 50), rng.randint(1, 10_000)))
    # Unclustered index: a selective seek wins, an unselective one pays a
    # random page read per row and loses to the scan -- the plan flips.
    catalog.create_index("idx_fact_v", "Fact", ["v"])
    small = catalog.create_table(
        "Small", [Column("k", ColumnType.INT), Column("w", ColumnType.INT)]
    )
    for k in range(1, 51):
        small.insert((k, k * 10))
    analyze_table(catalog, "Fact")
    analyze_table(catalog, "Small")

    def build_graph(value: float) -> QueryGraph:
        graph = QueryGraph()
        graph.add_relation("F", "Fact")
        graph.add_relation("S", "Small")
        graph.add_predicate(
            Comparison(ComparisonOp.EQ, col("F", "k"), col("S", "k"))
        )
        graph.add_predicate(
            Comparison(ComparisonOp.LT, col("F", "v"), lit(value))
        )
        return graph

    marker = ParameterMarker(col("F", "v"), ComparisonOp.LT)
    optimizer = ParametricOptimizer(
        catalog, build_graph, graph_stats(catalog, build_graph(100)), marker
    )
    return optimizer


class TestPlanDiagram:
    def test_regions_cover_samples(self, setup):
        samples = [10, 100, 1000, 5000, 9900]
        diagram = setup.plan_diagram(samples)
        assert diagram.regions
        for value in samples:
            assert diagram.choose(value) is not None

    def test_multiple_plans_across_range(self, setup):
        samples = [10, 50, 200, 1000, 4000, 9900]
        diagram = setup.plan_diagram(samples)
        assert diagram.distinct_plans >= 2, (
            "selectivity sweep should flip the access path"
        )

    def test_adjacent_same_plans_merged(self, setup):
        diagram = setup.plan_diagram([9000, 9300, 9600, 9900])
        # High selectivity end: one region expected (scan-based plan).
        assert len(diagram.regions) <= 2

    def test_choose_outside_range_clamps(self, setup):
        diagram = setup.plan_diagram([100, 5000])
        assert diagram.choose(-5) is diagram.regions[0].plan
        assert diagram.choose(10**6) is diagram.regions[-1].plan

    def test_empty_samples_rejected(self, setup):
        with pytest.raises(OptimizerError):
            setup.plan_diagram([])


class TestStaticRegret:
    def test_static_plan_never_beats_optimal(self, setup):
        regrets = setup.static_regret(50, [10, 1000, 9000])
        for _value, static_cost, optimal in regrets:
            assert static_cost >= optimal - 1e-6

    def test_static_optimal_at_its_own_value(self, setup):
        regrets = setup.static_regret(1000, [1000])
        (_value, static_cost, optimal), = regrets
        assert static_cost == pytest.approx(optimal)

    def test_regret_grows_away_from_anchor(self, setup):
        regrets = setup.static_regret(10, [10, 9900])
        near = regrets[0][1] / max(regrets[0][2], 1e-9)
        far = regrets[1][1] / max(regrets[1][2], 1e-9)
        assert far >= near


def test_bind_parameter_leaves_other_columns_index_bounds_alone():
    """Binding ``E.sal < ?`` must not rewrite the seek bound of an index
    on ``E.emp_no``: the bound ``range=[None, 300)`` used to become
    ``[None, 50000.0)`` and leak employees 300-499 into the result."""
    from repro.core.optimizer import Database
    from repro.core.parametric import bind_parameter
    from repro.datagen import build_emp_dept
    from repro.engine.executor import execute
    from repro.physical.plans import IndexScanP, walk_physical

    db = Database()
    build_emp_dept(db.catalog, emp_rows=500, dept_rows=10,
                   rng=random.Random(7))
    plan = db.optimize(
        "SELECT E.name FROM Emp E WHERE E.emp_no < 300 AND E.sal < 90000.5"
    ).physical
    scans = [op for op in walk_physical(plan) if isinstance(op, IndexScanP)]
    assert [scan.high for scan in scans] == [300]
    marker = ParameterMarker(col("E", "sal"), ComparisonOp.LT)
    bound = bind_parameter(plan, marker, 50000.0, db.catalog)
    assert [op.high for op in walk_physical(bound)
            if isinstance(op, IndexScanP)] == [300]
    _schema, rows = execute(bound, db.catalog)
    expected = db.sql(
        "SELECT E.name FROM Emp E WHERE E.emp_no < 300 AND E.sal < 50000.0"
    ).rows
    assert sorted(rows) == sorted(expected)
