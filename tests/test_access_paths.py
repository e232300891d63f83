"""Tests for access-path generation (scan alternatives + seek bounds)."""

import pytest

from repro.catalog import Catalog, Column, ColumnType
from repro.core.cascades import CascadesOptimizer
from repro.core.systemr.access import generate_access_paths
from repro.cost import DEFAULT_PARAMETERS
from repro.datagen import graph_stats
from repro.engine import execute
from repro.expr import BoolExpr, BoolOp, Comparison, ComparisonOp, col, lit
from repro.expr.expressions import Param
from repro.logical.querygraph import QueryGraph
from repro.physical import IndexScanP, SeqScanP
from repro.stats import CardinalityEstimator, analyze_table
from repro.stats.selectivity import DEFAULT_RANGE_SELECTIVITY

from tests.conftest import assert_same_rows


@pytest.fixture
def setup():
    catalog = Catalog()
    table = catalog.create_table(
        "T",
        [Column("a", ColumnType.INT), Column("b", ColumnType.INT),
         Column("c", ColumnType.INT)],
    )
    # Big enough that a selective index seek beats the sequential scan
    # (on a one-page table the scan always wins, correctly).
    for i in range(5000):
        table.insert((i % 40, i % 7, i))
    catalog.create_index("idx_a", "T", ["a"])
    catalog.create_index("idx_bc", "T", ["b", "c"])
    analyze_table(catalog, "T")
    return catalog


def paths_for(catalog, predicate=None):
    graph = QueryGraph()
    graph.add_relation("T", "T")
    if predicate is not None:
        graph.add_predicate(predicate)
    stats = graph_stats(catalog, graph)
    estimator = CardinalityEstimator(stats)
    return generate_access_paths(
        "T", graph, catalog, estimator, DEFAULT_PARAMETERS
    ), graph


class TestPathGeneration:
    def test_one_path_per_access_method(self, setup):
        paths, _g = paths_for(setup)
        kinds = [type(p).__name__ for p in paths]
        assert kinds.count("SeqScanP") == 1
        assert kinds.count("IndexScanP") == 2

    def test_full_index_scan_delivers_order(self, setup):
        paths, _g = paths_for(setup)
        index_paths = [p for p in paths if isinstance(p, IndexScanP)]
        for path in index_paths:
            assert path.order is not None
            assert path.eq_value is None and path.low is None

    def test_eq_seek_extracted(self, setup):
        paths, _g = paths_for(setup, Comparison(
            ComparisonOp.EQ, col("T", "a"), lit(5)))
        seek = next(
            p for p in paths
            if isinstance(p, IndexScanP) and p.index_name == "idx_a"
        )
        assert seek.eq_value == (5,)
        assert seek.predicate is None  # fully absorbed

    def test_range_seek_extracted(self, setup):
        predicate = BoolExpr(BoolOp.AND, [
            Comparison(ComparisonOp.GE, col("T", "a"), lit(10)),
            Comparison(ComparisonOp.LT, col("T", "a"), lit(20)),
        ])
        paths, _g = paths_for(setup, predicate)
        seek = next(
            p for p in paths
            if isinstance(p, IndexScanP) and p.index_name == "idx_a"
        )
        assert seek.low == 10
        # The strict < 20 bound is conservatively kept as residual or as
        # a high bound; either way execution must be exact (checked below).

    def test_non_leading_column_stays_residual(self, setup):
        predicate = Comparison(ComparisonOp.EQ, col("T", "c"), lit(33))
        paths, _g = paths_for(setup, predicate)
        for path in paths:
            if isinstance(path, IndexScanP) and path.index_name == "idx_bc":
                assert path.eq_value is None
                assert path.predicate is not None

    def test_all_paths_execute_identically(self, setup):
        predicate = BoolExpr(BoolOp.AND, [
            Comparison(ComparisonOp.GE, col("T", "a"), lit(10)),
            Comparison(ComparisonOp.LE, col("T", "a"), lit(25)),
            Comparison(ComparisonOp.EQ, col("T", "b"), lit(3)),
        ])
        paths, _g = paths_for(setup, predicate)
        results = []
        for path in paths:
            _schema, rows = execute(path, setup)
            results.append(rows)
        for other in results[1:]:
            assert_same_rows(other, results[0])

    def test_costs_annotated(self, setup):
        paths, _g = paths_for(setup, Comparison(
            ComparisonOp.EQ, col("T", "a"), lit(5)))
        for path in paths:
            assert path.est_cost.total > 0
            assert path.est_rows >= 0
        # The selective eq-seek should beat the sequential scan.
        seq = next(p for p in paths if isinstance(p, SeqScanP))
        seek = next(
            p for p in paths
            if isinstance(p, IndexScanP) and p.eq_value is not None
        )
        assert seek.est_cost.total < seq.est_cost.total


class TestParamSeeks:
    """``col op ?`` is sargable: the seek carries the Param and the
    executor resolves it from the bound parameters."""

    def _seek(self, catalog, predicate, index_name="idx_a"):
        paths, _g = paths_for(catalog, predicate)
        return paths, next(
            p for p in paths
            if isinstance(p, IndexScanP) and p.index_name == index_name
        )

    def test_eq_and_range_markers_become_seek_bounds(self, setup):
        _paths, seek = self._seek(
            setup, Comparison(ComparisonOp.EQ, col("T", "a"), Param(0))
        )
        assert seek.eq_value == (Param(0),) and seek.predicate is None
        assert "eq=(?1,)" in seek.explain()
        _paths, seek = self._seek(setup, BoolExpr(BoolOp.AND, [
            Comparison(ComparisonOp.GE, col("T", "a"), Param(0)),
            Comparison(ComparisonOp.GT, Param(1), col("T", "a")),
        ]))
        assert (seek.low, seek.high) == (Param(0), Param(1))
        assert (seek.low_strict, seek.high_strict) == (False, True)
        assert seek.predicate is None

    def test_unorderable_bounds_keep_the_first_and_the_rest_residual(
        self, setup
    ):
        first = Comparison(ComparisonOp.GE, col("T", "a"), Param(0))
        second = Comparison(ComparisonOp.GT, col("T", "a"), lit(15))
        _paths, seek = self._seek(setup, BoolExpr(BoolOp.AND, [first, second]))
        assert seek.low == Param(0) and seek.predicate == second
        # An equality seek wins; the range conjuncts stay as residual.
        eq = Comparison(ComparisonOp.EQ, col("T", "a"), Param(0))
        _paths, seek = self._seek(setup, BoolExpr(BoolOp.AND, [eq, second]))
        assert seek.eq_value == (Param(0),) and seek.predicate == second

    def test_marker_selectivity_follows_system_r(self, setup):
        graph = QueryGraph()
        graph.add_relation("T", "T")
        estimator = CardinalityEstimator(graph_stats(setup, graph))
        selectivity = estimator.selectivity.selectivity
        assert selectivity(
            Comparison(ComparisonOp.EQ, col("T", "a"), Param(0))
        ) == pytest.approx(1 / 40)
        assert selectivity(
            Comparison(ComparisonOp.LT, col("T", "a"), Param(0))
        ) == pytest.approx(DEFAULT_RANGE_SELECTIVITY)
        _paths, seek = self._seek(
            setup, Comparison(ComparisonOp.EQ, col("T", "a"), Param(0))
        )
        seq = next(p for p in _paths if isinstance(p, SeqScanP))
        assert seek.est_cost.total < seq.est_cost.total

    @pytest.mark.parametrize("values", [(5, 9), (9, 5), (None, 9), (5, None)])
    def test_every_path_agrees_for_bound_values(self, setup, values):
        predicate = BoolExpr(BoolOp.AND, [
            Comparison(ComparisonOp.GE, col("T", "a"), Param(0)),
            Comparison(ComparisonOp.LE, col("T", "a"), Param(1)),
            Comparison(ComparisonOp.EQ, col("T", "b"), lit(3)),
        ])
        paths, _g = paths_for(setup, predicate)
        results = [execute(path, setup, parameters=values)[1] for path in paths]
        for other in results[1:]:
            assert_same_rows(other, results[0])
        if None in values:
            assert results[0] == [], "a NULL parameter opened a range side"

    def test_cascades_seeks_a_marker_too(self, setup):
        graph = QueryGraph()
        graph.add_relation("T", "T")
        graph.add_predicate(
            Comparison(ComparisonOp.EQ, col("T", "a"), Param(0))
        )
        plan, _cost = CascadesOptimizer(
            setup, graph, graph_stats(setup, graph)
        ).best_plan()
        assert "IndexScan(T AS T via idx_a eq=(?1,))" in plan.explain()


class TestExecutorEdgeCases:
    def test_merge_join_heavy_duplicates(self):
        catalog = Catalog()
        r = catalog.create_table("R", [Column("k", ColumnType.INT)])
        s = catalog.create_table("S", [Column("k", ColumnType.INT)])
        r.insert_many([(1,)] * 5 + [(2,)] * 3)
        s.insert_many([(1,)] * 4 + [(3,)] * 2)
        from repro.logical import Get, Join, JoinKind
        from repro.engine import interpret
        from repro.expr import eq
        from repro.physical import MergeJoinP, SortP
        from repro.physical.properties import make_order

        reference = Join(
            Get("R", "R", ["k"]), Get("S", "S", ["k"]),
            eq(col("R", "k"), col("S", "k")), JoinKind.INNER,
        )
        _s1, want = interpret(reference, catalog)
        assert len(want) == 20  # 5 x 4 duplicate matches
        plan = MergeJoinP(
            SortP(SeqScanP("R", "R", ["k"]), make_order([col("R", "k")])),
            SortP(SeqScanP("S", "S", ["k"]), make_order([col("S", "k")])),
            [col("R", "k")], [col("S", "k")], JoinKind.INNER,
        )
        _s2, got = execute(plan, catalog)
        assert_same_rows(got, want)

    def test_index_scan_counts_index_pages(self, setup):
        from repro.engine import ExecContext

        plan = IndexScanP("T", "T", ["a", "b", "c"], "idx_a", eq_value=(5,))
        context = ExecContext()
        execute(plan, setup, context)
        assert context.counters.total_page_reads >= 1

    def test_empty_table_scan(self):
        catalog = Catalog()
        catalog.create_table("E", [Column("a", ColumnType.INT)])
        _schema, rows = execute(SeqScanP("E", "E", ["a"]), catalog)
        assert rows == []
