"""The pipeline contract: executors honor declared breaker flags.

Every physical operator declares, per child, whether it must consume
that child *fully* before producing its first output batch
(:attr:`PhysicalOp.consumes_child_fully`).  The batch engine's memory
story -- and the ``peak_resident_rows`` accounting EXPLAIN ANALYZE
reports -- is only honest if the executors match the declarations, so
this suite checks them mechanically:

* every concrete ``PhysicalOp`` subclass must appear in the explicit
  expectation table below (a new operator fails the test until its
  pipeline behavior is declared *and* verified);
* for each operator, after pulling exactly ONE batch from it, a child
  declared streaming (flag False) must not have been drained, while a
  child declared a breaker input (flag True) must have been consumed
  completely.  Observation is via RuntimeStats ``actual_rows`` on the
  child node, which the streaming driver accumulates per batch.

Also pinned here: checkpoint replay and UNION ALL are zero-copy in the
batch engine (replayed row objects keep their identity), and typed
cancellation/timeout errors propagate promptly out of suspended
generator pipelines.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.catalog import Catalog, Column, ColumnType
from repro.cost.parameters import DEFAULT_PARAMETERS
from repro.engine.context import ExecContext
from repro.engine.executor import execute, stream_batches
from repro.engine.governor import CancellationToken, QueryBudget
from repro.engine.runtime_stats import RuntimeStats
from repro.errors import QueryCancelled, QueryTimeout
from repro.expr import AggFunc, AggregateCall, col, eq, lit
from repro.expr.expressions import Comparison, ComparisonOp, UdfCall
from repro.expr.schema import StreamSchema
from repro.logical import Get, JoinKind
from repro.logical.operators import ProjectItem
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
)

ROWS = 64
BATCH = 8


def _all_physical_subclasses():
    seen = set()
    stack = list(PhysicalOp.__subclasses__())
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
    # JoinPhysicalOp is an abstract intermediate base, not an operator.
    return {cls for cls in seen if cls.__name__ != "JoinPhysicalOp"}


@pytest.fixture
def contract_catalog():
    """T and S: 64 rows each, unique join key ``a``; U: 3 rows."""
    catalog = Catalog()
    t = catalog.create_table(
        "T", [Column("a", ColumnType.INT), Column("v", ColumnType.INT)]
    )
    s = catalog.create_table(
        "S", [Column("a", ColumnType.INT), Column("w", ColumnType.INT)]
    )
    u = catalog.create_table("U", [Column("b", ColumnType.INT)])
    t.insert_many([(i, i * 2) for i in range(ROWS)])
    s.insert_many([(i, i * 3) for i in range(ROWS)])
    u.insert_many([(1,), (2,), (3,)])
    catalog.create_index("idx_s_a", "S", ["a"])
    catalog.create_index("idx_t_a", "T", ["a"])
    return catalog


def _scan(catalog, name):
    return SeqScanP(name, name, catalog.schema(name).column_names)


def _context(
    budget: QueryBudget = None, token: CancellationToken = None
) -> ExecContext:
    params = replace(DEFAULT_PARAMETERS, batch_size=BATCH)
    ctx = ExecContext(params)
    ctx.budget = budget
    ctx.cancel_token = token
    ctx.begin_execution()
    ctx.runtime = RuntimeStats()
    return ctx


_TRUE = Comparison(ComparisonOp.GE, col("T", "v"), lit(0))
_AGGS = (AggregateCall(AggFunc.COUNT, None),)


def _factories(catalog):
    """op-name -> (plan factory, child ops in ``children()`` order).

    Every factory builds a plan whose streaming children can supply
    several batches (so a premature full drain is observable) and whose
    first output batch exists (so one pull succeeds).
    """
    t = lambda: _scan(catalog, "T")  # noqa: E731
    s = lambda: _scan(catalog, "S")  # noqa: E731
    u = lambda: _scan(catalog, "U")  # noqa: E731

    def filter_plan():
        child = t()
        return FilterP(child, _TRUE), (child,)

    def udf_filter_plan():
        child = t()
        udf = UdfCall(
            "always", (col("T", "v"),), per_tuple_cost=2.0, fn=lambda v: True
        )
        return UdfFilterP(child, udf), (child,)

    def project_plan():
        child = t()
        return ProjectP(child, (ProjectItem(col("T", "a"), "a"),)), (child,)

    def sort_plan():
        child = t()
        return SortP(child, ((col("T", "a"), True),)), (child,)

    def materialize_plan():
        child = t()
        return MaterializeP(child), (child,)

    def nl_join_plan():
        left, right = t(), u()
        return NLJoinP(left, right, None, JoinKind.CROSS), (left, right)

    def inl_join_plan():
        outer = t()
        plan = INLJoinP(
            outer, "S", "S", ["a", "w"], "idx_s_a",
            [col("T", "a")], JoinKind.INNER,
        )
        return plan, (outer,)

    def merge_join_plan():
        left, right = t(), s()
        plan = MergeJoinP(
            left, right, [col("T", "a")], [col("S", "a")], JoinKind.INNER
        )
        return plan, (left, right)

    def hash_join_plan():
        left, right = t(), s()
        plan = HashJoinP(
            left, right, [col("T", "a")], [col("S", "a")], JoinKind.INNER
        )
        return plan, (left, right)

    def hash_agg_plan():
        child = t()
        return HashAggP(child, (col("T", "a"),), _AGGS), (child,)

    def stream_agg_plan():
        child = t()
        return StreamAggP(child, (col("T", "a"),), _AGGS), (child,)

    def distinct_plan():
        child = t()
        return DistinctP(child), (child,)

    def union_plan():
        left, right = t(), s()
        return UnionAllP(left, right), (left, right)

    def limit_plan():
        child = t()
        return LimitP(child, 4), (child,)

    def apply_plan():
        child = t()
        inner = Get("U", "U", ["b"])
        return ApplyP(child, inner, "semi"), (child,)

    def check_plan():
        child = t()
        return CheckP(child, 0.0, float(ROWS * 2)), (child,)

    def checkpoint_source_plan():
        rows = [(i, i) for i in range(ROWS)]
        schema = StreamSchema.for_table("C", ["a", "v"])
        return CheckpointSourceP(schema, rows), ()

    def seq_scan_plan():
        return t(), ()

    def index_scan_plan():
        return IndexScanP("T", "T", ["a", "v"], "idx_t_a"), ()

    return {
        "SeqScanP": seq_scan_plan,
        "IndexScanP": index_scan_plan,
        "FilterP": filter_plan,
        "UdfFilterP": udf_filter_plan,
        "ProjectP": project_plan,
        "SortP": sort_plan,
        "MaterializeP": materialize_plan,
        "NLJoinP": nl_join_plan,
        "INLJoinP": inl_join_plan,
        "MergeJoinP": merge_join_plan,
        "HashJoinP": hash_join_plan,
        "HashAggP": hash_agg_plan,
        "StreamAggP": stream_agg_plan,
        "DistinctP": distinct_plan,
        "UnionAllP": union_plan,
        "LimitP": limit_plan,
        "ApplyP": apply_plan,
        "CheckP": check_plan,
        "CheckpointSourceP": checkpoint_source_plan,
    }


# Declared flags, pinned: changing an operator's pipeline behavior must
# be a conscious decision in both plans.py and here.
EXPECTED_FLAGS = {
    "SeqScanP": (),
    "IndexScanP": (),
    "CheckpointSourceP": (),
    "FilterP": (False,),
    "UdfFilterP": (False,),
    "ProjectP": (False,),
    "LimitP": (False,),
    "ApplyP": (False,),
    "INLJoinP": (False,),
    "NLJoinP": (False, True),
    "HashJoinP": (False, True),
    "UnionAllP": (False, False),
    "SortP": (True,),
    "MaterializeP": (True,),
    "HashAggP": (True,),
    "StreamAggP": (True,),
    "DistinctP": (True,),
    "MergeJoinP": (True, True),
    "CheckP": (True,),
}


# DML operators are write paths, not pull pipelines: they produce one
# rows_affected row and (for INSERT ... SELECT) always consume their
# source fully before mutating.  Their contract is pinned separately in
# test_dml_ops_declare_write_path_contract, not probed by pulling.
_WRITE_OPS = {"DmlOp", "InsertP", "UpdateP", "DeleteP"}


def test_every_operator_has_declared_expectations():
    """A new PhysicalOp subclass must declare its pipeline behavior here."""
    names = {cls.__name__ for cls in _all_physical_subclasses()} - _WRITE_OPS
    assert names == set(EXPECTED_FLAGS), (
        "operators without a pipeline-contract entry: "
        f"{sorted(names ^ set(EXPECTED_FLAGS))}"
    )


def test_dml_ops_declare_write_path_contract():
    """DML ops: childless except the INSERT source, which is a breaker
    input (materialized completely before any row is written)."""
    from repro.physical.plans import DeleteP, InsertP, UpdateP

    insert = InsertP("T", rows=((lit(1),),))
    assert insert.children() == ()
    assert insert.consumes_child_fully == ()
    source = SeqScanP("T", "T", ["a", "v"])
    insert_select = InsertP("T", source=source, select_positions=[0])
    assert insert_select.children() == (source,)
    assert insert_select.consumes_child_fully == (True,)
    assert UpdateP("T", [(0, lit(1))]).consumes_child_fully == ()
    assert DeleteP("T").consumes_child_fully == ()


@pytest.mark.parametrize("name", sorted(EXPECTED_FLAGS))
def test_declared_flags_match_pinned_table(contract_catalog, name):
    plan, _children = _factories(contract_catalog)[name]()
    assert plan.consumes_child_fully == EXPECTED_FLAGS[name]
    expected_breaker = bool(EXPECTED_FLAGS[name]) and all(EXPECTED_FLAGS[name])
    assert plan.is_pipeline_breaker == expected_breaker


@pytest.mark.parametrize("name", sorted(EXPECTED_FLAGS))
def test_executor_honors_declared_flags(contract_catalog, name):
    """Pull ONE batch; check how much of each child was actually consumed."""
    plan, children = _factories(contract_catalog)[name]()
    ctx = _context()
    gen = stream_batches(plan, contract_catalog, ctx)
    try:
        first = next(gen)
    finally:
        gen.close()
    # Joins flush when a batch *reaches* the target, so one outer row's
    # fanout can overshoot it slightly; emptiness is the real contract.
    assert len(first) > 0
    totals = {"T": ROWS, "S": ROWS, "U": 3}
    for flag, child in zip(plan.consumes_child_fully, children):
        consumed = ctx.runtime.node_for(child).actual_rows
        total = totals[child.table]
        if flag:
            assert consumed == total, (
                f"{name} declares child {child.table} fully consumed "
                f"but pulled only {consumed}/{total} rows"
            )
        else:
            assert consumed < total, (
                f"{name} declares child {child.table} streaming but "
                f"drained all {total} rows before its first output batch"
            )


@pytest.mark.parametrize("name", sorted(EXPECTED_FLAGS))
def test_batch_and_columnar_engines_agree(contract_catalog, name):
    """Full drains of the same plan through ``execute`` are bit-identical
    on the row-batch and columnar engines (the columnar engine selected
    through ``execute``, not called directly as in ``test_columnar``).
    """
    factory = _factories(contract_catalog)[name]
    plan_a, _ = factory()
    plan_b, _ = factory()
    batch_ctx = _context()
    columnar_ctx = _context()
    columnar_ctx.columnar_mode = True
    _schema_a, rows_a = execute(plan_a, contract_catalog, batch_ctx)
    _schema_b, rows_b = execute(plan_b, contract_catalog, columnar_ctx)
    assert rows_a == rows_b


# ----------------------------------------------------------------------
# Zero-copy regressions
# ----------------------------------------------------------------------
def test_checkpoint_replay_preserves_row_identity(contract_catalog):
    """Replayed checkpoint rows are the *same objects* that were stored.

    The batch engine slices batches straight off the stored list rather
    than copying the checkpoint per replay.  Row (tuple) identity is the
    observable contract: replays never duplicate the materialized
    intermediate.
    """
    stored = [(i, i * 10) for i in range(ROWS)]
    schema = StreamSchema.for_table("C", ["a", "v"])
    plan = CheckpointSourceP(schema, stored, note="test")
    ctx = _context()
    _schema, rows = execute(plan, contract_catalog, ctx)
    assert len(rows) == ROWS
    for replayed, original in zip(rows, stored):
        assert replayed is original
    node = ctx.runtime.node_for(plan)
    assert node.from_checkpoint
    # A replayed source holds only a batch at a time.
    assert node.peak_resident_rows <= ctx.params.batch_size


def test_union_all_passes_batches_through_unchanged(contract_catalog):
    """UNION ALL forwards child rows without building a combined copy."""
    left_rows = [(i, i) for i in range(10)]
    right_rows = [(i + 100, i) for i in range(10)]
    schema = StreamSchema.for_table("C", ["a", "v"])
    plan = UnionAllP(
        CheckpointSourceP(schema, left_rows),
        CheckpointSourceP(schema, right_rows),
    )
    ctx = _context()
    _schema, rows = execute(plan, contract_catalog, ctx)
    assert rows == left_rows + right_rows
    for out, original in zip(rows, left_rows + right_rows):
        assert out is original
    assert ctx.runtime.node_for(plan).peak_resident_rows <= ctx.params.batch_size


# ----------------------------------------------------------------------
# Typed errors escape suspended pipelines promptly
# ----------------------------------------------------------------------
def _deep_plan(catalog):
    """A pipeline with several suspended generator frames."""
    scan = _scan(catalog, "T")
    filt = FilterP(scan, _TRUE)
    proj = ProjectP(filt, (ProjectItem(col("T", "a"), "a"),))
    return LimitP(proj, None, 0)


def test_cancellation_escapes_suspended_pipeline(contract_catalog):
    token = CancellationToken()
    ctx = _context(token=token)
    gen = stream_batches(_deep_plan(contract_catalog), contract_catalog, ctx)
    assert len(next(gen)) > 0
    token.cancel()
    with pytest.raises(QueryCancelled):
        # The pipeline is suspended mid-stream; the next pull must
        # surface the typed error, not a half-produced batch.
        for _batch in gen:
            pass
    gen.close()


def test_timeout_escapes_suspended_pipeline(contract_catalog):
    ctx = _context(budget=QueryBudget(timeout_seconds=0.010))
    gen = stream_batches(_deep_plan(contract_catalog), contract_catalog, ctx)
    assert len(next(gen)) > 0
    time.sleep(0.02)
    with pytest.raises(QueryTimeout):
        for _batch in gen:
            pass
    gen.close()
