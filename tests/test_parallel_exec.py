"""The exchange-based parallel runtime (repro.engine.parallel).

Pins the contracts that make intra-query parallelism safe to trust:

  * bit-identical results: the gather-side merge restores global row
    order, so a parallel run is indistinguishable from the serial
    oracle -- rows AND counters (hash/round-robin regions);
  * deterministic stats merging: per-worker counter shards fold into
    the session totals in partition order, so repeated runs of the
    same plan report identical numbers regardless of interleaving;
  * the serial pass-through's *simulated* exchange accounting agrees
    with the real runtime's *measured* pages on the same plan (the cost
    model is calibrated against the simulation);
  * resource integration: admission leases degrade DOP instead of
    failing, the governor's memory budget degrades partitions to Grace
    spill, and cancellation/timeout tear every worker down -- no
    orphaned threads, ever.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import Database
from repro.datagen import build_emp_dept
from repro.engine.admission import AdmissionConfig, AdmissionController
from repro.engine.context import ExecContext
from repro.engine.executor import execute
from repro.engine.governor import CancellationToken, QueryBudget
from repro.engine.parallel import analyze_region, plan_parallel_regions
from repro.errors import QueryCancelled, QueryTimeout
from repro.physical.plans import GatherP
from repro.physical.properties import Partitioning, PartitionScheme

EMP_ROWS = 5000
DEPT_ROWS = 50

JOIN_SQL = "SELECT E.name AS c0 FROM Emp E, Emp E2 WHERE E.emp_no = E2.emp_no"
AGG_SQL = (
    "SELECT E.dept_no AS d, COUNT(*) AS c, SUM(E.sal) AS s "
    "FROM Emp E GROUP BY E.dept_no"
)
THREE_WAY_SQL = (
    "SELECT E.name AS c0, D.name AS c1, M.name AS c2 "
    "FROM Emp E, Dept D, Emp M "
    "WHERE E.dept_no = D.dept_no AND D.mgr = M.emp_no AND E.sal > 60000"
)


@pytest.fixture(scope="module")
def par_db() -> Database:
    """No indexes: every join is a hash join, so regions always place."""
    db = Database()
    build_emp_dept(
        db.catalog,
        emp_rows=EMP_ROWS,
        dept_rows=DEPT_ROWS,
        rng=random.Random(3),
        with_indexes=False,
    )
    db.analyze()
    return db


def _parallel_plan(db: Database, sql: str, max_dop: int = 4):
    optimizer = db.optimizer()
    optimizer.physicalizer.parallel_mode = True
    optimizer.physicalizer.max_dop = max_dop
    return optimizer.optimize(sql).physical


def _run(db: Database, plan, parallel: bool, **attrs):
    context = ExecContext(db.params)
    context.parallel_mode = parallel
    context.max_dop = 4
    for name, value in attrs.items():
        setattr(context, name, value)
    _schema, rows = execute(plan, db.catalog, context)
    return rows, context


def _counters(context: ExecContext):
    c = context.counters
    return (
        c.exchange_pages,
        c.rows_compared,
        c.rows_produced,
        c.seq_page_reads,
        c.random_page_reads,
        round(c.observed_cost(context.params), 6),
    )


def _orphans():
    return [
        t.name
        for t in threading.enumerate()
        if t.name.startswith("repro-parallel-")
    ]


# ----------------------------------------------------------------------
# Bit-identical results and counter parity
# ----------------------------------------------------------------------
def test_parallel_join_is_bit_identical(par_db):
    plan = _parallel_plan(par_db, JOIN_SQL)
    assert [g.dop for g in plan_parallel_regions(plan)] == [4]
    par_rows, _ = _run(par_db, plan, parallel=True)
    ser_rows, _ = _run(par_db, plan, parallel=False)
    assert par_rows == ser_rows
    assert not _orphans()


def test_stacked_regions_compose_sequentially(par_db):
    """A multi-join plan places one region per join; the outer region's
    stage 1 drains the inner gather through the engine."""
    plan = _parallel_plan(par_db, THREE_WAY_SQL)
    gathers = plan_parallel_regions(plan)
    assert len(gathers) >= 2, "upper joins must parallelize too"
    par_rows, _ = _run(par_db, plan, parallel=True)
    ser_rows, _ = _run(par_db, plan, parallel=False)
    assert par_rows == ser_rows


@pytest.mark.parametrize("sql", [JOIN_SQL, AGG_SQL])
def test_counter_parity_with_serial_oracle(par_db, sql):
    """Hash/round-robin regions charge exactly what the serial
    pass-through simulates: same exchange pages, same comparisons,
    same rows produced, same observed cost.  (Broadcast regions are
    excluded by design: replicating the build repeats its build work
    on every worker, the documented total-work increase of footnote 5;
    their *exchange pages* still agree -- see the simulated-pages test
    below.)"""
    plan = _parallel_plan(par_db, sql)
    assert plan_parallel_regions(plan), "no region placed"
    par_rows, par_ctx = _run(par_db, plan, parallel=True)
    ser_rows, ser_ctx = _run(par_db, plan, parallel=False)
    assert par_rows == ser_rows
    assert _counters(par_ctx) == _counters(ser_ctx)


def test_repeated_runs_are_deterministic(par_db):
    """Satellite pin: worker interleaving may vary freely between runs,
    but rows and merged counters may not."""
    plan = _parallel_plan(par_db, THREE_WAY_SQL)
    outcomes = []
    for _ in range(5):
        rows, context = _run(par_db, plan, parallel=True)
        outcomes.append((rows, _counters(context)))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


def test_serial_simulated_pages_match_measured_pages(par_db):
    """The serial pass-through's simulated ``exchange_pages`` equals the
    parallel runtime's measured pages on the same plan -- the
    accounting the cost model is calibrated against.  Unlike the
    counter-parity test this covers the broadcast regions of the
    three-way join too."""
    for sql in (JOIN_SQL, AGG_SQL, THREE_WAY_SQL):
        plan = _parallel_plan(par_db, sql)
        _rows, par_ctx = _run(par_db, plan, parallel=True)
        _rows, serial_ctx = _run(par_db, plan, parallel=False)
        assert (
            par_ctx.counters.exchange_pages
            == serial_ctx.counters.exchange_pages
        ), f"simulated/measured drift on {sql!r}"


def test_parallel_columnar_driver_matches(par_db):
    plan = _parallel_plan(par_db, THREE_WAY_SQL)
    par_rows, _ = _run(par_db, plan, parallel=True, columnar_mode=True)
    ser_rows, _ = _run(par_db, plan, parallel=False)
    assert par_rows == ser_rows


# ----------------------------------------------------------------------
# Hand-built plans: broadcast regions and serial fallback
# ----------------------------------------------------------------------
def test_hand_built_broadcast_region(par_db):
    """Round-robin probe + broadcast build: the strategy placement uses
    for small build sides, exercised explicitly."""
    plan = _parallel_plan(par_db, JOIN_SQL, max_dop=1)  # serial plan
    join = plan.child if not hasattr(plan, "left") else plan
    while not hasattr(join, "left"):
        join = join.child
    probe = join.left
    build = join.right
    join.left = probe_ex = _exchange(probe, PartitionScheme.ROUND_ROBIN, 4)
    join.right = _exchange(build, PartitionScheme.BROADCAST, 4)
    gather = GatherP(join, 4)
    _replace_child(plan, join, gather)
    ser_rows, _ = _run(par_db, plan, parallel=False)
    par_rows, _ = _run(par_db, plan, parallel=True)
    assert par_rows == ser_rows
    assert probe_ex.target.scheme is PartitionScheme.ROUND_ROBIN


def test_unsupported_region_falls_back_to_serial(par_db):
    """A gather over an operator the workers have no twin for (Sort)
    is rejected by analyze_region and executed serially -- hand-built
    plans degrade, they do not fail."""
    sql = "SELECT E.emp_no AS c0, E.name AS c1 FROM Emp E ORDER BY E.emp_no"
    optimizer = par_db.optimizer()
    plan = optimizer.optimize(sql).physical
    wrapped = GatherP(plan, 4)
    assert analyze_region(wrapped) is None
    ser_rows, _ = _run(par_db, plan, parallel=False)
    par_rows, context = _run(par_db, wrapped, parallel=True)
    assert par_rows == ser_rows
    assert not _orphans()


def _exchange(child, scheme, degree):
    exchange = __import__(
        "repro.physical.plans", fromlist=["ExchangeP"]
    ).ExchangeP(child, Partitioning(scheme, degree=degree))
    exchange.est_rows = child.est_rows
    exchange.est_cost = child.est_cost
    return exchange


def _replace_child(root, old, new) -> None:
    for attr in ("child", "left", "right", "outer", "source"):
        if getattr(root, attr, None) is old:
            setattr(root, attr, new)
            return
        grandchild = getattr(root, attr, None)
        if grandchild is not None and hasattr(grandchild, "output_schema"):
            _replace_child(grandchild, old, new)


# ----------------------------------------------------------------------
# Resource integration: admission, governor, cancellation, timeout
# ----------------------------------------------------------------------
def test_admission_pool_degrades_dop_instead_of_failing(par_db):
    """A starved memory pool halves the region's DOP (down to serial
    fallback) rather than rejecting the query; every lease is returned."""
    plan = _parallel_plan(par_db, JOIN_SQL)
    admission = AdmissionController(
        AdmissionConfig(memory_pool_bytes=1024, min_lease_bytes=64)
    )
    before = admission.pool.available
    par_rows, _ = _run(par_db, plan, parallel=True, admission=admission)
    ser_rows, _ = _run(par_db, plan, parallel=False)
    assert par_rows == ser_rows
    assert admission.pool.available == before, "leaked memory lease"


def test_governor_memory_budget_degrades_to_grace(par_db):
    """Worker hash tables over the per-query memory budget fall back to
    Grace sub-partitioning -- same rows, degraded flag recorded."""
    plan = _parallel_plan(par_db, JOIN_SQL)
    par_rows, context = _run(
        par_db,
        plan,
        parallel=True,
        budget=QueryBudget(memory_limit_bytes=64_000),
    )
    ser_rows, _ = _run(par_db, plan, parallel=False)
    assert par_rows == ser_rows
    assert context.counters.degraded_operators >= 1


def test_cancellation_terminates_all_workers(par_db):
    plan = _parallel_plan(par_db, THREE_WAY_SQL)
    token = CancellationToken()
    token.cancel()
    with pytest.raises(QueryCancelled):
        _run(par_db, plan, parallel=True, cancel_token=token)
    assert not _orphans(), "cancellation left orphaned workers"


def test_timeout_terminates_all_workers(par_db):
    plan = _parallel_plan(par_db, THREE_WAY_SQL)
    with pytest.raises(QueryTimeout):
        _run(
            par_db,
            plan,
            parallel=True,
            budget=QueryBudget(timeout_seconds=0.0),
        )
    assert not _orphans(), "timeout left orphaned workers"


def test_limit_early_close_leaves_no_orphans(par_db):
    """A LIMIT consumer closes the gather before the workers drain;
    the region must still tear down cleanly and charge its pages."""
    sql = JOIN_SQL + " LIMIT 7"
    plan = _parallel_plan(par_db, sql)
    assert plan_parallel_regions(plan), "no region under the limit"
    par_rows, context = _run(par_db, plan, parallel=True)
    ser_rows, _ = _run(par_db, plan, parallel=False)
    assert par_rows == ser_rows
    assert len(par_rows) == 7
    assert context.counters.exchange_pages > 0
    assert not _orphans()


# ----------------------------------------------------------------------
# Database knobs and EXPLAIN ANALYZE surface
# ----------------------------------------------------------------------
def test_database_parallel_mode_knob():
    serial_db = Database()
    parallel_db = Database(parallel_mode=True, max_dop=4)
    for db in (serial_db, parallel_db):
        build_emp_dept(
            db.catalog,
            emp_rows=1500,
            dept_rows=30,
            rng=random.Random(3),
            with_indexes=False,
        )
        db.analyze()
    sql = "SELECT E.name AS c0 FROM Emp E, Dept D WHERE E.dept_no = D.dept_no"
    assert parallel_db.sql(sql).rows == serial_db.sql(sql).rows


def test_explain_analyze_shows_partition_stats(par_db):
    db = Database(parallel_mode=True, max_dop=4)
    build_emp_dept(
        db.catalog,
        emp_rows=1500,
        dept_rows=30,
        rng=random.Random(3),
        with_indexes=False,
    )
    db.analyze()
    text = db.explain_analyze(AGG_SQL)
    assert "Gather(dop=4)" in text
    line = next(l for l in text.splitlines() if "partitions=" in l)
    for field in ("rows/part=", "skew=", "work/part=", "queue_wait="):
        assert field in line, f"missing {field} in {line!r}"
