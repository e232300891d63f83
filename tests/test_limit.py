"""LIMIT/OFFSET: parsing, planning, execution, and early termination.

The clause threads lexer -> parser -> binder -> logical ``Limit`` ->
physical ``LimitP``.  Under the batch engine a LimitP stops pulling its
child once the quota is met, which must be visible as *less work done*
(rows pulled, pages read), not just fewer rows returned.  A ``Limit`` is
also a fence: predicates must not move through it, plans containing one
are not SPJ-reorderable, and runs of such plans are excluded from the
cardinality-feedback harvest (their actuals are partial).
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro import Database
from repro.cost.parameters import DEFAULT_PARAMETERS
from repro.datagen import build_emp_dept
from repro.errors import ParseError
from repro.logical.operators import Limit
from repro.physical.plans import LimitP, walk_physical
from repro.sql.parser import parse

from tests.conftest import assert_same_rows


@pytest.fixture(scope="module")
def db() -> Database:
    # A small batch size relative to the 200-row table: early termination
    # is only observable when LIMIT stops pulling *before* the scan ends.
    database = Database(replace(DEFAULT_PARAMETERS, batch_size=16))
    build_emp_dept(
        database.catalog, emp_rows=200, dept_rows=20, rng=random.Random(3)
    )
    database.analyze()
    return database


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def test_parse_limit_and_offset():
    stmt = parse("SELECT E.a AS a FROM T E LIMIT 10 OFFSET 3")
    assert stmt.limit == 10
    assert stmt.offset == 3


def test_parse_limit_only_and_offset_only():
    assert parse("SELECT E.a AS a FROM T E LIMIT 5").offset == 0
    stmt = parse("SELECT E.a AS a FROM T E OFFSET 4")
    assert stmt.limit is None
    assert stmt.offset == 4


def test_parse_limit_zero_is_legal():
    assert parse("SELECT E.a AS a FROM T E LIMIT 0").limit == 0


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT E.a AS a FROM T E LIMIT -1",
        "SELECT E.a AS a FROM T E LIMIT 2.5",
        "SELECT E.a AS a FROM T E LIMIT",
        "SELECT E.a AS a FROM T E OFFSET x",
        "SELECT E.a AS a FROM T E LIMIT 1 OFFSET -2",
    ],
)
def test_parse_rejects_malformed_row_counts(sql):
    with pytest.raises(ParseError):
        parse(sql)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def test_plan_contains_limit_operator(db):
    optimized = db.optimizer().optimize(
        "SELECT E.emp_no AS n FROM Emp E ORDER BY E.emp_no LIMIT 5"
    )
    assert any(isinstance(op, Limit) for op in _walk_logical(optimized.logical))
    limits = [
        op for op in walk_physical(optimized.physical) if isinstance(op, LimitP)
    ]
    assert len(limits) == 1
    assert limits[0].limit == 5


def _walk_logical(op):
    yield op
    for child in op.children():
        yield from _walk_logical(child)


def test_limit_blocks_spj_reordering(db):
    """A block with a row quota is not join-reorderable as one SPJ region."""
    block = db.optimizer().optimize(
        "SELECT E.emp_no AS n FROM Emp E LIMIT 5"
    ).block
    assert not block.is_spj
    plain = db.optimizer().optimize("SELECT E.emp_no AS n FROM Emp E").block
    assert plain.is_spj


def test_limit_estimate_caps_cardinality(db):
    optimized = db.optimizer().optimize(
        "SELECT E.emp_no AS n FROM Emp E ORDER BY E.emp_no LIMIT 7 OFFSET 2"
    )
    root = optimized.physical
    assert isinstance(root, LimitP)
    assert root.est_rows <= 7.0


# ----------------------------------------------------------------------
# Execution semantics (row-batch and columnar engines, same plan)
# ----------------------------------------------------------------------
def _both_engines(db, sql):
    batch = db.sql(sql).rows
    db.columnar_mode = True
    try:
        columnar = db.sql(sql).rows
    finally:
        db.columnar_mode = False
    assert batch == columnar, f"engines disagree on {sql!r}"
    return batch


def test_limit_offset_window(db):
    rows = _both_engines(
        db,
        "SELECT E.emp_no AS n FROM Emp E ORDER BY E.emp_no LIMIT 5 OFFSET 10",
    )
    assert rows == [(11,), (12,), (13,), (14,), (15,)]


def test_limit_zero_returns_nothing(db):
    assert _both_engines(
        db, "SELECT E.emp_no AS n FROM Emp E ORDER BY E.emp_no LIMIT 0"
    ) == []


def test_offset_past_end_returns_nothing(db):
    assert _both_engines(
        db,
        "SELECT E.emp_no AS n FROM Emp E ORDER BY E.emp_no LIMIT 5 OFFSET 9999",
    ) == []


def test_offset_only_drops_prefix(db):
    rows = _both_engines(
        db, "SELECT E.emp_no AS n FROM Emp E ORDER BY E.emp_no OFFSET 195"
    )
    assert rows == [(196,), (197,), (198,), (199,), (200,)]


def test_limit_larger_than_result(db):
    rows = _both_engines(
        db, "SELECT D.dept_no AS n FROM Dept D ORDER BY D.dept_no LIMIT 500"
    )
    assert len(rows) == 20


def test_limit_without_order_by_returns_quota(db):
    rows = _both_engines(db, "SELECT E.emp_no AS n FROM Emp E LIMIT 9")
    assert len(rows) == 9


def test_limit_over_join_and_aggregate(db):
    sql = (
        "SELECT D.dept_no AS d, COUNT(*) AS c FROM Emp E, Dept D "
        "WHERE E.dept_no = D.dept_no GROUP BY D.dept_no "
        "ORDER BY D.dept_no LIMIT 4"
    )
    rows = _both_engines(db, sql)
    assert len(rows) == 4
    full = db.sql(
        "SELECT D.dept_no AS d, COUNT(*) AS c FROM Emp E, Dept D "
        "WHERE E.dept_no = D.dept_no GROUP BY D.dept_no ORDER BY D.dept_no"
    ).rows
    assert rows == full[:4]


def test_limit_in_prepared_statement(db):
    db.sql("PREPARE lim AS SELECT E.emp_no AS n FROM Emp E "
           "WHERE E.emp_no > ? ORDER BY E.emp_no LIMIT 3")
    try:
        first = db.sql("EXECUTE lim (100)").rows
        second = db.sql("EXECUTE lim (190)").rows
    finally:
        db.sql("DEALLOCATE lim")
    assert first == [(101,), (102,), (103,)]
    assert second == [(191,), (192,), (193,)]


# ----------------------------------------------------------------------
# Early termination: LIMIT must cut work, not just output
# ----------------------------------------------------------------------
def test_limit_reads_fraction_of_rows(db):
    """LIMIT 10 over an unsorted scan pulls far fewer child rows."""
    unlimited = db.sql("SELECT E.emp_no AS n FROM Emp E")
    limited = db.sql("SELECT E.emp_no AS n FROM Emp E LIMIT 10")
    assert limited.context.counters.rows_produced < (
        unlimited.context.counters.rows_produced / 5
    )


def test_limit_stops_index_page_reads(db):
    """Data-page I/O under an ordered index scan stops at the quota."""
    sql_all = (
        "SELECT E.emp_no AS n, E.sal AS s FROM Emp E "
        "WHERE E.emp_no > 0 ORDER BY E.emp_no"
    )
    sql_lim = sql_all + " LIMIT 5"
    plans = db.optimizer()
    all_plan = plans.optimize(sql_all).physical
    lim_plan = plans.optimize(sql_lim).physical
    # Only meaningful when the ordered access path serves the sort and
    # the Limit sits directly above a streaming pipeline.
    if any(op.is_pipeline_breaker for op in walk_physical(lim_plan)):
        pytest.skip("plan materializes below the limit; nothing to cut")
    full_pages = db.sql(sql_all).context.counters.total_page_reads
    lim_pages = db.sql(sql_lim).context.counters.total_page_reads
    assert lim_pages < full_pages


# ----------------------------------------------------------------------
# Feedback exclusion
# ----------------------------------------------------------------------
def test_limit_plans_skip_feedback_harvest():
    database = Database()
    build_emp_dept(
        database.catalog, emp_rows=100, dept_rows=10, rng=random.Random(3)
    )
    database.analyze()
    plain = database.sql("SELECT E.emp_no AS n FROM Emp E WHERE E.sal > 50000")
    assert plain.context.feedback_summary is not None
    limited = database.sql(
        "SELECT E.emp_no AS n FROM Emp E WHERE E.sal > 50000 LIMIT 3"
    )
    assert limited.context.feedback_summary is None


# ----------------------------------------------------------------------
# Differential: LIMIT windows agree with a full-result slice
# ----------------------------------------------------------------------
def test_limit_windows_match_sliced_full_results(db):
    rng = random.Random(42)
    full_rows = db.sql(
        "SELECT E.emp_no AS n, E.sal AS s FROM Emp E ORDER BY E.emp_no"
    ).rows
    for _ in range(25):
        offset = rng.randrange(0, 220)
        limit = rng.randrange(0, 40)
        sql = (
            "SELECT E.emp_no AS n, E.sal AS s FROM Emp E "
            f"ORDER BY E.emp_no LIMIT {limit} OFFSET {offset}"
        )
        rows = _both_engines(db, sql)
        assert rows == full_rows[offset:offset + limit], sql
        assert_same_rows(rows, full_rows[offset:offset + limit], msg=sql)
