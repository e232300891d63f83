"""Differential suite: our engines and optimizer configurations vs SQLite.

Hundreds of seeded random queries over a NULL-heavy Emp/Dept dataset,
each executed by the row-batch engine, the columnar (numpy
vector-kernel) engine, the reference logical interpreter, and stdlib
``sqlite3`` loaded with the identical rows.  SQLite shares none of our
code, so agreement here retires the shared-bug risk the
engine-vs-engine differential tests cannot.

The same corpora also run under a matrix of optimizer configurations
(bushy trees, Cartesian products, rewrites off, interesting orders off,
risk-aware costing, feedback-warmed statistics), so every plan shape
the optimizer can pick meets the oracle -- not only the default
System-R linear plans.

Query count scales with ``REPRO_ORACLE_QUERIES`` (default 200; CI smoke
runs fewer).  Failures raise the harness's triage report, which lists
the normalized dialect divergences so an investigator can immediately
rule them out.
"""

from __future__ import annotations

import dataclasses
import os
import random

import pytest

from repro.core.optimizer import Database, Optimizer
from repro.core.systemr.enumerator import EnumeratorConfig
from repro.datagen import (
    EmpDeptQueryGen,
    QueryGenConfig,
    build_emp_dept,
    mirror_to_sqlite,
)
from repro.engine.context import ExecContext
from repro.engine.executor import execute
from repro.errors import ReproError
from repro.expr.expressions import Param
from repro.physical.plans import IndexScanP, plan_signature, walk_physical
from repro.sql.ast import (
    AstBetween,
    AstBool,
    AstComparison,
    AstLiteral,
    AstNot,
    AstParam,
)
from repro.sql.parser import parse
from repro.sql.render import render_select, render_sqlite
from repro.stats import CardinalityFeedback

from tests.oracle.harness import (
    TriageReport,
    assert_sorted,
    run_engine,
    run_optimized,
    run_sqlite,
)

SEED = 1998
EMP_ROWS = 200
DEPT_ROWS = 20
NULL_FRACTION = 0.15

QUERY_COUNT = int(os.environ.get("REPRO_ORACLE_QUERIES", "200"))
WINDOW_COUNT = max(20, QUERY_COUNT // 4)

ENGINES = ("batch", "columnar", "interpreter")

# Non-default optimizer configurations; each runs both corpora on the
# row-batch engine.
OPTIMIZER_CONFIGS = {
    "bushy": dict(config=EnumeratorConfig(bushy=True)),
    "bushy-cartesian": dict(
        config=EnumeratorConfig(bushy=True, allow_cartesian=True)
    ),
    "no-interesting-orders": dict(
        config=EnumeratorConfig(use_interesting_orders=False)
    ),
    "no-rewrites": dict(use_rewrites=False),
    "risk-aware": dict(config=EnumeratorConfig(risk_aware=True)),
}


@pytest.fixture(scope="module")
def oracle_db():
    """A NULL-heavy Emp/Dept database plus its SQLite mirror."""
    db = Database()
    build_emp_dept(
        db.catalog,
        emp_rows=EMP_ROWS,
        dept_rows=DEPT_ROWS,
        rng=random.Random(3),
        null_fraction=NULL_FRACTION,
    )
    db.analyze()
    conn = mirror_to_sqlite(db.catalog)
    yield db, conn
    conn.close()


def _gen(seed_offset: int = 0) -> EmpDeptQueryGen:
    return EmpDeptQueryGen(
        random.Random(SEED + seed_offset),
        QueryGenConfig(emp_rows=EMP_ROWS, dept_rows=DEPT_ROWS),
    )


def _corpus(db, conn, queries):
    """``(sql, sqlite_sql, sqlite_rows, optimized)`` for each query text,
    ``optimized`` by the session's (default) optimizer."""
    optimizer = db.optimizer()
    corpus = []
    for sql in queries:
        sqlite_sql = render_sqlite(parse(sql))
        corpus.append((
            sql, sqlite_sql, run_sqlite(conn, sqlite_sql), optimizer.optimize(sql)
        ))
    return corpus


@pytest.fixture(scope="module")
def random_corpus(oracle_db):
    db, conn = oracle_db
    gen = _gen()
    return _corpus(db, conn, [gen.query() for _ in range(QUERY_COUNT)])


@pytest.fixture(scope="module")
def window_corpus(oracle_db):
    """LIMIT/OFFSET windows over total orders (compared positionally)."""
    db, conn = oracle_db
    gen = _gen(seed_offset=7)
    queries = [gen.window_query()[0] for _ in range(WINDOW_COUNT)]
    return _corpus(db, conn, queries)


def _optimizer(db: Database, **overrides) -> Optimizer:
    """The session's optimizer settings with ``overrides`` applied."""
    settings = dict(config=db.config, use_rewrites=db.use_rewrites, udfs=db.udfs)
    settings.update(overrides)
    return Optimizer(db.catalog, db.params, **settings)


def _check_corpus(report, db, corpus, engines, label="", ordered=False,
                  optimizer=None):
    """Compare each engine's rows with SQLite's, on the corpus's default
    plans or on ``optimizer``'s."""
    for index, (sql, sqlite_sql, oracle_rows, default) in enumerate(corpus):
        optimized = default if optimizer is None else optimizer.optimize(sql)
        for engine in engines:
            ours = run_optimized(db, optimized, engine)
            report.compare(
                index, engine + label, sql, sqlite_sql, ours, oracle_rows,
                ordered=ordered,
            )


def test_mirror_reflects_nulls(oracle_db):
    """The export carries NULLs through; both sides hold identical data."""
    db, conn = oracle_db
    ours = run_engine(
        db,
        "SELECT COUNT(*) AS n, COUNT(E.dept_no) AS d, COUNT(E.age) AS a FROM Emp E",
    )
    theirs = run_sqlite(
        conn, "SELECT COUNT(*), COUNT(dept_no), COUNT(age) FROM Emp"
    )
    assert [tuple(r) for r in theirs] == ours
    assert ours[0][1] < ours[0][0], "null_fraction should null some dept_no"


def test_oracle_random_queries(oracle_db, random_corpus):
    """Seeded random suite: every engine must match SQLite."""
    db, _conn = oracle_db
    report = TriageReport()
    _check_corpus(report, db, random_corpus, ENGINES)
    assert report.checked == len(ENGINES) * QUERY_COUNT
    report.raise_if_any()


def test_oracle_windowed_queries(oracle_db, window_corpus):
    """LIMIT/OFFSET windows over total orders: positional equality.

    These also pin the NULL-ordering agreement (NULLs first ascending,
    last descending on both systems) -- the windows cut through runs of
    NULL keys, so any placement disagreement shifts rows across the
    window boundary and fails the ordered comparison.
    """
    db, _conn = oracle_db
    report = TriageReport()
    _check_corpus(report, db, window_corpus, ENGINES, ordered=True)
    assert report.checked == len(ENGINES) * WINDOW_COUNT
    report.raise_if_any()


@pytest.mark.parametrize("name", sorted(OPTIMIZER_CONFIGS))
def test_oracle_optimizer_matrix(oracle_db, random_corpus, window_corpus, name):
    """Both corpora under a non-default optimizer configuration."""
    db, _conn = oracle_db
    optimizer = _optimizer(db, **OPTIMIZER_CONFIGS[name])
    report = TriageReport()
    for corpus, ordered in ((random_corpus, False), (window_corpus, True)):
        _check_corpus(report, db, corpus, ("batch",), label=f"/{name}",
                      ordered=ordered, optimizer=optimizer)
    assert report.checked == QUERY_COUNT + WINDOW_COUNT
    report.raise_if_any()


def test_oracle_feedback_warmed_plans(oracle_db, random_corpus, window_corpus):
    """Plans re-optimized after execution feedback still match SQLite.

    The random corpus runs once with a fresh feedback store attached, so
    each execution harvests observed selectivities; both corpora are
    then re-optimized against the warmed store.  The store is local to
    this test, leaving the shared database's session feedback empty.
    """
    db, _conn = oracle_db
    store = CardinalityFeedback()
    for _sql, _sqlite_sql, _rows, cold in random_corpus:
        context = ExecContext(db.params)
        context.feedback = store
        execute(cold.physical, db.catalog, context)
    warmed = _optimizer(db, feedback=store)
    report = TriageReport()
    changed = 0
    for index, (sql, sqlite_sql, oracle_rows, cold) in enumerate(random_corpus):
        optimized = warmed.optimize(sql)
        changed += plan_signature(optimized.physical) != plan_signature(
            cold.physical
        )
        ours = run_optimized(db, optimized)
        report.compare(
            index, "batch/feedback", sql, sqlite_sql, ours, oracle_rows
        )
    _check_corpus(report, db, window_corpus, ("batch",), label="/feedback",
                  ordered=True, optimizer=warmed)
    assert changed > 0, "feedback changed no plan; the warm run tests nothing"
    report.raise_if_any()


def test_window_output_is_sorted(oracle_db):
    """Our windowed output respects the declared ORDER BY direction."""
    db, _conn = oracle_db
    rows = run_engine(
        db,
        "SELECT E.sal AS s, E.emp_no AS k FROM Emp E"
        " ORDER BY E.sal ASC, E.emp_no ASC LIMIT 50",
    )
    assert assert_sorted(rows, [0], ascending=True)
    assert rows and rows[0][0] is None, "NULL salaries must lead ascending"


def test_oracle_parameter_binding(oracle_db):
    """Prepared-style parameter binding agrees with SQLite's ? binding."""
    db, conn = oracle_db
    sql = (
        "SELECT E.emp_no AS k, E.sal AS s FROM Emp E"
        " WHERE E.dept_no = ? AND E.age > ? ORDER BY E.emp_no ASC"
    )
    sqlite_sql = render_sqlite(parse(sql))
    report = TriageReport()
    rng = random.Random(SEED)
    for index in range(25):
        params = (rng.randint(1, DEPT_ROWS), rng.randint(21, 65))
        ours = run_engine(db, sql, parameters=params)
        oracle_rows = run_sqlite(conn, sqlite_sql, params)
        report.compare(
            index, "batch", sql, sqlite_sql, ours, oracle_rows, ordered=True
        )
    report.raise_if_any()


# ----------------------------------------------------------------------
# Prepared statements: the same corpus with ? markers
# ----------------------------------------------------------------------
def _parameterize(stmt):
    """``stmt`` with every constant operand of a top-level WHERE
    comparison or BETWEEN replaced by ``?``, plus the values taken out,
    in the left-to-right order the renderer emits the markers."""
    values = []

    def marker(expr):
        if isinstance(expr, AstLiteral):
            values.append(expr.value)
            return AstParam(len(values) - 1)
        return walk(expr)

    def walk(expr):
        if isinstance(expr, AstComparison):
            return dataclasses.replace(
                expr, left=marker(expr.left), right=marker(expr.right)
            )
        if isinstance(expr, AstBetween):
            return dataclasses.replace(
                expr, arg=walk(expr.arg), low=marker(expr.low),
                high=marker(expr.high),
            )
        if isinstance(expr, AstBool):
            return dataclasses.replace(
                expr, args=tuple(walk(arg) for arg in expr.args)
            )
        if isinstance(expr, AstNot):
            return dataclasses.replace(expr, arg=walk(expr.arg))
        return expr

    where = walk(stmt.where) if stmt.where is not None else None
    return dataclasses.replace(stmt, where=where), values


def _run_prepared(db, name, sql, values, columnar):
    """Rows of ``sql`` through prepare/execute_prepared on one engine,
    or the error type it raised."""
    db.columnar_mode = columnar
    try:
        return [tuple(row) for row in db.execute_prepared(name, *values).rows]
    except ReproError as error:
        return type(error)
    finally:
        db.columnar_mode = False


def _seeks_a_marker(plan) -> bool:
    return any(
        isinstance(op, IndexScanP)
        and any(isinstance(bound, Param)
                for bound in (op.eq_value or ()) + (op.low, op.high))
        for op in walk_physical(plan)
    )


def test_oracle_prepared_queries(oracle_db, random_corpus):
    """The random corpus with its WHERE constants as ``?`` markers,
    prepared once and executed on the row-batch and columnar engines,
    must match SQLite running the same text with the same parameters."""
    db, conn = oracle_db
    report = TriageReport()
    prepared = 0
    for index, (sql, _sqlite_sql, _rows, _plan) in enumerate(random_corpus):
        stmt, values = _parameterize(parse(sql))
        if not values:
            continue
        text, sqlite_text = render_select(stmt), render_sqlite(stmt)
        oracle_rows = run_sqlite(conn, sqlite_text, values)
        name = f"oracle_prepared_{index}"
        db.prepare(name, text)
        prepared += 1
        try:
            for engine, columnar in (("batch", False), ("columnar", True)):
                ours = _run_prepared(db, name, text, values, columnar)
                report.compare(index, f"{engine}/prepared", f"{text} {values}",
                               sqlite_text, ours, oracle_rows)
        finally:
            db.deallocate(name)
    assert prepared > QUERY_COUNT // 3, "too few corpus queries had constants"
    assert report.checked == 2 * prepared
    report.raise_if_any()


@pytest.fixture(scope="module")
def seek_db():
    """The oracle dataset at 2000 employees -- enough pages that the
    optimizer seeks idx_emp_pk for selective predicates -- plus its
    SQLite mirror."""
    db = Database()
    build_emp_dept(
        db.catalog,
        emp_rows=2000,
        dept_rows=DEPT_ROWS,
        rng=random.Random(3),
        null_fraction=NULL_FRACTION,
    )
    db.analyze()
    conn = mirror_to_sqlite(db.catalog)
    yield db, conn
    conn.close()


# (text, parameter tuples).  NULL parameters, strict and inclusive
# bounds, a ? and a literal bounding one column, and seeks on the
# unique emp_no index and the NULL-bearing dept_no index.
PREPARED_EDGE_CASES = [
    ("SELECT E.emp_no AS k, E.name AS n FROM Emp E WHERE E.emp_no = ?",
     [(5,), (5.0,), (None,), (0,), (2000,), (2001,)]),
    ("SELECT E.emp_no AS k FROM Emp E WHERE E.emp_no > ? AND E.emp_no < ?",
     [(10, 20), (10, 11), (10, 10), (None, 20), (10, None), (20, 10)]),
    ("SELECT COUNT(*) AS c, SUM(E.sal) AS s FROM Emp E "
     "WHERE E.emp_no BETWEEN ? AND ?",
     [(1, 50), (50, 50), (None, 50), (50, 1), (-5, 5000)]),
    ("SELECT E.emp_no AS k FROM Emp E WHERE E.emp_no >= ? AND E.emp_no > 15",
     [(10,), (15,), (16,), (1990,), (None,)]),
    ("SELECT E.emp_no AS k FROM Emp E "
     "WHERE E.emp_no < 30 AND E.emp_no <= ? AND E.emp_no > ?",
     [(25, 20), (40, 20), (30, 29), (None, 1), (25, None)]),
    ("SELECT E.emp_no AS k FROM Emp E WHERE E.emp_no = ? AND E.emp_no > 10",
     [(5,), (15,), (None,)]),
    ("SELECT E.emp_no AS k FROM Emp E WHERE E.emp_no = ? AND E.emp_no = ?",
     [(5, 5), (5, 6), (None, 5)]),
    ("SELECT E.emp_no AS k, E.dept_no AS d FROM Emp E WHERE E.dept_no = ?",
     [(3,), (None,), (DEPT_ROWS + 1,)]),
    ("SELECT E.emp_no AS k FROM Emp E WHERE E.dept_no < ? AND E.age >= ?",
     [(4, 30), (None, 30), (4, None)]),
]


def test_oracle_prepared_edge_cases(seek_db):
    db, conn = seek_db
    seeking = 0
    report = TriageReport()
    for index, (text, cases) in enumerate(PREPARED_EDGE_CASES):
        name = f"oracle_edge_{index}"
        db.prepare(name, text)
        seeking += _seeks_a_marker(db.optimize(text).physical)
        sqlite_text = render_sqlite(parse(text))
        try:
            for values in cases:
                oracle_rows = run_sqlite(conn, sqlite_text, values)
                for engine, columnar in (("batch", False), ("columnar", True)):
                    ours = _run_prepared(db, name, text, values, columnar)
                    report.compare(index, f"{engine}/prepared",
                                   f"{text} {values}", sqlite_text, ours,
                                   oracle_rows)
        finally:
            db.deallocate(name)
    report.raise_if_any()
    assert seeking >= 7, "too few edge cases seek an index on a ? marker"


# A parameter whose type differs from the key's: SQLite orders values
# of unlike types where the engine raises, so the reference is the
# engine running the same statement with the value as literal text.
MISTYPED_PARAMETERS = [
    ("SELECT E.emp_no AS k FROM Emp E WHERE E.emp_no = ?", ["abc", True]),
    ("SELECT E.emp_no AS k FROM Emp E WHERE E.emp_no < ?", ["abc"]),
    ("SELECT E.emp_no AS k FROM Emp E WHERE E.emp_no BETWEEN 3 AND ?",
     ["abc", 7.5]),
    ("SELECT E.name AS n FROM Emp E WHERE E.name = ?", [5, "emp_005"]),
    ("SELECT E.name AS n FROM Emp E WHERE E.name >= ?", [5]),
]


def _literal_sql(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value).upper() if isinstance(value, bool) else repr(value)


def test_prepared_mistyped_parameter_matches_literal_text(seek_db):
    db, _conn = seek_db
    for index, (text, values) in enumerate(MISTYPED_PARAMETERS):
        name = f"oracle_mistyped_{index}"
        db.prepare(name, text)
        try:
            for value in values:
                literal = text.replace("?", _literal_sql(value))
                for columnar in (False, True):
                    db.columnar_mode = columnar
                    try:
                        expected = [tuple(row) for row in db.sql(literal).rows]
                    except ReproError as error:
                        expected = type(error)
                    finally:
                        db.columnar_mode = False
                    ours = _run_prepared(db, name, text, [value], columnar)
                    if isinstance(expected, list):
                        assert isinstance(ours, list), (literal, columnar, ours)
                        assert sorted(ours) == sorted(expected), (literal, columnar)
                    else:
                        assert ours is expected, (literal, columnar, ours)
        finally:
            db.deallocate(name)
