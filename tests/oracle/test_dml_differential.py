"""DML differential suite: transactional writes vs the SQLite oracle.

Seeded random INSERT/UPDATE/DELETE scripts run against both our engine
(through ``Database.sql``, i.e. the full transactional write path: WAL,
MVCC versions, commit hooks) and a SQLite mirror loaded with identical
rows.  After every script the full table contents are diffed, and
periodically a random follow-up SELECT is compared across the row-batch
engine, the columnar engine, and the reference interpreter -- so a write-path bug surfaces either as a content
divergence or as a stale-cache divergence on the very next read.

Script count scales with ``REPRO_ORACLE_DML_SCRIPTS`` (default 200; the
CI smoke step runs fewer).  Statements avoid ``/`` in SET expressions:
division is the one arithmetic operator whose result type diverges
between the dialects, and for *stored* values (unlike rendered query
output) there is no CAST site to normalize it at.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.optimizer import Database
from repro.datagen import (
    EmpDeptQueryGen,
    QueryGenConfig,
    build_emp_dept,
    mirror_to_sqlite,
)
from repro.sql.parser import parse, parse_statement
from repro.sql.render import render_dml, render_sqlite

from tests.oracle.harness import (
    TriageReport,
    rows_equivalent,
    run_optimized,
    run_sqlite,
)

SEED = 2026
EMP_ROWS = 120
DEPT_ROWS = 12
NULL_FRACTION = 0.15

SCRIPT_COUNT = int(os.environ.get("REPRO_ORACLE_DML_SCRIPTS", "200"))
FOLLOWUP_EVERY = 10

_EMP_SELECT = "SELECT E.emp_no, E.name, E.dept_no, E.sal, E.age FROM Emp E"
_EMP_SELECT_SQLITE = "SELECT emp_no, name, dept_no, sal, age FROM Emp"
_DEPT_SELECT = (
    "SELECT D.dept_no, D.name, D.loc, D.budget, D.mgr, D.num_machines"
    " FROM Dept D"
)
_DEPT_SELECT_SQLITE = (
    "SELECT dept_no, name, loc, budget, mgr, num_machines FROM Dept"
)


class DmlGen:
    """Seeded generator of INSERT/UPDATE/DELETE statements over Emp/Dept.

    Fresh emp_no values come from a counter above the seed data so
    scripts never collide on the (unenforced) primary key -- SQLite's
    mirror declares none, but keeping keys unique keeps the content
    diff's canonical ordering unambiguous.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.next_emp_no = 10_000

    def statement(self) -> str:
        roll = self.rng.random()
        if roll < 0.40:
            return self._insert()
        if roll < 0.78:
            return self._update()
        return self._delete()

    def _insert(self) -> str:
        rows = []
        for _ in range(self.rng.randint(1, 3)):
            emp_no = self.next_emp_no
            self.next_emp_no += 1
            name = f"'w{emp_no}'"
            dept_no = self._maybe_null(
                str(self.rng.randint(1, DEPT_ROWS)), 0.2
            )
            sal = self._maybe_null(
                f"{self.rng.uniform(30_000, 200_000):.2f}", 0.2
            )
            age = self._maybe_null(str(self.rng.randint(21, 65)), 0.2)
            rows.append(f"({emp_no}, {name}, {dept_no}, {sal}, {age})")
        return (
            "INSERT INTO Emp (emp_no, name, dept_no, sal, age) VALUES "
            + ", ".join(rows)
        )

    def _update(self) -> str:
        if self.rng.random() < 0.15:
            bump = self.rng.randint(-5000, 5000)
            return (
                f"UPDATE Dept SET budget = budget + {bump} "
                f"WHERE dept_no = {self.rng.randint(1, DEPT_ROWS)}"
            )
        setter = self.rng.choice(
            [
                f"sal = sal + {self.rng.randint(-900, 900)}",
                f"sal = {self.rng.uniform(40_000, 150_000):.2f}",
                "age = age + 1",
                f"dept_no = {self.rng.randint(1, DEPT_ROWS)}",
                f"name = 'r{self.rng.randint(0, 999)}'",
            ]
        )
        return f"UPDATE Emp SET {setter} WHERE {self._predicate()}"

    def _delete(self) -> str:
        return f"DELETE FROM Emp WHERE {self._predicate()}"

    def _predicate(self) -> str:
        # Narrow predicates, so scripts reshape the table instead of
        # wiping it: every form touches a small slice per statement.
        choice = self.rng.random()
        if choice < 0.35:
            low = self.rng.randint(1, EMP_ROWS + 60)
            return f"emp_no BETWEEN {low} AND {low + self.rng.randint(0, 5)}"
        if choice < 0.60:
            return (
                f"age = {self.rng.randint(21, 70)} "
                f"AND dept_no = {self.rng.randint(1, DEPT_ROWS)}"
            )
        if choice < 0.80:
            threshold = self.rng.randint(30_000, 200_000)
            return (
                f"sal > {threshold} AND sal < {threshold + 2500}"
            )
        if choice < 0.90:
            return f"sal IS NULL AND age = {self.rng.randint(21, 70)}"
        return f"dept_no IN ({self.rng.randint(1, DEPT_ROWS)}) AND age > 60"

    def _maybe_null(self, text: str, probability: float) -> str:
        return "NULL" if self.rng.random() < probability else text


@pytest.fixture()
def dml_db():
    """A NULL-heavy Emp/Dept database plus its SQLite mirror."""
    db = Database()
    build_emp_dept(
        db.catalog,
        emp_rows=EMP_ROWS,
        dept_rows=DEPT_ROWS,
        rng=random.Random(5),
        null_fraction=NULL_FRACTION,
    )
    db.analyze()
    conn = mirror_to_sqlite(db.catalog)
    yield db, conn
    conn.close()


def _apply_both(db: Database, conn, sql: str) -> None:
    stmt = parse_statement(sql)
    db.sql(render_dml(stmt, "repro"))
    conn.execute(render_dml(stmt, "sqlite"))
    conn.commit()


def _diff_contents(report: TriageReport, index: int, db: Database, conn,
                   sql: str) -> None:
    for label, ours_sql, theirs_sql in (
        ("emp-content", _EMP_SELECT, _EMP_SELECT_SQLITE),
        ("dept-content", _DEPT_SELECT, _DEPT_SELECT_SQLITE),
    ):
        ours = [tuple(row) for row in db.sql(ours_sql).rows]
        theirs = run_sqlite(conn, theirs_sql)
        report.compare(index, label, sql, theirs_sql, ours, theirs)


def test_dml_scripts_match_sqlite(dml_db):
    """Seeded random DML scripts: contents must stay bit-equivalent."""
    db, conn = dml_db
    rng = random.Random(SEED)
    gen = DmlGen(rng)
    querygen = EmpDeptQueryGen(
        random.Random(SEED + 1),
        QueryGenConfig(emp_rows=EMP_ROWS, dept_rows=DEPT_ROWS),
    )
    report = TriageReport()
    for index in range(SCRIPT_COUNT):
        sql = gen.statement()
        _apply_both(db, conn, sql)
        _diff_contents(report, index, db, conn, sql)
        if index % FOLLOWUP_EVERY == 0:
            follow = querygen.query()
            sqlite_sql = render_sqlite(parse(follow))
            oracle_rows = run_sqlite(conn, sqlite_sql)
            optimized = db.optimizer().optimize(follow)
            for engine in ("batch", "columnar", "interpreter"):
                ours = run_optimized(db, optimized, engine)
                report.compare(
                    index, engine, follow, sqlite_sql, ours, oracle_rows
                )
    assert report.checked >= 2 * SCRIPT_COUNT
    report.raise_if_any()


def test_dml_in_transaction_matches_sqlite(dml_db):
    """Multi-statement transactions agree with SQLite's at commit."""
    db, conn = dml_db
    rng = random.Random(SEED + 7)
    gen = DmlGen(rng)
    report = TriageReport()
    scripts = max(10, SCRIPT_COUNT // 10)
    for index in range(scripts):
        statements = [gen.statement() for _ in range(rng.randint(2, 4))]
        db.sql("BEGIN")
        conn.execute("BEGIN")
        for sql in statements:
            stmt = parse_statement(sql)
            db.sql(render_dml(stmt, "repro"))
            conn.execute(render_dml(stmt, "sqlite"))
        if rng.random() < 0.3:
            db.sql("ROLLBACK")
            conn.rollback()
        else:
            db.sql("COMMIT")
            conn.commit()
        _diff_contents(report, index, db, conn, "; ".join(statements))
    report.raise_if_any()


def test_rolled_back_transaction_leaves_no_trace(dml_db):
    """BEGIN..ROLLBACK restores exact pre-transaction contents."""
    db, conn = dml_db
    before = [tuple(row) for row in db.sql(_EMP_SELECT).rows]
    db.sql("BEGIN")
    db.sql("DELETE FROM Emp WHERE age > 30")
    db.sql("INSERT INTO Emp (emp_no, name) VALUES (99999, 'ghost')")
    db.sql("UPDATE Emp SET sal = 0")
    db.sql("ROLLBACK")
    after = [tuple(row) for row in db.sql(_EMP_SELECT).rows]
    assert rows_equivalent(after, before)
