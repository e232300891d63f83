"""Comparison harness for the SQLite external-oracle suite.

Engine-vs-engine differential tests cannot catch a bug every engine
shares (one front end, one binder, one expression evaluator).  This
harness compares against stdlib ``sqlite3`` -- an implementation sharing none of our code -- and turns
any disagreement into a triage report instead of a bare assert, so a
divergence arrives with everything needed to classify it: the query in
both dialects, row counts, sample rows from each side, and which of our
engines disagreed.

Intentional, *normalized* dialect divergences (the only ones allowed)
are enumerated in :data:`NORMALIZATIONS`; anything else is a bug in one
of the two systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.optimizer import Database, OptimizedQuery, Optimizer
from repro.engine.context import ExecContext
from repro.engine.executor import execute
from repro.engine.interpreter import interpret

# Documented dialect divergences and how the suite neutralizes each.
# A mismatch NOT explained by one of these is a correctness bug.
NORMALIZATIONS = [
    (
        "integer-division",
        "our '/' is true division for any operand types; SQLite truncates "
        "INTEGER / INTEGER.  Normalized at render time: the sqlite dialect "
        "emits (CAST(l AS REAL) / r).",
    ),
    (
        "bare-offset",
        "we accept OFFSET without LIMIT; SQLite requires a LIMIT first. "
        "Normalized at render time: LIMIT -1 OFFSET n.",
    ),
    (
        "float-summation-order",
        "different join orders sum floats in different sequences; the "
        "last-ulp jitter is not a semantic divergence.  Normalized in "
        "comparison: relative tolerance 1e-6.",
    ),
    (
        "null-ordering",
        "NOT normalized -- both systems place NULLs first on ASC keys and "
        "last on DESC keys.  The agreement is pinned by the ordered-window "
        "suite; if either side ever changes, those tests fail loudly.",
    ),
]

_REL_TOL = 1e-6
_ABS_TOL = 1e-6


# ----------------------------------------------------------------------
# Canonical rows and equivalence
# ----------------------------------------------------------------------
def _sort_key(row: Sequence[Any]) -> Tuple:
    return tuple(
        (value is None, isinstance(value, str), value if value is not None else 0)
        for value in row
    )


def canonical(rows: Sequence[Sequence[Any]]) -> List[Tuple]:
    """Rows as a canonically ordered multiset (tuples, sorted NULL-safe)."""
    return sorted((tuple(row) for row in rows), key=_sort_key)


def _values_equal(a: Any, b: Any) -> bool:
    """Type-strict value equality: an int never equals a float (a bool
    compares as the int it is); floats agree within the summation-order
    tolerance."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, float)
            and isinstance(b, float)
            and math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)
        )
    return a == b


def _row_equal(left: Sequence[Any], right: Sequence[Any]) -> bool:
    return len(left) == len(right) and all(
        _values_equal(a, b) for a, b in zip(left, right)
    )


def rows_equivalent(
    got: Sequence[Sequence[Any]], want: Sequence[Sequence[Any]]
) -> bool:
    """Order-insensitive multiset equivalence under the numeric tolerance."""
    if len(got) != len(want):
        return False
    return all(
        _row_equal(a, b) for a, b in zip(canonical(got), canonical(want))
    )


def rows_equal_ordered(
    got: Sequence[Sequence[Any]], want: Sequence[Sequence[Any]]
) -> bool:
    """Positional row-list equality (for deterministic ORDER BY windows)."""
    if len(got) != len(want):
        return False
    return all(_row_equal(a, b) for a, b in zip(got, want))


def assert_sorted(rows: Sequence[Sequence[Any]], key_positions: Sequence[int],
                  ascending: bool) -> bool:
    """Check our NULLS-FIRST-on-ASC ordering contract over a result.

    Returns True when each adjacent pair is non-decreasing (ascending)
    or non-increasing (descending) under the NULL placement both systems
    share: NULL sorts before every value ascending, after descending.
    """

    def key(row):
        parts = []
        for position in key_positions:
            value = row[position]
            parts.append((value is not None, value if value is not None else 0))
        return tuple(parts)

    for earlier, later in zip(rows, rows[1:]):
        a, b = key(earlier), key(later)
        if ascending and a > b:
            return False
        if not ascending and a < b:
            return False
    return True


# ----------------------------------------------------------------------
# Engines under test
# ----------------------------------------------------------------------
def run_optimized(
    db: Database,
    optimized: OptimizedQuery,
    engine: str = "batch",
    parameters: Optional[Sequence[Any]] = None,
) -> List[Tuple]:
    """Run one optimized query on ``engine``.

    ``"batch"`` and ``"columnar"`` execute its physical plan on the
    row-batch or columnar engine.  ``"interpreter"`` evaluates its
    rewritten logical tree on the reference interpreter: same front end
    and rewrites as the engines, but none of their physical operators
    or compiled expressions.
    """
    if engine == "interpreter":
        _schema, rows = interpret(optimized.rewritten, db.catalog)
    else:
        context = ExecContext(db.params)
        context.columnar_mode = engine == "columnar"
        _schema, rows = execute(
            optimized.physical, db.catalog, context, parameters=parameters
        )
    return [tuple(row) for row in rows]


def run_engine(
    db: Database,
    sql: str,
    engine: str = "batch",
    parameters: Optional[Sequence[Any]] = None,
    optimizer: Optional[Optimizer] = None,
) -> List[Tuple]:
    """Optimize (with the session's optimizer unless one is given) and
    run on ``engine`` (see :func:`run_optimized`)."""
    optimized = (optimizer or db.optimizer()).optimize(sql)
    return run_optimized(db, optimized, engine, parameters)


def run_sqlite(conn, sql: str, parameters: Optional[Sequence[Any]] = None):
    """Run the translated query on the oracle connection."""
    cursor = conn.execute(sql, tuple(parameters or ()))
    return cursor.fetchall()


# ----------------------------------------------------------------------
# Triage
# ----------------------------------------------------------------------
@dataclass
class Divergence:
    """One disagreement between an engine and the oracle."""

    index: int
    engine: str
    sql: str
    sqlite_sql: str
    ours: int
    oracle: int
    sample_ours: List[Tuple]
    sample_oracle: List[Tuple]
    note: str = ""

    def format(self) -> str:
        lines = [
            f"#{self.index} [{self.engine}] {self.note or 'result mismatch'}",
            f"  repro : {self.sql}",
            f"  sqlite: {self.sqlite_sql}",
            f"  rows  : ours={self.ours} oracle={self.oracle}",
        ]
        for label, sample in (
            ("ours", self.sample_ours),
            ("oracle", self.sample_oracle),
        ):
            for row in sample:
                lines.append(f"    {label}: {row!r}")
        return "\n".join(lines)


@dataclass
class TriageReport:
    """Collects divergences across a suite run and renders one report."""

    checked: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    def compare(
        self,
        index: int,
        engine: str,
        sql: str,
        sqlite_sql: str,
        ours: Sequence[Sequence[Any]],
        oracle: Sequence[Sequence[Any]],
        ordered: bool = False,
    ) -> bool:
        """Record a comparison; returns True when the results agree."""
        self.checked += 1
        equal = (
            rows_equal_ordered(ours, oracle)
            if ordered
            else rows_equivalent(ours, oracle)
        )
        if not equal:
            got, want = canonical(ours), canonical(oracle)
            first_diff = [
                (a, b) for a, b in zip(got, want) if not _row_equal(a, b)
            ][:3]
            self.divergences.append(
                Divergence(
                    index=index,
                    engine=engine,
                    sql=sql,
                    sqlite_sql=sqlite_sql,
                    ours=len(ours),
                    oracle=len(oracle),
                    sample_ours=[a for a, _ in first_diff] or got[:3],
                    sample_oracle=[b for _, b in first_diff] or want[:3],
                    note="ordered mismatch" if ordered else "multiset mismatch",
                )
            )
        return equal

    def format(self) -> str:
        header = (
            f"oracle triage: {self.checked} comparisons, "
            f"{len(self.divergences)} divergences"
        )
        if not self.divergences:
            return header
        sections = [header, "", "normalized dialect divergences (expected):"]
        sections.extend(f"  - {name}: {why}" for name, why in NORMALIZATIONS)
        sections.append("")
        sections.append("UNEXPLAINED divergences:")
        sections.extend(d.format() for d in self.divergences[:20])
        remaining = len(self.divergences) - 20
        if remaining > 0:
            sections.append(f"... ({remaining} more)")
        return "\n".join(sections)

    def raise_if_any(self) -> None:
        assert not self.divergences, "\n" + self.format()
