"""E24 -- Columnar batches with numpy vector kernels vs the row engine.

Claim: lowering predicates, scalar arithmetic, and aggregate
accumulation to whole-batch numpy operations removes the interpreted
per-row cost the optimizer's CPU term otherwise mis-prices, without
changing a single result row.  The row-batch engine (PR 5) pays a
Python-level function call, tuple construction, and counter update per
row; the columnar engine pays them per *batch*, so the gap widens with
batch size and is largest on the cheap-per-row shapes (scans, filters,
vectorizable aggregates) that dominate real workloads.

Four workloads over one star-schema database (Sales plus dimensions):

* **scan-filter**: a selective conjunctive numeric filter over Sales --
  the vectorized-predicate stress case.
* **project-arith**: scalar arithmetic (``amount * 1.1 + quantity``)
  over every Sales row -- the vectorized-kernel case.
* **group-agg**: GROUP BY a foreign key with COUNT/SUM/MIN -- factorize
  plus ``bincount``/``reduceat`` against per-row accumulator dict work.
* **hash-join**: Sales joined to a filtered dimension -- reported for
  completeness; the join shares row-engine spill/partition machinery,
  so no speedup floor is asserted for it.

Acceptance: >=5x median wall-clock speedup on each of the first three
shapes, and bit-identical row lists from both engines on all four.
Every timing excludes optimization (the same physical plan object runs
under both engines) and takes the best of ``repeats`` runs, so the
table-column cache -- an engine feature amortized across queries -- is
warm for both sides.
"""

from __future__ import annotations

import json
import os
import time

from dataclasses import replace

from repro.core.optimizer import Database
from repro.cost.parameters import DEFAULT_PARAMETERS
from repro.datagen import build_star_schema
from repro.engine.context import ExecContext
from repro.engine.executor import execute

from benchmarks.harness import RESULTS_DIR, report

BATCH_SIZE = 4096

WORKLOAD = [
    (
        "scan-filter",
        "SELECT S.sale_id AS s, S.amount AS a FROM Sales S "
        "WHERE S.amount > 250 AND S.quantity >= 3",
        True,
    ),
    (
        "project-arith",
        "SELECT S.sale_id AS s, S.amount * 1.1 + S.quantity AS v "
        "FROM Sales S",
        True,
    ),
    (
        "group-agg",
        "SELECT S.d1_id AS g, COUNT(*) AS n, SUM(S.quantity) AS q, "
        "MIN(S.amount) AS lo FROM Sales S GROUP BY S.d1_id",
        True,
    ),
    (
        "hash-join",
        "SELECT S.sale_id AS s, D1.attr AS a FROM Sales S, Dim1 D1 "
        "WHERE S.d1_id = D1.id AND D1.attr <= 40",
        False,
    ),
]


def _build_db(fact_rows: int) -> Database:
    db = Database(replace(DEFAULT_PARAMETERS, batch_size=BATCH_SIZE))
    build_star_schema(db.catalog, fact_rows=fact_rows)
    db.analyze()
    return db


def _measure(db: Database, plan, columnar: bool, repeats: int):
    """Best-of-N wall time for one plan under one engine; rows out."""
    best = float("inf")
    rows = None
    for _ in range(repeats):
        context = ExecContext(db.params)
        context.columnar_mode = columnar
        started = time.perf_counter()
        _schema, rows = execute(plan, db.catalog, context)
        best = min(best, time.perf_counter() - started)
    return best * 1000.0, rows


def run_experiment(fact_rows: int = 200_000, repeats: int = 3):
    db = _build_db(fact_rows)
    optimizer = db.optimizer()
    records = {}
    table = []
    for label, sql, vectorized in WORKLOAD:
        plan = optimizer.optimize(sql).physical
        row_ms, row_rows = _measure(db, plan, columnar=False, repeats=repeats)
        col_ms, col_rows = _measure(db, plan, columnar=True, repeats=repeats)
        match = col_rows == row_rows  # bit-identical, order included
        speedup = row_ms / max(col_ms, 1e-9)
        records[label] = {
            "row_ms": row_ms,
            "columnar_ms": col_ms,
            "speedup": speedup,
            "rows_out": len(row_rows),
            "match": match,
            "floor_asserted": vectorized,
        }
        table.append(
            (
                label,
                round(row_ms, 2),
                round(col_ms, 2),
                round(speedup, 1),
                len(row_rows),
                "yes" if match else "NO",
            )
        )
    summary = {
        "fact_rows": fact_rows,
        "batch_size": BATCH_SIZE,
        "repeats": repeats,
        "records": records,
    }
    return table, summary


HEADERS = ["query", "row_ms", "columnar_ms", "speedup", "rows_out", "match"]

NOTES = (
    "row_ms / columnar_ms are best-of-N wall times for the identical "
    "physical plan under the row-batch and columnar engines "
    f"(batch_size={BATCH_SIZE}); match requires bit-identical row lists, "
    "order included.  The >=5x floor applies to the scan/filter/"
    "project/aggregate shapes; the hash join shares the row engine's "
    "partitioning machinery and is reported without a floor."
)

TITLE = "Columnar numpy vector kernels vs the row-batch engine"


def _assert_acceptance(summary) -> None:
    for label, record in summary["records"].items():
        assert record["match"], f"engines disagree on {label}"
        if record["floor_asserted"]:
            assert record["speedup"] >= 5.0, (
                f"{label}: columnar must be >=5x faster "
                f"(got {record['speedup']:.1f}x)"
            )


def _persist_json(summary) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "e24_columnar.json")
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)


def test_e24_columnar(benchmark):
    table, summary = run_experiment()
    report("E24", TITLE, HEADERS, table, notes=NOTES)
    _persist_json(summary)
    _assert_acceptance(summary)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller fact table; assert the acceptance claims for CI",
    )
    opts = parser.parse_args()
    if opts.smoke:
        table, summary = run_experiment(fact_rows=60_000, repeats=2)
    else:
        table, summary = run_experiment()
    report("E24", TITLE, HEADERS, table, notes=NOTES)
    _persist_json(summary)
    _assert_acceptance(summary)
    if opts.smoke:
        speeds = ", ".join(
            f"{label} {record['speedup']:.1f}x"
            for label, record in summary["records"].items()
        )
        print(f"smoke OK: engines identical; speedups: {speeds}")
