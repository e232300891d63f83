"""E21 -- Pipelined batch execution: resident set, latency, and LIMIT.

Claim: a pull-based batch-iterator executor changes *how much* of a
query's data is alive at once and *when* the first rows appear, without
changing a single result row.  A materializing executor computes every
operator's full output before its parent starts, so its peak resident
set is the largest intermediate result and its first row exists only
when the query is done; the batch engine keeps only pipeline breakers
(hash builds, sorts, aggregation tables) fully resident and everything
else at one batch (64 rows here).

The materializing baseline is read off the batch engine's own full
drain: every operator's ``actual_rows`` is the output a materializing
executor would hold at once, so the largest intermediate is the maximum
over plan nodes.  (A LIMIT cannot trim a materialized input before it
exists, so the LIMIT query's largest intermediate is the unwindowed
drain's.)  Time-to-first-row is compared with the full drain's wall
time, which is when a materializing executor would produce its first
row.

Three workloads over one database:

* **chain5**: a 5-way chain join R1..R5 whose intermediates grow with
  every join -- the resident-set stress case.  Acceptance: the batch
  engine's peak resident rows must be >= 5x smaller than the largest
  intermediate.
* **star3**: Sales joined to three dimensions with a selective
  dimension filter -- the common OLAP shape.
* **scan +/- LIMIT 10**: a filtered scan of Sales with and without a
  row quota.  Acceptance: under LIMIT 10 the engine must pull < 10% of
  the rows the unlimited query pulls (early pipeline termination, not
  post-hoc slicing).

Time-to-first-row is measured by pulling one batch from the streaming
API directly; that first batch must be a prefix of the full drain's
rows, and the LIMIT 10 rows the first ten rows of the unlimited scan.
"""

from __future__ import annotations

import json
import os
import time

from dataclasses import replace

from repro.core.optimizer import Database
from repro.cost.parameters import DEFAULT_PARAMETERS
from repro.datagen import build_chain_tables, build_star_schema
from repro.engine.context import ExecContext
from repro.engine.executor import execute, stream_batches
from repro.engine.runtime_stats import RuntimeStats
from repro.physical.plans import walk_physical

from benchmarks.harness import RESULTS_DIR, report

BATCH_SIZE = 64

CHAIN_SQL = (
    "SELECT R1.payload AS p1, R5.payload AS p5 FROM R1, R2, R3, R4, R5 "
    "WHERE R1.b = R2.a AND R2.b = R3.a AND R3.b = R4.a AND R4.b = R5.a"
)

STAR_SQL = (
    "SELECT S.sale_id AS s, D1.attr AS a1, D2.attr AS a2 "
    "FROM Sales S, Dim1 D1, Dim2 D2, Dim3 D3 "
    "WHERE S.d1_id = D1.id AND S.d2_id = D2.id AND S.d3_id = D3.id "
    "AND D1.attr <= 50"
)

SCAN_SQL = "SELECT S.sale_id AS s, S.amount AS a FROM Sales S WHERE S.quantity >= 1"


def _build_db(chain_rows: int, fact_rows: int) -> Database:
    db = Database(replace(DEFAULT_PARAMETERS, batch_size=BATCH_SIZE))
    build_chain_tables(
        db.catalog, 5, rows_per_relation=chain_rows, domain_ratio=0.5
    )
    build_star_schema(db.catalog, fact_rows=fact_rows)
    db.analyze()
    return db


def _measure(db: Database, sql: str) -> dict:
    """One full drain plus one first-batch pull; returns the numbers and
    the drained rows."""
    plan = db.optimizer().optimize(sql).physical
    context = ExecContext(db.params)
    started = time.perf_counter()
    _schema, rows = execute(plan, db.catalog, context)
    wall = time.perf_counter() - started
    nodes = [context.runtime.node_for(node) for node in walk_physical(plan)]
    ttfr, first_batch = _time_to_first_row(db, plan)
    record = {
        "wall_ms": wall * 1000.0,
        "ttfr_ms": ttfr * 1000.0,
        "peak_resident_rows": max(node.peak_resident_rows for node in nodes),
        "largest_intermediate": max(node.actual_rows for node in nodes),
        "rows_out": len(rows),
        "rows_pulled": context.counters.rows_produced,
        "prefix": rows[:len(first_batch)] == first_batch,
    }
    return record, rows


def _time_to_first_row(db: Database, plan):
    """Pull exactly one batch from the streaming API; returns
    ``(seconds, batch)``."""
    context = ExecContext(db.params)
    context.runtime = RuntimeStats()
    context.begin_execution()
    generator = stream_batches(plan, db.catalog, context)
    started = time.perf_counter()
    try:
        batch = next(generator)
    except StopIteration:
        batch = []
    elapsed = time.perf_counter() - started
    generator.close()
    return elapsed, batch


def run_experiment(chain_rows: int = 400, fact_rows: int = 4000):
    db = _build_db(chain_rows, fact_rows)
    workload = [
        ("chain5", CHAIN_SQL),
        ("star3", STAR_SQL),
        ("scan", SCAN_SQL),
        ("scan+limit10", SCAN_SQL + " LIMIT 10"),
    ]
    records = {}
    drained = {}
    for label, sql in workload:
        records[label], drained[label] = _measure(db, sql)
    limited = records["scan+limit10"]
    limited["largest_intermediate"] = records["scan"]["largest_intermediate"]
    limited["prefix"] = limited["prefix"] and (
        drained["scan+limit10"] == drained["scan"][:10]
    )
    rows = [
        (
            label,
            round(r["wall_ms"], 2),
            round(r["ttfr_ms"], 2),
            r["peak_resident_rows"],
            r["largest_intermediate"],
            r["rows_pulled"],
            r["rows_out"],
            "yes" if r["prefix"] else "NO",
        )
        for label, r in records.items()
    ]
    chain = records["chain5"]
    summary = {
        "batch_size": BATCH_SIZE,
        "chain_peak_reduction": (
            chain["largest_intermediate"]
            / max(chain["peak_resident_rows"], 1)
        ),
        "limit_pull_fraction": (
            limited["rows_pulled"] / max(records["scan"]["rows_pulled"], 1)
        ),
        "records": records,
    }
    return rows, summary


HEADERS = [
    "query", "wall_ms", "ttfr_ms", "peak_rows", "largest_interm",
    "rows_pulled", "rows_out", "prefix",
]

NOTES = (
    "peak_rows is the largest row set any single operator held resident "
    "(max over plan nodes); largest_interm is the largest operator output "
    "(max actual_rows over plan nodes; the unwindowed scan's for the LIMIT "
    "query) -- what a materializing executor holds at its peak; "
    "rows_pulled is total rows produced by all operators (the work LIMIT "
    "is supposed to cut); ttfr_ms is time-to-first-batch via the streaming "
    "API, where a materializing executor's first row arrives at wall_ms; "
    "prefix says the first batch (and the LIMIT window) is a prefix of the "
    "full drain."
)

TITLE = "Pipelined batch execution vs a materializing baseline"


def _assert_acceptance(summary) -> None:
    for label, record in summary["records"].items():
        assert record["prefix"], f"streamed rows are not a prefix on {label}"
    assert summary["chain_peak_reduction"] >= 5.0, (
        "batch engine must hold >=5x fewer resident rows than the largest "
        f"intermediate on the 5-way chain "
        f"(got {summary['chain_peak_reduction']:.1f}x)"
    )
    assert summary["limit_pull_fraction"] < 0.10, (
        "LIMIT 10 must pull <10% of the unlimited query's rows "
        f"(got {summary['limit_pull_fraction']:.1%})"
    )
    chain = summary["records"]["chain5"]
    assert chain["ttfr_ms"] <= chain["wall_ms"] * 1.5 + 1.0


def _persist_json(summary) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "e21_pipeline.json")
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)


def test_e21_pipeline(benchmark):
    table, summary = run_experiment()
    report("E21", TITLE, HEADERS, table, notes=NOTES)
    _persist_json(summary)
    _assert_acceptance(summary)

    db = _build_db(chain_rows=200, fact_rows=1000)
    plan = db.optimizer().optimize(CHAIN_SQL).physical

    def drain_chain():
        context = ExecContext(db.params)
        return execute(plan, db.catalog, context)

    benchmark(drain_chain)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small tables; assert the acceptance claims for CI",
    )
    opts = parser.parse_args()
    if opts.smoke:
        table, summary = run_experiment(chain_rows=200, fact_rows=1500)
    else:
        table, summary = run_experiment()
    report("E21", TITLE, HEADERS, table, notes=NOTES)
    _persist_json(summary)
    _assert_acceptance(summary)
    if opts.smoke:
        print(
            "smoke OK: "
            f"{summary['chain_peak_reduction']:.1f}x peak-resident "
            "reduction on chain5, LIMIT 10 pulled "
            f"{summary['limit_pull_fraction']:.1%} of the unlimited rows, "
            "streamed rows are drain prefixes"
        )
