"""Metric definitions: names, units, and what each per-layer metric predicts.

``BENCHMARK.json`` lists the same names and units (the smoke test checks
that the two agree).  Its format has no room for the prediction table, so
it lives here: for each per-layer metric, the end-to-end metric it should
move and on which workload.  A per-layer ``_ms`` metric is self time per
loop operation unless its note says otherwise.
"""

from __future__ import annotations

from typing import Dict, Tuple

# name -> (unit, better).  Every workload reports all of them: on a loop
# without writes read_* equal p50/p95 over all operations and write_*
# time the writes of the write phases (``run.write_phase``); recovery_s is
# always the write phases', a crash()+recover() of a log of fixed length.
# A p50 (and recovery_s) is the mean over the run's pieces of each piece's
# median (``run._piece_median``); a p95 takes every sample of the run.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "p95_ms": ("ms", "lower"),
    "read_p50_ms": ("ms", "lower"),
    "read_p95_ms": ("ms", "lower"),
    "write_p50_ms": ("ms", "lower"),
    "write_p95_ms": ("ms", "lower"),
    # ru_maxrss when the timed loop ends: set-up plus the loop.
    "peak_rss_mb": ("MB", "lower"),
    "recovery_s": ("s", "lower"),
}

OPERATOR_KINDS = (
    "SeqScan", "IndexScan", "Filter", "Project", "HashJoin", "NLJoin",
    "INLJoin", "MergeJoin", "HashAgg", "StreamAgg", "Sort", "Materialize",
    "Limit", "Distinct", "Apply", "Insert", "Update", "Delete",
)

_JOIN = "join_planning"
_STAR = "star_analytics"
_TXN = "txn_mix"

# name -> (unit, better, end-to-end metric it should move, workload)
PER_LAYER: Dict[str, Tuple[str, str, str, str]] = {
    "sql.parse_ms": ("ms", "lower", "p50_ms", _JOIN),
    "sql.bind_ms": ("ms", "lower", "p50_ms", _JOIN),
    "logical.lower_ms": ("ms", "lower", "p50_ms", _JOIN),
    "core.rewrite_ms": ("ms", "lower", "p50_ms", _JOIN),
    "core.rewrite.rules_fired": ("count", "lower", "p50_ms", _JOIN),
    # Optimizer.optimize_statement's own time (estimator set-up, glue).
    "core.optimize_ms": ("ms", "lower", "p50_ms", _JOIN),
    "core.physicalize_ms": ("ms", "lower", "p50_ms p95_ms ops_per_s", _JOIN),
    "core.systemr_ms": ("ms", "lower", "p50_ms p95_ms ops_per_s", _JOIN),
    "core.systemr.calls_per_op": ("count", "lower", "p50_ms", _JOIN),
    # Inclusive optimizer time per operation (rewrite + enumeration + ...).
    "optimize_ms": ("ms", "lower", "p50_ms p95_ms ops_per_s", _JOIN),
    "plan_cache_ms": ("ms", "lower", "read_p50_ms", _TXN),
    "plan_cache.hit_rate": ("fraction", "higher", "read_p50_ms", _TXN),
    "plan_cache.invalidations_per_op": ("count", "lower", "read_p50_ms", _TXN),
    "plan_cache.feedback_evictions_per_op": (
        "count", "lower", "read_p50_ms", _TXN),
    "stats.feedback_ms": ("ms", "lower", "p50_ms", _JOIN),
    "stats.qerror_p50": ("ratio", "lower", "p50_ms", _JOIN),
    "stats.qerror_p90": ("ratio", "lower", "p50_ms", _JOIN),
    "engine.execute_ms": ("ms", "lower", "p50_ms ops_per_s", _STAR),
    **{
        f"engine.op.{kind}_ms": ("ms", "lower", "p50_ms ops_per_s", _STAR)
        for kind in OPERATOR_KINDS
    },
    # Mean over operations of the plan's largest operator high-water mark.
    "engine.peak_resident_rows": ("rows", "lower", "p50_ms ops_per_s", _STAR),
    # Rows produced by scan operators per row returned.
    "engine.rows_examined_per_row": ("rows/row", "lower", "read_p50_ms", _TXN),
    "storage.pages_read_per_op": ("pages", "lower", "p50_ms", _STAR),
    "storage.buffer_hit_ratio": ("fraction", "higher", "p50_ms", _STAR),
    # Write-path self times are per write, not per loop operation, over
    # the writes write_p50_ms times (the write phase's on a read-only loop).
    "storage.txn.commit_ms": ("ms", "lower", "write_p50_ms write_p95_ms", _TXN),
    "storage.txn.vacuum_ms": ("ms", "lower", "write_p50_ms write_p95_ms", _TXN),
    "storage.txn.vacuums_per_write": (
        "count", "lower", "write_p50_ms write_p95_ms", _TXN),
    "catalog.rebuild_indexes_ms": (
        "ms", "lower", "write_p50_ms write_p95_ms", _TXN),
    # Log records per write of the write phase (the log recovery replays).
    "storage.wal.records_per_write": ("count", "lower", "recovery_s", _TXN),
    # One crash()+recover() of the write phase's log, inclusive.
    "storage.wal.recover_ms": ("ms", "lower", "recovery_s", _TXN),
    # Time inside Database calls that no traced layer claims.
    "other_ms": ("ms", "lower", "p50_ms", _TXN),
    # Traced wall time per loop operation: the layer self times plus other.
    "trace.wall_ms": ("ms", "lower", "p50_ms", _JOIN),
    # 1 - traced ops/s / untraced ops/s over the same statements.
    "trace.overhead_frac": ("fraction", "lower", "ops_per_s", _JOIN),
}

# Span layers whose self time is reported per loop operation.
LOOP_LAYERS = (
    "sql.parse", "sql.bind", "logical.lower", "core.rewrite", "core.optimize",
    "core.physicalize", "core.systemr", "plan_cache", "stats.feedback",
    "engine.execute", "other",
)
# Span layers whose self time is reported per write.
WRITE_LAYERS = ("storage.txn.commit", "storage.txn.vacuum",
                "catalog.rebuild_indexes")
