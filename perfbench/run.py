"""Wall-clock benchmark of the repro query engine: one workload per process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload join_planning --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) through ``repro.Database()`` with
default settings as a closed loop with one client thread, interleaved
with write phases on fresh databases (a fixed number of autocommit
writes, then timed crash()+recover()), checks every result against
stdlib SQLite, and prints one JSON object as the last line of standard
output::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``spec.END_TO_END``.
``--trace 1`` runs each statement on two fresh databases, untraced on
one and with span wrappers installed (``spans.py``) on the other, checks
that both produce the same plans and rows, and reports the per-layer
metrics of ``spec.PER_LAYER``.  Spans and the workload census are written
under ``--out`` (default ``.perfbench_out``).

Any oracle mismatch, durability violation or traced/untraced divergence
prints ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Write phases of a timed run, one after each PHASES-th of the loop; the
# machine's speed drifts over seconds, so they sample the whole run.
PHASES = 6
# A full-size run measures at least this many operations, so p95 has
# >= 10 samples beyond it, unless that would stretch the loop beyond
# MAX_STRETCH x --seconds.
MIN_OPS = 200
MAX_STRETCH = 1.3
# Oracle answers kept for repeated reads (join_planning never repeats).
ANSWER_CACHE = 64


def _percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _piece_median(pieces: List[List[float]]) -> float:
    """Mean over the run's pieces of each piece's median.

    The machine switches between speed states ~1.8x apart that last
    seconds; a median over the whole run jumps to whichever state held
    more samples, while this moves in proportion to the time in each.
    """
    return statistics.mean(statistics.median(p) for p in pieces if p)


def _digest(rows) -> str:
    return hashlib.sha1(repr(rows).encode()).hexdigest()


_GENERATED_NAME = re.compile(r"\bQ\d+\b")


def _signature(plan) -> str:
    """``plan_signature`` with generated block names (``Q<n>``, numbered
    by a process-wide counter) renumbered by first appearance."""
    from repro.physical.plans import plan_signature

    names: Dict[str, str] = {}
    return _GENERATED_NAME.sub(
        lambda m: names.setdefault(m.group(0), f"Q#{len(names)}"),
        plan_signature(plan),
    )


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# Oracle: a stdlib SQLite mirror kept in lockstep with the program
# ----------------------------------------------------------------------
class Oracle:
    """Compares reads with SQLite and applies every write to the mirror."""

    def __init__(self, db, tables: Optional[List[str]] = None) -> None:
        from repro.datagen import mirror_to_sqlite
        from tests.oracle.harness import rows_equivalent

        self._equivalent = rows_equivalent
        self.tables = tables if tables is not None else db.catalog.table_names()
        self.conn = mirror_to_sqlite(db.catalog, self.tables)
        # Answers stay valid until the first write reaches the mirror.
        self._answers: Dict[tuple, list] = {}
        self.mismatches: List[str] = []

    def check_read(self, op, rows) -> None:
        key = (op.text, op.params)
        want = self._answers.get(key)
        if want is None:
            want = self.conn.execute(op.text, op.params).fetchall()
            if len(self._answers) >= ANSWER_CACHE:
                self._answers.clear()
            self._answers[key] = want
        if not self._equivalent(rows, want):
            self.mismatches.append(
                f"read mismatch: {op.text} {op.params} -> "
                f"{len(rows)} rows, sqlite {len(want)}"
            )

    def apply_write(self, op) -> None:
        self._answers.clear()
        self.conn.execute(op.text)
        self.conn.commit()

    def check_tables(self, db, label: str, tables=None) -> None:
        """Every acknowledged write is present and nothing else is."""
        for table in tables if tables is not None else self.tables:
            columns = [c.name for c in db.catalog.schema(table).columns]
            select = f"SELECT {', '.join(columns)} FROM {table}"
            ours = db.sql(select).rows
            want = self.conn.execute(select).fetchall()
            if not self._equivalent(ours, want):
                self.mismatches.append(
                    f"{label}: table {table} has {len(ours)} rows, "
                    f"acknowledged state has {len(want)}"
                )


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class Pass:
    """What one pass over the statement stream observed."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.kinds: List[str] = []
        self.failed = 0
        self.busy = 0.0
        self.signatures: List[tuple] = []
        self.census: Counter = Counter()

    @property
    def count(self) -> int:
        return len(self.latencies)

    def writes(self) -> int:
        return self.kinds.count("write")

    def of(self, kind: str) -> List[float]:
        return [t for t, k in zip(self.latencies, self.kinds) if k == kind]


def execute(db, op):
    if op.prepared is not None:
        return db.execute_prepared(op.prepared, *op.params)
    return db.sql(op.text)


def run_ops(db, ops: Iterator, oracle: Oracle, stop: Callable[[Pass], bool],
            tracer=None, first_id: int = 0,
            on_result: Optional[Callable] = None,
            run: Optional[Pass] = None) -> Pass:
    """Send operations one at a time until ``stop``; check each result.

    Only the calls into the program are timed; the oracle runs between
    them.  ``busy`` (the timed loop's wall time) sums those calls.  Pass
    ``run`` to continue a loop that an earlier call started.
    """
    from repro.errors import ReproError

    run = run if run is not None else Pass()
    while not stop(run):
        op = next(ops)
        op_id = first_id + run.count
        call = (lambda: execute(db, op))
        start = time.perf_counter()
        try:
            result = tracer.run_op(op_id, call) if tracer else call()
        except ReproError as error:
            result = None
            run.failed += 1
            print(f"failed: {op.text} {op.params}: {error}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        run.latencies.append(elapsed)
        run.kinds.append(op.kind)
        run.busy += elapsed
        if result is None:
            continue
        if op.kind == "write":
            oracle.apply_write(op)
        else:
            oracle.check_read(op, result.rows)
        run.signatures.append(
            (_signature(result.plan), _digest(result.rows))
        )
        _census(run.census, op, result)
        if on_result is not None:
            on_result(op_id, op, result)
    return run


def _census(census: Counter, op, result) -> None:
    census[f"joins={op.joins}"] += 1
    census["subquery"] += op.subquery
    census[op.kind] += 1
    census["prepared" if op.prepared else "literal"] += 1
    if op.kind == "read":
        census["plan_cache_hit"] += result.from_plan_cache


def census_shares(run: Pass) -> Dict[str, float]:
    """Share of loop operations with each property; plan-cache hits are
    a share of reads (writes bypass the plan cache)."""
    shares = {}
    for key, value in sorted(run.census.items()):
        base = run.census["read"] if key == "plan_cache_hit" else run.count
        shares[key] = value / max(1, base)
    return shares


def loop_stop(seconds: float, min_ops: int):
    def stop(run: Pass) -> bool:
        if run.busy < seconds:
            return False
        return run.count >= min_ops or run.busy >= MAX_STRETCH * seconds
    return stop


def count_stop(count: int):
    return lambda run: run.count >= count


# ----------------------------------------------------------------------
# Set-up and the write phase
# ----------------------------------------------------------------------
def set_up(workload, seed: int):
    """Fresh Database: load, PREPARE, warm-up.  Returns (db, seconds)."""
    from repro import Database

    gc.collect()
    start = time.perf_counter()
    db = Database()
    workload.build(db, seed)
    workload.prepare(db)
    for op in workload.warmup_ops(seed):
        execute(db, op)
    return db, time.perf_counter() - start


def crash_and_recover(db) -> float:
    start = time.perf_counter()
    db.crash()
    db.recover()
    return time.perf_counter() - start


@dataclass
class Phase:
    """What one write phase observed (plain data: it crosses a pipe)."""

    setup: float
    writes: List[float]
    failed: int
    recoveries: List[float]
    wal_records: int
    mismatches: List[str]


def write_phase(workload, seed: int, tracer=None, first_id: int = 0) -> Phase:
    """A fresh set-up, exactly ``sizes.phase_writes`` autocommit writes of
    ``workload.write_ops`` to ``workload.write_table``, then
    ``sizes.recoveries`` x crash()+recover().

    The log every recovery replays has the same length in every run,
    whatever the loop's throughput.  After each recovery the rebuilt
    table must equal the SQLite mirror, which saw every acknowledged
    write, and no other table may have been rebuilt.
    """
    db, setup = set_up(workload, seed)
    oracle = Oracle(db, [workload.write_table])
    writes = run_ops(db, workload.write_ops(seed), oracle,
                     count_stop(workload.sizes.phase_writes),
                     tracer=tracer, first_id=first_id)
    wal_records = len(db.txn_manager.wal)
    rebuilt = db.txn_manager.wal.checkpointed_tables()
    if rebuilt != oracle.tables:
        oracle.mismatches.append(f"writes reached {rebuilt}, "
                                 f"expected only {oracle.tables}")
    recoveries: List[float] = []
    for _ in range(workload.sizes.recoveries):
        if tracer is not None:
            tracer.op_id = -1  # recovery belongs to no operation
        recoveries.append(crash_and_recover(db))
        oracle.check_tables(db, "after crash()+recover()")
    return Phase(setup, writes.latencies, writes.failed, recoveries,
                 wal_records, oracle.mismatches)


def phase_in_child(workload, seed: int) -> Phase:
    """Run :func:`write_phase` in a forked child process and wait for it.

    The child starts from this process's warm interpreter but has memory
    of its own, so the phase's database neither counts in peak_rss_mb nor
    touches the loop's database and caches.  The parent waits, so only
    one of the two runs at a time.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    gc.collect()
    gc.freeze()  # the child's collections skip the inherited heap
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "w") as out:
                json.dump(asdict(write_phase(workload, seed)), out)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    gc.unfreeze()
    os.close(write_end)
    with os.fdopen(read_end) as source:
        text = source.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"write phase process failed (status {status})")
    return Phase(**json.loads(text))


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def timed_run(workload, seed: int, seconds: float, smoke: bool):
    """Set up, then run the loop in PHASES pieces, each followed by a write
    phase in a child process (see :func:`phase_in_child`).

    The p50 metrics and recovery_s are :func:`_piece_median` over the
    loop's pieces (or the phases); the p95 metrics take every sample of
    the run, so that >= 10 lie beyond them.  setup_s is the median of the
    loop's set-up and the phases' set-ups.  peak_rss_mb is this process's
    ru_maxrss when the loop ends: set-up plus the loop, with one copy of
    the data.
    """
    db, elapsed = set_up(workload, seed)
    setups = [elapsed]
    oracle = Oracle(db)
    ops = workload.ops(seed)
    run = Pass()
    phases: List[Phase] = []
    ends: List[int] = []  # run.count at the end of each piece
    for piece in range(1, PHASES + 1):
        last = piece == PHASES
        run_ops(db, ops, oracle, loop_stop(
            seconds * piece / PHASES, MIN_OPS if last and not smoke else 0),
            run=run)
        ends.append(run.count)
        if last:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases.append(phase_in_child(workload, seed))
    if workload.writes_in_loop:
        oracle.check_tables(db, "end of loop")
    problems = list(oracle.mismatches)
    setups += [phase.setup for phase in phases]
    for phase in phases:
        problems += phase.mismatches

    def pieces(kind: Optional[str] = None) -> List[List[float]]:
        return [[t for t, k in zip(run.latencies[a:b], run.kinds[a:b])
                 if kind in (None, k)]
                for a, b in zip([0] + ends[:-1], ends)]

    write_pieces = pieces("write") if workload.writes_in_loop \
        else [phase.writes for phase in phases]
    writes = [t for piece in write_pieces for t in piece]
    reads = run.of("read")
    ms = 1000.0
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": run.count / run.busy,
        "p50_ms": _piece_median(pieces()) * ms,
        "p95_ms": _percentile(run.latencies, 0.95) * ms,
        "read_p50_ms": _piece_median(pieces("read")) * ms,
        "read_p95_ms": _percentile(reads, 0.95) * ms,
        "write_p50_ms": _piece_median(write_pieces) * ms,
        "write_p95_ms": _percentile(writes, 0.95) * ms,
        "peak_rss_mb": peak_rss,
        "recovery_s": _piece_median([phase.recoveries for phase in phases]),
    }
    samples = {
        "ops": run.count, "reads": len(reads), "writes": len(writes),
        "setups": len(setups),
        "recoveries": sum(len(phase.recoveries) for phase in phases),
        "recovery_log_records": sorted({p.wal_records for p in phases}),
    }
    attempted = run.count + sum(len(phase.writes) for phase in phases)
    failed = run.failed + sum(phase.failed for phase in phases)
    return metrics, samples, census_shares(run), problems, attempted, failed


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics from a traced pass
# ----------------------------------------------------------------------
class LayerCounts:
    """Per-operation figures read from each result (traced pass)."""

    def __init__(self) -> None:
        from repro.physical.plans import IndexScanP, SeqScanP

        self._scans = (SeqScanP, IndexScanP)
        self.operator_seconds: Dict[str, float] = defaultdict(float)
        self.qerrors: List[float] = []
        self.peak_rows: List[int] = []
        self.scanned = 0
        self.returned = 0
        self.pages = 0
        self.pool_hits = 0
        self.pool_accesses = 0

    def __call__(self, _op_id, op, result) -> None:
        from repro.physical.plans import walk_physical
        from spans import per_operator_self

        context = result.context
        runtime = context.runtime
        for kind, seconds in per_operator_self(result.plan, runtime).items():
            self.operator_seconds[kind] += seconds
        peak = 0
        for node_op in walk_physical(result.plan):
            node = runtime.get(node_op)
            if node is None:
                continue
            peak = max(peak, node.peak_resident_rows)
            if op.kind == "read":
                self.qerrors.append(node.q_error)
                if isinstance(node_op, self._scans):
                    self.scanned += node.actual_rows
        self.peak_rows.append(peak)
        if op.kind == "read":
            self.returned += len(result.rows)
        self.pages += context.counters.total_page_reads
        pool = context.buffer_pool
        self.pool_hits += pool.hits
        self.pool_accesses += pool.hits + pool.misses


def traced_run(workload, seed: int, seconds: float, smoke: bool, out_dir: str):
    from spec import LOOP_LAYERS, OPERATOR_KINDS, WRITE_LAYERS
    from spans import Tracer, write_spans

    problems: List[str] = []
    # Two fresh databases: A runs untraced, B traced.  Each operation
    # runs on both, B with the wrappers installed, so both passes see the
    # same statements and the same drift of the machine's speed; which
    # database goes first alternates, so neither gains from warm caches.
    db_a, _ = set_up(workload, seed)
    oracle_a = Oracle(db_a)
    db, _ = set_up(workload, seed)
    oracle = Oracle(db)
    tracer = Tracer()
    counts = LayerCounts()
    untraced, traced = Pass(), Pass()
    stop = loop_stop(seconds / 2, 0 if smoke else 50)
    before = _metrics_snapshot(db)
    ops = workload.ops(seed)
    gc.collect()
    try:
        while not stop(untraced):
            op = next(ops)
            a_first = untraced.count % 2 == 0
            if a_first:
                run_ops(db_a, iter((op,)), oracle_a,
                        count_stop(untraced.count + 1), run=untraced)
            tracer.install()
            run_ops(db, iter((op,)), oracle, count_stop(traced.count + 1),
                    tracer=tracer, on_result=counts, run=traced)
            tracer.uninstall()
            if not a_first:
                run_ops(db_a, iter((op,)), oracle_a,
                        count_stop(untraced.count + 1), run=untraced)
        after = _metrics_snapshot(db)
        if workload.writes_in_loop:
            oracle.check_tables(db, "end of loop")
        problems += oracle_a.mismatches + oracle.mismatches
        db_a = oracle_a = db = oracle = None
        tracer.install()
        phase = write_phase(workload, seed, tracer=tracer,
                            first_id=traced.count)
    finally:
        tracer.uninstall()
    problems += phase.mismatches

    if traced.signatures != untraced.signatures:
        first = next(i for i, (a, b) in enumerate(
            zip(traced.signatures, untraced.signatures)) if a != b) \
            if len(traced.signatures) == len(untraced.signatures) else -1
        problems.append(f"traced pass diverged from untraced pass at op {first}")

    loop_ids = range(traced.count)
    layer_seconds = tracer.self_times(loop_ids)
    # The layer self times add up to the traced wall by construction, so
    # the checks are that the spans nest (no negative self time) and that
    # the traced wall agrees with the latencies timed outside the tracer.
    wall = tracer.wall(loop_ids)
    if not 0.0 <= traced.busy - wall <= 0.01 * traced.busy + 1e-4 * traced.count:
        problems.append(f"traced wall {wall:.6f} s disagrees with the "
                        f"timed latencies {traced.busy:.6f} s")
    misnested = tracer.misnested()
    if misnested:
        problems.append(f"{misnested} spans do not nest inside their parent")

    # Write-path layers are measured on the writes that write_p50_ms and
    # write_p95_ms time: the loop's on txn_mix, else the write phase's.
    if workload.writes_in_loop:
        write_ids = loop_ids
        write_count = traced.writes()
    else:
        write_ids = range(traced.count, traced.count + len(phase.writes))
        write_count = len(phase.writes)
    write_seconds = tracer.self_times(write_ids)
    n = max(1, traced.count)
    per_write = max(1, write_count)
    ms = 1000.0
    lookups = after["plan_cache_hits"] - before["plan_cache_hits"] + \
        after["plan_cache_misses"] - before["plan_cache_misses"]
    metrics: Dict[str, float] = {}
    for layer in LOOP_LAYERS:
        name = "other_ms" if layer == "other" else f"{layer}_ms"
        metrics[name] = layer_seconds.get(layer, 0.0) * ms / n
    metrics["core.rewrite.rules_fired"] = tracer.rules_fired / n
    metrics["core.systemr.calls_per_op"] = tracer.count("core.systemr", loop_ids) / n
    metrics["optimize_ms"] = tracer.inclusive("core.optimize", loop_ids) * ms / n
    metrics["plan_cache.hit_rate"] = (
        (after["plan_cache_hits"] - before["plan_cache_hits"]) / max(1, lookups))
    metrics["plan_cache.invalidations_per_op"] = (
        after["plan_cache_invalidations"] - before["plan_cache_invalidations"]) / n
    metrics["plan_cache.feedback_evictions_per_op"] = (
        after["feedback_reoptimizations"] - before["feedback_reoptimizations"]) / n
    qerrors = counts.qerrors or [1.0]
    metrics["stats.qerror_p50"] = _percentile(qerrors, 0.50)
    metrics["stats.qerror_p90"] = _percentile(qerrors, 0.90)
    for kind in OPERATOR_KINDS:
        metrics[f"engine.op.{kind}_ms"] = counts.operator_seconds.get(kind, 0.0) * ms / n
    metrics["engine.peak_resident_rows"] = statistics.mean(counts.peak_rows or [0])
    metrics["engine.rows_examined_per_row"] = counts.scanned / max(1, counts.returned)
    metrics["storage.pages_read_per_op"] = counts.pages / n
    metrics["storage.buffer_hit_ratio"] = counts.pool_hits / max(1, counts.pool_accesses)
    for layer in WRITE_LAYERS:
        metrics[f"{layer}_ms"] = write_seconds.get(layer, 0.0) * ms / per_write
    metrics["storage.txn.vacuums_per_write"] = \
        tracer.rebuilds_in_vacuum(write_ids) / per_write
    metrics["storage.wal.records_per_write"] = \
        phase.wal_records / max(1, len(phase.writes))
    metrics["storage.wal.recover_ms"] = statistics.median(phase.recoveries) * ms
    metrics["trace.wall_ms"] = wall * ms / n
    metrics["trace.overhead_frac"] = 1.0 - untraced.busy / traced.busy

    os.makedirs(out_dir, exist_ok=True)
    write_spans(tracer, os.path.join(
        out_dir, f"spans-{workload.name}-{seed}.jsonl"))
    samples = {"ops": traced.count, "writes": write_count,
               "untraced_ops": untraced.count,
               "recovery_log_records": phase.wal_records}
    attempted = untraced.count + traced.count + len(phase.writes)
    failed = untraced.failed + traced.failed + phase.failed
    return metrics, samples, census_shares(traced), problems, attempted, failed


def _metrics_snapshot(db) -> Dict[str, int]:
    m = db.metrics
    return {
        "plan_cache_hits": m.plan_cache_hits,
        "plan_cache_misses": m.plan_cache_misses,
        "plan_cache_invalidations": m.plan_cache_invalidations,
        "feedback_reoptimizations": m.feedback_reoptimizations,
    }


def _run_all(names: List[str], args: argparse.Namespace) -> int:
    """``--workload all``: each workload in a fresh process, in turn.

    Every output line is prefixed with the workload's name; the status is
    the worst of the runs.
    """
    import subprocess

    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", args.out]
    if args.smoke:
        rest.append("--smoke")
    status = 0
    for name in names:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name]
            + rest, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        for line in done.stdout.splitlines():
            print(f"{name}: {line}")
        status = max(status, done.returncode)
    return status


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of workloads.py, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long sizes for the smoke test")
    parser.add_argument("--out", default=".perfbench_out",
                        help="directory for spans and the census")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        import repro  # noqa: F401
        import tests.oracle.harness  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT}: {error}",
              file=sys.stderr)
        return 2
    from spec import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(sorted(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    if args.trace:
        metrics, samples, census, problems, attempted, failed = traced_run(
            workload, args.seed, args.seconds, args.smoke, args.out)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        metrics, samples, census, problems, attempted, failed = timed_run(
            workload, args.seed, args.seconds, args.smoke)
        units = {name: spec[0] for name, spec in END_TO_END.items()}

    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    print(f"samples: {json.dumps(samples)}")
    print(f"census: {json.dumps(census)}")
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"census-{workload.name}-{args.seed}"
                           f"-trace{args.trace}.json"), "w") as out:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "samples": samples, "census": census}, out, indent=1)
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: _metric(metrics[name], unit)
                    for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
