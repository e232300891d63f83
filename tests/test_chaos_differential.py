"""Chaos differential testing: the 200-query suite under injected faults.

Reruns the seeded random query workload of ``test_differential`` while a
deterministic :class:`FaultInjector` fails page reads and index lookups
at configurable rates.  The robustness contract checked for every query,
at every fault rate:

  * the query either returns exactly the fault-free result (transient
    faults absorbed by retries), or
  * it fails with a *typed* error (:class:`ReproError` subclass) -- never
    a bare exception -- and the session remains usable: the catalog is
    intact and the next query runs normally.

Determinism is part of the contract: the same seed and config must
reproduce identical outcomes, retry counts, and injected-fault totals.
"""

from __future__ import annotations

import random

import pytest

from repro import AdaptiveConfig, Database, FaultConfig, FaultInjector
from repro.datagen import build_emp_dept
from repro.errors import ReproError

from tests.conftest import assert_same_rows
from tests.test_differential import DEPT_ROWS, EMP_ROWS, SEED, generate_query

QUERY_COUNT = 200
FAULT_RATES = (0.01, 0.05, 0.20)


def _make_db(
    rate: float = 0.0,
    seed: int = SEED,
    adaptive: bool = False,
    columnar: bool = False,
) -> Database:
    injector = None
    if rate > 0.0:
        injector = FaultInjector(
            FaultConfig(
                seed=seed,
                page_read_error_rate=rate,
                index_lookup_error_rate=rate,
            )
        )
    db = Database(
        fault_injector=injector,
        adaptive=AdaptiveConfig(enabled=True) if adaptive else None,
        columnar_mode=columnar,
    )
    build_emp_dept(
        db.catalog,
        emp_rows=EMP_ROWS,
        dept_rows=DEPT_ROWS,
        rng=random.Random(3),
    )
    db.analyze()
    return db


def _chaos_run(
    rate: float,
    count: int = QUERY_COUNT,
    adaptive: bool = False,
    columnar: bool = False,
):
    """Run the suite under faults; returns per-query outcome records.

    Expected rows always come from a clean row-batch database: correct
    results are engine-independent, so the same oracle serves both
    engines.
    """
    clean = _make_db()
    chaotic = _make_db(rate=rate, adaptive=adaptive, columnar=columnar)
    rng = random.Random(SEED)
    outcomes = []
    for _ in range(count):
        sql = generate_query(rng)
        expected = clean.sql(sql).rows
        try:
            result = chaotic.sql(sql)
        except ReproError as error:
            outcomes.append(("failed", type(error).__name__, 0, 0, 0))
            continue
        except Exception as error:  # pragma: no cover - the bug we hunt
            pytest.fail(f"untyped error under chaos for {sql!r}: {error!r}")
        assert_same_rows(result.rows, expected, msg=f"[rate={rate}] {sql}")
        state = result.context.adaptive
        if state is not None:
            assert state.materialized == {}, f"leaked checkpoint temps: {sql}"
        outcomes.append(
            (
                "ok",
                "",
                result.context.counters.retries,
                state.checks_fired if state else 0,
                state.reoptimizations if state else 0,
            )
        )
    # The catalog survived whatever happened above, and with the fault
    # source removed the session runs normally again.
    assert chaotic.catalog.table("Emp").row_count == EMP_ROWS
    assert chaotic.catalog.table("Dept").row_count == DEPT_ROWS
    chaotic.fault_injector = None
    assert len(chaotic.sql("SELECT E.name AS c0 FROM Emp E").rows) == EMP_ROWS
    return outcomes


@pytest.mark.parametrize("rate", FAULT_RATES)
def test_chaos_suite_identical_results_or_clean_typed_failure(rate):
    outcomes = _chaos_run(rate)
    assert len(outcomes) == QUERY_COUNT
    succeeded = sum(1 for o in outcomes if o[0] == "ok")
    # Retries absorb most faults: the suite must not collapse even at the
    # highest rate.
    assert succeeded > QUERY_COUNT // 2, f"only {succeeded} queries survived"
    # At any positive rate, some retries must have happened overall.
    assert sum(o[2] for o in outcomes) > 0


def test_chaos_outcomes_are_deterministic():
    first = _chaos_run(0.05, count=60)
    second = _chaos_run(0.05, count=60)
    assert first == second


@pytest.mark.parametrize("rate", FAULT_RATES)
def test_chaos_suite_with_adaptive_execution(rate):
    """The robustness contract holds with mid-query re-optimization armed.

    Adaptive execution inserts CHECK operators into every plan, so even
    queries whose estimates are in range exercise the extra machinery
    under injected faults.  Results must still match the fault-free
    static baseline (or fail with a typed error), and no checkpoint
    temps may leak from successful runs.
    """
    outcomes = _chaos_run(rate, count=100, adaptive=True)
    assert len(outcomes) == 100
    succeeded = sum(1 for o in outcomes if o[0] == "ok")
    assert succeeded > 50, f"only {succeeded} queries survived"
    assert sum(o[2] for o in outcomes) > 0


def test_chaos_adaptive_outcomes_are_deterministic():
    first = _chaos_run(0.05, count=40, adaptive=True)
    second = _chaos_run(0.05, count=40, adaptive=True)
    assert first == second


@pytest.mark.parametrize("rate", FAULT_RATES)
def test_chaos_suite_under_columnar_engine(rate):
    """The robustness contract is engine-independent.

    Runs on the serial columnar engine.  It prices plans with the
    vectorized cost model and pulls storage in its own order, so its
    fault schedule may differ from the row-batch engine's, but every
    query must still return the fault-free rows or fail typed, with the
    session intact afterwards.
    """
    outcomes = _chaos_run(rate, count=60, columnar=True)
    assert len(outcomes) == 60
    succeeded = sum(1 for o in outcomes if o[0] == "ok")
    assert succeeded > 30, f"only {succeeded} queries survived"
    assert sum(o[2] for o in outcomes) > 0


def test_chaos_columnar_outcomes_are_deterministic():
    """Columnar-engine chaos outcomes reproduce exactly (see above)."""
    first = _chaos_run(0.05, count=40, columnar=True)
    second = _chaos_run(0.05, count=40, columnar=True)
    assert first == second


@pytest.mark.parametrize("rate", FAULT_RATES)
def test_chaos_limit_queries_terminate_cleanly(rate):
    """Windowed queries under faults: LIMIT's early pipeline close must
    not corrupt results or leak state when storage errors interleave
    with early termination.  The unique ORDER BY key makes the expected
    window exact, not just a multiset."""
    from tests.test_differential import generate_limit_query

    clean = _make_db()
    chaotic = _make_db(rate=rate)
    rng = random.Random(SEED + 7)
    succeeded = 0
    for _ in range(40):
        sql, _unwindowed = generate_limit_query(rng)
        expected = clean.sql(sql).rows
        try:
            result = chaotic.sql(sql)
        except ReproError:
            continue
        except Exception as error:  # pragma: no cover - the bug we hunt
            pytest.fail(f"untyped error under chaos for {sql!r}: {error!r}")
        assert result.rows == expected, f"[rate={rate}] {sql}"
        succeeded += 1
    assert succeeded > 20, f"only {succeeded} windowed queries survived"
    assert len(chaotic.sql("SELECT D.name AS c0 FROM Dept D LIMIT 3").rows) == 3


def _trap_chaos_run(seed: int, rate: float = 0.05):
    """Run the misestimate trap under faults with adaptivity enabled."""
    from tests.test_adaptive import TRAP_SQL, _build_trap_db

    injector = FaultInjector(
        FaultConfig(
            seed=seed,
            page_read_error_rate=rate,
            index_lookup_error_rate=rate,
        )
    )
    db = _build_trap_db(
        adaptive=AdaptiveConfig(enabled=True), fault_injector=injector
    )
    try:
        result = db.sql(TRAP_SQL)
    except ReproError as error:
        return ("failed", type(error).__name__, None, None)
    state = result.context.adaptive
    assert state.materialized == {}, "leaked checkpoint temps"
    return (
        "ok",
        "",
        tuple(state.replay_key()),
        tuple(sorted(result.rows)),
    )


def test_trap_reoptimization_survives_chaos():
    """Faults injected while a CHECK fires and the remainder is replanned.

    Every seeded run must either reproduce the fault-free rows exactly
    or fail with a typed error; at least one seed must survive all the
    way through a mid-query re-optimization.
    """
    from tests.test_adaptive import TRAP_SQL, _build_trap_db

    oracle = tuple(sorted(_build_trap_db().sql(TRAP_SQL).rows))
    reopt_survivals = 0
    for seed in (1, 2, 3):
        outcome = _trap_chaos_run(seed)
        if outcome[0] == "ok":
            assert outcome[3] == oracle, f"row mismatch under seed {seed}"
            if any(action == "reoptimized" for _, _, action in outcome[2]):
                reopt_survivals += 1
    assert reopt_survivals >= 1, "no seed survived a chaotic re-optimization"


def test_trap_chaos_outcome_is_deterministic():
    assert _trap_chaos_run(11) == _trap_chaos_run(11)


def test_different_seeds_produce_different_schedules():
    def run(seed):
        db = _make_db(rate=0.2, seed=seed)
        rng = random.Random(SEED)
        for _ in range(20):
            try:
                db.sql(generate_query(rng))
            except ReproError:
                pass
        return db.fault_injector.injected_faults

    # Not a hard guarantee for arbitrary seeds, but these two differ.
    assert run(1) != run(2)


# ----------------------------------------------------------------------
# Chaos DML: fault-hardened write paths
# ----------------------------------------------------------------------
_EMP_CONTENT = "SELECT E.emp_no, E.name, E.dept_no, E.sal, E.age FROM Emp E"
_DEPT_CONTENT = "SELECT D.dept_no, D.budget FROM Dept D"


def _make_write_chaos_db(rate: float, seed: int = SEED) -> Database:
    """A DML target with faults armed on the *write* path only.

    Read faults are deliberately off: the atomicity contract under test
    is that a statement interrupted mid-write leaves the table
    bit-identical to its pre-statement state, and isolating the write
    sites (page writes, WAL appends) pins the blame when it fails.
    """
    injector = None
    if rate > 0.0:
        injector = FaultInjector(
            FaultConfig(
                seed=seed,
                page_write_error_rate=rate,
                wal_append_error_rate=rate,
            )
        )
    db = Database(fault_injector=injector)
    build_emp_dept(
        db.catalog,
        emp_rows=60,
        dept_rows=12,
        rng=random.Random(3),
    )
    db.analyze()
    return db


def _contents(db: Database):
    return sorted(
        tuple(row) for row in db.sql(_EMP_CONTENT).rows
    ), sorted(tuple(row) for row in db.sql(_DEPT_CONTENT).rows)


def _dml_statements(count: int, seed: int = SEED):
    from tests.oracle.test_dml_differential import DmlGen

    gen = DmlGen(random.Random(seed))
    return [gen.statement() for _ in range(count)]


@pytest.mark.parametrize("rate", FAULT_RATES)
def test_chaos_dml_statements_are_atomic(rate):
    """A mid-statement write fault must leave zero torn statements.

    Every failed statement's table contents are bit-identical to the
    pre-statement state; every survivor matches a fault-free database
    applying the identical statement.  After the storm, crash+recover
    replays the WAL to exactly the committed state -- and recovering a
    second time changes nothing.
    """
    clean = _make_write_chaos_db(0.0)
    chaotic = _make_write_chaos_db(rate)
    failures = 0
    for sql in _dml_statements(80):
        before = _contents(chaotic)
        try:
            chaotic.sql(sql)
        except ReproError:
            failures += 1
            assert _contents(chaotic) == before, f"torn statement: {sql}"
            continue
        except Exception as error:  # pragma: no cover - the bug we hunt
            pytest.fail(f"untyped error under write chaos: {error!r}")
        clean.sql(sql)
        assert _contents(chaotic) == _contents(clean), f"divergence: {sql}"
    # Faults genuinely fired at every rate; retries absorb most of them
    # (failure needs a whole retry budget of consecutive hits), so the
    # guaranteed-failure atomicity check lives in the 95%-rate test.
    assert chaotic.fault_injector.injected_faults > 0
    # Crash and recover: the WAL holds exactly the committed statements.
    committed = _contents(chaotic)
    chaotic.crash()
    assert chaotic.recover(), "recovery replayed no tables"
    assert _contents(chaotic) == committed
    chaotic.recover()
    assert _contents(chaotic) == committed, "recovery is not idempotent"


def test_chaos_dml_failed_statements_leave_no_trace():
    """At a fault rate beyond the retry budget, statements *must* fail --
    and every failure must be typed, retryable-or-not, and traceless."""
    chaotic = _make_write_chaos_db(0.95)
    failures = 0
    for sql in _dml_statements(30):
        before = _contents(chaotic)
        try:
            chaotic.sql(sql)
        except ReproError:
            failures += 1
            assert _contents(chaotic) == before, f"torn statement: {sql}"
        except Exception as error:  # pragma: no cover - the bug we hunt
            pytest.fail(f"untyped error under write chaos: {error!r}")
    assert failures > 0, "a 95% write-fault rate produced no failures"


def test_chaos_dml_outcomes_are_deterministic():
    def run():
        chaotic = _make_write_chaos_db(0.20)
        outcomes = []
        for sql in _dml_statements(50):
            try:
                result = chaotic.sql(sql)
            except ReproError as error:
                outcomes.append(("failed", type(error).__name__))
                continue
            outcomes.append(("ok", result.rows[0][0]))
        outcomes.append(("faults", chaotic.fault_injector.injected_faults))
        return outcomes

    assert run() == run()


def test_recovery_restores_each_committed_prefix():
    """crash(prefix) + recover() for *every* WAL prefix is exact.

    The state after recovering a truncated WAL must equal replaying the
    first k statements on a clean database, where k is the number of
    COMMIT records the prefix retains -- a transaction whose COMMIT fell
    past the truncation point contributes nothing, no matter how many of
    its row records survive.
    """
    from repro.storage import wal as wal_module

    statements = _dml_statements(10, seed=SEED + 3)

    def run_statements(db: Database, upto: int) -> None:
        for sql in statements[:upto]:
            db.sql(sql)

    reference = _make_write_chaos_db(0.0)
    run_statements(reference, len(statements))
    records = reference.txn_manager.wal.records()
    commit_positions = [
        index
        for index, record in enumerate(records)
        if record.kind == wal_module.COMMIT
    ]
    assert len(commit_positions) == len(statements)

    # Every prefix: expected state is the first-k-committed replay.
    for prefix in range(len(records) + 1):
        k = sum(1 for position in commit_positions if position < prefix)
        expected = _make_write_chaos_db(0.0)
        run_statements(expected, k)
        replay = _make_write_chaos_db(0.0)
        run_statements(replay, len(statements))
        replay.crash(wal_prefix=prefix)
        replay.recover()
        assert _contents(replay) == _contents(expected), (
            f"prefix {prefix} (k={k}) diverged"
        )
        replay.recover()
        assert _contents(replay) == _contents(expected), (
            f"prefix {prefix}: second recovery changed state"
        )
