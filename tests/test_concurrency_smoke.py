"""Thread-safety smoke tests: concurrent sessions over one Database.

The workload harness (benchmarks/workload/) replays traffic from many
client threads against a single shared ``Database``, which makes three
pieces of shared mutable state load-bearing:

* prepared-statement parameter bindings (now thread-local -- a module
  global here meant one session could evaluate another's values),
* the plan cache (LRU order + counters under a lock),
* the cardinality-feedback store (entry blends + LRU under a lock).

The first test pins the parameter-leak fix deterministically with
events, no timing luck involved; the rest hammer the shared structures
from many threads and check invariants that torn updates would break.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import Database
from repro.core.optimizer import PlanCache
from repro.datagen import build_emp_dept
from repro.expr.evaluator import bind_parameters, evaluate
from repro.expr.expressions import Param
from repro.expr.schema import StreamSchema
from repro.stats.feedback import CardinalityFeedback

from tests.conftest import assert_same_rows

CLIENTS = 8
QUERIES_PER_CLIENT = 12


# ----------------------------------------------------------------------
# Parameter bindings are per-thread (pinned regression)
# ----------------------------------------------------------------------
def test_parameter_bindings_do_not_leak_across_threads():
    """Two interleaved sessions must each see their own bound values.

    The interleaving is forced with events: thread A binds, then waits
    until thread B has bound *different* values, then evaluates its
    parameter.  With process-global bindings A would read B's value;
    with thread-local bindings each reads its own.
    """
    schema = StreamSchema.for_table("t", ["x"])
    a_bound = threading.Event()
    b_bound = threading.Event()
    results = {}
    errors = []

    def session(name: str, value: int, bound: threading.Event,
                wait_for: threading.Event):
        try:
            with bind_parameters([value]):
                bound.set()
                assert wait_for.wait(timeout=5.0)
                results[name] = evaluate(Param(0), (0,), schema)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
            bound.set()

    thread_a = threading.Thread(
        target=session, args=("a", 111, a_bound, b_bound)
    )
    thread_b = threading.Thread(
        target=session, args=("b", 222, b_bound, a_bound)
    )
    thread_a.start()
    thread_b.start()
    thread_a.join(timeout=10.0)
    thread_b.join(timeout=10.0)
    assert not errors
    assert results == {"a": 111, "b": 222}


def test_unbound_thread_sees_no_parameters():
    """A binding in one thread must be invisible to a fresh thread."""
    from repro.errors import ExecutionError

    schema = StreamSchema.for_table("t", ["x"])
    outcome = {}

    def probe():
        try:
            evaluate(Param(0), (0,), schema)
            outcome["raised"] = False
        except ExecutionError:
            outcome["raised"] = True

    with bind_parameters([42]):
        worker = threading.Thread(target=probe)
        worker.start()
        worker.join(timeout=10.0)
    assert outcome["raised"] is True


# ----------------------------------------------------------------------
# Shared Database: concurrent sessions agree with a single session
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shared_db() -> Database:
    db = Database()
    build_emp_dept(
        db.catalog,
        emp_rows=120,
        dept_rows=12,
        rng=random.Random(3),
        null_fraction=0.1,
    )
    db.analyze()
    return db


def test_concurrent_sessions_return_correct_rows(shared_db):
    """N threads replaying a mixed pool, every result checked.

    The pool mixes cache-friendly repeats with per-client prepared
    parameters so the plan cache sees concurrent hits, misses, and
    inserts while the feedback store harvests concurrently.
    """
    pool = [
        "SELECT E.emp_no AS k, E.sal AS s FROM Emp E WHERE E.age > 40",
        "SELECT D.dept_no AS g, COUNT(*) AS c FROM Emp E, Dept D"
        " WHERE E.dept_no = D.dept_no GROUP BY D.dept_no",
        "SELECT E.emp_no AS k FROM Emp E WHERE E.sal IS NULL",
        "SELECT E.emp_no AS k, E.name AS n FROM Emp E"
        " ORDER BY E.emp_no ASC LIMIT 10 OFFSET 5",
        "SELECT COUNT(*) AS c, AVG(E.sal) AS a FROM Emp E"
        " WHERE E.dept_no IS NOT NULL",
    ]
    references = {sql: shared_db.sql(sql).rows for sql in pool}
    param_sql = (
        "SELECT E.emp_no AS k FROM Emp E"
        " WHERE E.dept_no = ? ORDER BY E.emp_no ASC"
    )
    shared_db.prepare("by_dept", param_sql)
    param_refs = {
        dept: shared_db.execute_prepared("by_dept", dept).rows
        for dept in range(1, 13)
    }

    failures = []

    def client(client_no: int):
        rng = random.Random(1000 + client_no)
        try:
            for _ in range(QUERIES_PER_CLIENT):
                if rng.random() < 0.3:
                    dept = rng.randint(1, 12)
                    got = shared_db.execute_prepared("by_dept", dept).rows
                    want = param_refs[dept]
                else:
                    sql = rng.choice(pool)
                    got = shared_db.sql(sql).rows
                    want = references[sql]
                assert_same_rows(got, want)
        except Exception as exc:  # pragma: no cover - failure path
            failures.append((client_no, exc))

    threads = [
        threading.Thread(target=client, args=(n,)) for n in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not failures, failures


# ----------------------------------------------------------------------
# Plan cache and feedback store under contention
# ----------------------------------------------------------------------
def test_plan_cache_counters_consistent_under_contention(shared_db):
    """Hammer one PlanCache from many threads; invariants must hold."""
    cache = PlanCache(capacity=8)
    plan = shared_db.optimizer().optimize(
        "SELECT E.emp_no AS k FROM Emp E"
    )
    errors = []

    def worker(worker_no: int):
        rng = random.Random(worker_no)
        try:
            for i in range(300):
                key = PlanCache.key(f"q{rng.randint(0, 15)}")
                if rng.random() < 0.5:
                    cache.put(key, plan, catalog_version=1)
                else:
                    cache.get(key, catalog_version=1)
                if rng.random() < 0.05:
                    cache.evict(key)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not errors
    assert len(cache) <= cache.capacity
    assert cache.hits + cache.misses == cache.hits + cache.misses  # readable
    assert cache.hits >= 0 and cache.misses >= 0 and cache.evictions >= 0


def test_feedback_store_blends_survive_contention():
    """Concurrent record/observed calls never tear an entry.

    Observed selectivities are clamped to [1e-9, 1]; any torn read or
    lost-update corruption of the geometric blend shows up as a value
    outside the convex range of what was recorded.
    """
    store = CardinalityFeedback(capacity=32)
    keys = [f"(Emp.sal > {n})" for n in range(8)]
    errors = []

    def worker(worker_no: int):
        rng = random.Random(worker_no)
        try:
            for _ in range(400):
                key = rng.choice(keys)
                store.record(key, rng.choice([0.1, 0.2, 0.4]))
                hit = store.observed(key)
                if hit is not None:
                    observed, confidence = hit
                    assert 0.1 - 1e-9 <= observed <= 0.4 + 1e-9
                    assert 0.0 <= confidence <= 1.0
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not errors
    assert len(store) <= 32
    assert store.recorded == CLIENTS * 400


# ----------------------------------------------------------------------
# Admission stampede: many clients, few slots, typed outcomes only
# ----------------------------------------------------------------------
def test_admission_stampede_sheds_typed_and_never_hangs():
    """16 threads stampede a 4-slot admission queue.

    Every query must end one of exactly two ways: correct rows, or a
    typed *retryable* rejection (queue full / queue timeout).  A hang
    (thread still alive after the join deadline), an untyped error, or
    a wrong result all fail the test.
    """
    from repro.engine.admission import AdmissionConfig
    from repro.errors import AdmissionRejected

    db = Database(
        admission=AdmissionConfig(
            max_concurrency=4, queue_depth=4, queue_timeout_seconds=0.05
        )
    )
    build_emp_dept(
        db.catalog, emp_rows=120, dept_rows=12, rng=random.Random(3)
    )
    db.analyze()
    pool = [
        "SELECT E.emp_no AS k, E.sal AS s FROM Emp E WHERE E.age > 40",
        "SELECT D.dept_no AS g, COUNT(*) AS c FROM Emp E, Dept D"
        " WHERE E.dept_no = D.dept_no GROUP BY D.dept_no",
        "SELECT E.emp_no AS k, E.name AS n FROM Emp E"
        " ORDER BY E.emp_no ASC LIMIT 10",
    ]
    references = {sql: db.sql(sql).rows for sql in pool}

    stampede_clients = 16
    queries_each = 8
    ok = []
    shed = []
    failures = []
    lock = threading.Lock()

    def client(client_no: int):
        rng = random.Random(5000 + client_no)
        for _ in range(queries_each):
            sql = rng.choice(pool)
            try:
                got = db.sql(sql).rows
            except AdmissionRejected as exc:
                if not exc.retryable:
                    with lock:
                        failures.append((client_no, "non-retryable", exc))
                    return
                with lock:
                    shed.append(exc.reason)
                continue
            except Exception as exc:  # pragma: no cover - failure path
                with lock:
                    failures.append((client_no, "untyped", exc))
                return
            try:
                assert_same_rows(got, references[sql])
            except AssertionError as exc:
                with lock:
                    failures.append((client_no, "wrong-rows", exc))
                return
            with lock:
                ok.append(client_no)

    threads = [
        threading.Thread(target=client, args=(n,), name=f"stampede-{n}")
        for n in range(stampede_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    hung = [thread.name for thread in threads if thread.is_alive()]
    assert not hung, f"stampede threads still alive: {hung}"
    assert not failures, failures
    assert len(ok) + len(shed) == stampede_clients * queries_each
    assert ok, "no query was ever admitted"
    snapshot = db.admission.snapshot()
    assert snapshot["running"] == 0
    assert snapshot["waiting"] == 0
    assert snapshot["peak_running"] <= 4


def test_transfer_committing_mid_scan_stays_invisible_to_the_scan():
    """A transaction that commits while a read is mid-scan is not in the
    read's result, even when it is the database's first write.

    One-row batches keep the scan suspended between rows; a UDF in the
    filter runs a whole transfer on another thread the first time it is
    called, so the commit lands deterministically between two rows of
    the scan.  The read must return the four pre-transfer rows.
    """
    from repro.catalog import Column, ColumnType
    from repro.cost.parameters import DEFAULT_PARAMETERS

    db = Database(params=DEFAULT_PARAMETERS.with_overrides(batch_size=1))
    table = db.create_table(
        "Acct",
        [
            Column("id", ColumnType.INT, nullable=False),
            Column("balance", ColumnType.INT, nullable=False),
        ],
        primary_key=["id"],
    )
    for account in range(4):
        table.insert((account, 100))
    db.analyze()

    def transfer() -> None:
        db.sql("BEGIN")
        db.sql("UPDATE Acct SET balance = balance - 1 WHERE id = 0")
        db.sql("UPDATE Acct SET balance = balance + 1 WHERE id = 3")
        db.sql("COMMIT")

    transfers = []

    def transfer_once(_balance) -> bool:
        if not transfers:
            writer = threading.Thread(target=transfer)
            transfers.append(writer)
            writer.start()
            writer.join(timeout=60)
            assert not writer.is_alive()
        return True

    db.register_udf("transfer_once", transfer_once)
    rows = db.sql(
        "SELECT A.id, A.balance FROM Acct A WHERE transfer_once(A.balance)"
    ).rows
    assert transfers, "the transfer never ran mid-scan"
    assert sorted(rows) == [(0, 100), (1, 100), (2, 100), (3, 100)]
    after = db.sql("SELECT A.id, A.balance FROM Acct A").rows
    assert sorted(after) == [(0, 99), (1, 100), (2, 100), (3, 101)]


# ----------------------------------------------------------------------
# Writer stampede: snapshot isolation and first-writer-wins conflicts
# ----------------------------------------------------------------------
def test_writer_stampede_conserves_money_and_loses_no_update():
    """8 writer threads transfer between accounts while readers audit.

    Each transaction moves 1 unit between two accounts inside
    BEGIN..COMMIT; a write-write collision surfaces as a typed,
    *retryable* :class:`SerializationError` and the loser retries from
    the top.  The invariants that any isolation bug would break:

    * readers never observe a torn transaction -- SUM(balance) is
      constant in every snapshot, even mid-stampede;
    * zero lost updates -- final per-account balances equal the initial
      values plus exactly the transfers that reported success;
    * every failure is the typed retryable conflict, nothing else.
    """
    from repro.catalog import Column, ColumnType
    from repro.errors import SerializationError

    accounts = 4
    initial = 100
    transfers_each = 10

    db = Database()
    table = db.create_table(
        "Acct",
        [
            Column("id", ColumnType.INT, nullable=False),
            Column("balance", ColumnType.INT, nullable=False),
        ],
        primary_key=["id"],
    )
    for account in range(accounts):
        table.insert((account, initial))
    db.analyze()

    committed = []  # (source, target) per successful transfer
    failures = []
    torn_reads = []
    stop_reading = threading.Event()
    lock = threading.Lock()

    def writer(client_no: int):
        rng = random.Random(7000 + client_no)
        for _ in range(transfers_each):
            source = rng.randrange(accounts)
            target = (source + rng.randint(1, accounts - 1)) % accounts
            while True:
                try:
                    db.sql("BEGIN")
                    db.sql(
                        "UPDATE Acct SET balance = balance - 1"
                        f" WHERE id = {source}"
                    )
                    db.sql(
                        "UPDATE Acct SET balance = balance + 1"
                        f" WHERE id = {target}"
                    )
                    db.sql("COMMIT")
                except SerializationError as exc:
                    # First-writer-wins burned this snapshot; the whole
                    # transaction was aborted, so retry from the top.
                    if not exc.retryable:
                        with lock:
                            failures.append((client_no, "non-retryable", exc))
                        return
                    continue
                except Exception as exc:  # pragma: no cover - failure path
                    with lock:
                        failures.append((client_no, "untyped", exc))
                    return
                with lock:
                    committed.append((source, target))
                break

    def reader():
        while not stop_reading.is_set():
            rows = db.sql("SELECT SUM(A.balance) AS s FROM Acct A").rows
            total = rows[0][0]
            if total != accounts * initial:
                torn_reads.append(total)
                return

    writers = [
        threading.Thread(target=writer, args=(n,), name=f"writer-{n}")
        for n in range(CLIENTS)
    ]
    readers = [threading.Thread(target=reader) for _ in range(2)]
    for thread in readers + writers:
        thread.start()
    for thread in writers:
        thread.join(timeout=120.0)
    stop_reading.set()
    for thread in readers:
        thread.join(timeout=30.0)

    hung = [thread.name for thread in writers if thread.is_alive()]
    assert not hung, f"writer threads still alive: {hung}"
    assert not failures, failures
    assert not torn_reads, f"reader saw a torn transaction: {torn_reads}"
    assert len(committed) == CLIENTS * transfers_each

    expected = [initial] * accounts
    for source, target in committed:
        expected[source] -= 1
        expected[target] += 1
    final = dict(
        (row[0], row[1])
        for row in db.sql("SELECT A.id, A.balance FROM Acct A").rows
    )
    assert final == {
        account: expected[account] for account in range(accounts)
    }, "lost update: committed transfers do not reconcile with balances"
    assert db.metrics.transactions_committed >= len(committed)

    # The stampede's collisions depend on scheduler timing, so force one
    # deterministic first-writer-wins overlap: the second writer to touch
    # a row another live transaction already wrote must get the typed
    # retryable conflict (and its transaction must abort without a trace).
    first_wrote = threading.Event()
    release_first = threading.Event()
    conflicts = []

    def first_writer():
        db.sql("BEGIN")
        db.sql("UPDATE Acct SET balance = balance + 1 WHERE id = 0")
        first_wrote.set()
        release_first.wait(timeout=30.0)
        db.sql("ROLLBACK")

    def second_writer():
        assert first_wrote.wait(timeout=30.0)
        try:
            db.sql("BEGIN")
            db.sql("UPDATE Acct SET balance = balance + 1 WHERE id = 0")
        except SerializationError as exc:
            conflicts.append(exc)
        finally:
            release_first.set()

    pair = [
        threading.Thread(target=first_writer),
        threading.Thread(target=second_writer),
    ]
    for thread in pair:
        thread.start()
    for thread in pair:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in pair)
    assert len(conflicts) == 1
    assert conflicts[0].retryable
    assert db.metrics.serialization_conflicts > 0
    audit = db.sql("SELECT SUM(A.balance) AS s FROM Acct A").rows
    assert audit[0][0] == accounts * initial
