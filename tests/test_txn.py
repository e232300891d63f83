"""Unit tests for the transaction layer: MVCC visibility, WAL replay,
statement rollback, first-writer-wins conflicts, vacuum, and the
commit-driven cache invalidation the upper layers hang off it.

The storage-level tests below drive :class:`TransactionManager` and
:class:`HeapTable` directly -- no SQL, no planner -- so a failure names
the broken layer.  The Database-level pins at the bottom then check the
one rule the whole design leans on: *no version counter moves until
commit*, and at commit every derived structure (plan cache, columnar
image cache, feedback store, statistics) is invalidated exactly once.
"""

from __future__ import annotations

import pytest

from repro.catalog import Column, ColumnType
from repro.catalog.schema import TableSchema
from repro.core.optimizer import Database
from repro.errors import SerializationError, TransactionError
from repro.storage.table import HeapTable
from repro.storage.txn import TransactionManager
from repro.storage.wal import COMMIT, INSERT, WalRecord, WriteAheadLog


def _table() -> HeapTable:
    schema = TableSchema(
        "T", [Column("id", ColumnType.INT), Column("v", ColumnType.STR)]
    )
    table = HeapTable(schema)
    table.insert((1, "seed"))
    return table


def _manager_with_table():
    manager = TransactionManager()
    table = _table()
    return manager, table


# ----------------------------------------------------------------------
# MVCC visibility
# ----------------------------------------------------------------------
def test_uncommitted_insert_is_invisible_to_other_snapshots():
    manager, table = _manager_with_table()
    writer = manager.begin()
    manager.register_write(writer, "T", table)
    manager.begin_statement(writer)
    row_id = table.mvcc_insert((2, "new"), writer.txid)
    writer.note_insert("T", table, row_id, (2, "new"))
    manager.end_statement(writer)

    # The writer sees its own row; a reader snapshot does not.
    assert table.row_visible(row_id, writer.snapshot)
    reader = manager.read_snapshot()
    assert not table.row_visible(row_id, reader)
    assert [row for _, row in table.visible_rows(reader)] == [(1, "seed")]
    manager.release_snapshot(reader)

    manager.commit(writer)
    # Snapshots taken after commit see it; read-latest sees it too.
    late = manager.read_snapshot()
    assert table.row_visible(row_id, late)
    manager.release_snapshot(late)
    assert table.row_visible(row_id, None)


def test_snapshot_taken_before_commit_stays_stable():
    manager, table = _manager_with_table()
    reader = manager.read_snapshot()
    writer = manager.begin()
    manager.register_write(writer, "T", table)
    manager.begin_statement(writer)
    row_id = table.mvcc_insert((2, "new"), writer.txid)
    writer.note_insert("T", table, row_id, (2, "new"))
    manager.end_statement(writer)
    manager.commit(writer)
    # Committed after the reader's snapshot: still invisible to it.
    assert not table.row_visible(row_id, reader)
    assert table.row_visible(row_id, None)
    manager.release_snapshot(reader)


def test_aborted_transaction_rows_never_become_visible():
    manager, table = _manager_with_table()
    writer = manager.begin()
    manager.register_write(writer, "T", table)
    manager.begin_statement(writer)
    row_id = table.mvcc_insert((2, "doomed"), writer.txid)
    writer.note_insert("T", table, row_id, (2, "doomed"))
    delete_target = 0
    table.mvcc_delete(delete_target, writer.txid)
    writer.note_delete("T", table, delete_target, (1, "seed"))
    # Before end-of-statement the writer sees its own uncommitted world.
    assert not table.row_visible(delete_target, writer.snapshot)
    assert table.row_visible(row_id, writer.snapshot)
    manager.end_statement(writer)
    manager.abort(writer)
    # Abort undoes everything, then the quiescent vacuum folds the heap
    # flat -- contents (not stale row ids) are the abort contract.
    assert [row for _, row in table.visible_rows(None)] == [(1, "seed")]
    assert table.is_flat


def test_statement_rollback_is_exact_and_leaves_txn_usable():
    manager, table = _manager_with_table()
    txn = manager.begin()
    manager.register_write(txn, "T", table)

    manager.begin_statement(txn)
    row_id = table.mvcc_insert((2, "a"), txn.txid)
    txn.note_insert("T", table, row_id, (2, "a"))
    manager.end_statement(txn)

    # Second statement fails mid-way: only ITS writes unwind.
    manager.begin_statement(txn)
    doomed = table.mvcc_insert((3, "b"), txn.txid)
    txn.note_insert("T", table, doomed, (3, "b"))
    table.mvcc_delete(0, txn.txid)
    txn.note_delete("T", table, 0, (1, "seed"))
    manager.rollback_statement(txn)

    visible = [row for _, row in table.visible_rows(txn.snapshot)]
    assert sorted(visible) == [(1, "seed"), (2, "a")]
    manager.commit(txn)
    assert sorted(row for _, row in table.visible_rows(None)) == [
        (1, "seed"),
        (2, "a"),
    ]


def test_first_writer_wins_raises_typed_retryable_conflict():
    manager, table = _manager_with_table()
    first = manager.begin()
    second = manager.begin()
    manager.register_write(first, "T", table)
    manager.register_write(second, "T", table)
    manager.begin_statement(first)
    table.mvcc_delete(0, first.txid)
    first.note_delete("T", table, 0, (1, "seed"))
    manager.end_statement(first)

    manager.begin_statement(second)
    with pytest.raises(SerializationError) as info:
        table.mvcc_delete(0, second.txid)
    assert info.value.retryable is True
    assert info.value.table == "T"
    assert info.value.row_id == 0
    manager.rollback_statement(second)
    manager.abort(second)
    manager.commit(first)
    assert [row for _, row in table.visible_rows(None)] == []


def test_double_commit_and_commit_after_abort_are_typed_errors():
    manager, _table_unused = _manager_with_table()
    txn = manager.begin()
    manager.commit(txn)
    with pytest.raises(TransactionError):
        manager.commit(txn)
    other = manager.begin()
    manager.abort(other)
    with pytest.raises(TransactionError):
        manager.commit(other)


# ----------------------------------------------------------------------
# WAL: checkpoints, replay purity, truncation
# ----------------------------------------------------------------------
def test_wal_replay_is_a_pure_function_of_the_retained_log():
    wal = WriteAheadLog()
    wal.ensure_checkpoint("T", [(1, "seed")])
    wal.append(WalRecord(INSERT, txid=7, table="T", values=(2, "a")))
    wal.append(WalRecord(COMMIT, txid=7))
    wal.append(WalRecord(INSERT, txid=8, table="T", values=(3, "b")))
    # txid 8 never committed: its record is dead weight.
    first = wal.replay()
    second = wal.replay()
    assert first == second == {"T": [(1, "seed"), (2, "a")]}


def test_wal_truncation_drops_commits_past_the_prefix():
    wal = WriteAheadLog()
    wal.ensure_checkpoint("T", [])
    wal.append(WalRecord(INSERT, txid=1, table="T", values=(1, "a")))
    wal.append(WalRecord(COMMIT, txid=1))
    wal.append(WalRecord(INSERT, txid=2, table="T", values=(2, "b")))
    wal.append(WalRecord(COMMIT, txid=2))
    # Cut between the two commits: only txid 1 survives.  The checkpoint
    # is out-of-band state and survives any truncation.
    wal.truncate(2)
    assert wal.replay() == {"T": [(1, "a")]}
    wal.truncate(0)
    assert wal.replay() == {"T": []}


def test_checkpoint_is_taken_once_and_never_overwritten():
    wal = WriteAheadLog()
    wal.ensure_checkpoint("T", [(1, "original")])
    wal.ensure_checkpoint("T", [(2, "later")])
    assert wal.replay() == {"T": [(1, "original")]}
    assert wal.checkpointed_tables() == ["T"]


# ----------------------------------------------------------------------
# Vacuum
# ----------------------------------------------------------------------
def test_vacuum_folds_dead_versions_only_when_quiescent():
    manager, table = _manager_with_table()
    txn = manager.begin()
    manager.register_write(txn, "T", table)
    manager.begin_statement(txn)
    row_id = table.mvcc_insert((2, "a"), txn.txid)
    txn.note_insert("T", table, row_id, (2, "a"))
    table.mvcc_delete(0, txn.txid)
    txn.note_delete("T", table, 0, (1, "seed"))
    manager.end_statement(txn)

    pinned = manager.read_snapshot()
    manager.commit(txn)  # commit runs maybe_vacuum, but a pin blocks it
    assert not table.is_flat, "vacuum ran under a pinned snapshot"
    # The pinned snapshot still reads the pre-commit world.
    assert [row for _, row in table.visible_rows(pinned)] == [(1, "seed")]
    manager.release_snapshot(pinned)
    manager.maybe_vacuum()
    assert table.is_flat, "vacuum skipped a quiescent fold"
    assert table.rows() == [(2, "a")]


# ----------------------------------------------------------------------
# Commit-driven invalidation (Database-level regression pins)
# ----------------------------------------------------------------------
def _emp_db(**kwargs) -> Database:
    db = Database(**kwargs)
    table = db.create_table(
        "Emp",
        [
            Column("emp_no", ColumnType.INT, nullable=False),
            Column("sal", ColumnType.FLOAT),
        ],
        primary_key=["emp_no"],
    )
    table.insert_many([(n, 1000.0 * n) for n in range(1, 21)])
    db.create_table(
        "Dept", [Column("dept_no", ColumnType.INT, nullable=False)]
    ).insert_many([(n,) for n in range(1, 4)])
    db.analyze()
    return db


def test_no_version_counter_moves_before_commit():
    db = _emp_db()
    table = db.catalog.table("Emp")
    db.sql("BEGIN")
    db.sql("INSERT INTO Emp (emp_no, sal) VALUES (100, 5.0)")
    catalog_version = db.catalog.version
    data_version = table.data_version
    db.sql("UPDATE Emp SET sal = sal + 1 WHERE emp_no = 1")
    db.sql("DELETE FROM Emp WHERE emp_no = 2")
    assert db.catalog.version == catalog_version, "catalog bumped mid-txn"
    assert table.data_version == data_version, "data version bumped mid-txn"
    db.sql("COMMIT")
    assert db.catalog.version > catalog_version
    assert table.data_version > data_version


def test_commit_invalidates_cached_plans():
    db = _emp_db()
    sql = "SELECT E.emp_no AS k FROM Emp E WHERE E.sal > 3000"
    db.sql(sql)
    assert db.sql(sql).from_plan_cache is True
    db.sql("INSERT INTO Emp (emp_no, sal) VALUES (100, 9000.0)")
    result = db.sql(sql)
    assert result.from_plan_cache is False, "stale plan survived a commit"
    assert (100,) in result.rows


def test_commit_invalidates_columnar_image_cache():
    db = _emp_db(columnar_mode=True)
    sql = "SELECT COUNT(*) AS c FROM Emp E"
    assert db.sql(sql).rows == [(20,)]
    db.sql("INSERT INTO Emp (emp_no, sal) VALUES (100, 1.0)")
    assert db.sql(sql).rows == [(21,)], "columnar image cache went stale"
    db.sql("DELETE FROM Emp WHERE emp_no = 100")
    assert db.sql(sql).rows == [(20,)]


def test_commit_invalidates_feedback_for_written_table_only():
    db = _emp_db()
    assert db.feedback is not None
    db.feedback.record("(Emp.sal > 3000)", 0.25)
    db.feedback.record("(Dept.dept_no > 1)", 0.5)
    db.sql("UPDATE Emp SET sal = sal + 1 WHERE emp_no = 1")
    assert db.feedback.observed("(Emp.sal > 3000)") is None, (
        "stale Emp selectivity survived the commit"
    )
    assert db.feedback.observed("(Dept.dept_no > 1)") is not None, (
        "commit on Emp dropped an unrelated table's feedback"
    )


def test_commit_refreshes_stats_row_counts():
    db = _emp_db()
    assert db.catalog.stats("Emp").row_count == 20.0
    db.sql("INSERT INTO Emp (emp_no, sal) VALUES (100, 1.0), (101, 2.0)")
    assert db.catalog.stats("Emp").row_count == 22.0
    db.sql("DELETE FROM Emp WHERE emp_no >= 100")
    assert db.catalog.stats("Emp").row_count == 20.0


def test_rollback_moves_no_versions_and_invalidates_nothing():
    db = _emp_db()
    table = db.catalog.table("Emp")
    sql = "SELECT COUNT(*) AS c FROM Emp E"
    db.sql(sql)
    catalog_version = db.catalog.version
    data_version = table.data_version
    db.sql("BEGIN")
    db.sql("INSERT INTO Emp (emp_no, sal) VALUES (100, 1.0)")
    db.sql("ROLLBACK")
    assert db.catalog.version == catalog_version
    assert db.sql(sql).from_plan_cache is True, "rollback evicted a plan"
    assert db.sql(sql).rows == [(20,)]


def test_dml_rejects_parameter_markers():
    from repro.errors import SqlError

    db = _emp_db()
    with pytest.raises(SqlError):
        db.sql("INSERT INTO Emp (emp_no, sal) VALUES (?, ?)")


# ----------------------------------------------------------------------
# Review fixes: writer-thread atomicity, unique enforcement, abort paths
# ----------------------------------------------------------------------
def test_concurrent_mvcc_inserts_assign_distinct_attributed_row_ids():
    """Many writer threads appending concurrently: every insert must get
    a row id that names *its own* row, with xmin stamped on that same
    row -- the race the per-table mutation lock closes."""
    import threading

    manager, table = _manager_with_table()
    per_thread = 200
    recorded: list = []
    failures: list = []
    barrier = threading.Barrier(8)

    def writer(thread_no: int):
        try:
            txn = manager.begin()
            manager.register_write(txn, "T", table)
            manager.begin_statement(txn)
            barrier.wait(timeout=10)
            mine = []
            for i in range(per_thread):
                value = (thread_no * 10_000 + i, f"{thread_no}:{i}")
                row_id = table.mvcc_insert(value, txn.txid)
                txn.note_insert("T", table, row_id, value)
                mine.append((row_id, value, txn.txid))
            manager.end_statement(txn)
            recorded.append(mine)
            manager.commit(txn)
        except Exception as error:  # pragma: no cover - failure reporting
            failures.append(error)

    threads = [
        threading.Thread(target=writer, args=(n,), name=f"mvcc-writer-{n}")
        for n in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not failures, failures
    flat = [entry for mine in recorded for entry in mine]
    assert len(flat) == 8 * per_thread
    row_ids = [row_id for row_id, _value, _txid in flat]
    assert len(set(row_ids)) == len(row_ids), "row ids were reused"
    # Every committed row holds exactly the value its inserter recorded.
    for row_id, value, _txid in flat:
        assert table.fetch(row_id) == value, "row id attributed to wrong row"


def test_concurrent_deletes_of_one_row_lose_exactly_once():
    """Two racing deleters of the same row version: exactly one wins,
    the other gets SerializationError -- atomically, over many rounds."""
    import threading

    for _round in range(50):
        manager, table = _manager_with_table()
        outcomes: list = []
        barrier = threading.Barrier(2)

        def deleter():
            txn = manager.begin()
            manager.register_write(txn, "T", table)
            manager.begin_statement(txn)
            barrier.wait(timeout=10)
            try:
                table.mvcc_delete(0, txn.txid)
                txn.note_delete("T", table, 0, (1, "seed"))
                manager.end_statement(txn)
                outcomes.append("won")
                manager.commit(txn)
            except SerializationError:
                outcomes.append("lost")
                manager.rollback_statement(txn)
                manager.abort(txn)

        threads = [threading.Thread(target=deleter) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert sorted(outcomes) == ["lost", "won"], outcomes
        assert [row for _, row in table.visible_rows(None)] == []


def _unique_emp_db() -> Database:
    db = _emp_db()
    db.create_index("idx_emp_pk", "Emp", ["emp_no"], unique=True)
    return db


def test_unique_index_rejects_duplicate_insert_at_statement_level():
    from repro.errors import StorageError

    db = _unique_emp_db()
    with pytest.raises(StorageError):
        db.sql("INSERT INTO Emp (emp_no, sal) VALUES (1, 9.0)")
    # The failed statement aborted cleanly: nothing in the active set,
    # contents and stats untouched, and fresh keys still insert fine.
    assert not db.txn_manager.active
    assert db.sql("SELECT COUNT(*) AS c FROM Emp E").rows == [(20,)]
    assert db.catalog.stats("Emp").row_count == 20.0
    db.sql("INSERT INTO Emp (emp_no, sal) VALUES (100, 9.0)")
    assert db.sql("SELECT COUNT(*) AS c FROM Emp E").rows == [(21,)]


def test_unique_violation_rolls_back_whole_multi_row_insert():
    from repro.errors import StorageError

    db = _unique_emp_db()
    with pytest.raises(StorageError):
        db.sql("INSERT INTO Emp (emp_no, sal) VALUES (200, 1.0), (1, 2.0)")
    result = db.sql(
        "SELECT COUNT(*) AS c FROM Emp E WHERE E.emp_no = 200"
    )
    assert result.rows == [(0,)], "torn statement: first row survived"
    assert db.sql("SELECT COUNT(*) AS c FROM Emp E").rows == [(20,)]


def test_update_keeping_unique_key_is_not_a_false_positive():
    db = _unique_emp_db()
    db.sql("UPDATE Emp SET sal = 123.0 WHERE emp_no = 3")
    rows = db.sql(
        "SELECT E.sal AS s FROM Emp E WHERE E.emp_no = 3"
    ).rows
    assert rows == [(123.0,)]


def test_update_to_existing_unique_key_rolls_back():
    from repro.errors import StorageError

    db = _unique_emp_db()
    with pytest.raises(StorageError):
        db.sql("UPDATE Emp SET emp_no = 2 WHERE emp_no = 1")
    rows = db.sql(
        "SELECT E.emp_no AS k, E.sal AS s FROM Emp E "
        "WHERE E.emp_no <= 2 ORDER BY E.emp_no"
    ).rows
    assert rows == [(1, 1000.0), (2, 2000.0)], "update was not rolled back"


def test_non_repro_exception_still_aborts_autocommit_txn():
    """Any failure -- not just ReproError -- must roll the statement
    back and abort the autocommit transaction, or the txid stays active
    forever and blocks vacuum."""
    db = _emp_db()
    table = db.catalog.table("Emp")

    def boom(row_id, txid):
        raise RuntimeError("injected non-repro failure")

    table.mvcc_delete = boom
    try:
        with pytest.raises(RuntimeError):
            db.sql("DELETE FROM Emp WHERE emp_no = 1")
    finally:
        del table.mvcc_delete
    assert not db.txn_manager.active, "autocommit txn leaked into active set"
    assert db.sql("SELECT COUNT(*) AS c FROM Emp E").rows == [(20,)]
    db.txn_manager.maybe_vacuum()
    assert table.is_flat


def test_commit_stats_ignore_other_transactions_in_flight_writes():
    """Stats refreshed at commit must not count rows another transaction
    has inserted but not yet committed."""
    db = _emp_db()
    manager = db.txn_manager
    table = db.catalog.table("Emp")
    inflight = manager.begin()
    manager.register_write(inflight, "Emp", table)
    manager.begin_statement(inflight)
    row_id = table.mvcc_insert((500, 1.0), inflight.txid)
    inflight.note_insert("Emp", table, row_id, (500, 1.0))
    manager.end_statement(inflight)

    db.sql("INSERT INTO Emp (emp_no, sal) VALUES (100, 1.0)")
    assert db.catalog.stats("Emp").row_count == 21.0, (
        "uncommitted in-flight row leaked into persisted stats"
    )
    manager.commit(inflight)
    assert db.catalog.stats("Emp").row_count == 22.0


# ----------------------------------------------------------------------
# Incremental index maintenance and commit-time row counts
# ----------------------------------------------------------------------
class _Session:
    """A second client: runs statements on its own thread, because an
    explicit transaction belongs to the thread that opened it."""

    def __init__(self, db: Database) -> None:
        import queue
        import threading

        self._db = db
        self._jobs: "queue.Queue" = queue.Queue()
        self._results: "queue.Queue" = queue.Queue()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while True:
            text = self._jobs.get()
            if text is None:
                return
            try:
                self._results.put((True, self._db.sql(text)))
            except Exception as error:  # handed back to the caller
                self._results.put((False, error))

    def sql(self, text: str):
        self._jobs.put(text)
        ok, value = self._results.get(timeout=30)
        if not ok:
            raise value
        return value

    def close(self) -> None:
        self._jobs.put(None)
        self._thread.join(timeout=30)


def _keyed_db() -> Database:
    """T(k unique, g, v) with ordered indexes on k and g and hash
    indexes on k (unique) and g, analyzed."""
    db = Database()
    table = db.create_table(
        "T",
        [
            Column("k", ColumnType.INT, nullable=False),
            Column("g", ColumnType.INT),
            Column("v", ColumnType.INT),
        ],
    )
    table.insert_many(
        [(k, k % 7 if k % 11 else None, k * 3) for k in range(1, 121)]
    )
    db.create_index("idx_t_k", "T", ["k"], unique=True)
    db.create_index("idx_t_g", "T", ["g"])
    db.catalog.create_hash_index("hidx_t_k", "T", ["k"], unique=True)
    db.catalog.create_hash_index("hidx_t_g", "T", ["g"])
    db.analyze()
    return db


def _assert_quiescent_invariants(db: Database) -> None:
    """Every index equals a fresh build of its table, the statistics'
    row count is the live row count, and a live key still violates the
    unique indexes."""
    from repro.errors import StorageError
    from repro.storage.index import HashIndex, OrderedIndex

    assert not db.txn_manager.active
    table = db.catalog.table("T")
    assert table.is_flat, "a quiescent vacuum left version metadata"
    for index in db.catalog.indexes_on("T"):
        fresh = OrderedIndex(index.definition, table)
        assert list(index.ordered_entries()) == list(fresh.ordered_entries()), (
            f"{index.definition.name} drifted from a fresh build"
        )
    for index in db.catalog.hash_indexes_on("T"):
        fresh = HashIndex(index.definition, table)
        assert index._buckets == fresh._buckets, (
            f"{index.definition.name} drifted from a fresh build"
        )
    live = sum(1 for _ in table.visible_rows(None))
    assert db.catalog.stats("T").row_count == live
    if live:
        key = table.rows()[len(table.rows()) // 2][0]
        with pytest.raises(StorageError):
            db.sql(f"INSERT INTO T (k, g, v) VALUES ({key}, 1, 1)")
        assert not db.txn_manager.active


def _random_statement(rng) -> str:
    kind = rng.choice(
        ["insert", "insert", "update_key", "update_k", "update_range",
         "update_scan", "delete_key", "delete_group", "delete_range"]
    )
    k = rng.randint(1, 200)
    if kind == "insert":
        g = rng.choice([None, rng.randint(0, 9)])
        return (f"INSERT INTO T (k, g, v) VALUES "
                f"({k}, {'NULL' if g is None else g}, {rng.randint(0, 99)})")
    if kind == "update_key":
        return f"UPDATE T SET g = {rng.randint(0, 9)}, v = v + 1 WHERE k = {k}"
    if kind == "update_k":
        # Moves a key; collides (a statement rollback) when k+1 is live.
        return f"UPDATE T SET k = k + 1 WHERE k >= {k} AND k < {k + 3}"
    if kind == "update_range":
        return f"UPDATE T SET v = v * 2 WHERE k BETWEEN {k} AND {k + 9}"
    if kind == "update_scan":
        return f"UPDATE T SET g = NULL WHERE v = {rng.randint(0, 99)}"
    if kind == "delete_key":
        return f"DELETE FROM T WHERE k = {k}"
    if kind == "delete_group":
        return f"DELETE FROM T WHERE g = {rng.randint(0, 9)} AND k > {k}"
    return f"DELETE FROM T WHERE k > {k} AND k <= {k + 4}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_indexes_and_row_counts_stay_exact_through_seeded_dml(seed):
    """Seeded scripts of autocommit writes, explicit transactions that
    commit or roll back, failed statements inside them, write-write
    conflicts with a second session, and crash()+recover(); after every
    quiescent point the incrementally maintained indexes and row counts
    must equal what a rebuild and a recount give."""
    import random

    from repro.errors import StorageError

    rng = random.Random(seed)
    db = _keyed_db()
    other = _Session(db)
    expected = (StorageError, SerializationError)
    try:
        for _step in range(90):
            roll = rng.random()
            if roll < 0.55:
                try:
                    db.sql(_random_statement(rng))
                except expected:
                    pass
            elif roll < 0.8:
                db.sql("BEGIN")
                try:
                    for _ in range(rng.randint(1, 4)):
                        try:
                            db.sql(_random_statement(rng))
                        except StorageError:
                            pass  # statement rollback; txn stays open
                    db.sql("COMMIT" if rng.random() < 0.6 else "ROLLBACK")
                except SerializationError:
                    pass
            elif roll < 0.93:
                k = rng.choice(db.catalog.table("T").rows())[0]
                other.sql("BEGIN")
                other.sql(f"UPDATE T SET v = -1 WHERE k = {k}")
                with pytest.raises(SerializationError):
                    db.sql(f"DELETE FROM T WHERE k = {k}")
                other.sql("COMMIT" if rng.random() < 0.5 else "ROLLBACK")
            else:
                other.sql("BEGIN")
                try:
                    other.sql(_random_statement(rng))
                except expected:
                    pass
                db.crash()
                db.recover()
            _assert_quiescent_invariants(db)
    finally:
        other.close()


def test_concurrent_commits_never_lose_a_row_count_delta():
    """Commit hooks of concurrent writers each move the row count; a lost
    read-modify-write would leave it short of the live count."""
    import sys
    import threading

    db = _keyed_db()

    def writer(base: int) -> None:
        for k in range(base, base + 40):
            db.sql(f"INSERT INTO T (k, g, v) VALUES ({k}, 1, 1)")
        for k in range(base, base + 10):
            db.sql(f"DELETE FROM T WHERE k = {k}")

    threads = [
        threading.Thread(target=writer, args=(1000 * n,)) for n in range(1, 5)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    db.txn_manager.maybe_vacuum()
    assert db.catalog.stats("T").row_count == 120 + 4 * 30
    _assert_quiescent_invariants(db)


def test_vacuum_compacts_indexes_and_only_recovery_rebuilds():
    db = _keyed_db()
    rebuilt = []
    original = db.catalog.rebuild_indexes
    db.catalog.rebuild_indexes = lambda name: (rebuilt.append(name), original(name))
    db.txn_manager.index_rebuilder = db.catalog.rebuild_indexes
    table = db.catalog.table("T")
    keys = [row[0] for row in table.rows()]
    db.sql("UPDATE T SET v = 0 WHERE k BETWEEN 5 AND 7")
    assert [row[0] for row in table.rows()] == keys, (
        "vacuum moved updated rows out of their slots"
    )
    db.sql("DELETE FROM T WHERE k BETWEEN 10 AND 20")
    assert rebuilt == [], "vacuum re-sorted indexes instead of compacting"
    _assert_quiescent_invariants(db)
    db.crash()
    db.recover()
    assert rebuilt == ["T"]
    _assert_quiescent_invariants(db)


def test_keyed_writes_read_their_matches_not_the_table():
    """UPDATE/DELETE whose predicate binds an index's leading column seek
    it: no sequential pass over the heap, one data page per match."""
    db = _keyed_db()
    table = db.catalog.table("T")
    db.sql("INSERT INTO T (k, g, v) SELECT T.k + 1000, T.g, T.v FROM T T")
    db.sql("INSERT INTO T (k, g, v) SELECT T.k + 2000, T.g, T.v FROM T T")
    db.sql("INSERT INTO T (k, g, v) SELECT T.k + 4000, T.g, T.v FROM T T")
    assert table.page_count >= 3
    for text in ("UPDATE T SET v = 0 WHERE k = 60",
                 "DELETE FROM T WHERE k > 2050 AND k <= 2052"):
        counters = db.sql(text).context.counters
        assert counters.seq_page_reads == 0, text
        assert counters.random_page_reads <= 4, text
    assert db.sql("SELECT T.v FROM T T WHERE T.k = 60").rows == [(0,)]
    assert db.sql("SELECT COUNT(*) FROM T T WHERE T.k > 2050").rows == [(668,)]
    _assert_quiescent_invariants(db)


def test_analyze_inside_a_transaction_counts_committed_rows_only():
    """ANALYZE is the base commit-time deltas move: rows a still-open
    transaction wrote must not be in it, or its commit counts them twice."""
    db = _keyed_db()
    db.sql("BEGIN")
    db.sql("INSERT INTO T (k, g, v) VALUES (500, 1, 1), (501, 1, 1)")
    db.sql("DELETE FROM T WHERE k <= 3")
    db.analyze()
    assert db.catalog.stats("T").row_count == 120
    db.sql("COMMIT")
    _assert_quiescent_invariants(db)
    assert db.catalog.stats("T").row_count == 119


def test_analyze_racing_a_commit_never_counts_it_twice():
    """An ANALYZE from another thread that runs as soon as a commit's rows
    are committed must see the commit either counted or moved by its
    delta, never both.  The commit hook placed first is the earliest
    point a commit exposes after its rows become committed; ANALYZE runs
    there on a second thread and finishes before the commit returns."""
    import threading

    db = _keyed_db()
    manager = db.txn_manager

    def analyze_on_another_thread(_txn) -> None:
        thread = threading.Thread(target=db.analyze)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()

    manager.commit_hooks.insert(0, analyze_on_another_thread)
    db.sql("INSERT INTO T (k, g, v) VALUES (500, 1, 1)")
    manager.commit_hooks.remove(analyze_on_another_thread)
    assert db.catalog.table("T").committed_row_count() == 121
    assert db.catalog.stats("T").row_count == 121
    _assert_quiescent_invariants(db)
