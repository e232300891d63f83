"""Transactions, snapshots, and the MVCC lifecycle over heap tables.

Snapshot isolation in the classical MVCC formulation: each transaction
gets a txid and a frozen view of which transactions were in flight when
it began.  A row version is visible when its creator committed before
the snapshot and its deleter (if any) did not.  Readers never block
writers and vice versa; write-write conflicts are resolved
first-writer-wins, surfacing to the loser as a retryable
:class:`~repro.errors.SerializationError`.

Statement-level atomicity rides on per-statement undo lists: a failed
statement (injected storage fault, budget violation, conflict) rolls
back its own writes and leaves the table exactly as its snapshot saw it,
without disturbing earlier statements of the same transaction.

The manager also owns the write-ahead log (see :mod:`repro.storage.wal`)
and the vacuum that folds committed versions back into flat tables once
the system is quiescent, restoring the zero-overhead read paths.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import TransactionError
from repro.storage.table import HeapTable, Row
from repro.storage.wal import (
    ABORT,
    COMMIT,
    DELETE,
    INSERT,
    UPDATE,
    WalRecord,
    WriteAheadLog,
)


class Snapshot:
    """A frozen view of transaction state at a point in time.

    A creator txid ``x`` is committed-for-us iff ``x < high`` and ``x``
    was not active at snapshot time and ``x`` has not aborted.  The
    aborted set is a *live* reference to the manager's set: a
    transaction that aborts after our snapshot was never committed, so
    consulting the live set is always sound.

    Attributes:
        high: txids >= high began after this snapshot.
        active: txids in flight when the snapshot was taken.
        txid: the owning transaction (0 for read-only snapshots).
        aborted: live reference to the manager's aborted-txid set.
    """

    __slots__ = ("high", "active", "txid", "aborted")

    def __init__(
        self,
        high: int,
        active: FrozenSet[int],
        txid: int,
        aborted: Set[int],
    ) -> None:
        self.high = high
        self.active = active
        self.txid = txid
        self.aborted = aborted

    def __repr__(self) -> str:
        return f"Snapshot(high={self.high}, active={sorted(self.active)}, txid={self.txid})"


# Undo entry kinds.
_UNDO_INSERT = "insert"
_UNDO_DELETE = "delete"


class Transaction:
    """One transaction: snapshot, undo log, and buffered WAL records.

    Args:
        txid: unique monotonically-increasing id.
        snapshot: the isolation snapshot all statements read through.
        session: True for explicit BEGIN..COMMIT transactions, False for
            single-statement autocommit wrappers.
    """

    def __init__(self, txid: int, snapshot: Snapshot, session: bool = False) -> None:
        self.txid = txid
        self.snapshot = snapshot
        self.session = session
        self.state = "active"
        # Back-reference set by TransactionManager.begin; the DML
        # executors reach the manager through the transaction on the
        # execution context.
        self.manager: Optional["TransactionManager"] = None
        # Undo entries for every write still standing, in apply order:
        # ("insert", table, row_id) / ("delete", table, row_id).
        self.undo: List[Tuple[str, HeapTable, int]] = []
        # WAL records buffered for the current statement; flushed
        # atomically at statement end, dropped on statement rollback.
        self.stmt_records: List[WalRecord] = []
        self._stmt_undo_start = 0
        self.written: Dict[str, HeapTable] = {}
        self.rows_written = 0

    # -- write bookkeeping (called by the DML executors) ----------------
    # Table names are interned: the log keeps every record, and each
    # statement's parse made its own copy of the name.
    def note_insert(self, name: str, table: HeapTable, row_id: int, values: Row) -> None:
        self.undo.append((_UNDO_INSERT, table, row_id))
        self.stmt_records.append(
            WalRecord(INSERT, self.txid, sys.intern(name), tuple(values))
        )
        self.rows_written += 1

    def note_delete(self, name: str, table: HeapTable, row_id: int, values: Row) -> None:
        self.undo.append((_UNDO_DELETE, table, row_id))
        self.stmt_records.append(
            WalRecord(DELETE, self.txid, sys.intern(name), tuple(values))
        )
        self.rows_written += 1

    def note_update(
        self,
        name: str,
        table: HeapTable,
        old_row_id: int,
        new_row_id: int,
        old_values: Row,
        new_values: Row,
    ) -> None:
        self.undo.append((_UNDO_DELETE, table, old_row_id))
        self.undo.append((_UNDO_INSERT, table, new_row_id))
        self.stmt_records.append(
            WalRecord(
                UPDATE,
                self.txid,
                sys.intern(name),
                tuple(new_values),
                tuple(old_values),
            )
        )
        self.rows_written += 1

    def net_rows(self) -> Dict[str, int]:
        """Inserted minus deleted rows per written table, from the undo
        entries still standing (rolled-back statements left none)."""
        names = {id(table): name for name, table in self.written.items()}
        net = dict.fromkeys(self.written, 0)
        for kind, table, _row_id in self.undo:
            net[names[id(table)]] += 1 if kind == _UNDO_INSERT else -1
        return net

    def _apply_undo(self, entries: List[Tuple[str, HeapTable, int]]) -> None:
        for kind, table, row_id in reversed(entries):
            if kind == _UNDO_INSERT:
                table.undo_insert(row_id, self.txid)
            else:
                table.undo_delete(row_id)


class TransactionManager:
    """Allocates txids, tracks active/aborted sets, owns WAL and vacuum.

    Storage-pure: knows nothing about catalogs, plan caches, or
    statistics.  Higher layers register callbacks instead:

    * ``publish_hook`` runs once per writing commit in the critical
      section where the commit leaves the active set, under
      ``publish_lock``: the place to move whatever must agree with a
      count of committed rows (table row counts).  A higher layer
      installs its own lock as ``publish_lock`` and counts committed
      rows under it, so no count sees a commit half published.
    * ``commit_hooks`` run once per writing commit after it (catalog-
      version bump, plan cache / feedback invalidation).
    * ``index_compactor`` follows a vacuum in a table's indexes: drops
      the dead rows' entries and re-points the rows it moved.
    * ``index_rebuilder`` rebuilds a table's indexes after recovery
      replaces its rows.
    * ``recovery_hooks`` run after :meth:`recover` replaces table images,
      with the names of the tables it rebuilt.
    """

    def __init__(self, wal: Optional[WriteAheadLog] = None) -> None:
        self._lock = threading.RLock()
        self._next_txid = 1
        self.active: Set[int] = set()
        self.aborted: Set[int] = set()
        self.wal = wal if wal is not None else WriteAheadLog()
        self._tables: Dict[str, HeapTable] = {}
        self._pinned = 0
        self.publish_lock = threading.RLock()
        self.publish_hook: Optional[Callable[[Transaction], None]] = None
        self.commit_hooks: List[Callable[[Transaction], None]] = []
        self.recovery_hooks: List[Callable[[List[str]], None]] = []
        self.index_compactor: Optional[
            Callable[[str, List[Tuple[int, Row]], Dict[int, int]], None]
        ] = None
        self.index_rebuilder: Optional[Callable[[str], None]] = None
        self.commits = 0
        self.aborts = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin(self, session: bool = False) -> Transaction:
        """Start a transaction with a fresh snapshot."""
        with self._lock:
            txid = self._next_txid
            self._next_txid += 1
            snapshot = Snapshot(
                high=txid,
                active=frozenset(self.active),
                txid=txid,
                aborted=self.aborted,
            )
            self.active.add(txid)
            txn = Transaction(txid, snapshot, session=session)
            txn.manager = self
            return txn

    def read_snapshot(self) -> Snapshot:
        """Pin a read-only snapshot (blocks vacuum until released)."""
        with self._lock:
            self._pinned += 1
            return Snapshot(
                high=self._next_txid,
                active=frozenset(self.active),
                txid=0,
                aborted=self.aborted,
            )

    def release_snapshot(self, snapshot: Snapshot) -> None:
        with self._lock:
            self._pinned = max(0, self._pinned - 1)
        self.maybe_vacuum()

    def register_write(self, txn: Transaction, name: str, table: HeapTable) -> None:
        """First write of ``txn`` against ``table``: take the WAL
        checkpoint (idempotent) and wire the table into MVCC."""
        with self._lock:
            if name not in self._tables:
                self.wal.ensure_checkpoint(name, table.rows())
                table.attach_mvcc(self.aborted, self.active)
                self._tables[name] = table
            txn.written[name] = table

    # ------------------------------------------------------------------
    # Statement boundaries
    # ------------------------------------------------------------------
    def begin_statement(self, txn: Transaction) -> None:
        self._require_active(txn)
        txn._stmt_undo_start = len(txn.undo)
        txn.stmt_records = []

    def rollback_statement(self, txn: Transaction) -> None:
        """Undo the current statement completely: the table is returned
        bit-identical to the statement's starting state, and no WAL
        record of the statement survives."""
        txn._apply_undo(txn.undo[txn._stmt_undo_start :])
        del txn.undo[txn._stmt_undo_start :]
        txn.stmt_records = []

    def end_statement(self, txn: Transaction) -> None:
        """Flush the statement's buffered records atomically to the WAL."""
        if txn.stmt_records:
            self.wal.extend(txn.stmt_records)
            txn.stmt_records = []

    # ------------------------------------------------------------------
    # Commit / abort
    # ------------------------------------------------------------------
    def commit(self, txn: Transaction) -> None:
        """Commit: write the commit record, publish versions, run the
        invalidation hooks, and bump each written table's data version
        (the only point where versions ever move)."""
        with self.publish_lock, self._lock:
            self._require_active(txn)
            if txn.written:
                self.wal.append(WalRecord(COMMIT, txn.txid))
            self.active.discard(txn.txid)
            txn.state = "committed"
            self.commits += 1
            for table in txn.written.values():
                table.bump_data_version()
                table.runtime_cache.clear()
            if txn.written and self.publish_hook is not None:
                self.publish_hook(txn)
            hooks = list(self.commit_hooks) if txn.written else []
        for hook in hooks:
            hook(txn)
        self.maybe_vacuum()

    def abort(self, txn: Transaction) -> None:
        """Abort: undo every surviving write, mark the txid aborted.

        No version bumps: uncommitted rows were never visible, so every
        cached plan and column image built against committed state stays
        valid.
        """
        with self._lock:
            self._require_active(txn)
            txn._apply_undo(txn.undo)
            txn.undo = []
            txn.stmt_records = []
            self.aborted.add(txn.txid)
            self.active.discard(txn.txid)
            if txn.written:
                self.wal.append(WalRecord(ABORT, txn.txid))
            txn.state = "aborted"
            self.aborts += 1
        self.maybe_vacuum()

    def _require_active(self, txn: Transaction) -> None:
        if txn.state != "active":
            raise TransactionError(
                f"transaction {txn.txid} is already {txn.state}"
            )

    # ------------------------------------------------------------------
    # Vacuum
    # ------------------------------------------------------------------
    def maybe_vacuum(self) -> None:
        """Fold version metadata back into flat tables when quiescent.

        Runs only with no active transactions and no pinned snapshots,
        so nobody can observe the dead versions being reclaimed.  Dead
        rows are found from the sparse version maps; the heap fills their
        slots with its last rows and ``index_compactor`` fixes just those
        entries, so a vacuum costs the rows it reclaims, never a scan or
        a re-sort.  A table without dead rows keeps its row ids and
        needs no index work at all.
        """
        with self._lock:
            if self.active or self._pinned:
                return
            for name, table in self._tables.items():
                if table.is_flat:
                    continue
                dead = table.dead_row_ids()
                if dead:
                    removed, moved = table.compact(dead)
                    if self.index_compactor is not None:
                        self.index_compactor(name, removed, moved)
                else:
                    table._xmin.clear()
                    table._xmax.clear()

    # ------------------------------------------------------------------
    # Crash / recovery simulation
    # ------------------------------------------------------------------
    def crash(self, prefix: Optional[int] = None) -> None:
        """Simulate a crash: in-flight transactions are lost (treated as
        aborted) and the WAL tail past ``prefix`` records is gone."""
        with self._lock:
            self.wal.truncate(prefix)
            for txid in self.active:
                self.aborted.add(txid)
            self.active.clear()
            self._pinned = 0

    def recover(self) -> List[str]:
        """Rebuild every checkpointed table to committed-only state from
        the WAL.  Idempotent: a pure function of the retained log, so
        recover-twice is identical to recover-once.  Returns the names
        of the tables rebuilt."""
        with self._lock:
            images = self.wal.replay()
            rebuilt = []
            for name, rows in images.items():
                table = self._tables.get(name)
                if table is None:
                    continue
                table.replace_rows(rows)
                table.attach_mvcc(self.aborted, self.active)
                if self.index_rebuilder is not None:
                    self.index_rebuilder(name)
                rebuilt.append(name)
            hooks = list(self.recovery_hooks)
        for hook in hooks:
            hook(rebuilt)
        return rebuilt
