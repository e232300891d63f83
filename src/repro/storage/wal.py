"""Write-ahead log of logical undo/redo records with crash simulation.

The log records *logical* operations (row values, not byte images): an
insert carries the inserted row, a delete the deleted row, an update both
the old and new rows.  Statements buffer their records on the owning
transaction and flush them to the shared log atomically at statement end,
so the log never contains a torn statement.  Commit durability is a
single ``commit`` record: recovery replays exactly the transactions whose
commit record survives in the retained prefix.

Checkpoints are kept out-of-band (not subject to ``crash`` truncation):
the first DML against a table snapshots its committed rows, and recovery
rebuilds the table as checkpoint + redo of committed records.  Because
every logged mutation happens after the checkpoint was taken, this is
correct for *any* prefix of the record list -- which is what the chaos
suite exercises.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

Row = Tuple[Any, ...]

# Record kinds.
INSERT = "insert"
DELETE = "delete"
UPDATE = "update"
COMMIT = "commit"
ABORT = "abort"


class WalRecord(NamedTuple):
    """One logical log record (a named tuple: the log keeps every record
    of the session, so each one is as small as a tuple can be).

    Attributes:
        kind: ``insert`` / ``delete`` / ``update`` / ``commit`` / ``abort``.
        txid: the owning transaction.
        table: target table name (empty for commit/abort).
        values: inserted row, deleted row, or the *new* row of an update.
        old_values: the pre-image row of an update.
    """

    kind: str
    txid: int
    table: str = ""
    values: Optional[Row] = None
    old_values: Optional[Row] = None


def _same_row(a: Row, b: Row) -> bool:
    """Row equality with NaN treated as identical to NaN (a redo replay
    must find the row it logged even when a float column holds NaN)."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x is y or x == y:
            continue
        if isinstance(x, float) and isinstance(y, float) and x != x and y != y:
            continue
        return False
    return True


class WriteAheadLog:
    """An append-only record list plus out-of-band table checkpoints."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._records: List[WalRecord] = []
        self._checkpoints: Dict[str, List[Row]] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def records(self) -> List[WalRecord]:
        """A snapshot copy of the record list."""
        with self._lock:
            return list(self._records)

    def checkpointed_tables(self) -> List[str]:
        with self._lock:
            return list(self._checkpoints)

    def ensure_checkpoint(self, table: str, rows: Iterable[Row]) -> None:
        """Snapshot a table's committed rows the first time it is written.

        Idempotent: later calls are no-ops, so the checkpoint always
        reflects the state before any logged mutation of the table.
        """
        with self._lock:
            if table not in self._checkpoints:
                self._checkpoints[table] = [tuple(row) for row in rows]

    def append(self, record: WalRecord) -> None:
        with self._lock:
            self._records.append(record)

    def extend(self, records: Iterable[WalRecord]) -> None:
        """Append a statement's records atomically (statement-atomic log)."""
        with self._lock:
            self._records.extend(records)

    def truncate(self, prefix: Optional[int] = None) -> None:
        """Simulate losing the log tail: keep only the first ``prefix``
        records (``None`` keeps everything -- a crash that lost no log)."""
        with self._lock:
            if prefix is not None:
                self._records = self._records[: max(0, prefix)]

    def replay(self) -> Dict[str, List[Row]]:
        """Rebuild every checkpointed table's committed-only image.

        Returns a dict of table name -> row list: the checkpoint plus the
        redo of every record whose transaction has a ``commit`` record in
        the retained log.  Deterministic and idempotent: a pure function
        of (checkpoints, records).
        """
        with self._lock:
            records = list(self._records)
            images = {
                name: list(rows) for name, rows in self._checkpoints.items()
            }
        committed = {r.txid for r in records if r.kind == COMMIT}
        for rec in records:
            if rec.txid not in committed:
                continue
            rows = images.get(rec.table)
            if rows is None:
                continue
            if rec.kind == INSERT:
                assert rec.values is not None
                rows.append(rec.values)
            elif rec.kind == DELETE:
                assert rec.values is not None
                for i, row in enumerate(rows):
                    if _same_row(row, rec.values):
                        del rows[i]
                        break
            elif rec.kind == UPDATE:
                assert rec.values is not None and rec.old_values is not None
                for i, row in enumerate(rows):
                    if _same_row(row, rec.old_values):
                        rows[i] = rec.values
                        break
        return images
