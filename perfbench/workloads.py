"""The three benchmark workloads: data, statements and why each exists.

Every workload drives ``repro.Database()`` with default settings through
its public API (``sql``, ``prepare``, ``execute_prepared``, ``crash``,
``recover``).  Inputs are a pure function of the seed: ``build`` loads
the tables, ``prepare`` registers prepared statements, ``ops`` yields
the statement stream of the timed loop, and ``write_ops`` the autocommit
writes of the write phases run between pieces of it (see
``run.write_phase``).  The program only ever sees the generated SQL text
and parameter values.

Sizes are chosen against the program's own caches: the 128-entry
``PlanCache`` and the 256-page per-query ``BufferPool``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.datagen import build_emp_dept, build_star_schema


@dataclass(frozen=True)
class Op:
    """One operation the closed-loop client sends.

    ``text`` is the SQL sent to ``Database.sql``, or, when ``prepared`` is
    set, the prepared statement's defining SQL (what the oracle runs with
    ``params``).  ``joins`` and ``subquery`` feed the workload census.
    """

    kind: str  # "read" or "write"
    text: str
    prepared: Optional[str] = None
    params: Tuple = ()
    joins: int = 0
    subquery: bool = False


@dataclass(frozen=True)
class Sizes:
    emp: int = 0
    dept: int = 0
    sales: int = 0
    dim: int = 0
    # Writes of one write phase (the log crash()+recover() replays) and
    # its timed recoveries.  The machine's speed swings within tenths of
    # a second, so cheap writes and recoveries get more samples.
    phase_writes: int = 0
    recoveries: int = 0


class Workload:
    """Base class: subclasses define the data, statements and sizes."""

    name = ""
    # A loop without writes takes its write latencies from the write
    # phases; every workload takes recovery time from them.
    writes_in_loop = False
    # The table ``write_ops`` writes to.
    write_table = "Emp"

    def __init__(self, smoke: bool = False) -> None:
        self.sizes = self.SMOKE if smoke else self.FULL

    def build(self, db, seed: int) -> None:
        raise NotImplementedError

    def prepare(self, db) -> None:
        """Register prepared statements (part of set-up)."""

    def warmup_ops(self, seed: int) -> List[Op]:
        """Reads run once during set-up, results discarded."""
        return []

    def ops(self, seed: int) -> Iterator[Op]:
        raise NotImplementedError

    def write_ops(self, seed: int) -> Iterator[Op]:
        raise NotImplementedError


# One block of autocommit writes by primary key, shuffled per block: the
# write mix of txn_mix, which the write phase of every workload reuses.
WRITE_BLOCK = ["update"] * 4 + ["insert"] * 2 + ["delete"] * 2


def keyed_writes(rng: random.Random, table: str, key: str, rows: int,
                 update: Callable[[random.Random, int], str],
                 insert: Callable[[random.Random, int], str]) -> Iterator[Op]:
    """Endless UPDATE/INSERT/DELETE by ``key`` on a table of ``rows`` rows
    keyed 1..rows.  ``update`` and ``insert`` render the statement for a
    key; deletes pick a random live key, so the table keeps its size."""
    live = list(range(1, rows + 1))
    fresh = iter(range(rows + 1, 10 ** 9))
    while True:
        block = list(WRITE_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "update":
                yield Op("write", update(rng, rng.choice(live)))
            elif kind == "insert":
                new = next(fresh)
                live.append(new)
                yield Op("write", insert(rng, new))
            else:
                position = rng.randrange(len(live))
                live[position], live[-1] = live[-1], live[position]
                yield Op("write",
                         f"DELETE FROM {table} WHERE {key} = {live.pop()}")


def emp_writes(rng: random.Random, sizes: Sizes) -> Iterator[Op]:
    """txn_mix's writes: salary/age updates, hires and departures in Emp."""

    def update(rng: random.Random, key: int) -> str:
        if rng.random() < 0.5:
            return (f"UPDATE Emp SET sal = {rng.randint(30_000, 150_000)}.25 "
                    f"WHERE emp_no = {key}")
        return f"UPDATE Emp SET age = {rng.randint(21, 65)} WHERE emp_no = {key}"

    def insert(rng: random.Random, key: int) -> str:
        return ("INSERT INTO Emp (emp_no, name, dept_no, sal, age) VALUES "
                f"({key}, 'new_{key}', {rng.randint(1, sizes.dept)}, "
                f"{rng.randint(30_000, 150_000)}.5, {rng.randint(21, 65)})")

    return keyed_writes(rng, "Emp", "emp_no", sizes.emp, update, insert)


# ----------------------------------------------------------------------
# join_planning: optimizer-bound multi-way joins, every text unique
# ----------------------------------------------------------------------
class JoinPlanning(Workload):
    """4- to 7-way Emp/Dept chain joins plus 20% correlated subqueries.

    Emp 1000 rows is 7 pages (fits the pool).  Literals vary per call,
    so every text is new and every call misses the plan cache: the time
    goes to rewrite and System-R enumeration, not execution.
    """

    name = "join_planning"
    FULL = Sizes(emp=1000, dept=40, phase_writes=104, recoveries=10)
    SMOKE = Sizes(emp=200, dept=20, phase_writes=8, recoveries=2)

    def build(self, db, seed: int) -> None:
        build_emp_dept(
            db.catalog,
            emp_rows=self.sizes.emp,
            dept_rows=self.sizes.dept,
            rng=random.Random(seed),
        )

    def warmup_ops(self, seed: int) -> List[Op]:
        stream = self.ops(seed + 1_000_003)
        return [next(stream) for _ in range(20)]

    def write_ops(self, seed: int) -> Iterator[Op]:
        return emp_writes(random.Random(seed * 7919 + 41), self.sizes)

    def ops(self, seed: int) -> Iterator[Op]:
        # Shapes cycle in a fixed order (one subquery in five, chains of
        # 4..7 relations in turn) so every run has the same mix; only the
        # literals are random.
        rng = random.Random(seed * 7919 + 11)
        position = 0
        while True:
            if position % 5 == 4:
                yield self._subquery(rng, (position // 5) % 4)
            else:
                yield self._chain(rng, 4 + (position - position // 5) % 4)
            position += 1

    def _emp_window(self, rng: random.Random, alias: str) -> str:
        width = rng.randint(4, 24)
        low = rng.randint(1, max(1, self.sizes.emp - width))
        return f"{alias}.emp_no BETWEEN {low} AND {low + width}"

    def _chain(self, rng: random.Random, relations: int) -> Op:
        # E1 - D1 - E2 - D2 - ... : each Emp joins its Dept on dept_no,
        # each Dept joins the next Emp through its manager (1:1), so the
        # result stays as small as the selective window on E1.
        aliases: List[str] = []
        for position in range(relations):
            aliases.append(f"E{position // 2 + 1}" if position % 2 == 0
                           else f"D{position // 2 + 1}")
        tables = ", ".join(
            f"{'Emp' if alias[0] == 'E' else 'Dept'} {alias}" for alias in aliases
        )
        predicates = [self._emp_window(rng, "E1")]
        for left, right in zip(aliases, aliases[1:]):
            if left[0] == "E":
                predicates.append(f"{left}.dept_no = {right}.dept_no")
            else:
                predicates.append(f"{left}.mgr = {right}.emp_no")
        for alias in aliases[1:]:
            roll = rng.random()
            if alias[0] == "E" and roll < 0.3:
                predicates.append(f"{alias}.age > {rng.randint(21, 40)}")
            elif alias[0] == "D" and roll < 0.3:
                predicates.append(
                    f"{alias}.budget > {rng.randint(50, 300) * 1000}.5"
                )
        last = aliases[-1]
        columns = f"E1.name, {last}.name, E1.sal"
        text = (
            f"SELECT {columns} FROM {tables} WHERE " + " AND ".join(predicates)
        )
        return Op("read", text, joins=relations - 1)

    def _subquery(self, rng: random.Random, shape: int) -> Op:
        window = self._emp_window(rng, "E")
        if shape == 0:
            text = (
                "SELECT E.name, D.name, E.sal FROM Emp E, Dept D "
                f"WHERE E.dept_no = D.dept_no AND {window} AND E.sal > "
                "(SELECT AVG(E2.sal) FROM Emp E2 WHERE E2.dept_no = E.dept_no)"
            )
            joins = 1
        elif shape == 1:
            text = (
                "SELECT E.name, D.loc FROM Emp E, Dept D, Emp M "
                f"WHERE E.dept_no = D.dept_no AND D.mgr = M.emp_no AND {window} "
                "AND EXISTS (SELECT E2.emp_no FROM Emp E2 "
                "WHERE E2.dept_no = E.dept_no AND E2.age > E.age)"
            )
            joins = 2
        elif shape == 2:
            text = (
                "SELECT E.name, E.age FROM Emp E, Dept D "
                f"WHERE E.dept_no = D.dept_no AND {window} AND E.emp_no IN "
                "(SELECT E2.emp_no FROM Emp E2 WHERE E2.dept_no = E.dept_no "
                f"AND E2.sal > {rng.randint(40, 120) * 1000}.5)"
            )
            joins = 1
        else:
            text = (
                "SELECT E.name, D.name FROM Emp E, Dept D, Emp M, Dept D2 "
                "WHERE E.dept_no = D.dept_no AND D.mgr = M.emp_no "
                f"AND M.dept_no = D2.dept_no AND {window} AND D.dept_no IN "
                "(SELECT D3.dept_no FROM Dept D3 "
                f"WHERE D3.budget > {rng.randint(50, 300) * 1000}.5)"
            )
            joins = 3
        return Op("read", text, joins=joins, subquery=True)


# ----------------------------------------------------------------------
# star_analytics: execution-bound scans over a fact table larger than
# the buffer pool, a fixed cycle of texts that always hit the plan cache
# ----------------------------------------------------------------------
class StarAnalytics(Workload):
    """A fixed cycle of 7 analytic texts over Sales (>= 50k rows).

    An odd count keeps p50 inside one text's latencies instead of on the
    edge between two.

    Sales at 50k rows is 295 pages, more than the 256-page pool, so
    scans read through it.  Three 50-row dimensions.  After warm-up every
    call but the Dim3 key join hits the plan cache (the feedback trigger
    keeps re-planning that one); execution is nearly all the time.

    Its write phase maintains a dimension (Dim1 attribute updates, new
    and retired members): a fact-table UPDATE or DELETE costs ~0.4 s at
    50k rows, too slow to sample.
    """

    name = "star_analytics"
    FULL = Sizes(sales=50_000, dim=50, phase_writes=200, recoveries=40)
    SMOKE = Sizes(sales=3_000, dim=20, phase_writes=8, recoveries=2)
    write_table = "Dim1"

    def build(self, db, seed: int) -> None:
        build_star_schema(
            db.catalog,
            fact_rows=self.sizes.sales,
            dimension_count=3,
            dimension_rows=self.sizes.dim,
            rng=random.Random(seed),
        )

    def texts(self, seed: int) -> List[Op]:
        rng = random.Random(seed * 7919 + 23)
        # Constants vary with the seed but keep each text's selectivity
        # (and so its work) nearly the same from seed to seed.
        amount = 990 + rng.randint(0, 5)
        qty = rng.randint(1, 20)
        attr = rng.randint(48, 52)
        qty_cut = rng.randint(14, 15)
        cheap = rng.randint(240, 260)
        dim_key = rng.randint(1, self.sizes.dim)
        return [
            Op("read",
               "SELECT S.sale_id, S.amount, S.quantity FROM Sales S "
               f"WHERE S.amount > {amount}.0"),
            Op("read",
               "SELECT S.d2_id, COUNT(*), SUM(S.amount), MAX(S.quantity) "
               f"FROM Sales S WHERE S.quantity > {qty_cut} GROUP BY S.d2_id"),
            Op("read",
               "SELECT D.category, SUM(S.quantity), COUNT(*) FROM Sales S, Dim1 D "
               f"WHERE S.d1_id = D.id AND S.amount < {cheap}.0 GROUP BY D.category",
               joins=1),
            Op("read",
               "SELECT A.category, B.category, C.category, SUM(S.amount), COUNT(*) "
               "FROM Sales S, Dim1 A, Dim2 B, Dim3 C WHERE S.d1_id = A.id "
               f"AND S.d2_id = B.id AND S.d3_id = C.id AND A.attr < {attr} "
               f"AND S.quantity <= {20 - qty_cut} "
               "GROUP BY A.category, B.category, C.category",
               joins=3),
            Op("read",
               "SELECT S.sale_id, S.amount FROM Sales S "
               f"WHERE S.quantity = {qty} ORDER BY S.amount DESC, S.sale_id LIMIT 20"),
            Op("read",
               "SELECT S.sale_id, S.quantity, D.attr FROM Sales S, Dim3 D "
               f"WHERE S.d3_id = D.id AND S.d3_id = {dim_key} AND S.quantity > 15",
               joins=1),
            Op("read",
               "SELECT DISTINCT S.d1_id, S.quantity FROM Sales S "
               f"WHERE S.amount < {1000 - amount}.0"),
        ]

    def warmup_ops(self, seed: int) -> List[Op]:
        return self.texts(seed)

    def ops(self, seed: int) -> Iterator[Op]:
        cycle = self.texts(seed)
        while True:
            yield from cycle

    def write_ops(self, seed: int) -> Iterator[Op]:
        def update(rng: random.Random, key: int) -> str:
            return f"UPDATE Dim1 SET attr = {rng.randint(1, 100)} WHERE id = {key}"

        def insert(rng: random.Random, key: int) -> str:
            return (f"INSERT INTO Dim1 VALUES ({key}, {rng.randint(1, 100)}, "
                    f"'{rng.choice(['gold', 'silver', 'bronze'])}')")

        return keyed_writes(random.Random(seed * 7919 + 43), "Dim1", "id",
                            self.sizes.dim, update, insert)


# ----------------------------------------------------------------------
# txn_mix: prepared point/range reads interleaved with autocommit DML
# ----------------------------------------------------------------------
POINT_READ = (
    "SELECT E.emp_no, E.name, E.sal, E.age FROM Emp E WHERE E.emp_no = ?"
)
RANGE_AGG = (
    "SELECT COUNT(*), SUM(E.sal), MAX(E.age) FROM Emp E "
    "WHERE E.emp_no BETWEEN ? AND ?"
)


class TxnMix(Workload):
    """45% prepared PK point reads, 15% prepared range aggregates and 40%
    autocommit UPDATE/INSERT/DELETE by primary key.

    Emp 20k rows is 137 pages (fits the pool).  Every commit bumps the
    catalog version, so prepared plans re-optimize after each write.  The
    loop's writes give write latency; a write phase (one block of the
    same writes on a fresh copy) gives recovery time.
    """

    name = "txn_mix"
    FULL = Sizes(emp=20_000, dept=50, phase_writes=8, recoveries=3)
    SMOKE = Sizes(emp=1_000, dept=20, phase_writes=8, recoveries=2)
    writes_in_loop = True

    def build(self, db, seed: int) -> None:
        build_emp_dept(
            db.catalog,
            emp_rows=self.sizes.emp,
            dept_rows=self.sizes.dept,
            rng=random.Random(seed),
        )

    def prepare(self, db) -> None:
        db.prepare("point_read", POINT_READ)
        db.prepare("range_agg", RANGE_AGG)

    def warmup_ops(self, seed: int) -> List[Op]:
        rng = random.Random(seed * 7919 + 5)
        return [self._point(rng) for _ in range(3)] + [
            self._range(rng) for _ in range(2)
        ]

    def _point(self, rng: random.Random) -> Op:
        key = rng.randint(1, self.sizes.emp)
        return Op("read", POINT_READ, prepared="point_read", params=(key,))

    def _range(self, rng: random.Random) -> Op:
        low = rng.randint(1, self.sizes.emp)
        return Op("read", RANGE_AGG, prepared="range_agg",
                  params=(low, low + rng.randint(50, 400)))

    # One block of 20 operations, shuffled per block: the mix is exact in
    # every run, only the order and the keys are random.  The 8 writes of
    # a block are one WRITE_BLOCK (4 updates, 2 inserts, 2 deletes).
    BLOCK = ["point"] * 9 + ["range"] * 3 + ["write"] * len(WRITE_BLOCK)

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed * 7919 + 31)
        writes = emp_writes(random.Random(seed * 7919 + 37), self.sizes)
        while True:
            block = list(self.BLOCK)
            rng.shuffle(block)
            for kind in block:
                if kind == "point":
                    yield self._point(rng)
                elif kind == "range":
                    yield self._range(rng)
                else:
                    yield next(writes)

    def write_ops(self, seed: int) -> Iterator[Op]:
        return emp_writes(random.Random(seed * 7919 + 41), self.sizes)


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (JoinPlanning, StarAnalytics, TxnMix)
}

