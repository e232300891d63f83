"""The optimizer facade and the user-facing Database API.

``Optimizer`` wires the pipeline together the way Section 2 describes
the two components of query evaluation: SQL text -> parse -> bind (QGM)
-> lower -> rewrite (Starburst-style rules) -> plan (System-R DP over
SPJ regions, operator mapping elsewhere) -> physical plan; the execution
engine then runs the plan.

``Database`` bundles a catalog with an optimizer and executor so the
examples read like using an embedded database.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Column
from repro.cost.parameters import DEFAULT_PARAMETERS, CostParameters
from repro.engine.adaptive import AdaptiveConfig, AdaptiveState
from repro.engine.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionTicket,
)
from repro.engine.context import ExecContext, QueryMetrics
from repro.engine.executor import execute
from repro.engine.governor import CancellationToken, QueryBudget
from repro.engine.interpreter import InterpreterStats, interpret
from repro.engine.runtime_stats import render_explain_analyze
from repro.errors import (
    AdmissionRejected,
    PrepareError,
    QueryCancelled,
    QueueTimeout,
    ReproError,
    SerializationError,
    SqlError,
    TransactionError,
)
from repro.storage.faults import FaultInjector
from repro.storage.txn import Transaction, TransactionManager
from repro.expr.schema import StreamSchema
from repro.logical.lower import lower_block
from repro.logical.operators import Get, LogicalOp
from repro.logical.qgm import QueryBlock
from repro.physical.plans import DeleteP, InsertP, PhysicalOp, UpdateP
from repro.sql.ast import (
    BeginStmt,
    CommitStmt,
    DeallocateStmt,
    DeleteStmt,
    ExecuteStmt,
    ExplainStmt,
    InsertStmt,
    PrepareStmt,
    RollbackStmt,
    SelectStmt,
    UpdateStmt,
)
from repro.sql.binder import Binder, UdfRegistration
from repro.sql.parser import normalize_sql, parse, parse_statement
from repro.core.physicalize import Physicalizer
from repro.core.rewrite import RewriteContext, RuleEngine, default_rule_engine
from repro.core.systemr.enumerator import EnumeratorConfig
from repro.stats.feedback import (
    CardinalityFeedback,
    collect_fingerprints,
    harvest_feedback,
)
from repro.stats.propagation import CardinalityEstimator
from repro.stats.summaries import TableStats, analyze_all, analyze_table


@dataclass
class OptimizedQuery:
    """The artifacts of optimizing one query."""

    block: QueryBlock
    logical: LogicalOp
    rewritten: LogicalOp
    physical: PhysicalOp
    rewrite_trace: List[str] = field(default_factory=list)

    def explain(self) -> str:
        """The physical plan rendering."""
        return self.physical.explain()


class Optimizer:
    """End-to-end query optimizer.

    Args:
        catalog: schema, data, statistics.
        params: cost-model parameters.
        config: join-enumerator knobs.
        udfs: registered user-defined functions.
        use_rewrites: run the Starburst-style rewrite phase (disable to
            measure its benefit, e.g. benchmark E6).
        feedback: optional cardinality-feedback store; observed
            selectivities correct the model's estimates everywhere this
            optimizer estimates cardinalities.
        adaptive: optional progressive-optimization config; when enabled
            the physicalizer wraps materialization points in validity-
            range CHECK operators (see :mod:`repro.engine.adaptive`).
    """

    def __init__(
        self,
        catalog: Catalog,
        params: CostParameters = DEFAULT_PARAMETERS,
        config: EnumeratorConfig = EnumeratorConfig(),
        udfs: Optional[Dict[str, UdfRegistration]] = None,
        use_rewrites: bool = True,
        rule_engine: Optional[RuleEngine] = None,
        use_materialized_views: bool = True,
        feedback: Optional[CardinalityFeedback] = None,
        adaptive: Optional[AdaptiveConfig] = None,
    ) -> None:
        self.catalog = catalog
        self.params = params
        self.config = config
        self.binder = Binder(catalog, udfs)
        self.use_rewrites = use_rewrites
        self.rule_engine = rule_engine or default_rule_engine()
        self.feedback = feedback
        self.physicalizer = Physicalizer(
            catalog,
            params,
            config,
            feedback=feedback,
            adaptive=adaptive,
        )
        self.use_materialized_views = use_materialized_views

    # ------------------------------------------------------------------
    def optimize(self, sql: str) -> OptimizedQuery:
        """Optimize SQL text into a physical plan."""
        return self.optimize_statement(parse(sql))

    def optimize_statement(self, stmt: SelectStmt) -> OptimizedQuery:
        """Optimize a parsed SELECT statement.

        When materialized views are registered (and enabled), every
        matching reformulation competes with the original plan on
        estimated cost -- the transparent use of Section 7.3.
        """
        block = self.binder.bind(stmt)
        best = self.optimize_block(block)
        if self.use_materialized_views and self.catalog.materialized_views():
            from repro.core.matviews.rewriter import MatViewRewriter

            rewriter = MatViewRewriter(self.catalog)
            for view, rewritten_block in rewriter.rewrites(block):
                try:
                    candidate = self.optimize_block(rewritten_block)
                except Exception:
                    continue
                if (
                    candidate.physical.est_cost.total
                    < best.physical.est_cost.total
                ):
                    candidate.rewrite_trace.append(
                        f"materialized-view:{view.name}"
                    )
                    best = candidate
        return best

    def optimize_block(self, block: QueryBlock) -> OptimizedQuery:
        """Optimize an already-bound query block."""
        logical = lower_block(block, self.catalog)
        context = RewriteContext(
            catalog=self.catalog, estimator=self._estimator(logical)
        )
        rewritten = logical
        if self.use_rewrites:
            rewritten = self.rule_engine.rewrite(logical, context)
        physical = self.physicalizer.plan_query(rewritten)
        return OptimizedQuery(
            block=block,
            logical=logical,
            rewritten=rewritten,
            physical=physical,
            rewrite_trace=context.trace,
        )

    def _estimator(self, logical: LogicalOp) -> CardinalityEstimator:
        stats: Dict[str, TableStats] = {}
        stack = [logical]
        while stack:
            node = stack.pop()
            if isinstance(node, Get):
                existing = self.catalog.stats(node.table)
                if existing is None:
                    existing = analyze_table(
                        self.catalog, node.table, histogram_kind=None
                    )
                stats[node.alias] = existing
            stack.extend(node.children())
        return CardinalityEstimator(
            stats, damping=self.config.damping, feedback=self.feedback
        )


PlanCacheKey = Tuple[str, int]


@dataclass
class _PlanCacheEntry:
    plan: OptimizedQuery
    catalog_version: int
    optimize_seconds: float
    # Observed selectivities (per plan fingerprint) the feedback store
    # held when the plan was produced; a later lookup compares against
    # the current store to decide whether knowledge has shifted enough
    # to warrant re-optimization.
    feedback_snapshot: Dict[str, float] = field(default_factory=dict)


class PlanCache:
    """An LRU cache of optimized plans, invalidated by catalog version.

    Keys combine the lexically normalized SQL text with the parameter
    signature (the ``?`` arity), so a prepared statement and a textually
    identical ad-hoc query occupy distinct entries.  Every entry records
    the catalog version current when the plan was produced; a lookup
    that finds a stale entry (any DDL or statistics refresh since)
    drops it and reports a miss -- the plan was costed against metadata
    that no longer describes the database.

    Thread-safe: concurrent sessions share one cache, so every compound
    read-modify-write on the LRU order runs under an internal lock.
    The hit/miss/eviction counters are updated under the same lock and
    are exact; callers reading them while traffic is in flight still see
    a momentary snapshot.
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = max(0, capacity)
        self._entries: "OrderedDict[PlanCacheKey, _PlanCacheEntry]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def key(sql: str, param_count: int = 0) -> PlanCacheKey:
        """The cache key for SQL text and a parameter signature."""
        return (normalize_sql(sql), param_count)

    def get(
        self, key: PlanCacheKey, catalog_version: int
    ) -> Optional[_PlanCacheEntry]:
        """Look up a still-valid entry; stale entries count as misses."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if entry.catalog_version != catalog_version:
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(
        self,
        key: PlanCacheKey,
        plan: OptimizedQuery,
        catalog_version: int,
        optimize_seconds: float = 0.0,
        feedback_snapshot: Optional[Dict[str, float]] = None,
    ) -> None:
        """Insert a plan, evicting the least recently used beyond capacity."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = _PlanCacheEntry(
                plan=plan,
                catalog_version=catalog_version,
                optimize_seconds=optimize_seconds,
                feedback_snapshot=dict(feedback_snapshot or {}),
            )
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def evict(self, key: PlanCacheKey) -> bool:
        """Drop one entry (a plan that misbehaved at execution time).

        Returns True when the key was cached.  Counted under
        ``evictions`` alongside capacity evictions.
        """
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self.evictions += 1
            return True

    def keys(self) -> List[PlanCacheKey]:
        """Current keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class PreparedStatement:
    """A named, parameterized statement (``PREPARE name AS SELECT ... ?``).

    The defining SQL is optimized once (parameters treated as opaque
    constants) and the physical plan re-executed per EXECUTE with fresh
    parameter values -- the optimize-once-execute-many contract.
    """

    name: str
    sql_text: str
    param_count: int
    cache_key: PlanCacheKey


@dataclass
class QueryResult:
    """Rows plus the plan and the measured execution work."""

    schema: StreamSchema
    rows: List[Tuple[Any, ...]]
    plan: Optional[PhysicalOp]
    context: ExecContext
    rewrite_trace: List[str] = field(default_factory=list)
    kind: str = "select"
    from_plan_cache: bool = False

    @property
    def column_names(self) -> List[str]:
        """Output column names."""
        return [name for _alias, name in self.schema.slots]

    def __len__(self) -> int:
        return len(self.rows)


def _text_result(kind: str, column: str, lines: Sequence[str]) -> QueryResult:
    """A QueryResult carrying rendered text (EXPLAIN output, messages)."""
    return QueryResult(
        schema=StreamSchema(((kind, column),)),
        rows=[(line,) for line in lines],
        plan=None,
        context=ExecContext(),
        kind=kind,
    )


# Selectivity damping used when re-optimizing a plan that failed at
# runtime: sqrt-damping inflates every selectivity toward 1, so the
# replacement plan is chosen under deliberately pessimistic (larger)
# cardinalities.
CONSERVATIVE_DAMPING = 0.5

# Retryable failures a cached plan may accumulate before it is evicted
# and its key marked for conservative re-optimization.
RETRYABLE_FAILURES_BEFORE_EVICT = 2

# Cardinality-feedback re-optimization thresholds.  A cached plan is
# dropped right after an execution whose worst per-operator q-error
# (between the selectivity the plan was built with and the one observed)
# reaches FEEDBACK_REPLAN_QERROR -- the next use re-optimizes with the
# freshly learned selectivities.  Independently, a cache *hit* whose
# entry was planned under feedback that has since shifted by a factor of
# FEEDBACK_SHIFT_FACTOR (comparing only fingerprints observed both then
# and now) is treated as stale and re-optimized.  Both generalize PR 2's
# 2-strike conservative re-optimization: estimates, not just failures,
# can now invalidate a plan.
FEEDBACK_REPLAN_QERROR = 4.0
FEEDBACK_SHIFT_FACTOR = 2.0


class Database:
    """An embedded database: catalog + optimizer + executor.

    Per-session robustness state lives here: an optional
    :class:`QueryBudget` and :class:`FaultInjector` applied to every
    execution, and a :class:`CancellationToken` the shell's Ctrl-C
    handler flips to abort the running query without killing the
    session.

    Example:
        >>> db = Database()
        >>> from repro.datagen import build_emp_dept
        >>> _ = build_emp_dept(db.catalog, emp_rows=100, dept_rows=10)
        >>> result = db.sql("SELECT name FROM Emp WHERE sal > 100000")
    """

    def __init__(
        self,
        params: CostParameters = DEFAULT_PARAMETERS,
        config: EnumeratorConfig = EnumeratorConfig(),
        use_rewrites: bool = True,
        plan_cache_size: int = 128,
        budget: Optional[QueryBudget] = None,
        fault_injector: Optional[FaultInjector] = None,
        use_feedback: bool = True,
        adaptive: Optional[AdaptiveConfig] = None,
        columnar_mode: bool = False,
        admission: Optional[
            "AdmissionConfig | AdmissionController"
        ] = None,
        tenant: str = "default",
    ) -> None:
        self.catalog = Catalog(page_size_bytes=params.page_size_bytes)
        self.params = params
        self.config = config
        self.use_rewrites = use_rewrites
        self.udfs: Dict[str, UdfRegistration] = {}
        self.plan_cache = PlanCache(plan_cache_size)
        self.metrics = QueryMetrics()
        self.prepared: Dict[str, PreparedStatement] = {}
        self.budget = budget
        self.cancel_token = CancellationToken()
        self.fault_injector = fault_injector
        self.feedback: Optional[CardinalityFeedback] = (
            CardinalityFeedback() if use_feedback else None
        )
        self.adaptive = adaptive
        # Columnar (vectorized) execution: batches travel as numpy
        # columns and the physicalizer prices CPU with the vectorized
        # discount.  Off by default; the row-batch engine is the oracle.
        self.columnar_mode = columnar_mode
        if columnar_mode:
            self.params = params.with_overrides(columnar_execution=True)
        # Server-wide admission control.  Pass an AdmissionConfig to
        # build a controller owned by this Database, or share one
        # AdmissionController across databases; None (the default)
        # admits everything unconditionally.  The session identity
        # (tenant/priority) seeds per-query options.
        if admission is None or isinstance(admission, AdmissionController):
            self.admission: Optional[AdmissionController] = admission
        else:
            self.admission = AdmissionController(admission)
        self.session_tenant = tenant
        self.session_priority = "normal"
        self._plan_failures: Dict[PlanCacheKey, int] = {}
        self._conservative_keys: Set[PlanCacheKey] = set()
        # Transactional state.  The manager (txid allocation, WAL, MVCC
        # lifecycle) is created lazily at the first statement; tables stay
        # flat (no version metadata) until the first write.  The open
        # explicit transaction is per-thread -- each worker thread is
        # one session.
        self._txn_manager: Optional[TransactionManager] = None
        self._txn_manager_lock = threading.Lock()
        self._sessions = threading.local()

    # ------------------------------------------------------------------
    # Schema management
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Optional[Sequence[str]] = None,
    ):
        """Create a table (see :meth:`Catalog.create_table`)."""
        return self.catalog.create_table(name, columns, primary_key)

    def create_index(self, name: str, table: str, columns: Sequence[str], **kw):
        """Create an ordered index."""
        return self.catalog.create_index(name, table, columns, **kw)

    def create_view(self, name: str, sql: str) -> None:
        """Register a virtual view by its defining SQL."""
        self.catalog.create_view(name, sql)

    def register_udf(
        self,
        name: str,
        fn,
        per_tuple_cost: float = 100.0,
        selectivity: float = 0.5,
    ) -> None:
        """Register a user-defined function usable in WHERE clauses.

        Clears the plan cache: cached plans were bound against the old
        function registry.
        """
        self.udfs[name.lower()] = UdfRegistration(fn, per_tuple_cost, selectivity)
        self.plan_cache.clear()

    def analyze(self, histogram_kind: Optional[str] = "equi-depth") -> None:
        """Collect statistics for every table."""
        analyze_all(self.catalog, histogram_kind=histogram_kind)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def optimizer(self, conservative: bool = False) -> Optimizer:
        """A fresh optimizer bound to this database's catalog.

        With ``conservative=True`` the enumerator config's selectivity
        damping is set to :data:`CONSERVATIVE_DAMPING`, producing the
        pessimistic cardinalities used to re-plan queries whose cached
        plan failed at runtime.
        """
        config = self.config
        if conservative:
            config = replace(config, damping=CONSERVATIVE_DAMPING)
        return Optimizer(
            self.catalog,
            self.params,
            config,
            udfs=self.udfs,
            use_rewrites=self.use_rewrites,
            feedback=self.feedback,
            adaptive=self.adaptive,
        )

    def optimize(self, sql: str) -> OptimizedQuery:
        """Optimize without executing."""
        return self.optimizer().optimize(sql)

    def sql(
        self,
        text: str,
        tenant: Optional[str] = None,
        priority: Optional[str] = None,
    ) -> QueryResult:
        """Run one SQL statement: SELECT, EXPLAIN [ANALYZE], PREPARE,
        EXECUTE, or DEALLOCATE.

        SELECT plans flow through the plan cache; repeated text (modulo
        whitespace/comments) reuses the cached physical plan until DDL
        or a statistics refresh bumps the catalog version.

        ``tenant`` and ``priority`` are per-query admission options
        (defaulting to the session's); with an admission controller
        attached, execution may shed with a typed retryable
        :class:`~repro.errors.AdmissionRejected` / ``QueueTimeout``.
        """
        stmt = parse_statement(text)
        if isinstance(stmt, ExplainStmt):
            return self._run_explain(stmt, tenant=tenant, priority=priority)
        if isinstance(stmt, PrepareStmt):
            self._register_prepared(stmt.name, stmt.sql_text, stmt.query)
            return _text_result("prepare", "PREPARE", [f"PREPARE {stmt.name}"])
        if isinstance(stmt, ExecuteStmt):
            return self.execute_prepared(
                stmt.name, *stmt.args, tenant=tenant, priority=priority
            )
        if isinstance(stmt, DeallocateStmt):
            self.deallocate(stmt.name)
            return _text_result(
                "deallocate", "DEALLOCATE", [f"DEALLOCATE {stmt.name}"]
            )
        if isinstance(stmt, BeginStmt):
            return self._run_begin()
        if isinstance(stmt, CommitStmt):
            return self._run_commit()
        if isinstance(stmt, RollbackStmt):
            return self._run_rollback()
        if isinstance(stmt, (InsertStmt, UpdateStmt, DeleteStmt)):
            return self._run_dml(stmt)
        key = PlanCache.key(text, stmt.param_count)
        optimized, from_cache, _ = self._optimize_cached(key, stmt)
        return self._execute_plan(
            optimized, from_cache, cache_key=key,
            tenant=tenant, priority=priority,
        )

    # ------------------------------------------------------------------
    # Transactions and DML
    # ------------------------------------------------------------------
    @property
    def txn_manager(self) -> TransactionManager:
        """The transaction manager, created at first use.

        Creation wires the storage-pure manager to this database's upper
        layers: index rebuilds after vacuum/recovery, and the commit
        hook that invalidates cached plans, feedback, and statistics --
        the only place any version counter moves for DML.
        """
        if self._txn_manager is None:
            with self._txn_manager_lock:
                if self._txn_manager is None:
                    manager = TransactionManager()
                    manager.index_compactor = self.catalog.compact_indexes
                    manager.index_rebuilder = self.catalog.rebuild_indexes
                    manager.publish_lock = self.catalog.stats_lock
                    manager.publish_hook = self._move_row_counts
                    manager.commit_hooks.append(self._on_commit)
                    manager.recovery_hooks.append(self._on_recovery)
                    self._txn_manager = manager
        return self._txn_manager

    def _move_row_counts(self, txn: Transaction) -> None:
        """Move each written table's statistics row count by the
        transaction's net inserted-minus-deleted rows -- no count of the
        table and no full re-ANALYZE on the write path (column
        distributions refresh at the next ANALYZE).

        Runs as the manager's publish hook: under the catalog's
        statistics lock, in the same critical section in which the
        commit leaves the active set.  ANALYZE counts committed rows
        under that lock too, so it sees a commit either counted or
        moved by its delta, never both, and concurrent commits never
        lose each other's deltas.
        """
        for name, delta in txn.net_rows().items():
            stats = self.catalog.stats(name)
            if delta and stats is not None:
                self.catalog.set_stats(
                    name,
                    replace(stats, row_count=max(0.0, stats.row_count + delta)),
                )

    def _on_commit(self, txn: Transaction) -> None:
        """Commit-time invalidation: runs once per writing commit.

        * catalog version bumps, so every cached plan (costed against
          pre-commit statistics and contents) misses on next lookup;
        * cardinality feedback learned against the old contents of each
          written table is dropped.
        """
        if self.feedback is not None:
            for name in txn.written:
                self.feedback.invalidate_table(name)
        self.catalog._bump_version()

    def _on_recovery(self, rebuilt: List[str]) -> None:
        """Post-recovery invalidation: the ``rebuilt`` tables' images were
        replaced, so cached plans go and their row counts are re-read
        from the flat heaps."""
        self.plan_cache.clear()
        with self.catalog.stats_lock:
            for name in rebuilt:
                stats = self.catalog.stats(name)
                if stats is not None:
                    live = float(self.catalog.table(name).row_count)
                    self.catalog.set_stats(name, replace(stats, row_count=live))
        self.catalog._bump_version()

    def _session_txn(self) -> Optional[Transaction]:
        """This thread's open explicit transaction, if any."""
        return getattr(self._sessions, "txn", None)

    def _run_begin(self) -> QueryResult:
        if self._session_txn() is not None:
            raise TransactionError(
                "a transaction is already open in this session"
            )
        self._sessions.txn = self.txn_manager.begin(session=True)
        return _text_result("begin", "BEGIN", ["BEGIN"])

    def _run_commit(self) -> QueryResult:
        txn = self._session_txn()
        if txn is None:
            raise TransactionError("no transaction is open in this session")
        self._sessions.txn = None
        self.txn_manager.commit(txn)
        self.metrics.transactions_committed += 1
        return _text_result("commit", "COMMIT", ["COMMIT"])

    def _run_rollback(self) -> QueryResult:
        txn = self._session_txn()
        if txn is None:
            raise TransactionError("no transaction is open in this session")
        self._sessions.txn = None
        self.txn_manager.abort(txn)
        self.metrics.transactions_aborted += 1
        return _text_result("rollback", "ROLLBACK", ["ROLLBACK"])

    def _plan_dml(
        self, stmt: "InsertStmt | UpdateStmt | DeleteStmt"
    ) -> PhysicalOp:
        """Bind and physicalize one DML statement.

        DML has a single target table and no join enumeration, so the
        physical operator is built directly from the bound form; only an
        INSERT ... SELECT source runs through the full optimizer.
        """
        binder = Binder(self.catalog, self.udfs)
        if isinstance(stmt, InsertStmt):
            logical = binder.bind_insert(stmt)
            if logical.select is not None:
                source = self.optimizer().optimize_block(logical.select)
                return InsertP(
                    logical.table,
                    source=source.physical,
                    select_positions=logical.select_positions,
                )
            return InsertP(logical.table, rows=logical.rows)
        if isinstance(stmt, UpdateStmt):
            updated = binder.bind_update(stmt)
            return UpdateP(updated.table, updated.assignments, updated.predicate)
        deleted = binder.bind_delete(stmt)
        return DeleteP(deleted.table, deleted.predicate)

    def _run_dml(
        self, stmt: "InsertStmt | UpdateStmt | DeleteStmt"
    ) -> QueryResult:
        """Execute one INSERT/UPDATE/DELETE with statement atomicity.

        Outside an explicit transaction the statement runs autocommit:
        a fresh transaction that commits on success and aborts on any
        failure.  Inside BEGIN..COMMIT, a failed statement rolls back
        its own writes and leaves the transaction usable -- except a
        write-write conflict, which aborts the whole transaction (the
        snapshot is burned; the typed retryable
        :class:`~repro.errors.SerializationError` tells the client to
        retry the transaction from the top).
        """
        if stmt.param_count:
            raise SqlError(
                "parameter markers (?) are not supported in DML statements"
            )
        plan = self._plan_dml(stmt)
        manager = self.txn_manager
        session_txn = self._session_txn()
        txn = session_txn if session_txn is not None else manager.begin()
        context = self._make_context()
        # Write plans produce one bookkeeping row; there is no
        # cardinality worth harvesting from them.
        context.feedback = None
        context.txn = txn
        context.snapshot = txn.snapshot
        manager.begin_statement(txn)
        start = time.perf_counter()
        try:
            schema, rows = execute(plan, self.catalog, context)
        except BaseException as error:
            # Catch *everything* (not just ReproError): any failure that
            # skipped rollback would leave the autocommit transaction in
            # the active set forever -- blocking vacuum with undoable
            # partial writes.
            manager.rollback_statement(txn)
            self.metrics.execute_seconds += time.perf_counter() - start
            self.metrics.execution_failures += 1
            self.metrics.fault_retries += context.counters.retries
            if isinstance(error, SerializationError):
                self.metrics.serialization_conflicts += 1
            if session_txn is None:
                manager.abort(txn)
                self.metrics.transactions_aborted += 1
            elif isinstance(error, SerializationError):
                self._sessions.txn = None
                manager.abort(txn)
                self.metrics.transactions_aborted += 1
            raise
        manager.end_statement(txn)
        self.metrics.execute_seconds += time.perf_counter() - start
        self.metrics.dml_statements += 1
        self.metrics.record_execution(context, len(rows))
        if session_txn is None:
            manager.commit(txn)
            self.metrics.transactions_committed += 1
        return QueryResult(
            schema=schema,
            rows=rows,
            plan=plan,
            context=context,
            kind="dml",
        )

    def _pin_read_snapshot(self, context: ExecContext):
        """Give one read-only execution a consistent snapshot.

        Inside an explicit transaction the statement reads through the
        transaction's own snapshot; otherwise a fresh snapshot is pinned
        for exactly this execution (blocking vacuum while it runs).
        Reads pin even before the database's first write, which another
        thread may start and commit while this read is mid-scan.
        """
        manager = self.txn_manager
        txn = self._session_txn()
        if txn is not None:
            context.txn = txn
            context.snapshot = txn.snapshot
            return lambda: None
        snapshot = manager.read_snapshot()
        context.snapshot = snapshot
        return lambda: manager.release_snapshot(snapshot)

    def crash(self, wal_prefix: Optional[int] = None) -> None:
        """Simulate a crash (see :meth:`TransactionManager.crash`).

        Open sessions are abandoned: their transactions were in flight
        and are treated as aborted.
        """
        if self._txn_manager is not None:
            self._txn_manager.crash(wal_prefix)
            self._sessions = threading.local()

    def recover(self) -> List[str]:
        """Replay the WAL, restoring committed-only table contents."""
        if self._txn_manager is None:
            return []
        return self._txn_manager.recover()

    # -- plan cache plumbing -------------------------------------------
    def _optimize_cached(
        self, key: PlanCacheKey, stmt: "SelectStmt | None", sql_text: str = ""
    ) -> Tuple[OptimizedQuery, bool, float]:
        """Look up ``key`` in the plan cache, optimizing on a miss.

        Returns ``(plan, from_cache, optimize_seconds)``.  ``stmt`` may
        be None when the caller only has SQL text (prepared statements
        re-executed after invalidation); it is then reparsed.  The entry
        records the catalog version *after* optimization: lazy ANALYZE
        inside the optimizer bumps the version, and the plan it produced
        reflects those fresh statistics.
        """
        invalidations_before = self.plan_cache.invalidations
        entry = self.plan_cache.get(key, self.catalog.version)
        self.metrics.plan_cache_invalidations += (
            self.plan_cache.invalidations - invalidations_before
        )
        if entry is not None and self._feedback_shifted(entry):
            # Accumulated feedback moved a selectivity this plan was
            # built on far enough that its costing is stale: drop it and
            # re-optimize with the current knowledge.
            self.plan_cache.evict(key)
            self.metrics.feedback_reoptimizations += 1
            entry = None
        if entry is not None:
            self.metrics.plan_cache_hits += 1
            return entry.plan, True, entry.optimize_seconds
        self.metrics.plan_cache_misses += 1
        if stmt is None:
            stmt = parse(sql_text)
        conservative = key in self._conservative_keys
        if conservative:
            self.metrics.conservative_reoptimizations += 1
        start = time.perf_counter()
        optimized = self.optimizer(conservative=conservative).optimize_statement(
            stmt
        )
        elapsed = time.perf_counter() - start
        self.metrics.optimize_seconds += elapsed
        snapshot = None
        if self.feedback is not None:
            snapshot = self.feedback.snapshot(
                collect_fingerprints(optimized.physical)
            )
        self.plan_cache.put(
            key, optimized, self.catalog.version, elapsed,
            feedback_snapshot=snapshot,
        )
        return optimized, False, elapsed

    def _feedback_shifted(self, entry: _PlanCacheEntry) -> bool:
        """Has feedback moved enough to invalidate a cached plan?

        Compares the store's current observations against the entry's
        snapshot, over the plan's own fingerprints; only keys observed
        at both points participate (newly appearing observations are
        the harvest-time misestimate trigger's job).
        """
        if self.feedback is None or not entry.feedback_snapshot:
            return False
        keys = collect_fingerprints(entry.plan.physical)
        shift = self.feedback.observed_shift(entry.feedback_snapshot, keys)
        return shift >= FEEDBACK_SHIFT_FACTOR

    def _make_context(self) -> ExecContext:
        """An ExecContext carrying the session's robustness state."""
        context = ExecContext(self.params)
        context.budget = self.budget
        context.cancel_token = self.cancel_token
        context.fault_injector = self.fault_injector
        context.feedback = self.feedback
        context.columnar_mode = self.columnar_mode
        context.admission = self.admission
        if self.adaptive is not None and self.adaptive.enabled:
            context.adaptive = AdaptiveState(self.adaptive)
        return context

    # -- admission control ---------------------------------------------
    def _admit(
        self, tenant: Optional[str], priority: Optional[str]
    ) -> Optional[AdmissionTicket]:
        """Pass one query through the admission controller.

        Returns None when no controller is attached.  Sheds by raising
        the controller's typed retryable errors, with the session
        metrics updated either way.  The queue deadline is tightened by
        the session budget's wall-clock timeout, so a query never burns
        its whole budget waiting in line.
        """
        if self.admission is None:
            return None
        budget = self.budget
        try:
            ticket = self.admission.admit(
                tenant=tenant or self.session_tenant,
                priority=priority or self.session_priority,
                requested_memory=(
                    budget.memory_limit_bytes if budget is not None else None
                ),
                query_deadline_seconds=(
                    budget.timeout_seconds if budget is not None else None
                ),
            )
        except AdmissionRejected as error:
            self.metrics.queries_shed += 1
            if isinstance(error, QueueTimeout):
                self.metrics.queue_timeouts += 1
            raise
        self.metrics.queries_admitted += 1
        if ticket.queued:
            self.metrics.queries_queued += 1
            self.metrics.queue_wait_seconds += ticket.queue_wait_seconds
        return ticket

    def _apply_ticket(
        self, context: ExecContext, ticket: Optional[AdmissionTicket]
    ) -> None:
        """Fold an admission grant into one execution's context.

        The memory lease clamps the query's effective memory budget:
        when the global pool is tight the lease shrinks, and
        spill-capable operators degrade to Grace-style partitioned
        execution under the tightened budget instead of the server
        overcommitting memory.
        """
        if ticket is None:
            return
        # An immediate grant reports a few-microsecond "wait" that is pure
        # clock noise; only a genuinely queued query gets the footer line.
        context.queue_wait_seconds = (
            ticket.queue_wait_seconds if ticket.queued else 0.0
        )
        base = context.budget or QueryBudget()
        limit = base.memory_limit_bytes
        granted = ticket.granted_memory
        if limit is None or granted < limit:
            context.budget = replace(base, memory_limit_bytes=granted)

    def _arm_replanner(
        self, context: ExecContext, optimized: OptimizedQuery
    ) -> None:
        """Give the adaptive state a way to re-optimize mid-query.

        The closure re-optimizes the original query block *uncached*, so
        the replan sees the cardinalities just harvested into the
        feedback store; the executor then splices the materialized
        intermediates back in (see ``splice_checkpoints``).
        """
        if context.adaptive is None:
            return

        def replan() -> PhysicalOp:
            return self.optimizer().optimize_block(optimized.block).physical

        context.adaptive.replanner = replan

    def _fold_adaptive_metrics(
        self, context: ExecContext, cache_key: Optional[PlanCacheKey] = None
    ) -> None:
        state = context.adaptive
        if state is None:
            return
        self.metrics.adaptive_checks_fired += state.checks_fired
        self.metrics.adaptive_reoptimizations += state.reoptimizations
        self.metrics.adaptive_checkpoints_reused += state.checkpoints_reused
        if state.reoptimizations > 0 and cache_key is not None:
            # The plan this execution started from was abandoned mid-run.
            # The closing harvest measures the *corrected* plan, so the
            # residual-misestimate trigger will not fire -- evict here so
            # the next request plans with the harvested actuals instead
            # of replaying the whole fire-and-replan cycle.
            self.plan_cache.evict(cache_key)

    def _note_execution_failure(
        self, cache_key: Optional[PlanCacheKey], error: ReproError
    ) -> None:
        """React to a typed execution failure of a (possibly cached) plan.

        Cancellation says nothing about the plan and is ignored.  A
        non-retryable error evicts the cached plan immediately -- it will
        keep failing.  Retryable errors (transient faults that outlived
        their retries) are tolerated up to
        :data:`RETRYABLE_FAILURES_BEFORE_EVICT` times; past that the plan
        is evicted *and* the key is marked so the next optimization of
        the same query uses conservative cardinality estimates.
        """
        self.metrics.execution_failures += 1
        if cache_key is None or isinstance(error, QueryCancelled):
            return
        if not getattr(error, "retryable", False):
            if self.plan_cache.evict(cache_key):
                self.metrics.plan_cache_error_evictions += 1
            self._plan_failures.pop(cache_key, None)
            return
        failures = self._plan_failures.get(cache_key, 0) + 1
        self._plan_failures[cache_key] = failures
        if failures >= RETRYABLE_FAILURES_BEFORE_EVICT:
            if self.plan_cache.evict(cache_key):
                self.metrics.plan_cache_error_evictions += 1
            self._conservative_keys.add(cache_key)
            self._plan_failures.pop(cache_key, None)

    def _execute_plan(
        self,
        optimized: OptimizedQuery,
        from_cache: bool,
        parameters: Optional[Tuple[Any, ...]] = None,
        cache_key: Optional[PlanCacheKey] = None,
        tenant: Optional[str] = None,
        priority: Optional[str] = None,
    ) -> QueryResult:
        context = self._make_context()
        # Admission happens before any execution work: a shed query
        # costs the server one queue decision, nothing more.  The slot
        # and memory lease are held for exactly the execution.
        ticket = self._admit(tenant, priority)
        self._apply_ticket(context, ticket)
        self._arm_replanner(context, optimized)
        release_snapshot = self._pin_read_snapshot(context)
        start = time.perf_counter()
        try:
            schema, rows = execute(
                optimized.physical, self.catalog, context, parameters=parameters
            )
        except ReproError as error:
            self.metrics.execute_seconds += time.perf_counter() - start
            self.metrics.fault_retries += context.counters.retries
            self.metrics.breaker_fast_fails += (
                context.counters.breaker_fast_fails
            )
            self._fold_adaptive_metrics(context, cache_key)
            self._note_execution_failure(cache_key, error)
            raise
        finally:
            release_snapshot()
            if ticket is not None:
                ticket.release()
        self.metrics.execute_seconds += time.perf_counter() - start
        self.metrics.record_execution(context, len(rows))
        self._fold_adaptive_metrics(context, cache_key)
        if cache_key is not None:
            self._plan_failures.pop(cache_key, None)
        self._note_feedback_harvest(context, cache_key)
        plan = optimized.physical
        if context.adaptive is not None and context.adaptive.final_plan is not None:
            plan = context.adaptive.final_plan
        return QueryResult(
            schema=schema,
            rows=rows,
            plan=plan,
            context=context,
            rewrite_trace=optimized.rewrite_trace,
            from_plan_cache=from_cache,
        )

    def _note_feedback_harvest(
        self, context: ExecContext, cache_key: Optional[PlanCacheKey]
    ) -> None:
        """Fold one execution's feedback harvest into session state.

        When the run's worst observed-vs-planned misestimate reaches
        :data:`FEEDBACK_REPLAN_QERROR`, the cached plan is dropped so
        the next use of the query re-optimizes under the selectivities
        just learned.  Plans built with feedback carry the correction in
        their estimates, so this trigger measures *residual* error and
        settles once the learned values stop surprising the optimizer.
        """
        summary = context.feedback_summary
        if summary is None:
            return
        self.metrics.feedback_observations += summary.observations
        if (
            cache_key is not None
            and summary.max_misestimate >= FEEDBACK_REPLAN_QERROR
            and self.plan_cache.evict(cache_key)
        ):
            self.metrics.feedback_reoptimizations += 1

    def _run_explain(
        self,
        stmt: ExplainStmt,
        tenant: Optional[str] = None,
        priority: Optional[str] = None,
    ) -> QueryResult:
        key = PlanCache.key(stmt.sql_text, stmt.query.param_count)
        optimized, from_cache, opt_seconds = self._optimize_cached(
            key, stmt.query
        )
        if not stmt.analyze:
            result = _text_result(
                "explain", "QUERY PLAN", optimized.explain().splitlines()
            )
            result.plan = optimized.physical
            result.from_plan_cache = from_cache
            return result
        context = self._make_context()
        ticket = self._admit(tenant, priority)
        self._apply_ticket(context, ticket)
        self._arm_replanner(context, optimized)
        release_snapshot = self._pin_read_snapshot(context)
        start = time.perf_counter()
        try:
            schema, rows = execute(optimized.physical, self.catalog, context)
        finally:
            release_snapshot()
            if ticket is not None:
                ticket.release()
        self.metrics.execute_seconds += time.perf_counter() - start
        self.metrics.record_execution(context, len(rows))
        self._fold_adaptive_metrics(context, key)
        self._note_feedback_harvest(context, key)
        rendered_plan = optimized.physical
        if context.adaptive is not None and context.adaptive.final_plan is not None:
            rendered_plan = context.adaptive.final_plan
        rendering = render_explain_analyze(
            rendered_plan,
            context.runtime,
            optimize_seconds=opt_seconds,
            context=context,
        )
        lines = rendering.splitlines()
        lines.append(f"({len(rows)} rows)")
        result = _text_result("explain", "QUERY PLAN", lines)
        result.plan = rendered_plan
        result.context = context
        result.from_plan_cache = from_cache
        return result

    # -- prepared statements -------------------------------------------
    def _register_prepared(
        self, name: str, sql_text: str, stmt: Optional[SelectStmt] = None
    ) -> PreparedStatement:
        if stmt is None:
            stmt = parse(sql_text)
        key = PlanCache.key(sql_text, stmt.param_count)
        self._optimize_cached(key, stmt)  # optimize eagerly at PREPARE time
        statement = PreparedStatement(
            name=name,
            sql_text=sql_text,
            param_count=stmt.param_count,
            cache_key=key,
        )
        self.prepared[name] = statement
        self.metrics.statements_prepared += 1
        return statement

    def prepare(self, name: str, sql_text: str) -> PreparedStatement:
        """Prepare ``sql_text`` (a SELECT with ``?`` markers) under ``name``.

        The plan is optimized immediately and cached; later
        :meth:`execute_prepared` calls reuse it without re-optimizing.
        """
        return self._register_prepared(name, sql_text)

    def execute_prepared(
        self,
        name: str,
        *args: Any,
        tenant: Optional[str] = None,
        priority: Optional[str] = None,
    ) -> QueryResult:
        """Execute a prepared statement with positional parameter values."""
        statement = self.prepared.get(name)
        if statement is None:
            raise PrepareError(f"unknown prepared statement {name!r}")
        if len(args) != statement.param_count:
            raise PrepareError(
                f"prepared statement {name!r} takes "
                f"{statement.param_count} parameter(s), got {len(args)}"
            )
        optimized, from_cache, _ = self._optimize_cached(
            statement.cache_key, None, sql_text=statement.sql_text
        )
        return self._execute_plan(
            optimized,
            from_cache,
            parameters=tuple(args),
            cache_key=statement.cache_key,
            tenant=tenant,
            priority=priority,
        )

    def deallocate(self, name: str) -> None:
        """Drop a prepared statement (its cached plan may persist)."""
        if name not in self.prepared:
            raise PrepareError(f"unknown prepared statement {name!r}")
        del self.prepared[name]

    # -- explain -------------------------------------------------------
    def explain(self, text: str) -> str:
        """The chosen physical plan for a query, as text."""
        return self.optimize(text).explain()

    def explain_analyze(self, text: str) -> str:
        """Execute ``text`` and render the plan annotated with actuals."""
        result = self.sql(
            text if text.lstrip().upper().startswith("EXPLAIN")
            else "EXPLAIN ANALYZE " + text
        )
        return "\n".join(row[0] for row in result.rows)

    def naive(self, text: str) -> Tuple[StreamSchema, List[Tuple[Any, ...]], InterpreterStats]:
        """Execute via the reference interpreter (no optimization).

        Used as the correctness oracle and the unoptimized baseline.
        """
        block = Binder(self.catalog, self.udfs).bind_sql(text)
        logical = lower_block(block, self.catalog)
        stats = InterpreterStats()
        schema, rows = interpret(logical, self.catalog, stats)
        return schema, rows, stats
