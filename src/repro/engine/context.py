"""Execution context: simulated buffer pool and work counters.

The paper's cost discussion (Section 5.2, [40]) stresses that buffer
utilization -- hit ratios that depend on access locality -- is key to
accurate costing.  The executor therefore routes every page access
through a small LRU buffer-pool simulation, so measured I/O shows the
same locality effects the cost model predicts (e.g. a warm inner table
making index nested-loop joins cheap).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple, TYPE_CHECKING, TypeVar

from repro.cost.parameters import DEFAULT_PARAMETERS, CostParameters
from repro.errors import CircuitBreakerOpen
from repro.engine.governor import (
    CancellationToken,
    QueryBudget,
    ResourceGovernor,
    RetryPolicy,
    call_with_retries,
)

if TYPE_CHECKING:
    from repro.engine.adaptive import AdaptiveState
    from repro.engine.admission import AdmissionController
    from repro.engine.runtime_stats import RuntimeStats
    from repro.stats.feedback import CardinalityFeedback, FeedbackSummary
    from repro.storage.faults import FaultInjector

_T = TypeVar("_T")

PageId = Tuple[str, int]


class BufferPool:
    """A fixed-capacity LRU cache of (table, page) identifiers."""

    def __init__(self, capacity_pages: int) -> None:
        self.capacity = max(1, capacity_pages)
        self._pages: "OrderedDict[PageId, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, page: PageId) -> bool:
        """Touch a page; returns True on a buffer hit (no I/O)."""
        if page in self._pages:
            self._pages.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        self._pages[page] = None
        if len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
        return False

    @property
    def hit_ratio(self) -> float:
        """Fraction of accesses served from the pool."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Empty the pool and reset counters."""
        self._pages.clear()
        self.hits = 0
        self.misses = 0


@dataclass
class ExecCounters:
    """Observed work during one execution."""

    seq_page_reads: int = 0
    random_page_reads: int = 0
    rows_produced: int = 0
    rows_compared: int = 0
    sort_spill_pages: int = 0
    udf_invocations: int = 0
    inner_evaluations: int = 0
    # Fault-tolerance accounting: transient-fault retries performed, the
    # (deterministic) backoff the retry schedule accrued, and how many
    # operators degraded to a spill fallback under the memory budget.
    retries: int = 0
    retry_backoff_seconds: float = 0.0
    degraded_operators: int = 0
    # Storage accesses suppressed fail-fast by an open circuit breaker.
    breaker_fast_fails: int = 0
    # DML accounting: rows written (inserted + deleted + updated), heap
    # pages dirtied, and WAL records buffered by the statement.
    rows_written: int = 0
    pages_written: int = 0
    wal_appends: int = 0

    @property
    def total_page_reads(self) -> int:
        """All physical page reads (buffer misses)."""
        return self.seq_page_reads + self.random_page_reads

    def observed_cost(self, params: CostParameters) -> float:
        """Collapse the counters into the cost model's metric.

        Lets benchmarks compare *measured* cost against the optimizer's
        estimates in the same units.
        """
        return (
            self.seq_page_reads * params.seq_page_cost
            + self.random_page_reads * params.random_page_cost
            + self.rows_produced * params.cpu_tuple_cost
            + self.rows_compared * params.cpu_operator_cost
            + self.sort_spill_pages * params.seq_page_cost
        )


class ExecContext:
    """Everything an execution needs: parameters, buffer pool, counters.

    Attributes:
        runtime: per-operator runtime statistics for the execution in
            progress (replaced with a fresh tree by every ``execute``
            call, so repeated runs of a cached plan never accumulate).
        parameters: positional prepared-statement parameter values, or
            None when the plan contains no ``?`` markers.
        budget: per-query resource limits enforced by the governor, or
            None for unlimited execution.
        cancel_token: cooperative cancellation latch, or None.
        fault_injector: seeded chaos source consulted on every page read
            and index lookup, or None for fault-free execution.
        retry_policy: bounded-backoff policy for retryable faults.
        governor: the enforcement object ``execute`` builds from
            ``budget`` and ``cancel_token`` for each run.
        feedback: session cardinality-feedback store; when present,
            ``execute`` harvests observed selectivities from the
            finished run's per-operator actuals into it.
        feedback_summary: what the harvest of the most recent execution
            recorded (operators seen, observations, worst misestimate).
        columnar_mode: move numpy column arrays (with explicit NULL
            validity masks) between operators and evaluate expressions
            as whole-batch vector kernels; False (the default) keeps the
            row-batch path, which doubles as the columnar engine's
            differential oracle.
    """

    def __init__(self, params: Optional[CostParameters] = None) -> None:
        self.params = params or DEFAULT_PARAMETERS
        self.buffer_pool = BufferPool(self.params.buffer_pool_pages)
        self.counters = ExecCounters()
        self.runtime: Optional["RuntimeStats"] = None
        self.parameters: Optional[Tuple[Any, ...]] = None
        self.budget: Optional[QueryBudget] = None
        self.cancel_token: Optional[CancellationToken] = None
        self.fault_injector: Optional["FaultInjector"] = None
        self.retry_policy = RetryPolicy()
        self.governor: Optional[ResourceGovernor] = None
        self.feedback: Optional["CardinalityFeedback"] = None
        self.feedback_summary: Optional["FeedbackSummary"] = None
        # Progressive-optimization state (validity-range CHECKs, replans,
        # checkpointed intermediates); None runs the plan statically.
        self.adaptive: Optional["AdaptiveState"] = None
        self.columnar_mode: bool = False
        # Server-wide admission control: when present, storage accesses
        # run behind its circuit breaker and retries draw from its
        # global token bucket; queue_wait_seconds records how long this
        # query sat in the admission queue before executing.
        self.admission: Optional["AdmissionController"] = None
        self.queue_wait_seconds: float = 0.0
        # MVCC: the snapshot every scan reads through and the
        # transaction DML statements write under.  None reads the latest
        # committed versions: the case for a database that has never
        # written and for ``execute`` called outside a Database.
        self.snapshot: Optional[Any] = None
        self.txn: Optional[Any] = None

    def begin_execution(self) -> None:
        """Arm the governor for one run (called by ``execute``)."""
        if self.budget is not None or self.cancel_token is not None:
            self.governor = ResourceGovernor(self.budget, self.cancel_token)
            self.governor.start()
        else:
            self.governor = None

    def _on_retry(self, _retry_number: int, delay: float, _error) -> None:
        self.counters.retries += 1
        self.counters.retry_backoff_seconds += delay

    def _with_retries(self, fn: Callable[[], _T], site: str = "") -> _T:
        """Run one storage access through the circuit breaker (when an
        admission controller is attached), bounded retries gated by the
        global retry token bucket, and backoff clamped to the query's
        remaining deadline."""
        injector = self.fault_injector
        admission = self.admission
        governor = self.governor
        run: Callable[[], _T] = fn
        retry_gate = None
        if admission is not None:
            guarded = admission.guard_storage(fn, site=site)

            def run_guarded() -> _T:
                try:
                    return guarded()
                except CircuitBreakerOpen:
                    self.counters.breaker_fast_fails += 1
                    raise

            run = run_guarded
            retry_gate = admission.try_retry_token
        return call_with_retries(
            run,
            self.retry_policy,
            jitter_source=injector.jitter if injector is not None else None,
            on_retry=self._on_retry,
            retry_gate=retry_gate,
            remaining_seconds=(
                governor.remaining_seconds if governor is not None else None
            ),
        )

    def read_page(self, table: str, page_no: int, sequential: bool) -> None:
        """Record one page access through the buffer pool.

        Budget checks run first (a page read is the executor's natural
        batch boundary), then the fault injector gets a chance to raise;
        transient faults are retried with bounded backoff before the
        access is accounted.

        Raises:
            ResourceError: on budget violation or cancellation.
            CircuitBreakerOpen: fail-fast while the breaker is open.
            TransientStorageError: when a fault outlives its retries.
        """
        if self.governor is not None:
            self.governor.on_page_read()
        if self.fault_injector is not None:
            self._with_retries(
                lambda: self.fault_injector.on_page_read(table, page_no),
                site=table,
            )
        hit = self.buffer_pool.access((table, page_no))
        if hit:
            return
        if sequential:
            self.counters.seq_page_reads += 1
        else:
            self.counters.random_page_reads += 1

    def write_page(self, table: str, page_no: int) -> None:
        """Account one heap-page write, with fault injection first.

        The hook fires *before* the caller mutates the page, so an
        injected fault (after retries are exhausted) aborts the
        statement with the heap untouched -- statement-level atomicity
        falls out of the write ordering rather than fix-up code.
        """
        if self.governor is not None:
            self.governor.on_page_write()
        if self.fault_injector is not None:
            self._with_retries(
                lambda: self.fault_injector.on_page_write(table, page_no),
                site=table,
            )
        self.counters.pages_written += 1
        self.buffer_pool.access((table, page_no))

    def wal_append(self, site: str) -> None:
        """Account buffering one WAL record, with fault injection first
        (write-ahead ordering: the record is logged before the heap
        mutation it describes)."""
        if self.fault_injector is not None:
            self._with_retries(
                lambda: self.fault_injector.on_wal_append(site),
                site=site,
            )
        self.counters.wal_appends += 1

    def index_lookup(self, fn: Callable[[], _T], site: str) -> _T:
        """Run one index lookup through fault injection and retries."""
        if self.fault_injector is None:
            return fn()

        def attempt() -> _T:
            self.fault_injector.on_index_lookup(site)
            return fn()

        return self._with_retries(attempt, site=site)

    def reset(self) -> None:
        """Clear the buffer pool and counters for a fresh measurement."""
        self.buffer_pool.clear()
        self.counters = ExecCounters()
        self.runtime = None
        self.governor = None
        self.feedback_summary = None
        self.queue_wait_seconds = 0.0


@dataclass
class QueryMetrics:
    """Per-session counters: the observability registry (one per Database).

    Splitting optimizer time from execution time measures the lever the
    plan cache pulls: for repeated parameterized queries the optimizer
    share is pure overhead after the first call.
    """

    queries_run: int = 0
    statements_prepared: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_invalidations: int = 0
    pages_read: int = 0
    rows_returned: int = 0
    optimize_seconds: float = 0.0
    execute_seconds: float = 0.0
    # Robustness counters: typed execution failures, plans evicted from
    # the cache because they failed, conservative re-optimizations, and
    # transient-fault retries absorbed by the executor.
    execution_failures: int = 0
    plan_cache_error_evictions: int = 0
    conservative_reoptimizations: int = 0
    fault_retries: int = 0
    # Cardinality-feedback counters: observed selectivities harvested
    # from executions, and cached plans invalidated because feedback
    # showed their cardinality estimates were badly off.
    feedback_observations: int = 0
    feedback_reoptimizations: int = 0
    # Adaptive-execution counters: validity-range CHECKs that fired,
    # mid-query re-optimizations performed, and checkpointed
    # intermediates replayed by spliced remainder plans.
    adaptive_checks_fired: int = 0
    adaptive_reoptimizations: int = 0
    adaptive_checkpoints_reused: int = 0
    # Admission-control counters: queries admitted (some after waiting
    # in the queue), queries shed with a typed retryable rejection
    # (queue full, tenant rate limit, or queue timeout -- timeouts also
    # counted separately), cumulative queue wait, and storage accesses
    # the circuit breaker suppressed fail-fast.
    queries_admitted: int = 0
    queries_queued: int = 0
    queries_shed: int = 0
    queue_timeouts: int = 0
    queue_wait_seconds: float = 0.0
    breaker_fast_fails: int = 0
    # Transactional-DML counters: DML statements executed, rows written,
    # commits/aborts, and first-writer-wins conflicts raised.
    dml_statements: int = 0
    rows_written: int = 0
    transactions_committed: int = 0
    transactions_aborted: int = 0
    serialization_conflicts: int = 0

    def record_execution(self, context: "ExecContext", rows: int) -> None:
        """Fold one execution's observed work into the session totals."""
        self.queries_run += 1
        self.rows_returned += rows
        self.pages_read += context.counters.total_page_reads
        self.fault_retries += context.counters.retries
        self.breaker_fast_fails += context.counters.breaker_fast_fails
        self.rows_written += context.counters.rows_written

    def format(self) -> str:
        """Readable multi-line rendering (the shell's ``\\metrics``)."""
        total = self.plan_cache_hits + self.plan_cache_misses
        hit_ratio = self.plan_cache_hits / total if total else 0.0
        return "\n".join(
            [
                f"queries run:              {self.queries_run}",
                f"statements prepared:      {self.statements_prepared}",
                f"plan cache hits:          {self.plan_cache_hits}",
                f"plan cache misses:        {self.plan_cache_misses}",
                f"plan cache invalidations: {self.plan_cache_invalidations}",
                f"plan cache hit ratio:     {hit_ratio:.0%}",
                f"pages read:               {self.pages_read}",
                f"rows returned:            {self.rows_returned}",
                f"optimizer time:           {self.optimize_seconds * 1000.0:.3f}ms",
                f"execution time:           {self.execute_seconds * 1000.0:.3f}ms",
                f"execution failures:       {self.execution_failures}",
                f"plans evicted on error:   {self.plan_cache_error_evictions}",
                f"conservative re-opts:     {self.conservative_reoptimizations}",
                f"fault retries:            {self.fault_retries}",
                f"feedback observations:    {self.feedback_observations}",
                f"feedback re-opts:         {self.feedback_reoptimizations}",
                f"adaptive checks fired:    {self.adaptive_checks_fired}",
                f"adaptive re-opts:         {self.adaptive_reoptimizations}",
                f"checkpoints reused:       {self.adaptive_checkpoints_reused}",
                f"queries admitted:         {self.queries_admitted}",
                f"queries queued:           {self.queries_queued}",
                f"queries shed:             {self.queries_shed}",
                f"queue timeouts:           {self.queue_timeouts}",
                f"queue wait total:         {self.queue_wait_seconds * 1000.0:.3f}ms",
                f"breaker fast-fails:       {self.breaker_fast_fails}",
                f"dml statements:           {self.dml_statements}",
                f"rows written:             {self.rows_written}",
                f"transactions committed:   {self.transactions_committed}",
                f"transactions aborted:     {self.transactions_aborted}",
                f"serialization conflicts:  {self.serialization_conflicts}",
            ]
        )
