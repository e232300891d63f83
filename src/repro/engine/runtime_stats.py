"""Per-operator runtime statistics -- the EXPLAIN ANALYZE machinery.

The paper's entire framework rests on the cost model *predicting*
runtime behavior (Section 5): estimated cardinalities drive plan
choice, and estimation error compounds up the plan.  This module
records what actually happened -- rows produced, invocations, wall
time, and buffer-pool misses per physical operator -- so estimated and
observed behavior can be rendered side by side and the estimate-vs-
actual gap measured instead of assumed.

A :class:`RuntimeStats` tree is created fresh for every execution (see
``executor.execute``), keyed by operator identity, so re-running a
cached prepared-statement plan never accumulates stale counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.physical.plans import PhysicalOp


@dataclass
class OpRuntimeStats:
    """Observed work of one physical operator during one execution.

    Attributes:
        label: the operator's display label.
        est_rows: the optimizer's cardinality estimate (copied from the
            plan so renderings survive plan mutation).
        actual_rows: rows actually produced (summed over invocations).
        invocations: number of times the operator ran (>1 only when a
            parent re-drives its input).
        wall_seconds: inclusive wall-clock time (children included).
        pages_read: inclusive physical page reads (buffer-pool misses).
        retries: inclusive transient-fault retries absorbed beneath this
            operator (the renderer subtracts children to localize them).
        degraded: the operator fell back to Grace-style partitioned
            execution under the memory budget.
        check_fired: a validity-range CHECK here triggered mid-query
            re-optimization.
        from_checkpoint: the operator replayed a materialized
            intermediate instead of recomputing it.
        peak_resident_rows: high-water mark of rows this operator held
            resident at once -- a batch for streaming operators, the
            materialized input (or build side) for pipeline breakers.
    """

    label: str
    est_rows: float
    actual_rows: int = 0
    invocations: int = 0
    wall_seconds: float = 0.0
    pages_read: int = 0
    retries: int = 0
    degraded: bool = False
    check_fired: bool = False
    from_checkpoint: bool = False
    peak_resident_rows: int = 0

    @property
    def q_error(self) -> float:
        """The estimate/actual cardinality ratio, always >= 1.

        The standard q-error metric: max(est/act, act/est) with both
        sides clamped to 1 row so empty results stay finite.
        """
        est = max(1.0, self.est_rows)
        act = max(1.0, float(self.actual_rows))
        return max(est / act, act / est)


class RuntimeStats:
    """Actual per-operator statistics for one plan execution.

    Nodes are keyed by operator identity, so the same tree can be
    rendered by walking the plan again after execution.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, OpRuntimeStats] = {}
        self.total_seconds: float = 0.0

    def node_for(self, op: PhysicalOp) -> OpRuntimeStats:
        """The stats node for an operator, created on first use."""
        node = self._nodes.get(id(op))
        if node is None:
            node = OpRuntimeStats(label=op._label(), est_rows=op.est_rows)
            self._nodes[id(op)] = node
        return node

    def get(self, op: PhysicalOp) -> Optional[OpRuntimeStats]:
        """The stats node for an operator, or None if it never ran."""
        return self._nodes.get(id(op))

    def __len__(self) -> int:
        return len(self._nodes)


def render_explain_analyze(
    plan: PhysicalOp,
    stats: RuntimeStats,
    optimize_seconds: Optional[float] = None,
    context=None,
) -> str:
    """EXPLAIN ANALYZE rendering: estimated vs. actual, per operator.

    Each line shows the operator with the optimizer's estimates next to
    the measured values, flagging large cardinality misestimates --
    the diagnostic loop the survey's cost-model discussion implies but
    classical systems rarely closed.  When ``context`` (an ExecContext)
    is supplied, governor and adaptivity events surface on the operators
    they happened at -- retries absorbed, degraded execution, fired
    CHECKs, replayed checkpoints -- plus a re-optimization footer, all
    omitted when nothing happened so quiet plans render as before.
    """
    lines: List[str] = []

    def visit(op: PhysicalOp, indent: int) -> None:
        pad = "  " * indent
        node = stats.get(op)
        if node is None:
            lines.append(f"{pad}{op._label()}  [never executed]")
        else:
            flag = ""
            if node.q_error >= 10.0:
                flag = f" !q-err={node.q_error:.0f}"
            # node.retries is inclusive of children (like pages_read);
            # subtracting the children localizes retries to the operator
            # whose accesses actually absorbed them.
            own_retries = node.retries - sum(
                child_node.retries
                for child in op.children()
                for child_node in (stats.get(child),)
                if child_node is not None
            )
            if own_retries > 0:
                flag += f" retries={own_retries}"
            if node.degraded:
                flag += " degraded=grace-partitioned"
            if node.check_fired:
                flag += " CHECK-FIRED"
            if node.from_checkpoint:
                flag += " replayed-checkpoint"
            lines.append(
                f"{pad}{node.label}  "
                f"[est_rows={op.est_rows:.0f} act_rows={node.actual_rows} "
                f"loops={node.invocations} "
                f"time={node.wall_seconds * 1000.0:.3f}ms "
                f"pages={node.pages_read} "
                f"peak_rows={node.peak_resident_rows}{flag}]"
            )
        for child in op.children():
            visit(child, indent + 1)

    visit(plan, 0)
    if context is not None:
        counters = getattr(context, "counters", None)
        if counters is not None and counters.degraded_operators > 0:
            lines.append(f"degraded operators: {counters.degraded_operators}")
        if counters is not None and counters.retries > 0:
            lines.append(f"fault retries absorbed: {counters.retries}")
        if counters is not None and counters.breaker_fast_fails > 0:
            lines.append(
                f"breaker fast-fails: {counters.breaker_fast_fails}"
            )
        queue_wait = getattr(context, "queue_wait_seconds", 0.0)
        if queue_wait > 0.0:
            lines.append(f"queue wait: {queue_wait * 1000.0:.3f}ms")
        adaptive = getattr(context, "adaptive", None)
        if adaptive is not None and adaptive.events:
            lines.append(
                f"re-optimizations: {adaptive.reoptimizations} "
                f"(checkpoints reused: {adaptive.checkpoints_reused})"
            )
            lines.extend(
                "  check: " + event.describe() for event in adaptive.events
            )
    footer = f"execution time: {stats.total_seconds * 1000.0:.3f}ms"
    if optimize_seconds is not None:
        footer = (
            f"optimization time: {optimize_seconds * 1000.0:.3f}ms\n" + footer
        )
    lines.append(footer)
    return "\n".join(lines)
