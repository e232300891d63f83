"""Two-phase (XPRS-style) and communication-aware (Hasan-style) parallel
query optimization (Section 7.1).

* :class:`TwoPhaseOptimizer` -- XPRS [31, 32]: phase one runs ordinary
  single-node cost-based optimization (our System-R enumerator); phase
  two schedules the chosen plan on the machine, inserting the exchanges
  the plan turns out to need.  Communication plays no role in choosing
  the join order.
* :class:`CommAwareOptimizer` -- Hasan [28]: keeps the two-phase shape
  but treats the *partitioning attribute of a data stream as a physical
  property* during join enumeration, so the cost of data repartitioning
  influences join order and plans that reuse an existing partitioning
  win when communication is expensive.

Both return a :class:`ParallelSchedule` whose response time / total work
split reproduces the paper's footnote-5 observation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.cost.model import pages_for_rows
from repro.cost.parameters import DEFAULT_PARAMETERS, CostParameters
from repro.errors import OptimizerError
from repro.expr.expressions import ColumnRef, Comparison, ComparisonOp, conjuncts
from repro.logical.querygraph import QueryGraph
from repro.physical.plans import PhysicalOp, walk_physical
from repro.core.parallel.machine import ParallelMachine
from repro.core.systemr.enumerator import EnumeratorConfig, SystemRJoinEnumerator
from repro.stats.propagation import CardinalityEstimator
from repro.stats.summaries import TableStats

# Partitioning state of a stream: hash columns (canonicalized) or None
# (arbitrary / round-robin placement).
PartKey = Optional[Tuple[Tuple[str, str], ...]]


@dataclass
class ParallelSchedule:
    """The outcome of scheduling a plan on a machine.

    Attributes:
        response_time: elapsed-time objective (work/p + comm + startup).
        total_work: sum of all per-node work (the single-node cost plus
            parallel overheads) -- usually *larger* than the serial cost.
        comm_cost: the communication component.
        exchanges: number of repartitioning steps.
        join_order: relation aliases in join order (for reporting).
    """

    response_time: float
    total_work: float
    comm_cost: float
    exchanges: int
    join_order: List[str] = field(default_factory=list)


def _canonical(columns: List[ColumnRef]) -> PartKey:
    return tuple(sorted((ref.table, ref.column) for ref in columns))


class TwoPhaseOptimizer:
    """XPRS-style: single-node plan first, then schedule it.

    Args:
        catalog / graph / stats_by_alias / params: as in the enumerator.
        machine: the parallel machine.
    """

    def __init__(
        self,
        catalog: Catalog,
        graph: QueryGraph,
        stats_by_alias: Dict[str, TableStats],
        machine: ParallelMachine,
        params: CostParameters = DEFAULT_PARAMETERS,
        config: EnumeratorConfig = EnumeratorConfig(),
    ) -> None:
        self.catalog = catalog
        self.graph = graph
        self.stats_by_alias = stats_by_alias
        self.machine = machine
        self.params = params
        self.config = config

    def optimize(self) -> Tuple[PhysicalOp, ParallelSchedule]:
        """Phase 1: serial plan; phase 2: schedule it on the machine."""
        enumerator = SystemRJoinEnumerator(
            self.catalog, self.graph, self.stats_by_alias, self.params, self.config
        )
        plan, _cost = enumerator.best_plan()
        schedule = schedule_plan(plan, self.machine, self.params)
        return plan, schedule


def schedule_plan(
    plan: PhysicalOp, machine: ParallelMachine, params: CostParameters
) -> ParallelSchedule:
    """Phase-2 scheduling of a serial physical plan.

    Every operator's own work is divided across processors; hash joins
    repartition both inputs on the join keys (pipelined operators share
    their producer's partitioning only when the keys match, which a
    serial plan never arranged deliberately -- that is the two-phase
    blind spot Hasan's approach removes).
    """
    from repro.physical.plans import (
        HashJoinP,
        INLJoinP,
        MergeJoinP,
        NLJoinP,
        SeqScanP,
        IndexScanP,
    )

    response = 0.0
    total_work = 0.0
    comm = 0.0
    exchanges = 0
    order: List[str] = []

    # Partitioning delivered by each node, keyed by id(op).
    delivered: Dict[int, PartKey] = {}

    def visit(op: PhysicalOp) -> None:
        nonlocal response, total_work, comm, exchanges
        for child in op.children():
            visit(child)
        own_cost = op.est_cost.total - sum(
            child.est_cost.total for child in op.children()
        )
        own_cost = max(own_cost, 0.0)
        response_part = machine.partitioned_time(own_cost)
        total_work += own_cost + machine.startup_cost_per_processor * (
            machine.processors - 1
        )
        response += response_part
        if isinstance(op, (SeqScanP, IndexScanP)):
            order.append(op.alias)
            delivered[id(op)] = None  # base tables arrive round-robin
            return
        if isinstance(op, (HashJoinP, MergeJoinP)):
            left_key = _canonical(list(op.left_keys))
            right_key = _canonical(list(op.right_keys))
            for child, need in ((op.left, left_key), (op.right, right_key)):
                if delivered.get(id(child)) != need:
                    # Typed stream width, not a guessed constant, so
                    # the simulated exchange moves the pages the
                    # plan's streams really occupy.
                    width = child.output_schema().row_width_bytes()
                    pages = pages_for_rows(child.est_rows, width, params)
                    cost = machine.repartition_cost(pages)
                    comm += cost
                    response += cost
                    total_work += cost
                    exchanges += 1
            delivered[id(op)] = left_key
            return
        if isinstance(op, (NLJoinP, INLJoinP)):
            # Broadcast the inner side so the outer stays in place.
            inner = op.children()[-1] if isinstance(op, NLJoinP) else None
            rows = inner.est_rows if inner is not None else op.est_rows
            width = (
                inner.output_schema().row_width_bytes()
                if inner is not None
                else op.output_schema().row_width_bytes()
            )
            pages = pages_for_rows(rows, width, params)
            cost = machine.broadcast_cost(pages)
            comm += cost
            response += cost
            total_work += cost
            exchanges += 1
            if isinstance(op, INLJoinP):
                order.append(op.alias)
            delivered[id(op)] = delivered.get(id(op.children()[0]))
            return
        # Order-insensitive unary operators inherit their child's placement.
        children = op.children()
        delivered[id(op)] = delivered.get(id(children[0])) if children else None

    visit(plan)
    return ParallelSchedule(
        response_time=response,
        total_work=total_work,
        comm_cost=comm,
        exchanges=exchanges,
        join_order=order,
    )


@dataclass
class _ParallelEntry:
    """DP entry: response-time cost and plan sketch with a partitioning."""

    cost: float
    comm: float
    partitioning: PartKey
    order: Tuple[str, ...]


class CommAwareOptimizer:
    """Hasan-style enumeration: partitioning as a physical property.

    A linear-join DP where each subset retains one best entry per
    partitioning key.  Joining on columns the stream is already
    partitioned by is free of communication; otherwise the entry pays a
    repartition.  The objective is response time, so when communication
    dominates, the chosen join order diverges from the serial optimum --
    the effect [28] demonstrated.
    """

    def __init__(
        self,
        catalog: Catalog,
        graph: QueryGraph,
        stats_by_alias: Dict[str, TableStats],
        machine: ParallelMachine,
        params: CostParameters = DEFAULT_PARAMETERS,
    ) -> None:
        self.catalog = catalog
        self.graph = graph
        self.machine = machine
        self.params = params
        self.estimator = CardinalityEstimator(stats_by_alias)

    # ------------------------------------------------------------------
    def optimize(self) -> ParallelSchedule:
        """Run the partition-aware DP; returns the best schedule."""
        aliases = self.graph.aliases
        if not aliases:
            raise OptimizerError("query graph has no relations")
        table: Dict[FrozenSet[str], Dict[PartKey, _ParallelEntry]] = {}
        for alias in aliases:
            rows = self.estimator.scan_rows(alias, self.graph)
            heap = self.catalog.table(self.graph.node(alias).table)
            scan_work = float(heap.page_count) + rows * self.params.cpu_tuple_cost
            entry = _ParallelEntry(
                cost=self.machine.partitioned_time(scan_work),
                comm=0.0,
                partitioning=None,
                order=(alias,),
            )
            table[frozenset((alias,))] = {None: entry}
        for size in range(2, len(aliases) + 1):
            for subset_tuple in itertools.combinations(aliases, size):
                subset = frozenset(subset_tuple)
                entries: Dict[PartKey, _ParallelEntry] = {}
                for alias in subset_tuple:
                    rest = subset - {alias}
                    if rest not in table:
                        continue
                    if not self.graph.connected(rest, {alias}):
                        continue
                    for entry in table[rest].values():
                        candidate = self._extend(entry, rest, alias, subset)
                        if candidate is None:
                            continue
                        existing = entries.get(candidate.partitioning)
                        if existing is None or candidate.cost < existing.cost:
                            entries[candidate.partitioning] = candidate
                if entries:
                    table[subset] = entries
        full = table.get(frozenset(aliases))
        if not full:
            raise OptimizerError("partition-aware DP produced no plan")
        best = min(full.values(), key=lambda entry: entry.cost)
        return ParallelSchedule(
            response_time=best.cost,
            total_work=best.cost * self.machine.processors,
            comm_cost=best.comm,
            exchanges=0,
            join_order=list(best.order),
        )

    # ------------------------------------------------------------------
    def _alias_width(self, alias: str) -> int:
        """Stored row width of one relation, from its schema."""
        return self.catalog.schema(
            self.graph.node(alias).table
        ).row_width_bytes

    # ------------------------------------------------------------------
    def _extend(
        self,
        entry: _ParallelEntry,
        left_set: FrozenSet[str],
        alias: str,
        subset: FrozenSet[str],
    ) -> Optional[_ParallelEntry]:
        predicate = self.graph.connecting_predicate(left_set, {alias})
        pairs: List[Tuple[ColumnRef, ColumnRef]] = []
        for conjunct in conjuncts(predicate):
            if (
                isinstance(conjunct, Comparison)
                and conjunct.op is ComparisonOp.EQ
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                l, r = conjunct.left, conjunct.right
                if l.table in left_set and r.table == alias:
                    pairs.append((l, r))
                elif r.table in left_set and l.table == alias:
                    pairs.append((r, l))
        if not pairs:
            return None
        left_rows = self.estimator.relation_set_cardinality(left_set, self.graph)
        right_rows = self.estimator.scan_rows(alias, self.graph)
        out_rows = self.estimator.relation_set_cardinality(subset, self.graph)
        left_key = _canonical([l for l, _r in pairs])
        right_key = _canonical([r for _l, r in pairs])
        comm = 0.0
        # Typed widths from the catalog (joined streams carry every
        # table's columns), replacing the old guessed 32-byte rows.
        left_width = float(
            sum(self._alias_width(member) for member in left_set)
        )
        right_width = float(self._alias_width(alias))
        # Left side: already partitioned on the join columns?
        if entry.partitioning != left_key:
            pages = pages_for_rows(left_rows, left_width, self.params)
            comm += self.machine.repartition_cost(pages)
        # Right side: scans always need partitioning on the join key.
        right_pages = pages_for_rows(right_rows, right_width, self.params)
        comm += self.machine.repartition_cost(right_pages)
        heap = self.catalog.table(self.graph.node(alias).table)
        join_work = (
            float(heap.page_count)
            + (left_rows + right_rows) * self.params.cpu_hash_cost
            + out_rows * self.params.cpu_tuple_cost
        )
        cost = entry.cost + self.machine.partitioned_time(join_work) + comm
        # Output of a hash join is partitioned on the (left) join key.
        return _ParallelEntry(
            cost=cost,
            comm=entry.comm + comm,
            partitioning=left_key,
            order=entry.order + (alias,),
        )
