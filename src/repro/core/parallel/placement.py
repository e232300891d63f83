"""Exchange placement: phase two of two-phase optimization, made real.

The two-phase machinery in :mod:`repro.core.parallel.twophase` *prices*
parallel schedules (response time = work/p + startup + communication,
Section 7.1) but until now only simulated them.  This pass runs after
the serial plan is physicalized and rewrites it into an executable
parallel plan: around each parallelizable operator it places the
distributing :class:`~repro.physical.plans.ExchangeP` operators stage 1
of the runtime partitions on, and a
:class:`~repro.physical.plans.GatherP` that marks the region boundary
where worker streams merge back into one (see
:mod:`repro.engine.parallel`).

The degree of parallelism is chosen per region with the same
:class:`~repro.core.parallel.machine.ParallelMachine` response-time
model the simulator uses: the operator's own estimated work is divided
across ``p`` workers, startup is paid per extra worker, and the
exchange's communication is priced by scheme (repartition moves
``(p-1)/p`` of the pages, broadcast replicates ``p-1`` copies).  A
region is only created when some ``p <= max_dop`` beats the serial
response time -- the startup term keeps tiny operators serial, exactly
the property the paper ascribes to the two-phase scheduler.

Supported region shapes mirror the runtime's worker twins:

* hash join (INNER / LEFT OUTER / SEMI / ANTI): both sides hash-
  repartitioned on the join keys, or the probe round-robin with the
  build broadcast when the build side is small enough that replication
  is cheaper than repartitioning the probe;
* hash aggregate with group keys: input hash-partitioned on the keys;
* distinct: input hash-partitioned on all columns;
* expensive UDF filters: input round-robin (embarrassingly parallel).

Plans produced here remain valid on every engine: the serial
row-batch and columnar engines treat Exchange/Gather as accounting
pass-throughs, so ``parallel_mode=False`` executes the same tree as the
bit-identical differential oracle.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.parallel.machine import ParallelMachine
from repro.cost.model import pages_for_rows
from repro.cost.parameters import CostParameters
from repro.logical.operators import JoinKind
from repro.physical.plans import (
    CheckP,
    DistinctP,
    ExchangeP,
    FilterP,
    GatherP,
    HashAggP,
    HashJoinP,
    PhysicalOp,
    ProjectP,
    StreamAggP,
    UdfFilterP,
)
from repro.physical.properties import Partitioning, PartitionScheme

_PARALLEL_JOIN_KINDS = (
    JoinKind.INNER,
    JoinKind.LEFT_OUTER,
    JoinKind.SEMI,
    JoinKind.ANTI,
)

# Builds at or below this row count are broadcast rather than
# hash-repartitioned: hash-splitting a tiny key domain (e.g. a 50-row
# dimension) lands whole keys on few workers and skews the partitions,
# while replicating a small build is cheap and keeps the round-robin
# probe perfectly balanced.
_BROADCAST_BUILD_ROWS = 1024.0

# Child-plan attribute names across the physical operator zoo; placement
# rewrites children in place, bottom-up.
_CHILD_ATTRS = ("child", "left", "right", "outer", "source")


def _bare_exchange(node: object) -> bool:
    """A distributing exchange that is *not* a gather.

    A bare exchange child means this operator already sits inside a
    placed region, so it must stay serial.  A :class:`GatherP` child is
    different: the gather is a finished region whose merged output is
    an ordinary serial stream, and placing a new exchange above it
    composes regions sequentially (stage 1 of the outer region drains
    the inner gather through the engine).
    """
    return isinstance(node, ExchangeP) and not isinstance(node, GatherP)


def place_exchanges(
    plan: PhysicalOp, params: CostParameters, max_dop: int
) -> PhysicalOp:
    """Rewrite a serial physical plan with executable exchange regions.

    Idempotent on already-parallel plans (existing gathers are left
    untouched) and a no-op when no operator's modeled response time
    improves under any degree up to ``max_dop``.
    """
    if max_dop <= 1:
        return plan
    return _visit(plan, params, max_dop)


def _visit(node: PhysicalOp, params: CostParameters, max_dop: int) -> PhysicalOp:
    if isinstance(node, (GatherP, ExchangeP)):
        # Already placed (hand-built parallel plan): leave the region
        # alone but keep walking below it.
        for attr in _CHILD_ATTRS:
            child = getattr(node, attr, None)
            if isinstance(child, PhysicalOp):
                setattr(node, attr, _visit(child, params, max_dop))
        return node
    for attr in _CHILD_ATTRS:
        child = getattr(node, attr, None)
        if isinstance(child, PhysicalOp):
            setattr(node, attr, _visit(child, params, max_dop))
    if isinstance(node, CheckP):
        # CHECK operators watch a serial stream's cardinality for the
        # adaptive replanner; never absorb them into a region.
        return node
    if isinstance(node, HashJoinP):
        return _maybe_join(node, params, max_dop) or node
    if isinstance(node, HashAggP) and not isinstance(node, StreamAggP):
        if node.keys and not _bare_exchange(node.child):
            return _maybe_keyed(node, list(node.keys), params, max_dop) or node
        return node
    if isinstance(node, DistinctP):
        if not _bare_exchange(node.child):
            return _maybe_distinct(node, params, max_dop) or node
        return node
    if isinstance(node, UdfFilterP):
        if not _bare_exchange(node.child):
            return _maybe_udf_filter(node, params, max_dop) or node
        return node
    if isinstance(node, (ProjectP, FilterP)) and isinstance(
        node.child, GatherP
    ):
        return _absorb_unary(node, node.child)
    return node


def _absorb_unary(node: PhysicalOp, gather: GatherP) -> GatherP:
    """Pull a pipelined unary operator inside the region below it.

    ``Project(Gather(root))`` becomes ``Gather(Project(root))``: the
    per-row projection/filter work runs on the workers instead of the
    serial coordinator.  Both operators are tag-preserving per-row
    maps, so the gather's deterministic merge is unaffected.
    """
    node.child = gather.child
    gather.child = node
    gather.est_rows = node.est_rows
    gather.est_cost = node.est_cost
    gather.order = node.order
    return gather


# ----------------------------------------------------------------------
# Costing
# ----------------------------------------------------------------------
def _own_work(node: PhysicalOp) -> float:
    """The operator's own estimated work (children subtracted)."""
    total = node.est_cost.total - sum(
        child.est_cost.total for child in node.children()
    )
    return max(0.0, total)


def _pages(node: PhysicalOp, params: CostParameters) -> float:
    width = node.output_schema().row_width_bytes()
    return pages_for_rows(max(0.0, node.est_rows), width, params)


def _machine(p: int, params: CostParameters) -> ParallelMachine:
    return ParallelMachine(
        processors=p,
        comm_cost_per_page=params.comm_cost_per_page,
        startup_cost_per_processor=params.startup_cost_per_operator,
    )


def _candidate_dops(max_dop: int) -> List[int]:
    dops = []
    p = 2
    while p <= max_dop:
        dops.append(p)
        p *= 2
    if max_dop > 1 and max_dop not in dops:
        dops.append(max_dop)
    return dops


# ----------------------------------------------------------------------
# Region builders
# ----------------------------------------------------------------------
def _hash_exchange(
    child: PhysicalOp, keys, degree: int
) -> Optional[ExchangeP]:
    schema = child.output_schema()
    try:
        positions = tuple(schema.position(ref) for ref in keys)
    except Exception:  # ambiguous or missing column: stay serial
        return None
    exchange = ExchangeP(
        child,
        Partitioning(PartitionScheme.HASH, tuple(keys), degree=degree),
    )
    exchange.key_positions = positions
    exchange.est_rows = child.est_rows
    exchange.est_cost = child.est_cost
    return exchange


def _plain_exchange(
    child: PhysicalOp, scheme: PartitionScheme, degree: int
) -> ExchangeP:
    exchange = ExchangeP(child, Partitioning(scheme, degree=degree))
    exchange.est_rows = child.est_rows
    exchange.est_cost = child.est_cost
    return exchange


def _maybe_join(
    node: HashJoinP, params: CostParameters, max_dop: int
) -> Optional[PhysicalOp]:
    if node.kind not in _PARALLEL_JOIN_KINDS:
        return None
    if _bare_exchange(node.left) or _bare_exchange(node.right):
        return None
    work = _own_work(node)
    if work <= 0.0:
        return None
    probe_pages = _pages(node.left, params)
    build_pages = _pages(node.right, params)
    serial = work
    best: Optional[Tuple[float, int, str]] = None
    for p in _candidate_dops(max_dop):
        machine = _machine(p, params)
        repart = machine.partitioned_time(work) + machine.repartition_cost(
            probe_pages
        ) + machine.repartition_cost(build_pages)
        # Broadcasting the build keeps the probe's placement free but
        # replicates the build to every worker (and its build work).
        broadcast = (
            machine.partitioned_time(work)
            + machine.repartition_cost(probe_pages)
            + machine.broadcast_cost(build_pages)
        )
        candidates = ((repart, "hash"), (broadcast, "broadcast"))
        if max(0.0, node.right.est_rows) <= _BROADCAST_BUILD_ROWS:
            candidates = ((broadcast, "broadcast"),)
        for response, strategy in candidates:
            if response < serial and (best is None or response < best[0]):
                best = (response, p, strategy)
    if best is None:
        return None
    _response, dop, strategy = best
    if strategy == "hash":
        left_ex = _hash_exchange(node.left, node.left_keys, dop)
        right_ex = _hash_exchange(node.right, node.right_keys, dop)
        if left_ex is None or right_ex is None:
            return None
    else:
        left_ex = _plain_exchange(node.left, PartitionScheme.ROUND_ROBIN, dop)
        right_ex = _plain_exchange(node.right, PartitionScheme.BROADCAST, dop)
    node.left = left_ex
    node.right = right_ex
    return GatherP(node, dop)


def _keyed_dop(
    node: PhysicalOp, params: CostParameters, max_dop: int
) -> Optional[int]:
    """Best degree for a single-input hash-repartitioned region."""
    work = _own_work(node)
    if work <= 0.0:
        return None
    input_pages = _pages(node.children()[0], params)
    best: Optional[Tuple[float, int]] = None
    for p in _candidate_dops(max_dop):
        machine = _machine(p, params)
        response = machine.partitioned_time(work) + machine.repartition_cost(
            input_pages
        )
        if response < work and (best is None or response < best[0]):
            best = (response, p)
    return best[1] if best is not None else None


def _maybe_keyed(
    node: HashAggP, keys, params: CostParameters, max_dop: int
) -> Optional[PhysicalOp]:
    dop = _keyed_dop(node, params, max_dop)
    if dop is None:
        return None
    exchange = _hash_exchange(node.child, keys, dop)
    if exchange is None:
        return None
    node.child = exchange
    return GatherP(node, dop)


def _maybe_distinct(
    node: DistinctP, params: CostParameters, max_dop: int
) -> Optional[PhysicalOp]:
    dop = _keyed_dop(node, params, max_dop)
    if dop is None:
        return None
    schema = node.child.output_schema()
    exchange = ExchangeP(
        node.child,
        Partitioning(PartitionScheme.HASH, degree=dop),
    )
    # Distinct partitions on the whole row, so equal rows (and only
    # equal rows) meet in one worker.
    exchange.key_positions = tuple(range(schema.arity))
    exchange.est_rows = node.child.est_rows
    exchange.est_cost = node.child.est_cost
    node.child = exchange
    return GatherP(node, dop)


def _maybe_udf_filter(
    node: UdfFilterP, params: CostParameters, max_dop: int
) -> Optional[PhysicalOp]:
    work = _own_work(node)
    if work <= 0.0:
        return None
    input_pages = _pages(node.child, params)
    best: Optional[Tuple[float, int]] = None
    for p in _candidate_dops(max_dop):
        machine = _machine(p, params)
        response = machine.partitioned_time(work) + machine.repartition_cost(
            input_pages
        )
        if response < work and (best is None or response < best[0]):
            best = (response, p)
    if best is None:
        return None
    dop = best[1]
    node.child = _plain_exchange(node.child, PartitionScheme.ROUND_ROBIN, dop)
    return GatherP(node, dop)
