"""The parallel machine model (Section 7.1).

A shared-nothing machine with ``processors`` identical nodes.  Work that
an operator performs can be divided across nodes when its input is
partitioned; moving rows between nodes (repartitioning, broadcasting)
costs communication.  Response time is work divided by the usable
degree of parallelism plus the communication paid -- the quantity
parallel databases optimize, in contrast to total work (the paper's
footnote 5: parallel execution reduces response time and often
*increases* total work).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ParallelMachine:
    """A homogeneous shared-nothing cluster.

    Attributes:
        processors: number of nodes.
        comm_cost_per_page: cost of shipping one page between nodes.
        startup_cost_per_processor: per-node task startup overhead --
            the term that makes tiny operators not worth parallelizing.
    """

    processors: int = 4
    comm_cost_per_page: float = 2.0
    startup_cost_per_processor: float = 0.5

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise ValueError("a machine needs at least one processor")

    def partitioned_time(self, work: float) -> float:
        """Response time of perfectly partitionable work."""
        return work / self.processors + self.startup_cost_per_processor * (
            self.processors - 1
        )

    def repartition_cost(self, pages: float) -> float:
        """Communication cost of hash-repartitioning a stream.

        Each row moves to its hash-target node; on average a fraction
        (p-1)/p of pages crosses the network.
        """
        if self.processors == 1:
            return 0.0
        moving = pages * (self.processors - 1) / self.processors
        return max(0.0, moving) * self.comm_cost_per_page

    def broadcast_cost(self, pages: float) -> float:
        """Communication cost of replicating a stream to every node."""
        if self.processors == 1:
            return 0.0
        return pages * (self.processors - 1) * self.comm_cost_per_page
