"""Span tracing from outside the program: wrappers around layer entry points.

The benchmark attributes each operation's time to the program's layers
without changing any file under ``src/``: :meth:`Tracer.install` replaces
the entry points ``Database.sql`` actually calls with timing wrappers, in
the traced process only.  Module-level names are patched at the import
site the caller resolves at call time (``repro.core.optimizer.execute``,
not ``repro.engine.executor.execute``), methods on their class.

Each span records name, start, end, parent and operation id.  Spans stay
in memory; :func:`write_spans` writes them out when the run ends.  A
layer's self time is its span's duration minus the time its child spans
cover; the per-operation root span's self time is the explicit ``other``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Container, Dict, List, Tuple

# (layer name, import path of the owner, attribute).  Order matters only
# for readability; every target is patched independently.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("sql.parse", "repro.core.optimizer", "parse_statement"),
    ("sql.parse", "repro.core.optimizer", "parse"),
    ("sql.bind", "repro.sql.binder:Binder", "bind"),
    ("logical.lower", "repro.core.optimizer", "lower_block"),
    ("core.optimize", "repro.core.optimizer:Optimizer", "optimize_statement"),
    ("core.rewrite", "repro.core.rewrite:RuleEngine", "rewrite"),
    ("core.physicalize", "repro.core.physicalize:Physicalizer", "plan_query"),
    ("core.systemr", "repro.core.systemr.enumerator:SystemRJoinEnumerator",
     "best_plan"),
    ("plan_cache", "repro.core.optimizer:PlanCache", "get"),
    ("plan_cache", "repro.core.optimizer:PlanCache", "put"),
    ("engine.execute", "repro.core.optimizer", "execute"),
    ("stats.feedback", "repro.engine.executor", "harvest_feedback"),
    ("storage.txn.commit", "repro.storage.txn:TransactionManager", "commit"),
    ("storage.txn.vacuum", "repro.storage.txn:TransactionManager",
     "maybe_vacuum"),
    ("storage.wal.recover", "repro.storage.txn:TransactionManager", "recover"),
    ("catalog.rebuild_indexes", "repro.catalog.catalog:Catalog",
     "rebuild_indexes"),
)

ROOT = "op"


def _resolve(path: str) -> Any:
    import importlib

    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Collects spans for one traced pass (single client thread)."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, op id)
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self._stack: List[int] = []
        self.op_id = -1
        self.rules_fired = 0
        # (owner, attribute, original, wrapper), resolved at first install.
        self._targets: List[Tuple[Any, str, Any, Callable]] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op_id))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _end, parent, op_id = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, op_id)

    def run_op(self, op_id: int, fn: Callable[[], Any]) -> Any:
        """Run one operation under a root span."""
        self.op_id = op_id
        index = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(index)

    def _wrap(self, name: str, original: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def _wrap_rewrite(self, original: Callable) -> Callable:
        tracer = self
        traced_call = self._wrap("core.rewrite", original)

        def traced(engine, op, context):
            before = len(context.trace)
            try:
                return traced_call(engine, op, context)
            finally:
                tracer.rules_fired += len(context.trace) - before

        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Replace every target with its timing wrapper."""
        if not self._targets:
            for name, path, attribute in TARGETS:
                owner = _resolve(path)
                original = owner.__dict__[attribute] \
                    if isinstance(owner, type) else getattr(owner, attribute)
                if name == "core.rewrite":
                    wrapper = self._wrap_rewrite(original)
                else:
                    wrapper = self._wrap(name, original)
                self._targets.append((owner, attribute, original, wrapper))
        for owner, attribute, _original, wrapper in self._targets:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Put every original back (install may be called again later)."""
        for owner, attribute, original, _wrapper in self._targets:
            setattr(owner, attribute, original)

    # -- analysis ------------------------------------------------------
    def self_times(self, ops: Container[int]) -> Dict[str, float]:
        """Seconds of self time per layer over the spans of ``ops``.

        The root span's self time is reported as ``other``, so the values
        add up to :meth:`wall` over the same operations.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, op) in enumerate(self.spans):
            if op in ops:
                layer = "other" if name == ROOT else name
                totals[layer] += (end - start) - covered[index]
        return dict(totals)

    def inclusive(self, name: str, ops: Container[int]) -> float:
        """Seconds inside ``name`` spans of ``ops``, outermost spans only."""
        total = 0.0
        inside = set()
        for index, (span, start, end, parent, op) in enumerate(self.spans):
            if span != name or op not in ops:
                continue
            inside.add(index)
            if parent not in inside:
                total += end - start
        return total

    def count(self, name: str, ops: Container[int]) -> int:
        return sum(1 for span in self.spans if span[0] == name and span[4] in ops)

    def wall(self, ops: Container[int]) -> float:
        """Traced wall time: the summed root-span durations of ``ops``."""
        return sum(end - start for name, start, end, _p, op in self.spans
                   if name == ROOT and op in ops)

    def rebuilds_in_vacuum(self, ops: Container[int]) -> int:
        """Vacuum calls of ``ops`` that rebuilt indexes (i.e. reclaimed
        dead rows)."""
        vacuums = set()
        for name, _s, _e, parent, op in self.spans:
            if name == "catalog.rebuild_indexes" and op in ops \
                    and parent >= 0 \
                    and self.spans[parent][0] == "storage.txn.vacuum":
                vacuums.add(parent)
        return len(vacuums)

    def misnested(self) -> int:
        """Spans that end before they start, leave their parent's interval
        or overlap an earlier sibling.  Spans that nest have self time >= 0."""
        last_end: Dict[int, float] = {}
        bad = 0
        for _name, start, end, parent, _op in self.spans:
            bad += end < start
            if parent >= 0:
                _n, parent_start, parent_end, _p, _o = self.spans[parent]
                bad += not parent_start <= start <= end <= parent_end
            bad += start < last_end.get(parent, start)
            last_end[parent] = end
        return bad

def write_spans(tracer: Tracer, path: str) -> None:
    """Write every span as one JSON line (at the end of the run)."""
    with open(path, "w", encoding="utf-8") as out:
        for index, (name, start, end, parent, op_id) in enumerate(tracer.spans):
            out.write(json.dumps({
                "id": index, "name": name, "start": start, "end": end,
                "parent": parent, "op": op_id,
            }) + "\n")


def per_operator_self(plan, runtime) -> Dict[str, float]:
    """RuntimeStats wall minus children, summed per operator kind."""
    from repro.physical.plans import walk_physical

    totals: Dict[str, float] = defaultdict(float)
    if plan is None or runtime is None:
        return totals
    for op in walk_physical(plan):
        node = runtime.get(op)
        if node is None:
            continue
        children = 0.0
        for child in op.children():
            child_node = runtime.get(child)
            if child_node is not None:
                children += child_node.wall_seconds
        kind = type(op).__name__
        if kind.endswith("P"):
            kind = kind[:-1]
        totals[kind] += max(0.0, node.wall_seconds - children)
    return totals
