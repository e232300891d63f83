"""repro: a relational query optimizer framework.

A from-scratch reproduction of the system described in Surajit
Chaudhuri's PODS 1998 survey, "An Overview of Query Optimization in
Relational Systems": a SQL front end, statistics with histograms, a
cost model, a Volcano-style execution engine, and three optimizer
architectures (System-R dynamic programming, Starburst-style rewrite
rules, and a Cascades-style memo search).

Quickstart::

    from repro import Database
    from repro.datagen import build_emp_dept

    db = Database()
    build_emp_dept(db.catalog, emp_rows=1000, dept_rows=50)
    result = db.sql("SELECT E.name, D.name FROM Emp E, Dept D "
                    "WHERE E.dept_no = D.dept_no AND E.sal > 100000")
    print(result.plan.explain())
"""

from repro.catalog import Catalog, Column, ColumnType
from repro.core.optimizer import (
    Database,
    OptimizedQuery,
    Optimizer,
    PlanCache,
    PreparedStatement,
    QueryResult,
)
from repro.core.systemr.enumerator import EnumeratorConfig
from repro.cost.parameters import CostParameters
from repro.engine.adaptive import AdaptiveConfig
from repro.engine.admission import (
    AdmissionConfig,
    AdmissionController,
    CircuitBreaker,
    MemoryPool,
    TokenBucket,
)
from repro.engine.context import QueryMetrics
from repro.engine.governor import (
    CancellationToken,
    QueryBudget,
    RetryPolicy,
)
from repro.engine.runtime_stats import RuntimeStats, render_explain_analyze
from repro.errors import SerializationError, TransactionError
from repro.storage.faults import FaultConfig, FaultInjector
from repro.storage.txn import TransactionManager
from repro.storage.wal import WriteAheadLog

__version__ = "1.0.0"

__all__ = [
    "AdaptiveConfig",
    "AdmissionConfig",
    "AdmissionController",
    "CancellationToken",
    "Catalog",
    "CircuitBreaker",
    "MemoryPool",
    "TokenBucket",
    "Column",
    "ColumnType",
    "CostParameters",
    "Database",
    "EnumeratorConfig",
    "FaultConfig",
    "FaultInjector",
    "OptimizedQuery",
    "Optimizer",
    "PlanCache",
    "PreparedStatement",
    "QueryBudget",
    "QueryMetrics",
    "QueryResult",
    "RetryPolicy",
    "RuntimeStats",
    "SerializationError",
    "TransactionError",
    "TransactionManager",
    "WriteAheadLog",
    "render_explain_analyze",
    "__version__",
]
