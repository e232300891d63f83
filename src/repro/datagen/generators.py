"""Workload generators: schemas, data, and query graphs.

Three families cover every experiment:

* **Emp/Dept** -- the paper's running example (Sections 4.2, 4.3).
* **Star schema** -- the OLAP decision-support shape of Section 4.1.1
  (a fact table with dimension tables).
* **Chain / star / clique query graphs** -- parameterized join queries
  for the enumeration experiments (E1, E3, E10).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Column, ColumnType
from repro.datagen.distributions import (
    distinct_words,
    pick_from,
    uniform_ints,
    zipf_values,
)
from repro.expr.expressions import ColumnRef, Comparison, ComparisonOp, col
from repro.logical.querygraph import QueryGraph
from repro.stats.summaries import TableStats, analyze_table

_CITIES = ["Denver", "Seattle", "Austin", "Boston", "Chicago", "Portland"]


# ----------------------------------------------------------------------
# Emp / Dept (the paper's running example)
# ----------------------------------------------------------------------
def build_emp_dept(
    catalog: Catalog,
    emp_rows: int = 2000,
    dept_rows: int = 100,
    rng: Optional[random.Random] = None,
    analyze: bool = True,
    null_fraction: float = 0.0,
) -> Tuple[TableStats, TableStats]:
    """Create and populate the Emp and Dept tables.

    Emp(emp_no, name, dept_no, sal, age); Dept(dept_no, name, loc,
    budget, mgr, num_machines).  ``dept_no`` is a foreign key of Emp into
    Dept, and ``mgr`` references an employee number, which makes the
    paper's correlated-subquery examples expressible.

    ``null_fraction`` replaces that share of nullable-column values
    (Emp.dept_no/sal/age, Dept.loc/budget/mgr/num_machines) with NULL,
    for the three-valued-logic and outer-join corners of the oracle
    suite.  At the default 0.0 the RNG draw sequence is exactly the
    historical one, so seeded datasets are unchanged.

    Returns:
        The (emp_stats, dept_stats) pair when ``analyze`` is set, else
        freshly computed but unregistered stats.
    """
    if rng is None:
        rng = random.Random(7)

    def nullable(value):
        if null_fraction > 0.0 and rng.random() < null_fraction:
            return None
        return value

    dept = catalog.create_table(
        "Dept",
        [
            Column("dept_no", ColumnType.INT, nullable=False),
            Column("name", ColumnType.STR, nullable=False),
            Column("loc", ColumnType.STR),
            Column("budget", ColumnType.FLOAT),
            Column("mgr", ColumnType.INT),
            Column("num_machines", ColumnType.INT),
        ],
        primary_key=["dept_no"],
    )
    emp = catalog.create_table(
        "Emp",
        [
            Column("emp_no", ColumnType.INT, nullable=False),
            Column("name", ColumnType.STR, nullable=False),
            Column("dept_no", ColumnType.INT),
            Column("sal", ColumnType.FLOAT),
            Column("age", ColumnType.INT),
        ],
        primary_key=["emp_no"],
    )
    dept_names = distinct_words(dept_rows, prefix="dept_")
    for dept_no in range(1, dept_rows + 1):
        dept.insert(
            (
                dept_no,
                dept_names[dept_no - 1],
                nullable(rng.choice(_CITIES)),
                nullable(rng.uniform(50_000, 500_000)),
                nullable(rng.randint(1, max(emp_rows, 1))),
                nullable(rng.randint(0, 40)),
            )
        )
    emp_names = distinct_words(emp_rows, prefix="emp_")
    for emp_no in range(1, emp_rows + 1):
        emp.insert(
            (
                emp_no,
                emp_names[emp_no - 1],
                nullable(rng.randint(1, dept_rows)),
                nullable(rng.uniform(30_000, 150_000)),
                nullable(rng.randint(21, 65)),
            )
        )
    catalog.create_index("idx_dept_pk", "Dept", ["dept_no"], clustered=True, unique=True)
    catalog.create_index("idx_emp_pk", "Emp", ["emp_no"], clustered=True, unique=True)
    catalog.create_index("idx_emp_dept", "Emp", ["dept_no"])
    if analyze:
        return analyze_table(catalog, "Emp"), analyze_table(catalog, "Dept")
    return (
        TableStats("Emp", emp.row_count, emp.page_count),
        TableStats("Dept", dept.row_count, dept.page_count),
    )


# ----------------------------------------------------------------------
# Star schema (OLAP, Section 4.1.1)
# ----------------------------------------------------------------------
def build_star_schema(
    catalog: Catalog,
    fact_rows: int = 5000,
    dimension_count: int = 3,
    dimension_rows: int = 50,
    rng: Optional[random.Random] = None,
    skew: float = 0.0,
    analyze: bool = True,
) -> Dict[str, TableStats]:
    """A fact table ``Sales`` plus ``dimension_count`` dimension tables.

    Sales(sale_id, d1_id..dk_id, amount, quantity); each Dim_i(id, attr,
    category).  Fact foreign keys may be Zipf-skewed.

    Returns:
        Stats per table name (when ``analyze``), else an empty dict.
    """
    if rng is None:
        rng = random.Random(11)
    dims = []
    for number in range(1, dimension_count + 1):
        name = f"Dim{number}"
        table = catalog.create_table(
            name,
            [
                Column("id", ColumnType.INT, nullable=False),
                Column("attr", ColumnType.INT),
                Column("category", ColumnType.STR),
            ],
            primary_key=["id"],
        )
        for identifier in range(1, dimension_rows + 1):
            table.insert(
                (
                    identifier,
                    rng.randint(1, 100),
                    rng.choice(["gold", "silver", "bronze"]),
                )
            )
        catalog.create_index(
            f"idx_dim{number}_pk", name, ["id"], clustered=True, unique=True
        )
        dims.append(name)
    fact_columns = [Column("sale_id", ColumnType.INT, nullable=False)]
    fact_columns.extend(
        Column(f"d{number}_id", ColumnType.INT)
        for number in range(1, dimension_count + 1)
    )
    fact_columns.append(Column("amount", ColumnType.FLOAT))
    fact_columns.append(Column("quantity", ColumnType.INT))
    fact = catalog.create_table("Sales", fact_columns, primary_key=["sale_id"])
    fk_columns: List[List[int]] = []
    for _ in range(dimension_count):
        if skew > 0:
            fk_columns.append(zipf_values(fact_rows, dimension_rows, skew, rng=rng))
        else:
            fk_columns.append(uniform_ints(fact_rows, 1, dimension_rows, rng=rng))
    for sale_id in range(1, fact_rows + 1):
        row = [sale_id]
        row.extend(fk_columns[index][sale_id - 1] for index in range(dimension_count))
        row.append(rng.uniform(1.0, 1000.0))
        row.append(rng.randint(1, 20))
        fact.insert(tuple(row))
    for number in range(1, dimension_count + 1):
        catalog.create_index(f"idx_sales_d{number}", "Sales", [f"d{number}_id"])
    if analyze:
        stats = {name: analyze_table(catalog, name) for name in dims}
        stats["Sales"] = analyze_table(catalog, "Sales")
        return stats
    return {}


# ----------------------------------------------------------------------
# Chain tables and parameterized query graphs
# ----------------------------------------------------------------------
def build_chain_tables(
    catalog: Catalog,
    relation_count: int,
    rows_per_relation: int = 500,
    domain_ratio: float = 0.1,
    rng: Optional[random.Random] = None,
    analyze: bool = True,
) -> List[str]:
    """Relations R1..Rn, each with columns (a, b, payload).

    Chain queries join ``Ri.b = R(i+1).a``; the shared domain size is
    ``rows * domain_ratio`` so joins neither explode nor vanish.

    Returns:
        The created table names in order.
    """
    if rng is None:
        rng = random.Random(13)
    domain = max(2, int(rows_per_relation * domain_ratio))
    names = []
    for number in range(1, relation_count + 1):
        name = f"R{number}"
        table = catalog.create_table(
            name,
            [
                Column("a", ColumnType.INT),
                Column("b", ColumnType.INT),
                Column("payload", ColumnType.INT),
            ],
        )
        for _ in range(rows_per_relation):
            table.insert(
                (
                    rng.randint(1, domain),
                    rng.randint(1, domain),
                    rng.randint(1, 1000),
                )
            )
        if analyze:
            analyze_table(catalog, name)
        names.append(name)
    return names


def chain_query_graph(aliases: Sequence[str]) -> QueryGraph:
    """A chain query: A1.b = A2.a, A2.b = A3.a, ... over given aliases.

    Aliases are assumed to name tables with columns ``a`` and ``b``
    (e.g. from :func:`build_chain_tables`, alias == table name).
    """
    graph = QueryGraph()
    for alias in aliases:
        graph.add_relation(alias, alias)
    for left, right in zip(aliases, aliases[1:]):
        graph.add_predicate(
            Comparison(ComparisonOp.EQ, col(left, "b"), col(right, "a"))
        )
    return graph


def star_query_graph(center: str, points: Sequence[str]) -> QueryGraph:
    """A star query: center.b joins every point's ``a`` column."""
    graph = QueryGraph()
    graph.add_relation(center, center)
    for point in points:
        graph.add_relation(point, point)
        graph.add_predicate(
            Comparison(ComparisonOp.EQ, col(center, "b"), col(point, "a"))
        )
    return graph


def clique_query_graph(aliases: Sequence[str]) -> QueryGraph:
    """A clique query: every pair of relations is joined on b = a."""
    graph = QueryGraph()
    for alias in aliases:
        graph.add_relation(alias, alias)
    for i, left in enumerate(aliases):
        for right in aliases[i + 1 :]:
            graph.add_predicate(
                Comparison(ComparisonOp.EQ, col(left, "b"), col(right, "a"))
            )
    return graph


def sales_star_query_graph(dimension_count: int) -> QueryGraph:
    """The star-schema join: Sales joins each dimension on its id."""
    graph = QueryGraph()
    graph.add_relation("S", "Sales")
    for number in range(1, dimension_count + 1):
        alias = f"D{number}"
        graph.add_relation(alias, f"Dim{number}")
        graph.add_predicate(
            Comparison(
                ComparisonOp.EQ, col("S", f"d{number}_id"), col(alias, "id")
            )
        )
    return graph


def stats_by_alias(
    catalog: Catalog, alias_to_table: Dict[str, str]
) -> Dict[str, TableStats]:
    """Resolve table statistics for query aliases.

    Tables never analyzed get a fresh (histogram-free) analysis.
    """
    result: Dict[str, TableStats] = {}
    for alias, table in alias_to_table.items():
        stats = catalog.stats(table)
        if stats is None:
            stats = analyze_table(catalog, table, histogram_kind=None)
        result[alias] = stats
    return result


def graph_stats(catalog: Catalog, graph: QueryGraph) -> Dict[str, TableStats]:
    """Statistics for every relation of a query graph, keyed by alias."""
    return stats_by_alias(
        catalog, {alias: graph.node(alias).table for alias in graph.aliases}
    )
