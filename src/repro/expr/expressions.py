"""Scalar expression trees.

Expressions appear in predicates (WHERE/ON/HAVING), projections, and
aggregate arguments.  They are immutable and hashable so the optimizer can
use them as dictionary keys (e.g. the Cascades memo), and they expose the
column/table footprint that drives predicate placement decisions.
"""

from __future__ import annotations

import enum
from typing import Any, FrozenSet, Iterable, Optional, Sequence, Tuple


class Expr:
    """Base class for all scalar expressions.

    Subclasses are frozen value objects: equality and hashing are
    structural, which the memo and rewrite engine rely on.
    """

    __slots__ = ()

    def columns(self) -> FrozenSet["ColumnRef"]:
        """All column references appearing in this expression."""
        raise NotImplementedError

    def tables(self) -> FrozenSet[str]:
        """All table aliases referenced by this expression."""
        return frozenset(ref.table for ref in self.columns())

    def children(self) -> Tuple["Expr", ...]:
        """Immediate sub-expressions."""
        return ()

    def replace_children(self, children: Sequence["Expr"]) -> "Expr":
        """Rebuild this node with new children (same arity)."""
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    def to_sql(self) -> str:
        """Render as SQL-like text (for plan display and debugging)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.to_sql()


class ColumnRef(Expr):
    """A reference to a column of a (possibly aliased) relation."""

    __slots__ = ("table", "column")

    def __init__(self, table: str, column: str) -> None:
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "column", column)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("ColumnRef is immutable")

    def columns(self) -> FrozenSet["ColumnRef"]:
        return frozenset((self,))

    def to_sql(self) -> str:
        return f"{self.table}.{self.column}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ColumnRef)
            and self.table == other.table
            and self.column == other.column
        )

    def __hash__(self) -> int:
        return hash(("col", self.table, self.column))


class Literal(Expr):
    """A constant value (int, float, str, bool, or None for NULL)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Literal is immutable")

    def columns(self) -> FrozenSet[ColumnRef]:
        return frozenset()

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and type(self.value) is type(other.value)
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash(("lit", type(self.value).__name__, self.value))


class Param(Expr):
    """A prepared-statement parameter placeholder (``?``), 0-indexed.

    The optimizer treats a parameter like an opaque constant: it never
    contributes columns, selectivity estimation applies System R's
    unknown-constant rules, and an index on the compared column can
    still seek it.  The executor substitutes the bound value at
    evaluation time (and when an index scan starts), which is what
    lets one cached plan serve many EXECUTEs.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        object.__setattr__(self, "index", int(index))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Param is immutable")

    def columns(self) -> FrozenSet[ColumnRef]:
        return frozenset()

    def to_sql(self) -> str:
        return f"?{self.index + 1}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Param) and self.index == other.index

    def __hash__(self) -> int:
        return hash(("param", self.index))


class ComparisonOp(enum.Enum):
    """Binary comparison operators."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flip(self) -> "ComparisonOp":
        """The operator with operand sides exchanged (a < b  <=>  b > a)."""
        return {
            ComparisonOp.EQ: ComparisonOp.EQ,
            ComparisonOp.NE: ComparisonOp.NE,
            ComparisonOp.LT: ComparisonOp.GT,
            ComparisonOp.LE: ComparisonOp.GE,
            ComparisonOp.GT: ComparisonOp.LT,
            ComparisonOp.GE: ComparisonOp.LE,
        }[self]

    def negate(self) -> "ComparisonOp":
        """The logical negation of the operator (a < b  <=>  NOT a >= b)."""
        return {
            ComparisonOp.EQ: ComparisonOp.NE,
            ComparisonOp.NE: ComparisonOp.EQ,
            ComparisonOp.LT: ComparisonOp.GE,
            ComparisonOp.LE: ComparisonOp.GT,
            ComparisonOp.GT: ComparisonOp.LE,
            ComparisonOp.GE: ComparisonOp.LT,
        }[self]


class Comparison(Expr):
    """A binary comparison between two scalar expressions."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: ComparisonOp, left: Expr, right: Expr) -> None:
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Comparison is immutable")

    def columns(self) -> FrozenSet[ColumnRef]:
        return self.left.columns() | self.right.columns()

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def replace_children(self, children: Sequence[Expr]) -> "Comparison":
        left, right = children
        return Comparison(self.op, left, right)

    def is_equijoin_predicate(self) -> bool:
        """True when this is ``col = col`` over two different relations."""
        return (
            self.op is ComparisonOp.EQ
            and isinstance(self.left, ColumnRef)
            and isinstance(self.right, ColumnRef)
            and self.left.table != self.right.table
        )

    def to_sql(self) -> str:
        return f"{self.left.to_sql()} {self.op.value} {self.right.to_sql()}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Comparison)
            and self.op is other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("cmp", self.op, self.left, self.right))


class BoolOp(enum.Enum):
    """Boolean connectives."""

    AND = "AND"
    OR = "OR"


class BoolExpr(Expr):
    """An AND/OR over two or more sub-predicates (flattened n-ary form)."""

    __slots__ = ("op", "args")

    def __init__(self, op: BoolOp, args: Sequence[Expr]) -> None:
        if len(args) < 2:
            raise ValueError("BoolExpr needs at least two arguments")
        flattened: list = []
        for arg in args:
            if isinstance(arg, BoolExpr) and arg.op is op:
                flattened.extend(arg.args)
            else:
                flattened.append(arg)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", tuple(flattened))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("BoolExpr is immutable")

    def columns(self) -> FrozenSet[ColumnRef]:
        result: FrozenSet[ColumnRef] = frozenset()
        for arg in self.args:
            result |= arg.columns()
        return result

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def replace_children(self, children: Sequence[Expr]) -> "BoolExpr":
        return BoolExpr(self.op, tuple(children))

    def to_sql(self) -> str:
        joiner = f" {self.op.value} "
        return "(" + joiner.join(arg.to_sql() for arg in self.args) + ")"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BoolExpr)
            and self.op is other.op
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return hash(("bool", self.op, self.args))


class NotExpr(Expr):
    """Logical negation."""

    __slots__ = ("arg",)

    def __init__(self, arg: Expr) -> None:
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("NotExpr is immutable")

    def columns(self) -> FrozenSet[ColumnRef]:
        return self.arg.columns()

    def children(self) -> Tuple[Expr, ...]:
        return (self.arg,)

    def replace_children(self, children: Sequence[Expr]) -> "NotExpr":
        (arg,) = children
        return NotExpr(arg)

    def to_sql(self) -> str:
        return f"NOT ({self.arg.to_sql()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NotExpr) and self.arg == other.arg

    def __hash__(self) -> int:
        return hash(("not", self.arg))


class ArithOp(enum.Enum):
    """Binary arithmetic operators."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


class Arithmetic(Expr):
    """A binary arithmetic expression."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: ArithOp, left: Expr, right: Expr) -> None:
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Arithmetic is immutable")

    def columns(self) -> FrozenSet[ColumnRef]:
        return self.left.columns() | self.right.columns()

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def replace_children(self, children: Sequence[Expr]) -> "Arithmetic":
        left, right = children
        return Arithmetic(self.op, left, right)

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op.value} {self.right.to_sql()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Arithmetic)
            and self.op is other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("arith", self.op, self.left, self.right))


class IsNull(Expr):
    """``expr IS [NOT] NULL`` test (always two-valued)."""

    __slots__ = ("arg", "negated")

    def __init__(self, arg: Expr, negated: bool = False) -> None:
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "negated", negated)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("IsNull is immutable")

    def columns(self) -> FrozenSet[ColumnRef]:
        return self.arg.columns()

    def children(self) -> Tuple[Expr, ...]:
        return (self.arg,)

    def replace_children(self, children: Sequence[Expr]) -> "IsNull":
        (arg,) = children
        return IsNull(arg, self.negated)

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.arg.to_sql()} {suffix}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IsNull)
            and self.arg == other.arg
            and self.negated == other.negated
        )

    def __hash__(self) -> int:
        return hash(("isnull", self.arg, self.negated))


class InList(Expr):
    """``expr IN (literal, ...)`` membership test over a constant list."""

    __slots__ = ("arg", "values")

    def __init__(self, arg: Expr, values: Sequence[Expr]) -> None:
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "values", tuple(values))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("InList is immutable")

    def columns(self) -> FrozenSet[ColumnRef]:
        result = self.arg.columns()
        for value in self.values:
            result |= value.columns()
        return result

    def children(self) -> Tuple[Expr, ...]:
        return (self.arg,) + self.values

    def replace_children(self, children: Sequence[Expr]) -> "InList":
        return InList(children[0], tuple(children[1:]))

    def to_sql(self) -> str:
        items = ", ".join(value.to_sql() for value in self.values)
        return f"{self.arg.to_sql()} IN ({items})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, InList)
            and self.arg == other.arg
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash(("inlist", self.arg, self.values))


class UdfCall(Expr):
    """A user-defined function applied to scalar arguments (Section 7.2).

    UDF predicates carry their own per-tuple evaluation cost and
    selectivity, which the expensive-predicate optimizer consumes.

    Attributes:
        name: registered UDF name.
        args: argument expressions.
        per_tuple_cost: modelled CPU cost of one invocation, in the cost
            model's CPU units (an ordinary comparison costs 1).
        selectivity: fraction of input tuples expected to satisfy the
            predicate when the UDF is used as a filter.
    """

    __slots__ = ("name", "args", "per_tuple_cost", "selectivity", "fn")

    def __init__(
        self,
        name: str,
        args: Sequence[Expr],
        per_tuple_cost: float = 100.0,
        selectivity: float = 0.5,
        fn: Any = None,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "per_tuple_cost", float(per_tuple_cost))
        object.__setattr__(self, "selectivity", float(selectivity))
        object.__setattr__(self, "fn", fn)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("UdfCall is immutable")

    def columns(self) -> FrozenSet[ColumnRef]:
        result: FrozenSet[ColumnRef] = frozenset()
        for arg in self.args:
            result |= arg.columns()
        return result

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def replace_children(self, children: Sequence[Expr]) -> "UdfCall":
        return UdfCall(
            self.name, tuple(children), self.per_tuple_cost, self.selectivity, self.fn
        )

    @property
    def rank(self) -> float:
        """Predicate-migration rank: (selectivity - 1) / cost ([29, 30]).

        Lower (more negative) rank means the predicate should be applied
        earlier: it is cheap and/or highly selective.
        """
        return (self.selectivity - 1.0) / self.per_tuple_cost

    def to_sql(self) -> str:
        rendered = ", ".join(arg.to_sql() for arg in self.args)
        return f"{self.name}({rendered})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UdfCall)
            and self.name == other.name
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return hash(("udf", self.name, self.args))


# ----------------------------------------------------------------------
# Convenience constructors and traversals
# ----------------------------------------------------------------------
def col(table: str, column: str) -> ColumnRef:
    """Shorthand for :class:`ColumnRef`."""
    return ColumnRef(table, column)


def lit(value: Any) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def eq(left: Expr, right: Expr) -> Comparison:
    """Shorthand for an equality comparison."""
    return Comparison(ComparisonOp.EQ, left, right)


def conjuncts(predicate: Optional[Expr]) -> Tuple[Expr, ...]:
    """Split a predicate into its top-level AND conjuncts.

    ``None`` (no predicate) yields the empty tuple; a non-AND predicate
    yields a one-element tuple.
    """
    if predicate is None:
        return ()
    if isinstance(predicate, BoolExpr) and predicate.op is BoolOp.AND:
        return predicate.args
    return (predicate,)


def conjoin(predicates: Iterable[Expr]) -> Optional[Expr]:
    """AND together predicates; returns None for an empty input."""
    items = [p for p in predicates if p is not None]
    if not items:
        return None
    if len(items) == 1:
        return items[0]
    return BoolExpr(BoolOp.AND, items)


def substitute_columns(expr: Expr, mapping: dict) -> Expr:
    """Replace column references per ``mapping`` ({ColumnRef: Expr}).

    Used by view merging (Section 4.2.1) to rewrite a query's references
    to view columns into the view's defining expressions.
    """
    if isinstance(expr, ColumnRef):
        return mapping.get(expr, expr)
    children = expr.children()
    if not children:
        return expr
    new_children = [substitute_columns(child, mapping) for child in children]
    if tuple(new_children) == children:
        return expr
    return expr.replace_children(new_children)


def rename_tables(expr: Expr, mapping: dict) -> Expr:
    """Rewrite table aliases per ``mapping`` ({old_alias: new_alias})."""
    if isinstance(expr, ColumnRef):
        if expr.table in mapping:
            return ColumnRef(mapping[expr.table], expr.column)
        return expr
    children = expr.children()
    if not children:
        return expr
    new_children = [rename_tables(child, mapping) for child in children]
    if tuple(new_children) == children:
        return expr
    return expr.replace_children(new_children)
