"""Expression compilation: one closure per operator instead of a tree
walk per row.

:func:`evaluate` re-dispatches on expression type for every row an
operator touches.  The pipelined executor instead calls
:func:`compile_scalar` once when an operator's stream starts, folding
schema positions, literals, and operator dispatch into nested Python
closures; the per-row cost is then just the closure calls.

Semantics are identical to the tree-walking evaluator by construction:
the compiled closures reuse its ``_compare`` / ``_arith`` /
``_param_value`` helpers (same three-valued logic, same typed errors,
same late ``Param`` binding through ``bind_parameters``).  The
evaluator stays the reference implementation: the logical interpreter
runs on it, and the test suite compares compiled closures against it
row by row.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.errors import ExecutionError
from repro.expr.evaluator import _arith, _compare, _param_value, evaluate
from repro.expr.expressions import (
    Arithmetic,
    BoolExpr,
    BoolOp,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    InList,
    IsNull,
    Literal,
    NotExpr,
    Param,
    UdfCall,
)
from repro.expr.schema import StreamSchema

Row = Sequence[Any]
Compiled = Callable[[Row], Any]


def compile_scalar(expr: Expr, schema: StreamSchema) -> Compiled:
    """Compile an expression tree into a ``row -> value`` closure.

    Returns a value, or ``None`` for SQL NULL / UNKNOWN, exactly as
    :func:`repro.expr.evaluator.evaluate` would.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, Param):
        # Late binding: the bound-parameter tuple is looked up per row so
        # cached compiled plans see the values of the current execution.
        return lambda row: _param_value(expr)
    if isinstance(expr, ColumnRef):
        position = schema.position(expr)
        return lambda row: row[position]
    if isinstance(expr, Comparison):
        op = expr.op
        left = compile_scalar(expr.left, schema)
        right = compile_scalar(expr.right, schema)
        return lambda row: _compare(op, left(row), right(row))
    if isinstance(expr, BoolExpr):
        args = tuple(compile_scalar(arg, schema) for arg in expr.args)
        if expr.op is BoolOp.AND:

            def conjunction(row: Row) -> Optional[bool]:
                saw_unknown = False
                for arg in args:
                    value = arg(row)
                    if value is None:
                        saw_unknown = True
                    elif not value:
                        return False
                return None if saw_unknown else True

            return conjunction

        def disjunction(row: Row) -> Optional[bool]:
            saw_unknown = False
            for arg in args:
                value = arg(row)
                if value is None:
                    saw_unknown = True
                elif value:
                    return True
            return None if saw_unknown else False

        return disjunction
    if isinstance(expr, NotExpr):
        arg = compile_scalar(expr.arg, schema)

        def negation(row: Row) -> Optional[bool]:
            value = arg(row)
            if value is None:
                return None
            return not value

        return negation
    if isinstance(expr, Arithmetic):
        op = expr.op
        left = compile_scalar(expr.left, schema)
        right = compile_scalar(expr.right, schema)
        return lambda row: _arith(op, left(row), right(row))
    if isinstance(expr, IsNull):
        arg = compile_scalar(expr.arg, schema)
        if expr.negated:
            return lambda row: arg(row) is not None
        return lambda row: arg(row) is None
    if isinstance(expr, InList):
        needle_fn = compile_scalar(expr.arg, schema)
        values = tuple(compile_scalar(value, schema) for value in expr.values)

        def membership(row: Row) -> Optional[bool]:
            needle = needle_fn(row)
            if needle is None:
                return None
            saw_null = False
            for candidate in values:
                value = candidate(row)
                if value is None:
                    saw_null = True
                elif _compare(ComparisonOp.EQ, value, needle):
                    return True
            return None if saw_null else False

        return membership
    if isinstance(expr, UdfCall):
        fn = expr.fn
        name = expr.name
        args = tuple(compile_scalar(arg, schema) for arg in expr.args)

        def call(row: Row) -> Any:
            if fn is None:
                raise ExecutionError(f"UDF {name!r} has no bound implementation")
            values = [arg(row) for arg in args]
            try:
                return fn(*values)
            except Exception as exc:  # surface UDF bugs as execution errors
                raise ExecutionError(f"UDF {name!r} raised: {exc}") from exc

        return call
    # Unknown expression types defer to the evaluator, which raises the
    # canonical ExecutionError at evaluation time (not compile time).
    return lambda row: evaluate(expr, row, schema)


def compile_predicate(
    expr: Optional[Expr], schema: StreamSchema
) -> Callable[[Row], bool]:
    """Compile a filter predicate: keep the row only when exactly True.

    A missing predicate compiles to keep-everything, mirroring
    :func:`repro.expr.evaluator.predicate_holds`.
    """
    if expr is None:
        return lambda row: True
    scalar = compile_scalar(expr, schema)
    return lambda row: scalar(row) is True
