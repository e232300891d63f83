"""Vector kernels: whole-batch expression evaluation over numpy columns.

The row-batch engine (PR 5) moves *batches* between operators but still
pays an interpreted-Python closure call per row.  This module is the
third expression backend: :func:`compile_vector` lowers an expression
tree to a kernel that consumes a :class:`ColumnarBatch` and produces a
whole column at once -- numpy elementwise ops on ``int64``/``float64``
columns, an object-dtype path where Python semantics cannot be
reproduced by the dtype (big ints, strings, mixed types), and a
row-at-a-time fallback (through :func:`repro.expr.compiler.compile_scalar`,
whose parity with the tree-walking evaluator is pinned by the
differential suites) for anything else.

NULL is represented by an explicit boolean *validity mask*, never by
NaN: a float column can hold a genuine NaN in a valid lane, and the two
are distinguishable end to end (``x IS NULL`` is False for a NaN value;
an aggregate skips NULL lanes but folds NaN lanes).

Error parity with row-at-a-time execution is kept by *deferring* errors
per lane: kernels that can raise (division by zero, incomparable
comparisons, UDFs) record ``{lane: ExecutionError}`` instead of raising
mid-batch, AND/OR combiners discard errors on lanes where an earlier
argument already decided the outcome (vectorized short-circuit), and the
consuming operator raises the error with the lowest lane index before
the batch escapes -- the same error a row-at-a-time loop would have hit
first.

Fast paths only engage when they are *bit-identical* to Python scalar
semantics.  The guards that matter:

* ``int64`` add/sub/mul runs vectorized only when exact interval
  arithmetic over the operand bounds proves the result cannot leave
  int64 (numpy wraps silently; Python ints are arbitrary precision);
* ``int64`` lanes take part in a float comparison or int/int division
  only when every magnitude is below 2**53 (numpy casts int64 to
  float64, which is lossy past that point; Python compares exactly);
* columns whose Python values overflow int64 ingest as object dtype in
  the first place (see ``ColumnarBatch.from_rows``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.expr.compiler import compile_scalar
from repro.expr.evaluator import _param_value
from repro.expr.expressions import (
    Arithmetic,
    ArithOp,
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
)
from repro.expr.schema import StreamSchema

# Largest integer magnitude for which int64 -> float64 conversion is
# exact; beyond it numpy's silent cast diverges from Python's exact
# int-vs-float comparison and exact int/int division.
_EXACT_FLOAT_INT = 2**53
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# Lane-indexed deferred errors; ``None`` means "no error anywhere".
ErrorMap = Optional[Dict[int, ExecutionError]]


class VColumn:
    """One column of a batch: values + validity mask + deferred errors.

    ``values`` is a numpy array (``int64``, ``float64``, ``bool``, or
    ``object``); ``valid`` is a boolean array where ``True`` means the
    lane holds a real (non-NULL) value.  Values in invalid lanes are
    unspecified garbage -- the mask is the single source of truth, so a
    NaN in a *valid* lane is a genuine NaN value, never a NULL.
    """

    __slots__ = ("values", "valid", "errors", "_bounds")

    def __init__(
        self,
        values: np.ndarray,
        valid: np.ndarray,
        errors: ErrorMap = None,
    ) -> None:
        self.values = values
        self.valid = valid
        self.errors = errors
        self._bounds: Optional[Tuple[int, int]] = None

    def __len__(self) -> int:
        return len(self.values)

    def bounds(self) -> Tuple[int, int]:
        """Exact Python-int (min, max) over the full values array.

        Used by the overflow / 2**53 guards for int64 columns.  Garbage
        lanes are included deliberately: fast-path kernels bound their
        outputs over *all* lanes, so the conservative interval stays
        closed under composition.
        """
        if self._bounds is None:
            if len(self.values) == 0:
                self._bounds = (0, 0)
            else:
                self._bounds = (int(self.values.min()), int(self.values.max()))
        return self._bounds

    def raise_first(self) -> None:
        """Raise the deferred error a row-at-a-time loop would hit first."""
        if self.errors:
            raise self.errors[min(self.errors)]


Kernel = Callable[[Any], VColumn]

_NP_CMP = {
    ComparisonOp.EQ: np.equal,
    ComparisonOp.NE: np.not_equal,
    ComparisonOp.LT: np.less,
    ComparisonOp.LE: np.less_equal,
    ComparisonOp.GT: np.greater,
    ComparisonOp.GE: np.greater_equal,
}


def _merge_errors(first: ErrorMap, second: ErrorMap) -> ErrorMap:
    """Lane-wise merge; at a shared lane the *first* map wins (it came
    from the operand a row-at-a-time loop evaluates earlier)."""
    if not second:
        return dict(first) if first else None
    merged = dict(second)
    if first:
        merged.update(first)
    return merged


def _is_numeric(values: np.ndarray) -> bool:
    return values.dtype.kind in ("i", "f", "b")


def _is_int(values: np.ndarray) -> bool:
    return values.dtype.kind in ("i", "b")


def _within_exact_float(vc: VColumn) -> bool:
    lo, hi = vc.bounds()
    return -_EXACT_FLOAT_INT < lo and hi < _EXACT_FLOAT_INT


def _native_values(values: np.ndarray) -> Sequence[Any]:
    """Lane values as native Python objects (object arrays already are;
    numeric arrays convert losslessly via tolist)."""
    if values.dtype == object:
        return values
    return values.tolist()


def truthy(vc: VColumn) -> np.ndarray:
    """Python truthiness of each lane (garbage in invalid/error lanes)."""
    values = vc.values
    if values.dtype == np.bool_:
        return values
    if values.dtype == object:
        out = np.zeros(len(values), dtype=bool)
        for i in np.nonzero(vc.valid)[0]:
            out[i] = bool(values[i])
        return out
    return values != 0


def _broadcast(n: int, value: Any) -> VColumn:
    """A constant column.  Dtype mirrors ``ColumnarBatch.from_rows``:
    int64/float64 when exact, object otherwise (bools stay object so a
    projected ``TRUE`` round-trips as ``True``, not ``1``)."""
    if value is None:
        return VColumn(
            np.empty(n, dtype=object), np.zeros(n, dtype=bool)
        )
    if type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
        return VColumn(
            np.full(n, value, dtype=np.int64), np.ones(n, dtype=bool)
        )
    if type(value) is float:
        return VColumn(
            np.full(n, value, dtype=np.float64), np.ones(n, dtype=bool)
        )
    out = np.empty(n, dtype=object)
    out[:] = value
    return VColumn(out, np.ones(n, dtype=bool))


def _rowwise(expr: Expr, schema: StreamSchema) -> Kernel:
    """Universal fallback: run the compiled scalar closure lane by lane.

    Correct for every expression the row engines accept (it *is* the
    row path), deferring per-lane ExecutionErrors so surrounding vector
    combinators keep short-circuit error parity.
    """
    fn = compile_scalar(expr, schema)

    def kernel(batch: Any) -> VColumn:
        rows = batch.rows()
        n = batch.length
        values = np.empty(n, dtype=object)
        valid = np.ones(n, dtype=bool)
        errors: Dict[int, ExecutionError] = {}
        for i, row in enumerate(rows):
            try:
                value = fn(row)
            except ExecutionError as exc:
                errors[i] = exc
                valid[i] = False
                continue
            if value is None:
                valid[i] = False
            else:
                values[i] = value
        return VColumn(values, valid, errors or None)

    return kernel


def _compare_kernel(expr: Comparison, schema: StreamSchema) -> Kernel:
    from repro.expr.evaluator import _compare

    op = expr.op
    left_k = compile_vector(expr.left, schema)
    right_k = compile_vector(expr.right, schema)
    np_op = _NP_CMP[op]

    def kernel(batch: Any) -> VColumn:
        left = left_k(batch)
        right = right_k(batch)
        errors = _merge_errors(left.errors, right.errors)
        valid = left.valid & right.valid
        if _is_numeric(left.values) and _is_numeric(right.values):
            int_float = _is_int(left.values) != _is_int(right.values)
            safe = True
            if int_float:
                # int-vs-float comparison: numpy casts the int column to
                # float64; only exact below 2**53.
                int_side = left if _is_int(left.values) else right
                safe = _within_exact_float(int_side)
            if safe:
                with np.errstate(invalid="ignore"):
                    values = np_op(left.values, right.values)
                return VColumn(values, valid, errors)
        # Object path: Python semantics lane by lane via the shared
        # _compare helper (same ExecutionError for incomparable pairs).
        # Native values, not numpy scalars: np.int64 comparisons cast.
        lv = _native_values(left.values)
        rv = _native_values(right.values)
        values = np.zeros(batch.length, dtype=bool)
        new_errors: Dict[int, ExecutionError] = {}
        for i in np.nonzero(valid)[0]:
            i = int(i)
            if errors and i in errors:
                continue
            try:
                values[i] = _compare(op, lv[i], rv[i])
            except ExecutionError as exc:
                new_errors[i] = exc
                valid[i] = False
        if new_errors:
            errors = _merge_errors(errors, new_errors)
        return VColumn(values, valid, errors)

    return kernel


def _arith_kernel(expr: Arithmetic, schema: StreamSchema) -> Kernel:
    from repro.expr.evaluator import _arith

    op = expr.op
    left_k = compile_vector(expr.left, schema)
    right_k = compile_vector(expr.right, schema)

    def object_path(
        batch: Any, left: VColumn, right: VColumn,
        valid: np.ndarray, errors: ErrorMap,
    ) -> VColumn:
        # Native values, not numpy scalars: np.int64 + np.int64 wraps
        # silently, which is precisely what this path must not do.
        lv = _native_values(left.values)
        rv = _native_values(right.values)
        values = np.empty(batch.length, dtype=object)
        new_errors: Dict[int, ExecutionError] = {}
        for i in np.nonzero(valid)[0]:
            i = int(i)
            if errors and i in errors:
                continue
            try:
                values[i] = _arith(op, lv[i], rv[i])
            except ExecutionError as exc:
                new_errors[i] = exc
                valid[i] = False
        if new_errors:
            errors = _merge_errors(errors, new_errors)
        return VColumn(values, valid, errors)

    def kernel(batch: Any) -> VColumn:
        left = left_k(batch)
        right = right_k(batch)
        errors = _merge_errors(left.errors, right.errors)
        valid = left.valid & right.valid
        if not (_is_numeric(left.values) and _is_numeric(right.values)):
            return object_path(batch, left, right, valid, errors)
        # Python coerces bool to int under arithmetic (True + False == 1)
        # but numpy bool arrays do logical add and refuse subtraction.
        if left.values.dtype.kind == "b":
            left = VColumn(left.values.astype(np.int64), left.valid, left.errors)
        if right.values.dtype.kind == "b":
            right = VColumn(
                right.values.astype(np.int64), right.valid, right.errors
            )
        both_int = _is_int(left.values) and _is_int(right.values)
        if op is ArithOp.DIV:
            if both_int and not (
                _within_exact_float(left) and _within_exact_float(right)
            ):
                # Python divides big ints exactly (correctly-rounded
                # rational); numpy's int64->float64 casts are lossy.
                return object_path(batch, left, right, valid, errors)
            zero = valid & (right.values == 0)
            if zero.any():
                new_errors: Dict[int, ExecutionError] = {}
                for i in np.nonzero(zero)[0]:
                    i = int(i)
                    if errors and i in errors:
                        continue
                    new_errors[i] = ExecutionError("division by zero")
                errors = _merge_errors(errors, new_errors)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                values = np.true_divide(left.values, right.values)
            return VColumn(values, valid, errors)
        if both_int:
            llo, lhi = left.bounds()
            rlo, rhi = right.bounds()
            if op is ArithOp.ADD:
                lo, hi = llo + rlo, lhi + rhi
            elif op is ArithOp.SUB:
                lo, hi = llo - rhi, lhi - rlo
            else:  # MUL: extreme products bound the exact interval
                corners = (llo * rlo, llo * rhi, lhi * rlo, lhi * rhi)
                lo, hi = min(corners), max(corners)
            if lo < _INT64_MIN or hi > _INT64_MAX:
                # int64 would wrap silently; Python ints do not.
                return object_path(batch, left, right, valid, errors)
        np_op = {
            ArithOp.ADD: np.add,
            ArithOp.SUB: np.subtract,
            ArithOp.MUL: np.multiply,
        }[op]
        with np.errstate(invalid="ignore", over="ignore"):
            values = np_op(left.values, right.values)
        return VColumn(values, valid, errors)

    return kernel


def _bool_kernel(expr: BoolExpr, schema: StreamSchema) -> Kernel:
    kernels = [compile_vector(arg, schema) for arg in expr.args]
    is_and = expr.op is BoolOp.AND

    def kernel(batch: Any) -> VColumn:
        n = batch.length
        # Lanes where an earlier argument already returned (False for
        # AND, True for OR): later arguments are not "evaluated" there,
        # so their values, unknowns, AND errors are discarded -- the
        # vectorized equivalent of short-circuiting.
        decided = np.zeros(n, dtype=bool)
        saw_unknown = np.zeros(n, dtype=bool)
        errored = np.zeros(n, dtype=bool)
        errors: ErrorMap = None
        for arg_k in kernels:
            arg = arg_k(batch)
            active = ~decided & ~errored
            if arg.errors:
                reached = {
                    i: exc for i, exc in arg.errors.items() if active[i]
                }
                if reached:
                    errors = _merge_errors(errors, reached)
                    for i in reached:
                        errored[i] = True
                        active[i] = False
            t = truthy(arg)
            if is_and:
                early = active & arg.valid & ~t
            else:
                early = active & arg.valid & t
            decided |= early
            saw_unknown |= active & ~arg.valid
        if is_and:
            values = ~decided & ~saw_unknown
        else:
            values = decided
        valid = decided | ~saw_unknown
        return VColumn(values, valid, errors)

    return kernel


def _in_list_kernel(expr: InList, schema: StreamSchema) -> Kernel:
    # Fast path only for all-literal numeric candidate lists over a
    # numeric needle; anything else (strings, expressions as candidates,
    # mixed incomparable types) goes row-at-a-time for exact semantics.
    literals: List[Any] = []
    for candidate in expr.values:
        if not isinstance(candidate, Literal):
            return _rowwise(expr, schema)
        literals.append(candidate.value)
    present = [v for v in literals if v is not None]
    has_null = len(present) < len(literals)
    for v in present:
        if type(v) is int:
            if not (-_EXACT_FLOAT_INT < v < _EXACT_FLOAT_INT):
                return _rowwise(expr, schema)
        elif type(v) is not float:
            return _rowwise(expr, schema)
    needle_k = compile_vector(expr.arg, schema)
    fallback = _rowwise(expr, schema)

    def kernel(batch: Any) -> VColumn:
        needle = needle_k(batch)
        if not _is_numeric(needle.values):
            return fallback(batch)
        if _is_int(needle.values) and any(
            type(v) is float for v in present
        ) and not _within_exact_float(needle):
            return fallback(batch)
        match = np.zeros(batch.length, dtype=bool)
        for v in present:
            with np.errstate(invalid="ignore"):
                match |= needle.values == v
        # NULL candidates make a non-match UNKNOWN, never a match False.
        valid = needle.valid & (match if has_null else np.ones_like(match))
        return VColumn(match, valid, needle.errors)

    return kernel


def compile_vector(expr: Expr, schema: StreamSchema) -> Kernel:
    """Compile an expression into a ``batch -> VColumn`` kernel."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda batch: _broadcast(batch.length, value)
    if isinstance(expr, Param):
        # Late binding, looked up per batch (prepared-statement reruns).
        return lambda batch: _broadcast(batch.length, _param_value(expr))
    if isinstance(expr, ColumnRef):
        position = schema.position(expr)
        return lambda batch: batch.vcolumns[position]
    if isinstance(expr, Comparison):
        return _compare_kernel(expr, schema)
    if isinstance(expr, BoolExpr):
        return _bool_kernel(expr, schema)
    if isinstance(expr, NotExpr):
        arg_k = compile_vector(expr.arg, schema)

        def negation(batch: Any) -> VColumn:
            arg = arg_k(batch)
            return VColumn(~truthy(arg), arg.valid, arg.errors)

        return negation
    if isinstance(expr, IsNull):
        arg_k = compile_vector(expr.arg, schema)
        negated = expr.negated

        def null_test(batch: Any) -> VColumn:
            arg = arg_k(batch)
            values = arg.valid.copy() if negated else ~arg.valid
            if arg.errors:
                # Error lanes were never NULL-tested by the row loop.
                for i in arg.errors:
                    values[i] = False
            return VColumn(
                values, np.ones(batch.length, dtype=bool), arg.errors
            )

        return null_test
    if isinstance(expr, Arithmetic):
        return _arith_kernel(expr, schema)
    if isinstance(expr, InList):
        return _in_list_kernel(expr, schema)
    # UdfCall, subquery markers, and anything future: row-at-a-time.
    return _rowwise(expr, schema)


def compile_vector_predicate(
    expr: Optional[Expr], schema: StreamSchema
) -> Callable[[Any], np.ndarray]:
    """Compile a filter predicate into a ``batch -> keep-mask`` kernel.

    Deferred errors raise here -- before any row of the batch escapes --
    matching the row-batch engine, which fills a whole output batch
    before yielding it.
    """
    if expr is None:
        return lambda batch: np.ones(batch.length, dtype=bool)
    kern = compile_vector(expr, schema)

    def predicate(batch: Any) -> np.ndarray:
        vc = kern(batch)
        vc.raise_first()
        return vc.valid & truthy(vc)

    return predicate


# ----------------------------------------------------------------------
# Canonical key hashing (the columnar hash-join build and probe)
# ----------------------------------------------------------------------
# One 64-bit value hash with a single invariant: numerically equal key
# values hash equal regardless of representation -- int 2, float 2.0,
# and bool-as-int lanes agree; every NaN (including the executor's
# shared ``_NAN_KEY`` sentinel, which *is* a NaN) maps to one constant;
# NULL maps to another.  Numeric columns hash vectorized and object
# columns lane by lane through :func:`hash_value`, with bit-identical
# results, so a build side and a probe side of different dtypes still
# agree on every key.
#
# The mixer is the splitmix64 finalizer; numpy uint64 arithmetic wraps
# silently, matching the explicitly masked Python-int arithmetic.
_MASK64 = (1 << 64) - 1
_HASH_NULL = 0x9AE16A3B2F90404F
_HASH_NAN = 0xC2B2AE3D27D4EB4F
_HASH_GOLDEN = 0x9E3779B97F4A7C15
_HASH_SEED = 0x8445D61A4E774912
# Integral floats convert to exact Python ints only while the exponent
# keeps them in a range that also fits numpy's int64 cast.
_HASH_INT_FLOAT_BOUND = float(2**62)


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def hash_value(value: Any) -> int:
    """The canonical 64-bit hash of one key value."""
    if value is None:
        return _mix64(_HASH_NULL)
    if isinstance(value, bool):
        return _mix64(int(value))
    if isinstance(value, int):
        return _mix64(value & _MASK64)
    if isinstance(value, float):
        if value != value:
            return _mix64(_HASH_NAN)
        if value.is_integer() and abs(value) < _HASH_INT_FLOAT_BOUND:
            return _mix64(int(value) & _MASK64)
        bits = np.float64(value).view(np.uint64)
        return _mix64(int(bits))
    return _mix64(hash(value) & _MASK64)


def hash_column(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Per-lane canonical hashes for one column (NULL lanes included).

    Bit-identical to ``[hash_value(v) for v in lanes]`` where invalid
    lanes read as None.  Numeric dtypes hash vectorized; object columns
    (strings, big ints, mixed) hash lane by lane through the same
    scalar function.
    """
    n = len(values)
    kind = values.dtype.kind
    if kind in "iub":
        out = _mix64_array(values.astype(np.int64).astype(np.uint64))
    elif kind == "f":
        lanes = values.astype(np.float64, copy=False)
        with np.errstate(invalid="ignore"):
            isnan = np.isnan(lanes)
            integral = (
                np.isfinite(lanes)
                & (np.abs(lanes) < _HASH_INT_FLOAT_BOUND)
                & (np.floor(lanes) == lanes)
            )
        pre = lanes.view(np.uint64).copy()
        if integral.any():
            pre[integral] = (
                lanes[integral].astype(np.int64).astype(np.uint64)
            )
        if isnan.any():
            pre[isnan] = np.uint64(_HASH_NAN)
        out = _mix64_array(pre)
    else:
        out = np.fromiter(
            (
                hash_value(v if ok else None)
                for v, ok in zip(values.tolist(), valid.tolist())
            ),
            dtype=np.uint64,
            count=n,
        )
        return out
    if not valid.all():
        out[~valid] = np.uint64(_mix64(_HASH_NULL))
    return out


def hash_columns(columns: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Combined per-row hashes over (values, valid) key columns.

    Each row folds its per-column :func:`hash_column` lanes into one
    value, seeded and mixed so column order matters.
    """
    if not columns:
        return np.zeros(0, dtype=np.uint64)
    n = len(columns[0][0])
    h = np.full(n, _HASH_SEED, dtype=np.uint64)
    golden = np.uint64(_HASH_GOLDEN)
    for values, valid in columns:
        h = _mix64_array((h + golden) ^ hash_column(values, valid))
    return h
