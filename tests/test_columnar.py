"""Columnar engine: vector-kernel parity, bugfix regressions, contracts.

Four concern groups, each pinning a satellite of the columnar PR:

* **InList semantics** -- compiled and vectorized membership must route
  equality through ``_compare`` exactly like the tree-walking evaluator:
  cross-type lists fall through silently (``1 IN ('a')`` is False, as in
  Python), while values whose ``__eq__`` raises ``TypeError`` surface
  the canonical ``ExecutionError`` on every backend.
* **Three-valued logic / error parity sweep** -- a property-style sweep
  over random mixed-type rows runs every random expression through the
  evaluator, the closure compiler, and the vector compiler, and demands
  identical per-row outcomes (value, NULL, or error message).  This is
  the net that catches bool/int coercion, cross-type IN-lists, UDF
  error wrapping, and short-circuit divergences.
* **int64 overflow** -- numpy wraps where Python ints are arbitrary
  precision; overflow-prone INT columns must fall back to object dtype
  and SUM/arithmetic near 2^63 must stay exact on both engines.
* **NaN vs NULL and pipeline contracts** -- NaN in a valid lane is a
  value, never a NULL; and every operator with a columnar handler must
  honor the same declared streaming/breaker flags as the row engine.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro import Database
from repro.catalog import Column, ColumnType
from repro.engine.columnar import (
    _COLUMNAR_HANDLERS,
    ColumnarBatch,
    drain_columns,
    stream_columns,
)
from repro.engine.context import ExecContext
from repro.engine.executor import execute
from repro.engine.interpreter import interpret
from repro.errors import ExecutionError
from repro.expr.compiler import compile_scalar
from repro.expr.evaluator import evaluate
from repro.expr.expressions import (
    Arithmetic,
    ArithOp,
    BoolExpr,
    BoolOp,
    ColumnRef,
    Comparison,
    ComparisonOp,
    InList,
    IsNull,
    Literal,
    NotExpr,
    UdfCall,
)
from repro.expr.schema import StreamSchema
from repro.expr.vector import compile_vector

from tests.test_pipeline_contract import (
    EXPECTED_FLAGS,
    _context,
    _factories,
    contract_catalog,  # noqa: F401  (fixture re-export)
)


# ----------------------------------------------------------------------
# Helpers: run one SQL text under an explicit engine configuration
# ----------------------------------------------------------------------
def _run_sql(db: Database, sql: str, columnar: bool = False):
    plan = db.optimizer().optimize(sql).physical
    context = ExecContext(db.params)
    context.columnar_mode = columnar
    _schema, rows = execute(plan, db.catalog, context)
    return rows


def _interpret_sql(db: Database, sql: str):
    """The reference interpreter over the optimizer's rewritten tree."""
    _schema, rows = interpret(db.optimizer().optimize(sql).rewritten, db.catalog)
    return rows


def _engines(db: Database, sql: str):
    """(row-batch, columnar) row lists for the same plan."""
    return _run_sql(db, sql), _run_sql(db, sql, columnar=True)


def _all_engines(db: Database, sql: str):
    """(interpreter, row-batch, columnar) row lists."""
    return (_interpret_sql(db, sql),) + _engines(db, sql)


def _outcome(fn):
    """Run a per-row evaluation; normalize to (tag, payload)."""
    try:
        value = fn()
    except ExecutionError as exc:
        return ("error", str(exc))
    return ("value", value)


def _vector_outcomes(expr, rows, schema):
    """Per-lane (tag, payload) outcomes from the vector backend."""
    batch = ColumnarBatch.from_rows(rows, schema)
    vc = compile_vector(expr, schema)(batch)
    native = (
        list(vc.values)
        if vc.values.dtype == object
        else vc.values.tolist()
    )
    outcomes = []
    for lane in range(len(rows)):
        if vc.errors and lane in vc.errors:
            outcomes.append(("error", str(vc.errors[lane])))
        elif not vc.valid[lane]:
            outcomes.append(("value", None))
        else:
            outcomes.append(("value", native[lane]))
    return outcomes


def _same_value(a, b) -> bool:
    """Type-strict equality; NaN equals NaN (it's a value, not NULL)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


def _same_outcome(a, b) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] == "error":
        return a[1] == b[1]
    return _same_value(a[1], b[1])


# ======================================================================
# Satellite 1: InList membership routes through _compare on every path
# ======================================================================
class _Prickly:
    """A value whose equality check raises, like SQL's incomparables."""

    def __eq__(self, other):
        raise TypeError("prickly refuses comparison")

    def __hash__(self):
        return 7

    def __repr__(self):
        return "<prickly>"


_MIXED_SCHEMA = StreamSchema([("T", "x"), ("T", "y")])


def _mixed_batch_rows(value):
    return [(value, 1)]


@pytest.mark.parametrize("backend", ["evaluator", "compiled", "vector"])
def test_inlist_raising_eq_surfaces_execution_error(backend):
    """`x IN (1)` where x.__eq__ raises must give the canonical error.

    Before the fix the compiled closure used raw ``==`` and leaked the
    bare TypeError; the evaluator wrapped it.  All three backends must
    now raise ExecutionError with the identical message.
    """
    expr = InList(ColumnRef("T", "x"), [Literal(1)])
    row = (_Prickly(), 1)
    if backend == "evaluator":
        out = _outcome(lambda: evaluate(expr, row, _MIXED_SCHEMA))
    elif backend == "compiled":
        fn = compile_scalar(expr, _MIXED_SCHEMA)
        out = _outcome(lambda: fn(row))
    else:
        out = _vector_outcomes(expr, [row], _MIXED_SCHEMA)[0]
    assert out[0] == "error", f"{backend} did not raise: {out!r}"
    assert "incomparable values" in out[1], out[1]


def test_inlist_cross_type_is_silent_false_everywhere():
    """`1 IN ('a')` is False (Python ==), identically on all backends."""
    expr = InList(Literal(1), [Literal("a")])
    row = (None, None)
    tree = _outcome(lambda: evaluate(expr, row, _MIXED_SCHEMA))
    closure = _outcome(lambda: compile_scalar(expr, _MIXED_SCHEMA)(row))
    vector = _vector_outcomes(expr, [row], _MIXED_SCHEMA)[0]
    assert tree == closure == vector == ("value", False)


def test_inlist_null_semantics_parity():
    """NULL needle -> NULL; miss with NULL candidate -> NULL; hit wins."""
    cases = [
        (InList(Literal(None), [Literal(1)]), None),
        (InList(Literal(1), [Literal(2), Literal(None)]), None),
        (InList(Literal(1), [Literal(None), Literal(1)]), True),
        (InList(Literal(1), [Literal(2), Literal(3)]), False),
    ]
    row = (None, None)
    for expr, want in cases:
        tree = _outcome(lambda: evaluate(expr, row, _MIXED_SCHEMA))
        closure = _outcome(lambda: compile_scalar(expr, _MIXED_SCHEMA)(row))
        vector = _vector_outcomes(expr, [row], _MIXED_SCHEMA)[0]
        assert tree == closure == vector == ("value", want), expr.to_sql()


@pytest.fixture(scope="module")
def typed_db() -> Database:
    db = Database()
    emp = db.catalog.create_table(
        "Emp",
        [Column("emp_no", ColumnType.INT), Column("name", ColumnType.STR)],
    )
    emp.insert_many([(1, "a"), (2, "b"), (3, None)])
    db.analyze()
    return db


def test_incomparable_ordering_query_level_differential(typed_db):
    """STR < INT raises the same ExecutionError on every engine."""
    sql = "SELECT E.emp_no AS k FROM Emp E WHERE E.name < 1"
    messages = []
    for run in (
        _interpret_sql,
        _run_sql,
        lambda db, text: _run_sql(db, text, columnar=True),
    ):
        with pytest.raises(ExecutionError) as info:
            run(typed_db, sql)
        messages.append(str(info.value))
    assert len(set(messages)) == 1, messages
    assert "incomparable values" in messages[0]


def test_cross_type_inlist_query_level_differential(typed_db):
    """INT-literal IN-list over a STR column: empty result, no error."""
    sql = "SELECT E.emp_no AS k FROM Emp E WHERE E.name IN (1, 2)"
    interpreted, batch, columnar = _all_engines(typed_db, sql)
    assert interpreted == batch == columnar == []


# ======================================================================
# Satellite 2: property-style three-valued-logic / error parity sweep
# ======================================================================
def _boom(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if isinstance(value, float) and math.isnan(value):
            return 0
        if value < 0:
            raise ValueError(f"negative input {value}")
        return value * 2
    raise TypeError(f"non-numeric input {value!r}")


_TYPED_SCHEMA = StreamSchema(
    [("T", "i"), ("T", "j"), ("T", "f"), ("T", "s")],
    types=[ColumnType.INT, ColumnType.INT, ColumnType.FLOAT, ColumnType.STR],
)
_OBJECT_SCHEMA = StreamSchema([("T", "i"), ("T", "j"), ("T", "f"), ("T", "s")])

# Large magnitudes are NEGATIVE on purpose: `'a' * 2**62` would try to
# allocate petabytes (a MemoryError on every backend alike, so nothing
# to learn), while a negative repeat count is an instant empty string.
# Negative magnitudes exercise the int64/2^53 guards just as well.
_LITERAL_POOL = [
    0, 1, 2, -3, 7, True, False, 2.5, 0.0, -1.5, float("nan"),
    "a", "b", "", None, -(2 ** 53) - 1, -(2 ** 62),
]


def _typed_rows(rng, count):
    ints = [0, 1, -2, 5, -(2 ** 53), -(2 ** 53) - 3, -(2 ** 62) + 1, None]
    floats = [0.0, 1.5, -2.25, float("nan"), 1e300, -0.5, None]
    strings = ["a", "b", "abc", "", None]
    return [
        (
            rng.choice(ints),
            rng.choice(ints),
            rng.choice(floats),
            rng.choice(strings),
        )
        for _ in range(count)
    ]


def _object_rows(rng, count):
    pool = [
        0, 1, -2, True, False, 2.5, float("nan"), "a", "b", "", None,
        -(2 ** 70),
    ]
    return [tuple(rng.choice(pool) for _ in range(4)) for _ in range(count)]


def _gen_expr(rng, depth, schema):
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            alias, column = rng.choice(schema.slots)
            return ColumnRef(alias, column)
        return Literal(rng.choice(_LITERAL_POOL))
    kind = rng.choice(
        ["cmp", "cmp", "arith", "arith", "bool", "not", "isnull",
         "inlist", "udf"]
    )
    if kind == "cmp":
        op = rng.choice(list(ComparisonOp))
        return Comparison(
            op, _gen_expr(rng, depth - 1, schema), _gen_expr(rng, depth - 1, schema)
        )
    if kind == "arith":
        op = rng.choice(list(ArithOp))
        return Arithmetic(
            op, _gen_expr(rng, depth - 1, schema), _gen_expr(rng, depth - 1, schema)
        )
    if kind == "bool":
        op = rng.choice([BoolOp.AND, BoolOp.OR])
        n = rng.choice([2, 2, 3])
        return BoolExpr(op, [_gen_expr(rng, depth - 1, schema) for _ in range(n)])
    if kind == "not":
        return NotExpr(_gen_expr(rng, depth - 1, schema))
    if kind == "isnull":
        return IsNull(
            _gen_expr(rng, depth - 1, schema), negated=rng.random() < 0.5
        )
    if kind == "inlist":
        values = [
            Literal(rng.choice(_LITERAL_POOL))
            for _ in range(rng.randint(1, 4))
        ]
        return InList(_gen_expr(rng, depth - 1, schema), values)
    return UdfCall("boom", (_gen_expr(rng, depth - 1, schema),), fn=_boom)


@pytest.mark.parametrize(
    "schema,row_maker,seed",
    [
        (_TYPED_SCHEMA, _typed_rows, 11),
        (_OBJECT_SCHEMA, _object_rows, 13),
    ],
    ids=["typed-columns", "object-columns"],
)
def test_backend_parity_property_sweep(schema, row_maker, seed):
    """Random expressions x random rows: all three backends agree.

    Per row, the outcome triple (value / NULL / error message) from the
    tree-walking evaluator, the compiled closure, and the vector kernel
    must match exactly -- type-strict, so ``True`` never passes for
    ``1``, and NaN (a value) never passes for NULL.
    """
    rng = random.Random(seed)
    checked = 0
    for _ in range(250):
        rows = row_maker(rng, 17)
        expr = _gen_expr(rng, rng.choice([1, 2, 2, 3]), schema)
        vector = _vector_outcomes(expr, rows, schema)
        closure = compile_scalar(expr, schema)
        for lane, row in enumerate(rows):
            tree_out = _outcome(lambda: evaluate(expr, row, schema))
            closure_out = _outcome(lambda: closure(row))
            assert _same_outcome(tree_out, closure_out), (
                f"compiled diverges on {expr.to_sql()} row={row!r}: "
                f"{tree_out!r} vs {closure_out!r}"
            )
            assert _same_outcome(tree_out, vector[lane]), (
                f"vector diverges on {expr.to_sql()} row={row!r}: "
                f"{tree_out!r} vs {vector[lane]!r}"
            )
            checked += 1
    assert checked == 250 * 17


def test_bool_int_coercion_parity():
    """`b = 1` with b=True is True on every backend (Python coercion)."""
    expr = Comparison(ComparisonOp.EQ, ColumnRef("T", "x"), Literal(1))
    rows = [(True, 0), (False, 0), (1, 0), (2, 0), (None, 0)]
    want = [True, False, True, False, None]
    vector = _vector_outcomes(expr, rows, _MIXED_SCHEMA)
    closure = compile_scalar(expr, _MIXED_SCHEMA)
    for row, expected, vec in zip(rows, want, vector):
        assert evaluate(expr, row, _MIXED_SCHEMA) is expected
        assert closure(row) is expected
        assert vec == ("value", expected)


def test_udf_error_wrapping_parity():
    """UDF exceptions are wrapped identically by all three backends."""
    expr = UdfCall("boom", (ColumnRef("T", "x"),), fn=_boom)
    row = (-5, 0)
    tree = _outcome(lambda: evaluate(expr, row, _MIXED_SCHEMA))
    closure = _outcome(lambda: compile_scalar(expr, _MIXED_SCHEMA)(row))
    vector = _vector_outcomes(expr, [row], _MIXED_SCHEMA)[0]
    assert tree[0] == "error" and "UDF 'boom' raised" in tree[1]
    assert tree == closure == vector


# ======================================================================
# Satellite 3: int64 overflow falls back to arbitrary-precision ints
# ======================================================================
@pytest.fixture(scope="module")
def overflow_db() -> Database:
    db = Database()
    big = db.catalog.create_table(
        "Big", [Column("k", ColumnType.INT), Column("v", ColumnType.INT)]
    )
    # Values near 2^63: three of these sum past int64 range, and any
    # pairwise add or small multiply wraps under naive numpy int64.
    big.insert_many(
        [(1, 2 ** 62), (2, 2 ** 62), (3, 2 ** 62 - 17), (4, 5), (5, None)]
    )
    db.analyze()
    return db


def test_sum_near_2_63_is_exact_on_both_engines(overflow_db):
    """SUM over values near 2^63 must not wrap -- pinned exactly."""
    want = 2 ** 62 + 2 ** 62 + (2 ** 62 - 17) + 5  # > int64 max
    assert want > 2 ** 63 - 1
    for columnar in (False, True):
        rows = _run_sql(
            overflow_db, "SELECT SUM(B.v) AS s FROM Big B", columnar=columnar
        )
        assert rows == [(want,)], f"columnar={columnar}: {rows!r}"


def test_overflowing_arithmetic_is_exact_on_both_engines(overflow_db):
    """v + v and v * 3 near 2^63 stay exact (object-dtype fallback)."""
    for sql, fn in [
        ("SELECT B.k AS k, B.v + B.v AS d FROM Big B", lambda v: v + v),
        ("SELECT B.k AS k, B.v * 3 AS t FROM Big B", lambda v: v * 3),
    ]:
        source = {1: 2 ** 62, 2: 2 ** 62, 3: 2 ** 62 - 17, 4: 5, 5: None}
        want = sorted(
            (k, None if v is None else fn(v)) for k, v in source.items()
        )
        row_rows = sorted(_run_sql(overflow_db, sql))
        col_rows = sorted(_run_sql(overflow_db, sql, columnar=True))
        assert row_rows == want, sql
        assert col_rows == want, sql
        for _k, value in col_rows:
            assert value is None or type(value) is int, sql


def test_out_of_int64_range_column_ingests_as_object():
    """An INT column holding values past int64 range must not wrap."""
    schema = StreamSchema([("T", "h")], types=[ColumnType.INT])
    rows = [(2 ** 63 + 10,), (-5,), (None,)]
    batch = ColumnarBatch.from_rows(rows, schema)
    assert batch.vcolumns[0].values.dtype == object
    assert batch.to_rows() == rows


def test_in_range_int_column_ingests_as_int64():
    schema = StreamSchema([("T", "h")], types=[ColumnType.INT])
    batch = ColumnarBatch.from_rows([(2 ** 62,), (None,), (3,)], schema)
    assert batch.vcolumns[0].values.dtype == np.int64
    assert batch.to_rows() == [(2 ** 62,), (None,), (3,)]


# ======================================================================
# Satellite 4: NaN is a value, NULL is the absence of one
# ======================================================================
@pytest.fixture(scope="module")
def nan_db() -> Database:
    db = Database()
    flo = db.catalog.create_table(
        "Flo", [Column("x", ColumnType.FLOAT), Column("k", ColumnType.INT)]
    )
    flo.insert_many([(1.5, 1), (float("nan"), 2), (None, 3), (2.5, 4)])
    db.analyze()
    return db


def test_nan_is_not_null_in_filters(nan_db):
    """IS NULL sees only the NULL row; NaN passes IS NOT NULL."""
    for columnar in (False, True):
        assert _run_sql(
            nan_db, "SELECT F.k AS k FROM Flo F WHERE F.x IS NULL",
            columnar=columnar,
        ) == [(3,)]
        assert _run_sql(
            nan_db, "SELECT F.k AS k FROM Flo F WHERE F.x IS NOT NULL",
            columnar=columnar,
        ) == [(1,), (2,), (4,)]
        # NaN compares False against everything, but is NOT filtered as
        # NULL: x > 0 keeps the finite rows only.
        assert _run_sql(
            nan_db, "SELECT F.k AS k FROM Flo F WHERE F.x > 0",
            columnar=columnar,
        ) == [(1,), (4,)]


def test_nan_is_not_null_in_aggregates(nan_db):
    """COUNT skips NULL but counts NaN; SUM over NaN is NaN, not NULL."""
    for columnar in (False, True):
        counts = _run_sql(
            nan_db, "SELECT COUNT(F.x) AS c, COUNT(*) AS n FROM Flo F",
            columnar=columnar,
        )
        assert counts == [(3, 4)]
        (total,), = _run_sql(
            nan_db, "SELECT SUM(F.x) AS s FROM Flo F", columnar=columnar
        )
        assert isinstance(total, float) and math.isnan(total)


def test_nan_round_trips_through_columnar_batches():
    schema = StreamSchema([("T", "x")], types=[ColumnType.FLOAT])
    batch = ColumnarBatch.from_rows([(float("nan"),), (None,), (1.0,)], schema)
    vc = batch.vcolumns[0]
    assert list(vc.valid) == [True, False, True]
    assert math.isnan(vc.values[0]), "NaN must live in a VALID lane"
    out = batch.to_rows()
    assert math.isnan(out[0][0]) and out[1][0] is None and out[2][0] == 1.0


def test_nan_is_one_group_key_in_every_backend(nan_db):
    """NaN groups with NaN: one group, one distinct value, all backends.

    ``float('nan') != float('nan')`` would make every NaN its own group
    under naive dict hashing (two Python NaN objects hash alike but
    compare unequal), silently diverging from SQL semantics where
    grouping treats values as *distinct-or-not*, not IEEE-equal.  The
    engines canonicalize NaN key parts to one shared sentinel; this pin
    holds for group-by, DISTINCT, and join keys alike.
    """
    for rows in _all_engines(
        nan_db,
        "SELECT F.x AS x, COUNT(*) AS c FROM Flo F"
        " WHERE F.x IS NOT NULL GROUP BY F.x",
    ):
        assert len(rows) == 3, f"NaN split into multiple groups: {rows}"
        nan_groups = [
            row for row in rows
            if isinstance(row[0], float) and math.isnan(row[0])
        ]
        assert len(nan_groups) == 1
        assert nan_groups[0][1] == 1


def test_nan_is_one_distinct_value_in_every_backend():
    db = Database()
    flo = db.catalog.create_table(
        "Flo", [Column("x", ColumnType.FLOAT), Column("k", ColumnType.INT)]
    )
    # Several distinct NaN objects: identity-based dedup would keep all.
    flo.insert_many(
        [(float("nan"), 1), (float("nan"), 2), (float("nan"), 3), (1.0, 4)]
    )
    db.analyze()
    # The reference interpreter has no key extractor (its DISTINCT keeps
    # distinct NaN objects apart), so this pins the two engines.
    for rows in _engines(db, "SELECT DISTINCT F.x AS x FROM Flo F"):
        assert len(rows) == 2, f"NaN deduplicated wrong: {rows}"
        assert sum(
            1 for row in rows
            if isinstance(row[0], float) and math.isnan(row[0])
        ) == 1


def test_nan_join_keys_match_in_every_backend():
    """A NaN key on both sides of an equijoin produces the match."""
    db = Database()
    left = db.catalog.create_table(
        "L", [Column("x", ColumnType.FLOAT), Column("a", ColumnType.INT)]
    )
    right = db.catalog.create_table(
        "R", [Column("x", ColumnType.FLOAT), Column("b", ColumnType.INT)]
    )
    left.insert_many([(float("nan"), 1), (1.0, 2), (None, 3)])
    right.insert_many([(float("nan"), 10), (1.0, 20), (None, 30)])
    db.analyze()
    sql = (
        "SELECT L.a AS a, R.b AS b FROM L, R WHERE L.x = R.x"
        " ORDER BY L.a ASC, R.b ASC"
    )
    # NaN = NaN joins (grouping semantics of the key extractor); NULL
    # never joins (three-valued logic filters it before key extraction).
    # The reference interpreter evaluates the join predicate with IEEE
    # equality instead, so this pins the two engines.
    expected = [(1, 10), (2, 20)]
    for rows in _engines(db, sql):
        assert sorted(rows) == expected, f"NaN join keys diverged: {rows}"


# ======================================================================
# Pipeline contracts: the columnar driver honors the declared flags
# ======================================================================
_COLUMNAR_OPS = sorted(cls.__name__ for cls in _COLUMNAR_HANDLERS)

# DML handlers are write paths: they have no pull-contract to probe, so
# the flag-honoring test below skips them.
_DML_OPS = ("DeleteP", "InsertP", "UpdateP")


def test_columnar_handler_set_is_pinned():
    """Adding/removing a columnar handler must be a conscious decision."""
    assert _COLUMNAR_OPS == [
        "DeleteP",
        "DistinctP",
        "FilterP",
        "HashAggP",
        "HashJoinP",
        "InsertP",
        "LimitP",
        "ProjectP",
        "SeqScanP",
        "SortP",
        "StreamAggP",
        "UnionAllP",
        "UpdateP",
    ]


@pytest.mark.parametrize(
    "name", [name for name in _COLUMNAR_OPS if name not in _DML_OPS]
)
def test_columnar_executor_honors_declared_flags(contract_catalog, name):
    """Pull ONE columnar batch; check how much of each child was read."""
    plan, children = _factories(contract_catalog)[name]()
    ctx = _context()
    gen = stream_columns(plan, contract_catalog, ctx)
    try:
        first = next(gen)
    finally:
        gen.close()
    assert first.length > 0
    totals = {"T": 64, "S": 64, "U": 3}
    for flag, child in zip(plan.consumes_child_fully, children):
        consumed = ctx.runtime.node_for(child).actual_rows
        total = totals[child.table]
        if flag:
            assert consumed == total, (
                f"{name} declares child {child.table} fully consumed "
                f"but pulled only {consumed}/{total} rows"
            )
        else:
            assert consumed < total, (
                f"{name} declares child {child.table} streaming but "
                f"drained all {total} rows before its first output batch"
            )


@pytest.mark.parametrize("name", sorted(EXPECTED_FLAGS))
def test_columnar_and_batch_drains_are_identical(contract_catalog, name):
    """Full drains agree bit-for-bit, including bridged operators."""
    factory = _factories(contract_catalog)[name]
    plan_a, _ = factory()
    ctx_a = _context()
    _schema, batch_rows = execute(plan_a, contract_catalog, ctx_a)
    plan_b, _ = factory()
    ctx_b = _context()
    ctx_b.columnar_mode = True
    columnar_rows = drain_columns(plan_b, contract_catalog, ctx_b)
    assert columnar_rows == batch_rows, name


def test_columnar_limit_closes_early(contract_catalog):
    """LIMIT 4 over a 64-row scan must read at most one source batch."""
    plan, (child,) = _factories(contract_catalog)["LimitP"]()
    ctx = _context()
    rows = drain_columns(plan, contract_catalog, ctx)
    assert len(rows) == 4
    consumed = ctx.runtime.node_for(child).actual_rows
    assert consumed <= 8, f"LIMIT drained {consumed} rows past its window"
