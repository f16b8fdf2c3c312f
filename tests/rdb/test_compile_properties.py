"""Property tests: compiled predicates are bit-identical to Expr.eval.

For random expression trees over random rows — None values, missing
columns, unhashable values, type mismatches — the compiled closure and
the fused batch filter must agree with the interpreter on *outcomes*:
the same value back, or the same exception type raised.  A second
property pins the batched executor end to end: ``execute_select``
equals a naive evaluate-every-row scan and the per-row reference
oracle (``tests/rdb/oracle.py``).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.rdb import Column, ColumnType, Database, Schema, col, lit
from repro.rdb.compile import batch_filter, compiled_predicate
from repro.rdb.predicate import Expr
from tests.rdb import oracle

T = ColumnType

COLUMNS = ("a", "b", "c")

# Scalar values rows may hold: None, ints, strings, bools, floats and an
# unhashable list (isin/contains must swallow its TypeError like eval).
value_strategy = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.sampled_from(["x", "y", "xx", ""]),
    st.floats(allow_nan=False, allow_infinity=True),
    st.just([1, 2]),
)

# Rows may be missing any column — KeyError parity is part of the
# contract (Compare evaluates both operands eagerly, like eval).
row_strategy = st.dictionaries(
    st.sampled_from(COLUMNS), value_strategy, max_size=len(COLUMNS)
)
rows_strategy = st.lists(row_strategy, max_size=12)


def _operand() -> st.SearchStrategy[Expr]:
    return st.one_of(
        st.sampled_from(COLUMNS).map(col),
        value_strategy.map(lit),
        # Apply nodes force the closure-composition fallback.
        st.sampled_from(COLUMNS).map(lambda c: col(c).apply(str, "str")),
    )


def _leaf() -> st.SearchStrategy[Expr]:
    ops = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])

    def compare(pair_op):
        (left, right), op = pair_op
        return {"==": left.__eq__, "!=": left.__ne__, "<": left.__lt__,
                "<=": left.__le__, ">": left.__gt__, ">=": left.__ge__}[op](right)

    return st.one_of(
        st.tuples(st.tuples(_operand(), _operand()), ops).map(compare),
        st.sampled_from(COLUMNS).map(lambda c: col(c).is_null()),
        st.sampled_from(COLUMNS).map(lambda c: col(c).not_null()),
        st.tuples(
            st.sampled_from(COLUMNS),
            st.lists(st.one_of(st.integers(-5, 5),
                               st.sampled_from(["x", "y"])), max_size=4),
        ).map(lambda p: col(p[0]).isin(p[1])),
        st.tuples(
            st.sampled_from(COLUMNS),
            st.sampled_from(["x%", "%x", "_", "%", "x_%"]),
        ).map(lambda p: col(p[0]).like(p[1])),
        st.tuples(
            st.sampled_from(COLUMNS),
            st.one_of(st.integers(-5, 5), st.sampled_from(["x"])),
        ).map(lambda p: col(p[0]).contains(p[1])),
    )


expr_strategy = st.recursive(
    _leaf(),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda p: p[0] & p[1]),
        st.tuples(children, children).map(lambda p: p[0] | p[1]),
        children.map(lambda p: ~p),
    ),
    max_leaves=8,
)


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - exception type is the result
        return ("raise", type(exc))
    return ("return", value)


@settings(max_examples=300, deadline=None)
@given(expr=expr_strategy, rows=rows_strategy)
def test_compiled_predicate_matches_eval(expr, rows):
    compiled = compiled_predicate(expr)
    for row in rows:
        expected = _outcome(expr.eval, row)
        assert _outcome(compiled, row) == expected
        if expected[0] == "return":
            # Same truthiness seen by a WHERE clause, not just equality
            # (guards against e.g. 0 vs False drift in boolean context).
            assert bool(compiled(row)) == bool(expr.eval(row))


@settings(max_examples=300, deadline=None)
@given(expr=expr_strategy, rows=rows_strategy)
def test_batch_filter_matches_per_row_eval(expr, rows):
    def reference(batch):
        return [r for r in batch if expr.eval(r)]

    assert _outcome(batch_filter(expr), rows) == _outcome(reference, rows)


# -- executor end to end ----------------------------------------------------
def _typed_leaf() -> st.SearchStrategy[Expr]:
    """Predicates over the typed test schema (no KeyErrors possible)."""
    return st.one_of(
        st.integers(0, 5).map(lambda v: col("a") == v),
        st.integers(-10, 10).map(lambda v: col("b") > v),
        st.sampled_from(["x", "y", "z"]).map(lambda v: col("c") != v),
        st.just(col("b").is_null()),
        st.lists(st.sampled_from(["x", "y", "z"]), max_size=3).map(
            lambda vs: col("c").isin(vs)),
        st.sampled_from(["x%", "%z", "_"]).map(lambda p: col("c").like(p)),
    )


typed_expr_strategy = st.recursive(
    _typed_leaf(),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda p: p[0] & p[1]),
        st.tuples(children, children).map(lambda p: p[0] | p[1]),
        children.map(lambda p: ~p),
    ),
    max_leaves=6,
)

typed_row_strategy = st.fixed_dictionaries({
    "a": st.integers(0, 5),
    "b": st.one_of(st.none(), st.integers(-10, 10)),
    "c": st.sampled_from(["x", "y", "z", "xz"]),
})


def _build(rows) -> Database:
    db = Database("prop")
    db.create_table(Schema(
        name="t",
        columns=(
            Column("pk", T.INT, nullable=False),
            Column("a", T.INT, nullable=False),
            Column("b", T.INT),
            Column("c", T.TEXT, nullable=False),
        ),
        primary_key=("pk",),
    ))
    db.insert_many("t", [dict(row, pk=i) for i, row in enumerate(rows)])
    return db


@settings(max_examples=150, deadline=None)
@given(
    expr=typed_expr_strategy,
    rows=st.lists(typed_row_strategy, max_size=30),
    limit=st.one_of(st.none(), st.integers(0, 8)),
    offset=st.integers(0, 3),
)
def test_batched_select_equals_naive_scan(expr, rows, limit, offset):
    db = _build(rows)
    naive = [dict(r) for r in db.table("t").rows() if expr.eval(r)]
    expected = naive[offset:offset + limit if limit is not None else None]
    reference = oracle.select(db.table("t"), where=expr, limit=limit, offset=offset)
    assert reference == expected
    assert db.select("t", where=expr, limit=limit, offset=offset) == reference
