"""Differential suite: the compiled executor equals the per-row oracle.

For random tables (with and without hash and sorted indexes, so every
access path is planned), random predicates and every select option,
``Database`` must return exactly what the per-row reference executor in
``tests/rdb/oracle.py`` returns: ``select``, ``count``, ``range``,
``aggregate`` and ``join``.  ``join_rows`` is pinned against the oracle's
pre-vectorization hash join over raw row lists, including key shapes
the table-driven tests cannot reach (no key, None keys, rows of
different column sets).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.rdb import Column, ColumnType, Database, Schema, col
from repro.rdb.predicate import Expr
from repro.rdb.query import aggregate, join_rows
from tests.rdb import oracle

T = ColumnType

row_strategy = st.fixed_dictionaries({
    "a": st.integers(0, 4),
    "b": st.one_of(st.none(), st.integers(-6, 6)),
    "c": st.sampled_from(["x", "y", "z", "xz"]),
})
rows_strategy = st.lists(row_strategy, max_size=30)


def _leaf() -> st.SearchStrategy[Expr]:
    return st.one_of(
        st.integers(0, 4).map(lambda v: col("a") == v),
        st.integers(-6, 6).map(lambda v: col("b") > v),
        st.integers(-6, 6).map(lambda v: col("b") <= v),
        st.sampled_from(["x", "y", "z"]).map(lambda v: col("c") != v),
        st.just(col("b").is_null()),
        st.lists(st.sampled_from(["x", "y", "z"]), max_size=3).map(
            lambda vs: col("c").isin(vs)),
        st.sampled_from(["x%", "%z", "_"]).map(lambda p: col("c").like(p)),
    )


predicate_strategy = st.one_of(
    st.none(),
    st.recursive(
        _leaf(),
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda p: p[0] & p[1]),
            st.tuples(children, children).map(lambda p: p[0] | p[1]),
            children.map(lambda p: ~p),
        ),
        max_leaves=5,
    ),
)


def _build(rows, indexed: bool) -> Database:
    db = Database("diff")
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
    if indexed:
        db.create_hash_index("t", "t_a", ["a"])
        db.create_sorted_index("t", "t_b", "b")
    db.insert_many("t", [dict(row, pk=i) for i, row in enumerate(rows)])
    return db


def _by_pk(rows):
    return sorted(rows, key=lambda r: r["pk"])


@settings(max_examples=200, deadline=None)
@given(
    rows=rows_strategy,
    indexed=st.booleans(),
    where=predicate_strategy,
    order_by=st.one_of(
        st.none(), st.sampled_from(["b", ("c", "b"), ("a", "pk"), "pk"])),
    descending=st.booleans(),
    distinct=st.booleans(),
    limit=st.one_of(st.none(), st.integers(0, 8)),
    offset=st.integers(0, 4),
    columns=st.one_of(
        st.none(), st.sampled_from([("a",), ("c", "b"), ("pk", "a")])),
)
def test_select_matches_oracle(
    rows, indexed, where, order_by, descending, distinct, limit, offset,
    columns,
):
    db = _build(rows, indexed)
    kwargs = dict(
        where=where, order_by=order_by, descending=descending,
        distinct=distinct, limit=limit, offset=offset, columns=columns,
    )
    assert db.select("t", **kwargs) == oracle.select(db.table("t"), **kwargs)


@settings(max_examples=100, deadline=None)
@given(rows=rows_strategy, indexed=st.booleans(), where=predicate_strategy)
def test_count_matches_oracle(rows, indexed, where):
    db = _build(rows, indexed)
    assert db.count("t", where) == oracle.count(db.table("t"), where)


bound_strategy = st.one_of(st.none(), st.integers(-7, 7))


@settings(max_examples=150, deadline=None)
@given(
    rows=rows_strategy,
    indexed=st.booleans(),
    low=bound_strategy,
    high=bound_strategy,
    include_low=st.booleans(),
    include_high=st.booleans(),
)
def test_range_matches_oracle(
    rows, indexed, low, high, include_low, include_high
):
    db = _build(rows, indexed)
    bounds = dict(include_low=include_low, include_high=include_high)
    got = db.range("t", "b", low, high, **bounds)
    want = oracle.range_rows(db.table("t"), "b", low, high, **bounds)
    if indexed:
        # The sorted index serves rows in key order, the oracle in heap
        # order: the same rows, not the same sequence.
        got, want = _by_pk(got), _by_pk(want)
    assert got == want


SPEC = {
    "n": ("count", None),
    "bs": ("count", "b"),
    "total": ("sum", "b"),
    "lo": ("min", "b"),
    "hi": ("max", "b"),
    "mean": ("avg", "b"),
}


@settings(max_examples=100, deadline=None)
@given(
    rows=rows_strategy,
    indexed=st.booleans(),
    where=predicate_strategy,
    group_by=st.sampled_from([None, ("a",), ("c",), ("c", "a")]),
)
def test_aggregate_matches_oracle(rows, indexed, where, group_by):
    db = _build(rows, indexed)
    reference = aggregate(
        oracle.select(db.table("t"), where=where), SPEC, group_by=group_by
    )
    assert db.aggregate("t", SPEC, where, group_by) == reference


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(row_strategy, max_size=15),
    indexed=st.booleans(),
    where_left=predicate_strategy,
    where_right=predicate_strategy,
    on=st.sampled_from(
        [[("a", "a")], [("b", "b")], [("c", "c"), ("a", "a")]]),
    kind=st.sampled_from(["inner", "left"]),
)
def test_database_join_matches_oracle(
    rows, indexed, where_left, where_right, on, kind
):
    db = _build(rows, indexed)
    sides = dict(where_left=where_left, where_right=where_right, kind=kind)
    want = oracle.join(db, "t", "t", on, **sides)
    assert db.join("t", "t", on, **sides) == want


# -- join_rows over raw row lists -------------------------------------------
key_value = st.one_of(st.none(), st.integers(0, 2))


@st.composite
def _join_row(draw, prefix: str) -> dict:
    row = {"k1": draw(key_value), "k2": draw(key_value),
           f"{prefix}v": draw(st.integers(0, 9))}
    if draw(st.booleans()):
        # A second row shape: the vectorized merge caches prefixed-name
        # tuples per column set, so shapes must mix within one input.
        row[f"{prefix}extra"] = draw(st.sampled_from(["p", "q"]))
    if draw(st.booleans()):
        row = dict(reversed(list(row.items())))
    return row


@settings(max_examples=200, deadline=None)
@given(
    left=st.lists(_join_row("l"), max_size=8),
    right=st.lists(_join_row("r"), max_size=8),
    on=st.sampled_from([
        [],
        [("k1", "k1")],
        [("k1", "k2")],
        [("k1", "k1"), ("k2", "k2")],
        [("k2", "k1"), ("k1", "k2")],
    ]),
    kind=st.sampled_from(["inner", "left"]),
)
def test_join_rows_matches_oracle(left, right, on, kind):
    got = join_rows(left, right, on, kind=kind)
    assert got == oracle.join_rows(left, right, on, kind=kind)
