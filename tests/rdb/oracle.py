"""Reference oracle: the per-row query executor, kept for tests only.

This is the executor ``repro.rdb`` ran before compiled, batched
execution replaced it: every candidate row costs one generator step and
one interpreted ``Expr.eval`` call.  Production never runs it.  The
differential suites compare the compiled executor against it, and the
E19 benchmark times it as the interpreted baseline, so its per-row
shape must not be optimised.

Candidates come from the production planner (:func:`plan_select`),
exactly as before, so an unordered select sees rows in the same order
on both sides.  Whether the planner's access paths are correct is
pinned separately against a naive full scan
(``tests/rdb/test_planner_properties.py``).
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Iterator, Sequence

from repro.rdb import Database
from repro.rdb.errors import UnknownColumnError
from repro.rdb.predicate import Expr
from repro.rdb.query import check_limit_offset, plan_select
from repro.rdb.table import Table


def _matching_rows(table: Table, where: Expr | None) -> Iterator[dict[str, Any]]:
    """Candidate rows passing ``where``, pulled and tested one at a time."""
    plan, rowids = plan_select(table, where)
    if plan.access_path == "scan":
        batches: Iterable[list[dict[str, Any]]] = table.rows_batches(1)
    else:
        batches = (
            [row] for rowid in rowids
            if (row := table.get(rowid)) is not None
        )
    evaluate = None if where is None else where.eval
    for batch in batches:
        for row in batch:
            if evaluate is None or evaluate(row):
                yield row


def _hashable(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value


def select(
    table: Table,
    where: Expr | None = None,
    order_by: str | Sequence[str] | None = None,
    descending: bool = False,
    limit: int | None = None,
    offset: int = 0,
    columns: Sequence[str] | None = None,
    distinct: bool = False,
) -> list[dict[str, Any]]:
    """Same contract as :func:`repro.rdb.query.execute_select`."""
    check_limit_offset(limit, offset)
    if columns is not None:
        for name in columns:
            if not table.schema.has_column(name):
                raise UnknownColumnError(table.schema.name, name)
    matching = _matching_rows(table, where)
    rows: Iterable[dict[str, Any]]
    if order_by is not None:
        keys = (order_by,) if isinstance(order_by, str) else tuple(order_by)
        for name in keys:
            if not table.schema.has_column(name):
                raise UnknownColumnError(table.schema.name, name)

        def sort_key(r: dict[str, Any]) -> tuple:
            return tuple((r[k] is not None, r[k]) for k in keys)

        if limit is not None and not distinct:
            top = limit + offset
            if descending:
                rows = heapq.nlargest(top, matching, key=sort_key)
            else:
                rows = heapq.nsmallest(top, matching, key=sort_key)
        else:
            rows = sorted(matching, key=sort_key, reverse=descending)
    elif descending:
        reversed_rows = list(matching)
        reversed_rows.reverse()
        rows = reversed_rows
    else:
        rows = matching
    out: list[dict[str, Any]] = []
    seen: set[tuple] = set()
    needed = None if limit is None else limit + offset
    for row in rows:
        projected = (
            dict(row) if columns is None
            else {name: row[name] for name in columns}
        )
        if distinct:
            key = tuple(_hashable(projected[name]) for name in sorted(projected))
            if key in seen:
                continue
            seen.add(key)
        out.append(projected)
        if needed is not None and len(out) >= needed:
            break
    if offset:
        out = out[offset:]
    if limit is not None:
        out = out[:limit]
    return out


def count(table: Table, where: Expr | None = None) -> int:
    """Same contract as :meth:`repro.rdb.Database.count`."""
    if where is None:
        return len(table)
    return sum(1 for row in table.rows() if where.eval(row))


def range_rows(
    table: Table,
    column: str,
    low: Any = None,
    high: Any = None,
    *,
    include_low: bool = True,
    include_high: bool = True,
) -> list[dict[str, Any]]:
    """Same rows as :func:`repro.rdb.query.range_scan`, by a heap scan.

    Never probes a sorted index, so rows come back in heap order; a
    caller comparing against an index-served range must compare them
    order-insensitively.
    """
    if not table.schema.has_column(column):
        raise UnknownColumnError(table.schema.name, column)
    out: list[dict[str, Any]] = []
    for row in table.rows():
        value = row[column]
        if value is None:
            continue
        if low is not None and (value < low or (value == low and not include_low)):
            continue
        if high is not None and (value > high or (value == high and not include_high)):
            continue
        out.append(dict(row))
    return out


def join_rows(
    left_rows: Iterable[dict[str, Any]],
    right_rows: Iterable[dict[str, Any]],
    on: Sequence[tuple[str, str]],
    *,
    left_prefix: str = "l",
    right_prefix: str = "r",
    kind: str = "inner",
) -> list[dict[str, Any]]:
    """The pre-vectorization hash join: one merged dict built per match
    by per-column formatting.  Same contract as
    :func:`repro.rdb.query.join_rows`."""
    right_list = list(right_rows)
    buckets: dict[tuple, list[dict[str, Any]]] = {}
    for row in right_list:
        key = tuple(row[rc] for _lc, rc in on)
        buckets.setdefault(key, []).append(row)
    right_columns: set[str] = set()
    for row in right_list:
        right_columns.update(row)
    out: list[dict[str, Any]] = []
    for left in left_rows:
        key = tuple(left[lc] for lc, _rc in on)
        matches = buckets.get(key, []) if None not in key else []
        if matches:
            for right in matches:
                merged = {f"{left_prefix}.{k}": v for k, v in left.items()}
                merged.update({f"{right_prefix}.{k}": v for k, v in right.items()})
                out.append(merged)
        elif kind == "left":
            merged = {f"{left_prefix}.{k}": v for k, v in left.items()}
            merged.update({f"{right_prefix}.{k}": None for k in right_columns})
            out.append(merged)
    return out


def join(
    db: Database,
    left_table: str,
    right_table: str,
    on: Sequence[tuple[str, str]],
    *,
    where_left: Expr | None = None,
    where_right: Expr | None = None,
    kind: str = "inner",
) -> list[dict[str, Any]]:
    """Same contract as :meth:`repro.rdb.Database.join`."""
    left_rows = select(db.table(left_table), where=where_left)
    right_rows = select(db.table(right_table), where=where_right)
    return join_rows(left_rows, right_rows, on, kind=kind)
