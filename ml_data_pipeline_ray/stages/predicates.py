"""Predicate AST → Arrow dataset expressions (+ SQL rendering).

Reference parity (SURVEY.md §2.6): the operator set and boolean algebra of
``ml-data/ml-data-readers/src/parquet/predicates.rs`` — Eq/Ne/Lt/Le/Gt/Ge/
IsNull/IsNotNull/In/NotIn/Contains/StartsWith/EndsWith (``:20-47``), And/Or/
Not with constant folding (``:244-315``), and the pushdown-eligibility check
(``can_push_down``: only comparison + null ops, ``:318-333``).

What the reference evaluates against row-group zonemaps (``:336-375``):
``to_expression()`` yields a ``pyarrow.dataset`` expression, and the
package's ``sources.parquet.read_parquet(filter=...)`` scans each row group
with it, skipping those whose statistics rule it out. ``to_sql()`` renders
the same predicate as an ANSI WHERE clause so the DuckDB oracle and the Ray
pipeline share one predicate definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Any, Sequence

import pyarrow.compute as pc
import pyarrow.dataset as pads

COMPARISONS = {"eq", "ne", "lt", "le", "gt", "ge"}
PUSHDOWN_OPS = COMPARISONS | {"is_null", "is_not_null"}
ALL_OPS = PUSHDOWN_OPS | {"in", "not_in", "contains", "starts_with", "ends_with"}


class Predicate:
    def to_expression(self) -> pads.Expression:
        raise NotImplementedError

    def to_sql(self) -> str:
        raise NotImplementedError

    def can_push_down(self) -> bool:
        raise NotImplementedError

    def simplify(self) -> "Predicate":
        return self

    def __and__(self, other): return And([self, other])
    def __or__(self, other): return Or([self, other])
    def __invert__(self): return Not(self)


@dataclass
class AlwaysTrue(Predicate):
    def to_expression(self): return pc.scalar(True)
    def to_sql(self): return "TRUE"
    def can_push_down(self): return True


@dataclass
class AlwaysFalse(Predicate):
    def to_expression(self): return pc.scalar(False)
    def to_sql(self): return "FALSE"
    def can_push_down(self): return True


def _sql_lit(v: Any) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, datetime):
        return f"TIMESTAMP '{v.isoformat(sep=' ')}'"
    return repr(v)


@dataclass
class Compare(Predicate):
    """column <op> value — op ∈ eq ne lt le gt ge is_null is_not_null in
    not_in contains starts_with ends_with."""
    column: str
    op: str
    value: Any = None

    def __post_init__(self):
        if self.op not in ALL_OPS:
            raise ValueError(f"unknown predicate op {self.op!r}")

    def to_expression(self) -> pads.Expression:
        f = pc.field(self.column)
        v = self.value
        return {
            "eq": lambda: f == v, "ne": lambda: f != v,
            "lt": lambda: f < v, "le": lambda: f <= v,
            "gt": lambda: f > v, "ge": lambda: f >= v,
            "is_null": lambda: f.is_null(),
            "is_not_null": lambda: ~f.is_null(),
            "in": lambda: f.isin(list(v)),
            "not_in": lambda: ~f.isin(list(v)),
            "contains": lambda: pc.match_substring(f, v),
            "starts_with": lambda: pc.starts_with(f, v),
            "ends_with": lambda: pc.ends_with(f, v),
        }[self.op]()

    def to_sql(self) -> str:
        c, v = self.column, self.value
        return {
            "eq": lambda: f"{c} = {_sql_lit(v)}", "ne": lambda: f"{c} <> {_sql_lit(v)}",
            "lt": lambda: f"{c} < {_sql_lit(v)}", "le": lambda: f"{c} <= {_sql_lit(v)}",
            "gt": lambda: f"{c} > {_sql_lit(v)}", "ge": lambda: f"{c} >= {_sql_lit(v)}",
            "is_null": lambda: f"{c} IS NULL",
            "is_not_null": lambda: f"{c} IS NOT NULL",
            "in": lambda: f"{c} IN ({', '.join(_sql_lit(x) for x in v)})",
            "not_in": lambda: f"{c} NOT IN ({', '.join(_sql_lit(x) for x in v)})",
            "contains": lambda: f"contains({c}, {_sql_lit(v)})",
            "starts_with": lambda: f"starts_with({c}, {_sql_lit(v)})",
            "ends_with": lambda: f"ends_with({c}, {_sql_lit(v)})",
        }[self.op]()

    def can_push_down(self) -> bool:
        return self.op in PUSHDOWN_OPS


@dataclass
class And(Predicate):
    children: Sequence[Predicate]

    def to_expression(self):
        e = self.children[0].to_expression()
        for c in self.children[1:]:
            e = e & c.to_expression()
        return e

    def to_sql(self):
        return "(" + " AND ".join(c.to_sql() for c in self.children) + ")"

    def can_push_down(self):
        return all(c.can_push_down() for c in self.children)

    def simplify(self) -> Predicate:
        kids = []
        for c in (c.simplify() for c in self.children):
            if isinstance(c, AlwaysFalse):
                return AlwaysFalse()          # absorption
            if not isinstance(c, AlwaysTrue):
                kids.append(c)
        if not kids:
            return AlwaysTrue()
        return kids[0] if len(kids) == 1 else And(kids)


@dataclass
class Or(Predicate):
    children: Sequence[Predicate]

    def to_expression(self):
        e = self.children[0].to_expression()
        for c in self.children[1:]:
            e = e | c.to_expression()
        return e

    def to_sql(self):
        return "(" + " OR ".join(c.to_sql() for c in self.children) + ")"

    def can_push_down(self):
        return all(c.can_push_down() for c in self.children)

    def simplify(self) -> Predicate:
        kids = []
        for c in (c.simplify() for c in self.children):
            if isinstance(c, AlwaysTrue):
                return AlwaysTrue()
            if not isinstance(c, AlwaysFalse):
                kids.append(c)
        if not kids:
            return AlwaysFalse()
        return kids[0] if len(kids) == 1 else Or(kids)


@dataclass
class Not(Predicate):
    child: Predicate

    def to_expression(self):
        return ~self.child.to_expression()

    def to_sql(self):
        return f"(NOT {self.child.to_sql()})"

    def can_push_down(self):
        # conservative, as in the reference (Not is never pushed to zonemaps)
        return False

    def simplify(self) -> Predicate:
        c = self.child.simplify()
        if isinstance(c, AlwaysTrue):
            return AlwaysFalse()
        if isinstance(c, AlwaysFalse):
            return AlwaysTrue()
        if isinstance(c, Not):
            return c.child
        return Not(c)
