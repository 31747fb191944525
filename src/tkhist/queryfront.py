"""Parsing of the supported SQL subset and decomposition into star/chain plans.

Supported shape: SELECT COUNT(*) FROM t1 [AS a][, ...] WHERE <conjuncts>,
where each conjunct is either a column=column equi-join or a column-vs-literal
predicate (=, <, <=, >, >=, BETWEEN, IN).  Implicit-join syntax only;
disjunctions and everything beyond COUNT(*) are rejected.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

from .catalog import (KEYWORDS, KIND_CATEGORICAL, KIND_INTEGER, NAME_PATTERN,
                      Schema, check_join_tree)
from .errors import (CyclicJoinError, ParseError, PlanError,
                     UnsupportedQueryError)
from .predicate import Predicate

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>-?(?:\d+\.\d+|\d+))
      | (?P<ident>""" + NAME_PATTERN + r""")
      | (?P<string>'(?:[^']|'')*')
      | (?P<op><=|>=|=|<|>|\(|\)|,|\.|\*)
    """,
    re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # 'number' | 'ident' | 'keyword' | 'string' | 'op' | 'eof'
    value: object
    offset: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "ws":
            pos = m.end()
            continue
        value: object = m.group()
        kind = m.lastgroup
        if kind == "ident" and value.lower() in KEYWORDS:
            kind, value = "keyword", value.lower()
        elif kind == "number":
            value = float(value) if "." in value else int(value)
        elif kind == "string":
            value = value[1:-1].replace("''", "'")
        tokens.append(Token(kind, value, pos))
        pos = m.end()
    tokens.append(Token("eof", None, len(text)))
    return tokens


@dataclass
class Query:
    aliases: dict[str, str]  # alias -> table name, in FROM order
    join_edges: list[tuple[str, str]]  # ("a.col", "b.col"), alias-qualified
    predicates: list[Predicate]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value=None) -> Token:
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.value!r}", tok.offset)
        return tok

    def parse(self) -> Query:
        self.expect("keyword", "select")
        self.expect("keyword", "count")
        self.expect("op", "(")
        self.expect("op", "*")
        self.expect("op", ")")
        self.expect("keyword", "from")
        aliases = self._from_list()
        edges: list[tuple[str, str]] = []
        preds: list[Predicate] = []
        if self.peek().kind == "keyword" and self.peek().value == "where":
            self.next()
            while True:
                self._conjunct(aliases, edges, preds)
                tok = self.peek()
                if tok.kind == "keyword" and tok.value == "and":
                    self.next()
                    continue
                break
        tok = self.peek()
        if tok.kind != "eof":
            if tok.kind == "keyword" and tok.value == "or":
                raise UnsupportedQueryError(
                    f"OR is not supported (at byte {tok.offset})")
            raise ParseError(f"trailing input {tok.value!r}", tok.offset)
        return Query(aliases=aliases, join_edges=edges, predicates=preds)

    def _from_list(self) -> dict[str, str]:
        aliases: dict[str, str] = {}
        while True:
            table = alias = self.expect("ident")  # the alias's own token
            tok = self.peek()
            if tok.kind == "keyword" and tok.value == "as":
                self.next()
                alias = self.expect("ident")
            elif tok.kind == "ident":
                alias = self.next()
            if alias.value in aliases:
                raise ParseError(f"duplicate alias {alias.value!r}",
                                 alias.offset)
            aliases[alias.value] = table.value
            if self.peek().kind == "op" and self.peek().value == ",":
                self.next()
                continue
            return aliases

    def _column_ref(self) -> str:
        first = self.expect("ident")
        if self.peek().kind == "op" and self.peek().value == ".":
            self.next()
            second = self.expect("ident")
            return f"{first.value}.{second.value}"
        return str(first.value)

    def _literal(self):
        tok = self.next()
        if tok.kind in ("number", "string"):
            return tok.value
        raise ParseError(f"expected literal, found {tok.value!r}", tok.offset)

    def _conjunct(self, aliases, edges, preds) -> None:
        col = self._column_ref()
        tok = self.next()
        if tok.kind == "keyword" and tok.value == "between":
            lo = self._literal()
            self.expect("keyword", "and")
            hi = self._literal()
            preds.append(Predicate(column=col, op="between", value=(lo, hi)))
            return
        if tok.kind == "keyword" and tok.value == "in":
            self.expect("op", "(")
            values = [self._literal()]
            while self.peek().kind == "op" and self.peek().value == ",":
                self.next()
                values.append(self._literal())
            self.expect("op", ")")
            preds.append(Predicate(column=col, op="in", value=frozenset(values)))
            return
        if tok.kind != "op" or tok.value not in ("=", "<", "<=", ">", ">="):
            raise ParseError(f"expected comparison operator, found {tok.value!r}",
                             tok.offset)
        op = tok.value
        nxt = self.peek()
        if op == "=" and nxt.kind == "ident":
            other = self._column_ref()
            edges.append((col, other))
            return
        preds.append(Predicate(column=col, op=op, value=self._literal()))


def parse_sql(text: str) -> Query:
    """Parse a COUNT(*) query; keywords are case-insensitive."""
    return _Parser(text).parse()


def bind(query: Query, schema: Schema) -> Query:
    """Resolve bare columns to aliases and validate references and literals.
    A join edge written more than once, in either order or with bare
    columns, is kept once, where it first appears."""

    def resolve(ref: str) -> str:
        if "." in ref:
            alias, col = ref.split(".", 1)
            if alias not in query.aliases:
                raise UnsupportedQueryError(f"unknown alias {alias!r}")
            table = schema.table(query.aliases[alias])
            if not table.has_column(col):
                raise UnsupportedQueryError(
                    f"table {table.name!r} has no column {col!r}")
            return f"{alias}.{col}"
        owners = [a for a, t in query.aliases.items()
                  if schema.table(t).has_column(ref)]
        if not owners:
            raise UnsupportedQueryError(f"unknown column {ref!r}")
        if len(owners) > 1:
            raise UnsupportedQueryError(
                f"ambiguous column {ref!r} (candidates: {sorted(owners)})")
        return f"{owners[0]}.{ref}"

    for table in query.aliases.values():
        schema.table(table)  # raises on unknown table

    edges: dict[frozenset, tuple[str, str]] = {}
    for a, b in query.join_edges:
        edge = (resolve(a), resolve(b))
        edges.setdefault(frozenset(edge), edge)
    preds = []
    for p in query.predicates:
        col = resolve(p.column)
        alias, cname = col.split(".", 1)
        kind = schema.table(query.aliases[alias]).column(cname).kind
        preds.append(Predicate(column=col, op=p.op,
                               value=_coerce_operand(p, kind)))
    return Query(aliases=dict(query.aliases),
                 join_edges=list(edges.values()), predicates=preds)


def _coerce_operand(p: Predicate, kind: str):
    def one(v):
        if kind == KIND_CATEGORICAL:
            if not isinstance(v, str):
                raise UnsupportedQueryError(
                    f"column {p.column!r} is categorical, got numeric literal {v!r}")
            return v
        if isinstance(v, str):
            raise UnsupportedQueryError(
                f"column {p.column!r} is {kind}, got string literal {v!r}")
        if abs(v) > sys.float_info.max:  # a long decimal was read as inf
            raise UnsupportedQueryError(
                f"column {p.column!r}: literal {v!r} is past the float64 range")
        if kind == KIND_INTEGER:
            if isinstance(v, float) and not v.is_integer():
                raise UnsupportedQueryError(
                    f"column {p.column!r} is integer, got fractional literal {v!r}")
            return int(v)
        return float(v)

    if p.op == "between":
        return (one(p.value[0]), one(p.value[1]))
    if p.op == "in":
        return frozenset(one(v) for v in p.value)
    return one(p.value)


@dataclass
class PlanGroup:
    domain_id: str
    members: list[tuple[str, str]]  # (alias, column name) to lift, by alias
    children: list[ChainLink] = field(default_factory=list)


@dataclass
class ChainLink:
    bridge_alias: str
    parent_col: str  # bridge column on the parent group's domain
    child_col: str   # bridge column on the child group's domain
    group: PlanGroup  # the child group


@dataclass
class SubQueryPlan:
    groups: list[PlanGroup]  # in domain-id order; none for one table

    @property
    def root(self) -> PlanGroup:  # the smallest domain id
        return self.groups[0]


def decompose(query: Query, column_domain: dict[str, str]) -> SubQueryPlan:
    """Group query tables by shared key domain and chain groups via bridges.

    The query's joins must connect its tables into one tree
    (`check_join_tree`); a one-table query gets a plan with no group.
    `column_domain` maps "table.column" to a domain id.  Each join edge must
    connect two columns of one domain; groups are connected through tables
    owning key columns in two domains.  A bridge's column on its parent
    group's domain is no member there: the child group, translated across
    the bridge, stands in for it.
    """
    check_join_tree(query.aliases, query.join_edges, CyclicJoinError,
                    PlanError)
    if not query.join_edges:
        return SubQueryPlan(groups=[])
    members: dict[str, set[tuple[str, str]]] = {}
    for a, b in query.join_edges:
        doms = []
        for ref in (a, b):
            alias, col = ref.split(".", 1)
            qual = f"{query.aliases[alias]}.{col}"
            dom = column_domain.get(qual)
            if dom is None:
                raise PlanError(f"column {qual!r} belongs to no key domain")
            doms.append(dom)
            members.setdefault(dom, set()).add((alias, col))
        if doms[0] != doms[1]:
            raise PlanError(f"join edge {a} = {b} spans two key domains")

    domain_ids = sorted(members)
    groups = [PlanGroup(domain_id=d, members=sorted(members[d]))
              for d in domain_ids]

    # bridges: aliases present in exactly two groups
    adj: dict[int, list] = {i: [] for i in range(len(groups))}
    bridges = 0
    for alias in sorted(query.aliases):
        present = [(i, col) for i, d in enumerate(domain_ids)
                   for (al, col) in members[d] if al == alias]
        if len(present) > 2:
            raise UnsupportedQueryError(
                f"table alias {alias!r} joins on {len(present)} key domains; "
                f"at most two are supported")
        if len(present) == 2:
            (g1, c1), (g2, c2) = present
            adj[g1].append((g2, alias, c1, c2))
            adj[g2].append((g1, alias, c2, c1))
            bridges += 1
    # a table joined on two of its columns in one key domain is counted as a
    # bridge from its group to itself, one more than a tree of groups has
    if bridges != len(groups) - 1:
        raise PlanError("star groups are not chained into a tree")

    visited = {0}  # the root
    stack = [0]
    while stack:
        gid = stack.pop()
        group = groups[gid]
        for other, alias, col_here, col_there in sorted(adj[gid]):
            if other in visited:
                continue
            visited.add(other)
            group.members.remove((alias, col_here))
            group.children.append(ChainLink(
                bridge_alias=alias, parent_col=col_here, child_col=col_there,
                group=groups[other]))
            stack.append(other)
    return SubQueryPlan(groups=groups)
