"""Core data model: terms, atoms, conjunctive queries, databases.

Queries and databases are immutable values. Atoms are kept sorted and
deduplicated under the canonical ordering (relation name, then argument
names), so equality, hashing and serialization are deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class CqError(Exception):
    """Root of all errors raised by this package."""


class ParseError(CqError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ArityError(CqError):
    """A relation symbol is used with two different arities, or anchor
    tuples of unequal length are paired."""


class BudgetError(CqError):
    """A size guard or atom budget was exceeded."""


class PreconditionUnknownError(CqError):
    """A width precondition could not be verified (k > 1, no certificate,
    size guard exceeded). Distinct from a plain False verdict."""


class DependencyError(CqError):
    """Malformed or mixed dependency sets, or a database violating them."""


VARIABLE = "var"
CONSTANT = "const"


@dataclass(frozen=True, order=True)
class Term:
    kind: str
    name: str

    def __repr__(self):
        return f"{self.kind[0]}:{self.name}"


def Var(name: str) -> Term:
    return Term(VARIABLE, name)


def Const(name: str) -> Term:
    return Term(CONSTANT, name)


@dataclass(frozen=True, order=True)
class Atom:
    relation: str
    args: tuple[Term, ...]

    def __repr__(self):
        return f"{self.relation}({','.join(t.name for t in self.args)})"

    @property
    def arg_set(self) -> frozenset[Term]:
        return frozenset(self.args)


# relation -> arity maps, one per distinct schema: every query and database
# keeps its map for life, and nearly all of them share a few schemas
_SCHEMAS: dict[frozenset, dict[str, int]] = {}


def _check_arities(atoms, where: str) -> dict[str, int]:
    arities: dict[str, int] = {}
    for a in atoms:
        seen = arities.setdefault(a.relation, len(a.args))
        if seen != len(a.args):
            raise ArityError(
                f"relation {a.relation} used with arities {seen} and {len(a.args)} in {where}"
            )
    return _SCHEMAS.setdefault(frozenset(arities.items()), arities)


def check_schemas_agree(source, target) -> None:
    """Raise ArityError if source and target (queries or databases) use
    some relation with different arities."""
    for rel, n in source.arities.items():
        m = target.arities.get(rel, n)
        if m != n:
            raise ArityError(
                f"relation {rel} has arity {n} in the source but {m} in the target"
            )


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A CQ q(x̄) = body atoms over variables, with an ordered head tuple.

    free_vars may repeat; variables outside free_vars are existential.
    """

    free_vars: tuple[Term, ...]
    atoms: tuple[Atom, ...]
    name: str = "q"
    # relation -> arity from the construction check; shared, never mutated
    arities: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = tuple(sorted(set(self.atoms)))
        object.__setattr__(self, "atoms", atoms)
        for a in atoms:
            for t in a.args:
                if t.kind != VARIABLE:
                    raise CqError(f"constant {t.name} in query body atom {a}")
        for t in self.free_vars:
            if t.kind != VARIABLE:
                raise CqError(f"constant {t.name} in query head")
        object.__setattr__(self, "arities", _check_arities(atoms, f"query {self.name}"))

    @property
    def variables(self) -> frozenset[Term]:
        vs = set(self.free_vars)
        for a in self.atoms:
            vs.update(a.args)
        return frozenset(vs)

    @property
    def existential_vars(self) -> frozenset[Term]:
        return self.variables - set(self.free_vars)

    @property
    def is_boolean(self) -> bool:
        return not self.free_vars

    def without_atom(self, atom: Atom) -> "ConjunctiveQuery":
        return ConjunctiveQuery(
            self.free_vars, tuple(a for a in self.atoms if a != atom), self.name
        )

    def __repr__(self):
        return serialize_query(self)


@dataclass(frozen=True)
class Database:
    facts: tuple[Atom, ...]
    # relation -> arity from the construction check; shared, never mutated
    arities: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        facts = tuple(sorted(set(self.facts)))
        object.__setattr__(self, "facts", facts)
        for a in facts:
            for t in a.args:
                if t.kind != CONSTANT:
                    raise CqError(f"variable {t.name} in database fact {a}")
        object.__setattr__(self, "arities", _check_arities(facts, "database"))

    @property
    def adom(self) -> frozenset[Term]:
        out = set()
        for a in self.facts:
            out.update(a.args)
        return frozenset(out)

    def __repr__(self):
        return serialize_database(self)


@dataclass(frozen=True)
class GaifmanGraph:
    """Variables of a CQ with an edge {z,z'} iff z≠z' co-occur in an atom."""

    nodes: frozenset[Term]
    edges: frozenset[tuple[Term, Term]]  # each pair stored sorted

    def neighbors(self, v: Term) -> set[Term]:
        out = set()
        for a, b in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out

    def adjacent(self, u: Term, v: Term) -> bool:
        p = (u, v) if u <= v else (v, u)
        return p in self.edges


# --- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|->|:-|[(),.=]|\s+|#[^\n]*")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_VAR_RE = re.compile(r"[a-z_][A-Za-z0-9_]*\Z")
_CONST_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class _Tokens:
    """Token stream with line/column tracking for error reporting."""

    def __init__(self, text: str):
        self.items: list[tuple[str, int, int]] = []
        line, col = 1, 1
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", line, col)
            tok = m.group()
            if not tok.isspace() and not tok.startswith("#"):
                self.items.append((tok, line, col))
            nl = tok.count("\n")
            if nl:
                line += nl
                col = len(tok) - tok.rfind("\n")
            else:
                col += len(tok)
            pos = m.end()
        self.items.append(("", line, col))  # end marker
        self.i = 0

    def peek(self) -> str:
        return self.items[self.i][0]

    def pos(self) -> tuple[int, int]:
        return self.items[self.i][1], self.items[self.i][2]

    def take(self, expected: str | None = None) -> str:
        tok, line, col = self.items[self.i]
        if expected is not None and tok != expected:
            shown = tok if tok else "end of input"
            raise ParseError(f"expected {expected!r}, found {shown!r}", line, col)
        self.i += 1
        return tok


def _parse_atom(ts: _Tokens, make_term) -> Atom:
    line, col = ts.pos()
    rel = ts.take()
    if not _IDENT_RE.match(rel):
        raise ParseError(f"expected relation name, found {rel!r}", line, col)
    ts.take("(")
    args = []
    if ts.peek() != ")":
        while True:
            tline, tcol = ts.pos()
            args.append(make_term(ts.take(), tline, tcol))
            if ts.peek() != ",":
                break
            ts.take(",")
    ts.take(")")
    if not args:
        raise ParseError(f"relation {rel} needs at least one argument", line, col)
    return Atom(rel, tuple(args))


def _make_var(tok: str, line: int, col: int) -> Term:
    if not _VAR_RE.match(tok):
        raise ParseError(f"expected variable (lowercase identifier), found {tok!r}", line, col)
    return Var(tok)


def _make_const(tok: str, line: int, col: int) -> Term:
    if not _CONST_RE.match(tok):
        raise ParseError(f"expected constant, found {tok!r}", line, col)
    return Const(tok)


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse one rule ``name(v1,...,vn) :- A1, ..., Am.`` (body may be empty).

    A head variable that never occurs in the body is accepted only if it
    occurs at least twice in the head ("unsafe head variable" otherwise).
    """
    ts = _Tokens(text)
    hline, hcol = ts.pos()
    name = ts.take()
    if not _IDENT_RE.match(name):
        raise ParseError(f"expected query name, found {name!r}", hline, hcol)
    ts.take("(")
    head: list[Term] = []
    if ts.peek() != ")":
        while True:
            tline, tcol = ts.pos()
            head.append(_make_var(ts.take(), tline, tcol))
            if ts.peek() != ",":
                break
            ts.take(",")
    ts.take(")")
    ts.take(":-")
    atoms: list[Atom] = []
    while ts.peek() != ".":
        atoms.append(_parse_atom(ts, _make_var))
        if ts.peek() == ",":
            ts.take(",")
        elif ts.peek() != ".":
            line, col = ts.pos()
            shown = ts.peek() or "end of input"
            raise ParseError(f"expected ',' or '.', found {shown!r}", line, col)
    ts.take(".")
    if ts.peek():
        line, col = ts.pos()
        raise ParseError(f"trailing input {ts.peek()!r}", line, col)

    body_vars = {t for a in atoms for t in a.args}
    for v in head:
        if v not in body_vars and head.count(v) < 2:
            raise ParseError(f"unsafe head variable {v.name}", hline, hcol)
    try:
        return ConjunctiveQuery(tuple(head), tuple(atoms), name)
    except ArityError as e:
        raise ParseError(str(e), hline, hcol) from e


def parse_database(text: str) -> Database:
    """Parse a facts file: one fact ``R(c1,...,ck).`` per line, # comments."""
    ts = _Tokens(text)
    facts = []
    while ts.peek():
        facts.append(_parse_atom(ts, _make_const))
        ts.take(".")
    try:
        return Database(tuple(facts))
    except ArityError as e:
        raise ParseError(*_first_arity_clash(ts)) from e


def _first_arity_clash(ts: _Tokens) -> tuple[str, int, int]:
    """The first fact, in file order, whose arity differs from an earlier
    fact of its relation: the message and its position. Called only
    after Database found a clash, so the facts are read a second time
    only then."""
    ts.i = 0
    arities: dict[str, int] = {}
    while True:
        line, col = ts.pos()
        fact = _parse_atom(ts, _make_const)
        ts.take(".")
        seen = arities.setdefault(fact.relation, len(fact.args))
        if seen != len(fact.args):
            return (
                f"relation {fact.relation} used with arities {seen} and "
                f"{len(fact.args)} in database",
                line,
                col,
            )


def parse_tuple(text: str) -> tuple[Term, ...]:
    """Parse a comma-separated constant tuple; empty string means ()."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        part = part.strip()
        if not _CONST_RE.match(part):
            raise ParseError(f"bad constant {part!r} in tuple", 1, 1)
        out.append(Const(part))
    return tuple(out)


def serialize_query(q: ConjunctiveQuery) -> str:
    head = ", ".join(t.name for t in q.free_vars)
    body = ", ".join(f"{a.relation}({', '.join(t.name for t in a.args)})" for a in q.atoms)
    return f"{q.name}({head}) :- {body}."


def serialize_database(db: Database) -> str:
    return "\n".join(
        f"{a.relation}({', '.join(t.name for t in a.args)})." for a in db.facts
    )


def serialize_tuple(tup: tuple[Term, ...]) -> str:
    return ",".join(t.name for t in tup)


# --- structural derivatives --------------------------------------------------


def canonical_database(q: ConjunctiveQuery) -> tuple[Database, tuple[Term, ...]]:
    """The canonical database D_q: variables bijectively renamed to fresh
    constants c_<var>; returns D_q and the image of the head tuple."""
    ren = {v: Const(f"c_{v.name}") for v in q.variables}
    facts = tuple(Atom(a.relation, tuple(ren[t] for t in a.args)) for a in q.atoms)
    return Database(facts), tuple(ren[v] for v in q.free_vars)


def instance_as_query(db: Database, anchors: tuple[Term, ...] = ()) -> ConjunctiveQuery:
    """Reinterpret a database as a CQ: constants become variables, the
    anchor tuple becomes the head."""
    ren = {c: Var(c.name) for c in db.adom | set(anchors)}
    atoms = tuple(Atom(a.relation, tuple(ren[t] for t in a.args)) for a in db.facts)
    return ConjunctiveQuery(tuple(ren[c] for c in anchors), atoms)


def disjoint_conjunction(q: ConjunctiveQuery, q2: ConjunctiveQuery) -> ConjunctiveQuery:
    """The disjoint conjunction q ∧ q2: bodies renamed apart, atoms unioned,
    i-th head variables identified (least upper bound under ⊆)."""
    if len(q.free_vars) != len(q2.free_vars):
        raise ArityError(
            f"head arity mismatch: {len(q.free_vars)} vs {len(q2.free_vars)}"
        )

    # Union-find over head positions; transitive merges happen when a head
    # variable repeats on either side.
    parent: dict[tuple[str, Term], tuple[str, Term]] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for hv, hv2 in zip(q.free_vars, q2.free_vars):
        union(("a", hv), ("b", hv2))

    classes: dict[tuple[str, Term], list[tuple[str, Term]]] = {}
    for x in list(parent):
        classes.setdefault(find(x), []).append(x)
    rep_for: dict[tuple[str, Term], Term] = {}
    used_names = set()
    for root, members in classes.items():
        a_side = sorted(v.name for side, v in members if side == "a")
        rep = Var(a_side[0])
        used_names.add(rep.name)
        for m in members:
            rep_for[m] = rep

    counter = 0

    def fresh(base: str) -> Term:
        nonlocal counter
        while True:
            counter += 1
            cand = f"{base}_d{counter}"
            if cand not in used_names:
                used_names.add(cand)
                return Var(cand)

    def rename_side(side: str, query: ConjunctiveQuery) -> dict[Term, Term]:
        ren = {}
        for v in sorted(query.variables):
            if (side, v) in rep_for:
                ren[v] = rep_for[(side, v)]
            else:
                ren[v] = fresh(v.name)
        return ren

    ren_a = rename_side("a", q)
    ren_b = rename_side("b", q2)
    atoms = tuple(Atom(a.relation, tuple(ren_a[t] for t in a.args)) for a in q.atoms)
    atoms += tuple(Atom(a.relation, tuple(ren_b[t] for t in a.args)) for a in q2.atoms)
    head = tuple(ren_a[v] for v in q.free_vars)
    return ConjunctiveQuery(head, atoms, q.name)


def gaifman(q: ConjunctiveQuery) -> GaifmanGraph:
    edges = set()
    for a in q.atoms:
        args = sorted(set(a.args))
        for i in range(len(args)):
            for j in range(i + 1, len(args)):
                edges.add((args[i], args[j]))
    return GaifmanGraph(q.variables, frozenset(edges))


def connected_components(q: ConjunctiveQuery) -> list[ConjunctiveQuery]:
    """Split a Boolean CQ into its Gaifman-connected components."""
    if not q.is_boolean:
        raise CqError("connected_components requires a Boolean query")
    g = gaifman(q)
    comp: dict[Term, Term] = {}  # variable -> component representative
    for v in sorted(g.nodes):
        if v in comp:
            continue
        stack = [v]
        comp[v] = v
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w not in comp:
                    comp[w] = v
                    stack.append(w)
    by_rep: dict[Term, list[Atom]] = {}
    for a in q.atoms:
        by_rep.setdefault(comp[a.args[0]], []).append(a)
    return [
        ConjunctiveQuery((), tuple(atoms), q.name)
        for rep, atoms in sorted(by_rep.items())
    ]
