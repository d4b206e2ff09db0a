"""Core data model: terms, atoms, conjunctive queries, databases.

Queries and databases are immutable values. `Term` and `Atom` are named
tuples, `(kind, name)` and `(relation, args)`, so they compare and hash
in C, exactly as the plain tuples of their fields do (a Term equals
`("var", name)`). Atoms are kept sorted and deduplicated under this
canonical ordering (relation name, then arguments by kind and name), so
equality, hashing and serialization are deterministic.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import count, islice
from typing import NamedTuple


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


class Term(NamedTuple):
    kind: str
    name: str

    def __repr__(self):
        return f"{self.kind[0]}:{self.name}"


_new = tuple.__new__  # a Term or Atom from its fields, skipping NamedTuple's __new__


def Var(name: str) -> Term:
    return _new(Term, (VARIABLE, name))


def Const(name: str) -> Term:
    return _new(Term, (CONSTANT, name))


class Atom(NamedTuple):
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
        # deduplicated in input order, which is often nearly sorted already
        atoms = tuple(sorted(dict.fromkeys(self.atoms)))
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


def _intern(facts) -> tuple:
    """The form `hom._Target` reads: the terms in canonical order, each
    term's id, the id rows per relation in fact order, and an index dict."""
    values = sorted({t for f in facts for t in f.args})
    eid = dict(zip(values, range(len(values))))
    rels: dict[str, list[tuple]] = {}
    for f in facts:
        rels.setdefault(f.relation, []).append(tuple(map(eid.__getitem__, f.args)))
    return values, eid, rels, {}


@dataclass(frozen=True)
class Database:
    """Ground facts, sorted and deduplicated. Their interned form
    (`_intern`) is built once, on first use, and shared by every search;
    `parse_database` builds the form, and the facts only when read."""

    facts: tuple[Atom, ...]
    # relation -> arity from the construction check; shared, never mutated
    arities: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        facts = tuple(sorted(dict.fromkeys(self.facts)))
        for a in facts:  # a variable anywhere is reported before an arity clash
            for t in a.args:
                if t.kind != CONSTANT:
                    raise CqError(f"variable {t.name} in database fact {a}")
        object.__setattr__(self, "facts", facts)
        object.__setattr__(self, "arities", _check_arities(facts, "database"))
        object.__setattr__(self, "_form", None)

    def __getattr__(self, name):  # the facts of a parsed Database, on first read
        if name != "facts":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values, _, rels, _ = self._form
        facts = tuple([_new(Atom, (rel, tuple(map(values.__getitem__, row))))
                       for rel in sorted(rels) for row in rels[rel]])
        object.__setattr__(self, "facts", facts)
        return facts

    def _interned(self) -> tuple:
        if self._form is None:
            object.__setattr__(self, "_form", _intern(self.facts))
        return self._form

    @property
    def adom(self) -> frozenset[Term]:
        return frozenset(self._interned()[0])

    def __repr__(self):
        return serialize_database(self)


class _UnionFind:
    """Disjoint sets over hashable items, with path halving. An item joins
    as a singleton the first time it is seen."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y) -> bool:
        """Merge the sets of x and y; False if they were one set already."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


@dataclass(frozen=True)
class GaifmanGraph:
    """Variables of a CQ with an edge {z,z'} iff z≠z' co-occur in an atom."""

    nodes: frozenset[Term]
    edges: frozenset[tuple[Term, Term]]  # each pair stored sorted

    def adjacent(self, u: Term, v: Term) -> bool:
        p = (u, v) if u <= v else (v, u)
        return p in self.edges


# --- parsing ----------------------------------------------------------------

# One token, then the whitespace and comments after it. A character that
# starts no token yields an empty token there, as does the end of input.
_TOKEN_RE = re.compile(r"([A-Za-z0-9_]+|->|:-|[(),.=]|(?=.)|\Z)(?:\s+|#[^\n]*)*", re.S)
_SKIP_RE = re.compile(r"(?:\s+|#[^\n]*)*")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_VAR_RE = re.compile(r"[a-z_][A-Za-z0-9_]*\Z")
_CONST_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_COMMENT_RE = re.compile(r"#[^\n]*")
# Two names with whitespace, by now one '\n', between them.
_GLUED_RE = re.compile(r"\n(?<=[A-Za-z0-9_]\n)[A-Za-z0-9_]")
# Without comments and whitespace, a fact file is a run of facts. The
# catch-all takes all the rest where no fact starts, so no long name is
# rescanned from each of its characters.
_FACT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\([A-Za-z0-9_]+(?:,[A-Za-z0-9_]+)*\)\.|.+", re.S)


class _Tokens:
    """The tokens of a text, ending in one empty token, and the terms
    read from it: all of one kind (variables in rules, constants in
    facts), one Term per name. Positions are found again only for an
    error, by `error`. It reads queries and dependencies, and explains
    the fact files that `parse_database`'s own passes reject."""

    def __init__(self, text: str, kind: str):
        self.text = text
        self.start = _SKIP_RE.match(text).end()
        self.toks: list[str] = _TOKEN_RE.findall(text, self.start)
        self.i = 0
        self.kind = kind
        self.terms: dict[str, Term] = {}
        bad = self.toks.index("")
        if bad < len(self.toks) - 1:
            raise self.error(f"unexpected character {text[self._offset(bad)]!r}", bad)

    def _offset(self, i: int) -> int:
        return next(islice(_TOKEN_RE.finditer(self.text, self.start), i, None)).start(1)

    def error(self, message: str, i: int) -> ParseError:
        """A ParseError at the line and column of token i."""
        off = self._offset(i)
        return ParseError(message, self.text.count("\n", 0, off) + 1,
                          off - self.text.rfind("\n", 0, off))

    def peek(self) -> str:
        return self.toks[self.i]

    def take(self, expected: str | None = None) -> str:
        tok = self.toks[self.i]
        if expected is not None and tok != expected:
            shown = tok or "end of input"
            raise self.error(f"expected {expected!r}, found {shown!r}", self.i)
        self.i += 1
        return tok

    def term(self) -> Term:
        tok = self.toks[self.i]
        term = self.terms.get(tok)
        if term is None:
            if not (_VAR_RE if self.kind == VARIABLE else _CONST_RE).match(tok):
                what = "variable (lowercase identifier)" if self.kind == VARIABLE else "constant"
                raise self.error(f"expected {what}, found {tok!r}", self.i)
            term = self.terms[tok] = _new(Term, (self.kind, tok))
        self.i += 1
        return term

    def term_list(self) -> list[Term]:
        """Take ``(t1, ..., tn)``, n >= 0."""
        self.take("(")
        out = []
        if self.toks[self.i] != ")":
            out.append(self.term())
            while self.toks[self.i] == ",":
                self.i += 1
                out.append(self.term())
        self.take(")")
        return out


def _parse_atom(ts: _Tokens) -> Atom:
    start = ts.i
    rel = ts.take()
    if not _IDENT_RE.match(rel):
        raise ts.error(f"expected relation name, found {rel!r}", start)
    args = ts.term_list()
    if not args:
        raise ts.error(f"relation {rel} needs at least one argument", start)
    return _new(Atom, (rel, tuple(args)))


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse one rule ``name(v1,...,vn) :- A1, ..., Am.`` (body may be empty).

    A head variable that never occurs in the body is accepted only if it
    occurs at least twice in the head ("unsafe head variable" otherwise).
    """
    ts = _Tokens(text, VARIABLE)
    name = ts.take()
    if not _IDENT_RE.match(name):
        raise ts.error(f"expected query name, found {name!r}", 0)
    head = ts.term_list()
    ts.take(":-")
    atoms: list[Atom] = []
    while ts.peek() != ".":
        atoms.append(_parse_atom(ts))
        if ts.peek() == ",":
            ts.take(",")
        elif ts.peek() != ".":
            shown = ts.peek() or "end of input"
            raise ts.error(f"expected ',' or '.', found {shown!r}", ts.i)
    ts.take(".")
    if ts.peek():
        raise ts.error(f"trailing input {ts.peek()!r}", ts.i)

    body_vars = {t for a in atoms for t in a.args}
    for v in head:
        if v not in body_vars and head.count(v) < 2:
            raise ts.error(f"unsafe head variable {v.name}", 0)
    try:
        return ConjunctiveQuery(tuple(head), tuple(atoms), name)
    except ArityError as e:
        raise ts.error(str(e), 0) from e


def parse_database(text: str) -> Database:
    """Parse a facts file: one fact ``R(c1,...,ck).`` per line, # comments.

    A few C-level passes, linear on a file in sorted order, accept a
    valid file and build the Database's interned form from the names they
    read, making no `Atom`. A text they reject, or an arity clash, goes
    to the token reader, `_read_database`, to be explained."""
    bare = _COMMENT_RE.sub("", text) if "#" in text else text
    bare = "\n".join(bare.split())  # each stretch of whitespace one '\n'
    if _GLUED_RE.search(bare):  # compaction would glue two names
        return _read_database(text)
    bare = bare.replace("\n", "") + "\n"  # compacted, and an end mark
    facts = _FACT_RE.findall(bare)
    del bare
    if facts.pop() != "\n":  # the catch-all took more than the end mark
        return _read_database(text)
    # '(' and ',' sort below every name character, so each relation's
    # facts form one run, and in it facts sort as their tuples of names,
    # and so as their id rows. On a file in order both steps are linear.
    facts.sort()
    facts = list(dict.fromkeys(facts))
    runs: list[tuple[str, int, list[str]]] = []  # (relation, arity, its names), the last first
    seen: set[str] = set()
    while facts:  # the last run, which leaves the list before its names are cut out
        rel, _, args = facts[-1].partition("(")
        n = args.count(",") + 1
        start = len(facts) - 1
        if start and facts[start - 1].startswith(rel + "("):  # not a one-fact run
            start = bisect_left(facts, rel + "(", 0, start)
        m = len(facts) - start
        run = "".join(facts[start:])
        del facts[start:]
        # the run's names, with ';' where a fact ends: every n + 1 places
        # when all its facts have n names
        flat = run[len(rel) + 1:-2].replace(f").{rel}(", ",;,").split(",")
        if len(flat) != (n + 1) * m - 1 or flat[n::n + 1].count(";") != m - 1:
            return _read_database(text)  # it points at the clashing fact
        del flat[n::n + 1]
        seen.update(flat)
        runs.append((rel, n, flat))
    names = sorted(seen)
    del seen  # like the text, the facts and each run's names: dropped once read, for a lower peak
    nid = dict(zip(names, range(len(names)))).__getitem__
    rels, arities = {}, {}
    while runs:
        rel, n, flat = runs.pop()
        arities[rel] = n
        rels[rel] = list(zip(*[map(nid, flat)] * n))
    values = [_new(Term, (CONSTANT, c)) for c in names]
    db = object.__new__(Database)  # its facts are built when read
    db.__dict__.update(_form=(values, dict(zip(values, range(len(values)))), rels, {}),
                       arities=_SCHEMAS.setdefault(frozenset(arities.items()), arities))
    return db


def _read_database(text: str) -> Database:
    """`parse_database` by the token reader, which locates any error."""
    ts = _Tokens(text, CONSTANT)
    facts = []
    while ts.peek():
        facts.append(_parse_atom(ts))
        ts.take(".")
    try:
        return Database(tuple(facts))
    except ArityError as e:
        # point at the first fact, in file order, that clashes with an
        # earlier one; fact n starts after the n-th '.'
        arities: dict[str, int] = {}
        n = next(n for n, f in enumerate(facts)
                 if arities.setdefault(f.relation, len(f.args)) != len(f.args))
        rel, arity = facts[n].relation, len(facts[n].args)
        start = [i for i, tok in enumerate(ts.toks) if tok == "."][n - 1] + 1
        raise ts.error(
            f"relation {rel} used with arities {arities[rel]} and {arity} in database", start
        ) from e


def parse_tuple(text: str) -> tuple[Term, ...]:
    """Parse a comma-separated constant tuple; empty string means ()."""
    if not text.strip():
        return ()
    out = []
    start = 0  # of the part, in text
    for part in text.split(","):
        name = part.strip()
        if not _CONST_RE.match(name):
            col = start + len(part) - len(part.lstrip()) + 1
            raise ParseError(f"bad constant {name!r} in tuple", 1, col)
        out.append(Const(name))
        start += len(part) + 1
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


def _fresh(names, used: set) -> str:
    """The first of `names` that `used` lacks, now added to it."""
    name = next(n for n in names if n not in used)
    used.add(name)
    return name


def disjoint_conjunction(q: ConjunctiveQuery, q2: ConjunctiveQuery) -> ConjunctiveQuery:
    """The disjoint conjunction q ∧ q2: bodies renamed apart, atoms unioned,
    i-th head variables identified (least upper bound under ⊆)."""
    if len(q.free_vars) != len(q2.free_vars):
        raise ArityError(
            f"head arity mismatch: {len(q.free_vars)} vs {len(q2.free_vars)}"
        )

    # Union-find over head positions; transitive merges happen when a head
    # variable repeats on either side.
    sets = _UnionFind()
    for hv, hv2 in zip(q.free_vars, q2.free_vars):
        sets.union(("a", hv), ("b", hv2))

    classes: dict[tuple[str, Term], list[tuple[str, Term]]] = {}
    for x in list(sets.parent):
        classes.setdefault(sets.find(x), []).append(x)
    rep_for: dict[tuple[str, Term], Term] = {}
    used_names = set()
    for root, members in classes.items():
        a_side = sorted(v.name for side, v in members if side == "a")
        rep = Var(a_side[0])
        used_names.add(rep.name)
        for m in members:
            rep_for[m] = rep

    numbers = count(1)

    def rename_side(side: str, query: ConjunctiveQuery) -> dict[Term, Term]:
        ren = {}
        for v in sorted(query.variables):
            if (side, v) in rep_for:
                ren[v] = rep_for[(side, v)]
            else:
                ren[v] = Var(_fresh((f"{v.name}_d{n}" for n in numbers), used_names))
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


def _components(atoms, fixed) -> tuple[list[Atom], list[list[Atom]]]:
    """The atoms whose terms all lie in `fixed`, and the others grouped by
    Gaifman-connected component of their other terms, in the order of each
    group's least such term. Atoms keep their order within a group.

    One walk: each atom not yet reached starts a group, which takes in
    every atom sharing a term with an atom it holds, through an index
    from each term to the atoms holding it."""
    free = [[t for t in a.args if t not in fixed] for a in atoms]
    holding: dict[Term, list[int]] = {}
    for i, terms in enumerate(free):
        for t in terms:
            holding.setdefault(t, []).append(i)
    reached = bytearray(len(free))
    groups = []
    for i, terms in enumerate(free):
        if terms and not reached[i]:
            reached[i] = 1
            members = [i]
            for j in members:  # grows as the walk reaches atoms
                for t in free[j]:
                    for m in holding.pop(t, ()):
                        if not reached[m]:
                            reached[m] = 1
                            members.append(m)
            members.sort()
            groups.append([atoms[m] for m in members])
    anchored = [a for a, terms in zip(atoms, free) if not terms]
    return anchored, sorted(
        groups, key=lambda g: min(t for a in g for t in a.args if t not in fixed)
    )


def connected_components(q: ConjunctiveQuery) -> list[ConjunctiveQuery]:
    """Split a Boolean CQ into its Gaifman-connected components, in the
    order of their least variable (a nullary atom comes first, alone)."""
    if not q.is_boolean:
        raise CqError("connected_components requires a Boolean query")
    nullary, groups = _components(q.atoms, ())
    return [ConjunctiveQuery((), tuple(atoms), q.name) for atoms in [[a] for a in nullary] + groups]
