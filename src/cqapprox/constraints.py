"""Dependencies (tgds and egds), the chase, and reasoning under them.

The chase rewrites a query until it satisfies the dependencies: egds
identify variables (finite, unique result, with the witnessing
homomorphism h onto the result), tgds add atoms with fresh nulls in
fair breadth-first rounds up to a depth cap. One generator, `_triggers`,
serves satisfies, each egd step and each tgd round: over one indexed
`hom._Target` per instance, `_Target.join` matches each body and checks
each tgd head with every frontier slot bound. Containment and
overapproximation evaluation under constraints reduce to homomorphism
and cover-game checks against the chased query; for guarded tgds and a
satisfying database the game can skip the chase entirely.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

from cqapprox.hom import Hom, _atoms_of, _Target, find_hom
from cqapprox.model import (
    ArityError,
    Atom,
    ConjunctiveQuery,
    CqError,
    Database,
    DependencyError,
    VARIABLE,
    Term,
    Var,
    _check_arities,
    _parse_atom,
    _Tokens,
)
from cqapprox.pebble import wins_cover_game


class ChaseDepthWarning(UserWarning):
    """The tgd chase hit its round cap; verdicts use the chase prefix."""


@dataclass(frozen=True)
class Tgd:
    """forall x,y (body -> exists z head), z being the head-only variables."""

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]

    def __post_init__(self):
        if not self.body or not self.head:
            raise DependencyError("a tgd needs a nonempty body and a nonempty head")

    @property
    def body_vars(self) -> frozenset[Term]:
        return frozenset(t for a in self.body for t in a.args)

    @property
    def head_vars(self) -> frozenset[Term]:
        return frozenset(t for a in self.head for t in a.args)

    @property
    def frontier(self) -> frozenset[Term]:
        """Variables shared between body and head."""
        return self.body_vars & self.head_vars

    @property
    def guarded(self) -> bool:
        """Some body atom mentions every body variable."""
        return any(self.body_vars <= a.arg_set for a in self.body)


@dataclass(frozen=True)
class Egd:
    """forall x (body -> y = z) with y, z occurring in the body."""

    body: tuple[Atom, ...]
    eq: tuple[Term, Term]

    def __post_init__(self):
        if not self.body:
            raise DependencyError("an egd needs a nonempty body")
        in_body = {t for a in self.body for t in a.args}
        for t in self.eq:
            if t not in in_body:
                raise DependencyError(f"equated variable {t.name} does not occur in the body")


@dataclass
class ChaseResult:
    query: ConjunctiveQuery
    hom_to_result: Hom
    complete: bool


# --- parsing -------------------------------------------------------------------
#
# One dependency per '.'-terminated statement, '#' comments allowed:
#   R(x,y), S(y,z) -> T(x,z), U(z,w).     head-only variables are existential
#   R(x,y,z), R(x,y2,z2) -> z = z2.


def _parse_one(ts: _Tokens) -> Tgd | Egd:
    body = [_parse_atom(ts)]
    while ts.peek() == ",":
        ts.take(",")
        body.append(_parse_atom(ts))
    ts.take("->")
    if ts.peek() and ts.toks[ts.i + 1] == "=":
        y = ts.term()
        ts.take("=")
        at_z = ts.i
        z = ts.term()
        ts.take(".")
        try:
            return Egd(tuple(body), (y, z))
        except CqError as err:
            raise ts.error(str(err), at_z) from err
    head = [_parse_atom(ts)]
    while ts.peek() == ",":
        ts.take(",")
        head.append(_parse_atom(ts))
    ts.take(".")
    return Tgd(tuple(body), tuple(head))


def parse_dependency(text: str) -> Tgd | Egd:
    ts = _Tokens(text, VARIABLE)
    dep = _parse_one(ts)
    if ts.peek():
        raise ts.error(f"trailing input {ts.peek()!r}", ts.i)
    return dep


def parse_dependencies(text: str) -> tuple:
    """Parse a dependency file: any number of statements."""
    ts = _Tokens(text, VARIABLE)
    out = []
    while ts.peek():
        out.append(_parse_one(ts))
    return tuple(out)


# --- satisfaction ----------------------------------------------------------


def _split(deps, inst):
    """The egds and the tgds of deps. ArityError unless every relation
    has one arity across the dependencies and the instance."""
    egds = [d for d in deps if isinstance(d, Egd)]
    tgds = [d for d in deps if isinstance(d, Tgd)]
    if len(egds) + len(tgds) != len(deps):
        raise DependencyError("dependency set may contain only Tgd and Egd values")
    atoms = [a for d in deps for a in d.body] + [a for d in tgds for a in d.head]
    for rel, n in _check_arities(atoms, "the dependencies").items():
        m = inst.arities.get(rel, n)
        if m != n:
            raise ArityError(
                f"relation {rel} has arity {n} in the dependencies but {m} in the instance"
            )
    return egds, tgds


def _triggers(facts, deps):
    """The active triggers of deps on the facts, dependency by dependency.

    An egd yields (egd, h) for every body match h with h(y) ≠ h(z); a tgd
    yields (tgd, frontier map) once per frontier image with no head
    witness. Body matches come in lexicographic order of the facts
    matched. One target index serves the body joins and the head checks.
    """
    target = _Target(facts)
    values = target.values
    for dep in deps:
        slot: dict[Term, int] = {}
        for a in dep.body:
            for t in a.args:
                slot.setdefault(t, len(slot))
        matches = target.join(dep.body, slot, [None] * len(slot))
        if isinstance(dep, Egd):
            y, z = slot[dep.eq[0]], slot[dep.eq[1]]
            for m in matches:
                if m[y] != m[z]:
                    yield dep, {v: values[m[s]] for v, s in slot.items()}
            continue
        frontier = tuple(sorted(dep.frontier))
        head_slot = {x: s for s, x in enumerate(frontier)}
        for a in dep.head:
            for t in a.args:
                head_slot.setdefault(t, len(head_slot))
        unbound = [None] * (len(head_slot) - len(frontier))
        seen = set()
        for m in matches:
            key = tuple(m[slot[x]] for x in frontier)
            if key in seen:
                continue
            seen.add(key)
            if next(target.join(dep.head, head_slot, [*key, *unbound]), None) is None:
                yield dep, {x: values[i] for x, i in zip(frontier, key)}


def satisfies(inst, deps) -> bool:
    """Does the database (or CQ read as an instance) satisfy every dependency?

    Exhaustive: every tgd trigger must extend to a head witness, every
    egd trigger must already equate its two variables.
    """
    deps = tuple(deps)
    _split(deps, inst)
    return next(_triggers(_atoms_of(inst), deps), None) is None


# --- the chase -----------------------------------------------------------------


def chase_egds(q: ConjunctiveQuery, deps) -> ChaseResult:
    """Chase q with egds to the (finite, unique) fixpoint.

    Variables are identified in place, the smaller term in canonical
    order becoming the representative; free variables are terms like any
    other, so two free positions may merge. Returns the result and the
    surjective homomorphism h with h(q) = result.
    """
    egds, tgds = _split(deps, q)
    if tgds:
        raise DependencyError("chase_egds accepts equality-generating dependencies only")
    mapping: dict[Term, Term] = {v: v for v in q.variables}
    atoms = list(q.atoms)

    while (trigger := next(_triggers(atoms, egds), None)) is not None:
        dep, h = trigger
        keep, drop = sorted((h[dep.eq[0]], h[dep.eq[1]]))
        atoms = [
            Atom(a.relation, tuple(keep if t == drop else t for t in a.args))
            for a in atoms
        ]
        seen: set[Atom] = set()
        atoms = [a for a in atoms if not (a in seen or seen.add(a))]
        mapping = {src: (keep if tgt == drop else tgt) for src, tgt in mapping.items()}

    head = tuple(mapping[v] for v in q.free_vars)
    result = ConjunctiveQuery(head, tuple(atoms), q.name)
    return ChaseResult(result, Hom(mapping, q, result), True)


def chase_tgds(q: ConjunctiveQuery, deps, max_depth: int = 16) -> ChaseResult:
    """Fair breadth-first tgd chase: each round fires every trigger found
    against the round-start atoms, with fresh nulls _n0, _n1, ... for the
    existential head variables. Stops at a fixpoint (complete) or after
    max_depth rounds (complete=False; the result is a prefix of a valid
    chase sequence)."""
    egds, tgds = _split(deps, q)
    if egds:
        raise DependencyError("chase_tgds accepts tuple-generating dependencies only")
    if max_depth < 0:
        raise CqError(f"max_depth must be nonnegative, got {max_depth}")

    atoms = list(q.atoms)
    atom_set = set(atoms)
    used_names = {v.name for v in q.variables}
    counter = itertools.count()

    def fresh() -> Var:
        while True:
            name = f"_n{next(counter)}"
            if name not in used_names:
                used_names.add(name)
                return Var(name)

    rounds = 0
    while (pending := list(_triggers(atoms, tgds))) and rounds < max_depth:
        for dep, fmap in pending:
            ext = dict(fmap)
            for zvar in sorted(dep.head_vars - dep.frontier):
                ext[zvar] = fresh()
            for a in dep.head:
                na = Atom(a.relation, tuple(ext[t] for t in a.args))
                if na not in atom_set:
                    atom_set.add(na)
                    atoms.append(na)
        rounds += 1

    result = ConjunctiveQuery(q.free_vars, tuple(atoms), q.name)
    identity = Hom({v: v for v in q.variables}, q, result)
    return ChaseResult(result, identity, not pending)


# --- containment and evaluation under constraints -----------------------------


def contains_under(
    q: ConjunctiveQuery, q2: ConjunctiveQuery, deps, max_depth: int = 16
):
    """q ⊆ q2 over databases satisfying the dependencies.

    Chases q and looks for a homomorphism from q2 into the result
    (anchored at the chased head). Returns True or False on a complete
    chase; on a depth-capped tgd chase a hom into the prefix still
    proves containment (the prefix embeds in the full chase), but its
    absence proves nothing, reported as None.
    """
    egds, tgds = _split(deps, q)
    if egds and tgds:
        raise DependencyError("dependency set must be all egds or all tgds")
    if egds:
        res = chase_egds(q, deps)
        anchor = res.hom_to_result.tuple_image(q.free_vars)
        return find_hom(q2, q2.free_vars, res.query, anchor) is not None
    if not tgds:
        return find_hom(q2, q2.free_vars, q, q.free_vars) is not None
    res = chase_tgds(q, deps, max_depth)
    hit = find_hom(q2, q2.free_vars, res.query, q.free_vars) is not None
    if res.complete:
        return hit
    return True if hit else None


def eval_overapprox_under(
    q: ConjunctiveQuery,
    deps,
    db: Database,
    a: tuple,
    k: int,
    max_depth: int = 16,
) -> bool:
    """ā in the evaluation of the width-k overapproximation of q under
    the dependencies (which the database must satisfy).

    Egds: cover game from the chased query, anchored at the chased head.
    Guarded tgds: the game runs on q directly, no chase needed. Other
    tgds: the game runs on the chase prefix; when capped, False is still
    definitive (the full chase can only shrink Duplicator's options) and
    True may overshoot, flagged by ChaseDepthWarning.
    """
    egds, tgds = _split(deps, q)
    if egds and tgds:
        raise DependencyError("dependency set must be all egds or all tgds")
    if not satisfies(db, deps):
        raise CqError("the database does not satisfy the dependencies")
    if egds:
        res = chase_egds(q, deps)
        anchor = res.hom_to_result.tuple_image(q.free_vars)
        return wins_cover_game(res.query, anchor, db, a, k)[0]
    if not tgds or all(d.guarded for d in tgds):
        return wins_cover_game(q, q.free_vars, db, a, k)[0]
    res = chase_tgds(q, deps, max_depth)
    if not res.complete:
        warnings.warn(
            f"tgd chase capped after {max_depth} rounds; verdict computed "
            "on the prefix (False is definitive, True may overapproximate)",
            ChaseDepthWarning,
            stacklevel=2,
        )
    return wins_cover_game(res.query, q.free_vars, db, a, k)[0]
