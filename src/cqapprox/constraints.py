"""Dependencies (tgds and egds), the chase, and reasoning under them.

The chase rewrites a query until it satisfies the dependencies: egds
identify variables (finite, unique result, with the witnessing
homomorphism h onto the result), tgds add atoms with fresh nulls in
fair breadth-first rounds up to a depth cap. One generator, `_triggers`,
serves satisfies, each egd step and each tgd round: over one indexed
`hom._Target` per instance, `_Target.join` lists each body's images of
the equated or frontier variables and each tgd head's. Containment and
overapproximation evaluation under constraints reduce to homomorphism
and cover-game checks against the chased query, `_chase` picking the
chase; for guarded tgds and a satisfying database the game skips it.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

from cqapprox.hom import Hom, _Target, find_hom
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
    _fresh,
    _parse_atom,
    _Tokens,
    _UnionFind,
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
    """The active triggers of deps on the facts (an instance, or a list of
    atoms), dependency by dependency.

    An egd yields (egd, {y: h(y), z: h(z)}) once per such image of a body
    match h with h(y) ≠ h(z); a tgd yields (tgd, frontier map) once per
    frontier image of a body match that no head match has. Images come
    where body matches, in lexicographic order of the facts matched,
    first reach them.
    """
    if not deps:
        return
    target = _Target(facts)
    for dep in deps:
        egd = isinstance(dep, Egd)
        names = dep.eq if egd else tuple(sorted(dep.frontier))
        if not egd:
            kept = set(target.join(dep.head, {}, names))
        for key in target.join(dep.body, {}, names):
            if key[0] != key[1] if egd else key not in kept:
                yield dep, dict(zip(names, map(target.values.__getitem__, key)))


def satisfies(inst, deps) -> bool:
    """Does the database (or CQ read as an instance) satisfy every dependency?

    Exhaustive: every tgd trigger must extend to a head witness, every
    egd trigger must already equate its two variables.
    """
    deps = tuple(deps)
    _split(deps, inst)
    return next(_triggers(inst, deps), None) is None


# --- the chase -----------------------------------------------------------------


def chase_egds(q: ConjunctiveQuery, deps) -> ChaseResult:
    """Chase q with egds to the (finite, unique) fixpoint.

    Variables are identified in place, the smaller term in canonical
    order becoming the representative; free variables are terms like any
    other, so two free positions may merge. Each round merges every
    trigger found on the round's atoms; the fixpoint, and so the result,
    is the same in any order. Returns the result and the surjective
    homomorphism h with h(q) = result.
    """
    egds, tgds = _split(deps, q)
    if tgds:
        raise DependencyError("chase_egds accepts equality-generating dependencies only")
    mapping: dict[Term, Term] = {v: v for v in q.variables}
    atoms = list(q.atoms)

    while pending := list(_triggers(atoms, egds)):
        sets = _UnionFind()
        for dep, h in pending:
            keep, drop = sorted((sets.find(h[dep.eq[0]]), sets.find(h[dep.eq[1]])))
            sets.union(drop, keep)
        atoms = list(dict.fromkeys(Atom(a.relation, tuple(map(sets.find, a.args))) for a in atoms))
        mapping = {src: sets.find(tgt) for src, tgt in mapping.items()}

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
    nulls = (f"_n{n}" for n in itertools.count())
    rounds = 0
    while (pending := list(_triggers(atoms, tgds))) and rounds < max_depth:
        for dep, fmap in pending:
            ext = dict(fmap)
            for zvar in sorted(dep.head_vars - dep.frontier):
                ext[zvar] = Var(_fresh(nulls, used_names))
            for a in dep.head:
                na = Atom(a.relation, tuple(ext[t] for t in a.args))
                if na not in atom_set:
                    atom_set.add(na)
                    atoms.append(na)
        rounds += 1

    result = ConjunctiveQuery(q.free_vars, tuple(atoms), q.name)
    identity = Hom({v: v for v in q.variables}, q, result)
    return ChaseResult(result, identity, not pending)


def _kinds(q, deps, max_depth: int):
    """The egds and the tgds of deps, checked as a chase of q reads them:
    DependencyError for a mixed set, CqError for a negative max_depth."""
    if max_depth < 0:
        raise CqError(f"max_depth must be nonnegative, got {max_depth}")
    egds, tgds = _split(deps, q)
    if egds and tgds:
        raise DependencyError("dependency set must be all egds or all tgds")
    return egds, tgds


def _chase(q: ConjunctiveQuery, deps, max_depth: int) -> ChaseResult:
    """The one choice of chase: the egd chase for egds only, the tgd
    chase for tgds only or none."""
    egds, _ = _kinds(q, deps, max_depth)
    return chase_egds(q, deps) if egds else chase_tgds(q, deps, max_depth)


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
    res = _chase(q, deps, max_depth)
    anchor = res.hom_to_result.tuple_image(q.free_vars)
    hit = find_hom(q2, q2.free_vars, res.query, anchor) is not None
    return hit if res.complete or hit else None


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
    egds, tgds = _kinds(q, deps, max_depth)
    if not satisfies(db, deps):
        raise CqError("the database does not satisfy the dependencies")
    if not egds and all(d.guarded for d in tgds):
        return wins_cover_game(q, q.free_vars, db, a, k)[0]
    res = _chase(q, deps, max_depth)
    if not res.complete:
        warnings.warn(
            f"tgd chase capped after {max_depth} rounds; verdict computed "
            "on the prefix (False is definitive, True may overapproximate)",
            ChaseDepthWarning,
            stacklevel=2,
        )
    anchor = res.hom_to_result.tuple_image(q.free_vars)
    return wins_cover_game(res.query, anchor, db, a, k)[0]
