"""Overapproximation and Δ-approximation logic.

The three decision layers: identify a candidate as the width-k
overapproximation (two cover games), evaluate the overapproximation
directly on a database (one cover game), and semi-decide existence by
unrolling. For Boolean queries over binary schemas the greedy
deletion algorithm both decides existence at width 1 and constructs
the overapproximation.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

from cqapprox.model import (
    Atom,
    BudgetError,
    ConjunctiveQuery,
    CqError,
    Database,
    PreconditionUnknownError,
    Term,
    Var,
    connected_components,
    disjoint_conjunction,
    gaifman,
)
from cqapprox.hom import (
    Hom,
    _split_components,
    contains,
    core,
    endomorphisms,
    evaluate,
    find_hom,
)
from cqapprox.pebble import (
    UnrollBudgetWarning,
    WinningFamily,
    _Tree,
    constrained_wins_1,
    unroll_size,
    wins_cover_game,
)
from cqapprox.width import (
    TreeDecomposition,
    compute_ghw,
    ghw1_membership,
    validate_decomposition,
)


class ComparabilityWarning(UserWarning):
    """The filter query turned out to be comparable with the base query."""


@dataclass
class OverapproxCertificate:
    """Evidence that `query` is a width-k overapproximation candidate:
    a validating decomposition plus the two game families (candidate
    into the base query and back)."""

    query: ConjunctiveQuery
    k: int
    decomposition: TreeDecomposition
    forward_family: WinningFamily
    backward_family: WinningFamily


@dataclass
class HashQuery:
    """The pasted query q_u # q_v: both one-sided halves of `base`
    renamed apart, joined by bridge atoms over the renamed endpoints."""

    base: ConjunctiveQuery
    u: Term
    v: Term
    result: ConjunctiveQuery
    u_image: Term
    v_image: Term
    hom_to_base: Hom


def _established_in_class(cand: ConjunctiveQuery, k: int, cert) -> bool:
    """Decide cand ∈ GHW(k), or raise when that cannot be settled.

    A supplied decomposition settles it positively when it validates; a
    non-validating one proves nothing, which is reported as the
    precondition being unknown rather than false.
    """
    if cert is not None:
        if validate_decomposition(cand, cert, k):
            return True
        raise PreconditionUnknownError(
            "the supplied decomposition does not validate at width "
            f"{k}; candidate membership is unverified"
        )
    if k == 1:
        return ghw1_membership(cand) is not None
    try:
        return compute_ghw(cand, k) is not None
    except BudgetError as err:
        raise PreconditionUnknownError(
            f"cannot verify membership in GHW({k}): {err}"
        ) from err


def identify_overapprox(
    q: ConjunctiveQuery, cand: ConjunctiveQuery, k: int, cert=None
) -> bool:
    """Is cand the GHW(k)-overapproximation of q?

    True iff cand lies in GHW(k) and the cover game succeeds both ways
    (cand into q and q into cand). A candidate that provably falls
    outside GHW(k) yields False; when membership cannot be settled
    within the size guard, PreconditionUnknownError is raised.

    Membership is read literally, on cand as written: a candidate that
    is only equivalent to a GHW(k) query (a cyclic query with an acyclic
    core, say) yields False; pass core(cand) to ask up to equivalence.
    identify_delta and eval_delta_filtered read their candidate the same
    way.
    """
    if not _established_in_class(cand, k, cert):
        return False
    forward = wins_cover_game(cand, cand.free_vars, q, q.free_vars, k)[0]
    if not forward:
        return False
    return wins_cover_game(q, q.free_vars, cand, cand.free_vars, k)[0]


def certify_overapprox(
    q: ConjunctiveQuery, cand: ConjunctiveQuery, k: int, cert=None
) -> OverapproxCertificate | None:
    """identify_overapprox with evidence: None on a negative answer.

    The certificate carries a validating decomposition, so for k > 1 one
    must be supplied; width-1 decompositions are reconstructed here.
    """
    decomposition = cert
    if decomposition is None:
        if k != 1:
            raise PreconditionUnknownError(
                "certificates at width > 1 need a supplied decomposition"
            )
        decomposition = ghw1_membership(cand)
        if decomposition is None:
            return None
    elif not _established_in_class(cand, k, cert):
        return None
    forward_ok, forward = wins_cover_game(cand, cand.free_vars, q, q.free_vars, k)
    if not forward_ok:
        return None
    backward_ok, backward = wins_cover_game(q, q.free_vars, cand, cand.free_vars, k)
    if not backward_ok:
        return None
    return OverapproxCertificate(cand, k, decomposition, forward, backward)


def eval_overapprox(q: ConjunctiveQuery, db: Database, a: tuple, k: int) -> bool:
    """ā in the evaluation of the width-k overapproximation of q.

    This is exactly the cover game q into (D, ā); it is sound for the
    infinitary overapproximation even when no finite one exists.
    """
    return wins_cover_game(q, q.free_vars, db, a, k)[0]


def exists_overapprox(
    q: ConjunctiveQuery, k: int, cmax: int = 8, budget: int = 50_000
) -> ConjunctiveQuery | None:
    """Semi-decide existence of the GHW(k)-overapproximation.

    Tries depths c = 1..cmax: the overapproximation O exists iff the
    cover game from q into some unrolling q_c succeeds, and then O is
    core(q_c). Returns None when the budget or cmax runs out; None never
    asserts non-existence.

    The q_c tried here is the overlap-pruned unrolling: a node's child
    for a union is built only when the union's unanchored part meets the
    node's and is not contained in it (`pebble._Tree`). It is
    homomorphically equivalent to the complete tree that `unroll` builds,
    so the verdict is the same and the witness is the same core up to
    the names of its variables. `budget` caps the atoms the complete q_c
    would emit (`unroll_size`), so the pruned search stops where the
    complete one did and never runs longer than it.

    Only part of q_c is retracted (`_equivalent_part`): a union P of
    connected components of q_c, fully anchored atoms included, that q's
    game still wins into. P is equivalent to O. It lies in GHW(k), since
    widths count only existential variables and every bag of q_c, cut to
    P, is covered by the atoms of P that covered it. It contains q, since
    P ⊆ q_c and q_c maps onto q. And O maps into P, since the game into
    P is won. So core(P) ≅ core(q_c).

    The witness is named after q (`_named_after`): the copy of a
    variable nearest the tree's root keeps the variable itself, later
    copies are called `<name>_<i>`.
    """
    if cmax < 1:
        raise CqError(f"cmax must be at least 1, got {cmax}")
    tree = _Tree(q, k, pruned=True)
    for c in range(1, cmax + 1):
        if budget is not None and (size := unroll_size(q, k, c)) > budget:
            warnings.warn(
                f"stopping at depth {c}: unrolling would emit "
                f"{size} atoms (budget {budget})",
                UnrollBudgetWarning,
                stacklevel=2,
            )
            return None
        qc, _ = tree.build(c)
        won, family = wins_cover_game(q, q.free_vars, qc, qc.free_vars, k)
        if won:
            part = _equivalent_part(q, qc, family, k)
            return _named_after(q, core(part), tree.origin)
    return None


def _equivalent_part(
    q: ConjunctiveQuery, qc: ConjunctiveQuery, family: WinningFamily, k: int
) -> ConjunctiveQuery:
    """A union of q_c's connected components that q's k-cover game wins
    into, or q_c itself.

    The components are those of `_split_components` with the free
    variables fixed, and fully anchored atoms always stay. Going through
    the unions of q's winning family into q_c, a union with no answer
    inside the components picked so far adds the components of the answer
    that adds the fewest atoms. A part smaller than q_c is returned only
    if one more game confirms it, so the choice affects speed, never the
    result.
    """
    base = {v: v for v in q.free_vars}
    comps = [(atoms, order) for atoms, order, _ in _split_components(qc.atoms, base)]
    held = [atoms for atoms, order in comps if order]  # not fully anchored
    if len(held) < 2:
        return qc
    comp_of = {v: i for i, order in enumerate(o for _, o in comps if o) for v in order}
    picked: set[int] = set()
    for members in family.members:
        spans = dict.fromkeys(
            frozenset(comp_of[t] for t in m.values() if t in comp_of) for m in members
        )
        if not any(s <= picked for s in spans):
            picked |= min(spans, key=lambda s: sum(len(held[i]) for i in s - picked))
    if len(picked) == len(held):
        return qc
    kept = [a for atoms, order in comps if not order or comp_of[order[0]] in picked for a in atoms]
    part = ConjunctiveQuery(qc.free_vars, tuple(kept), qc.name)
    if wins_cover_game(q, q.free_vars, part, part.free_vars, k)[0]:
        return part
    return qc


def _named_after(
    q: ConjunctiveQuery, witness: ConjunctiveQuery, origin: dict[Term, Term]
) -> ConjunctiveQuery:
    """witness with each copy renamed after the variable of q it copies.

    `origin` maps every copy, in the tree's breadth-first order, to its
    variable. A variable's first copy in the witness becomes the variable
    itself, each later one `<name>_<i>` with the least i whose name
    neither q nor an earlier copy holds. Free variables are no copies and
    keep their names."""
    used = {v.name for v in q.variables}
    present = witness.variables
    count: dict[Term, int] = {}
    rename: dict[Term, Term] = {}
    for copy, d in origin.items():
        if copy not in present:
            continue
        if d not in count:
            count[d] = 0
            rename[copy] = d
            continue
        name = d.name
        while name in used:
            count[d] += 1
            name = f"{d.name}_{count[d]}"
        used.add(name)
        rename[copy] = Var(name)
    atoms = (Atom(a.relation, tuple(rename.get(t, t) for t in a.args)) for a in witness.atoms)
    return ConjunctiveQuery(witness.free_vars, tuple(atoms), witness.name)


# --- the greedy width-1 algorithm (Boolean, binary schema) --------------------


def hash_query(q: ConjunctiveQuery, u: Term, v: Term) -> HashQuery:
    """Paste the two one-sided halves of q at adjacent variables u, v.

    The u-half is q minus every atom mentioning v, renamed z -> z_u; the
    v-half symmetrically. Bridge atoms R(u_u, v_v) and R(v_v, u_u) are
    added exactly when R(u,v), respectively R(v,u), is an atom of q.
    Collapsing both halves back (z_u, z_v -> z) is a homomorphism onto q.
    """
    g = gaifman(q)
    if not g.adjacent(u, v):
        raise CqError(f"{u.name} and {v.name} are not adjacent")

    used: set[str] = set()

    def rename(side: Term) -> dict[Term, Term]:
        out = {}
        for z in sorted(q.variables):
            name = f"{z.name}_{side.name}"
            while name in used:
                name += "_"
            used.add(name)
            out[z] = Var(name)
        return out

    to_u, to_v = rename(u), rename(v)
    atoms: list[Atom] = []
    back: dict[Term, Term] = {}
    for a in q.atoms:
        if v not in a.args:
            atoms.append(Atom(a.relation, tuple(to_u[z] for z in a.args)))
            back.update({to_u[z]: z for z in a.args})
        if u not in a.args:
            atoms.append(Atom(a.relation, tuple(to_v[z] for z in a.args)))
            back.update({to_v[z]: z for z in a.args})
    u_u, v_v = to_u[u], to_v[v]
    for a in q.atoms:
        if len(a.args) > 2 and u in a.args and v in a.args:
            raise CqError(
                "atoms mentioning both endpoints must be binary, got "
                f"{a.relation}/{len(a.args)}"
            )
        if a.args == (u, v):
            atoms.append(Atom(a.relation, (u_u, v_v)))
        if a.args == (v, u):
            atoms.append(Atom(a.relation, (v_v, u_u)))
    back[u_u] = u
    back[v_v] = v
    result = ConjunctiveQuery((), tuple(atoms), q.name)
    hom = Hom(dict(back), result, q)
    return HashQuery(q, u, v, result, u_u, v_v, hom)


def swapping_endomorphism(q: ConjunctiveQuery):
    """The unique non-identity endomorphism of a Boolean connected
    acyclic core, or None. When present it swaps two adjacent variables
    (returned alongside the witness)."""
    if not q.is_boolean:
        raise CqError("swapping endomorphisms are defined for Boolean queries")
    if len(connected_components(q)) != 1:
        raise CqError("query must be connected")
    if ghw1_membership(q) is None:
        raise CqError("query must be acyclic")
    if core(q) != q:
        raise CqError("query must be a core")
    extra = [h for h in endomorphisms(q) if any(h.mapping[x] != x for x in h.mapping)]
    if not extra:
        return None
    if len(extra) > 1:
        raise CqError("more than one non-identity endomorphism; not a core")
    h = extra[0]
    g = gaifman(q)
    for x in sorted(h.mapping):
        y = h.mapping[x]
        if y != x and h.mapping[y] == x and g.adjacent(x, y):
            return h, x, y
    raise CqError("non-identity endomorphism does not swap adjacent variables")


def _minimal_cover_family(comps: list[ConjunctiveQuery]) -> list[ConjunctiveQuery]:
    """An inclusion-minimal subfamily s.t. every component plays into one
    of its members in the 1-cover game. Removal is sound because the
    game relation composes."""
    reps = list(comps)
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(reps):
            rest = reps[:i] + reps[i + 1 :]
            if any(wins_cover_game(p, (), other, (), 1)[0] for other in rest):
                del reps[i]
                changed = True
                break
    return reps


def _delete_until_acyclic(qi: ConjunctiveQuery, guard: frozenset) -> ConjunctiveQuery | None:
    """Delete atoms of qi, first one first, while the 1-cover game
    constrained to guard still plays qi into what is left; core(qi) once
    acyclic, None when no atom can go. An empty guard is the plain game.
    Atoms holding all of a non-empty guard stay."""
    while ghw1_membership(qi) is None:
        for e in qi.atoms:
            if guard and guard <= e.arg_set:
                continue
            smaller = qi.without_atom(e)
            if constrained_wins_1(qi, guard, smaller, guard):
                qi = smaller
                break
        else:
            return None
    return core(qi)


def _greedy_connected(p: ConjunctiveQuery) -> ConjunctiveQuery | None:
    """The two-step deletion search on one connected Boolean component:
    plain deletion, then deletion from each pasted q_u # q_v under its
    endpoint guard."""
    built = _delete_until_acyclic(p, frozenset())
    if built is not None:
        return built
    for u, v in sorted(gaifman(p).edges):
        hq = hash_query(p, u, v)
        if not wins_cover_game(p, (), hq.result, (), 1)[0]:
            continue
        built = _delete_until_acyclic(hq.result, frozenset((hq.u_image, hq.v_image)))
        if built is not None:
            return built
    return None


def greedy_ghw1_overapprox(q: ConjunctiveQuery) -> ConjunctiveQuery | None:
    """Decide and construct the GHW(1)-overapproximation of a Boolean CQ
    over a schema of maximum arity two. None means none exists (this is
    a decision, unlike exists_overapprox's None)."""
    if not q.is_boolean:
        raise CqError("the greedy construction handles Boolean queries only")
    if any(len(a.args) > 2 for a in q.atoms):
        raise CqError("the greedy construction requires maximum arity two")
    comps = connected_components(q)
    if not comps:
        return q
    reps = _minimal_cover_family(comps)
    parts = []
    for p in reps:
        built = _greedy_connected(p)
        if built is None:
            return None
        parts.append(built)
    return functools.reduce(disjoint_conjunction, parts)


# --- Δ-approximations -----------------------------------------------------


def identify_delta(
    q: ConjunctiveQuery, cand: ConjunctiveQuery, k: int, cert=None
) -> bool:
    """Is cand an incomparable GHW(k)-Δ-approximation of q?

    True iff cand lies in GHW(k), the cover game q into cand succeeds,
    and neither query contains the other.
    """
    if not _established_in_class(cand, k, cert):
        return False
    if not wins_cover_game(q, q.free_vars, cand, cand.free_vars, k)[0]:
        return False
    return not contains(q, cand) and not contains(cand, q)


def eval_delta_filtered(
    q: ConjunctiveQuery,
    q_inc: ConjunctiveQuery,
    db: Database,
    a: tuple,
    k: int,
    cert=None,
) -> bool:
    """ā in the evaluation of the filtered Δ-approximation q* ∧ q_inc:
    the cover game q into (D, ā), intersected with exact membership of ā
    in q_inc(D). Warns when q_inc is comparable with q (the filter then
    adds nothing beyond an over- or under-approximation)."""
    if not _established_in_class(q_inc, k, cert):
        raise CqError(f"filter query is not in GHW({k})")
    if contains(q, q_inc) or contains(q_inc, q):
        warnings.warn(
            "filter query is comparable with the base query",
            ComparabilityWarning,
            stacklevel=2,
        )
    if not wins_cover_game(q, q.free_vars, db, a, k)[0]:
        return False
    return find_hom(q_inc, q_inc.free_vars, db, a) is not None


def symmetric_difference_eval(
    q: ConjunctiveQuery, q2: ConjunctiveQuery, db: Database
) -> set:
    """Symmetric difference of the two result sets over db."""
    if len(q.free_vars) != len(q2.free_vars):
        raise CqError(
            f"head arities differ: {len(q.free_vars)} vs {len(q2.free_vars)}"
        )
    return set(evaluate(q, db)) ^ set(evaluate(q2, db))
