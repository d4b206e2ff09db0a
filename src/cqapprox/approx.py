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
    _fresh,
    connected_components,
    disjoint_conjunction,
    gaifman,
)
from cqapprox.hom import (
    Hom,
    _full_reducer,
    contains,
    core,
    endomorphisms,
    evaluate,
)
from cqapprox.pebble import (
    UnrollBudgetWarning,
    WinningFamily,
    _Game,
    _Tree,
    constrained_wins_1,
    wins_cover_game,
)
from cqapprox.width import (
    TreeDecomposition,
    _ghw,
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


def _established_in_class(cand: ConjunctiveQuery, k: int, cert) -> TreeDecomposition | bool:
    """Decide cand ∈ GHW(k), or raise when that cannot be settled.

    Returns the decomposition that settled it, `ghw1_membership`'s join
    tree or the validated `cert`; True when the exact-width search of a
    cyclic candidate settled it, which yields no decomposition; False
    when cand is not in GHW(k). A supplied decomposition that does not
    validate proves nothing, which is reported as the precondition being
    unknown rather than false. k < 1 is an input error, raised before any
    membership test, as `k_unions` raises it.
    """
    if k < 1:
        raise CqError(f"k must be at least 1, got {k}")
    if cert is not None:
        if validate_decomposition(cand, cert, k):
            return cert
        raise PreconditionUnknownError(
            "the supplied decomposition does not validate at width "
            f"{k}; candidate membership is unverified"
        )
    td = ghw1_membership(cand)
    if td is not None:
        return td
    try:
        return _ghw(cand, k, None) is not None
    except BudgetError as err:
        raise PreconditionUnknownError(
            f"cannot verify membership in GHW({k}): {err}"
        ) from err


def _maps_into(src: ConjunctiveQuery, tgt, tgt_tuple, k: int, member) -> bool:
    """Is there a homomorphism from src, its head sent to tgt_tuple, into
    tgt? src is in GHW(k) and `member` is what `_established_in_class`
    settled that with: a decomposition, along which `_full_reducer`
    answers in one semijoin pass, or True, and then the k-cover game
    answers. For a source in GHW(k) the game wins exactly when a
    homomorphism exists (Chen & Dalmau 2005)."""
    if member is True:
        return wins_cover_game(src, src.free_vars, tgt, tgt_tuple, k)[0]
    return _full_reducer(src, src.free_vars, tgt, tgt_tuple, member)


def identify_overapprox(
    q: ConjunctiveQuery, cand: ConjunctiveQuery, k: int, cert=None
) -> bool:
    """Is cand the GHW(k)-overapproximation of q?

    True iff cand lies in GHW(k) and the cover game succeeds both ways
    (cand into q and q into cand). A candidate that provably falls
    outside GHW(k) yields False; when membership cannot be settled
    within the size guard, PreconditionUnknownError is raised.

    The forward direction, a homomorphism cand → q, is decided as
    `_maps_into` says: by `_full_reducer` along the decomposition that
    settled membership, and only for a cyclic candidate settled by the
    exact-width search, which yields none, by the forward game.

    Membership is read literally, on cand as written: a candidate that
    is only equivalent to a GHW(k) query (a cyclic query with an acyclic
    core, say) yields False; pass core(cand) to ask up to equivalence.
    identify_delta and eval_delta_filtered read their candidate the same
    way.
    """
    member = _established_in_class(cand, k, cert)
    if not member:
        return False
    if not _maps_into(cand, q, q.free_vars, k, member):
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
    if cert is None and k == 1:
        decomposition = ghw1_membership(cand)
        if decomposition is None:
            return None
    elif cert is None and k > 1:
        raise PreconditionUnknownError(
            "certificates at width > 1 need a supplied decomposition"
        )
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
    asserts non-existence. q_c is q_{c-1} plus a level, so one tree
    grows a level per depth.

    The q_c tried here is the overlap-pruned unrolling: a node's child
    for a union is built only when the union's unanchored part meets the
    node's and is not contained in it (`pebble._Tree`). It is
    homomorphically equivalent to the complete tree that `unroll` builds,
    so the verdict is the same and the witness is the same core up to
    the names of its variables. `budget` caps the atoms the complete q_c
    would emit (`_Tree.size`, as `unroll_size` reports it), so the pruned
    search stops where the complete one did and never runs longer.

    Only part of q_c is retracted: the image S of a closed choice of
    members of the won game (`_Game.image`). S is a set of q_c's atoms
    that q's game wins into, so Duplicator wins every c rounds into S and
    q_c → S (unrolling characterisation); S ⊆ q_c gives S → q_c. So
    S ≡ q_c and core(S) ≅ core(q_c), and no game into S is played.

    The witness is named after q (`_named_after`): the copy of a
    variable nearest the tree's root keeps the variable itself, later
    copies are called `<name>_<i>`.
    """
    if cmax < 1:
        raise CqError(f"cmax must be at least 1, got {cmax}")
    tree = _Tree(q, k, pruned=True)
    for c in range(1, cmax + 1):
        if budget is not None and (size := tree.size(c)) > budget:
            warnings.warn(
                f"stopping at depth {c}: unrolling would emit "
                f"{size} atoms (budget {budget})",
                UnrollBudgetWarning,
                stacklevel=2,
            )
            return None
        tree.grow()
        qc = tree.query()
        game = _Game(q, q.free_vars, qc, qc.free_vars, k)
        if game.run():
            image = ConjunctiveQuery(qc.free_vars, tuple(game.image()), qc.name)
            return _named_after(q, core(image), tree.origin)
    return None


def _named_after(
    q: ConjunctiveQuery, witness: ConjunctiveQuery, origin: dict[Term, Term]
) -> ConjunctiveQuery:
    """witness with each copy renamed after the variable of q it copies.

    `origin` maps every copy, in the tree's breadth-first order, to its
    variable. A variable's first copy in the witness becomes the variable
    itself, each later one `<name>_<i>` with the least i whose name
    neither q nor an earlier copy holds. Free variables are no copies and
    keep their names. An atom equal to one of q's is q's own object, and
    a witness equal to q is q itself."""
    used = {v.name for v in q.variables}
    present = witness.variables
    rename: dict[Term, Term] = {}
    kept: set[Term] = set()  # the variables whose first copy is renamed back
    for copy, d in origin.items():
        if copy not in present:
            continue
        if d not in kept:
            kept.add(d)
            rename[copy] = d
        else:  # of len(used) + 1 names, one is free
            rename[copy] = Var(_fresh((f"{d.name}_{i}" for i in range(1, len(used) + 2)), used))
    own = dict(zip(q.atoms, q.atoms))
    atoms = [Atom(a.relation, tuple(rename.get(t, t) for t in a.args)) for a in witness.atoms]
    named = ConjunctiveQuery(witness.free_vars, tuple(own.get(a, a) for a in atoms), witness.name)
    return q if named == q else named


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
        for z in sorted(q.variables):  # of len(used) + 1 names, one is free
            names = (f"{z.name}_{side.name}" + "_" * i for i in range(len(used) + 1))
            out[z] = Var(_fresh(names, used))
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
    game relation composes. One pass suffices: dropping a component only
    shrinks the others' targets, so a component that stayed stays."""
    reps = list(comps)
    i = 0
    while i < len(reps):
        rest = reps[:i] + reps[i + 1 :]
        if any(wins_cover_game(reps[i], (), other, (), 1)[0] for other in rest):
            reps = rest
        else:
            i += 1
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
    and neither query contains the other. Whether q ⊆ cand, a
    homomorphism cand → q, is decided as `_maps_into` says.
    """
    member = _established_in_class(cand, k, cert)
    if not member:
        return False
    if not wins_cover_game(q, q.free_vars, cand, cand.free_vars, k)[0]:
        return False
    return not _maps_into(cand, q, q.free_vars, k, member) and not contains(cand, q)


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
    adds nothing beyond an over- or under-approximation). The
    homomorphisms out of q_inc, into q for q ⊆ q_inc and into (D, ā), are
    decided as `_maps_into` says."""
    member = _established_in_class(q_inc, k, cert)
    if not member:
        raise CqError(f"filter query is not in GHW({k})")
    if _maps_into(q_inc, q, q.free_vars, k, member) or contains(q_inc, q):
        warnings.warn(
            "filter query is comparable with the base query",
            ComparabilityWarning,
            stacklevel=2,
        )
    if not wins_cover_game(q, q.free_vars, db, a, k)[0]:
        return False
    return _maps_into(q_inc, db, a, k, member)


def symmetric_difference_eval(
    q: ConjunctiveQuery, q2: ConjunctiveQuery, db: Database
) -> set:
    """Symmetric difference of the two result sets over db."""
    if len(q.free_vars) != len(q2.free_vars):
        raise CqError(
            f"head arities differ: {len(q.free_vars)} vs {len(q2.free_vars)}"
        )
    return set(evaluate(q, db)) ^ set(evaluate(q2, db))
