"""Existential k-cover game engine.

The compact game: Spoiler pebbles a k-union of the source (a set of
elements covered by at most k atoms), Duplicator answers with a partial
homomorphism into the target that extends the fixed anchor mapping and
agrees with her previous answer on the overlap. wins_cover_game solves
the unbounded game as a greatest fixpoint; wins_bounded iterates levels
for the c-round variant; unroll builds the finite CQ q_c whose
homomorphisms into D are exactly the c-round Duplicator wins.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

from cqapprox.model import Atom, ConjunctiveQuery, CqError, Term, Var
from cqapprox.model import check_schemas_agree
from cqapprox.hom import _anchor_map, _atoms_of
from cqapprox.width import TreeDecomposition


class UnrollBudgetWarning(UserWarning):
    """The unrolling emits more atoms than the configured budget."""


@dataclass(frozen=True)
class KUnion:
    """A set of source elements equal to the union of ≤ k atom argument
    sets, with one minimal witness."""

    vars: frozenset[Term]
    witness: tuple[Atom, ...]


@dataclass
class WinningFamily:
    """Surviving Duplicator strategy: per k-union, every partial hom
    (anchors included) that the greatest fixpoint kept."""

    anchors: dict[Term, Term]
    unions: list[KUnion]
    members: list[list[dict[Term, Term]]]


def k_unions(src, k: int) -> list[KUnion]:
    """All k-unions in canonical order, one minimal witness each."""
    if k < 1:
        raise CqError(f"k must be at least 1, got {k}")
    atoms = _atoms_of(src)
    found: dict[frozenset, tuple] = {}
    for p in range(1, k + 1):
        for combo in itertools.combinations(atoms, p):
            s = frozenset(t for a in combo for t in a.args)
            if s not in found:
                found[s] = combo
    ordered = sorted(found, key=lambda s: (len(s), sorted(s)))
    return [KUnion(s, found[s]) for s in ordered]


def _base_respects_atoms(base, src_atoms, tgt_set) -> bool:
    for a in src_atoms:
        if all(t in base for t in a.args):
            if Atom(a.relation, tuple(base[t] for t in a.args)) not in tgt_set:
                return False
    return True


class _Game:
    """Shared setup for the fixpoint and level solvers.

    Per k-union, members are stored as value tuples aligned with the
    union's sorted variable list; anchors are implicit (identical in
    every member).
    """

    def __init__(self, src, src_tuple, tgt, tgt_tuple, k):
        check_schemas_agree(src, tgt)
        self.base = _anchor_map(src_tuple, tgt_tuple)
        src_atoms = _atoms_of(src)
        self.tgt_set = set(_atoms_of(tgt))
        self.anchors_ok = self.base is not None and _base_respects_atoms(
            self.base, src_atoms, self.tgt_set
        )
        self.unions = k_unions(src, k) if self.anchors_ok else []
        if not self.anchors_ok:
            return

        self.tgt_index: dict[str, list[Atom]] = {}
        for f in sorted(self.tgt_set):
            self.tgt_index.setdefault(f.relation, []).append(f)

        base_dom = set(self.base)
        self.vlists = [sorted(u.vars) for u in self.unions]
        self.members: list[list[tuple]] = []
        for u, vlist in zip(self.unions, self.vlists):
            dom = u.vars | base_dom
            contained = [a for a in src_atoms if set(a.args) <= dom]
            self.members.append(
                self._enumerate(u, vlist, contained)
            )

        # overlap projections for every ordered union pair
        self.pairs: list[list[tuple[int, tuple, tuple]]] = []
        pos = [{v: p for p, v in enumerate(vl)} for vl in self.vlists]
        for i, u in enumerate(self.unions):
            row = []
            for j, u2 in enumerate(self.unions):
                if i == j:
                    continue
                shared = sorted(u.vars & u2.vars)
                row.append(
                    (
                        j,
                        tuple(pos[i][v] for v in shared),
                        tuple(pos[j][v] for v in shared),
                    )
                )
            self.pairs.append(row)

    def _enumerate(self, u: KUnion, vlist, contained) -> list[tuple]:
        """All valid partial homs on u.vars ∪ anchors, as value tuples.

        Assignments come from matching the witness atoms against the
        target index (the witness covers every union variable), then the
        remaining contained atoms are checked outright.
        """
        rest = [a for a in contained if a not in u.witness]
        sols: list[tuple] = []
        stack = [(0, dict(self.base))]
        while stack:
            wi, m = stack.pop()
            if wi == len(u.witness):
                if all(
                    Atom(a.relation, tuple(m[t] for t in a.args)) in self.tgt_set
                    for a in rest
                ):
                    sols.append(tuple(m[v] for v in vlist))
                continue
            a = u.witness[wi]
            for f in self.tgt_index.get(a.relation, ()):
                m2 = dict(m)
                ok = True
                for t, val in zip(a.args, f.args):
                    if m2.setdefault(t, val) != val:
                        ok = False
                        break
                if ok:
                    stack.append((wi + 1, m2))
        return sorted(set(sols))

    def sweep(self) -> bool:
        """One barrier round: drop members lacking a compatible partner in
        some union, judged against the pre-round state. True if anything
        was deleted."""
        sigs: dict[tuple, set] = {}

        def sig_set(j, proj):
            key = (j, proj)
            if key not in sigs:
                sigs[key] = {tuple(m[p] for p in proj) for m in self.members[j]}
            return sigs[key]

        new_members = []
        changed = False
        for i in range(len(self.unions)):
            keep = [
                m
                for m in self.members[i]
                if all(
                    tuple(m[p] for p in pi) in sig_set(j, pj)
                    for j, pi, pj in self.pairs[i]
                )
            ]
            if len(keep) != len(self.members[i]):
                changed = True
            new_members.append(keep)
        self.members = new_members
        return changed

    def all_nonempty(self) -> bool:
        return all(self.members)

    def family(self) -> WinningFamily:
        decoded = [
            [dict(self.base) | dict(zip(vlist, m)) for m in ms]
            for vlist, ms in zip(self.vlists, self.members)
        ]
        return WinningFamily(dict(self.base), list(self.unions), decoded)


def wins_cover_game(
    src, src_tuple, tgt, tgt_tuple, k: int
) -> tuple[bool, WinningFamily | None]:
    """Does the Duplicator win the unbounded existential k-cover game?

    Greatest fixpoint: start from all anchor-respecting partial homs per
    k-union and delete members that fail forth-closure until stable. A
    win needs every k-union set non-empty (with no k-unions at all, the
    anchor map alone must be a partial homomorphism).
    """
    game = _Game(src, src_tuple, tgt, tgt_tuple, k)
    if not game.anchors_ok:
        return False, None
    if not game.unions:
        return True, game.family()
    while game.all_nonempty():
        if not game.sweep():
            return True, game.family()
    return False, None


def wins_bounded(src, src_tuple, tgt, tgt_tuple, k: int, c: int) -> bool:
    """Duplicator survival for c rounds: level L_1 holds all valid partial
    homs, and L_{t+1} keeps members of L_t that extend to every k-union
    inside L_t. Win at c iff anchors are valid and (c = 0 or every
    k-union carries an L_c member)."""
    if c < 0:
        raise CqError(f"round count must be nonnegative, got {c}")
    game = _Game(src, src_tuple, tgt, tgt_tuple, k)
    if not game.anchors_ok:
        return False
    if c == 0 or not game.unions:
        return True
    for _ in range(c - 1):
        if not game.all_nonempty():
            return False
        if not game.sweep():
            break  # stabilized early: L_t = L_∞
    return game.all_nonempty()


def constrained_wins_1(src: ConjunctiveQuery, X, tgt: ConjunctiveQuery, X2) -> bool:
    """1-cover game where any response mapping a member of X outside X2
    is forbidden. Both queries must be Boolean."""
    if not src.is_boolean or not tgt.is_boolean:
        raise CqError("the set-constrained game is defined for Boolean queries")
    game = _Game(src, (), tgt, (), 1)
    if not game.anchors_ok:
        return False
    restricted, allowed = set(X), set(X2)
    for i, vlist in enumerate(game.vlists):
        hot = [p for p, v in enumerate(vlist) if v in restricted]
        if hot:
            game.members[i] = [
                m for m in game.members[i] if all(m[p] in allowed for p in hot)
            ]
    if not game.unions:
        return True
    while game.all_nonempty():
        if not game.sweep():
            return True
    return False


# --- Unrolling ----------------------------------------------------------------


def unroll_size(q: ConjunctiveQuery, k: int, c: int) -> int:
    """Number of atoms unroll will emit (before deduplication)."""
    unions = k_unions(q, k)
    n = len(unions)
    per_node = sum(
        sum(1 for a in q.atoms if set(a.args) <= u.vars) for u in unions
    )
    if n == 0 or c == 0:
        return 0
    levels = c if n == 1 else (n**c - 1) // (n - 1)
    return per_node * levels


def unroll(q: ConjunctiveQuery, k: int, c: int, budget: int = 50_000) -> ConjunctiveQuery:
    qc, _ = unroll_with_decomposition(q, k, c, budget)
    return qc


def unroll_with_decomposition(
    q: ConjunctiveQuery, k: int, c: int, budget: int = 50_000
) -> tuple[ConjunctiveQuery, TreeDecomposition]:
    """Build q_c: the complete k-union tree of depth c, bags renamed apart
    per occurrence (anchors exempt), one atom per (source atom, node)
    with arguments inside the node label. Also returns the width-≤k
    decomposition the construction carries.

    Homomorphisms q_c → D correspond to c-round Duplicator wins for
    every c ≥ 1. Depth 0 yields the empty query (the root is labeled
    with the empty union), which only tests that the anchor tuple is a
    function; the 0-round game additionally checks atoms lying entirely
    inside the anchors, so the correspondence starts at c = 1.
    """
    if k < 1:
        raise CqError(f"k must be at least 1, got {k}")
    if c < 0:
        raise CqError(f"depth must be nonnegative, got {c}")
    if budget is not None and unroll_size(q, k, c) > budget:
        warnings.warn(
            f"unrolling emits {unroll_size(q, k, c)} atoms "
            f"(budget {budget})",
            UnrollBudgetWarning,
            stacklevel=2,
        )
    unions = k_unions(q, k)
    contained = [[a for a in q.atoms if set(a.args) <= u.vars] for u in unions]
    anchors = set(q.free_vars)

    used = {v.name for v in anchors}
    counter = itertools.count(1)

    def fresh(name: str) -> Term:
        while True:
            cand = f"{name}_u{next(counter)}"
            if cand not in used:
                used.add(cand)
                return Var(cand)

    parent: dict[int, int | None] = {0: None}
    label: dict[int, int | None] = {0: None}  # index into unions
    phi: dict[int, dict[Term, Term]] = {0: {}}
    frontier = [0]
    for _depth in range(c):
        next_frontier = []
        for t in frontier:
            for ui, u in enumerate(unions):
                node = len(parent)
                parent[node] = t
                label[node] = ui
                mapping = {}
                up = phi[t]
                for d in sorted(u.vars):
                    if d in anchors:
                        mapping[d] = d
                    elif d in up:
                        mapping[d] = up[d]  # same occurrence as the parent
                    else:
                        mapping[d] = fresh(d.name)
                phi[node] = mapping
                next_frontier.append(node)
        frontier = next_frontier

    atoms = []
    for node, ui in label.items():
        if ui is None:
            continue
        mapping = phi[node]
        for a in contained[ui]:
            atoms.append(Atom(a.relation, tuple(mapping[d] for d in a.args)))

    qc = ConjunctiveQuery(q.free_vars, tuple(atoms), q.name)
    bags = {
        node: frozenset(mapping.values()) - anchors
        for node, mapping in phi.items()
    }
    td = TreeDecomposition(parent, bags, k)
    return qc, td
