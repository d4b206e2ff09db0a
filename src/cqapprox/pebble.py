"""Existential k-cover game engine.

The compact game: Spoiler pebbles a k-union of the source (a set of
elements covered by at most k atoms), Duplicator answers with a partial
homomorphism into the target that extends the fixed anchor mapping and
agrees with her previous answer on the overlap. wins_cover_game solves
the unbounded game as a greatest fixpoint; wins_bounded iterates levels
for the c-round variant; unroll builds the finite CQ q_c whose
homomorphisms into D are exactly the c-round Duplicator wins.
exists_overapprox cuts q_c from a smaller, overlap-pruned tree that is
homomorphically equivalent (`_Tree`).

All three solvers, constrained_wins_1 included, run one loop,
`_Game.run`, over one state. Answers are id tuples over the target's
`hom._Target` index, and a union's answers come from `_Target.join`,
the one enumerator of all homomorphisms, through indexes every union
shares. Unions are linked only when they
share an unanchored variable (the overlap graph); any other pair only
asks for a non-empty partner. Each barrier round after the first
re-checks a union only against neighbours that lost answers in the
round before (the frontier), which keeps every round equal to one level
of the bounded game.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from operator import itemgetter

from cqapprox.model import Atom, ConjunctiveQuery, CqError, Term, Var
from cqapprox.model import check_schemas_agree
from cqapprox.hom import _anchor_map, _atoms_of, _Target
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


def _node_atoms(atoms, unions, anchors) -> list[list[Atom]]:
    """Per k-union, the atoms inside it plus the anchors: those that a
    Duplicator answer on the union must respect."""
    # frozensets keep their elements' hashes, so `<=` rehashes no Term
    free = [(a, frozenset(a.args).difference(anchors)) for a in atoms]
    return [[a for a, need in free if need <= u.vars] for u in unions]


class _Game:
    """Shared state of the three game solvers, all driven by `run()`.

    `target` is the target's `hom._Target`, whose ids follow canonical
    `Term` order; an anchor value outside it gets id -1, which no fact
    holds. `members[i]` holds union i's surviving partial homs as sorted id
    tuples aligned with its sorted variable list `vlists[i]` (anchors
    included, the same in every member); since id order is `Term` order,
    `family()` decodes them into exactly the dicts, in exactly the
    order, that a solver over `Term` values would keep.

    `pairs[i]` is union i's row in the overlap graph: one `(j, pi, pj)`
    per union j sharing an unanchored variable with i, `pi` and `pj`
    giving the shared variables' positions in each union. A union j
    sharing no such variable only has to be non-empty, which `run()`
    checks with `all_nonempty()` before each round.
    """

    def __init__(self, src, src_tuple, tgt, tgt_tuple, k):
        check_schemas_agree(src, tgt)
        self.base = _anchor_map(src_tuple, tgt_tuple)
        self.anchors_ok = False
        self.unions: list[KUnion] = []
        if self.base is None:
            return
        self.target = target = _Target(_atoms_of(tgt))
        self.bid = {s: target.eid.get(t, -1) for s, t in self.base.items()}
        src_atoms = _atoms_of(src)
        slot = {t: s for s, t in enumerate(self.bid)}
        held = [a for a in src_atoms if all(t in slot for t in a.args)]
        self.anchors_ok = not held or next(
            target.join(held, slot, list(self.bid.values())), None
        ) is not None
        if not self.anchors_ok:
            return
        self.unions = k_unions(src, k)
        self.vlists = [sorted(u.vars) for u in self.unions]
        self.members = [
            self._enumerate(u, vlist, contained)
            for u, vlist, contained in zip(
                self.unions, self.vlists, _node_atoms(src_atoms, self.unions, self.bid)
            )
        ]

        by_var: dict[Term, list[int]] = {}
        for i, vlist in enumerate(self.vlists):
            for v in vlist:
                if v not in self.bid:
                    by_var.setdefault(v, []).append(i)
        pos = [{v: p for p, v in enumerate(vlist)} for vlist in self.vlists]
        self.pairs: list[list[tuple[int, tuple, tuple]]] = []
        for i, vlist in enumerate(self.vlists):
            row = []
            for j in sorted({j for v in vlist for j in by_var.get(v, ())} - {i}):
                shared = [v for v in vlist if v in pos[j] and v not in self.bid]
                row.append(
                    (j, tuple(pos[i][v] for v in shared), tuple(pos[j][v] for v in shared))
                )
            self.pairs.append(row)
        # unions that lost members in the last round; every union at first
        self.lost = set(range(len(self.unions)))
        self.rechecked: list[int] = []  # per round, the unions it re-checked

    def _enumerate(self, u: KUnion, vlist, contained) -> list[tuple]:
        """All valid partial homs on u.vars ∪ anchors, as sorted id tuples:
        the join of the witness atoms (which cover every union variable)
        and the other contained atoms. With anchors, atoms go bound-first
        (most bound positions, anchors counted, ties in witness order);
        without, reordering costs more than it saves on small games."""
        slot = {v: p for p, v in enumerate(vlist)}
        for a in contained:
            for t in a.args:
                slot.setdefault(t, len(slot))  # anchors outside the union
        atoms = list(u.witness) + [a for a in contained if a not in u.witness]
        bound = set(self.bid)
        if bound and any(t in bound for a in atoms for t in a.args):
            rest, atoms = atoms, []
            while rest:
                a = max(rest, key=lambda b: sum(t in bound for t in b.args))
                rest.remove(a)
                atoms.append(a)
                bound.update(a.args)
        sols = self.target.join(atoms, slot, [self.bid.get(t) for t in slot])
        n = len(vlist)
        return sorted({m[:n] for m in sols})

    def sweep(self) -> bool:
        """One barrier round: drop members lacking a compatible partner in
        some neighbouring union, judged against the pre-round state. True
        if anything was deleted.

        The first round checks every pair of `pairs`. A later round checks
        union i only against the neighbours in `lost`, those that lost
        members in the round before: a member of L_t[i] had partners in
        L_{t-1}[j], so it still has them if L_t[j] = L_{t-1}[j]. The round
        therefore equals an all-pairs round, and one round is still one
        level of the bounded game.
        """
        lost, members = self.lost, self.members
        sigs: dict[tuple, set] = {}
        self.lost = set()
        self.members = list(members)
        rechecked = 0
        for i, row in enumerate(self.pairs):
            checks = [(j, pi, pj) for j, pi, pj in row if j in lost]
            if not checks:
                continue
            rechecked += 1
            keep = members[i]
            for j, pi, pj in checks:
                if (j, pj) not in sigs:
                    sigs[j, pj] = set(map(itemgetter(*pj), members[j]))
                get, sig = itemgetter(*pi), sigs[j, pj]
                keep = [m for m in keep if get(m) in sig]
            if len(keep) != len(members[i]):
                self.members[i] = keep
                self.lost.add(i)
        self.rechecked.append(rechecked)
        return bool(self.lost)

    def all_nonempty(self) -> bool:
        return all(self.members)

    def run(self, rounds: int | None = None) -> bool:
        """Sweep until nothing changes, some union is empty, or `rounds`
        rounds have run. True iff the anchors hold and every union keeps
        a member."""
        if not self.anchors_ok:
            return False
        for _ in itertools.count() if rounds is None else range(rounds):
            if not self.all_nonempty() or not self.sweep():
                break
        return self.all_nonempty()

    def family(self) -> WinningFamily:
        value = self.target.values.__getitem__
        decoded = [
            [dict(self.base) | dict(zip(vlist, map(value, m))) for m in ms]
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
    if game.run():
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
    return game.anchors_ok and (c == 0 or game.run(c - 1))


def constrained_wins_1(src: ConjunctiveQuery, X, tgt: ConjunctiveQuery, X2) -> bool:
    """1-cover game where any response mapping a member of X outside X2
    is forbidden. Both queries must be Boolean."""
    if not src.is_boolean or not tgt.is_boolean:
        raise CqError("the set-constrained game is defined for Boolean queries")
    game = _Game(src, (), tgt, (), 1)
    if game.anchors_ok:
        restricted = set(X)
        allowed = {game.target.eid[t] for t in X2 if t in game.target.eid}
        for i, vlist in enumerate(game.vlists):
            hot = [p for p, v in enumerate(vlist) if v in restricted]
            if hot:
                game.members[i] = [
                    m for m in game.members[i] if all(m[p] in allowed for p in hot)
                ]
    return game.run()


# --- Unrolling ----------------------------------------------------------------


def unroll_size(q: ConjunctiveQuery, k: int, c: int) -> int:
    """Number of atoms unroll will emit (before deduplication)."""
    unions = k_unions(q, k)
    n = len(unions)
    per_node = sum(map(len, _node_atoms(q.atoms, unions, q.free_vars)))
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
    with arguments inside the node label plus the free variables. Also
    returns the width-≤k decomposition the construction carries.

    Homomorphisms q_c → D correspond to c-round Duplicator wins for
    every c ≥ 1. Depth 0 yields the empty query (the root is labeled
    with the empty union), which only tests that the anchor tuple is a
    function; the 0-round game additionally checks atoms lying entirely
    inside the anchors, so the correspondence starts at c = 1.
    """
    tree = _Tree(q, k, pruned=False)
    if c < 0:
        raise CqError(f"depth must be nonnegative, got {c}")
    if budget is not None and (size := unroll_size(q, k, c)) > budget:
        warnings.warn(
            f"unrolling emits {size} atoms (budget {budget})",
            UnrollBudgetWarning,
            stacklevel=2,
        )
    return tree.build(c)


class _Tree:
    """The k-union tree that q_c cuts at depth c: its labels (the
    k-unions), the atoms a node of each label emits, and per label the
    labels of a node's children, computed once for every depth.

    The root has a child per union. In the full tree every node does. In
    the pruned tree a node labelled u has a child for u' only when the
    unanchored part of u' meets that of u and is not contained in it.

    Up to renaming, the pruned q_c is a subquery of the full one, and the
    full one maps onto it. Send a node to the image of its parent when
    the node's union lies inside the label of that image. Otherwise send
    it to that image's child of the same label when the two unions meet,
    and to the root's child of the same label when they do not. An
    image's label always contains the node's, so the atoms of a node and
    the variables it shares with its parent are kept. The two are
    therefore homomorphically equivalent: the same cover-game verdicts,
    the same homomorphisms into any database, isomorphic cores.
    """

    def __init__(self, q: ConjunctiveQuery, k: int, pruned: bool):
        self.q, self.k = q, k
        unions = k_unions(q, k)
        self.anchors = anchors = set(q.free_vars)
        self.contained = _node_atoms(q.atoms, unions, anchors)
        self.vlists = [sorted(u.vars) for u in unions]
        every = range(len(unions))
        if pruned:
            own = [u.vars - anchors for u in unions]
            self.children = [
                [j for j in every if not own[j].isdisjoint(mine) and not own[j] <= mine]
                for mine in own
            ]
        else:
            self.children = [every] * len(unions)

    def build(self, c: int) -> tuple[ConjunctiveQuery, TreeDecomposition]:
        """q_c and the decomposition it carries, nodes numbered and
        variables renamed in breadth-first order. `origin` then maps each
        copy, in that order, to the variable of q it copies."""
        anchors = self.anchors
        used = {v.name for v in anchors}
        counter = itertools.count(1)
        self.origin = origin = {}

        def fresh(d: Term) -> Term:
            while True:
                cand = f"{d.name}_u{next(counter)}"
                if cand not in used:
                    used.add(cand)
                    copy = Var(cand)
                    origin[copy] = d
                    return copy

        parent: dict[int, int | None] = {0: None}
        label: dict[int, int | None] = {0: None}  # index into unions
        phi: dict[int, dict[Term, Term]] = {0: {}}
        frontier = [0]
        for _depth in range(c):
            next_frontier = []
            for t in frontier:
                up = phi[t]
                kids = range(len(self.vlists)) if t == 0 else self.children[label[t]]
                for ui in kids:
                    node = len(parent)
                    parent[node] = t
                    label[node] = ui
                    mapping = {}
                    for d in self.vlists[ui]:
                        if d in anchors:
                            mapping[d] = d
                        elif d in up:
                            mapping[d] = up[d]  # same occurrence as the parent
                        else:
                            mapping[d] = fresh(d)
                    phi[node] = mapping
                    next_frontier.append(node)
            frontier = next_frontier

        atoms = []
        for node, ui in label.items():
            if ui is None:
                continue
            mapping = phi[node]
            for a in self.contained[ui]:
                atoms.append(Atom(a.relation, tuple(mapping.get(d, d) for d in a.args)))

        qc = ConjunctiveQuery(self.q.free_vars, tuple(atoms), self.q.name)
        bags = {
            node: frozenset(mapping.values()) - anchors
            for node, mapping in phi.items()
        }
        return qc, TreeDecomposition(parent, bags, self.k)
