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

All three solvers, constrained_wins_1 included, run one pass routine,
`_Game.sweep`, over one state. Answers are id tuples over the target's
`hom._Target` index, listed by `_Target.join` once per join shape.
Unions are linked only when they share an unanchored variable (the
overlap graph), and a union is re-checked only against neighbours that
lost answers since its last check. The unbounded games settle by
propagation, as AC-3 does: checks read the current answers, and a loss
queues the unions that read the loser. The bounded game passes in
barrier rounds, each read from its start and so one level.
"""

from __future__ import annotations

import itertools
import warnings
from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from cqapprox.model import Atom, ConjunctiveQuery, CqError, Term, Var
from cqapprox.model import _fresh, check_schemas_agree
from cqapprox.hom import _anchor_map, _atoms_of, _bound_first, _join_shape, _project, _Target
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

    def __getattr__(self, name):  # `_Game.family` leaves the members coded
        coded = self.__dict__.pop("_coded", None) if name == "members" else None
        if coded is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        base, values, vlists, members = coded
        self.members = [[dict(base) | dict(zip(vlist, map(values.__getitem__, m))) for m in ms]
                        for vlist, ms in zip(vlists, members)]
        return self.members


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
    `Term` order. The anchors are a binding, `base`, that every join
    takes: the fully anchored atoms are joined once, for `anchors_ok`,
    and each union's join binds the anchor values. `members[i]` holds
    union i's surviving partial homs as sorted id tuples aligned with its
    sorted unanchored variables `vlists[i]`; since id order is `Term`
    order, `family()` adds the anchors and decodes them into exactly the
    dicts, in exactly the order, that a solver over `Term` values would
    keep. Unions of one join shape share one members list, so no list is
    changed in place. `held` keeps the source's fully anchored atoms and
    `contained[i]` the other atoms inside union i, for `image()`.

    `pairs[i]` is union i's row in the overlap graph: one `(j, pi, pj)`
    per union j sharing an unanchored variable with i, `pi` and `pj`
    giving the shared variables' positions in each union. A union j
    sharing no such variable only has to be non-empty, which `run()`
    checks with `all_nonempty()` before each pass. `seen[i]` is the
    clock of union i's last check and `stamp[j]` the clock from which
    union j's members can be read: i is re-checked against j only while
    `stamp[j] > seen[i]`.
    """

    def __init__(self, src, src_tuple, tgt, tgt_tuple, k):
        check_schemas_agree(src, tgt)
        self.base = _anchor_map(src_tuple, tgt_tuple)
        self.anchors_ok = False
        self.unions: list[KUnion] = []
        if self.base is None:
            return
        self.target = target = _Target(tgt)
        self.held = held = []  # the fully anchored atoms
        loose = []
        for a in _atoms_of(src):
            (held if self.base.keys() >= {*a.args} else loose).append(a)
        self.anchors_ok = not held or next(target.join(held, self.base, ()), None) is not None
        if not self.anchors_ok:
            return
        self.unions = k_unions(src, k)
        self.vlists = [sorted(u.vars.difference(self.base)) for u in self.unions]
        self.contained = contained = _node_atoms(loose, self.unions, self.base)
        shapes: dict[tuple, tuple | list] = {}
        self.members = [
            self._enumerate(*union, shapes) for union in zip(self.unions, self.vlists, contained)
        ]

        # per unanchored variable, (union, position) in union order (a lone
        # union has no pair); a pair's two rows list shared variables in `at` order
        at: dict[Term, list[tuple[int, int]]] = {}
        for i, vlist in enumerate(self.vlists if len(self.vlists) > 1 else ()):
            for p, v in enumerate(vlist):
                at.setdefault(v, []).append((i, p))
        shared: list[dict[int, list]] = [{} for _ in self.unions]
        for occ in at.values():
            for (i, p), (j, q) in itertools.permutations(occ, 2):
                shared[i].setdefault(j, []).append((p, q))
        self.pairs = [[(j, *zip(*pq)) for j, pq in sorted(row.items())] for row in shared]
        self.clock, self.seen, self.stamp = 0, [-1] * len(shared), [0] * len(shared)
        self.rechecked: list[int] = []  # per pass, the unions it re-checked

    def _enumerate(self, u: KUnion, vlist, contained, shapes) -> list[tuple]:
        """All valid partial homs on u's unanchored variables, as sorted
        id tuples: the join, under the anchors, of the witness atoms
        (which cover every union variable) and the other contained atoms.
        With anchors, atoms go bound-first (most bound positions, anchors
        counted, ties in witness order); without, reordering costs more
        than it saves on small games.

        The answers depend only on the union's join shape
        (`hom._join_shape`): its contained atoms with terms numbered by
        first occurrence, the anchor values per number and the numbers
        kept. A shape is joined once; unions
        of it share the list, or a reordered copy made once per variable
        order."""
        shape, keep = _join_shape(contained, self.base, vlist)
        shape = (shape, tuple(sorted(keep)))
        if shape not in shapes:
            atoms = [a for a in contained if a in u.witness]
            atoms += [a for a in contained if a not in u.witness]
            if self.base and any(t in self.base for a in atoms for t in a.args):
                atoms = _bound_first(atoms, self.base)
            shapes[shape] = keep, sorted(self.target.join(atoms, self.base, vlist))
        first, answers = shapes[shape]
        if keep != first:  # the same answers, in another variable order
            if (shape, keep) not in shapes:
                at = {s: p for p, s in enumerate(first)}
                shapes[shape, keep] = sorted(_project(answers, [at[s] for s in keep]))
            return shapes[shape, keep]
        return answers

    def sweep(self, live: bool = False) -> bool:
        """One pass: re-check each union against the neighbours whose
        stamp is past its own last check, dropping members that lack a
        compatible partner there; a member had partners in an unchanged
        neighbour. A union cut at clock t is stamped t + 1: the unions
        checked at clock t or before read it uncut.

        Barrier (`live` False): one round, read from the members and
        stamps at its start, so one level of the bounded game. The clock
        ticks once, at the end; True if the round cut anything. Live:
        checks read the current state and the clock ticks after each
        check. A cut drops the union's cached signatures and queues the
        unions that read it (first in, first out, in union order at
        first). The pass ends at the greatest fixpoint or once a union is
        empty, and returns False: the game is settled.
        """
        pairs, seen, read, was = self.pairs, self.seen, self.members, self.stamp
        if not live:  # write to copies, read the round's start
            self.members, self.stamp = list(read), list(was)
        members, stamp = self.members, self.stamp
        queue = deque(itertools.compress(range(len(pairs)), pairs))
        clock, sigs, changed, rechecked = self.clock, {}, False, 0
        while queue:
            i = queue.popleft()
            row, since = pairs[i], seen[i]
            checks = [(j, pi, pj) for j, pi, pj in row if was[j] > since]
            if not checks:
                continue
            rechecked += 1
            seen[i] = clock
            keep = members[i]
            for j, pi, pj in checks:
                if (j, pj) not in sigs:
                    sigs[j, pj] = set(map(itemgetter(*pj), read[j]))
                get, sig = itemgetter(*pi), sigs[j, pj]
                keep = [m for m in keep if get(m) in sig]
            if len(keep) != len(members[i]):
                members[i], stamp[i], changed = keep, clock + 1, True
                if live:
                    if not keep:
                        break
                    for j, pi, _ in row:  # the unions that read i check it again
                        sigs.pop((i, pi), None)
                        queue.append(j)
            if live:
                clock += 1
        self.rechecked.append(rechecked)
        if live:
            self.clock = clock
            return False
        self.clock = clock + 1
        return changed

    def all_nonempty(self) -> bool:
        return all(self.members)

    def run(self, rounds: int | None = None) -> bool:
        """Settle the game, or play `rounds` barrier rounds of it: pass
        until nothing changes or some union is empty. True iff the
        anchors hold and every union keeps a member."""
        if not self.anchors_ok:
            return False
        for _ in itertools.count() if rounds is None else range(rounds):
            if not self.all_nonempty() or not self.sweep(live=rounds is None):
                break
        return self.all_nonempty()

    def family(self) -> WinningFamily:
        """The winning family, its members decoded on first read."""
        family = WinningFamily.__new__(WinningFamily)
        family.anchors, family.unions = dict(self.base), list(self.unions)
        family._coded = (self.base, self.target.values, self.vlists, self.members)
        return family

    def image(self) -> list[Atom]:
        """Target atoms that the won, settled game also wins into: the
        fully anchored atoms under the anchors, and the image of each
        union's contained atoms under each of its chosen members.

        Each union with no chosen member yet gets its first. Each chosen
        member then gets a partner in every union it overlaps (`pairs`):
        the first member there that agrees on the shared variables, unless
        a chosen one already does. A partner exists, as the family is a
        fixpoint. The chosen members are a winning family into the image:
        each maps its union's atoms into it and has a partner in every
        union it overlaps."""
        pairs, members, base, values = self.pairs, self.members, self.base, self.target.values
        atoms = [Atom(a.relation, tuple(map(base.__getitem__, a.args))) for a in self.held]
        chosen = bytearray(len(members))  # whether a union has a chosen member
        # agree[j][i]: the chosen members of j on the variables j shares with i;
        # firsts[j, i]: per such values, the first member of j that has them
        agree = [{i: set() for i, _, _ in row} for row in pairs]
        firsts: dict[tuple[int, int], dict] = {}
        todo: list[tuple[int, tuple]] = []

        def choose(j, m):
            h = base | dict(zip(self.vlists[j], map(values.__getitem__, m)))
            for a in self.contained[j]:
                atoms.append(Atom(a.relation, tuple(map(h.__getitem__, a.args))))
            chosen[j] = 1
            for i, pj, _ in pairs[j]:
                agree[j][i].add(itemgetter(*pj)(m))
            todo.append((j, m))

        for u, ms in enumerate(members):
            if not chosen[u]:
                choose(u, ms[0])
            while todo:
                i, m = todo.pop()
                for j, pi, pj in pairs[i]:
                    shared = itemgetter(*pi)(m)
                    if shared not in agree[j][i]:
                        if (j, i) not in firsts:
                            get = itemgetter(*pj)
                            firsts[j, i] = {get(p): p for p in reversed(members[j])}
                        choose(j, firsts[j, i][shared])
        return atoms


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
    return _Tree(q, k, pruned=False).size(c)


def unroll(q: ConjunctiveQuery, k: int, c: int, budget: int = 50_000) -> ConjunctiveQuery:
    return unroll_with_decomposition(q, k, c, budget)[0]


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
    size = tree.size(c)
    if budget is not None and size > budget:
        warnings.warn(
            f"unrolling emits {size} atoms (budget {budget})",
            UnrollBudgetWarning,
            stacklevel=2,
        )
    for _ in range(c):
        tree.grow()
    return tree.query(), TreeDecomposition(tree.parent, tree.bags, k)


class _Tree:
    """The k-union tree that q_c cuts at depth c, grown a level at a
    time: its labels (the k-unions), the atoms a node of each label
    emits, and per label the labels of a node's children, computed once
    for every depth.

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

    Nodes are numbered and variables copied in breadth-first order:
    `parent` and `bags` hold the decomposition grown so far, `atoms` what
    its nodes emit, `origin` each copy's variable of q. Only the deepest
    level, `frontier`, keeps its copies: (node, child labels, copies).
    """

    def __init__(self, q: ConjunctiveQuery, k: int, pruned: bool):
        self.q = q
        unions = k_unions(q, k)
        anchors = set(q.free_vars)
        self.contained = _node_atoms(q.atoms, unions, anchors)
        own = [u.vars - anchors for u in unions]  # anchors are not copied
        self.vlists = list(map(sorted, own))
        every = range(len(unions))
        if pruned:
            self.children = [
                [j for j in every if not own[j].isdisjoint(mine) and not own[j] <= mine]
                for mine in own
            ]
        else:
            self.children = [every] * len(unions)
        self.parent, self.bags, self.atoms, self.origin = {0: None}, {0: frozenset()}, [], {}
        self.frontier = [(0, every, {})]
        self.used, self.numbers = {v.name for v in anchors}, itertools.count(1)

    def size(self, c: int) -> int:
        """Atoms the complete q_c emits, before deduplication."""
        if c < 0:
            raise CqError(f"depth must be nonnegative, got {c}")
        n = len(self.vlists)  # a tree without unions emits nothing at any depth
        return sum(map(len, self.contained)) * (c if n < 2 else (n**c - 1) // (n - 1))

    def grow(self) -> None:
        """Add a level: a node per child of each frontier node, which
        names its fresh copies, emits its label's atoms and gets its
        bag."""
        parent, frontier = self.parent, []
        for t, kids, up in self.frontier:
            for ui in kids:
                node = len(parent)
                parent[node] = t
                mapping = {}
                for d in self.vlists[ui]:
                    if d in up:
                        mapping[d] = up[d]  # same occurrence as the parent
                    else:
                        names = (f"{d.name}_u{n}" for n in self.numbers)
                        mapping[d] = copy = Var(_fresh(names, self.used))
                        self.origin[copy] = d
                for a in self.contained[ui]:
                    self.atoms.append(Atom(a.relation, tuple(mapping.get(d, d) for d in a.args)))
                self.bags[node] = frozenset(mapping.values())
                frontier.append((node, self.children[ui], mapping))
        self.frontier = frontier

    def query(self) -> ConjunctiveQuery:
        """q_c at the depth grown so far."""
        return ConjunctiveQuery(self.q.free_vars, tuple(self.atoms), self.q.name)
