"""Brute-force reference implementations used as test oracles.

Everything here favors obviously-correct exhaustive enumeration over speed:
homomorphisms by trying every assignment, the cover game by building the
whole configuration graph, width by trying every elimination ordering.
Nothing in this module shares search code with the package under test.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from cqapprox.model import Atom, ConjunctiveQuery, Database


def _atoms_of(thing):
    if isinstance(thing, ConjunctiveQuery):
        return thing.atoms
    return thing.facts


def _elements_of(thing):
    out = set()
    for a in _atoms_of(thing):
        out.update(a.args)
    if isinstance(thing, ConjunctiveQuery):
        out.update(thing.free_vars)
    return out


def _anchor_map(src_tuple, tgt_tuple):
    """The anchor assignment, or None when it is not a function."""
    m = {}
    for s, t in zip(src_tuple, tgt_tuple):
        if m.get(s, t) != t:
            return None
        m[s] = t
    return m


def _is_partial_hom(mapping, src_atoms, tgt_atom_set):
    """mapping respects every source atom whose args all lie in its domain."""
    for a in src_atoms:
        if all(t in mapping for t in a.args):
            img = Atom(a.relation, tuple(mapping[t] for t in a.args))
            if img not in tgt_atom_set:
                return False
    return True


def brute_homs(source, src_tuple, target, tgt_tuple):
    """Every homomorphism source→target extending the anchors, by exhaustion."""
    base = _anchor_map(src_tuple, tgt_tuple)
    if base is None:
        return []
    src_atoms = _atoms_of(source)
    tgt_atoms = set(_atoms_of(target))
    free = sorted(_elements_of(source) - set(base))
    pool = sorted(_elements_of(target) | set(tgt_tuple))
    if free and not pool:
        return []
    out = []
    for choice in itertools.product(pool, repeat=len(free)):
        mapping = dict(base)
        mapping.update(zip(free, choice))
        if _is_partial_hom(mapping, src_atoms, tgt_atoms):
            out.append(mapping)
    return out


def brute_find_hom(source, src_tuple, target, tgt_tuple):
    homs = brute_homs(source, src_tuple, target, tgt_tuple)
    return homs[0] if homs else None


def brute_evaluate(q: ConjunctiveQuery, db: Database) -> set:
    adom = sorted(db.adom)
    answers = set()
    for tup in itertools.product(adom, repeat=len(q.free_vars)):
        if brute_find_hom(q, q.free_vars, db, tup) is not None:
            answers.add(tup)
    if not q.free_vars:
        return {()} if brute_find_hom(q, (), db, ()) is not None else set()
    return answers


def brute_contains(q: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    return brute_find_hom(q2, q2.free_vars, q, q.free_vars) is not None


def brute_endomorphisms(q: ConjunctiveQuery):
    return brute_homs(q, q.free_vars, q, q.free_vars)


def subquery(q: ConjunctiveQuery, atoms) -> ConjunctiveQuery:
    return ConjunctiveQuery(q.free_vars, tuple(atoms), q.name)


def brute_core(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Smallest sub-conjunction q|S admitting a head-fixing hom q→q|S.
    Minimality of |S| makes q|S retract-free, hence a core of q."""
    atoms = list(q.atoms)
    for size in range(0, len(atoms) + 1):
        for combo in itertools.combinations(atoms, size):
            cand = subquery(q, combo)
            if brute_find_hom(q, q.free_vars, cand, cand.free_vars) is not None:
                return cand
    raise AssertionError("query has no hom to itself")


# --- existential k-cover game, explicit configuration graph -----------------


def brute_k_unions(source, k: int):
    """All nonempty unions of ≤ k atom argument-sets, deduplicated."""
    atoms = _atoms_of(source)
    seen = set()
    for p in range(1, k + 1):
        for combo in itertools.combinations(atoms, p):
            s = frozenset(t for a in combo for t in a.args)
            seen.add(s)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def _all_partial_homs(union_vars, base, source, target, tgt_tuple):
    """Every partial hom on the union plus the anchors, in sorted order.
    The source atoms inside that domain go onto target atoms one at a
    time, then each variable they leave unbound takes every element."""
    src_atoms = _atoms_of(source)
    tgt_atoms = set(_atoms_of(target))
    pool = sorted(_elements_of(target) | set(tgt_tuple))
    domain = set(union_vars) | set(base)
    maps = [dict(base)]
    for a in src_atoms:
        if not set(a.args) <= domain:
            continue
        grown = []
        for m in maps:
            for b in tgt_atoms:
                ext = dict(m)
                if b.relation == a.relation and len(b.args) == len(a.args) and all(
                    ext.setdefault(s, t) == t for s, t in zip(a.args, b.args)
                ):
                    grown.append(ext)
        maps = grown
    out = set()
    for m in maps:
        rest = sorted(domain - set(m))
        for choice in itertools.product(pool, repeat=len(rest)):
            out.add(tuple(sorted({**m, **dict(zip(rest, choice))}.items())))
    return sorted(out)


def _agree(h1, h2):
    d2 = dict(h2)
    return all(d2.get(k, v) == v for k, v in h1)


def game_configs(source, src_tuple, target, tgt_tuple, k):
    """(unions, configs, base): configs[i] = all valid partial homs whose
    domain is union i plus the anchors. base is None on a broken anchor map."""
    base = _anchor_map(src_tuple, tgt_tuple)
    if base is not None and not _is_partial_hom(
        base, _atoms_of(source), set(_atoms_of(target))
    ):
        base = None
    unions = brute_k_unions(source, k)
    if base is None:
        return unions, {i: [] for i in range(len(unions))}, None
    configs = {
        i: _all_partial_homs(u, base, source, target, tgt_tuple)
        for i, u in enumerate(unions)
    }
    return unions, configs, base


def oracle_wins_unbounded(source, src_tuple, target, tgt_tuple, k):
    """Alive-set refinement over the explicit configuration graph."""
    unions, configs, base = game_configs(source, src_tuple, target, tgt_tuple, k)
    if base is None:
        return False
    if not unions:
        return True
    alive = {(i, h) for i, hs in configs.items() for h in hs}
    changed = True
    while changed:
        changed = False
        for cfg in sorted(alive):
            i, h = cfg
            for j in range(len(unions)):
                if not any((j, h2) in alive and _agree(h, h2) for h2 in configs[j]):
                    alive.discard(cfg)
                    changed = True
                    break
    return all(any((i, h) in alive for h in configs[i]) for i in range(len(unions)))


def oracle_wins_bounded(source, src_tuple, target, tgt_tuple, k, c):
    """Memoized game-tree search: survive(config, r) means the Duplicator
    can answer every Spoiler move for r further rounds from this config."""
    unions, configs, base = game_configs(source, src_tuple, target, tgt_tuple, k)
    if base is None:
        return False
    if c == 0 or not unions:
        return base is not None

    @lru_cache(maxsize=None)
    def survive(i, h, r):
        if r <= 1:
            return True
        return all(
            any(_agree(h, h2) and survive(j, h2, r - 1) for h2 in configs[j])
            for j in range(len(unions))
        )

    return all(any(survive(i, h, c) for h in configs[i]) for i in range(len(unions)))


def reference_sweep_game(source, src_tuple, target, tgt_tuple, k, rounds=None):
    """The cover game as barrier rounds over every ordered union pair, on
    `Term` values: the reference that the engine's overlap graph,
    frontier and interned ids must reproduce exactly.

    Members per union are value tuples over its sorted variables, in
    sorted order; each round drops those without a partner agreeing on
    the overlap in some other union, judged against the round's start.
    Runs until stable, a union is empty, or `rounds` rounds have run.
    Returns the surviving family as the engine decodes it (per union,
    dicts holding the anchors, then the union's variables in order) when
    every union keeps a member, else None.
    """
    unions, configs, base = game_configs(source, src_tuple, target, tgt_tuple, k)
    if base is None:
        return None
    vlists = [sorted(u) for u in unions]
    members = [
        sorted({tuple(dict(h)[v] for v in vl) for h in configs[i]})
        for i, vl in enumerate(vlists)
    ]
    pairs = [
        [
            (
                j,
                tuple(p for p, v in enumerate(vi) if v in unions[j]),
                tuple(vlists[j].index(v) for v in vi if v in unions[j]),
            )
            for j in range(len(unions))
            if j != i
        ]
        for i, vi in enumerate(vlists)
    ]
    done = 0
    while all(members) and done != rounds:
        sigs = {
            (j, pj): {tuple(m[p] for p in pj) for m in members[j]}
            for row in pairs
            for j, _, pj in row
        }
        swept = [
            [
                m
                for m in ms
                if all(tuple(m[p] for p in pi) in sigs[j, pj] for j, pi, pj in pairs[i])
            ]
            for i, ms in enumerate(members)
        ]
        if swept == members:
            break
        members, done = swept, done + 1
    if not all(members):
        return None
    return [
        [dict(base) | dict(zip(vl, m)) for m in ms] for vl, ms in zip(vlists, members)
    ]


# --- width by exhaustive elimination orderings -------------------------------


def brute_cover_number(var_set, atoms):
    """Fewest atoms whose argument sets jointly cover var_set; None if never."""
    need = set(var_set)
    useful = [a for a in atoms if need & a.arg_set]
    for p in range(0, len(useful) + 1):
        for combo in itertools.combinations(useful, p):
            covered = set()
            for a in combo:
                covered |= a.arg_set
            if need <= covered:
                return max(p, 0)
    return None


def oracle_ghw(q: ConjunctiveQuery):
    """Minimum over all elimination orderings of the existential variables of
    the maximum bag cover number; bags are v plus its not-yet-eliminated
    neighborhood in the (progressively filled) co-occurrence graph. A query
    without existential variables has width 0: no bag needs a cover."""
    evars = sorted(q.existential_vars)
    if not evars:
        return 0
    adj = {v: set() for v in evars}
    for a in q.atoms:
        ev = [t for t in set(a.args) if t in adj]
        for u, w in itertools.combinations(ev, 2):
            adj[u].add(w)
            adj[w].add(u)
    best = None
    for order in itertools.permutations(evars):
        g = {v: set(ns) for v, ns in adj.items()}
        width = 1
        for v in order:
            bag = {v} | g[v]
            cover = brute_cover_number(bag, q.atoms)
            if cover is None:
                width = None
                break
            width = max(width, cover)
            for u in g[v]:
                g[u].discard(v)
                g[u] |= g[v] - {u, v}
            del g[v]
        if width is not None and (best is None or width < best):
            best = width
    return best


def reference_validate_decomposition(q: ConjunctiveQuery, td, k: int) -> bool:
    """The three decomposition conditions, checked one variable at a time:
    a single rooted tree, every atom's existential arguments inside one
    bag of existential variables, each variable's nodes connected (a
    search over the tree's edges), each bag covered by at most k atoms."""
    evars = q.existential_vars
    nodes = set(td.parent)
    if set(td.bags) != nodes:
        return False
    if nodes:
        if sum(1 for p in td.parent.values() if p is None) != 1:
            return False
        for n in nodes:
            seen = set()
            while n is not None:
                if n in seen or n not in nodes:
                    return False
                seen.add(n)
                n = td.parent[n]
    if any(not bag <= evars for bag in td.bags.values()):
        return False
    for a in q.atoms:
        ex = frozenset(a.args) & evars
        if ex and not any(ex <= bag for bag in td.bags.values()):
            return False
    for v in evars:
        holding = [n for n in nodes if v in td.bags[n]]
        if len(holding) <= 1:
            continue
        hold = set(holding)
        stack = [holding[0]]
        reached = {holding[0]}
        while stack:
            n = stack.pop()
            nbrs = [td.parent[n]] + [m for m in nodes if td.parent[m] == n]
            for m in nbrs:
                if m in hold and m not in reached:
                    reached.add(m)
                    stack.append(m)
        if reached != hold:
            return False
    for bag in td.bags.values():
        cover = brute_cover_number(bag, q.atoms)
        if bag and (cover is None or cover > k):
            return False
    return True


# --- dependencies by exhaustive trigger enumeration ---------------------------


def brute_satisfies(db: Database, deps) -> bool:
    adom = sorted(db.adom)
    facts = set(db.facts)
    for dep in deps:
        body_vars = sorted({t for a in dep.body for t in a.args})
        for choice in itertools.product(adom, repeat=len(body_vars)):
            m = dict(zip(body_vars, choice))
            if not all(
                Atom(a.relation, tuple(m[t] for t in a.args)) in facts
                for a in dep.body
            ):
                continue
            if hasattr(dep, "eq"):  # egd
                y, z = dep.eq
                if m[y] != m[z]:
                    return False
            else:  # tgd
                head_vars = sorted(
                    {t for a in dep.head for t in a.args} - set(body_vars)
                )
                ok = False
                for ext in itertools.product(adom, repeat=len(head_vars)):
                    full = dict(m)
                    full.update(zip(head_vars, ext))
                    if all(
                        Atom(a.relation, tuple(full[t] for t in a.args)) in facts
                        for a in dep.head
                    ):
                        ok = True
                        break
                if not ok:
                    return False
    return True


# --- misc helpers used by several test modules --------------------------------


def isomorphic(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Bijective atom-preserving renaming respecting head positions."""
    if len(q1.atoms) != len(q2.atoms) or len(q1.free_vars) != len(q2.free_vars):
        return False
    if len(q1.variables) != len(q2.variables):
        return False
    for h in brute_homs(q1, q1.free_vars, q2, q2.free_vars):
        if len(set(h.values())) != len(h):
            continue
        img = {Atom(a.relation, tuple(h[t] for t in a.args)) for a in q1.atoms}
        if img == set(q2.atoms):
            return True
    return False


def equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    return brute_contains(q1, q2) and brute_contains(q2, q1)
