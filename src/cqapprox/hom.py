"""Homomorphism search, CQ evaluation, containment, and cores.

One engine, `_Search`, serves find_hom, endomorphisms and core. It is
exact backtracking that keeps generalized arc consistency by support
counting (AC-4, Mohr & Henderson 1986):

- Target elements are interned to ids in canonical order, so id order
  is `Term` order.
- The target rows fitting a source atom (its relation, its repetition
  pattern and its anchored positions) are built once per such signature
  and indexed per variable slot and value.
- Every (atom, slot, value) keeps a count of live rows. Removing a value
  from a domain kills its rows; a count that falls to 0 removes that
  value from the slot's variable. Every change after the initial
  fixpoint goes on a trail, so a branch, or a dropped target fact, is
  undone exactly.

The next variable is always a most-constrained one (fewest values, then
canonical order) and values are tried in canonical order. The greatest
arc-consistent state is unique, so witnesses do not depend on the order
in which propagation reaches it: they are deterministic.

core() computes a minimal retract (Hell & Nešetřil 1992). For the
current query it builds one propagated state per source component, with
the query itself as target, and tests an atom by dropping that fact from
the state, propagating, searching, and undoing back to the mark. On
success it jumps to the image of the homomorphism found and repeats. An
atom once shown non-removable is never tested again: if q ↛ q − b, no
image I ⊆ q of q that contains b maps into I − b, since q → I → I − b
would follow.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass

from cqapprox.model import (
    ArityError,
    Atom,
    ConjunctiveQuery,
    Database,
    Term,
    check_schemas_agree,
)


@dataclass
class Hom:
    """A homomorphism witness: total mapping on the source's terms."""

    mapping: dict[Term, Term]
    source: object
    target: object

    def __call__(self, t: Term) -> Term:
        return self.mapping[t]

    def tuple_image(self, terms) -> tuple[Term, ...]:
        return tuple(self.mapping[t] for t in terms)


def _atoms_of(thing):
    return thing.atoms if isinstance(thing, ConjunctiveQuery) else thing.facts


def _elements_of(thing):
    if isinstance(thing, ConjunctiveQuery):
        return set(thing.variables)
    return set(thing.adom)


def _anchor_map(src_tuple, tgt_tuple):
    if len(src_tuple) != len(tgt_tuple):
        raise ArityError(
            f"anchor tuples differ in length: {len(src_tuple)} vs {len(tgt_tuple)}"
        )
    m: dict[Term, Term] = {}
    for s, t in zip(src_tuple, tgt_tuple):
        if m.get(s, t) != t:
            return None
        m[s] = t
    return m


class _Target:
    """A target's facts prepared for search: facts per relation, element
    ids in canonical order, and the fitting rows per signature, built on
    first use and shared by every search into this target."""

    def __init__(self, facts):
        self.by_rel: dict[str, list[Atom]] = {}
        for f in facts:
            self.by_rel.setdefault(f.relation, []).append(f)
        self.values = sorted({t for f in facts for t in f.args})
        self.eid = {t: k for k, t in enumerate(self.values)}
        self.sigs: dict[tuple, _Rows] = {}

    def rows(self, relation, pattern) -> _Rows:
        key = (relation, pattern)
        if key not in self.sigs:
            self.sigs[key] = _Rows(self.by_rel.get(relation, ()), pattern, self)
        return self.sigs[key]


class _Rows:
    """The target facts fitting one signature, reduced to slot values.

    A signature is a relation plus a pattern: per argument position,
    either the anchored target value or the number of the variable slot
    (slots numbered by first occurrence). `rows[r]` holds the value ids of
    fact `facts[r]` per slot, `hits[j]` maps a value id to the rows
    holding it in slot j, and `counts[j]` counts them.
    """

    __slots__ = ("facts", "rows", "hits", "counts", "at")

    def __init__(self, facts, pattern, target):
        anchored = [(p, t) for p, t in enumerate(pattern) if not isinstance(t, int)]
        first: dict[int, int] = {}
        repeats = []
        for p, s in enumerate(pattern):
            if isinstance(s, int):
                if s in first:
                    repeats.append((p, first[s]))
                else:
                    first[s] = p
        if anchored or repeats:
            facts = [
                f
                for f in facts
                if all(f.args[p] == t for p, t in anchored)
                and all(f.args[p] == f.args[q] for p, q in repeats)
            ]
        self.facts = facts
        eid = target.eid
        pos = tuple(first.values())
        self.rows = rows = [tuple(eid[f.args[p]] for p in pos) for f in facts]
        self.hits = [{} for _ in pos]
        for r, row in enumerate(rows):
            for hits, val in zip(self.hits, row):
                if val in hits:
                    hits[val].append(r)
                else:
                    hits[val] = [r]
        self.counts = []
        for hits in self.hits:
            # a byte per value unless some value has more than 255 rows
            if max(map(len, hits.values()), default=0) < 256:
                cnt = bytearray(len(target.values))
            else:
                cnt = [0] * len(target.values)
            for val, rs in hits.items():
                cnt[val] = len(rs)
            self.counts.append(cnt)
        self.at = None

    def row_of(self, fact) -> int | None:
        if self.at is None:
            self.at = {f: r for r, f in enumerate(self.facts)}
        return self.at.get(fact)


class _Search:
    """Backtracking over one set of source atoms into indexed target facts.

    `base` holds pre-assigned terms (anchors); every other source term
    becomes a search variable. Per atom i the state is a live-row bitmap
    `alive[i]` and one count array per slot, `counts[i][j]`; per variable
    v a flag per value id, `dom[v]`, and their number, `size[v]`. Trail
    entries are `r << abits | i` for a killed row r of atom i and
    `~(d << vbits | v)` for value d removed from variable v.
    """

    def __init__(self, atoms, base, target: _Target):
        self.base = dict(base)
        self.values = target.values
        self.vars = sorted({t for a in atoms for t in a.args} - set(self.base))
        vid = {v: k for k, v in enumerate(self.vars)}
        self.abits = max(1, len(atoms).bit_length())
        self.vbits = max(1, len(self.vars).bit_length())
        self.trail = None  # the initial fixpoint is not undone, so not trailed

        self.sig: list[_Rows] = []
        self.slots: list[tuple[int, ...]] = []
        self.by_rel: dict[str, list[int]] = {}
        for i, a in enumerate(atoms):
            slots: list[int] = []
            pattern = []
            for t in a.args:
                if t in self.base:
                    pattern.append(self.base[t])
                else:
                    if vid[t] not in slots:
                        slots.append(vid[t])
                    pattern.append(slots.index(vid[t]))
            self.sig.append(target.rows(a.relation, tuple(pattern)))
            self.slots.append(tuple(slots))
            self.by_rel.setdefault(a.relation, []).append(i)

        self.ok = all(s.rows for s in self.sig)
        if not self.ok:
            return
        self.alive = [bytearray(b"\x01") * len(s.rows) for s in self.sig]
        self.counts = [[c[:] for c in s.counts] for s in self.sig]
        # occ[v]: (atom, slot) pairs where variable v occurs
        self.occ: list[list[tuple[int, int]]] = [[] for _ in self.vars]
        for i, slots in enumerate(self.slots):
            for j, v in enumerate(slots):
                self.occ[v].append((i, j))
        self.dom: list[bytearray] = []
        self.size: list[int] = []
        queue: deque[int] = deque()
        for v, occ in enumerate(self.occ):
            keys = [self.sig[i].hits[j].keys() for i, j in occ]
            inter = set(keys[0]).intersection(*keys[1:])
            flags = bytearray(len(self.values))
            for d in inter:
                flags[d] = 1
            self.dom.append(flags)
            self.size.append(len(inter))
            for d in set(keys[0]).union(*keys[1:]) - inter:
                queue += (v, d)
        self.ok = all(self.size) and self._propagate(queue, None)
        self.trail = []

    def _kill(self, i, rs, queue, changed) -> bool:
        """Kill the live rows `rs` of atom i, queueing every value whose
        last support in atom i goes. False if a domain or atom empties.

        A killed row is always finished, every slot count lowered, before
        returning: undo() restores whole rows."""
        alive, counts, slots = self.alive[i], self.counts[i], self.slots[i]
        rows, dom, size, trail = self.sig[i].rows, self.dom, self.size, self.trail
        for r in rs:
            if not alive[r]:
                continue
            if not slots:
                return False  # a fully anchored atom has one row only
            alive[r] = 0
            if trail is not None:
                trail.append(r << self.abits | i)
            wiped = False
            for v, cnt, val in zip(slots, counts, rows[r]):
                c = cnt[val] - 1
                cnt[val] = c
                if not c and dom[v][val]:
                    dom[v][val] = 0
                    size[v] -= 1
                    if trail is not None:
                        trail.append(~(val << self.vbits | v))
                    if not size[v]:
                        wiped = True
                        continue
                    queue += (v, val)
                    if changed is not None:
                        changed.add(v)
            if wiped:
                return False
        return True

    def _propagate(self, queue, changed) -> bool:
        """Process removed (var, value) pairs, oldest first, to the
        arc-consistent fixpoint. Oldest first finds a wipe-out in far
        fewer steps than newest first on the drops core() makes."""
        occ, sig, pop = self.occ, self.sig, queue.popleft
        while queue:
            v = pop()
            d = pop()
            for i, j in occ[v]:
                rs = sig[i].hits[j].get(d)
                if rs and not self._kill(i, rs, queue, changed):
                    return False
        return True

    def _assign(self, v, val, changed) -> bool:
        dv = self.dom[v]
        queue: deque[int] = deque()
        for d in itertools.compress(range(len(dv)), dv):
            if d != val:
                dv[d] = 0
                queue += (v, d)
                self.trail.append(~(d << self.vbits | v))
        self.size[v] = 1
        return self._propagate(queue, changed)

    def drop(self, fact) -> bool:
        """Remove one target fact and propagate; False on a wipe-out.

        Undo with `undo(mark)`, taking the mark from `len(self.trail)`.
        """
        queue: deque[int] = deque()
        for i in self.by_rel.get(fact.relation, ()):
            r = self.sig[i].row_of(fact)
            if r is not None and not self._kill(i, (r,), queue, None):
                return False
        return self._propagate(queue, None)

    def undo(self, mark) -> set[int]:
        """Pop the trail back to `mark`; returns the variables restored."""
        trail, dom, size = self.trail, self.dom, self.size
        amask, vmask = (1 << self.abits) - 1, (1 << self.vbits) - 1
        restored = set()
        while len(trail) > mark:
            e = trail.pop()
            if e < 0:
                e = ~e
                v = e & vmask
                dom[v][e >> self.vbits] = 1
                size[v] += 1
                restored.add(v)
            else:
                i = e & amask
                r = e >> self.abits
                self.alive[i][r] = 1
                for cnt, val in zip(self.counts[i], self.sig[i].rows[r]):
                    cnt[val] += 1
        return restored

    def solutions(self):
        """Yield every total assignment, in canonical order.

        Exhausting the generator restores the state; a caller that stops
        early undoes to a mark taken before (see core)."""
        if not self.ok:
            return
        if not self.vars:
            yield dict(self.base)
            return
        dom, size, trail = self.dom, self.size, self.trail
        n = len(self.vars)
        ids = range(len(self.values))
        assigned = bytearray(n)
        chosen = [0] * n
        # most-constrained-first via a lazy heap: entries are (count, var)
        # pushed on every domain change, skipped when out of date
        heap = [(c, v) for v, c in enumerate(size)]
        heapq.heapify(heap)
        # frames: (var, remaining values in reverse order, trail mark)
        frames: list[tuple[int, list[int], int]] = []

        def open_frame():
            while True:
                cnt, v = heapq.heappop(heap)
                if not assigned[v] and cnt == size[v]:
                    break
            vals = list(itertools.compress(ids, dom[v]))
            vals.reverse()
            frames.append((v, vals, len(trail)))

        open_frame()
        while frames:
            v, vals, mark = frames[-1]
            for u in self.undo(mark):  # clear the previous attempt
                heapq.heappush(heap, (size[u], u))
            assigned[v] = 0
            if not vals:
                frames.pop()
                heapq.heappush(heap, (size[v], v))
                continue
            chosen[v] = val = vals.pop()
            assigned[v] = 1
            changed: set[int] = set()
            if not self._assign(v, val, changed):
                continue
            for u in changed:
                heapq.heappush(heap, (size[u], u))
            if len(frames) == n:
                sol = dict(self.base)
                for u, _, _ in frames:
                    sol[self.vars[u]] = self.values[chosen[u]]
                yield sol
                continue
            open_frame()


def find_hom(source, src_tuple, target, tgt_tuple) -> Hom | None:
    """A homomorphism source→target with h(src_tuple) = tgt_tuple, or None.

    Disconnected parts of the source are solved independently, and parts
    that are renamings of one another are solved once.
    """
    check_schemas_agree(source, target)
    return _find_hom(source, src_tuple, target, tgt_tuple, _Target(_atoms_of(target)))


def _find_hom(source, src_tuple, target, tgt_tuple, tgt: _Target) -> Hom | None:
    """find_hom into `target`, prepared as `tgt`, after its schema check."""
    base = _anchor_map(src_tuple, tgt_tuple)
    if base is None:
        return None
    mapping: dict[Term, Term] = dict(base)
    solved: dict[tuple, list] = {}
    for comp_atoms, order in _split_components(_atoms_of(source), base):
        key = _component_key(comp_atoms, order, base)
        if key not in solved:
            sol = next(_Search(comp_atoms, base, tgt).solutions(), None)
            if sol is None:
                return None
            solved[key] = [sol[v] for v in order]
        mapping.update(zip(order, solved[key]))

    rest = _elements_of(source) - set(mapping)
    if rest:
        pool = _elements_of(target) | set(tgt_tuple)
        if not pool:
            return None
        mapping.update(dict.fromkeys(rest, min(pool)))
    return Hom(mapping, source, target)


def _split_components(atoms, base):
    """Group atoms by connected component of their unanchored terms.

    Yields (atoms, var order) pairs; fully anchored atoms form their own
    singleton groups. Order of unanchored vars is first occurrence in the
    component's sorted atom list, which _component_key relies on.
    """
    parent: dict[Term, Term] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in atoms:
        free = [t for t in a.args if t not in base]
        for u, w in zip(free, free[1:]):
            parent[find(u)] = find(w)

    groups: dict[Term | None, list[Atom]] = {}
    for a in atoms:
        free = [t for t in a.args if t not in base]
        rep = find(free[0]) if free else None
        groups.setdefault(rep, []).append(a)

    anchored_only = groups.pop(None, [])
    for a in anchored_only:
        yield [a], []
    for rep in sorted(groups, key=lambda r: groups[r][0]):
        comp = sorted(groups[rep])
        order: list[Term] = []
        seen = set()
        for a in comp:
            for t in a.args:
                if t not in base and t not in seen:
                    seen.add(t)
                    order.append(t)
        yield comp, order


def _component_key(comp_atoms, order, base):
    """Canonical form: unanchored vars numbered by first occurrence,
    anchored vars replaced by their target value."""
    index = {v: i for i, v in enumerate(order)}
    out = []
    for a in comp_atoms:
        sig = tuple(
            ("v", index[t]) if t in index else ("a", base[t]) for t in a.args
        )
        out.append((a.relation, sig))
    return tuple(out)


def evaluate(q: ConjunctiveQuery, db: Database) -> set:
    """q(D): every tuple ā with a homomorphism (D_q, x̄) → (D, ā)."""
    check_schemas_agree(q, db)
    if q.is_boolean:
        return {()} if find_hom(q, (), db, ()) is not None else set()
    adom = sorted(db.adom)
    distinct = sorted(set(q.free_vars))
    cands = []
    for v in distinct:
        occ = [
            (a, p) for a in q.atoms for p, t in enumerate(a.args) if t == v
        ]
        if not occ:
            cands.append(adom)
            continue
        cand = None
        for a, p in occ:
            here = {f.args[p] for f in db.facts if f.relation == a.relation}
            cand = here if cand is None else cand & here
        cands.append(sorted(cand))

    index = _Target(db.facts)
    answers = set()
    for combo in itertools.product(*cands):
        assign = dict(zip(distinct, combo))
        tgt = tuple(assign[v] for v in q.free_vars)
        if _find_hom(q, q.free_vars, db, tgt, index) is not None:
            answers.add(tgt)
    return answers


def contains(q: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """q ⊆ q2, decided by searching a homomorphism q2 → q over the heads."""
    if len(q.free_vars) != len(q2.free_vars):
        raise ArityError(
            f"head arity mismatch: {len(q.free_vars)} vs {len(q2.free_vars)}"
        )
    return find_hom(q2, q2.free_vars, q, q.free_vars) is not None


def equivalent(q: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    return contains(q, q2) and contains(q2, q)


def core(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """The core of q: a minimal retract, fixing free variables pointwise.

    Scan the atoms in canonical order for the first one whose removal
    leaves a query q still maps into, jump straight to the image of that
    homomorphism, and scan again, skipping atoms already shown
    non-removable. A fixpoint admits no proper retraction at all (a
    retraction would miss some atom, making that atom removable), so the
    fixpoint is the core. The homomorphism for an atom is the one
    find_hom(current, free, current − atom, free) returns.
    """
    base = {v: v for v in q.free_vars}
    current = q
    fixed: set[Atom] = set()
    while True:
        comps = list(_split_components(current.atoms, base))
        keys = [_component_key(atoms, order, base) for atoms, order in comps]
        tgt = _Target(current.atoms)
        states = {}
        for (atoms, order), key in zip(comps, keys):
            if key not in states:
                states[key] = (_Search(atoms, base, tgt), order)
        for a in current.atoms:
            if a in fixed:
                continue
            solved = _solve_without(states, a)
            if solved is None:
                fixed.add(a)
                continue
            h = dict(base)
            for (_, order), key in zip(comps, keys):
                h.update(zip(order, solved[key]))
            image = [Atom(b.relation, tuple(map(h.get, b.args))) for b in current.atoms]
            current = ConjunctiveQuery(current.free_vars, tuple(image), q.name)
            break
        else:
            return current


def _solve_without(states, fact):
    """Per component key, the first solution's values (in the order of
    the key's first component) with `fact` dropped from the target, or
    None if some component has none. Every state is left as it was."""
    solved = {}
    for key, (search, order) in states.items():
        mark = len(search.trail)
        sol = next(search.solutions(), None) if search.drop(fact) else None
        search.undo(mark)
        if sol is None:
            return None
        solved[key] = [sol[v] for v in order]
    return solved


def endomorphisms(q: ConjunctiveQuery) -> list[Hom]:
    """All homomorphisms from q to itself fixing the free variables."""
    base = {v: v for v in q.free_vars}
    search = _Search(q.atoms, base, _Target(q.atoms))
    return [Hom(sol, q, q) for sol in search.solutions()]
