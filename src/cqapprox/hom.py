"""Homomorphism search, CQ evaluation, containment, and cores.

`_Target` is the one place where a target is interned and indexed. It
holds one interned form, each fact once as a row of element ids per
relation (ids in canonical order, so id order is `Term` order); every
index is built from those rows on first use and shared by every search
into that target. Two algorithms read it, each for its own job:

- `_Target.join` lists homomorphisms, for the cover game's answers, the
  chase's triggers and each tgd head check (every frontier slot bound).
  Set at a time, each step extends every partial solution by one atom
  through a hash index keyed by (relation, bound positions, repeated
  positions). Listing them with `_Search` would pay an O(|domain|)
  assign, propagate and undo at every node; built so, the game's
  answers kept a 15-s `cli_mix` benchmark run going past 300 s.
- `_Search` finds a first homomorphism, for find_hom and core, and lists
  endomorphisms. It is exact backtracking that keeps generalized arc
  consistency by support counting (AC-4, Mohr & Henderson 1986):
  - The id rows fitting a source atom (its relation, its repetition
    pattern and its anchored positions) are selected once per such
    signature and indexed per variable slot and value.
  - Every (atom, slot, value) keeps a count of live rows. Removing a
    value from a domain kills its rows; a count that falls to 0 removes
    that value from the slot's variable.
  - The initial state, the greatest arc-consistent one, is reached in
    bulk: two semijoin passes over whole atoms (Yannakakis 1981) cut
    rows and domains with scans over row lists, the counts are built
    from the rows that survive, and AC-4 removes what the passes left.
    Killing rows one at a time from the full state cost far more on the
    unrollings core() retracts; passes repeated to a fixpoint would cost
    O(n²m) on a path into a longer path.
  - Every change after the initial state goes on a trail, so a branch,
    or a dropped target fact, is undone exactly.

The next variable is always a most-constrained one (fewest values, then
canonical order) and values are tried in canonical order. The greatest
arc-consistent state is unique, so witnesses do not depend on the order
in which propagation reaches it: they are deterministic. find_hom and
core share one solver, `_solve`, which solves each connected component
of the source once per key (up to renaming), building its `_Search` on
first use.

core() computes a minimal retract (Hell & Nešetřil 1992). For the
current query it keeps one propagated state per component key, with the
query itself as target, and tests an atom by dropping that fact from
the states, propagating, searching, and undoing back to the mark. On
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
from operator import itemgetter

from cqapprox.model import (
    ArityError,
    Atom,
    ConjunctiveQuery,
    Database,
    Term,
    _UnionFind,
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
    """A target's facts, interned once as id rows per relation (element
    ids in canonical order) and indexed for every search into it: the
    fitting rows per signature for `_Search` and a hash index per
    relation and pattern for `join`, each built on first use."""

    def __init__(self, facts):
        self.values = sorted({t for f in facts for t in f.args})
        self.eid = eid = {t: k for k, t in enumerate(self.values)}
        self.rels: dict[str, list[tuple]] = {}
        for f in facts:
            self.rels.setdefault(f.relation, []).append(tuple(map(eid.__getitem__, f.args)))
        self.sigs: dict[tuple, _Rows] = {}
        self.indexes: dict[tuple, list | set | dict] = {}

    def rows(self, relation, pattern) -> _Rows:
        key = (relation, pattern)
        if key not in self.sigs:
            self.sigs[key] = _Rows(self.rels.get(relation, []), pattern, self)
        return self.sigs[key]

    def index(self, relation, pattern) -> list | set | dict:
        """The relation's facts fitting `pattern`, keyed by its bound values.

        `pattern` holds per position None if bound, else a fresh slot's
        number (by first occurrence); a fact fits if the positions of each
        fresh slot agree. Each key, the bound values as `itemgetter` reads
        them, maps to the fitting facts' fresh values in fact order. With
        nothing bound, that list is the index (the row list if nothing
        repeats); with everything bound, the set of keys (the row set).
        """
        key = (relation, pattern)
        found = self.indexes.get(key)
        if found is not None:
            return found
        rows = self.rels.get(relation, [])
        first, bound, repeats = {}, [], []
        for p, s in enumerate(pattern):
            if s is None:
                bound.append(p)
            elif s in first:
                repeats.append((p, first[s]))
            else:
                first[s] = p
        if repeats:
            rows = [row for row in rows if all(row[p] == row[q] for p, q in repeats)]
        fresh = list(first.values())
        if len(fresh) == len(pattern):
            found = rows
        elif not fresh:  # a bound row is the row itself, or its one value
            found = set(rows) if len(bound) > 1 else set(map(itemgetter(0), rows))
        else:
            get = itemgetter(*fresh)  # a tuple of values, or one value alone
            exts = map(get, rows) if len(fresh) > 1 else zip(map(get, rows))
            if not bound:
                found = list(exts)
            else:
                found = {}
                for k, ext in zip(map(itemgetter(*bound), rows), exts):
                    if k in found:
                        found[k].append(ext)
                    else:
                        found[k] = [ext]
        self.indexes[key] = found
        return found

    def join(self, atoms, slot, m):
        """Yield every homomorphism from `atoms` into the facts extending m.

        `slot` numbers the atoms' terms, and m holds an id per slot, None
        where unbound; every slot must be bound by m or by some atom. Each
        solution is m completed, as a tuple. Set at a time, each step
        extends every partial solution (the ids bound so far, in binding
        order) by one atom, through one lookup of its bound values in
        `index`. Extensions come in fact order, so solutions come in
        lexicographic order of the facts matched. An id that no fact
        holds, as for an anchor value outside the target, matches nothing.
        """
        start = [s for s, v in enumerate(m) if v is not None]
        at = dict(zip(start, itertools.count()))  # slot -> position in a partial
        partials = [tuple(map(m.__getitem__, start))]
        for a in atoms:
            pattern, key, fresh = [], [], {}
            for s in map(slot.__getitem__, a.args):
                if s in at:
                    pattern.append(None)
                    key.append(at[s])
                else:
                    pattern.append(fresh.setdefault(s, len(fresh)))
            index = self.index(a.relation, tuple(pattern))
            if not key:
                partials = [p + ext for p in partials for ext in index]
            elif not fresh:
                get = itemgetter(*key)
                partials = [p for p in partials if get(p) in index]
            else:
                get = itemgetter(*key)
                partials = [p + ext for p in partials for ext in index.get(get(p), ())]
            if not partials:
                return iter(())
            for s in fresh:
                at[s] = len(at)
        if list(at) == sorted(at):  # bound in slot order
            return iter(partials)
        return map(itemgetter(*map(at.__getitem__, range(len(m)))), partials)


class _Rows:
    """The target facts fitting one signature, reduced to slot values.

    A signature is a relation plus a pattern: per argument position,
    either the anchored target value or the number of the variable slot
    (slots numbered by first occurrence). `ids[r]` is the id row of the
    r-th fitting fact and `rows[r]` its values per slot (the same list
    when nothing is anchored or repeated), `cols[j]` the values of slot j
    in row order, `hits[j]` maps a value id to the rows holding it in
    slot j, and `counts[j]` counts them.
    """

    __slots__ = ("ids", "rows", "cols", "hits", "counts", "at")

    def __init__(self, ids, pattern, target):
        eid = target.eid
        anchored = [(p, eid.get(t, -1)) for p, t in enumerate(pattern) if not isinstance(t, int)]
        first: dict[int, int] = {}
        repeats = []
        for p, s in enumerate(pattern):
            if isinstance(s, int):
                if s in first:
                    repeats.append((p, first[s]))
                else:
                    first[s] = p
        if anchored or repeats:
            ids = [
                row
                for row in ids
                if all(row[p] == v for p, v in anchored)
                and all(row[p] == row[q] for p, q in repeats)
            ]
            pos = tuple(first.values())
            self.rows = rows = [tuple([row[p] for p in pos]) for row in ids]
        else:
            self.rows = rows = ids
        self.ids = ids
        self.cols = list(zip(*rows))
        self.hits = [{} for _ in first]
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

    def row_of(self, row) -> int | None:
        """The number of the fitting fact with id row `row`, or None."""
        if self.at is None:
            self.at = {f: r for r, f in enumerate(self.ids)}
        return self.at.get(row)


class _Search:
    """Backtracking over one set of source atoms into indexed target facts.

    `base` holds pre-assigned terms (anchors); every other source term
    becomes a search variable. Per atom i the state is a live-row bitmap
    `alive[i]` and one count array per slot, `counts[i][j]`; per variable
    v a flag per value id, `dom[v]`, and their number, `size[v]`. Trail
    entries are `r << abits | i` for a killed row r of atom i and
    `~(d << vbits | v)` for value d removed from variable v.

    `_fixpoint` builds the initial state in bulk; from then on `drop`,
    `_assign` and `undo` change it a row at a time, through `_kill` and
    `_propagate`, on the trail.
    """

    def __init__(self, atoms, base, target: _Target):
        self.base = dict(base)
        self.values, self.eid = target.values, target.eid
        self.vars = sorted({t for a in atoms for t in a.args} - set(self.base))
        vid = {v: k for k, v in enumerate(self.vars)}
        self.abits = max(1, len(atoms).bit_length())
        self.vbits = max(1, len(self.vars).bit_length())
        self.trail = None  # the initial state is never undone: no entries

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
        # occ[v]: (atom, slot) pairs where variable v occurs
        self.occ: list[list[tuple[int, int]]] = [[] for _ in self.vars]
        for i, slots in enumerate(self.slots):
            for j, v in enumerate(slots):
                self.occ[v].append((i, j))
        self.ok = self._fixpoint()
        self.trail = []

    def _fixpoint(self) -> bool:
        """Reach the initial state, the greatest arc-consistent one, and
        return False on a wipe-out.

        Two semijoin passes over whole atoms, forward then backward
        (Yannakakis 1981), cut each atom's rows to those whose values its
        variables may still take, then cut those variables to the atom's
        projection. The state is then built from the surviving rows, and
        AC-4 finishes from it.

        Passes repeated to a fixpoint would take a path into a longer path
        one value per variable and pass, O(n²m) work; two passes and AC-4
        keep AC-4's bound. A cut costs a scan of the atom's live rows, so
        an atom whose variables lost less than a quarter of the values its
        rows hold, summed over its slots, is left for AC-4, which kills
        only the rows that go.
        """
        sig, slots, occ = self.sig, self.slots, self.occ
        # vals[v] is a subset of proj[i][j], the projection of atom i's
        # live rows on each slot j holding v
        vals = []
        for o in occ:
            keys = [sig[i].hits[j].keys() for i, j in o]
            vals.append(set(keys[0]).intersection(*keys[1:]))
        if not all(vals):
            return False
        live: list = [range(len(s.rows)) for s in sig]
        proj = [list(map(dict.keys, s.hits)) for s in sig]
        n = len(sig)
        for i in itertools.chain(range(n), reversed(range(n))):
            rs, cols, seen = live[i], sig[i].cols, proj[i]
            lost = 0.0
            for j, v in enumerate(slots[i]):
                lost += 1 - len(vals[v]) / len(seen[j])
            if lost < 0.25:
                continue
            for j, v in enumerate(slots[i]):
                if len(vals[v]) < len(seen[j]):
                    keep = map(vals[v].__contains__, map(cols[j].__getitem__, rs))
                    rs = list(itertools.compress(rs, keep))
            if not rs:
                return False
            live[i] = rs
            for j, v in enumerate(slots[i]):
                seen[j] = p = set(map(cols[j].__getitem__, rs))
                if len(p) < len(vals[v]):
                    vals[v] = p

        width = len(self.values)
        self.alive, self.counts = [], []
        for s, rs in zip(sig, live):
            total = len(s.rows)
            if len(rs) == total:
                self.alive.append(bytearray(b"\x01") * total)
                self.counts.append([c[:] for c in s.counts])
                continue
            if 2 * len(rs) <= total:  # count the live rows into zeroed arrays
                alive, rows, sign = bytearray(total), rs, 1
                counts = [
                    bytearray(width) if type(c) is bytearray else [0] * width for c in s.counts
                ]
            else:  # count the dead rows out of copied full counts
                alive, sign = bytearray(b"\x01") * total, -1
                rows = set(range(total)).difference(rs)
                counts = [c[:] for c in s.counts]
            flag = sign > 0
            for r in rows:
                alive[r] = flag
                for cnt, val in zip(counts, s.rows[r]):
                    cnt[val] += sign
            self.alive.append(alive)
            self.counts.append(counts)

        self.dom, self.size = [], []
        queue: deque[int] = deque()
        for v, d in enumerate(vals):
            flags = bytearray(width)
            for val in d:
                flags[val] = 1
            self.dom.append(flags)
            self.size.append(len(d))
            # values a live row still holds but a later cut removed
            gone = set()
            for i, j in occ[v]:
                if len(proj[i][j]) > len(d):
                    gone |= proj[i][j] - d
            for val in gone:
                queue += (v, val)
        return self._propagate(queue, None)

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
        row = tuple(map(self.eid.get, fact.args))
        for i in self.by_rel.get(fact.relation, ()):
            r = self.sig[i].row_of(row)
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
    mapping = _solve(_split_components(_atoms_of(source), base), {}, base, tgt)
    if mapping is None:
        return None
    rest = _elements_of(source) - set(mapping)
    if rest:
        pool = _elements_of(target) | set(tgt_tuple)
        if not pool:
            return None
        mapping.update(dict.fromkeys(rest, min(pool)))
    return Hom(mapping, source, target)


def _split_components(atoms, base):
    """Group atoms by connected component of their unanchored terms.

    Yields (atoms, var order, key) triples; fully anchored atoms form
    their own singleton groups. The var order is first occurrence in the
    component's sorted atom list, and the key is the component with each
    unanchored var replaced by its number in that order and each anchored
    one by its target value, so components with equal keys have the same
    homomorphisms up to that renaming.
    """
    sets = _UnionFind()
    for a in atoms:
        free = [t for t in a.args if t not in base]
        for u, w in zip(free, free[1:]):
            sets.union(u, w)

    groups: dict[Term | None, list[Atom]] = {}
    for a in atoms:
        free = [t for t in a.args if t not in base]
        rep = sets.find(free[0]) if free else None
        groups.setdefault(rep, []).append(a)

    comps = [[a] for a in groups.pop(None, [])]
    comps += [sorted(groups[rep]) for rep in sorted(groups, key=lambda r: groups[r][0])]
    for comp in comps:
        index: dict[Term, int] = {}
        key = tuple(
            (a.relation, tuple(
                base[t] if t in base else index.setdefault(t, len(index)) for t in a.args
            ))
            for a in comp
        )
        yield comp, list(index), key


def _solve(comps, states, base, tgt: _Target, drop=None) -> dict | None:
    """The first homomorphism of each component into tgt, merged into one
    mapping extending base, or None if some component has none.

    Components sharing a key are solved once. A key's `_Search` is built
    on its first use and kept in `states`; with `drop`, that target fact
    is dropped from each search for the solve and restored after.
    """
    mapping = dict(base)
    solved: dict[tuple, list] = {}
    for atoms, order, key in comps:
        if key not in solved:
            if key not in states:
                states[key] = _Search(atoms, base, tgt)
            search = states[key]
            if drop is None:
                sol = next(search.solutions(), None)
            else:
                mark = len(search.trail)
                sol = next(search.solutions(), None) if search.drop(drop) else None
                search.undo(mark)
            if sol is None:
                return None
            solved[key] = [sol[v] for v in order]
        mapping.update(zip(order, solved[key]))
    return mapping


def evaluate(q: ConjunctiveQuery, db: Database) -> set:
    """q(D): every tuple ā with a homomorphism (D_q, x̄) → (D, ā)."""
    check_schemas_agree(q, db)
    if q.is_boolean:
        return {()} if find_hom(q, (), db, ()) is not None else set()
    target = _Target(db.facts)
    distinct = sorted(set(q.free_vars))
    cands = []
    for v in distinct:
        cand = None
        for a in q.atoms:
            for p, t in enumerate(a.args):
                if t == v:
                    here = set(map(itemgetter(p), target.rels.get(a.relation, ())))
                    cand = here if cand is None else cand & here
        cands.append(target.values if cand is None else [target.values[i] for i in sorted(cand)])

    answers = set()
    for combo in itertools.product(*cands):
        assign = dict(zip(distinct, combo))
        tgt = tuple(assign[v] for v in q.free_vars)
        if _find_hom(q, q.free_vars, db, tgt, target) is not None:
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
        tgt = _Target(current.atoms)
        states: dict[tuple, _Search] = {}
        for a in current.atoms:
            if a in fixed:
                continue
            h = _solve(comps, states, base, tgt, a)
            if h is None:
                fixed.add(a)
                continue
            image = [Atom(b.relation, tuple(map(h.get, b.args))) for b in current.atoms]
            current = ConjunctiveQuery(current.free_vars, tuple(image), q.name)
            break
        else:
            return current


def endomorphisms(q: ConjunctiveQuery) -> list[Hom]:
    """All homomorphisms from q to itself fixing the free variables."""
    base = {v: v for v in q.free_vars}
    search = _Search(q.atoms, base, _Target(q.atoms))
    return [Hom(sol, q, q) for sol in search.solutions()]
