"""Homomorphism search, CQ evaluation, containment, and cores.

`_Target` is the one place where a target is indexed. It reads one
interned form, each fact once as a row of element ids per relation (ids
in canonical order, so id order is `Term` order): a Database's, made
once and shared by every call into it, or a query's, made per call. Its
hash indexes, keyed by (relation, bound positions, repeated positions),
are built once per form and read by two algorithms, each for its job:

- `_Target.join` lists answer sets: evaluate's answers, the cover game's
  members, the chase's triggers and tgd head checks. It takes the
  anchors as `_Search` does, a map from source terms to target terms,
  and numbers the terms itself. Set at a time, each step extends every
  partial solution by one atom through one index lookup, and a variable
  is dropped once no later atom and no answer reads it (Yannakakis
  1981). Listing them with `_Search` would pay an O(|domain|) assign,
  propagate and undo at every node.
- `_Search` finds a first homomorphism, for find_hom and core, and lists
  endomorphisms. It is exact backtracking that keeps generalized arc
  consistency by support counting (AC-4, Mohr & Henderson 1986):
  - The rows fitting a source atom (its relation, its repetition pattern
    and its anchored positions) are read from the index at the anchor
    key, once per such signature, and indexed per variable slot and value.
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
core share one solver, `_solve`, which merges the first solution of one
`_Search` per group of the source (`_groups`): its fully anchored atoms,
then each connected component of the rest.

core() computes a minimal retract (Hell & Nešetřil 1992). For the
current query it keeps one propagated state per group, with the query
itself as target, and tests an atom by dropping that fact from the
states, propagating, searching, and undoing back to the mark. On
success it jumps to the image of the homomorphism found and repeats. An
atom once shown non-removable is never tested again: if q ↛ q − b, no
image I ⊆ q of q that contains b maps into I − b, since q → I → I − b
would follow. So b lies in every endomorphism's image.

Every group's search pins each variable of such an atom to its own value
(`_Search.pin`): a state where one has lost it is a wipe-out. The
verdicts stay. Take any h: q → q − a. Some power r = hⁿ is idempotent,
an endomorphism whose image lies in q − a and holds b, so r fixes b's
terms: r is a homomorphism q → q − a that meets every pin. The witnesses
stay too. Pins never change a state, they only cut branches, so a search
during which no pin cut a branch walks the unpinned tree and finds its
first solution; one during which a pin did cut is run again unpinned
(`_solve`). Only a drop test that succeeds after a cut pays for that.

Nor is an atom d tested whose terms are all free variables or terms of
atoms shown non-removable, whatever the number of groups. Were d
removable, some core C ⊆ q − d would be a retract of q, under a
retraction ρ that fixes C pointwise. Every non-removable atom lies in C,
so ρ fixes every term of d, and ρ(d) = d lies in C, against C ⊆ q − d.
The first removable atom, and so every jump, stays the same.

`_full_reducer`, built on `join` and set semijoins, decides whether a
homomorphism exists from a source with a decomposition of width k: the
questions `approx` asks of a candidate it has shown to be in GHW(k). It
joins each bag's atoms and cover, at most k atoms wide, then semijoins
each child into its parent from the leaves up (Yannakakis 1981). It is exact: each bag
relation holds every homomorphism's restriction to that bag, and because
the bags sharing a variable are connected in the tree, bag tuples that
agree along its edges glue into one homomorphism. `_Search` would pay
arc consistency over the whole target at every node, and the cut join
of a whole acyclic body has no polynomial bound.
"""

from __future__ import annotations

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
    _components,
    _intern,
    check_schemas_agree,
)
from cqapprox.width import _cover


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
    return thing.variables if isinstance(thing, ConjunctiveQuery) else thing.adom


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
    """A target's interned form (`model._intern`) and its indexes, built
    on first use. The hash index per relation and pattern, which `join`
    and `_Rows` read, stays with the form, which a Database shares with
    every call; the rows fitting each signature, for `_Search`, hold
    anchor values and stay with this object, made per call."""

    def __init__(self, thing):
        if isinstance(thing, Database):
            form = thing._interned()
        else:
            form = _intern(thing.atoms if isinstance(thing, ConjunctiveQuery) else thing)
        self.values, self.eid, self.rels, self.indexes = form
        self.sigs: dict[tuple, _Rows] = {}

    def rows(self, relation, pattern) -> _Rows:
        key = (relation, pattern)
        if key not in self.sigs:
            self.sigs[key] = _Rows(relation, pattern, self)
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

    def join(self, atoms, base, keep):
        """Yield the image of the `keep` terms, a tuple of ids, under each
        homomorphism from `atoms` into the facts that extends `base`:
        each image once, where the homomorphisms first reach it.

        `base` maps source terms to target terms, as `_Search` takes it;
        a base term that no atom holds is ignored, and a value outside
        the target gets id -1, which no fact holds, so it matches nothing.
        Every kept term must occur in some atom. Set at a time, each step
        extends every partial solution (the ids bound so far) by one
        atom, through one lookup of its bound values in `index`.
        Extensions come in fact order, so homomorphisms come in
        lexicographic order of the facts matched. A term that neither
        `keep` nor a later atom reads is then cut, keeping the first of
        any partials it alone told apart: the join stays polynomial in its
        answers where listing homomorphisms is not.
        """
        terms = {t for a in atoms for t in a.args}
        start = [t for t in base if t in terms]
        at = dict(zip(start, itertools.count()))  # term -> position in a partial
        partials = [tuple([self.eid.get(base[t], -1) for t in start])]
        cuts = []  # from the last atom but one back, the terms cut after each
        if cutting := bool(terms.difference(keep, start)):  # a term neither bound nor kept
            later = set(keep)
            for a in reversed(atoms):
                cuts.append(set(a.args) - later)
                later.update(a.args)
            del cuts[0]  # the images' dedupe cuts after the last atom
        for a in atoms:
            pattern, key, fresh = [], [], {}
            for t in a.args:
                if t in at:
                    pattern.append(None)
                    key.append(at[t])
                else:
                    pattern.append(fresh.setdefault(t, len(fresh)))
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
            for t in fresh:
                at[t] = len(at)
            if cuts and (cut := cuts.pop()):
                live = [t for t in at if t not in cut]
                partials = list(dict.fromkeys(_project(partials, [at[t] for t in live])))
                at = dict(zip(live, itertools.count()))
        if list(at) == list(keep):
            return iter(partials)
        images = _project(partials, list(map(at.__getitem__, keep)))
        return iter(dict.fromkeys(images)) if cutting else images


def _project(rows, positions):
    """Each row's items at `positions`, as a tuple."""
    if len(positions) > 1:
        return map(itemgetter(*positions), rows)
    return zip(map(itemgetter(*positions), rows)) if positions else (() for _ in rows)


class _Rows:
    """The target facts fitting one signature, reduced to slot values.

    A signature is a relation plus a pattern: per argument position,
    either the anchored target value or the number of the variable slot
    (slots numbered by first occurrence). `rows[r]` holds the r-th fitting
    fact's values per slot: the extensions `_Target.index` keeps at the
    anchor key, with the anchored positions bound. `cols[j]` holds the
    values of slot j in row order, `hits[j]` maps a value id to the rows
    holding it in slot j, and `counts[j]` counts them.
    """

    __slots__ = ("shape", "rows", "cols", "hits", "counts", "at")

    def __init__(self, relation, pattern, target):
        key = tuple([target.eid.get(t, -1) for t in pattern if not isinstance(t, int)])
        shape = tuple([s if isinstance(s, int) else None for s in pattern]) if key else pattern
        self.shape = shape, key
        rows = target.index(relation, shape)
        if key:
            k = key if len(key) > 1 else key[0]  # as `index` keys it
            rows = ([()] if k in rows else []) if len(key) == len(pattern) else rows.get(k, [])
        self.rows = rows
        self.cols = list(zip(*rows))
        self.hits = [{} for _ in set(shape) - {None}]
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

    def id_rows(self) -> list[tuple]:
        """Each fitting fact's id row, rebuilt from the anchor key and its
        slot values."""
        shape, key = self.shape
        if not key and len(shape) == len(self.hits):  # neither anchored nor repeated
            return self.rows
        anchored = itertools.count(len(self.hits))
        fill = [next(anchored) if s is None else s for s in shape]
        return [tuple(map((row + key).__getitem__, fill)) for row in self.rows]

    def row_of(self, row) -> int | None:
        """The number of the fitting fact with id row `row`, or None."""
        if self.at is None:
            self.at = {f: r for r, f in enumerate(self.id_rows())}
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
        self.vid = vid
        self.pins = [-1] * len(self.vars)  # per variable, the value id pinned, or -1: see pin()
        self.cut = False  # whether a pin has cut a branch: see _solve

        self.sig: list[_Rows] = []
        self.slots: list[tuple[int, ...]] = []
        self.by_rel: dict[str, dict[_Rows, list[int]]] = {}  # relation -> signature -> atoms
        for i, a in enumerate(atoms):
            slots: list[int] = []
            pattern = []
            for t in a.args:
                if t not in self.base and vid[t] not in slots:
                    slots.append(vid[t])
                pattern.append(self.base[t] if t in self.base else slots.index(vid[t]))
            self.sig.append(target.rows(a.relation, tuple(pattern)))
            self.slots.append(tuple(slots))
            self.by_rel.setdefault(a.relation, {}).setdefault(self.sig[i], []).append(i)

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

        Atoms with one signature and the same surviving rows, such as the
        doubling family's twin atoms, share one state, built once, copied.
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
        built = {}  # (signature, surviving rows) -> the first such atom's arrays
        for s, rs in zip(sig, live):
            total = len(s.rows)
            key = (s, None if len(rs) == total else tuple(rs))
            if key in built:  # another atom's state: copy it
                alive, counts = built[key]
                self.alive.append(alive[:])
                self.counts.append([c[:] for c in counts])
                continue
            if 2 * len(rs) <= total:  # count the live rows into zeroed arrays
                alive, rows, sign = bytearray(total), rs, 1
                counts = [
                    bytearray(width) if type(c) is bytearray else [0] * width for c in s.counts
                ]
            else:  # count the dead rows, if any, out of copied full counts
                alive, sign = bytearray(b"\x01") * total, -1
                rows = set(range(total)).difference(rs) if len(rs) < total else ()
                counts = [c[:] for c in s.counts]
            flag = sign > 0
            for r in rows:
                alive[r] = flag
                for cnt, val in zip(counts, s.rows[r]):
                    cnt[val] += sign
            built[key] = alive, counts
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
        return self._propagate(queue)

    def _kill(self, i, rs, queue) -> bool:
        """Kill the live rows `rs` of atom i, queueing every value whose
        last support in atom i goes. False if a domain or atom empties, or
        a pinned variable loses its own value.

        A killed row is always finished, every slot count lowered, before
        returning: undo() restores whole rows."""
        alive, counts, slots, pins = self.alive[i], self.counts[i], self.slots[i], self.pins
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
                    if pins[v] == val:
                        wiped = self.cut = True
                        continue
                    queue += (v, val)
            if wiped:
                return False
        return True

    def _propagate(self, queue) -> bool:
        """Process removed (var, value) pairs, oldest first, to the
        arc-consistent fixpoint. Oldest first finds a wipe-out in far
        fewer steps than newest first on the drops core() makes."""
        occ, sig, counts, pop = self.occ, self.sig, self.counts, queue.popleft
        while queue:
            v = pop()
            d = pop()
            for i, j in occ[v]:
                # a count of 0: every row of atom i holding d at slot j is dead
                if counts[i][j][d] and not self._kill(i, sig[i].hits[j][d], queue):
                    return False
        return True

    def _assign(self, v, val) -> bool:
        if self.pins[v] >= 0 and self.pins[v] != val:
            self.cut = True
            return False
        dv = self.dom[v]
        queue: deque[int] = deque()
        for d in itertools.compress(range(len(dv)), dv):
            if d != val:
                dv[d] = 0
                queue += (v, d)
                self.trail.append(~(d << self.vbits | v))
        self.size[v] = 1
        return self._propagate(queue)

    def pin(self, terms):
        """Pin each of `terms` that is a variable here to its own value: a
        state where it has lost that value is a wipe-out, in `_kill` and
        `_assign`. Sound only for a target holding the source, where some
        solution, if any, fixes every pinned variable (see core). Pins
        never change the state: they only cut branches, and set `cut`."""
        for t in terms:
            v = self.vid.get(t)
            if v is not None:
                self.pins[v] = self.eid[t]

    def drop(self, fact) -> bool:
        """Remove one target fact and propagate; False on a wipe-out.

        Undo with `undo(mark)`, taking the mark from `len(self.trail)`.
        """
        queue: deque[int] = deque()
        row = tuple(map(self.eid.get, fact.args))
        alive = self.alive
        for sig, atoms in self.by_rel.get(fact.relation, {}).items():
            r = sig.row_of(row)
            if r is None:
                continue
            for i in atoms:
                if alive[i][r] and not self._kill(i, (r,), queue):
                    return False
        return self._propagate(queue)

    def undo(self, mark) -> None:
        """Pop the trail back to `mark`."""
        trail, dom, size = self.trail, self.dom, self.size
        alive, counts, sig = self.alive, self.counts, self.sig
        abits, vbits = self.abits, self.vbits
        amask, vmask = (1 << abits) - 1, (1 << vbits) - 1
        entries = trail[mark:]
        del trail[mark:]
        for e in reversed(entries):
            if e < 0:
                e = ~e
                v, d = e & vmask, e >> vbits
                dom[v][d] = 1
                size[v] += 1
            else:
                i, r = e & amask, e >> abits
                alive[i][r] = 1
                for cnt, val in zip(counts[i], sig[i].rows[r]):
                    cnt[val] += 1

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
        unassigned = bytearray(b"\x01") * n
        chosen = [0] * n
        # frames: (var, remaining values in reverse order, trail mark)
        frames: list[tuple[int, list[int], int]] = []

        def open_frame():  # on the fewest values, ties to the least index
            v = min(itertools.compress(range(n), unassigned), key=size.__getitem__)
            vals = list(itertools.compress(ids, dom[v]))
            vals.reverse()
            frames.append((v, vals, len(trail)))
            unassigned[v] = 0

        open_frame()
        while frames:
            v, vals, mark = frames[-1]
            self.undo(mark)  # clear the previous attempt
            if not vals:
                frames.pop()
                unassigned[v] = 1
                continue
            chosen[v] = val = vals.pop()
            if not self._assign(v, val):
                continue
            if len(frames) == n:
                sol = dict(self.base)
                for u, _, _ in frames:
                    sol[self.vars[u]] = self.values[chosen[u]]
                yield sol
                continue
            open_frame()


def find_hom(source, src_tuple, target, tgt_tuple) -> Hom | None:
    """A homomorphism source→target with h(src_tuple) = tgt_tuple, or None.

    Each group of the source (`_groups`) is searched on its own, and no
    group's search is built once an earlier group has no solution.
    """
    check_schemas_agree(source, target)
    base = _anchor_map(src_tuple, tgt_tuple)
    if base is None:
        return None
    tgt = _Target(target)
    mapping = _solve((_Search(g, base, tgt) for g in _groups(_atoms_of(source), base)), base)
    if mapping is None:
        return None
    rest = _elements_of(source) - set(mapping)
    if rest:
        pool = _elements_of(target) | set(tgt_tuple)
        if not pool:
            return None
        mapping.update(dict.fromkeys(rest, min(pool)))
    return Hom(mapping, source, target)


def _groups(atoms, base) -> list[list[Atom]]:
    """The fully anchored atoms as one group, then `_components`'s groups."""
    anchored, groups = _components(atoms, base)
    return [anchored, *groups] if anchored else groups


def _solve(searches, base, drop=None) -> dict | None:
    """The first solution of each search, merged into one mapping
    extending base, or None as soon as one has none. With `drop`, that
    target fact is dropped from each search for its solve, then restored.

    A solution found while no pin cut a branch is the unpinned search's
    first: pins leave every state as it was, so both searches walked the
    same tree. One found after a cut is searched for again unpinned, as
    an earlier solution may lie in the branch cut."""
    mapping = dict(base)
    for search in searches:
        if drop is None:
            sol = next(search.solutions(), None)
        else:
            mark, search.cut = len(search.trail), False
            sol = next(search.solutions(), None) if search.drop(drop) else None
            search.undo(mark)
            if sol is not None and search.cut:
                pins, search.pins = search.pins, [-1] * len(search.vars)
                search.drop(drop)
                sol = next(search.solutions())
                search.undo(mark)
                search.pins = pins
        if sol is None:
            return None
        mapping.update(sol)
    return mapping


def _join_shape(atoms, base, keep) -> tuple[tuple, tuple]:
    """What fixes the answers of `_Target.join(atoms, base, keep)` up to
    renaming terms: the atoms' relations with their terms numbered by
    first occurrence, then the anchor value per number; and the numbers
    of the terms kept, in `keep` order."""
    number, shape = {}, []  # the key names no term
    for a in atoms:
        shape.append(a.relation)
        for t in a.args:
            shape.append(number.setdefault(t, len(number)))
    return (*shape, *map(base.get, number)), tuple(map(number.__getitem__, keep))


def _full_reducer(source, src_tuple, target, tgt_tuple, td) -> bool:
    """Is there a homomorphism source → target with h(src_tuple) =
    tgt_tuple? Decided along td, a decomposition of the source's
    unanchored terms whose bags each have a cover of at most k atoms:
    `ghw1_membership`'s join tree, or one that `validate_decomposition`
    accepted. Raises the cover game's ArityErrors, and is False on a
    clashing anchor map, as the game is.

    Each atom is placed at a bag holding its unanchored terms, found by
    looking its term set up among the bags (a join tree's bags are those
    sets); the fully anchored atoms are checked once. A node's relation
    is the join of its placed atoms, and of a least cover of its bag
    when they leave part of it uncovered, kept to the bag's terms; nodes
    of one join shape share one join. Semijoins from the leaves up then
    cut each parent to the tuples that agree with some tuple of each
    child, and the answer is whether every relation stays non-empty
    (exact, as the module docstring shows).
    """
    check_schemas_agree(source, target)
    base = _anchor_map(src_tuple, tgt_tuple)
    if base is None:
        return False
    tgt = _Target(target)
    bags = td.bags
    node_of = {frozenset(bag): n for n, bag in bags.items()}  # a cert's bags may be sets
    placed: dict[int, list[Atom]] = {}
    held = []  # the fully anchored atoms
    for a in source.atoms:
        free = frozenset(a.args).difference(base)
        if not free:
            held.append(a)
            continue
        n = node_of.get(free)
        if n is None:  # a certificate's bag may hold more than the atom's terms
            n = next(m for m, bag in bags.items() if free <= bag)
        placed.setdefault(n, []).append(a)
    if held and next(tgt.join(held, base, ()), None) is None:
        return False

    kids: dict[int, list[int]] = {}
    order = []  # breadth first from the root: parents before children
    for n, p in td.parent.items():
        if p is None:
            order.append(n)
        else:
            kids.setdefault(p, []).append(n)
    for n in order:
        order.extend(kids.get(n, ()))
    shapes: dict[tuple, list] = {}
    semis: dict[int, list] = {}  # per node, its children's shared terms and their images
    by_set = {a.arg_set: a for a in source.atoms}
    for n in reversed(order):
        bag, atoms = bags[n], placed.get(n, [])
        if not bag.issubset([t for a in atoms for t in a.args]):
            cover = map(by_set.__getitem__, _cover(bag, by_set, None))
            atoms = list(dict.fromkeys([*cover, *atoms]))
        keep = sorted(bag)
        shape = _join_shape(atoms, base, keep)
        if shape not in shapes:
            shapes[shape] = list(tgt.join(_bound_first(atoms, base), base, keep))
        rows = shapes[shape]
        for shared, seen in semis.pop(n, ()):
            get = itemgetter(*map(keep.index, shared))
            rows = [r for r in rows if get(r) in seen]
        if not rows:
            return False
        p = td.parent[n]
        if p is not None and (shared := sorted(bag & bags[p])):
            seen = set(map(itemgetter(*map(keep.index, shared)), rows))
            semis.setdefault(p, []).append((shared, seen))
    return True


def evaluate(q: ConjunctiveQuery, db: Database) -> set:
    """q(D): every tuple ā with a homomorphism (D_q, x̄) → (D, ā), by one
    join of the body cut to the head variables it binds. A head variable
    outside the body ranges over the active domain."""
    check_schemas_agree(q, db)
    target = _Target(db)
    body = {t for a in q.atoms for t in a.args}
    inside = [v for v in dict.fromkeys(q.free_vars) if v in body]
    outside = list(set(q.free_vars).difference(body))
    values, answers = target.values, set()
    for image in target.join(_bound_first(q.atoms, ()), {}, inside):
        h = dict(zip(inside, map(values.__getitem__, image)))
        for rest in itertools.product(values, repeat=len(outside)):
            h.update(zip(outside, rest))
            answers.add(tuple(map(h.__getitem__, q.free_vars)))
    return answers


def _bound_first(atoms, bound) -> list[Atom]:
    """The atoms in join order: next the first one with the most terms
    bound, by `bound` or by the atoms before it."""
    bound, rest, out = set(bound), list(atoms), []
    while rest:
        a = max(rest, key=lambda b: sum(t in bound for t in b.args))
        rest.remove(a)
        out.append(a)
        bound.update(a.args)
    return out


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

    Each group's search pins every variable of the atoms shown
    non-removable to its own value, so a drop test ends once one has lost
    it. Some idempotent power of any homomorphism current → current − a
    is a retraction that keeps every such atom and so meets the pins: the
    verdict stays. A test that succeeds after a pin cut a branch is run
    again unpinned, so the homomorphism stays too (see the module
    docstring).

    An atom whose terms are all free variables or terms of atoms shown
    non-removable is fixed without a test: a retraction onto a core
    fixes that core pointwise, the core holds every non-removable atom,
    so the retraction maps such an atom to itself and the core holds it
    too. The first removable atom and its homomorphism do not change.
    """
    base = {v: v for v in q.free_vars}
    current = q
    held = set(base)  # the free variables and the terms of atoms shown non-removable
    while not all(held.issuperset(a.args) for a in current.atoms):
        tgt = _Target(current)
        searches = [_Search(g, base, tgt) for g in _groups(current.atoms, base)]
        for search in searches:
            search.pin(held)
        for a in current.atoms:
            if held.issuperset(a.args):  # every retraction fixes a: no test
                continue
            h = _solve(searches, base, a)
            if h is not None:
                image = [Atom(b.relation, tuple(map(h.get, b.args))) for b in current.atoms]
                current = ConjunctiveQuery(current.free_vars, tuple(image), q.name)
                break
            for search in searches:
                search.pin(a.args)
            held.update(a.args)
    return current


def endomorphisms(q: ConjunctiveQuery) -> list[Hom]:
    """All homomorphisms from q to itself fixing the free variables."""
    base = {v: v for v in q.free_vars}
    search = _Search(q.atoms, base, _Target(q))
    return [Hom(sol, q, q) for sol in search.solutions()]
