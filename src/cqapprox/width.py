"""Generalized hypertreewidth machinery.

Decompositions cover only the existentially quantified variables; the
width of a bag is the least number of query atoms whose argument sets
jointly cover it. GHW(1) membership (acyclicity) is decided exactly by
the weight of a maximum spanning forest of the hyperedge intersection
graph, which is also the join tree; small cyclic instances get an exact
width via elimination-order dynamic programming over variable subsets.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from cqapprox.model import (
    BudgetError,
    ConjunctiveQuery,
    ParseError,
    Term,
    Var,
    _UnionFind,
)


@dataclass
class TreeDecomposition:
    """Rooted tree with bags of existential variables."""

    parent: dict[int, int | None]  # node id -> parent id, None at the root
    bags: dict[int, frozenset[Term]]
    width: int

    @property
    def nodes(self) -> list[int]:
        return sorted(self.parent)


def cover_number(bag, atoms, limit=None) -> int | None:
    """Fewest atom argument sets covering bag, or None (or > limit)."""
    return _cover_number(bag, {a.arg_set for a in atoms}, limit)


def _cover_number(bag, arg_sets, limit) -> int | None:
    """cover_number over the atoms' distinct argument sets, built once by
    a caller that covers many bags."""
    need = frozenset(bag)
    if not need:
        return 0
    sets = [s for s in arg_sets if s & need]
    top = len(sets) if limit is None else min(limit, len(sets))
    for p in range(1, top + 1):
        for combo in itertools.combinations(sets, p):
            if need <= frozenset().union(*combo):
                return p
    return None


def _existential_edges(q: ConjunctiveQuery):
    """Distinct nonempty existential argument sets of q's atoms."""
    evars = q.existential_vars
    out = []
    seen = set()
    for a in q.atoms:
        s = frozenset(a.args) & evars
        if s and s not in seen:
            seen.add(s)
            out.append(s)
    return out


def ghw1_membership(q: ConjunctiveQuery) -> TreeDecomposition | None:
    """A width-1 decomposition when q is acyclic, else None.

    Kruskal picks a maximum-weight spanning forest of the hyperedge
    intersection graph, a pair of existential argument sets weighing the
    size of their intersection. For each variable v, the forest edges
    between sets holding v form a forest on its occ(v) sets, so the
    weight is at most sum(occ(v) - 1), with equality iff each v's sets
    form a subtree: iff the forest is a join tree. An acyclic query has
    a join tree, which weighs the sum, so its maximum forest reaches the
    sum too (Maier 1983).
    """
    edges = _existential_edges(q)
    # weight of the chosen forest must reach sum over vars of (occurrences-1)
    occ: dict[Term, int] = {}
    for e in edges:
        for v in e:
            occ[v] = occ.get(v, 0) + 1
    target = sum(c - 1 for c in occ.values())

    order = {i: e for i, e in enumerate(sorted(edges, key=sorted))}
    pair_weights = sorted(
        (
            (-len(order[i] & order[j]), i, j)
            for i, j in itertools.combinations(order, 2)
            if order[i] & order[j]
        ),
    )
    parent_of: dict[int, int | None] = {i: None for i in order}
    sets = _UnionFind()
    total = 0
    for negw, i, j in pair_weights:
        if not sets.union(j, i):
            continue
        # re-root j's component at j, then hang it off i
        chain, node = [], j
        while node is not None:
            chain.append(node)
            node = parent_of[node]
        for a, b in zip(chain, chain[1:]):
            parent_of[b] = a
        parent_of[j] = i
        total += -negw
    if total < target:
        return None

    parent: dict[int, int | None] = {0: None}
    bags: dict[int, frozenset[Term]] = {0: frozenset()}
    for i in order:
        node = i + 1
        parent[node] = 0 if parent_of[i] is None else parent_of[i] + 1
        bags[node] = order[i]
    return TreeDecomposition(parent, bags, 1 if edges else 0)


def validate_decomposition(q: ConjunctiveQuery, td: TreeDecomposition, k: int) -> bool:
    """Check the three decomposition conditions at cover width ≤ k."""
    evars = q.existential_vars
    nodes = set(td.parent)
    if set(td.bags) != nodes:
        return False
    roots = [n for n, p in td.parent.items() if p is None]
    if nodes:
        if len(roots) != 1:
            return False
        seen = set(roots)
        frontier = list(roots)
        children: dict[int, list[int]] = {n: [] for n in nodes}
        for n, p in td.parent.items():
            if p is not None:
                if p not in nodes:
                    return False
                children[p].append(n)
        while frontier:
            n = frontier.pop()
            for ch in children[n]:
                if ch in seen:
                    return False
                seen.add(ch)
                frontier.append(ch)
        if seen != nodes:
            return False

    for bag in td.bags.values():
        if not bag <= evars:
            return False

    for a in q.atoms:
        ex = frozenset(a.args) & evars
        if ex and not any(ex <= bag for bag in td.bags.values()):
            return False

    # per-variable connectivity: in a tree, the nodes holding v are
    # connected iff at most one of them has no parent holding v
    tops: set[Term] = set()
    for n, bag in td.bags.items():
        p = td.parent[n]
        for v in bag if p is None else bag - td.bags[p]:
            if v in tops:
                return False
            tops.add(v)

    arg_sets = {a.arg_set for a in q.atoms}
    return all(_cover_number(bag, arg_sets, k) is not None for bag in td.bags.values())


_GHW_VAR_GUARD = 12


def compute_ghw(q: ConjunctiveQuery, kmax: int) -> int | None:
    """Exact generalized hypertreewidth, or None when it exceeds kmax.

    An acyclic query (ghw1_membership) has width 1 at any size. A cyclic
    one goes to a dynamic program over subsets of existential variables:
    the last variable eliminated within a subset determines a bag (itself
    plus its neighborhood through already-eliminated variables), and the
    cover number of that bag feeds the running maximum. Only that search
    is guarded: a cyclic query with more than 12 existential variables
    raises BudgetError.
    """
    return _ghw(q, kmax, ghw1_membership(q))


def _ghw(q: ConjunctiveQuery, kmax: int, td: TreeDecomposition | None) -> int | None:
    """compute_ghw given td = ghw1_membership(q), which a caller that
    also reports the decomposition computes once."""
    if td is not None:
        return 1 if kmax >= 1 else None
    evars = sorted(q.existential_vars)
    n = len(evars)
    if n > _GHW_VAR_GUARD:
        raise BudgetError(
            f"exact width search supports at most {_GHW_VAR_GUARD} "
            f"existential variables, got {n}"
        )

    idx = {v: i for i, v in enumerate(evars)}
    adj = [0] * n
    for a in q.atoms:
        ev = sorted({idx[t] for t in a.args if t in idx})
        for i, j in itertools.combinations(ev, 2):
            adj[i] |= 1 << j
            adj[j] |= 1 << i

    arg_sets = {a.arg_set for a in q.atoms}
    cover_cache: dict[int, int | None] = {}

    def bag_cover(bits: int) -> int | None:
        if bits not in cover_cache:
            bag = [evars[i] for i in range(n) if bits >> i & 1]
            cover_cache[bits] = _cover_number(bag, arg_sets, kmax)
        return cover_cache[bits]

    def bag_of(v: int, eliminated: int) -> int:
        """v plus every survivor reachable through eliminated vertices."""
        seen = 1 << v
        stack = [v]
        bag = 1 << v
        while stack:
            u = stack.pop()
            rest = adj[u] & ~seen
            seen |= rest
            while rest:
                w = rest & -rest
                rest ^= w
                wi = w.bit_length() - 1
                if eliminated >> wi & 1:
                    stack.append(wi)
                else:
                    bag |= w
        return bag

    best: dict[int, int] = {0: 0}
    for size in range(1, n + 1):
        nxt: dict[int, int] = {}
        for elim, width in best.items():
            for v in range(n):
                if elim >> v & 1:
                    continue
                cov = bag_cover(bag_of(v, elim))
                if cov is None:
                    continue
                w2 = max(width, cov)
                key = elim | 1 << v
                if nxt.get(key, kmax + 1) > w2:
                    nxt[key] = w2
        best = {s: w for s, w in nxt.items() if w <= kmax}
        if not best:
            return None
    return best.get((1 << n) - 1)


# --- certificate files --------------------------------------------------------

_CERT_LINE = re.compile(
    r"node\s+(\d+)\s+parent\s+(\d+|-)\s+bag\s*(.*)\Z"
)


def serialize_decomposition(td: TreeDecomposition) -> str:
    lines = []
    for n in td.nodes:
        p = td.parent[n]
        bag = ",".join(sorted(t.name for t in td.bags[n]))
        lines.append(f"node {n} parent {'-' if p is None else p} bag {bag}")
    return "\n".join(lines)


def parse_decomposition(text: str) -> TreeDecomposition:
    """One line per node: ``node <id> parent <id|-> bag v1,v2,...``."""
    parent: dict[int, int | None] = {}
    bags: dict[int, frozenset[Term]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _CERT_LINE.match(line)
        if m is None:
            raise ParseError(f"bad decomposition line {raw!r}", lineno, 1)
        node = int(m.group(1))
        if node in parent:
            raise ParseError(f"duplicate node {node}", lineno, 1)
        parent[node] = None if m.group(2) == "-" else int(m.group(2))
        names = [s.strip() for s in m.group(3).split(",") if s.strip()]
        bags[node] = frozenset(Var(s) for s in names)
    # width is advisory on parsed certificates; validation re-derives covers
    return TreeDecomposition(parent, bags, 0)
