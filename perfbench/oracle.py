"""Reference answers that never call the code under measurement.

A naive backtracking join over hash indexes gives exact query answers,
and a GYO reduction decides acyclicity. Both work on the plain data of
``inputs``: atoms are ``(relation, args)`` tuples of strings.
"""

from __future__ import annotations


class Index:
    """Facts by relation and by (relation, position, value)."""

    def __init__(self, facts):
        self.facts = set(facts)
        self.by_rel: dict[str, list] = {}
        self.by_pos: dict[tuple, list] = {}
        for rel, args in self.facts:
            self.by_rel.setdefault(rel, []).append(args)
            for p, val in enumerate(args):
                self.by_pos.setdefault((rel, p, val), []).append(args)

    def candidates(self, atom, binding):
        rel, args = atom
        best = self.by_rel.get(rel, ())
        for p, t in enumerate(args):
            if t in binding:
                hit = self.by_pos.get((rel, p, binding[t]), ())
                if len(hit) < len(best):
                    best = hit
        return best


def _extend(atom, fact, binding):
    """Bindings added by matching atom to fact, or None on a clash."""
    added = {}
    for t, val in zip(atom[1], fact):
        have = binding.get(t, added.get(t))
        if have is None:
            added[t] = val
        elif have != val:
            return None
    return added


def _pick(atoms, binding, index):
    """The remaining atom with the fewest candidate facts."""
    return min(
        range(len(atoms)), key=lambda i: len(index.candidates(atoms[i], binding))
    )


def exists_hom(atoms, index: Index, binding: dict) -> bool:
    """Is there a homomorphism of the atoms into the facts extending binding?"""
    if not atoms:
        return True
    i = _pick(atoms, binding, index)
    atom, rest = atoms[i], atoms[:i] + atoms[i + 1 :]
    for fact in index.candidates(atom, binding):
        added = _extend(atom, fact, binding)
        if added is not None and exists_hom(rest, index, binding | added):
            return True
    return False


def anchor(head, tup):
    """The binding head -> tup, or None when a repeated head variable
    would need two values."""
    binding: dict = {}
    for v, c in zip(head, tup):
        if binding.setdefault(v, c) != c:
            return None
    return binding


def holds(query, index: Index, tup) -> bool:
    """Is tup an answer of the query on the indexed facts?"""
    head, atoms = query
    binding = anchor(head, tup)
    return binding is not None and exists_hom(list(atoms), index, binding)


def answers(query, index: Index) -> set:
    """Every answer tuple. Atoms holding head variables are joined first;
    once the head is bound, one witness for the rest is enough."""
    head, atoms = query
    out: set = set()

    def walk(remaining, binding):
        if all(v in binding for v in head):
            tup = tuple(binding[v] for v in head)
            if tup not in out and exists_hom(remaining, index, binding):
                out.add(tup)
            return
        open_ = [i for i, a in enumerate(remaining) if any(
            v in a[1] and v not in binding for v in head)]
        i = min(open_, key=lambda i: len(index.candidates(remaining[i], binding)))
        atom, rest = remaining[i], remaining[:i] + remaining[i + 1 :]
        for fact in index.candidates(atom, binding):
            added = _extend(atom, fact, binding)
            if added is not None:
                walk(rest, binding | added)

    walk(list(atoms), {})
    return out


def acyclic(edges) -> bool:
    """GYO reduction: repeatedly drop vertices in one edge and edges
    contained in another; acyclic iff nothing but empty edges is left."""
    work = [set(e) for e in edges]
    changed = True
    while changed:
        changed = False
        counts: dict = {}
        for e in work:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        for e in work:
            lone = {v for v in e if counts[v] == 1}
            if lone:
                e -= lone
                changed = True
        for i, e in enumerate(work):
            if any(j != i and e <= f and (e != f or j < i) for j, f in enumerate(work)):
                work.pop(i)
                changed = True
                break
    return not any(work)


def query_acyclic(query) -> bool:
    return acyclic(set(args) for _, args in query[1])
