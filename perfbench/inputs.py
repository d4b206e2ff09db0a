"""Seeded input generators for the three workloads.

Everything here is plain data, built with the standard library only: a
query is ``(head, atoms)`` with variable names as strings, an atom is
``(relation, args)``, and a database is a sorted tuple of atoms over
constant names. The same seed always yields the same values and, through
the ``*_text`` helpers, the same file bytes. The verdict checker reasons
about these values without calling the code under measurement.
"""

from __future__ import annotations

import random

# eval_db: relation arities, and the share of facts drawn for each relation
SCHEMA = {"E": 2, "P": 1, "T": 3}
_MIX = (("E", 0.6), ("T", 0.25), ("P", 0.15))

DB_SIZES = (100, 1000, 10000)


def rng_for(seed: int, label: str) -> random.Random:
    """An independent stream per (seed, label); string seeds hash stably."""
    return random.Random(f"{label}:{seed}")


# --- text form -----------------------------------------------------------


def atom_text(atom) -> str:
    rel, args = atom
    return f"{rel}({', '.join(args)})"


def query_text(query) -> str:
    head, atoms = query
    return f"q({', '.join(head)}) :- {', '.join(atom_text(a) for a in atoms)}.\n"


def db_text(facts) -> str:
    return "".join(atom_text(f) + ".\n" for f in facts)


# --- renamings -----------------------------------------------------------


def variables(query) -> list[str]:
    head, atoms = query
    seen = dict.fromkeys(head)
    for _, args in atoms:
        seen.update(dict.fromkeys(args))
    return list(seen)


def rename(query, rng: random.Random):
    """Rename every variable to ``v<k>`` under a random permutation, which
    moves atoms around in the canonical (sorted) order."""
    names = variables(query)
    perm = list(range(len(names)))
    rng.shuffle(perm)
    ren = {v: f"v{perm[i]}" for i, v in enumerate(names)}
    head, atoms = query
    return (
        tuple(ren[v] for v in head),
        tuple((rel, tuple(ren[t] for t in args)) for rel, args in atoms),
    )


# --- eval_db: databases and queries --------------------------------------


def random_db(n_facts: int, rng: random.Random):
    """n_facts distinct facts over E/2, T/3, P/1.

    Constants sit on a ring of n_facts/5 nodes and most tuples join nearby
    nodes, so short cycles (and hence answers to cyclic queries) occur.
    """
    dom = max(10, n_facts // 5)

    def near(u):
        if rng.random() < 0.8:
            return (u + rng.randint(1, 4)) % dom
        return rng.randrange(dom)

    facts = set()
    while len(facts) < n_facts:
        r = rng.random()
        u = rng.randrange(dom)
        if r < _MIX[0][1]:
            args = (u, near(u))
        elif r < _MIX[0][1] + _MIX[1][1]:
            args = (u, near(u), near(u))
        else:
            args = (u,)
        rel = "E" if len(args) == 2 else "T" if len(args) == 3 else "P"
        facts.add((rel, tuple(f"c{x}" for x in args)))
    return tuple(sorted(facts))


def _fresh_atom(rel: str, shared: dict[int, str], fresh) -> tuple:
    return (rel, tuple(shared.get(p) or fresh() for p in range(SCHEMA[rel])))


def random_query(rng: random.Random, cyclic: bool, n_free: int, n_atoms: int):
    """A random query of n_atoms atoms (at least 3 when cyclic).

    Acyclic queries grow as a join tree: each new atom shares exactly one
    variable with one earlier atom. Cyclic ones start from an E-cycle of
    length 3, or 4 when n_atoms allows, and then grow the same way. The
    head picks n_free distinct variables.
    """
    counter = iter(range(1000))

    def fresh():
        return f"x{next(counter)}"

    if cyclic:
        length = 3 if n_atoms <= 4 else rng.choice((3, 4))
        ring = [fresh() for _ in range(length)]
        atoms = [("E", (ring[i], ring[(i + 1) % length])) for i in range(length)]
    else:
        atoms = [_fresh_atom(rng.choice("ET"), {}, fresh)]
    while len(atoms) < n_atoms:
        rel = rng.choice("EETP")
        parent = rng.choice(atoms)
        share = rng.choice(parent[1])
        pos = rng.randrange(SCHEMA[rel])
        atoms.append(_fresh_atom(rel, {pos: share}, fresh))
    query = ((), tuple(atoms))
    return (_far_apart(query, rng.choice(variables(query)), n_free), tuple(atoms))


def _far_apart(query, start: str, count: int) -> tuple:
    """count head variables far apart in the Gaifman graph: a farthest
    variable from start, then a farthest one from that. Anchors that far
    apart make the cover game propagate through the query to refute a
    probe, instead of failing on the atoms next to the anchors."""
    nbrs: dict[str, set] = {}
    for _, args in query[1]:
        for v in args:
            nbrs.setdefault(v, set()).update(args)

    def farthest(src):
        dist, frontier = {src: 0}, [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in sorted(nbrs[v] - dist.keys()):
                    dist[w] = dist[v] + 1
                    nxt.append(w)
            frontier = nxt
        return max(dist, key=lambda v: (dist[v], v))

    head = []
    for _ in range(count):
        head.append(farthest(head[-1] if head else start))
    return tuple(head)


def probe_tuples(query, facts, rng: random.Random, count: int):
    """Candidate answer tuples for an anchored query: each head variable
    takes a value seen at one of its positions in the database, so some
    probes are answers and some are not."""
    head, atoms = query
    by_rel: dict[str, list] = {}
    for rel, args in facts:
        by_rel.setdefault(rel, []).append(args)
    slots = {}
    for v in head:
        rel, args = next(a for a in atoms if v in a[1])
        slots[v] = (rel, args.index(v))
    out = []
    for _ in range(count):
        out.append(
            tuple(rng.choice(by_rel[slots[v][0]])[slots[v][1]] for v in head)
        )
    return out


# --- cli_mix: binary queries for the greedy construction ------------------


def bipartite_query(rng: random.Random):
    """Every arc runs from side A to side B, so the core is one edge."""
    a_side = [f"a{i}" for i in range(rng.randint(2, 4))]
    b_side = [f"b{i}" for i in range(rng.randint(2, 4))]
    arcs = {(rng.choice(a_side), rng.choice(b_side)) for _ in range(6)}
    arcs.add((a_side[0], b_side[0]))
    return ((), tuple(("E", arc) for arc in sorted(arcs)))


def tree_query(rng: random.Random):
    """A randomly oriented tree on 4 to 8 nodes."""
    n = rng.randint(4, 8)
    atoms = []
    for i in range(1, n):
        j = rng.randrange(i)
        arc = (f"t{j}", f"t{i}") if rng.random() < 0.5 else (f"t{i}", f"t{j}")
        atoms.append(("E", arc))
    return ((), tuple(atoms))


def odd_cycle_query(n: int):
    """A directed cycle of odd length n: no GHW(1)-overapproximation."""
    return ((), tuple(("E", (f"o{i}", f"o{(i + 1) % n}")) for i in range(n)))


def path_query(n: int):
    return ((), tuple(("E", (f"p{i}", f"p{i + 1}")) for i in range(n)))
