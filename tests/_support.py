"""Shared test inputs: tiny named queries and seeded random generators."""

from __future__ import annotations

import random

from cqapprox.model import (
    Atom,
    ConjunctiveQuery,
    Const,
    Database,
    Var,
    parse_query,
)

triangle = parse_query("q() :- E(x,y), E(y,z), E(z,x).")
c2 = parse_query("q() :- E(x,y), E(y,x).")
loop = parse_query("q() :- E(x,x).")
path2 = parse_query("q() :- E(x,y), E(y,z).")
path3 = parse_query("q() :- E(x,y), E(y,z), E(z,w).")
single_edge = parse_query("q() :- E(x,y).")

fig1_q = parse_query(
    "q() :- P_a(x,y), P_a(y,x), P_a(y,z), P_a(z,y), P_b(z,x), P_b(x,z)."
)
fig1_qprime = parse_query(
    "q() :- P_a(x,y1), P_a(y1,x), P_b(x,z), P_b(z,x), P_a(z,y2), P_a(y2,z)."
)

triangle_db = Database(
    (
        Atom("E", (Const("1"), Const("2"))),
        Atom("E", (Const("2"), Const("3"))),
        Atom("E", (Const("3"), Const("1"))),
    )
)
edge_db = Database((Atom("E", (Const("a"), Const("b"))),))
c2_db = Database(
    (
        Atom("E", (Const("a"), Const("b"))),
        Atom("E", (Const("b"), Const("a"))),
    )
)

SCHEMA = (("E", 2), ("P", 1), ("T", 3))


def rand_cq(rng: random.Random, max_atoms=5, max_vars=4, n_free=0, schema=SCHEMA):
    """Random CQ; free variables (if any) are drawn from the body."""
    pool = [Var(f"v{i}") for i in range(max_vars)]
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        rel, arity = rng.choice(schema)
        atoms.append(Atom(rel, tuple(rng.choice(pool) for _ in range(arity))))
    body_vars = sorted({t for a in atoms for t in a.args})
    free = tuple(rng.choice(body_vars) for _ in range(n_free))
    return ConjunctiveQuery(free, tuple(atoms))


def rand_db(rng: random.Random, max_consts=6, max_facts=8, schema=SCHEMA):
    pool = [Const(str(i)) for i in range(1, rng.randint(2, max_consts) + 1)]
    facts = []
    for _ in range(rng.randint(1, max_facts)):
        rel, arity = rng.choice(schema)
        facts.append(Atom(rel, tuple(rng.choice(pool) for _ in range(arity))))
    return Database(tuple(facts))


def rand_binary_boolean_cq(rng: random.Random, max_atoms=10, max_vars=6):
    """Random Boolean CQ over a single binary relation (graph query)."""
    pool = [Var(f"v{i}") for i in range(max_vars)]
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        atoms.append(Atom("E", (rng.choice(pool), rng.choice(pool))))
    return ConjunctiveQuery((), tuple(atoms))


def directed_cycle(n: int) -> ConjunctiveQuery:
    """Boolean directed n-cycle: E(v0,v1), ..., E(v_{n-1},v0)."""
    vs = [Var(f"v{i}") for i in range(n)]
    atoms = tuple(Atom("E", (vs[i], vs[(i + 1) % n])) for i in range(n))
    return ConjunctiveQuery((), atoms)


def _sym_edge(a: Var, b: Var) -> tuple[Atom, Atom]:
    return Atom("E", (a, b)), Atom("E", (b, a))


def rand_bipartite_boolean(rng: random.Random, max_edges=5) -> ConjunctiveQuery:
    """Random connected bipartite undirected graph query (every edge appears in
    both directions).  Always cyclic-capable: a chord between opposite colour
    classes may close an even cycle, and the whole thing folds onto a single
    undirected edge, so greedy deletion always reaches an acyclic query."""
    n = rng.randint(2, max_edges - 1)
    colour = {0: 0}
    edges = []
    for i in range(1, n + 1):
        parent = rng.randrange(i)
        edges.append((parent, i))
        colour[i] = 1 - colour[parent]
    if len(edges) < max_edges:
        opp = [
            (i, j)
            for i in colour
            for j in colour
            if i < j and colour[i] != colour[j] and (i, j) not in edges
        ]
        if opp and rng.random() < 0.8:
            edges.append(rng.choice(opp))
    pool = [Var(f"v{i}") for i in range(n + 1)]
    atoms = []
    for i, j in edges:
        atoms.extend(_sym_edge(pool[i], pool[j]))
    return ConjunctiveQuery((), tuple(atoms))


def rand_anchored_pair(rng: random.Random, max_atoms=5, max_consts=6):
    """A (source CQ, src tuple, target DB, tgt tuple) quadruple; roughly half
    the pairs carry nonempty anchor tuples."""
    n_free = rng.choice((0, 0, 1, 2))
    q = rand_cq(rng, max_atoms=max_atoms, n_free=n_free)
    db = rand_db(rng, max_consts=max_consts)
    adom = sorted(db.adom)
    tgt = tuple(rng.choice(adom) for _ in q.free_vars)
    return q, q.free_vars, db, tgt


def rand_dependency(rng: random.Random):
    """One random tgd or egd over the binary/unary part of the schema."""
    from cqapprox.constraints import Egd, Tgd

    pool = [Var(f"u{i}") for i in range(3)]
    schema = (("E", 2), ("P", 1))
    body = tuple(
        Atom(rel, tuple(rng.choice(pool) for _ in range(ar)))
        for rel, ar in (rng.choice(schema),) * rng.randint(1, 2)
    )
    body_vars = sorted({t for a in body for t in a.args})
    if rng.random() < 0.4:
        return Egd(body, (rng.choice(body_vars), rng.choice(body_vars)))
    head_pool = body_vars + [Var("z9")]
    rel, ar = rng.choice(schema)
    head = (Atom(rel, tuple(rng.choice(head_pool) for _ in range(ar))),)
    return Tgd(body, head)


def rand_tree_binary(rng: random.Random, max_atoms=10) -> ConjunctiveQuery:
    """A Boolean tree-shaped query over E: acyclic by construction."""
    n = rng.randint(1, max_atoms - 1)
    pool = [Var("t0")]
    atoms = []
    for i in range(1, n + 1):
        p = rng.choice(pool)
        v = Var(f"t{i}")
        pool.append(v)
        pair = (p, v) if rng.random() < 0.5 else (v, p)
        atoms.append(Atom("E", pair))
    return ConjunctiveQuery((), tuple(atoms))


def search_state(search):
    """A `hom._Search`'s state, copied: live rows, counts, domains, their
    sizes and the pins."""
    return (
        [bytes(a) for a in search.alive],
        [[list(c) for c in cs] for cs in search.counts],
        [bytes(d) for d in search.dom],
        list(search.size),
        list(search.pins),
    )
