"""Acyclicity, decomposition validation, and exact width."""

import itertools
import random

import pytest

from cqapprox import width
from cqapprox.gen import gen_qn, gen_qn_prime
from cqapprox.model import (
    Atom,
    BudgetError,
    ConjunctiveQuery,
    CqError,
    Term,
    Var,
    _UnionFind,
    disjoint_conjunction,
    parse_query,
)
from cqapprox.width import (
    TreeDecomposition,
    compute_ghw,
    cover_number,
    ghw1_membership,
    parse_decomposition,
    serialize_decomposition,
    validate_decomposition,
)

from _oracles import oracle_ghw
from _support import path2, rand_cq, rand_tree_binary, triangle

fig1_qprime = parse_query(
    "q() :- P_a(x,y1), P_a(y1,x), P_b(x,z), P_b(z,x), P_a(z,y2), P_a(y2,z)."
)
fig2_qprime = parse_query(
    "q() :- E(v1,v2), E(v2,v3), E(v3,v1), E(v4,v1), E(v4,v2), E(v4,v3)."
)


def test_ghw1_path_is_acyclic():
    td = ghw1_membership(path2)
    assert td is not None
    assert td.width == 1
    assert validate_decomposition(path2, td, 1)


def test_ghw1_triangle_is_cyclic():
    assert ghw1_membership(triangle) is None


def test_ghw1_fig1_qprime():
    td = ghw1_membership(fig1_qprime)
    assert td is not None
    assert validate_decomposition(fig1_qprime, td, 1)


def test_validate_single_bag_triangle():
    bag = frozenset({Var("x"), Var("y"), Var("z")})
    td = TreeDecomposition({0: None}, {0: bag}, 2)
    assert not validate_decomposition(triangle, td, 1)
    assert validate_decomposition(triangle, td, 2)


def test_validate_empty_tree_without_existentials():
    q = parse_query("q(x,y) :- E(x,y).")
    td = TreeDecomposition({}, {}, 0)
    assert validate_decomposition(q, td, 1)
    assert validate_decomposition(q, td, 3)


def test_validate_rejects_free_vars_in_bags():
    q = parse_query("q(x) :- E(x,y).")
    td = TreeDecomposition({0: None}, {0: frozenset({Var("x"), Var("y")})}, 1)
    assert not validate_decomposition(q, td, 1)


def test_validate_rejects_disconnected_variable():
    # y's bags are not connected: path x--y--z decomposed badly
    q = parse_query("q() :- E(x,y), E(y,z).")
    td = TreeDecomposition(
        {0: None, 1: 0, 2: 1},
        {
            0: frozenset({Var("x"), Var("y")}),
            1: frozenset({Var("x")}),
            2: frozenset({Var("y"), Var("z")}),
        },
        1,
    )
    assert not validate_decomposition(q, td, 1)


def test_validate_rejects_cyclic_parent_map():
    td = TreeDecomposition(
        {0: 1, 1: 0}, {0: frozenset(), 1: frozenset()}, 1
    )
    assert not validate_decomposition(path2, td, 1)


def test_compute_ghw_examples():
    assert compute_ghw(triangle, 3) == 2
    assert compute_ghw(parse_query("q() :- R(x,y,z)."), 3) == 1
    # single bag {v1..v4} is covered by the two disjoint edges E(v1,v2)
    # and E(v4,v3), so the 4-node tournament sits at width 2
    assert compute_ghw(fig2_qprime, 4) == 2


def test_compute_ghw_kmax_cutoff():
    assert compute_ghw(triangle, 1) is None
    # a cyclic query is never in GHW(1): past the guard, k = 1 still decides
    c14 = parse_query("q() :- " + ", ".join(f"E(v{i},v{(i + 1) % 14})" for i in range(14)) + ".")
    assert len(c14.existential_vars) > 12 and ghw1_membership(c14) is None
    assert compute_ghw(c14, 1) is None
    assert compute_ghw(c14, 0) is None


def test_compute_ghw_guard():
    q = rand_cq(random.Random(0), max_atoms=14, max_vars=20)
    while len(q.existential_vars) <= 12:
        q = rand_cq(random.Random(1), max_atoms=20, max_vars=20)
    assert ghw1_membership(q) is None
    with pytest.raises(BudgetError):
        compute_ghw(q, 2)


def test_compute_ghw_guard_spares_acyclic_queries():
    vs = [Var(f"p{i}") for i in range(15)]
    long_path = ConjunctiveQuery((), tuple(Atom("E", (a, b)) for a, b in zip(vs, vs[1:])))
    for q in (long_path, gen_qn_prime(4)):
        assert len(q.existential_vars) > 12
        assert compute_ghw(q, 2) == 1
        assert compute_ghw(q, 0) is None


def test_compute_ghw_rejects_a_negative_bound():
    for q in (triangle, path2, parse_query("q(x) :- E(x,x).")):
        with pytest.raises(CqError, match="width bound must be nonnegative, got -1"):
            compute_ghw(q, -1)


def test_a_query_without_existential_variables_has_width_zero():
    q = parse_query("q(x) :- E(x,x).")
    assert ghw1_membership(q).width == 0
    assert [compute_ghw(q, k) for k in (0, 1, 2)] == [0, 0, 0]
    assert compute_ghw(parse_query("q(x) :- E(x,y)."), 0) is None


def _all_pairs_ghw1_membership(q):
    """ghw1_membership as it was built before the index of variable to
    sets: Kruskal over every pair of existential argument sets."""
    edges = width._existential_edges(q)
    occ = {}
    for e in edges:
        for v in e:
            occ[v] = occ.get(v, 0) + 1
    target = sum(c - 1 for c in occ.values())
    order = {i: e for i, e in enumerate(sorted(edges, key=sorted))}
    pair_weights = sorted(
        (-len(order[i] & order[j]), i, j)
        for i, j in itertools.combinations(order, 2)
        if order[i] & order[j]
    )
    parent_of = {i: None for i in order}
    sets = _UnionFind()
    total = 0
    for negw, i, j in pair_weights:
        if not sets.union(j, i):
            continue
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
    parent, bags = {0: None}, {0: frozenset()}
    for i in order:
        parent[i + 1] = 0 if parent_of[i] is None else parent_of[i] + 1
        bags[i + 1] = order[i]
    return TreeDecomposition(parent, bags, 1 if edges else 0)


def test_ghw1_membership_matches_the_all_pairs_reference():
    rng = random.Random(39)
    queries = [gen_qn_prime(n) for n in range(1, 7)] + [gen_qn(n) for n in range(1, 5)]
    queries += [
        rand_cq(rng, max_atoms=8, max_vars=6, n_free=rng.choice((0, 0, 1, 2)))
        for _ in range(600)
    ]
    queries += [rand_tree_binary(rng, max_atoms=14) for _ in range(100)]
    acyclic = 0
    for q in queries:
        got = ghw1_membership(q)
        assert got == _all_pairs_ghw1_membership(q), q
        acyclic += got is not None
    assert 100 < acyclic < len(queries)


def test_compute_ghw_matches_permutation_oracle():
    rng = random.Random(31)
    for _ in range(40):
        q = rand_cq(rng, max_atoms=5, max_vars=5, n_free=rng.choice((0, 0, 1)))
        assert compute_ghw(q, 5) == oracle_ghw(q)


def test_ghw1_iff_width_one():
    rng = random.Random(32)
    for _ in range(60):
        q = rand_cq(rng, max_atoms=5, max_vars=5, n_free=rng.choice((0, 1)))
        acyclic = ghw1_membership(q) is not None
        assert acyclic == (compute_ghw(q, 5) <= 1)  # 0 without existential variables


def test_ghw_monotone_under_atom_deletion():
    rng = random.Random(33)
    for _ in range(25):
        q = rand_cq(rng, max_atoms=5, max_vars=4)
        w = compute_ghw(q, 5)
        for a in q.atoms:
            assert compute_ghw(q.without_atom(a), 5) <= w


def test_disjoint_conjunction_preserves_acyclicity():
    rng = random.Random(34)
    found = 0
    for _ in range(60):
        q1 = rand_cq(rng, n_free=1)
        q2 = rand_cq(rng, n_free=1)
        if ghw1_membership(q1) is None or ghw1_membership(q2) is None:
            continue
        found += 1
        both = disjoint_conjunction(q1, q2)
        assert ghw1_membership(both) is not None
    assert found > 10


def test_decomposition_file_round_trip():
    td = ghw1_membership(path2)
    text = serialize_decomposition(td)
    back = parse_decomposition(text)
    assert back.parent == td.parent
    assert back.bags == td.bags
    assert validate_decomposition(path2, back, 1)


def test_cover_number():
    assert cover_number({Var("x"), Var("y"), Var("z")}, triangle.atoms) == 2
    assert cover_number({Var("x"), Var("y")}, triangle.atoms) == 1
    assert cover_number(set(), triangle.atoms) == 0
    assert cover_number({Var("w")}, triangle.atoms) is None
