"""Homomorphism search, evaluation, containment and cores against the
brute-force oracles."""

import random

import pytest

from cqapprox import hom
from cqapprox.gen import gen_qn_prime
from cqapprox.hom import (
    contains,
    core,
    endomorphisms,
    equivalent,
    evaluate,
    find_hom,
)
from cqapprox.model import ArityError, Atom, Const, Database, Var, parse_query

from _oracles import (
    brute_core,
    brute_endomorphisms,
    brute_evaluate,
    brute_find_hom,
    equivalent as oracle_equivalent,
    isomorphic,
)
from _support import (
    c2,
    c2_db,
    edge_db,
    path2,
    rand_anchored_pair,
    rand_cq,
    rand_db,
    triangle,
    triangle_db,
)

fig1_q = parse_query(
    "q() :- P_a(x,y), P_a(y,x), P_a(y,z), P_a(z,y), P_b(z,x), P_b(x,z)."
)
fig1_qprime = parse_query(
    "q() :- P_a(x,y1), P_a(y1,x), P_b(x,z), P_b(z,x), P_a(z,y2), P_a(y2,z)."
)


def check_is_hom(h, source, target):
    atoms = source.atoms if hasattr(source, "atoms") else source.facts
    tgt = set(target.atoms if hasattr(target, "atoms") else target.facts)
    for a in atoms:
        assert Atom(a.relation, h.tuple_image(a.args)) in tgt


def test_find_hom_path_into_triangle():
    h = find_hom(path2, (), triangle_db, ())
    assert h is not None
    check_is_hom(h, path2, triangle_db)
    # deterministic witness under canonical iteration order
    assert h.mapping == {
        Var("x"): Const("1"),
        Var("y"): Const("2"),
        Var("z"): Const("3"),
    }


def test_find_hom_triangle_to_c2_absent():
    assert find_hom(triangle, (), c2_db, ()) is None
    assert brute_find_hom(triangle, (), c2_db, ()) is None


def test_find_hom_fig1():
    assert find_hom(fig1_qprime, (), fig1_q, ()) is not None


def test_find_hom_anchor_arity():
    with pytest.raises(ArityError):
        find_hom(path2, (Var("x"),), triangle_db, ())


def test_relation_arity_mismatch_raises():
    q = parse_query("q() :- R(x,y).")
    longer = Database((Atom("R", (Const("a"), Const("b"), Const("c"))),))
    shorter = Database((Atom("R", (Const("a"),)),))
    for db in (longer, shorter):
        with pytest.raises(ArityError):
            find_hom(q, (), db, ())
        with pytest.raises(ArityError):
            evaluate(parse_query("q(x) :- R(x,y)."), db)
    with pytest.raises(ArityError):
        contains(q, parse_query("q() :- R(x,y,z)."))


def test_find_hom_inconsistent_anchors():
    q = parse_query("q(x,x) :- E(x,y).")
    assert find_hom(q, q.free_vars, edge_db, (Const("a"), Const("b"))) is None


def test_find_hom_agrees_with_oracle():
    rng = random.Random(21)
    hits = 0
    for _ in range(300):
        q, src_t, db, tgt_t = rand_anchored_pair(rng)
        got = find_hom(q, src_t, db, tgt_t)
        want = brute_find_hom(q, src_t, db, tgt_t)
        assert (got is None) == (want is None)
        if got is not None:
            hits += 1
            check_is_hom(got, q, db)
            assert got.tuple_image(src_t) == tgt_t
    assert hits > 20  # the sample exercises both outcomes


def test_find_hom_cq_targets():
    rng = random.Random(22)
    for _ in range(120):
        q1 = rand_cq(rng)
        q2 = rand_cq(rng)
        got = find_hom(q1, (), q2, ())
        want = brute_find_hom(q1, (), q2, ())
        assert (got is None) == (want is None)


def test_find_hom_monotone_under_target_growth():
    rng = random.Random(23)
    for _ in range(80):
        q, src_t, db, tgt_t = rand_anchored_pair(rng)
        if find_hom(q, src_t, db, tgt_t) is None:
            continue
        bigger = Database(db.facts + (Atom("Unused", (Const("zz"),)),))
        assert find_hom(q, src_t, bigger, tgt_t) is not None
        # and under source-atom removal
        fewer = q.without_atom(q.atoms[0])
        assert find_hom(fewer, src_t, db, tgt_t) is not None


def test_evaluate_examples():
    assert evaluate(path2, triangle_db) == {()}
    assert evaluate(parse_query("q(x) :- E(x,x)."), triangle_db) == set()
    assert evaluate(parse_query("q(x,y) :- E(x,y)."), edge_db) == {
        (Const("a"), Const("b"))
    }


def test_evaluate_agrees_with_oracle():
    rng = random.Random(24)
    for _ in range(100):
        q = rand_cq(rng, n_free=rng.choice((0, 1, 2)))
        db = rand_db(rng)
        assert evaluate(q, db) == brute_evaluate(q, db)


def test_evaluate_builds_one_target_index(monkeypatch):
    built = []

    class Counting(hom._Target):
        def __init__(self, facts):
            built.append(1)
            super().__init__(facts)

    monkeypatch.setattr(hom, "_Target", Counting)
    rng = random.Random(28)
    for _ in range(20):
        q = rand_cq(rng, n_free=rng.choice((1, 2)))
        db = rand_db(rng)
        built.clear()
        assert evaluate(q, db) == brute_evaluate(q, db)
        assert len(built) == 1


def test_contains_examples():
    assert contains(triangle, path2)
    assert not contains(path2, triangle)
    assert contains(fig1_q, fig1_qprime)


def test_contains_arity_mismatch():
    with pytest.raises(ArityError):
        contains(parse_query("q(x) :- E(x,y)."), triangle)


def test_contains_reflexive_transitive():
    rng = random.Random(25)
    qs = [rand_cq(rng) for _ in range(12)]
    for q in qs:
        assert contains(q, q)
    for a in qs:
        for b in qs:
            for c in qs:
                if contains(a, b) and contains(b, c):
                    assert contains(a, c)


def test_core_drops_disjoint_edge():
    q = parse_query("q() :- E(x,y), E(y,z), E(u,v).")
    assert isomorphic(core(q), path2)


def test_core_triangle_fixed():
    assert core(triangle) == triangle


def test_core_properties_random():
    rng = random.Random(26)
    for _ in range(60):
        q = rand_cq(rng, n_free=rng.choice((0, 1)))
        c = core(q)
        assert len(c.atoms) <= len(q.atoms)
        assert equivalent(c, q)
        assert core(c) == c
        assert len(c.atoms) == len(brute_core(q).atoms)
        assert set(c.free_vars) == set(q.free_vars)


def test_evaluate_matches_core_evaluate():
    rng = random.Random(27)
    for _ in range(40):
        q = rand_cq(rng, n_free=rng.choice((0, 1)))
        db = rand_db(rng)
        assert evaluate(q, db) == evaluate(core(q), db)


def test_equivalent_matches_oracle():
    rng = random.Random(28)
    for _ in range(60):
        q1 = rand_cq(rng)
        q2 = rand_cq(rng)
        assert equivalent(q1, q2) == oracle_equivalent(q1, q2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_core_tests_each_atom_of_a_core_once(n, monkeypatch):
    q = gen_qn_prime(n)
    drops = []
    real_drop = hom._Search.drop

    def counting_drop(self, fact):
        drops.append(fact)
        return real_drop(self, fact)

    monkeypatch.setattr(hom._Search, "drop", counting_drop)
    assert core(q) == q
    assert sorted(drops) == list(q.atoms)


def test_core_skips_atoms_shown_non_removable(monkeypatch):
    # E(a,b) and E(b,a) are tested first and stay; the path folds onto them
    q = parse_query("q() :- E(a,b), E(b,a), E(b,c), E(c,d).")
    drops = []
    real_drop = hom._Search.drop

    def counting_drop(self, fact):
        drops.append(fact)
        return real_drop(self, fact)

    monkeypatch.setattr(hom._Search, "drop", counting_drop)
    assert core(q) == parse_query("q() :- E(a,b), E(b,a).")
    assert len(drops) == len(set(drops)) == 3


def _count_searches(monkeypatch):
    built = []
    real_init = hom._Search.__init__

    def counting_init(self, atoms, base, target):
        built.append(tuple(atoms))
        real_init(self, atoms, base, target)

    monkeypatch.setattr(hom._Search, "__init__", counting_init)
    return built


def test_identical_components_share_one_search(monkeypatch):
    built = _count_searches(monkeypatch)
    two_paths = parse_query("q() :- E(x,y), E(y,z), E(u,v), E(v,w).")
    assert find_hom(two_paths, (), triangle, ()) is not None
    assert len(built) == 1

    # the first pass solves both triangles with one search and folds one
    # onto the other; the second pass searches the one triangle left
    built.clear()
    two_triangles = parse_query("q() :- E(a,b), E(b,c), E(c,a), E(x,y), E(y,z), E(z,x).")
    assert core(two_triangles) == parse_query("q() :- E(x,y), E(y,z), E(z,x).")
    assert len(built) == 2


def _search_state(search):
    return (
        [bytes(a) for a in search.alive],
        [[list(c) for c in cs] for cs in search.counts],
        [bytes(d) for d in search.dom],
        list(search.size),
    )


def _domains(search):
    return [
        {search.values[d] for d, on in enumerate(flags) if on} for flags in search.dom
    ]


def _drop_cases():
    rng = random.Random(11)
    yield from (gen_qn_prime(n) for n in (2, 3))
    yield fig1_q
    yield parse_query("q(x) :- E(x,y), E(y,z), E(z,x), E(x,w), F(w,y,z).")
    for _ in range(40):
        yield rand_cq(rng, max_atoms=7, max_vars=5, n_free=rng.randint(0, 1))


def test_search_drop_matches_fresh_search_and_undo_restores():
    # dropping a fact reaches the same arc-consistent state a fresh search
    # into the smaller target starts from, and undo restores every count,
    # also after a wipe-out part-way through a row
    for q in _drop_cases():
        base = {v: v for v in q.free_vars}
        search = hom._Search(q.atoms, base, hom._Target(q.atoms))
        assert search.ok
        before = _search_state(search)
        for fact in q.atoms:
            mark = len(search.trail)
            dropped = search.drop(fact)
            rest = [a for a in q.atoms if a != fact]
            fresh = hom._Search(q.atoms, base, hom._Target(rest))
            assert dropped == fresh.ok, (q, fact)
            if dropped:
                assert _domains(search) == _domains(fresh), (q, fact)
            search.undo(mark)
            assert _search_state(search) == before, (q, fact)
        assert len(list(search.solutions())) >= 1
        assert _search_state(search) == before, q


def test_search_counts_a_value_with_more_than_255_rows():
    # the hub c has 300 out-edges, more than a byte count holds
    hub = Const("c")
    leaves = [Const(f"n{i:03}") for i in range(300)]
    edges = [(hub, n) for n in leaves] + [(n, hub) for n in leaves[:2]]
    db = Database(tuple(Atom("E", e) for e in edges))
    q = parse_query("q() :- E(x,y), E(y,z), E(z,w).")
    walks = [
        (a, b, c, d)
        for a, b in edges
        for b2, c in edges
        if b2 == b
        for c2, d in edges
        if c2 == c
    ]
    assert len(walks) == 604
    search = hom._Search(q.atoms, {}, hom._Target(db.facts))
    assert any(isinstance(c, list) for cs in search.counts for c in cs)
    before = _search_state(search)
    x, y, z, w = (Var(v) for v in "xyzw")
    found = [(s[x], s[y], s[z], s[w]) for s in search.solutions()]
    assert sorted(found) == sorted(walks) and len(found) == len(walks)
    assert _search_state(search) == before
    for fact in db.facts[:3] + db.facts[-3:]:
        mark = len(search.trail)
        dropped = search.drop(fact)
        fresh = hom._Search(q.atoms, {}, hom._Target(set(db.facts) - {fact}))
        assert dropped == fresh.ok
        if dropped:
            assert _domains(search) == _domains(fresh)
        search.undo(mark)
        assert _search_state(search) == before


def test_endomorphism_counts():
    assert len(endomorphisms(parse_query("q() :- E(x,y)."))) == 1
    assert len(endomorphisms(c2)) == 2
    assert len(endomorphisms(path2)) == 1


def test_endomorphisms_match_oracle():
    rng = random.Random(29)
    for _ in range(60):
        q = rand_cq(rng, max_atoms=4)
        got = sorted(tuple(sorted(h.mapping.items())) for h in endomorphisms(q))
        want = sorted(tuple(sorted(m.items())) for m in brute_endomorphisms(q))
        assert got == want
