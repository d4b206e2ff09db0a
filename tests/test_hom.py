"""Homomorphism search, evaluation, containment and cores against the
brute-force oracles."""

import gc
import random
import tracemalloc

import pytest

from cqapprox import hom
from cqapprox.approx import eval_overapprox, exists_overapprox
from cqapprox.gen import corpus, gen_qn, gen_qn_prime
from cqapprox.hom import (
    contains,
    core,
    endomorphisms,
    equivalent,
    evaluate,
    find_hom,
)
from cqapprox.model import (
    ArityError,
    Atom,
    ConjunctiveQuery,
    Const,
    Database,
    Var,
    parse_database,
    parse_query,
)
from cqapprox.width import ghw1_membership

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
    rand_tree_binary,
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


def test_evaluate_cuts_existential_variables_as_it_joins():
    # listing every homomorphism would take 8 * 7**12, about 1.1e11; the
    # join drops each y_i once no later atom reads it
    db = parse_database("".join(f"E(c{i},c{j})." for i in range(8) for j in range(8) if i != j))
    q = parse_query("q(x) :- " + ", ".join(f"E(x,y{i})" for i in range(1, 13)) + ".")
    assert evaluate(q, db) == {(Const(f"c{i}"),) for i in range(8)}


def test_full_reducer_agrees_with_boolean_evaluate():
    rng = random.Random(38)
    reduced = 0
    for i in range(300):
        q = rand_tree_binary(rng) if i % 3 == 0 else rand_cq(rng, max_atoms=6)
        db = rand_db(rng, max_consts=4, max_facts=10)
        if (td := ghw1_membership(q)) is None:
            continue
        assert hom._full_reducer(q, (), db, (), td) == (evaluate(q, db) == {()})
        reduced += 1
    assert reduced > 200


def test_full_reducer_joins_no_more_than_a_bag(monkeypatch):
    # gen_qn(5)'s 62-atom existence witness into 103 random ternary facts:
    # one cut join of the body took 25 s, the semijoin pass a millisecond
    witness = exists_overapprox(gen_qn(5), 1, budget=None)
    rng = random.Random(2)
    consts = [Const(f"c{i}") for i in range(10)]
    db = Database(tuple(Atom("R", tuple(rng.choice(consts) for _ in range(3))) for _ in range(111)))
    joined = []
    real_join = hom._Target.join

    def counting_join(self, atoms, base, keep):
        joined.append(len(atoms))
        return real_join(self, atoms, base, keep)

    monkeypatch.setattr(hom._Target, "join", counting_join)
    assert hom._full_reducer(witness, (), db, (), ghw1_membership(witness))
    assert max(joined) == 2  # a bag's twin atoms, never the body


def test_full_reducer_raises_the_games_arity_errors():
    q = parse_query("q(x) :- E(x,y).")
    td = ghw1_membership(q)
    with pytest.raises(ArityError):
        hom._full_reducer(q, q.free_vars, edge_db, (), td)
    with pytest.raises(ArityError):
        hom._full_reducer(q, q.free_vars, Database((Atom("E", (Const("a"),)),)), (Const("a"),), td)
    twice = parse_query("q(x,x) :- E(x,y).")
    assert not hom._full_reducer(twice, twice.free_vars, edge_db, (Const("a"), Const("b")), td)


def test_full_reducer_joins_bags_apart_when_their_anchors_differ():
    # both bags join E(anchor, kept): one join shape only if x and y meet one value
    q = parse_query("q(x,y) :- E(x,u), E(y,v).")
    td = ghw1_membership(q)
    a, b = Const("a"), Const("b")
    assert hom._full_reducer(q, q.free_vars, edge_db, (a, a), td)
    assert not hom._full_reducer(q, q.free_vars, edge_db, (a, b), td)
    assert not hom._full_reducer(q, q.free_vars, edge_db, (b, a), td)


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
    two_triangles = parse_query("q() :- E(a,b), E(b,c), E(c,a), E(x,y), E(y,z), E(z,x).")
    assert core(two_triangles) == parse_query("q() :- E(x,y), E(y,z), E(z,x).")


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
    # R(y, a, b) and its twin R(y, b, a) hold the same terms: once the
    # first stays, every retraction fixes the second, which needs no test
    assert drops == list(q.atoms[::2])


def test_core_skips_atoms_shown_non_removable(monkeypatch):
    # E(a,b) is tested first and stays; E(b,a) holds only its terms, so it
    # stays untested; E(b,c) goes, and the path folds onto the 2-cycle
    q = parse_query("q() :- E(a,b), E(b,a), E(b,c), E(c,d).")
    drops = []
    real_drop = hom._Search.drop

    def counting_drop(self, fact):
        drops.append(fact)
        return real_drop(self, fact)

    monkeypatch.setattr(hom._Search, "drop", counting_drop)
    assert core(q) == parse_query("q() :- E(a,b), E(b,a).")
    a, b, c = map(Var, "abc")
    assert drops == [Atom("E", (a, b)), Atom("E", (b, c))]


def _count_searches(monkeypatch):
    built = []
    real_init = hom._Search.__init__

    def counting_init(self, atoms, base, target):
        built.append(tuple(atoms))
        real_init(self, atoms, base, target)

    monkeypatch.setattr(hom._Search, "__init__", counting_init)
    return built


def test_find_hom_builds_one_search_per_group(monkeypatch):
    built = _count_searches(monkeypatch)
    two_paths = parse_query("q() :- E(x,y), E(y,z), E(u,v), E(v,w).")
    assert find_hom(two_paths, (), triangle, ()) is not None
    assert built == [two_paths.atoms[:2], two_paths.atoms[2:]]

    # the fully anchored atoms share one search, ahead of the components
    built.clear()
    x, y, z = map(Var, "xyz")
    q = parse_query("q(x,y) :- E(x,y), E(y,x), E(x,z).")
    assert find_hom(q, (x, y), c2_db, (Const("a"), Const("b"))) is not None
    assert built == [(Atom("E", (x, y)), Atom("E", (y, x))), (Atom("E", (x, z)),)]

    # no search is built after the first group with no solution
    built.clear()
    q = parse_query("q() :- E(a,a), E(b,c), E(d,e).")
    assert find_hom(q, (), triangle_db, ()) is None
    assert built == [(Atom("E", (Var("a"), Var("a"))),)]


def test_core_kills_few_rows_once_it_pins_the_atoms_it_fixed(monkeypatch):
    # each drop test on a core fails; the pins end most of them before the
    # cascade reaches the root (32,424 calls unpinned; 3,072 with a value
    # pinned once it leaves every domain and the twin of each atom that
    # stays fixed without a test; 1,302 with each variable pinned to its
    # own value and a drop killing live rows only)
    calls = []
    real_kill = hom._Search._kill

    def counting_kill(self, *args):
        calls.append(None)
        return real_kill(self, *args)

    monkeypatch.setattr(hom._Search, "_kill", counting_kill)
    assert core(gen_qn_prime(5)) == gen_qn_prime(5)
    assert len(calls) <= 1500


def _search_state(search):
    return (
        [bytes(a) for a in search.alive],
        [[list(c) for c in cs] for cs in search.counts],
        [bytes(d) for d in search.dom],
        list(search.size),
        list(search.pins),
    )


def _domains(search):
    return [
        {search.values[d] for d, on in enumerate(flags) if on} for flags in search.dom
    ]


def _by_value(search):
    """The state in target values, to compare searches into different
    targets: the domains, each atom's live target facts and each slot's
    nonzero counts."""
    values = search.values
    live = [
        sorted(tuple(values[x] for x in ids[r]) for r, on in enumerate(alive) if on)
        for ids, alive in zip((sig.id_rows() for sig in search.sig), search.alive)
    ]
    counts = [
        [{values[d]: c for d, c in enumerate(cnt) if c} for cnt in cs] for cs in search.counts
    ]
    return _domains(search), live, counts


def _path(n):
    return [Atom("E", (Const(f"p{i:02}"), Const(f"p{i + 1:02}"))) for i in range(n)]


def _grid(n):
    def at(r, c):
        return Const(f"g{r}{c}")

    return [
        Atom("E", (at(r, c), at(r + dr, c + dc)))
        for r in range(n)
        for c in range(n)
        for dr, dc in ((0, 1), (1, 0))
        if r + dr < n and c + dc < n
    ]


def _drop_cases():
    """(query, target facts): queries into themselves, then waves, where
    each cut pass strips a few values per variable: a path into a longer
    path, which the passes cut and leave to AC-4 to finish, and a path
    into a grid, which they leave to AC-4 whole."""
    rng = random.Random(11)
    queries = [gen_qn_prime(2), gen_qn_prime(3), fig1_q]
    queries.append(parse_query("q(x) :- E(x,y), E(y,z), E(z,x), E(x,w), F(w,y,z)."))
    queries += [rand_cq(rng, max_atoms=7, max_vars=5, n_free=rng.randint(0, 1)) for _ in range(40)]
    for q in queries:
        yield q, q.atoms
    yield parse_query("q() :- E(a,b), E(b,c), E(c,d), E(d,e)."), _path(7)
    yield parse_query("q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f)."), _grid(4)


def test_search_drop_matches_fresh_search_and_undo_restores():
    # dropping a fact reaches the same arc-consistent state, live target
    # facts included, that a fresh search into the smaller target starts
    # from, and undo restores every count, also after a wipe-out part-way
    # through a row
    for q, target in _drop_cases():
        base = {v: v for v in q.free_vars}
        search = hom._Search(q.atoms, base, hom._Target(target))
        assert search.ok
        before = _search_state(search)
        for fact in target:
            mark = len(search.trail)
            dropped = search.drop(fact)
            rest = [a for a in target if a != fact]
            fresh = hom._Search(q.atoms, base, hom._Target(rest))
            assert dropped == fresh.ok, (q, fact)
            if dropped:
                assert _by_value(search) == _by_value(fresh), (q, fact)
            search.undo(mark)
            assert _search_state(search) == before, (q, fact)
        assert len(list(search.solutions())) >= 1
        assert _search_state(search) == before, q


def _pin_cases():
    """Queries with free variables, fully anchored atoms and several
    components: the paper's doubling family, the corpus, random queries."""
    rng = random.Random(17)
    queries = [gen_qn_prime(n) for n in range(1, 5)]
    queries += [q for q in corpus().values() if isinstance(q, ConjunctiveQuery)]
    queries.append(parse_query("q(x,y) :- E(x,y), E(y,z), E(z,y), E(z,w), E(w,z)."))
    queries += [rand_cq(rng, max_atoms=7, max_vars=5, n_free=rng.randint(0, 2)) for _ in range(300)]
    return queries


def test_pins_change_no_drop_test():
    # pinned as core pins it, every group with the variables of every atom
    # q cannot lose (a superset of those core has fixed), each drop finds
    # the same witness, or none, and undo restores the state, pins included
    shapes = set()
    for q in _pin_cases():
        base = {v: v for v in q.free_vars}
        groups = hom._groups(q.atoms, base)
        tgt = hom._Target(q)
        plain, pinned = ([hom._Search(g, base, tgt) for g in groups] for _ in range(2))
        free = q.free_vars
        kept = [b for b in q.atoms if find_hom(q, free, q.without_atom(b), free) is None]
        for search in pinned:
            search.pin(t for b in kept for t in b.args)
        before = [_search_state(search) for search in pinned]
        loose = [s for s in pinned if s.vars]
        shapes.add(("free", bool(base)))
        shapes.add(("anchored", len(loose) < len(groups)))
        shapes.add(("components", min(len(loose), 2)))
        for a in q.atoms:
            assert hom._solve(pinned, base, a) == hom._solve(plain, base, a), (q, a)
            assert [_search_state(search) for search in pinned] == before, (q, a)
    assert {("free", True), ("anchored", True), ("components", 1), ("components", 2)} <= shapes


def _cannot_lose(q, a):
    """No homomorphism q → q − a fixes the free variables: by exhaustion
    where it is small enough, else by find_hom (the doubling family past
    n = 1, where exhaustion would try up to 31^31 maps)."""
    rest, free = q.without_atom(a), q.free_vars
    pool = {t for b in rest.atoms for t in b.args} | set(free)
    if len(pool) ** len(q.variables - set(free)) <= 20_000:
        return brute_find_hom(q, free, rest, free) is None
    return find_hom(q, free, rest, free) is None


def _jumped(tests):
    """Whether a scan's (atom, removable) drop tests end in a jump."""
    return bool(tests) and tests[-1][1]


def test_core_passes_over_only_atoms_it_cannot_lose(monkeypatch):
    # every atom a scan passes over without a drop test, one shown
    # non-removable before or one holding only terms of such atoms and
    # free variables, is one the scanned query cannot lose
    real_target, real_solve = hom._Target, hom._solve

    def recording_target(thing):
        scans.append((thing, []))
        return real_target(thing)

    def recording_solve(searches, base, drop=None):
        h = real_solve(searches, base, drop)
        scans[-1][1].append((drop, h is not None))
        return h

    monkeypatch.setattr(hom, "_Target", recording_target)
    monkeypatch.setattr(hom, "_solve", recording_solve)
    runs = []
    for q in _pin_cases():
        scans = []
        c = core(q)
        if not scans or _jumped(scans[-1][1]):  # the last jump's image: no scan
            scans.append((c, []))
        runs.append((q, scans))
    monkeypatch.undo()
    untested = checked = 0
    for q, scans in runs:
        tested = set()
        for current, tests in scans:
            tested.update(a for a, _ in tests)
            atoms = list(current.atoms)
            if _jumped(tests):
                atoms = atoms[: atoms.index(tests[-1][0])]
            for a in atoms:
                if a not in {b for b, _ in tests}:
                    untested += a not in tested
                    checked += 1
                    assert _cannot_lose(current, a), (q, current, a)
    assert untested >= 100 and checked >= 400, (untested, checked)


def _renamed_copies(rng):
    """2-3 disjoint copies of one random body, copy i with variables
    c<i>v<j> numbered in a random order, so the copies' canonical
    variable orders differ."""
    body = rand_cq(rng, max_atoms=3, max_vars=4).atoms
    names = sorted({t for a in body for t in a.args})
    atoms = []
    for i in range(rng.randint(2, 3)):
        order = rng.sample(range(len(names)), len(names))
        new = {v: Var(f"c{i}v{j}") for v, j in zip(names, order)}
        atoms += [Atom(a.relation, tuple(map(new.get, a.args))) for a in body]
    return ConjunctiveQuery((), tuple(atoms))


def test_each_group_gets_the_first_solution_of_its_own_search():
    # a witness restricted to a group is the group's own witness, also
    # where the group is a renamed copy of an earlier one. Among equal
    # domains a search assigns the least variable first: E(c0v2,c0v0)
    # takes c0v0 -> 0, so c0v2 -> 1, while E(c0v1,c0v3) takes c0v1 -> 0
    zero, one = Const("0"), Const("1")
    q = parse_query("q() :- E(c0v1,c0v3), E(c0v2,c0v0).")
    db = Database((Atom("E", (zero, Const("2"))), Atom("E", (one, zero))))
    assert find_hom(q, (), db, ())(Var("c0v1")) == zero
    cases = [(q, db)]
    rng = random.Random(29)
    cases += [(_renamed_copies(rng), rand_db(rng, max_consts=4, max_facts=12)) for _ in range(300)]
    solved = 0
    for q, db in cases:
        h = find_hom(q, (), db, ())
        if h is None:
            continue
        solved += 1
        for g in hom._groups(q.atoms, {}):
            alone = find_hom(ConjunctiveQuery((), tuple(g)), (), db, ())
            assert {v: h(v) for v in alone.mapping} == alone.mapping, (q, db, g)
    assert solved >= 100


def test_a_pin_cuts_solutions_of_a_search_beside_another_component():
    # A(c,e) stays, so core pins c and e. With A(e,f) dropped, the first
    # solution of the A-component's search swaps c and e; pinned, that
    # branch is cut and the search finds one fixing them. The cut sends
    # the drop test back to the unpinned search, so the witness is the
    # unpinned one, beside the untouched search of Z(x,y).
    q = parse_query("q() :- A(c,e), A(e,c), A(e,f), A(f,a), Z(x,y).")
    a, c, e, f = map(Var, "acef")
    ef = Atom("A", (e, f))
    groups = hom._groups(q.atoms, {})
    tgt = hom._Target(q)
    plain, pinned = ([hom._Search(g, {}, tgt) for g in groups] for _ in range(2))
    pinned[0].pin([c, e])
    want = hom._solve(plain, {}, ef)
    assert {t: want[t] for t in (a, c, e, f)} == {a: c, c: e, e: c, f: e}
    search = pinned[0]
    mark = len(search.trail)
    assert search.drop(ef) and not search.cut
    assert next(search.solutions()) == {a: e, c: c, e: e, f: c}
    assert search.cut
    search.undo(mark)
    assert hom._solve(pinned, {}, ef) == want
    assert core(q) == parse_query("q() :- A(c,e), A(e,c), Z(x,y).")


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
            assert _by_value(search) == _by_value(fresh)
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


def test_anchored_calls_into_one_database_keep_no_memory():
    # one Database shares its interned form and join indexes with every
    # call; what a call builds for its own anchors must go with the call
    rng = random.Random(7)
    consts = [Const(f"c{i}") for i in range(300)]
    db = Database(tuple(
        Atom("E", (rng.choice(consts), rng.choice(consts))) for _ in range(1000)
    ))
    q = parse_query("q(x,y) :- E(x,z), E(z,y).")
    pairs = rng.sample([(a, b) for a in consts[:60] for b in consts[:60]], 500)
    tracemalloc.start()
    try:
        sizes = []
        for i, tup in enumerate(pairs):
            if i % 2:
                eval_overapprox(q, db, tup, 1)
            else:
                find_hom(q, q.free_vars, db, tup)
            if i in (9, len(pairs) - 1):
                gc.collect()  # also empties the free lists, which read as growth
                sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert sizes[1] - sizes[0] < 16_000
