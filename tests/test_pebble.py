"""Existential k-cover game solvers and the unrolling construction."""

import itertools
import random

import pytest

from cqapprox import hom, pebble, width
from cqapprox.model import (
    Atom,
    ConjunctiveQuery,
    Const,
    CqError,
    Database,
    Var,
    parse_database,
    parse_query,
)
from cqapprox.gen import gen_qn, gen_qn_prime
from cqapprox.hom import ArityError, find_hom

from _oracles import (
    brute_k_unions,
    oracle_wins_bounded,
    oracle_wins_unbounded,
    reference_sweep_game,
)
from _support import (
    c2,
    edge_db,
    loop,
    path2,
    rand_anchored_pair,
    rand_cq,
    rand_db,
    single_edge,
    triangle,
    triangle_db,
)

fig1_q = parse_query(
    "q() :- P_a(x,y), P_a(y,x), P_a(y,z), P_a(z,y), P_b(z,x), P_b(x,z)."
)
fig1_qprime = parse_query(
    "q() :- P_a(x,y1), P_a(y1,x), P_b(x,z), P_b(z,x), P_a(z,y2), P_a(y2,z)."
)
# F(b,c) has no G partner, and only then does E(a,b) lose its F partner
chain_q = parse_query("q() :- E(x,y), F(y,z), G(z,w).")
chain_db = parse_database("E(a,b). E(e,f). F(b,c). F(f,g). G(g,h).")


# --- k_unions -----------------------------------------------------------------


def test_k_unions_triangle_k1():
    unions = pebble.k_unions(triangle, 1)
    assert [sorted(v.name for v in u.vars) for u in unions] == [
        ["x", "y"],
        ["x", "z"],
        ["y", "z"],
    ]
    for u in unions:
        assert len(u.witness) == 1
        assert u.vars == frozenset(u.witness[0].args)


def test_k_unions_triangle_k2():
    unions = pebble.k_unions(triangle, 2)
    assert [sorted(v.name for v in u.vars) for u in unions] == [
        ["x", "y"],
        ["x", "z"],
        ["y", "z"],
        ["x", "y", "z"],
    ]
    # pair-sized sets keep their single-atom witness
    assert all(len(u.witness) == 1 for u in unions[:3])
    assert len(unions[3].witness) == 2


def test_k_unions_single_ternary_atom():
    q = parse_query("q() :- T(x,y,z).")
    unions = pebble.k_unions(q, 3)
    assert len(unions) == 1
    assert unions[0].vars == frozenset((Var("x"), Var("y"), Var("z")))
    assert len(unions[0].witness) == 1


def test_k_unions_rejects_bad_k():
    with pytest.raises(CqError):
        pebble.k_unions(triangle, 0)


def test_k_unions_matches_oracle_on_randoms():
    rng = random.Random(411)
    for _ in range(60):
        q = rand_cq(rng)
        k = rng.randint(1, 3)
        got = [u.vars for u in pebble.k_unions(q, k)]
        assert got == brute_k_unions(q, k)
        for u in pebble.k_unions(q, k):
            assert 1 <= len(u.witness) <= k
            assert u.vars == frozenset(t for a in u.witness for t in a.args)


# --- unbounded game -----------------------------------------------------------


def check_family(family, src, tgt):
    """The closure invariants a reported win must satisfy."""
    src_atoms = hom._atoms_of(src)
    tgt_atoms = set(hom._atoms_of(tgt))
    assert family.members and all(family.members)
    for u, members in zip(family.unions, family.members):
        dom = u.vars | set(family.anchors)
        for m in members:
            assert set(m) == dom
            assert all(m[a] == b for a, b in family.anchors.items())
            for atom in src_atoms:
                if all(t in m for t in atom.args):
                    img = Atom(atom.relation, tuple(m[t] for t in atom.args))
                    assert img in tgt_atoms
            # forth-closure into every other union
            for u2, members2 in zip(family.unions, family.members):
                shared = u.vars & u2.vars
                assert any(
                    all(m2[v] == m[v] for v in shared) for m2 in members2
                )


def test_triangle_to_c2_k1_wins():
    won, family = pebble.wins_cover_game(triangle, (), c2, (), 1)
    assert won
    check_family(family, triangle, c2)


def test_fig1_q_to_qprime_k1_wins():
    won, family = pebble.wins_cover_game(fig1_q, (), fig1_qprime, (), 1)
    assert won
    check_family(family, fig1_q, fig1_qprime)


def test_triangle_to_single_edge_k1_loses():
    won, family = pebble.wins_cover_game(triangle, (), single_edge, (), 1)
    assert not won and family is None
    # the same pair against the edge database
    assert not pebble.wins_cover_game(triangle, (), edge_db, (), 1)[0]


def test_anchor_arity_mismatch_raises():
    q = parse_query("q(x) :- E(x,y).")
    with pytest.raises(ArityError):
        pebble.wins_cover_game(q, q.free_vars, triangle_db, (), 1)
    with pytest.raises(ArityError):
        pebble.wins_bounded(q, q.free_vars, triangle_db, (), 1, 2)


def test_relation_arity_mismatch_raises():
    q = parse_query("q() :- R(x,y).")
    longer = Database((Atom("R", (Const("a"), Const("b"), Const("c"))),))
    shorter = Database((Atom("R", (Const("a"),)),))
    for tgt in (longer, shorter, parse_query("q() :- R(x).")):
        with pytest.raises(ArityError):
            pebble.wins_cover_game(q, (), tgt, (), 1)
        with pytest.raises(ArityError):
            pebble.wins_bounded(q, (), tgt, (), 1, 2)
    with pytest.raises(ArityError):
        pebble.constrained_wins_1(q, set(), parse_query("q() :- R(x)."), set())


def test_broken_anchor_map_is_immediate_loss():
    # x is forced to two different constants
    q = parse_query("q(x,x) :- E(x,y).")
    tgt = Database(triangle_db.facts)
    one, two = sorted(tgt.adom)[:2]
    assert not pebble.wins_cover_game(q, q.free_vars, tgt, (one, two), 1)[0]
    assert not pebble.wins_bounded(q, q.free_vars, tgt, (one, two), 1, 0)


def test_anchor_values_outside_the_target():
    # zz occurs in no fact: an anchored variable inside some atom can then
    # match nothing, while one outside every atom only rides along
    db = parse_database("E(a,b).")
    a, b, zz = Const("a"), Const("b"), Const("zz")
    x, y, z, w = map(Var, "xyzw")
    q = parse_query("q(x) :- E(x,y).")
    twice = parse_query("q(x,x) :- E(y,z).")
    unused = ConjunctiveQuery((x, w), (Atom("E", (x, y)),))
    for k in (1, 2):
        assert pebble.wins_cover_game(q, q.free_vars, db, (zz,), k) == (False, None)
        assert not pebble.wins_bounded(q, q.free_vars, db, (zz,), k, 2)
        won, family = pebble.wins_cover_game(twice, twice.free_vars, db, (zz, zz), k)
        assert won and family.members == [[{x: zz, y: a, z: b}]]
        assert pebble.wins_cover_game(unused, unused.free_vars, db, (a, zz), k)[0]
    assert find_hom(q, q.free_vars, db, (zz,)) is None


def test_unbounded_matches_oracle_on_randoms():
    rng = random.Random(977)
    for trial in range(220):
        q, src_tuple, db, tgt = rand_anchored_pair(rng)
        k = rng.randint(1, 2)
        won, family = pebble.wins_cover_game(q, src_tuple, db, tgt, k)
        assert won == oracle_wins_unbounded(q, src_tuple, db, tgt, k), (
            trial,
            q,
            db,
            tgt,
            k,
        )
        if won and family.unions:
            check_family(family, q, db)


def test_unbounded_cq_targets_match_oracle():
    rng = random.Random(978)
    for _ in range(80):
        src = rand_cq(rng, max_atoms=4)
        tgt = rand_cq(rng, max_atoms=4)
        k = rng.randint(1, 2)
        got = pebble.wins_cover_game(src, (), tgt, (), k)[0]
        assert got == oracle_wins_unbounded(src, (), tgt, (), k)


def test_hom_implies_game_win():
    rng = random.Random(979)
    for _ in range(80):
        q, src_tuple, db, tgt = rand_anchored_pair(rng)
        if find_hom(q, src_tuple, db, tgt) is None:
            continue
        for k in (1, 2, 3):
            assert pebble.wins_cover_game(q, src_tuple, db, tgt, k)[0]


def test_monotone_in_k():
    rng = random.Random(980)
    for _ in range(60):
        q, src_tuple, db, tgt = rand_anchored_pair(rng)
        verdicts = [
            pebble.wins_cover_game(q, src_tuple, db, tgt, k)[0] for k in (1, 2, 3)
        ]
        # a win at k+1 forces a win at k
        assert verdicts == sorted(verdicts, reverse=True)


def test_reversed_deletion_order_same_fixpoint():
    rng = random.Random(981)

    def surviving(game):
        while game.all_nonempty():
            if not game.sweep():
                return {
                    u.vars: set(ms)
                    for u, ms in zip(game.unions, game.members)
                }
        return None

    for _ in range(40):
        q, src_tuple, db, tgt = rand_anchored_pair(rng)
        k = rng.randint(1, 2)
        plain = pebble._Game(q, src_tuple, db, tgt, k)
        if not plain.anchors_ok or not plain.unions:
            continue
        rev = pebble._Game(q, src_tuple, db, tgt, k)
        n = len(rev.unions)
        rev.unions = rev.unions[::-1]
        rev.vlists = rev.vlists[::-1]
        rev.members = rev.members[::-1]
        rev.pairs = [
            [(n - 1 - j, pi, pj) for j, pi, pj in row] for row in rev.pairs[::-1]
        ]
        assert surviving(plain) == surviving(rev)


def _items(members):
    return [[list(h.items()) for h in ms] for ms in members]


def test_families_and_levels_match_all_pairs_sweep():
    # the overlap graph, the frontier and interned ids change no member,
    # no member order and no level of the bounded game
    rng = random.Random(990)
    cases = [rand_anchored_pair(rng) + (rng.randint(1, 2),) for _ in range(150)]
    cases += [(triangle, (), c2, (), 1), (fig1_q, (), fig1_qprime, (), 2)]
    cases += [(chain_q, (), chain_db, (), 1)]
    for n in (2, 3):  # the forward game takes several rounds to settle
        qn, qp = gen_qn(n), gen_qn_prime(n)
        cases += [(qp, (), qn, (), 1), (qn, (), qp, (), 1)]
    for q, src_tuple, db, tgt, k in cases:
        won, family = pebble.wins_cover_game(q, src_tuple, db, tgt, k)
        ref = reference_sweep_game(q, src_tuple, db, tgt, k)
        assert (_items(family.members) if won else None) == (
            None if ref is None else _items(ref)
        ), (q, db, tgt, k)
        anchors_ok = pebble._Game(q, src_tuple, db, tgt, k).anchors_ok
        for c in range(5):
            expect = anchors_ok if c == 0 else reference_sweep_game(
                q, src_tuple, db, tgt, k, rounds=c - 1
            ) is not None
            assert pebble.wins_bounded(q, src_tuple, db, tgt, k, c) == expect


def test_variable_disjoint_union_left_when_partner_empties():
    # E(x,y) shares no variable with the F atoms, so it has no overlap
    # pairs; the F unions empty each other in round 1 and the E union
    # stays non-empty, which must still be a loss
    q = parse_query("q() :- E(x,y), F(z,w), F(w,v).")
    db = parse_database("E(a,b). F(c,d).")
    game = pebble._Game(q, (), db, (), 1)
    assert [len(row) for row in game.pairs] == [1, 1, 0]  # E(x,y) comes last
    assert game.sweep() and game.members[2] and not any(game.members[:2])
    assert pebble.wins_cover_game(q, (), db, (), 1) == (False, None)
    assert pebble.wins_bounded(q, (), db, (), 1, 1)
    assert not pebble.wins_bounded(q, (), db, (), 1, 2)
    same_as_query = parse_query("q() :- E(a,b), F(c,d).")
    assert not pebble.constrained_wins_1(q, set(), same_as_query, set())


def test_frontier_rechecks_only_unions_next_to_a_loss():
    game = pebble._Game(chain_q, (), chain_db, (), 1)
    assert [sorted(v.name for v in u.vars) for u in game.unions] == [
        ["w", "z"], ["x", "y"], ["y", "z"]
    ]
    assert game.sweep() and game.lost == {2}  # F(b,c) goes ...
    assert game.sweep() and game.lost == {1}  # ... then E(a,b), its only partner
    assert not game.sweep()
    assert not game.sweep()  # after a round that deleted nothing, none is re-checked
    # all 3 unions, F's 2 neighbours, E's 1 neighbour, then none
    assert game.rechecked == [3, 2, 1, 0]
    assert [len(ms) for ms in game.members] == [1, 1, 1]


# --- bounded game ---------------------------------------------------------


def test_triangle_vs_edge_round_counts():
    assert pebble.wins_bounded(triangle, (), edge_db, (), 1, 0)
    assert pebble.wins_bounded(triangle, (), edge_db, (), 1, 1)
    assert not pebble.wins_bounded(triangle, (), edge_db, (), 1, 2)


def test_identity_always_wins():
    rng = random.Random(982)
    queries = [triangle, c2, loop, path2, fig1_q] + [rand_cq(rng) for _ in range(5)]
    for q in queries:
        for k in (1, 2):
            for c in (0, 1, 3):
                assert pebble.wins_bounded(q, q.free_vars, q, q.free_vars, k, c)
            assert pebble.wins_cover_game(q, q.free_vars, q, q.free_vars, k)[0]


def test_bounded_rejects_negative_rounds():
    with pytest.raises(CqError):
        pebble.wins_bounded(triangle, (), edge_db, (), 1, -1)


def test_bounded_matches_oracle_on_randoms():
    rng = random.Random(983)
    for trial in range(200):
        q, src_tuple, db, tgt = rand_anchored_pair(rng)
        k = rng.randint(1, 2)
        c = rng.randint(0, 3)
        got = pebble.wins_bounded(q, src_tuple, db, tgt, k, c)
        assert got == oracle_wins_bounded(q, src_tuple, db, tgt, k, c), (
            trial,
            q,
            db,
            tgt,
            k,
            c,
        )


def test_antimonotone_in_rounds_and_stabilization():
    rng = random.Random(984)
    for _ in range(60):
        q, src_tuple, db, tgt = rand_anchored_pair(rng)
        k = rng.randint(1, 2)
        verdicts = [
            pebble.wins_bounded(q, src_tuple, db, tgt, k, c) for c in range(5)
        ]
        assert verdicts == sorted(verdicts, reverse=True)
        # far past stabilization the bounded game equals the unbounded one
        assert pebble.wins_bounded(q, src_tuple, db, tgt, k, 10_000) == (
            pebble.wins_cover_game(q, src_tuple, db, tgt, k)[0]
        )


def test_eval_agreement_for_acyclic_cores_k1():
    # for q whose core is acyclic, the k=1 game decides evaluation exactly
    rng = random.Random(985)
    checked = 0
    while checked < 25:
        q = rand_cq(rng, max_atoms=4, n_free=rng.randint(0, 2))
        if width.ghw1_membership(hom.core(q)) is None:
            continue
        db = rand_db(rng, max_consts=4, max_facts=6)
        answers = set(hom.evaluate(q, db))
        for cand in itertools.product(db.adom, repeat=len(q.free_vars)):
            won = pebble.wins_cover_game(q, q.free_vars, db, cand, 1)[0]
            assert won == (cand in answers)
        checked += 1


# --- set-constrained 1-cover game -------------------------------------------


def test_constrained_identity():
    xs = {Var("x")}
    assert pebble.constrained_wins_1(triangle, xs, triangle, xs)
    assert pebble.constrained_wins_1(single_edge, set(), single_edge, set())


def test_constrained_forced_miss():
    tgt = parse_query("q() :- E(a,b).")
    assert not pebble.constrained_wins_1(single_edge, {Var("x")}, tgt, {Var("b")})
    assert pebble.constrained_wins_1(single_edge, {Var("x")}, tgt, {Var("a")})


def test_constrained_empty_sets_reduce_to_plain_game():
    assert pebble.constrained_wins_1(triangle, set(), c2, set())
    rng = random.Random(986)
    for _ in range(60):
        src = rand_cq(rng, max_atoms=4)
        tgt = rand_cq(rng, max_atoms=4)
        got = pebble.constrained_wins_1(src, set(), tgt, set())
        assert got == oracle_wins_unbounded(src, (), tgt, (), 1)


def test_constrained_win_implies_plain_win():
    rng = random.Random(987)
    for _ in range(60):
        src = rand_cq(rng, max_atoms=4)
        tgt = rand_cq(rng, max_atoms=4)
        src_vars = sorted(src.variables)
        tgt_vars = sorted(tgt.variables)
        xs = {v for v in src_vars if rng.random() < 0.4}
        x2 = {v for v in tgt_vars if rng.random() < 0.6}
        if pebble.constrained_wins_1(src, xs, tgt, x2):
            assert pebble.wins_cover_game(src, (), tgt, (), 1)[0]


def test_constrained_requires_boolean():
    q = parse_query("q(x) :- E(x,y).")
    with pytest.raises(CqError):
        pebble.constrained_wins_1(q, set(), triangle, set())


# --- unrolling ----------------------------------------------------------------


def test_unroll_depth_zero_is_empty():
    qc = pebble.unroll(triangle, 1, 0)
    assert qc.atoms == () and qc.free_vars == ()


def test_unroll_triangle_depth_one():
    qc = pebble.unroll(triangle, 1, 1)
    assert len(qc.atoms) == 3
    # three disjoint directed edges: 6 distinct variables, core is one edge
    assert len(qc.variables) == 6
    assert len(hom.core(qc).atoms) == 1


def test_unroll_triangle_depth_two_sizes():
    # 3 unions, (3^2-1)/2 = 4 nodes, one atom each: 12 emitted
    assert pebble.unroll_size(triangle, 1, 2) == 12
    qc = pebble.unroll(triangle, 1, 2)
    # each node's same-label child repeats its atom, so 9 distinct remain
    assert len(qc.atoms) == 9


def test_unroll_single_union_collapses():
    # one k-union means one occurrence chain: q_c is q renamed apart
    q = parse_query("q(x) :- E(x,y).")
    for c in (1, 2, 3):
        qc = pebble.unroll(q, 1, c)
        assert qc.free_vars == q.free_vars
        assert len(qc.atoms) == 1
        assert hom.equivalent(qc, q)


def test_unroll_preserves_anchors():
    q = parse_query("q(x) :- E(x,y), E(y,z).")
    qc = pebble.unroll(q, 1, 2)
    assert qc.free_vars == (Var("x"),)
    # anchors are never renamed: x still appears in atoms
    assert any(Var("x") in a.args for a in qc.atoms)


def test_unroll_decomposition_validates():
    cases = [(triangle, 1, 2), (fig1_q, 1, 2), (triangle, 2, 2)]
    rng = random.Random(988)
    for _ in range(10):
        cases.append((rand_cq(rng, max_atoms=4), rng.randint(1, 2), rng.randint(0, 2)))
    for q, k, c in cases:
        qc, td = pebble.unroll_with_decomposition(q, k, c)
        assert width.validate_decomposition(qc, td, k)


def test_unroll_budget_warning():
    with pytest.warns(pebble.UnrollBudgetWarning):
        pebble.unroll(triangle, 1, 6, budget=10)
    qc = pebble.unroll(triangle, 1, 6, budget=None)
    assert len(qc.atoms) > 10


def test_unroll_is_deterministic():
    a = pebble.unroll(fig1_q, 2, 2)
    b = pebble.unroll(fig1_q, 2, 2)
    assert a == b and repr(a) == repr(b)


def test_unroll_matches_bounded_wins_on_randoms():
    # homs out of the unrolling are exactly bounded-game wins (c ≥ 1: the
    # depth-0 unrolling is empty and cannot see anchor-internal atoms)
    rng = random.Random(989)
    for trial in range(70):
        q = rand_cq(rng, max_atoms=4, n_free=rng.randint(0, 1))
        db = rand_db(rng, max_consts=5, max_facts=7)
        k = rng.randint(1, 2)
        c = rng.randint(1, 3)
        if not db.adom and q.free_vars:
            continue
        consts = sorted(db.adom)
        tgt = tuple(rng.choice(consts) for _ in q.free_vars)
        qc = pebble.unroll(q, k, c, budget=None)
        lhs = find_hom(qc, qc.free_vars, db, tgt) is not None
        rhs = pebble.wins_bounded(q, q.free_vars, db, tgt, k, c)
        assert lhs == rhs, (trial, q, db, tgt, k, c)


def test_pruned_unrolling_sizes():
    # the overlap-pruned tree exists_overapprox builds, against the full one
    for q, c, pruned, full in ((gen_qn_prime(4), 3, 218, 7_230), (triangle, 8, 765, 9_840)):
        qc, td = pebble._Tree(q, 1, pruned=True).build(c)
        assert len(qc.atoms) == pruned
        assert width.validate_decomposition(qc, td, 1)
        assert pebble.unroll_size(q, 1, c) == full


def test_unroll_keeps_atoms_touching_free_variables():
    # a Duplicator answer on {x1,x2} also fixes x0 and so must respect
    # E(x0,x1); the node for {x1,x2} has to carry that atom as well
    q = parse_query("q(x0) :- E(x0,x1), E(x1,x2).")
    db = parse_database("E(c0,c1).")
    qc = pebble.unroll(q, 1, 1)
    assert len(qc.atoms) == pebble.unroll_size(q, 1, 1) == 3
    assert not pebble.wins_bounded(q, q.free_vars, db, (Const("c0"),), 1, 1)
    assert find_hom(qc, qc.free_vars, db, (Const("c0"),)) is None


def test_depth_zero_diverges_from_zero_rounds_on_anchor_atoms():
    # unroll(q, k, 0) keeps no atoms, so it cannot reject a database that
    # misses an atom lying entirely inside the anchors; the 0-round game
    # does reject it. The hom-equivalence therefore starts at c = 1.
    q = parse_query("q(x) :- P(x).")
    db = Database((Atom("E", triangle_db.facts[0].args),))
    a = sorted(db.adom)[0]
    q0 = pebble.unroll(q, 1, 0)
    assert q0.atoms == () and q0.free_vars == (Var("x"),)
    assert find_hom(q0, q0.free_vars, db, (a,)) is not None
    assert not pebble.wins_bounded(q, q.free_vars, db, (a,), 1, 0)
