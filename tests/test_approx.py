"""Overapproximation identification, evaluation, existence, the greedy
width-1 construction, and Δ-approximations."""

import random
import warnings

import pytest

from cqapprox import approx, pebble
from cqapprox.gen import corpus, gen_qn, gen_qn_prime
from cqapprox.model import (
    Atom,
    ConjunctiveQuery,
    Const,
    CqError,
    Database,
    PreconditionUnknownError,
    Var,
    canonical_database,
    disjoint_conjunction,
    gaifman,
    parse_query,
    serialize_query,
)
from cqapprox.hom import ArityError, contains, core, equivalent, find_hom
from cqapprox.pebble import UnrollBudgetWarning, WinningFamily
from cqapprox.width import (
    TreeDecomposition,
    compute_ghw,
    ghw1_membership,
    validate_decomposition,
)

from _oracles import brute_evaluate
from _support import (
    c2,
    c2_db,
    directed_cycle,
    edge_db,
    fig1_q,
    fig1_qprime,
    loop,
    path2,
    path3,
    rand_binary_boolean_cq,
    rand_bipartite_boolean,
    rand_cq,
    rand_db,
    single_edge,
    triangle,
    triangle_db,
)

loop_db = Database((Atom("E", (Const("c"), Const("c"))),))

undirected_2path = parse_query("q() :- E(x,y), E(y,x), E(y,z), E(z,y).")
undirected_3path = parse_query(
    "q() :- E(a,b), E(b,a), E(b,c), E(c,b), E(c,d), E(d,c)."
)


def _long_path(n: int) -> ConjunctiveQuery:
    vs = [Var(f"p{i}") for i in range(n)]
    atoms = tuple(Atom("E", (vs[i], vs[i + 1])) for i in range(n - 1))
    return ConjunctiveQuery((), atoms)


# --- identify_overapprox -------------------------------------------------------


def test_identify_fig1_pair():
    assert approx.identify_overapprox(fig1_q, fig1_qprime, 1)


def test_identify_rejects_incomparable_candidate():
    # C2 does not contain the triangle, so it cannot be its overapproximation
    assert not approx.identify_overapprox(triangle, c2, 1)


def test_identify_self_at_width_two():
    assert approx.identify_overapprox(triangle, triangle, 2)


def test_identify_cyclic_candidate_at_width_one_is_false():
    assert not approx.identify_overapprox(c2, triangle, 1)


def test_identify_core_of_acyclic_query_is_its_overapprox():
    rng = random.Random(5)
    seen_true = 0
    for _ in range(20):
        q = rand_cq(rng, n_free=rng.choice((0, 1)))
        qc = core(q)
        got = approx.identify_overapprox(q, qc, 1)
        acyclic = ghw1_membership(qc) is not None
        assert got == acyclic
        seen_true += got
    assert seen_true >= 5


def test_identify_implies_containment():
    rng = random.Random(6)
    pairs = [(fig1_q, fig1_qprime)]
    for _ in range(10):
        q = rand_cq(rng)
        pairs.append((q, core(q)))
    for q, cand in pairs:
        try:
            flagged = approx.identify_overapprox(q, cand, 1)
        except PreconditionUnknownError:
            continue
        if flagged:
            assert contains(q, cand)


def test_identify_invariant_under_coring_candidate():
    cases = [(fig1_q, fig1_qprime), (triangle, c2), (c2, c2)]
    rng = random.Random(7)
    for _ in range(8):
        q = rand_cq(rng)
        cases.append((q, core(q)))
    for q, cand in cases:
        inflated = disjoint_conjunction(cand, cand)
        assert approx.identify_overapprox(q, cand, 1) == approx.identify_overapprox(
            q, inflated, 1
        )


def test_identify_reads_the_candidate_literally():
    # class membership is decided on the candidate as written, not on
    # its core: an equivalent cyclic candidate is not the width-1 answer
    q = parse_query("q() :- E(x,x).")
    cyclic = parse_query("q() :- E(x,y), E(y,z), E(z,x), E(x,x).")
    assert equivalent(q, cyclic)
    assert approx.identify_overapprox(q, cyclic, 1) is False
    assert approx.identify_overapprox(q, q, 1) is True
    assert approx.identify_overapprox(q, core(cyclic), 1) is True


def test_identify_unverifiable_width_raises():
    big = directed_cycle(14)
    with pytest.raises(PreconditionUnknownError):
        approx.identify_overapprox(single_edge, big, 2)


def test_long_acyclic_candidate_is_decided_past_the_width_guard():
    # acyclicity settles membership before the exact search's size guard
    big = _long_path(14)
    assert approx.identify_overapprox(big, big, 2) is True
    assert approx.identify_overapprox(single_edge, big, 2) is False
    assert approx.identify_delta(single_edge, big, 2) is False


def test_identify_invalid_certificate_raises():
    bad_cert = ghw1_membership(c2)
    with pytest.raises(PreconditionUnknownError):
        approx.identify_overapprox(fig1_q, triangle, 1, cert=bad_cert)


def test_identify_with_valid_certificate():
    cert = ghw1_membership(fig1_qprime)
    assert approx.identify_overapprox(fig1_q, fig1_qprime, 1, cert=cert)


def test_identify_width_two_with_supplied_bag():
    td = TreeDecomposition({0: None}, {0: frozenset(triangle.variables)}, 2)
    assert approx.identify_overapprox(triangle, triangle, 2, cert=td)


def _count_games(monkeypatch) -> list:
    built = []
    real = pebble._Game.__init__

    def counting(self, *args):
        built.append(args[0])
        real(self, *args)

    monkeypatch.setattr(pebble._Game, "__init__", counting)
    return built


def test_identify_decides_a_decomposed_candidate_forward_by_semijoins(monkeypatch):
    # the candidate's join tree decides cand -> q; only q's game into cand is played
    built = _count_games(monkeypatch)
    assert approx.identify_overapprox(gen_qn(4), gen_qn_prime(4), 1)
    assert built == [gen_qn(4)]
    built.clear()
    assert not approx.identify_overapprox(gen_qn(5), gen_qn_prime(4), 1)
    assert built == [gen_qn(5)]
    built.clear()
    td = TreeDecomposition({0: None}, {0: frozenset(triangle.variables)}, 2)
    assert approx.identify_overapprox(triangle, triangle, 2, cert=td)
    assert built == [triangle]


def test_identify_plays_one_game_for_a_cyclic_candidate(monkeypatch):
    # the exact-width search returns the triangle's decomposition, along
    # which the semijoins decide cand -> q; only q's game into cand is played
    built = _count_games(monkeypatch)
    assert approx.identify_overapprox(triangle, triangle, 2)
    assert built == [triangle]


def test_a_certificate_may_hold_its_bags_as_sets():
    # validate_decomposition only asks <=, & and - of a bag
    td = TreeDecomposition({0: None}, {0: set(triangle.variables)}, 2)
    assert approx.identify_overapprox(triangle, triangle, 2, cert=td)
    tree = ghw1_membership(fig1_qprime)
    td = TreeDecomposition(tree.parent, {n: set(b) for n, b in tree.bags.items()}, 1)
    assert approx.identify_overapprox(fig1_q, fig1_qprime, 1, cert=td)
    td = TreeDecomposition({0: None}, {0: set(c2.variables)}, 1)
    assert approx.identify_delta(triangle, c2, 1, cert=td)
    assert approx.eval_delta_filtered(triangle, c2, c2_db, (), 1, cert=td)
    assert not approx.eval_delta_filtered(triangle, c2, edge_db, (), 1, cert=td)


def test_identify_forward_by_semijoins_agrees_with_both_games():
    rng = random.Random(36)
    found = 0
    for _ in range(150):
        q = rand_cq(rng, max_atoms=4, n_free=rng.choice((0, 1)))
        cand = rand_cq(rng, max_atoms=4, n_free=len(q.free_vars))
        for k in (1, 2):
            want = (
                compute_ghw(cand, k) is not None
                and pebble.wins_cover_game(cand, cand.free_vars, q, q.free_vars, k)[0]
                and pebble.wins_cover_game(q, q.free_vars, cand, cand.free_vars, k)[0]
            )
            assert approx.identify_overapprox(q, cand, k) == want
            found += want
    assert found


# --- certify_overapprox --------------------------------------------------------


def test_certify_fig1_returns_evidence():
    cert = approx.certify_overapprox(fig1_q, fig1_qprime, 1)
    assert cert is not None
    assert cert.query is fig1_qprime and cert.k == 1
    assert validate_decomposition(fig1_qprime, cert.decomposition, 1)
    for fam in (cert.forward_family, cert.backward_family):
        assert isinstance(fam, WinningFamily)
        assert fam.anchors == {}
        assert len(fam.members) == len(fam.unions)
        assert all(fam.members)


def test_certify_negative_returns_none():
    assert approx.certify_overapprox(triangle, c2, 1) is None


def test_certify_width_two_finds_a_cyclic_candidates_decomposition():
    cert = approx.certify_overapprox(triangle, triangle, 2)
    assert cert is not None and cert.k == 2
    assert cert.decomposition.width == 2
    assert validate_decomposition(triangle, cert.decomposition, 2)
    # the directed 4-cycle does not map into the triangle: no certificate
    c4 = directed_cycle(4)
    assert approx.certify_overapprox(triangle, c4, 2) is None
    assert not approx.identify_overapprox(triangle, c4, 2)


def test_certify_width_two_takes_an_acyclic_candidates_join_tree():
    # an acyclic candidate's join tree validates at every k >= 1, so no
    # cert is needed; the answer agrees with identify_overapprox
    cert = approx.certify_overapprox(path2, path2, 2)
    assert cert is not None and cert.k == 2
    assert cert.decomposition == ghw1_membership(path2)
    assert validate_decomposition(path2, cert.decomposition, 2)
    assert approx.identify_overapprox(path2, path2, 2)
    assert approx.certify_overapprox(fig1_q, fig1_qprime, 2) is None
    assert not approx.identify_overapprox(fig1_q, fig1_qprime, 2)


def test_certify_width_two_keeps_supplied_decomposition():
    td = TreeDecomposition({0: None}, {0: frozenset(triangle.variables)}, 2)
    cert = approx.certify_overapprox(triangle, triangle, 2, cert=td)
    assert cert is not None and cert.decomposition is td


# --- eval_overapprox -----------------------------------------------------------


def test_eval_overapprox_triangle_on_symmetric_edge():
    # the width-1 overapproximation of the triangle is satisfied here even
    # though the triangle itself is not
    assert approx.eval_overapprox(triangle, c2_db, (), 1)
    assert brute_evaluate(triangle, c2_db) == set()


def test_eval_overapprox_triangle_on_its_own_database():
    assert approx.eval_overapprox(triangle, triangle_db, (), 1)


def test_eval_overapprox_triangle_on_single_edge():
    assert not approx.eval_overapprox(triangle, edge_db, (), 1)


def test_eval_overapprox_arity_mismatch():
    with pytest.raises(ArityError):
        approx.eval_overapprox(triangle, edge_db, ("a",), 1)


def test_eval_overapprox_exact_on_acyclic_queries():
    rng = random.Random(11)
    checked = 0
    for _ in range(40):
        q = core(rand_cq(rng, max_atoms=4, n_free=rng.choice((0, 1))))
        if ghw1_membership(q) is None:
            continue
        db = rand_db(rng, max_consts=4, max_facts=6)
        exact = brute_evaluate(q, db)
        adom = sorted(db.adom)
        answers = [()] if q.is_boolean else [(c,) for c in adom]
        for a in answers:
            got = approx.eval_overapprox(q, db, a, 1)
            want = a in exact if not q.is_boolean else bool(exact)
            assert got == want
            checked += 1
    assert checked >= 20


# --- exists_overapprox ---------------------------------------------------------


def test_exists_fig1_finds_the_known_overapprox():
    out = approx.exists_overapprox(fig1_q, 1)
    assert out is not None
    assert equivalent(out, fig1_qprime)
    assert approx.identify_overapprox(fig1_q, out, 1)


def test_exists_acyclic_query_returns_itself_up_to_equivalence():
    for q in (path3, c2, loop, single_edge):
        out = approx.exists_overapprox(q, 1)
        assert out is not None and equivalent(out, q)


def test_exists_triangle_inconclusive():
    assert approx.exists_overapprox(triangle, 1, cmax=6) is None


def test_exists_budget_warning():
    with pytest.warns(UnrollBudgetWarning):
        out = approx.exists_overapprox(triangle, 1, cmax=8, budget=5)
    assert out is None


def _full_exists(q, k, cmax, budget):
    """The existence search over the complete unrolling `unroll` builds,
    the reference for the pruned one: core(q_c) or None."""
    for c in range(1, cmax + 1):
        if pebble.unroll_size(q, k, c) > budget:
            return None
        qc = pebble.unroll(q, k, c, budget=None)
        if pebble.wins_cover_game(q, q.free_vars, qc, qc.free_vars, k)[0]:
            return core(qc)
    return None


@pytest.mark.filterwarnings("ignore::cqapprox.pebble.UnrollBudgetWarning")
def test_exists_witness_is_the_full_unrolling_witness_renamed():
    # both searches stop at the same budget, so they decide the same
    # queries; equivalent cores of one size are isomorphic
    rng = random.Random(31)
    cases = [q for q in corpus().values() if isinstance(q, ConjunctiveQuery)]
    cases += [rand_cq(rng, max_atoms=5, n_free=rng.choice((0, 1, 2))) for _ in range(30)]
    cases += [rand_binary_boolean_cq(rng, max_atoms=6, max_vars=4) for _ in range(15)]
    decided = 0
    for q in cases:
        want = _full_exists(q, 1, 3, 3_000)
        got = approx.exists_overapprox(q, 1, cmax=3, budget=3_000)
        assert (got is None) == (want is None), q
        if want is not None:
            decided += 1
            assert len(got.atoms) == len(want.atoms) and equivalent(got, want), q
    assert decided >= 50
    # gen_qn_prime(n) is the overapproximation, so the full search finds a
    # core of its size; run in full, that search is slow at gen_qn(4)
    for n in range(1, 5):
        got = approx.exists_overapprox(gen_qn(n), 1)
        assert len(got.atoms) == 2 * (2**n - 1) and equivalent(got, gen_qn_prime(n))


def _pruned_exists(q, k, cmax, budget):
    """The existence search with all of the pruned q_c retracted: the
    reference for the part that `exists_overapprox` retracts."""
    tree = pebble._Tree(q, k, pruned=True)
    for c in range(1, cmax + 1):
        if pebble.unroll_size(q, k, c) > budget:
            return None
        tree.grow()
        qc = tree.query()
        if pebble.wins_cover_game(q, q.free_vars, qc, qc.free_vars, k)[0]:
            return core(qc)
    return None


def _named_after_q(got, q):
    """Every variable of got is a variable of q, or `<name>_<i>` for a
    variable <name> of q that got also holds (its first copy)."""
    own = {v.name for v in got.variables}
    for v in got.variables - q.variables:
        name, _, i = v.name.rpartition("_")
        if not (i.isdigit() and Var(name) in q.variables and name in own):
            return False
    return True


@pytest.mark.filterwarnings("ignore::cqapprox.pebble.UnrollBudgetWarning")
def test_exists_part_agrees_with_the_core_of_the_whole_pruned_unrolling():
    rng = random.Random(47)
    cases = [q for q in corpus().values() if isinstance(q, ConjunctiveQuery)]
    cases += [rand_cq(rng, max_atoms=4, n_free=rng.choice((0, 1, 2))) for _ in range(30)]
    cases += [rand_binary_boolean_cq(rng, max_atoms=5, max_vars=4) for _ in range(10)]
    decided = 0
    for k, cmax, budget in ((1, 3, 3_000), (2, 2, 600)):
        for q in cases:
            want = _pruned_exists(q, k, cmax, budget)
            got = approx.exists_overapprox(q, k, cmax=cmax, budget=budget)
            assert (got is None) == (want is None), (q, k)
            if want is not None:
                decided += 1
                assert len(got.atoms) == len(want.atoms) and equivalent(got, want), (q, k)
                assert _named_after_q(got, q), (q, got)
    assert decided >= 60


def _core_sizes(monkeypatch):
    sizes = []

    def recording_core(q):
        sizes.append(len(q.atoms))
        return core(q)

    monkeypatch.setattr(approx, "core", recording_core)
    return sizes


def test_exists_retracts_only_the_part_the_game_confirms(monkeypatch):
    # the pruned q_3, q_4 and q_5 of gen_qn(3..5) have 150, 1,098 and
    # 7,430 atoms; the image the won game gives `core` is already the
    # core's size, 2(2^n - 1)
    sizes = _core_sizes(monkeypatch)
    for n, budget in ((3, 50_000), (4, 50_000), (5, None)):
        got = approx.exists_overapprox(gen_qn(n), 1, budget=budget)
        assert equivalent(got, gen_qn_prime(n))
    assert sizes == [14, 30, 62]


def test_exists_names_each_copy_once(monkeypatch):
    # q_c is q_{c-1} plus a level: a search that runs to cmax = 8 names
    # the copies of the pruned q_8 once, not those of every q_c afresh
    made = []
    real = pebble._fresh

    def counting(names, used):
        made.append(real(names, used))
        return made[-1]

    monkeypatch.setattr(pebble, "_fresh", counting)
    assert approx.exists_overapprox(triangle, 1, cmax=8) is None
    assert len(made) == len(set(made)) == 768


def test_exists_retracts_a_one_component_unrolling_whole(monkeypatch):
    sizes = _core_sizes(monkeypatch)
    tree = pebble._Tree(gen_qn(1), 1, pruned=True)
    tree.grow()
    qc = tree.query()
    assert approx.exists_overapprox(gen_qn(1), 1) is not None
    assert sizes == [len(qc.atoms)] == [2]


def _part_cases():
    """(query, k): random queries with free variables, and disjoint
    conjunctions of two, at widths 1 and 2."""
    rng = random.Random(43)
    for _ in range(150):
        q = rand_cq(rng, max_atoms=rng.randint(2, 4), max_vars=rng.randint(2, 4), n_free=rng.randint(0, 2))
        if not q.free_vars and rng.random() < 0.5:
            q = disjoint_conjunction(q, rand_cq(rng, max_atoms=2, max_vars=3))
        yield q, rng.randint(1, 2)


def test_exists_part_is_confirmed_inside_the_game_as_a_fresh_game_would():
    # the part that the won game into q_c picks, its image, is made of
    # q_c's atoms, a fresh game into it is won, and it is equivalent to q_c
    cases = [*_part_cases()] + [(gen_qn(n), 1) for n in range(1, 5)]
    cases += [(gen_qn(n), 2) for n in range(1, 4)]
    won_at = []
    for q, k in cases:
        tree = pebble._Tree(q, k, pruned=True)
        for c in range(1, 4):
            tree.grow()
            qc = tree.query()
            game = pebble._Game(q, q.free_vars, qc, qc.free_vars, k)
            if game.run():
                break
        else:
            continue
        image = ConjunctiveQuery(qc.free_vars, tuple(game.image()), qc.name)
        assert set(image.atoms) <= set(qc.atoms), (q, k)
        assert pebble.wins_cover_game(q, q.free_vars, image, image.free_vars, k)[0], (q, k)
        assert contains(image, qc) and contains(qc, image), (q, k)
        won_at.append((k, c, len(image.atoms) < len(qc.atoms)))
    assert {(1, 1, True), (1, 2, True), (2, 1, True), (2, 2, True)} <= set(won_at)
    assert sum(smaller for _, _, smaller in won_at) >= 60


def test_exists_part_falls_back_to_the_whole_unrolling_when_its_game_is_lost():
    # an atom of q_c whose removal loses the game is in the image, so when
    # every smaller part's game is lost the image is all of q_c. The path
    # E(x,y), E(y,z) wins into the 2-path of q_c and not into either edge.
    q = parse_query("q() :- E(x,y), E(y,z).")
    qc = parse_query("q() :- E(a,b), E(c,d), E(d,e).")
    path = parse_query("q() :- E(c,d), E(d,e).")
    for target in (qc, path):
        game = pebble._Game(q, (), target, (), 1)
        assert game.run()
        assert set(game.image()) == set(path.atoms)
    whole_at = []
    for q, k in _part_cases():
        tree = pebble._Tree(q, k, pruned=True)
        tree.grow()
        qc = tree.query()
        game = pebble._Game(q, q.free_vars, qc, qc.free_vars, k)
        if len(qc.atoms) > 24 or not game.run():
            continue
        image = set(game.image())
        lost = []
        for a in qc.atoms:
            rest = tuple(b for b in qc.atoms if b != a)
            if set(qc.free_vars) <= {t for b in rest for t in b.args}:
                part = ConjunctiveQuery(qc.free_vars, rest, qc.name)
                if pebble.wins_cover_game(q, q.free_vars, part, part.free_vars, k)[0]:
                    continue
            assert a in image, (q, k, a)
            lost.append(a)
        if len(lost) == len(qc.atoms):
            assert image == set(qc.atoms), (q, k)
            whole_at.append(k)
    assert whole_at.count(1) >= 20 and whole_at.count(2) >= 20


def test_exists_witness_of_gen_qn_2_is_named_after_its_variables():
    got = approx.exists_overapprox(gen_qn(2), 1)
    assert serialize_query(got) == (
        "q() :- R(x0, x1_1, x2_1), R(x0, x2_1, x1_1), R(x1_1, x1_2, x2_2), "
        "R(x1_1, x2_2, x1_2), R(x2_1, x1_2_1, x2_2_1), R(x2_1, x2_2_1, x1_2_1)."
    )


def test_exists_copies_avoid_the_names_of_the_query():
    # gen_qn(2) with x0 renamed x1_2_1, the name x1_2's second copy had
    q = parse_query(
        "q() :- R(x1_2_1, x1_1, x2_1), R(x1_2_1, x2_1, x1_1), R(x1_1, x1_2, x2_2), "
        "R(x1_1, x2_2, x1_2), R(x2_1, x1_2, x2_2), R(x2_1, x2_2, x1_2)."
    )
    got = approx.exists_overapprox(q, 1)
    assert serialize_query(got) == (
        "q() :- R(x1_1, x1_2, x2_2), R(x1_1, x2_2, x1_2), R(x1_2_1, x1_1, x2_1), "
        "R(x1_2_1, x2_1, x1_1), R(x2_1, x1_2_2, x2_2_1), R(x2_1, x2_2_1, x1_2_2)."
    )


def test_exists_rejects_bad_cmax():
    with pytest.raises(CqError):
        approx.exists_overapprox(triangle, 1, cmax=0)


# --- hash_query ----------------------------------------------------------------


def test_hash_c2_is_c2_again():
    x, y = sorted(c2.variables)
    hq = approx.hash_query(c2, x, y)
    assert len(hq.result.atoms) == 2
    assert equivalent(hq.result, c2)
    assert hq.u_image != hq.v_image


def test_hash_triangle_is_a_three_edge_path():
    x, y = sorted(triangle.variables)[:2]
    hq = approx.hash_query(triangle, x, y)
    assert len(hq.result.atoms) == 3
    assert len(hq.result.variables) == 4
    names = {v.name for v in hq.result.variables}
    assert names == {"x_x", "y_y", "z_x", "z_y"}
    assert ghw1_membership(hq.result) is not None


def test_hash_collapse_is_hom_onto_base():
    rng = random.Random(13)
    queries = [triangle, c2, fig1_q, undirected_2path]
    for _ in range(8):
        q = rand_cq(rng, max_atoms=5, max_vars=4, schema=(("E", 2),))
        if gaifman(q).edges:
            queries.append(q)
    for q in queries:
        u, v = sorted(gaifman(q).edges)[0]
        hq = approx.hash_query(q, u, v)
        m = hq.hom_to_base.mapping
        for a in hq.result.atoms:
            assert Atom(a.relation, tuple(m[t] for t in a.args)) in set(q.atoms)
        assert m[hq.u_image] == u and m[hq.v_image] == v


def test_hash_nonadjacent_pair_rejected():
    x = Var("x")
    z = Var("z")
    with pytest.raises(CqError):
        approx.hash_query(path2, x, z)


def test_hash_ternary_bridge_rejected():
    q = parse_query("q() :- T(x,y,w), E(x,y).")
    with pytest.raises(CqError):
        approx.hash_query(q, Var("x"), Var("y"))


# --- swapping_endomorphism -------------------------------------------------


def test_swap_present_on_undirected_edge():
    got = approx.swapping_endomorphism(c2)
    assert got is not None
    h, x, y = got
    assert h.mapping[x] == y and h.mapping[y] == x
    assert gaifman(c2).adjacent(x, y)


def test_swap_absent_on_directed_edge_and_path():
    assert approx.swapping_endomorphism(single_edge) is None
    assert approx.swapping_endomorphism(path2) is None


def test_swap_preconditions():
    with pytest.raises(CqError):
        approx.swapping_endomorphism(triangle)  # cyclic
    with pytest.raises(CqError):
        approx.swapping_endomorphism(undirected_3path)  # not a core
    with pytest.raises(CqError):
        approx.swapping_endomorphism(parse_query("q(x) :- E(x,y)."))
    with pytest.raises(CqError):
        approx.swapping_endomorphism(disjoint_conjunction(c2, loop))


# --- greedy width-1 construction ---------------------------------------------


def test_greedy_fig1_builds_the_known_overapprox():
    out = approx.greedy_ghw1_overapprox(fig1_q)
    assert out is not None
    assert equivalent(out, fig1_qprime)
    assert ghw1_membership(out) is not None
    assert approx.identify_overapprox(fig1_q, out, 1)


def test_greedy_triangle_has_no_overapprox():
    assert approx.greedy_ghw1_overapprox(triangle) is None


def test_greedy_directed_cycles_have_none():
    for n in (4, 5, 7):
        assert approx.greedy_ghw1_overapprox(directed_cycle(n)) is None


def test_greedy_acyclic_inputs_come_back_cored():
    rng = random.Random(17)
    queries = [path3, c2, loop, single_edge, undirected_2path]
    for _ in range(10):
        q = rand_cq(rng, max_atoms=4, schema=(("E", 2), ("P", 1)))
        if ghw1_membership(q) is not None:
            queries.append(q)
    for q in queries:
        out = approx.greedy_ghw1_overapprox(q)
        assert out is not None and equivalent(out, core(q))


def test_greedy_disconnected_drops_absorbed_components():
    q = disjoint_conjunction(triangle, c2)
    out = approx.greedy_ghw1_overapprox(q)
    assert out is not None and equivalent(out, c2)
    assert approx.identify_overapprox(q, out, 1)

    q2 = disjoint_conjunction(c2, loop)
    out2 = approx.greedy_ghw1_overapprox(q2)
    assert out2 is not None and equivalent(out2, loop)


def test_greedy_witness_follows_the_component_order():
    # E(z,z) and E(b,b) are equivalent loops; the first component listed,
    # {z, a}, is absorbed, so the witness is the second one's loop
    q = parse_query("q() :- E(z,z), E(z,a), E(b,b).")
    assert serialize_query(approx.greedy_ghw1_overapprox(q)) == "q() :- E(b, b)."


def test_greedy_disconnected_keeps_incomparable_components():
    punary = parse_query("q() :- P(x).")
    q = disjoint_conjunction(c2, punary)
    out = approx.greedy_ghw1_overapprox(q)
    assert out is not None and equivalent(out, q)


def test_greedy_empty_query_is_returned_unchanged():
    q = ConjunctiveQuery((), ())
    assert approx.greedy_ghw1_overapprox(q) is q


def test_greedy_rejects_non_boolean_and_wide_atoms():
    with pytest.raises(CqError):
        approx.greedy_ghw1_overapprox(parse_query("q(x) :- E(x,y)."))
    with pytest.raises(CqError):
        approx.greedy_ghw1_overapprox(parse_query("q() :- T(x,y,z)."))


def test_greedy_agrees_with_exists_on_small_inputs():
    rng = random.Random(19)
    inputs = [triangle, c2, loop, path2, directed_cycle(4), directed_cycle(5)]
    inputs += [rand_bipartite_boolean(rng) for _ in range(10)]
    for q in inputs:
        built = approx.greedy_ghw1_overapprox(q)
        found = approx.exists_overapprox(q, 1, cmax=4)
        if found is not None:
            assert built is not None and equivalent(built, found)
        if built is None:
            assert found is None
        if built is not None:
            assert approx.identify_overapprox(q, built, 1)


def test_greedy_folds_bipartite_graphs_to_an_edge():
    rng = random.Random(23)
    for _ in range(10):
        q = rand_bipartite_boolean(rng)
        out = approx.greedy_ghw1_overapprox(q)
        assert out is not None and equivalent(out, c2)


# --- identify_delta ------------------------------------------------------------


def test_delta_triangle_c2():
    assert approx.identify_delta(triangle, c2, 1)


def test_delta_rejects_comparable_candidate():
    # the self-loop is the triangle's underapproximation, hence comparable
    assert not approx.identify_delta(triangle, loop, 1)


def test_delta_invariant_under_coring_candidate():
    assert core(undirected_2path) != undirected_2path
    a = approx.identify_delta(triangle, undirected_2path, 1)
    b = approx.identify_delta(triangle, core(undirected_2path), 1)
    assert a == b == True  # noqa: E712


def test_delta_cyclic_candidate_is_false():
    assert not approx.identify_delta(c2, triangle, 1)


def test_delta_unverifiable_width_raises():
    with pytest.raises(PreconditionUnknownError):
        approx.identify_delta(single_edge, directed_cycle(14), 2)


def test_delta_excludes_overapproximations():
    for q, cand in [(triangle, c2), (triangle, undirected_2path)]:
        assert approx.identify_delta(q, cand, 1)
        assert not approx.identify_overapprox(q, cand, 1)


def test_delta_symmetric_difference_stable_under_coring():
    rng = random.Random(29)
    pairs = [(triangle, c2), (triangle, undirected_2path)]
    for q, cand in pairs:
        cored = core(cand)
        for _ in range(50):
            db = rand_db(rng, max_consts=4, max_facts=7, schema=(("E", 2),))
            before = approx.symmetric_difference_eval(q, cand, db)
            after = approx.symmetric_difference_eval(q, cored, db)
            assert before == after


# --- eval_delta_filtered ---------------------------------------------------


def test_eval_delta_triangle_c2_on_symmetric_edge():
    assert approx.eval_delta_filtered(triangle, c2, c2_db, (), 1)


def test_eval_delta_filter_can_fail():
    assert not approx.eval_delta_filtered(triangle, c2, edge_db, (), 1)


def test_eval_delta_on_canonical_database_matches_filter_membership():
    q = parse_query("q(x) :- E(x,y), E(y,z).")
    q_inc = parse_query("q(x) :- E(w,x).")
    dq, image = canonical_database(q)
    got = approx.eval_delta_filtered(q, q_inc, dq, image, 1)
    assert got == (image in brute_evaluate(q_inc, dq))


def test_eval_delta_requires_both_conjuncts():
    # the filter holds at the path's endpoint but the game conjunct fails there
    q = parse_query("q(x) :- E(x,y), E(y,z).")
    q_inc = parse_query("q(x) :- E(w,x).")
    dq, _ = canonical_database(q)
    last = sorted(dq.adom)[-1]
    assert (last,) in brute_evaluate(q_inc, dq)
    assert not approx.eval_delta_filtered(q, q_inc, dq, (last,), 1)


def test_eval_delta_warns_on_comparable_filter():
    with pytest.warns(approx.ComparabilityWarning):
        got = approx.eval_delta_filtered(triangle, loop, loop_db, (), 1)
    assert got


def test_eval_delta_cyclic_filter_rejected():
    with pytest.raises(CqError):
        approx.eval_delta_filtered(c2, triangle, c2_db, (), 1)


def test_delta_decides_homomorphisms_out_of_the_candidate_by_semijoins(monkeypatch):
    # identify_delta: cand -> q; eval_delta_filtered: q_inc -> q and q_inc -> (D, a)
    calls = []
    real = approx._full_reducer

    def counting(source, src_tuple, target, tgt_tuple, td):
        calls.append((source, target))
        return real(source, src_tuple, target, tgt_tuple, td)

    monkeypatch.setattr(approx, "_full_reducer", counting)
    assert approx.identify_delta(triangle, c2, 1)
    assert calls == [(c2, triangle)]
    calls.clear()
    assert approx.eval_delta_filtered(triangle, c2, c2_db, (), 1)
    assert calls == [(c2, triangle), (c2, c2_db)]
    calls.clear()
    assert not approx.eval_delta_filtered(triangle, c2, edge_db, (), 1)
    assert calls == [(c2, triangle)]  # the game into edge_db is lost first


def test_delta_answers_agree_with_find_hom():
    rng = random.Random(37)
    for _ in range(120):
        q = rand_cq(rng, max_atoms=4, n_free=rng.choice((0, 1)))
        cand = rand_cq(rng, max_atoms=4, n_free=len(q.free_vars))
        db = rand_db(rng)
        a = tuple(rng.choice(sorted(db.adom)) for _ in q.free_vars)
        if ghw1_membership(cand) is None:
            continue
        want = (
            pebble.wins_cover_game(q, q.free_vars, cand, cand.free_vars, 1)[0]
            and not contains(q, cand) and not contains(cand, q)
        )
        assert approx.identify_delta(q, cand, 1) == want
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = approx.eval_delta_filtered(q, cand, db, a, 1)
        comparable = contains(q, cand) or contains(cand, q)
        assert [w.category for w in caught] == [approx.ComparabilityWarning] * comparable
        want = (
            pebble.wins_cover_game(q, q.free_vars, db, a, 1)[0]
            and find_hom(cand, cand.free_vars, db, a) is not None
        )
        assert got == want


def test_delta_reduces_along_a_cyclic_candidates_decomposition():
    # a cyclic candidate's decomposition comes from the exact-width search;
    # the semijoins along it answer as the k-cover game out of it and
    # find_hom do (Chen & Dalmau 2005)
    rng = random.Random(38)
    seen = 0
    for _ in range(300):
        q = rand_binary_boolean_cq(rng, max_atoms=6, max_vars=5)
        cand = rand_binary_boolean_cq(rng, max_atoms=6, max_vars=4)
        if ghw1_membership(cand) is not None or compute_ghw(cand, 2) is None:
            continue
        seen += 1
        want = (
            pebble.wins_cover_game(q, (), cand, (), 2)[0]
            and not contains(q, cand) and not contains(cand, q)
        )
        assert approx.identify_delta(q, cand, 2) == want
        db = rand_db(rng, schema=[("E", 2)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = approx.eval_delta_filtered(q, cand, db, (), 2)
        want = (
            pebble.wins_cover_game(q, (), db, (), 2)[0]
            and find_hom(cand, (), db, ()) is not None
        )
        assert got == want
    assert seen >= 20


# --- symmetric_difference_eval ----------------------------------------------


def test_symmetric_difference_of_query_with_itself_is_empty():
    assert approx.symmetric_difference_eval(triangle, triangle, triangle_db) == set()


def test_symmetric_difference_triangle_c2():
    # on the symmetric edge: C2 holds, the triangle does not
    assert approx.symmetric_difference_eval(triangle, c2, c2_db) == {()}
    # on the directed 3-cycle: the triangle holds, C2 does not
    assert approx.symmetric_difference_eval(triangle, c2, triangle_db) == {()}


def test_symmetric_difference_arity_mismatch():
    with pytest.raises(ArityError):
        approx.symmetric_difference_eval(parse_query("q(x) :- E(x,y)."), triangle, c2_db)


def test_symmetric_difference_matches_oracle():
    rng = random.Random(31)
    for _ in range(25):
        q = rand_cq(rng, max_atoms=3, n_free=1)
        q2 = rand_cq(rng, max_atoms=3, n_free=1)
        db = rand_db(rng, max_consts=4, max_facts=6)
        want = brute_evaluate(q, db) ^ brute_evaluate(q2, db)
        assert approx.symmetric_difference_eval(q, q2, db) == want


@pytest.mark.parametrize("decide", [
    lambda k: approx.identify_overapprox(triangle, triangle, k),
    lambda k: approx.certify_overapprox(triangle, triangle, k),
    lambda k: approx.identify_delta(triangle, triangle, k),
    lambda k: approx.eval_delta_filtered(triangle, triangle, triangle_db, (), k),
], ids=["identify_overapprox", "certify_overapprox", "identify_delta", "eval_delta_filtered"])
@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_is_one_input_error(decide, k):
    with pytest.raises(CqError, match=f"k must be at least 1, got {k}") as err:
        decide(k)
    assert type(err.value) is CqError
