"""Dependencies, the chase, and containment/evaluation under constraints."""

import random

import pytest

from cqapprox import constraints as cn
from cqapprox.model import (
    ArityError,
    Atom,
    ConjunctiveQuery,
    Const,
    CqError,
    Database,
    ParseError,
    Var,
    parse_database,
    parse_query,
)
from cqapprox.hom import find_hom
from cqapprox.pebble import wins_cover_game

from _oracles import brute_satisfies
from _support import (
    c2,
    path2,
    rand_db,
    rand_dependency,
    triangle,
    triangle_db,
)

closure = cn.parse_dependency("E(x,y), E(y,z) -> E(z,x).")
growth = cn.parse_dependency("R(x,y) -> R(y,z).")
fd_egd = cn.parse_dependency("R(x,y,z), R(x,y2,z2) -> z = z2.")
out_edge = cn.parse_dependency("E(x,y) -> E(y,z).")  # guarded

six_cycle = Database(
    tuple(Atom("E", (Const(f"a{i}"), Const(f"a{(i + 1) % 6}"))) for i in range(6))
)


# --- parsing and types ----------------------------------------------------


def test_parse_tgd_fields():
    dep = cn.parse_dependency("R(x,y), S(y,z) -> T(x,z), U(z,w).")
    assert isinstance(dep, cn.Tgd)
    assert len(dep.body) == 2 and len(dep.head) == 2
    assert sorted(t.name for t in dep.frontier) == ["x", "z"]
    assert Var("w") in dep.head_vars and Var("w") not in dep.body_vars
    assert not dep.guarded


def test_parse_egd_fields():
    assert isinstance(fd_egd, cn.Egd)
    assert fd_egd.eq == (Var("z"), Var("z2"))


def test_guardedness_is_derived():
    assert cn.parse_dependency("R(x,y) -> P(z,x).").guarded
    assert not closure.guarded
    assert cn.parse_dependency("E(x,y), F(x,y) -> P(y,w).").guarded


def test_parse_dependencies_file():
    text = """
    # closure
    E(x,y), E(y,z) -> E(z,x).
    R(x,y,z), R(x,y2,z2) -> z = z2.  # a key
    """
    deps = cn.parse_dependencies(text)
    assert len(deps) == 2
    assert isinstance(deps[0], cn.Tgd) and isinstance(deps[1], cn.Egd)


def test_parse_errors():
    with pytest.raises(ParseError):
        cn.parse_dependency("R(x,y) ->.")
    with pytest.raises(ParseError):
        cn.parse_dependency("R(x,y) -> y = .")
    with pytest.raises(ParseError):
        cn.parse_dependency("R(x,y) -> y = w.")  # w not in the body
    with pytest.raises(ParseError):
        cn.parse_dependency("-> R(x,y).")


def test_type_invariants_enforced():
    with pytest.raises(CqError):
        cn.Tgd((), (Atom("R", (Var("x"), Var("y"))),))
    with pytest.raises(CqError):
        cn.Egd((Atom("R", (Var("x"), Var("y"))),), (Var("x"), Var("q9")))


# --- satisfies ---------------------------------------------------------------


def test_satisfies_triangle_database_closure():
    assert cn.satisfies(triangle_db, [closure])


def test_satisfies_six_cycle_fails_closure():
    assert not cn.satisfies(six_cycle, [closure])


def test_satisfies_empty_set():
    assert cn.satisfies(six_cycle, [])
    assert cn.satisfies(triangle_db, ())


def test_satisfies_accepts_query_as_instance():
    assert cn.satisfies(triangle, [closure])
    assert not cn.satisfies(path2, [closure])


def test_satisfies_matches_oracle():
    rng = random.Random(41)
    for _ in range(60):
        db = rand_db(rng, max_consts=4, max_facts=6, schema=(("E", 2), ("P", 1)))
        deps = [rand_dependency(rng) for _ in range(rng.randint(1, 3))]
        assert cn.satisfies(db, deps) == brute_satisfies(db, deps)


def test_dependency_arity_clash_raises():
    # a clash with the instance, and one inside the dependency set
    db = parse_database("R(a,b). R(a,c).")
    for text in ("R(x,y,z), R(x,y2,z2) -> z = z2.", "R(x,y,z) -> P(x).", "R(x) -> P(x)."):
        with pytest.raises(ArityError):
            cn.satisfies(db, [cn.parse_dependency(text)])
    q = parse_query("q(x) :- R(x,y).")
    clashing = cn.parse_dependencies("R(x,y) -> P(x). P(x,y) -> R(x,y).")
    with pytest.raises(ArityError):
        cn.chase_tgds(q, clashing)
    with pytest.raises(ArityError):
        cn.chase_tgds(q, [cn.parse_dependency("R(x,y,z) -> P(x).")])
    with pytest.raises(ArityError):
        cn.chase_egds(q, [cn.parse_dependency("R(x,y,z), R(x,y2,z2) -> z = z2.")])
    with pytest.raises(ArityError):
        cn.satisfies(q, clashing)


# --- chase_egds ----------------------------------------------------------------


def test_egd_chase_collapses_fd_violation():
    q = parse_query("q() :- R(x,y,z), R(x,y,z2).")
    res = cn.chase_egds(q, [fd_egd])
    assert res.complete
    assert res.query.atoms == (Atom("R", (Var("x"), Var("y"), Var("z"))),)
    assert res.hom_to_result.mapping[Var("z2")] == Var("z")


def test_egd_chase_no_trigger_is_identity():
    res = cn.chase_egds(triangle, [fd_egd])
    assert res.query.atoms == triangle.atoms
    assert all(v == t for v, t in res.hom_to_result.mapping.items())
    assert res.complete


def test_egd_chase_hom_is_onto_result():
    rng = random.Random(43)
    for _ in range(30):
        atoms = tuple(
            Atom("R", (rng.choice("abc") and Var(rng.choice("abcd")),
                       Var(rng.choice("abcd")), Var(rng.choice("abcd"))))
            for _ in range(rng.randint(1, 4))
        )
        q = ConjunctiveQuery((), atoms)
        res = cn.chase_egds(q, [fd_egd])
        m = res.hom_to_result.mapping
        image = {Atom(a.relation, tuple(m[t] for t in a.args)) for a in q.atoms}
        assert image == set(res.query.atoms)
        assert cn.satisfies(res.query, [fd_egd])


def test_egd_chase_can_merge_free_variables():
    q = parse_query("q(x,y) :- R(x,c,d), R(y,c,e).")
    key = cn.parse_dependency("R(u,v,w), R(u2,v,w2) -> u = u2.")
    res = cn.chase_egds(q, [key])
    assert res.query.free_vars == (Var("x"), Var("x"))
    assert res.hom_to_result.mapping[Var("y")] == Var("x")


def test_egd_chase_rejects_tgds():
    with pytest.raises(CqError):
        cn.chase_egds(triangle, [closure])


# --- chase_tgds ----------------------------------------------------------------


def test_tgd_chase_closes_path_into_triangle():
    res = cn.chase_tgds(path2, [closure])
    assert res.complete
    assert set(res.query.atoms) == set(triangle.atoms)


def test_tgd_chase_fixpoint_on_satisfying_query():
    res = cn.chase_tgds(triangle, [closure])
    assert res.complete and res.query.atoms == triangle.atoms


def test_tgd_chase_depth_cap():
    q = parse_query("q() :- R(x,y).")
    res = cn.chase_tgds(q, [growth], max_depth=3)
    assert not res.complete
    assert len(res.query.atoms) == 4
    names = {v.name for v in res.query.variables}
    assert names == {"x", "y", "_n0", "_n1", "_n2"}


def test_tgd_chase_depth_zero_reports_pending_honestly():
    q = parse_query("q() :- R(x,y).")
    res = cn.chase_tgds(q, [growth], max_depth=0)
    assert res.query.atoms == q.atoms and not res.complete
    res2 = cn.chase_tgds(triangle, [closure], max_depth=0)
    assert res2.complete


def test_tgd_chase_query_embeds_identically():
    res = cn.chase_tgds(path2, [closure])
    assert set(path2.atoms) <= set(res.query.atoms)
    assert all(v == t for v, t in res.hom_to_result.mapping.items())


def test_tgd_chase_complete_result_satisfies():
    deps = [closure, cn.parse_dependency("E(x,y) -> P(x).")]
    res = cn.chase_tgds(path2, deps)
    assert res.complete
    assert cn.satisfies(res.query, deps)


def test_tgd_chase_fresh_nulls_avoid_existing_names():
    q = ConjunctiveQuery((), (Atom("R", (Var("_n0"), Var("_n1"))),))
    res = cn.chase_tgds(q, [growth], max_depth=2)
    assert len(res.query.atoms) == 3
    assert len(res.query.variables) == 4


def test_tgd_chase_is_deterministic():
    a = cn.chase_tgds(path2, [closure, out_edge])
    b = cn.chase_tgds(path2, [closure, out_edge])
    assert a.query == b.query and a.complete == b.complete


def test_tgd_chase_universality_spot_check():
    # every finite model of the deps that q maps into also absorbs the chase
    deps = [closure, cn.parse_dependency("E(x,y) -> P(x).")]
    res = cn.chase_tgds(path2, deps)
    assert res.complete
    rng = random.Random(47)
    hits = 0
    for _ in range(80):
        db = rand_db(rng, max_consts=4, max_facts=8, schema=(("E", 2), ("P", 1)))
        if not cn.satisfies(db, deps):
            continue
        if find_hom(path2, (), db, ()) is None:
            continue
        hits += 1
        assert find_hom(res.query, (), db, ()) is not None
    assert hits >= 3


def test_tgd_chase_rejects_egds_and_bad_depth():
    with pytest.raises(CqError):
        cn.chase_tgds(triangle, [fd_egd])
    with pytest.raises(CqError):
        cn.chase_tgds(triangle, [closure], max_depth=-1)


# --- contains_under --------------------------------------------------------


def test_containment_under_closure_makes_path_and_triangle_equivalent():
    assert cn.contains_under(path2, triangle, [closure]) is True
    assert cn.contains_under(triangle, path2, [closure]) is True
    # without the constraint the path is strictly weaker
    assert cn.contains_under(path2, triangle, []) is False


def test_containment_under_empty_set_is_plain_containment():
    from cqapprox.hom import contains

    rng = random.Random(53)
    from _support import rand_cq

    for _ in range(100):
        q = rand_cq(rng, max_atoms=3)
        q2 = rand_cq(rng, max_atoms=3)
        assert cn.contains_under(q, q2, []) == contains(q, q2)


def test_containment_under_fd_both_ways():
    two = parse_query("q() :- R(x,y,z), R(x,y,z2).")
    one = parse_query("q() :- R(x,y,z).")
    assert cn.contains_under(two, one, [fd_egd]) is True
    assert cn.contains_under(one, two, [fd_egd]) is True


def test_containment_under_egd_uses_merged_head():
    q = parse_query("q(x,y) :- R(x,c,d), R(y,c,e).")
    key = cn.parse_dependency("R(u,v,w), R(u2,v,w2) -> u = u2.")
    diag = parse_query("q(z,z) :- R(z,w,v).")
    assert cn.contains_under(q, diag, [key]) is True
    assert cn.contains_under(q, diag, []) is False


def test_containment_capped_chase_unknown_vs_true():
    q = parse_query("q() :- R(x,y).")
    five = parse_query("q() :- R(a,b), R(b,c), R(c,d), R(d,e), R(e,f).")
    assert cn.contains_under(q, five, [growth], max_depth=2) is None
    # a longer prefix admits the hom even though the chase never finishes
    assert cn.contains_under(q, five, [growth], max_depth=10) is True


def test_containment_mixed_dependencies_rejected():
    with pytest.raises(CqError):
        cn.contains_under(path2, triangle, [closure, fd_egd])


# --- eval_overapprox_under ---------------------------------------------------


def test_eval_under_empty_set_reduces_to_plain_game():
    from _support import rand_anchored_pair

    rng = random.Random(59)
    for _ in range(30):
        q, qt, db, dt = rand_anchored_pair(rng)
        assert cn.eval_overapprox_under(q, [], db, dt, 1) == wins_cover_game(
            q, qt, db, dt, 1
        )[0]


def test_eval_under_guarded_tgd_direct_game():
    assert cn.eval_overapprox_under(triangle, [out_edge], triangle_db, (), 1)


def test_eval_under_fd_setting():
    q = parse_query("q() :- R(x,y,z), R(x,y,z2).")
    rdb = Database((Atom("R", (Const("a"), Const("b"), Const("c"))),))
    assert cn.eval_overapprox_under(q, [fd_egd], rdb, (), 1)


def test_eval_under_rejects_violating_database():
    with pytest.raises(CqError):
        cn.eval_overapprox_under(triangle, [closure], six_cycle, (), 1)
    with pytest.raises(CqError):
        cn.eval_overapprox_under(triangle, [closure, fd_egd], triangle_db, (), 1)


def test_eval_under_egd_uses_merged_anchor():
    q = parse_query("q(x,y) :- R(x,c,d), R(y,c,e).")
    key = cn.parse_dependency("R(u,v,w), R(u2,v,w2) -> u = u2.")
    rdb = Database(
        (
            Atom("R", (Const("a"), Const("b"), Const("c"))),
            Atom("R", (Const("a"), Const("b"), Const("d"))),
        )
    )
    assert cn.eval_overapprox_under(q, [key], rdb, (Const("a"), Const("a")), 1)


def test_eval_under_capped_chase_warns_and_stays_sound():
    # two body atoms, no guard, and the chase never terminates
    grow2 = cn.parse_dependency("R(x,y), R(y,z) -> R(z,w).")
    assert not grow2.guarded
    q = parse_query("q() :- R(x,y), R(y,z).")
    cyc = Database(
        (
            Atom("R", (Const("a"), Const("b"))),
            Atom("R", (Const("b"), Const("a"))),
        )
    )
    assert cn.satisfies(cyc, [grow2])
    with pytest.warns(cn.ChaseDepthWarning):
        got = cn.eval_overapprox_under(q, [grow2], cyc, (), 1, max_depth=2)
    assert got


def test_eval_under_guarded_shortcut_matches_chase_prefixes():
    # stabilization evidence: the game on any chase prefix agrees with the
    # game on q itself once the database satisfies the guarded set
    deps = [out_edge]
    rng = random.Random(61)
    checked = 0
    for _ in range(60):
        db = rand_db(rng, max_consts=4, max_facts=7, schema=(("E", 2),))
        if not cn.satisfies(db, deps):
            continue
        for q in (triangle, path2, c2):
            direct = wins_cover_game(q, (), db, (), 1)[0]
            for depth in (0, 1, 2, 3):
                prefix = cn.chase_tgds(q, deps, max_depth=depth).query
                assert wins_cover_game(prefix, (), db, (), 1)[0] == direct
            checked += 1
    assert checked >= 6
