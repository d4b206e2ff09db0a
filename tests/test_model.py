"""Data model: parsing, serialization, canonical databases, disjoint
conjunction, Gaifman components."""

import random

import pytest

from cqapprox.model import (
    ArityError,
    Atom,
    ConjunctiveQuery,
    Const,
    CqError,
    Database,
    ParseError,
    Var,
    canonical_database,
    connected_components,
    disjoint_conjunction,
    gaifman,
    instance_as_query,
    parse_database,
    parse_query,
    parse_tuple,
    serialize_database,
    serialize_query,
    serialize_tuple,
)

from _oracles import brute_find_hom, isomorphic
from _support import c2, rand_cq, rand_db, triangle


def test_parse_simple_head():
    q = parse_query("q(x) :- E(x,y).")
    assert q.free_vars == (Var("x"),)
    assert q.atoms == (Atom("E", (Var("x"), Var("y"))),)


def test_parse_triangle():
    q = parse_query("q() :- E(x,y), E(y,z), E(z,x).")
    assert q.is_boolean
    assert len(q.atoms) == 3
    assert q.variables == {Var("x"), Var("y"), Var("z")}


def test_parse_arity_clash():
    with pytest.raises(ParseError, match="arities"):
        parse_query("q() :- E(x,y), E(x,y,z).")


def test_parse_reports_line_and_column():
    text = "q() :- E(x,y),\n  E(y,.\n"
    with pytest.raises(ParseError) as e:
        parse_query(text)
    assert e.value.line == 2
    assert "line 2" in str(e.value)


def test_parse_database_arity_clash_reports_offending_fact():
    text = "R(a,b).\n# note\nS(a).\n  R(a,b,c).\nR(a).\n"
    with pytest.raises(ParseError, match="arities 2 and 3") as e:
        parse_database(text)
    assert (e.value.line, e.value.col) == (4, 3)


def test_parse_comments_and_whitespace():
    text = """
    # a triangle
    q() :- E(x,y),   # first edge
           E(y,z), E(z,x).
    """
    assert parse_query(text) == triangle


def test_parse_unsafe_head_variable():
    with pytest.raises(ParseError, match="unsafe head variable"):
        parse_query("q(x) :- E(y,z).")
    # legal when the headless variable repeats in the head
    q = parse_query("q(x,x) :- E(y,z).")
    assert q.free_vars == (Var("x"), Var("x"))


def test_parse_empty_body():
    q = parse_query("q() :- .")
    assert q.atoms == ()
    assert q.is_boolean


def test_parse_rejects_constants_in_query():
    with pytest.raises(ParseError, match="variable"):
        parse_query("q() :- E(x,B).")


def test_atoms_deduplicated_and_sorted():
    q = parse_query("q() :- E(y,z), E(x,y), E(x,y).")
    assert q.atoms == (
        Atom("E", (Var("x"), Var("y"))),
        Atom("E", (Var("y"), Var("z"))),
    )


def test_serialize_round_trip_is_bit_stable():
    rng = random.Random(11)
    for _ in range(50):
        q = rand_cq(rng, n_free=rng.choice((0, 1, 2)))
        text = serialize_query(q)
        again = parse_query(text)
        assert again.atoms == q.atoms
        assert again.free_vars == q.free_vars
        assert serialize_query(again) == text


def test_database_round_trip():
    rng = random.Random(12)
    for _ in range(30):
        db = rand_db(rng)
        assert parse_database(serialize_database(db)) == db


def test_parse_tuple():
    assert parse_tuple("a, b ,c") == (Const("a"), Const("b"), Const("c"))
    assert parse_tuple("") == ()
    assert serialize_tuple((Const("a"), Const("b"))) == "a,b"


def test_database_rejects_variables():
    with pytest.raises(CqError):
        Database((Atom("E", (Var("x"), Const("a"))),))


def test_canonical_database_triangle():
    db, tup = canonical_database(triangle)
    assert tup == ()
    assert len(db.facts) == 3
    assert db.adom == {Const("c_x"), Const("c_y"), Const("c_z")}


def test_canonical_database_repeated_head():
    q = parse_query("q(x,x) :- R(x).")
    db, tup = canonical_database(q)
    assert db.facts == (Atom("R", (Const("c_x"),)),)
    assert tup == (Const("c_x"), Const("c_x"))


def test_canonical_database_undirected_labeled_graph():
    # an undirected labeled edge contributes one fact per direction
    qprime = parse_query(
        "q() :- P_a(x,y1), P_a(y1,x), P_b(x,z), P_b(z,x), P_a(z,y2), P_a(y2,z)."
    )
    db, _ = canonical_database(qprime)
    assert len(db.facts) == 6
    assert len(db.adom) == 4


def test_canonical_database_reinterprets_back():
    rng = random.Random(13)
    for _ in range(25):
        q = rand_cq(rng, n_free=rng.choice((0, 1)))
        db, tup = canonical_database(q)
        back = instance_as_query(db, tup)
        assert isomorphic(back, ConjunctiveQuery(q.free_vars, q.atoms))


def test_disjoint_conjunction_triangle_c2():
    out = disjoint_conjunction(triangle, c2)
    assert out.is_boolean
    assert len(out.atoms) == 5
    assert len(out.variables) == 5


def test_disjoint_conjunction_self():
    q = parse_query("q(x) :- E(x,y).")
    out = disjoint_conjunction(q, q)
    assert out.free_vars == (Var("x"),)
    assert len(out.atoms) == 2
    assert len(out.variables) == 3  # shared head, two copies of y


def test_disjoint_conjunction_head_identification_merges():
    # repeated head variables merge positions transitively
    q = parse_query("q(x,y) :- E(x,y).")
    q2 = parse_query("p(u,u) :- E(u,u).")
    out = disjoint_conjunction(q, q2)
    assert out.free_vars[0] == out.free_vars[1]
    # both bodies collapse onto the same loop atom after identification
    v = out.free_vars[0]
    assert out.atoms == (Atom("E", (v, v)),)


def test_disjoint_conjunction_arity_mismatch():
    with pytest.raises(ArityError):
        disjoint_conjunction(parse_query("q(x) :- E(x,y)."), triangle)


def test_disjoint_conjunction_admits_both_injections():
    rng = random.Random(14)
    for _ in range(25):
        n = rng.choice((0, 1, 2))
        q = rand_cq(rng, n_free=n)
        q2 = rand_cq(rng, n_free=n)
        out = disjoint_conjunction(q, q2)
        assert brute_find_hom(q, q.free_vars, out, out.free_vars) is not None
        assert brute_find_hom(q2, q2.free_vars, out, out.free_vars) is not None


def test_gaifman_edges():
    g = gaifman(triangle)
    assert g.nodes == {Var("x"), Var("y"), Var("z")}
    assert len(g.edges) == 3
    assert g.adjacent(Var("x"), Var("y"))


def test_gaifman_no_self_loops():
    g = gaifman(parse_query("q() :- E(x,x)."))
    assert g.edges == frozenset()


def test_connected_components():
    assert len(connected_components(triangle)) == 1
    two = parse_query("q() :- E(x,y), E(y,z), E(z,x), E(u,v).")
    comps = connected_components(two)
    assert len(comps) == 2
    assert sorted(len(c.atoms) for c in comps) == [1, 3]
    iso = parse_query("q() :- R(x,y), S(u,v).")
    assert len(connected_components(iso)) == 2


def test_connected_components_requires_boolean():
    with pytest.raises(CqError):
        connected_components(parse_query("q(x) :- E(x,y)."))
