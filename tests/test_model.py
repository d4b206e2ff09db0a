"""Data model: parsing, serialization, canonical databases, disjoint
conjunction, Gaifman components."""

import copy
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cqapprox.constraints import parse_dependencies
from cqapprox.model import (
    ArityError,
    Atom,
    ConjunctiveQuery,
    Const,
    CqError,
    Database,
    ParseError,
    Term,
    Var,
    _read_database,
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


# --- Term and Atom contract --------------------------------------------------


def test_term_and_atom_repr():
    assert repr(Var("x")) == "v:x"
    assert repr(Const("a")) == "c:a"
    assert repr(Atom("R", (Var("x"), Const("a")))) == "R(x,a)"
    assert repr((Var("x"), Const("a"))) == "(v:x, c:a)"


def test_term_and_atom_fields():
    x = Term("var", "x")
    assert (x.kind, x.name) == ("var", "x")
    assert x == Var("x") and Const("a").kind == "const"
    a = Atom("R", (x, Const("a")))
    assert a.relation == "R" and a.args == (Var("x"), Const("a"))
    assert a.arg_set == frozenset({Var("x"), Const("a")})


def test_term_and_atom_order_is_field_order():
    rng = random.Random(3)
    names = ["a", "b", "x", "y", "z", "a1", "B", "_", "0"]
    terms = [Term(rng.choice(("var", "const")), rng.choice(names)) for _ in range(60)]
    assert sorted(terms) == sorted(terms, key=lambda t: (t.kind, t.name))
    atoms = [
        Atom(rng.choice("PQR"), tuple(rng.choices(terms, k=rng.randint(1, 3))))
        for _ in range(60)
    ]

    def field_key(a):
        return a.relation, tuple((t.kind, t.name) for t in a.args)

    assert sorted(atoms) == sorted(atoms, key=field_key)


def test_term_and_atom_hash_as_their_field_tuples():
    assert hash(Var("x")) == hash(("var", "x"))
    assert Var("x") == ("var", "x")
    a = Atom("E", (Var("x"), Var("y")))
    assert hash(a) == hash(("E", (("var", "x"), ("var", "y"))))


def test_term_and_atom_copy_and_pickle():
    q = parse_query("q(x) :- E(x,y), P(y).")
    db = parse_database("E(a,b). P(b).")
    for value in (Var("x"), Const("a"), q.atoms[0], q, db):
        for again in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert again == value and type(again) is type(value)
            assert repr(again) == repr(value)
    assert type(pickle.loads(pickle.dumps(q)).atoms[0].args[0]) is Term


def test_disjoint_conjunction_side_keys_never_meet_terms():
    # its union-find keys are ("a", term) and ("b", term); a Term is the
    # tuple (kind, name), so variables named like the sides stay apart
    q = parse_query("q(a) :- E(a,b), E(b,var).")
    q2 = parse_query("q(var) :- E(var,a).")
    both = disjoint_conjunction(q, q2)
    assert len(both.free_vars) == 1 and len(both.atoms) == 3
    assert len(both.variables) == 4
    for side in (q, q2):
        assert brute_find_hom(side, side.free_vars, both, both.free_vars) is not None


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


@pytest.mark.parametrize(
    "parse, text, message, line, col",
    [
        (parse_query, "# a comment\nq() :- E(x,y) $ E(y,x).\n",
         "unexpected character '$'", 2, 15),
        (parse_query, "q(x, Y) :-\n  E(x,Y).", "found 'Y'", 1, 6),
        (parse_database, "R(a,b).\nR(b,c).\n  S(c, ->).\nR(c,d).\n",
         "expected constant, found '->'", 3, 8),
        (parse_dependencies, "E(x,y) -> E(y,x).\n# egds\nE(x,y), E(x,z) ->\n   y = Z.\n",
         "found 'Z'", 4, 8),
        (parse_query, "q() :- E(x,y),\n  E(y,z)\n",
         "found 'end of input'", 3, 1),
        (parse_database, "R(a,b).\nR(b", "expected ')', found 'end of input'", 2, 4),
        (parse_database, "E(a\nb).", "expected ')', found 'b'", 2, 1),
        (parse_database, "E(a b).", "expected ')', found 'b'", 1, 5),
        (parse_database, "E(a = b).", "expected ')', found '='", 1, 5),
        (parse_database, "E(a,b) -> E(b,a).", "expected '.', found '->'", 1, 8),
        (parse_database, "E().", "relation E needs at least one argument", 1, 1),
        (parse_database, "E(a,b).\nE(b,c)", "expected '.', found 'end of input'", 2, 7),
    ],
    ids=["after-comment", "head-variable", "mid-database", "egd-second-variable",
         "end-of-input", "end-of-input-database", "names-across-lines", "names-across-space",
         "equals-in-fact", "arrow-after-fact", "no-arguments", "last-fact-without-dot"],
)
def test_parse_error_line_and_column(parse, text, message, line, col):
    with pytest.raises(ParseError, match=re.escape(message)) as e:
        parse(text)
    assert (e.value.line, e.value.col) == (line, col)
    assert f"(line {line}, column {col})" in str(e.value)


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
    assert parse_database("E(a, # x\n b).") == parse_database("E(a,b).")


# Separators: whitespace that `\s` and str.split agree on, comments, and
# (rarely drawn) a comment that runs to the end of the text and a zero-width
# space, which is not whitespace and starts no token.
SEPARATORS = [" ", "\t", "\n", "\r\n", "\x1c", "\xa0", "\x85", "\u2028", "\u3000",
              "# note\n", "#", "\u200b"]
MUTATION_CHARS = "(),.#=-> a1_"


@st.composite
def fact_texts(draw):
    """A fact file from the grammar, with separators between all tokens,
    then at most one character inserted, deleted or replaced, or two
    names glued by turning a comma into a separator."""
    sep = st.lists(st.sampled_from(SEPARATORS[:-2] * 8 + SEPARATORS[-2:]), max_size=2).map("".join)
    parts = [draw(sep)]
    for _ in range(draw(st.integers(0, 4))):
        parts += [draw(st.sampled_from(["E", "R", "P_1"])), draw(sep), "(", draw(sep)]
        for i in range(draw(st.integers(1, 3))):
            if i:
                parts += [",", draw(sep)]
            parts += [draw(st.sampled_from(["a", "b", "c1", "_", "0"])), draw(sep)]
        parts += [")", draw(sep), ".", draw(sep)]
    text = "".join(parts)
    how = draw(st.sampled_from(["none", "insert", "delete", "replace", "glue"]))
    commas = [i for i, ch in enumerate(text) if ch == ","]
    if how == "glue" and commas:
        at = draw(st.sampled_from(commas))
        return text[:at] + draw(st.sampled_from(SEPARATORS[:-1])) + text[at + 1:]
    if how in ("none", "glue") or not text:
        return text
    at = draw(st.integers(0, len(text) - 1))
    new = draw(st.sampled_from(MUTATION_CHARS))
    return text[:at] + {"insert": new + text[at], "delete": "", "replace": new}[how] + text[at + 1:]


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return str(e), e.line, e.col


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(fact_texts())
def test_parse_database_agrees_with_the_token_reader(text):
    assert _outcome(parse_database, text) == _outcome(_read_database, text)


def test_parse_database_agrees_on_text_outside_the_drawn_alphabet():
    for text in ("E(a,b).\nE(a).", "é(a).", "E(a) :- E(b).", "1E(a).", "E(a)" * 3000):
        assert _outcome(parse_database, text) == _outcome(_read_database, text)


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


def test_parse_tuple_reports_the_column_of_the_bad_part():
    for text, shown, col in (("a, b c", "b c", 4), ("a,,b", "", 3), (" a,b,", "", 6),
                             ("a, x-y", "x-y", 4)):
        with pytest.raises(ParseError, match=re.escape(f"bad constant {shown!r}")) as e:
            parse_tuple(text)
        assert (e.value.line, e.value.col) == (1, col)


def test_database_rejects_variables():
    with pytest.raises(CqError):
        Database((Atom("E", (Var("x"), Const("a"))),))


def test_database_checks_name_the_first_offender():
    a, b, x = Const("a"), Const("b"), Var("x")
    with pytest.raises(CqError, match=re.escape("variable x in database fact E(a,x)")):
        Database((Atom("E", (a, a)), Atom("E", (a, x)), Atom("E", (b, x))))
    # a variable anywhere is reported before an arity clash
    with pytest.raises(CqError, match="variable x") as e:
        Database((Atom("E", (a,)), Atom("E", (a, b)), Atom("P", (x,))))
    assert not isinstance(e.value, ArityError)
    with pytest.raises(ArityError, match="relation E used with arities 2 and 1 in database"):
        Database((Atom("E", (a, b)), Atom("P", (a,)), Atom("E", (b,))))
    db = Database((Atom("T", (a, a, b)), Atom("P", (b,)), Atom("E", (a, b))))
    assert list(db.arities.items()) == [("E", 2), ("P", 1), ("T", 3)]


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
