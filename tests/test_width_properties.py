"""Differential properties of the width layer and the greedy construction.

- `ghw1_membership` finds a decomposition iff the elimination-order
  oracle puts the width at 1, and every decomposition it returns
  validates at width 1;
- the exact-width search returns a decomposition at k iff the oracle's
  width is at most k, of the oracle's width, and both validators accept
  it at k;
- `validate_decomposition` agrees with the per-variable search of the
  reference validator on random rooted trees and bags, including bags
  that disconnect a variable;
- on binary Boolean queries the greedy construction agrees with the
  unrolling search and passes identification, its output is acyclic,
  and every component of the input wins the 1-cover game into some
  representative the minimal cover family keeps.
"""

import functools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cqapprox import approx  # noqa: E402
from cqapprox.hom import equivalent  # noqa: E402
from cqapprox.model import (  # noqa: E402
    Atom,
    ConjunctiveQuery,
    Var,
    connected_components,
    disjoint_conjunction,
)
from cqapprox.pebble import wins_cover_game  # noqa: E402
from cqapprox.width import (  # noqa: E402
    TreeDecomposition,
    _ghw,
    ghw1_membership,
    validate_decomposition,
)

from _oracles import oracle_ghw, reference_validate_decomposition  # noqa: E402
from _support import rand_binary_boolean_cq, rand_cq  # noqa: E402

SCHEMA = (("E", 2), ("P", 1), ("T", 3))
BINARY = (("E", 2), ("P", 1))
VARS = [Var(f"v{i}") for i in range(5)]


def atoms(schema, terms, min_size, max_size):
    def atom(rel):
        name, arity = rel
        return st.tuples(*[st.sampled_from(terms)] * arity).map(lambda a: Atom(name, a))

    return st.lists(st.sampled_from(schema).flatmap(atom), min_size=min_size, max_size=max_size)


@st.composite
def queries(draw, schema=SCHEMA, max_extra=3, max_free=2):
    """A directed path or cycle over 3 or 4 variables plus a few random
    atoms, with up to max_free free variables drawn from the body."""
    xs = VARS[: draw(st.integers(3, 4))]
    ends = xs[1:] + xs[:1] if draw(st.booleans()) else xs[1:]
    body = [Atom("E", pair) for pair in zip(xs, ends)]
    body += draw(atoms(schema, VARS, 0, max_extra))
    body_vars = sorted({t for a in body for t in a.args})
    free = draw(st.lists(st.sampled_from(body_vars), max_size=max_free))
    return ConjunctiveQuery(tuple(free), tuple(body))


@st.composite
def decompositions(draw):
    """(query, rooted tree or near-tree, width bound). Each atom's
    existential arguments go into one or two drawn nodes, so every atom
    is covered and a variable often spans nodes that may not be
    connected; a few more variables, free ones included, land in drawn
    nodes. A third of the parent maps are drawn freely, with parents
    outside the nodes too: no root, two roots, a node its own parent, a
    cycle or a missing parent."""
    q = draw(queries(max_extra=2))
    n = draw(st.integers(1, 6))
    if draw(st.integers(0, 2)) == 0:
        parent = {i: draw(st.sampled_from([None, *range(n + 1)])) for i in range(n)}
    else:
        parent = {0: None, **{i: draw(st.integers(0, i - 1)) for i in range(1, n)}}
    bags = {i: set() for i in range(n)}
    for a in q.atoms:
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
            bags[i] |= a.arg_set & q.existential_vars
    pool = sorted({t for a in q.atoms for t in a.args})
    for v in draw(st.lists(st.sampled_from(pool), max_size=3)):
        bags[draw(st.integers(0, n - 1))].add(v)
    td = TreeDecomposition(parent, {i: frozenset(b) for i, b in bags.items()}, 0)
    return q, td, draw(st.integers(1, 3))


DIFF = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@DIFF
@given(queries())
def test_ghw1_membership_is_width_one(q):
    td = ghw1_membership(q)
    assert (td is not None) == (oracle_ghw(q) <= 1)
    if td is not None:
        assert validate_decomposition(q, td, 1)


@DIFF
@given(
    st.randoms(use_true_random=False),
    st.sampled_from([
        lambda rng: rand_cq(rng, max_atoms=6, max_vars=5, n_free=rng.randint(0, 2)),
        lambda rng: rand_binary_boolean_cq(rng, max_atoms=8, max_vars=4),
    ]),
    st.integers(1, 4),
)
def test_exact_width_search_returns_a_least_width_decomposition(rng, draw_query, k):
    q = draw_query(rng)
    td, width = _ghw(q, k), oracle_ghw(q)
    assert (td is None) == (width is None or width > k)
    if td is not None:
        assert td.width == width
        assert validate_decomposition(q, td, k)
        assert reference_validate_decomposition(q, td, k)


@DIFF
@given(decompositions())
def test_validate_agrees_with_reference(case):
    q, td, k = case
    assert validate_decomposition(q, td, k) == reference_validate_decomposition(q, td, k)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(queries(BINARY, max_extra=3, max_free=0))
def test_greedy_agrees_with_exists(q):
    built = approx.greedy_ghw1_overapprox(q)
    found = approx.exists_overapprox(q, 1, cmax=3)
    if found is not None:
        assert built is not None and equivalent(built, found)
    if built is None:
        assert found is None
    else:
        assert approx.identify_overapprox(q, built, 1)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.lists(queries(BINARY, max_extra=2, max_free=0), min_size=1, max_size=3))
def test_greedy_output_is_acyclic(parts):
    built = approx.greedy_ghw1_overapprox(functools.reduce(disjoint_conjunction, parts))
    assert built is None or ghw1_membership(built) is not None


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.lists(queries(BINARY, max_extra=2, max_free=0), min_size=1, max_size=4))
def test_minimal_cover_family_covers_every_component(parts):
    comps = connected_components(functools.reduce(disjoint_conjunction, parts))
    reps = approx._minimal_cover_family(comps)
    assert reps and all(p in comps for p in reps)
    for comp in comps:
        assert any(wins_cover_game(comp, (), p, (), 1)[0] for p in reps)
    for i, p in enumerate(reps):
        assert not any(wins_cover_game(p, (), o, (), 1)[0] for o in reps[:i] + reps[i + 1 :])
    # the scan that restarts from the first component after each deletion
    restarted, changed = list(comps), True
    while changed:
        changed = False
        for i, p in enumerate(restarted):
            rest = restarted[:i] + restarted[i + 1 :]
            if any(wins_cover_game(p, (), o, (), 1)[0] for o in rest):
                del restarted[i]
                changed = True
                break
    assert reps == restarted
