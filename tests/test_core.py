import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from oracles import ReferenceEdgeSubgraph, petersen

from hampack.core import EdgeSubgraph, Graph, Partition
from hampack.construct import complete_graph, random_graph
from hampack.errors import CapacityError, HampackError, InputError


def test_degree_complete_graph():
    assert complete_graph(4).degree(0) == 3


def test_degree_empty_graph():
    assert Graph(5).degree(2) == 0


def test_degree_petersen_is_three_everywhere():
    g = petersen()
    assert all(g.degree(v) == 3 for v in range(10))


def test_degree_out_of_range():
    with pytest.raises(InputError):
        complete_graph(4).degree(4)


@pytest.mark.parametrize("u,v", [(0, -1), (-1, 0), (0, 3), (3, 0), (-1, -1)])
def test_has_edge_out_of_range_is_false_in_either_order(u, v):
    g = Graph(3, [(0, 1)])
    assert g.has_edge(u, v) is False
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_capacity_cap():
    with pytest.raises(CapacityError):
        Graph(1025)


def test_no_loops_or_duplicates():
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1), (1, 0)])


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10))
def test_handshake(g):
    assert sum(g.degrees()) == 2 * g.m


# ---------------------------------------------------------------------------
# The bitset-row EdgeSubgraph against its frozenset reference
# ---------------------------------------------------------------------------

@st.composite
def edge_lists(draw, n: int, pool=()):
    """Edges on 0..n-1, each given 1-3 times in either orientation, some
    of them taken from ``pool``; now and then one bad edge (a loop, or an
    endpoint outside 0..n-1) at a drawn position."""
    vertex = st.integers(0, n - 1)
    fresh = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=2 * n))
    base = fresh + (draw(st.lists(st.sampled_from(sorted(pool)), max_size=4)) if pool else [])
    edges = [(u, v) if keep else (v, u)
             for u, v in base for keep in draw(st.lists(st.booleans(), min_size=1, max_size=3))]
    edges = draw(st.permutations(edges))
    if draw(st.integers(0, 9)) == 0:
        bad = draw(st.sampled_from([(1, 1), (0, n), (n, 0), (-1, 0), (0, -1)]))
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return edges


def outcome_of(fn, *args):
    """fn's result, or its error as (type, message)."""
    try:
        return fn(*args)
    except HampackError as exc:
        return type(exc), str(exc)


def subgraph_view(h):
    if isinstance(h, tuple):
        return h
    return h.n, h.edges, len(h), h.degrees(), h.to_graph()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_edge_subgraph_rows_agree_with_the_frozenset_reference(data):
    n = data.draw(st.integers(1, 40))
    edges = data.draw(edge_lists(n))
    h, ref = outcome_of(EdgeSubgraph, n, edges), outcome_of(ReferenceEdgeSubgraph, n, edges)
    assert subgraph_view(h) == subgraph_view(ref)
    if isinstance(h, tuple):
        return
    again = data.draw(st.permutations([(v, u) for u, v in edges]))
    assert EdgeSubgraph(n, again) == h and hash(EdgeSubgraph(n, again)) == hash(h)
    assert repr(h) == f"EdgeSubgraph(n={n}, edges={len(ref)})"

    # a second edge set on n or n + 1 vertices, sharing a few edges now and then
    n_other = n if data.draw(st.integers(0, 9)) else n + 1
    other = data.draw(edge_lists(n_other, pool=ref.edges if n_other == n else ()))
    h2, ref2 = outcome_of(EdgeSubgraph, n_other, other), outcome_of(ReferenceEdgeSubgraph, n_other, other)
    assert subgraph_view(h2) == subgraph_view(ref2)
    if isinstance(h2, tuple):
        return
    assert (h == h2) == (ref == ref2)


def test_partition_disjointness():
    with pytest.raises(InputError):
        Partition(frozenset({1}), frozenset({1, 2}))


def test_cut_vertices_match_brute_force():
    rng = random.Random(20261018)
    for n in range(15):
        for p in (0.1, 0.2, 0.35, 0.6):
            for _ in range(6):
                g = random_graph(n, p, rng.getrandbits(32))
                full = (1 << n) - 1
                brute = sum(1 << v for v in range(n) if len(g.components(full & ~(1 << v))) > 1)
                assert g.cut_vertices() == brute
