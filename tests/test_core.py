import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from oracles import petersen

from hampack.core import (
    EdgeSubgraph,
    Graph,
    Partition,
    edges_between,
    edges_inside,
    ordered_pairs,
    remove_subgraph,
    union_edge_disjoint,
)
from hampack.construct import complete_graph, random_graph
from hampack.errors import CapacityError, DisjointnessError, InputError


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


def test_capacity_cap():
    with pytest.raises(CapacityError):
        Graph(1025)


def test_no_loops_or_duplicates():
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1), (1, 0)])


def test_edges_between_bipartite_sides():
    g = Graph(6, [(u, 3 + v) for u in range(3) for v in range(3)])
    assert edges_between(g, range(3), range(3, 6)) == 9


def test_edges_between_empty_side():
    assert edges_between(complete_graph(5), [], range(5)) == 0


def test_edges_between_cycle_segment():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    assert edges_between(g, [0, 1], [2, 3]) == 1


def test_ordered_pairs_triangle():
    assert ordered_pairs(complete_graph(3), range(3), range(3)) == 6


def test_ordered_pairs_overlapping_sets():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert ordered_pairs(c4, [0, 1], [1, 2]) == 2


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8), st.data())
def test_ordered_pairs_equals_edges_between_for_disjoint(g, data):
    if g.n == 0:
        return
    xs = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    rest = [v for v in range(g.n) if v not in set(xs)]
    ys = data.draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    assert ordered_pairs(g, xs, ys) == edges_between(g, xs, ys)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8), st.data())
def test_induced_degree_sum_is_twice_inner_edges(g, data):
    if g.n == 0:
        return
    xs = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    mask_degrees = sum(
        len([u for u in g.neighbors(v) if u in set(xs)]) for v in xs
    )
    assert mask_degrees == 2 * edges_inside(g, xs)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10))
def test_handshake(g):
    assert sum(g.degrees()) == 2 * g.m


def test_remove_perfect_matching_from_k4_gives_cycle():
    h = EdgeSubgraph(4, [(0, 1), (2, 3)])
    left = remove_subgraph(complete_graph(4), h)
    assert left.degrees() == [2, 2, 2, 2]
    assert left.is_connected()


def test_remove_empty_mask_is_identity():
    g = complete_graph(4)
    assert remove_subgraph(g, EdgeSubgraph(4, [])) == g


def test_remove_hamilton_cycle_from_k5_leaves_two_regular():
    cyc = EdgeSubgraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    left = remove_subgraph(complete_graph(5), cyc)
    assert left.degrees() == [2] * 5


def test_remove_missing_edge_rejected():
    g = Graph(3, [(0, 1)])
    with pytest.raises(InputError):
        remove_subgraph(g, EdgeSubgraph(3, [(1, 2)]))


def test_union_two_hamilton_cycles_of_k5():
    c1 = EdgeSubgraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    c2 = EdgeSubgraph(5, [(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)])
    u = union_edge_disjoint(c1, c2)
    assert u.degrees() == [4] * 5
    assert u.edges == complete_graph(5).edge_set()


def test_union_with_empty():
    c1 = EdgeSubgraph(4, [(0, 1)])
    assert union_edge_disjoint(c1, EdgeSubgraph(4, [])) == c1


def test_union_two_matchings_of_c4():
    m1 = EdgeSubgraph(4, [(0, 1), (2, 3)])
    m2 = EdgeSubgraph(4, [(1, 2), (0, 3)])
    u = union_edge_disjoint(m1, m2)
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert u.edges == c4.edge_set()


def test_union_rejects_shared_edge():
    with pytest.raises(DisjointnessError):
        union_edge_disjoint(EdgeSubgraph(3, [(0, 1)]), EdgeSubgraph(3, [(0, 1)]))


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=8), st.data())
def test_remove_then_union_reconstructs(g, data):
    edges = g.edges()
    picks = data.draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    h = EdgeSubgraph(g.n, picks)
    left = remove_subgraph(g, h)
    rebuilt = union_edge_disjoint(
        EdgeSubgraph(g.n, left.edges()), h
    )
    assert rebuilt.edges == g.edge_set()


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
