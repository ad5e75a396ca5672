import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from oracles import brute_max_matching_size, petersen

from hampack import matching
from hampack.core import Graph, iter_bits
from hampack.construct import complete_graph, cycle_graph, random_graph
from hampack.matching import _Matcher, greedy_matching, maximum_matching


def _pairs(g):
    """The pairs of ``maximum_matching`` on g's rows, each u < v."""
    return [(v, u) for v, u in enumerate(maximum_matching(g.n, g.adj)) if u > v]


def _lists(g):
    return [list(iter_bits(row)) for row in g.adj]


def test_k4_matching_size():
    assert len(_pairs(complete_graph(4))) == 2


def test_petersen_matching_size():
    g = petersen()
    assert len(_pairs(g)) == brute_max_matching_size(g) == 5


def test_odd_cycle_matching():
    assert len(_pairs(cycle_graph(5))) == 2


@settings(max_examples=250, deadline=None)
@given(graphs(max_n=10))
def test_matches_brute_force(g):
    mate = maximum_matching(g.n, g.adj)
    assert all(u == -1 or mate[u] == v for v, u in enumerate(mate))
    pairs = _pairs(g)
    assert len(pairs) == brute_max_matching_size(g)
    # structural soundness: disjoint pairs, all edges of the host
    seen = set()
    for u, v in pairs:
        assert g.has_edge(u, v)
        assert u not in seen and v not in seen
        seen.update((u, v))


@settings(max_examples=250, deadline=None)
@given(graphs(max_n=10), st.data())
def test_seeded_matcher_matches_brute_force(g, data):
    seed = [-1] * g.n
    for u, v in data.draw(st.permutations(g.edges())):
        if seed[u] == -1 and seed[v] == -1 and data.draw(st.booleans()):
            seed[u], seed[v] = v, u
    adj = _lists(g)
    mate = _Matcher(g.n, adj, seed).solve()
    pairs = set()
    for v, u in enumerate(mate):
        if u != -1:
            assert mate[u] == v
            assert g.has_edge(u, v)
            pairs.add((min(u, v), max(u, v)))
    assert len(pairs) == brute_max_matching_size(g)


@pytest.fixture
def blossom_runs(monkeypatch):
    """The seeds that ``maximum_matching`` hands to the blossom search."""
    runs = []

    class Recorded(_Matcher):
        def __init__(self, n, adj, seed=None, heads=None):
            runs.append(list(seed))
            super().__init__(n, adj, seed, heads)

    monkeypatch.setattr(matching, "_Matcher", Recorded)
    return runs


def test_rows_matching_runs_the_blossom_where_the_greedy_falls_short(blossom_runs):
    # a pendant 0-5 on the 5-cycle 5-4-1-2-3: the greedy matches 0-5 and
    # 1-2 and leaves 3 and 4 exposed, joined by the augmenting path 3-2-1-4
    g = Graph(6, [(0, 5), (1, 2), (1, 4), (2, 3), (3, 5), (4, 5)])
    lists = _lists(g)
    assert greedy_matching(g.n, lists) == [5, 2, 1, -1, -1, 0]
    mate = maximum_matching(g.n, g.adj)
    assert mate == _Matcher(g.n, lists).solve() == [5, 4, 3, 2, 1, 0]
    assert blossom_runs == [[5, 2, 1, -1, -1, 0]]


def test_rows_matching_equals_the_list_matcher(blossom_runs):
    rng = random.Random(20261020)
    augmented = skipped = 0
    for n in range(1, 61):
        for p in (0.05, 0.15, 0.3, 0.6):
            g = random_graph(n, p, rng.getrandbits(32))
            lists = _lists(g)
            greedy = greedy_matching(n, lists)
            runs = len(blossom_runs)
            mate = maximum_matching(n, g.adj)
            assert mate == _Matcher(n, lists).solve()
            ran = len(blossom_runs) > runs
            # the blossom starts from the greedy matching, and runs
            # exactly when two or more vertices stay exposed
            assert ran == (greedy.count(-1) >= 2)
            if ran:
                assert blossom_runs[-1] == greedy
            else:
                skipped += 1
            augmented += mate.count(-1) < greedy.count(-1)
    assert augmented > 10 and skipped > 10
