from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from oracles import brute_max_matching_size, petersen

from hampack.construct import complete_graph, cycle_graph
from hampack.factors import max_matching
from hampack.matching import _Matcher


def test_k4_matching_size():
    assert max_matching(complete_graph(4)).size == 2


def test_petersen_matching_size():
    g = petersen()
    assert max_matching(g).size == brute_max_matching_size(g) == 5


def test_odd_cycle_matching():
    assert max_matching(cycle_graph(5)).size == 2


@settings(max_examples=250, deadline=None)
@given(graphs(max_n=10))
def test_matches_brute_force(g):
    m = max_matching(g)
    assert m.size == brute_max_matching_size(g)
    # structural soundness: disjoint pairs, all edges of the host
    seen = set()
    for u, v in m.pairs:
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
    adj = [g.neighbors(v) for v in range(g.n)]
    mate = _Matcher(g.n, adj, seed).solve()
    pairs = set()
    for v, u in enumerate(mate):
        if u != -1:
            assert mate[u] == v
            assert g.has_edge(u, v)
            pairs.add((min(u, v), max(u, v)))
    assert len(pairs) == brute_max_matching_size(g)
