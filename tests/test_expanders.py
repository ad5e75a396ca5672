import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from oracles import brute_first_non_expanding_set

from hampack.core import DiGraph, Graph, mask_of, union_edge_disjoint
from hampack.construct import (
    complete_graph,
    cycle_graph,
    random_graph,
    two_cliques,
)
from hampack.errors import CapacityError, ExistenceError, InputError
from hampack.expanders import (
    RobustParams,
    eulerian_orientation,
    is_robust_expander_exact,
    is_robust_outexpander_exact,
    min_degree_implies_expander_params,
    refute_robust_expander_mc,
    robust_neighborhood,
    robust_out_neighborhood,
    sparse_expander_factor,
)
from hampack.factors import petersen_two_factorization

small_fracs = st.fractions(
    min_value=Fraction(1, 100), max_value=Fraction(1, 2), max_denominator=100
)


def test_params_validation():
    with pytest.raises(InputError):
        RobustParams(Fraction(1, 2), Fraction(1, 4))  # nu > tau
    with pytest.raises(InputError):
        RobustParams(Fraction(0), Fraction(1, 4))


# ---------------------------------------------------------------------------
# Robust neighbourhoods
# ---------------------------------------------------------------------------

def test_rn_k5_singleton():
    assert robust_neighborhood(complete_graph(5), [0], Fraction(1, 5)) == frozenset(
        {1, 2, 3, 4}
    )


def test_rn_full_set():
    g = complete_graph(6)
    nu = Fraction(g.min_degree(), g.n)
    assert robust_neighborhood(g, range(6), nu) == frozenset(range(6))


def test_rn_empty_graph():
    assert robust_neighborhood(Graph(5), range(5), Fraction(1, 10)) == frozenset()


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=10), st.data())
def test_rn_monotone_in_nu(g, data):
    if g.n == 0:
        return
    s = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    lo = data.draw(small_fracs)
    hi = data.draw(small_fracs)
    lo, hi = min(lo, hi), max(lo, hi)
    assert robust_neighborhood(g, s, lo) >= robust_neighborhood(g, s, hi)


# ---------------------------------------------------------------------------
# Exact certification
# ---------------------------------------------------------------------------

def test_k12_certified():
    v = is_robust_expander_exact(
        complete_graph(12), RobustParams(Fraction(1, 20), Fraction(3, 10))
    )
    assert v.certified and v.checked_mode == "exact"


def test_two_cliques_refuted_and_witness_revalidates():
    g = two_cliques(12)
    params = RobustParams(Fraction(1, 10), Fraction(2, 5))
    v = is_robust_expander_exact(g, params)
    assert v.refuted
    rn = robust_neighborhood(g, v.witness, params.nu)
    assert Fraction(len(rn)) < len(v.witness) + params.nu * g.n


def test_one_clique_is_itself_a_refuting_set():
    g = two_cliques(12)
    params = RobustParams(Fraction(1, 10), Fraction(2, 5))
    clique = frozenset(range(6))
    rn = robust_neighborhood(g, clique, params.nu)
    assert rn == clique
    assert Fraction(len(rn)) < len(clique) + params.nu * g.n


def test_vacuous_window_certifies():
    v = is_robust_expander_exact(
        complete_graph(8), RobustParams(Fraction(1, 10), Fraction(3, 5))
    )
    assert v.certified and v.samples == 0


def test_exact_capacity():
    with pytest.raises(CapacityError):
        is_robust_expander_exact(
            complete_graph(23), RobustParams(Fraction(1, 10), Fraction(1, 4))
        )


# ---------------------------------------------------------------------------
# Monte-Carlo refutation
# ---------------------------------------------------------------------------

def test_mc_returns_clique_witness():
    v = refute_robust_expander_mc(
        two_cliques(12), RobustParams(Fraction(1, 10), Fraction(2, 5)), 10, seed=0
    )
    assert v.refuted and v.witness == frozenset(range(6))


def test_mc_refutes_large_two_cliques():
    v = refute_robust_expander_mc(
        two_cliques(40), RobustParams(Fraction(1, 10), Fraction(2, 5)), 1000, seed=3
    )
    assert v.refuted


def test_mc_rejects_zero_samples():
    with pytest.raises(InputError):
        refute_robust_expander_mc(
            complete_graph(8), RobustParams(Fraction(1, 10), Fraction(1, 4)), 0, seed=0
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_mc_never_refutes_exactly_certified(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(6, 12), 0.8, seed)
    params = RobustParams(Fraction(1, 25), Fraction(2, 5))
    exact = is_robust_expander_exact(g, params)
    if exact.certified:
        mc = refute_robust_expander_mc(g, params, 200, seed=seed + 1)
        assert not mc.refuted
        assert mc.inconclusive


# ---------------------------------------------------------------------------
# Parameter derivation
# ---------------------------------------------------------------------------

def test_params_worked_example():
    p = min_degree_implies_expander_params(Fraction(1, 5), Fraction(1, 2))
    assert p.nu == Fraction(1, 20)


def test_params_eps_equals_tau():
    eps = Fraction(1, 4)
    p = min_degree_implies_expander_params(eps, eps)
    assert p.nu == eps * eps / 2


@settings(max_examples=80, deadline=None)
@given(small_fracs, small_fracs)
def test_params_always_valid(eps, tau):
    if not eps < Fraction(1, 2):
        return
    p = min_degree_implies_expander_params(eps, tau)
    assert 0 < p.nu <= p.tau
    # the guaranteed inequality
    assert eps >= 2 * p.nu / p.tau


def test_params_domain_error():
    with pytest.raises(InputError):
        min_degree_implies_expander_params(Fraction(1, 2), Fraction(1, 4))


# ---------------------------------------------------------------------------
# Orientation
# ---------------------------------------------------------------------------

def test_orientation_c4_balanced():
    d = eulerian_orientation(cycle_graph(4))
    assert all(d.out_degree(v) == d.in_degree(v) == 1 for v in range(4))


def test_orientation_k5_exactly_half():
    d = eulerian_orientation(complete_graph(5))
    assert all(d.out_degree(v) == d.in_degree(v) == 2 for v in range(5))


def test_orientation_path_endpoints():
    d = eulerian_orientation(Graph(3, [(0, 1), (1, 2)]))
    assert d.out_degree(1) == d.in_degree(1) == 1
    for v in (0, 2):
        assert abs(d.out_degree(v) - d.in_degree(v)) == 1


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12))
def test_orientation_balance_and_arc_count(g):
    d = eulerian_orientation(g)
    assert d.arc_count() == g.m
    for v in range(g.n):
        gap = abs(d.out_degree(v) - d.in_degree(v))
        assert gap <= 1
        if g.degree(v) % 2 == 0:
            assert gap == 0


# ---------------------------------------------------------------------------
# Digraph expansion
# ---------------------------------------------------------------------------

def test_complete_digraph_certified():
    arcs = [(u, v) for u in range(10) for v in range(10) if u != v]
    d = DiGraph(10, arcs)
    v = is_robust_outexpander_exact(d, RobustParams(Fraction(1, 10), Fraction(1, 4)))
    assert v.certified


def test_directed_cycle_refuted():
    d = DiGraph(12, [(i, (i + 1) % 12) for i in range(12)])
    params = RobustParams(Fraction(1, 10), Fraction(1, 4))
    v = is_robust_outexpander_exact(d, params)
    assert v.refuted
    rn = robust_out_neighborhood(d, v.witness, params.nu)
    assert Fraction(len(rn)) < len(v.witness) + params.nu * d.n


@pytest.mark.parametrize("nu, tau", [(Fraction(1, 10), Fraction(1, 4)),
                                     (Fraction(1, 5), Fraction(1, 3)),
                                     (Fraction(1, 12), Fraction(2, 5))])
def test_symmetric_digraph_matches_graph_check(nu, tau):
    # both arcs per edge: the digraph path must see exactly the graph;
    # n runs past 16, where the enumeration takes more than one chunk
    params = RobustParams(nu, tau)
    outcomes = set()
    for seed in range(12):
        g = random_graph(8 + seed, (0.25, 0.5, 0.75)[seed % 3], seed)
        d = DiGraph(g.n, [a for u, v in g.edges() for a in ((u, v), (v, u))])
        want = is_robust_expander_exact(g, params)
        got = is_robust_outexpander_exact(d, params)
        assert (got.certified, got.witness, got.samples) == (
            want.certified, want.witness, want.samples)
        outcomes.add(want.certified)
    assert outcomes == {True, False}


def test_outexpander_matches_definition_on_one_way_digraphs():
    # arcs mostly run from low to high vertices, so in- and out-neighbour
    # counts differ and a checker that mixes them up gives other answers
    params = RobustParams(Fraction(1, 8), Fraction(1, 4))
    outcomes = set()
    for seed in range(16):
        rng = random.Random(seed)
        n = 8 + seed % 3
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < (0.7 if u < v else 0.2)]
        want = brute_first_non_expanding_set(n, arcs, params.nu, params.tau)
        got = is_robust_outexpander_exact(DiGraph(n, arcs), params)
        assert (got.certified, got.witness) == (want is None, want)
        outcomes.add(want is None)
    assert outcomes == {True, False}


def _dense_below_16(n, seed, directed):
    """Arcs of G(n, 0.7) on the vertices below 16 (both ways for a
    graph), each pair touching a vertex >= 16 kept with probability 0.1."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(n) if (u != v if directed else u < v)]
    return [(u, v) for u, v in pairs if rng.random() < (0.7 if max(u, v) < 16 else 0.1)]


@pytest.mark.parametrize("n, seed, directed", [(17, 3, False), (18, 1, False), (18, 0, True)])
def test_first_witness_across_the_16_bit_chunk_split(n, seed, directed):
    # the first violating set lies in the second 2^16-mask chunk, where
    # the high bits are fixed and the low 16 bits come from the table
    params = RobustParams(Fraction(1, 6), Fraction(1, 4))
    arcs = _dense_below_16(n, seed, directed)
    if directed:
        got = is_robust_outexpander_exact(DiGraph(n, arcs), params)
    else:
        got = is_robust_expander_exact(Graph(n, arcs), params)
        arcs += [(v, u) for u, v in arcs]
    want = brute_first_non_expanding_set(n, arcs, params.nu, params.tau)
    assert max(want) >= 16
    assert got.witness == want and not got.certified
    # samples counts the window-sized masks of every whole chunk up to
    # and including the witness's
    kmin, kmax = -(-n // 4), 3 * n // 4
    chunk = mask_of(want, n) >> 16
    assert got.samples == sum(
        comb(16, s) for high in range(chunk + 1) for s in range(17)
        if kmin <= s + high.bit_count() <= kmax)


def test_oriented_k12_certified():
    d = eulerian_orientation(complete_graph(12))
    v = is_robust_outexpander_exact(d, RobustParams(Fraction(1, 25), Fraction(3, 10)))
    assert v.certified


# ---------------------------------------------------------------------------
# Supergraph monotonicity
# ---------------------------------------------------------------------------

def test_disjoint_union_preserves_certification():
    from hampack.construct import circulant_regular

    g = circulant_regular(12, 6)
    parts = petersen_two_factorization(g)
    params = RobustParams(Fraction(1, 30), Fraction(1, 3))
    h = union_edge_disjoint(parts[0].subgraph, parts[1].subgraph)
    if is_robust_expander_exact(h.to_graph(), params).certified:
        hh = union_edge_disjoint(h, parts[2].subgraph)
        assert is_robust_expander_exact(hh.to_graph(), params).certified


# ---------------------------------------------------------------------------
# Sparse expander factor
# ---------------------------------------------------------------------------

def test_sparse_factor_k16_single_cycle_parameters():
    f, verdict = sparse_expander_factor(
        complete_graph(16),
        Fraction(1, 8),
        RobustParams(Fraction(1, 20), Fraction(1, 4)),
        seed=7,
    )
    assert f.r == 2
    assert verdict.certified


def test_sparse_factor_k12():
    f, verdict = sparse_expander_factor(
        complete_graph(12),
        Fraction(1, 3),
        RobustParams(Fraction(1, 50), Fraction(3, 10)),
        seed=11,
        attempts=10,
    )
    assert f.r == 4
    assert verdict.certified


def test_sparse_factor_parity_precondition():
    with pytest.raises(InputError):
        sparse_expander_factor(
            complete_graph(12),
            Fraction(1, 4),
            RobustParams(Fraction(1, 50), Fraction(3, 10)),
            seed=0,
        )


def test_sparse_factor_existence_error():
    with pytest.raises(ExistenceError):
        sparse_expander_factor(
            two_cliques(12),
            Fraction(1, 2),
            RobustParams(Fraction(1, 50), Fraction(3, 10)),
            seed=0,
        )


def test_sparse_factor_deterministic():
    args = (
        complete_graph(12),
        Fraction(1, 6),
        RobustParams(Fraction(1, 50), Fraction(3, 10)),
    )
    f1, v1 = sparse_expander_factor(*args, seed=5)
    f2, v2 = sparse_expander_factor(*args, seed=5)
    assert f1.subgraph.edges == f2.subgraph.edges
    assert (v1.certified, v1.samples) == (v2.certified, v2.samples)


def test_mc_refutes_component_soup_via_unions():
    # every single component sits below the size window; only a union
    # of components falls inside it and witnesses the failure
    edges = []
    for t in range(10):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        edges += [(a, b), (b, c), (a, c)]
    soup = Graph(30, edges)
    params = RobustParams(Fraction(1, 30), Fraction(1, 4))
    v = refute_robust_expander_mc(soup, params, samples=10, seed=0)
    assert v.refuted
    rn = robust_neighborhood(soup, v.witness, params.nu)
    assert Fraction(len(rn)) < len(v.witness) + params.nu * soup.n


def test_sparse_factor_mc_path_beyond_exact_range():
    # n = 30 routes the expansion check through the Monte-Carlo refuter;
    # factors made of many small cycles are refuted and retried, so an
    # accepted factor admits no in-window union of components
    params = RobustParams(Fraction(1, 30), Fraction(1, 4))
    f, verdict = sparse_expander_factor(
        complete_graph(30), Fraction(1, 15), params,
        seed=2, attempts=30, mc_samples=100,
    )
    assert f.r == 2
    assert verdict.checked_mode == "monte_carlo"
    assert not verdict.refuted
    # with window [8, 22], surviving refutation forces one dominant cycle:
    # several small components would land a cumulative union in the window
    sizes = sorted(c.bit_count() for c in f.subgraph.to_graph().components())
    assert sizes[-1] > 22
