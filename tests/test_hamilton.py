import time

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from conftest import graphs
from oracles import (
    brute_hamilton_exists,
    cliques_sharing_a_vertex,
    generalized_petersen,
    petersen,
)

from hampack.core import Graph
from hampack.construct import (
    babai_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    random_graph,
)
from hampack.errors import CapacityError, InputError, InternalError
from hampack.factors import r_factor_exists, reg_even_of_graph
from hampack import hamilton
from hampack.hamilton import (
    SEARCH_NODE_BUDGET,
    Packing,
    _audit_packing,
    _Budget,
    _search_packing,
    canonical_cycle,
    conjecture_experiment,
    decompose_even_regular,
    find_hamilton,
    max_packing_exact,
    pack_hamilton,
    verify_packing,
    verify_packing_detailed,
)


# ---------------------------------------------------------------------------
# Single cycle
# ---------------------------------------------------------------------------

def test_cycle_graph_is_its_own_cycle():
    assert find_hamilton(cycle_graph(7)) == tuple(range(7))


def test_unbalanced_bipartite_has_none():
    g = Graph(7, [(u, 3 + v) for u in range(3) for v in range(4)])
    assert find_hamilton(g) is None


def test_petersen_has_none():
    assert find_hamilton(petersen()) is None


def test_backtracking_range_matches_dp_structure():
    # n = 22 is above the DP cap: the budgeted enumeration decides
    g = cycle_graph(22)
    assert find_hamilton(g) == tuple(range(22))
    rows = list(g.adj)
    g2 = Graph(22, [e for e in g.edges() if e != (0, 1)])
    assert find_hamilton(g2) is None


def test_capacity():
    with pytest.raises(CapacityError):
        find_hamilton(Graph(65))


def test_search_past_its_budget_raises_capacity_error():
    # 2-connected with a 2-factor: the search cannot decide it in budget
    g = random_graph(47, 0.125, 504706)
    assert g.min_degree() >= 2 and g.cut_vertices() == 0 and r_factor_exists(g, 2)
    with pytest.raises(CapacityError, match=f"{SEARCH_NODE_BUDGET} nodes"):
        find_hamilton(g)


def test_cut_vertex_answers_without_search(monkeypatch):
    # a 2-factor, but removing the shared vertex leaves two components
    monkeypatch.setattr(hamilton, "_iter_cycles", None)
    g = cliques_sharing_a_vertex(11)
    assert g.n == 21 and r_factor_exists(g, 2)
    assert g.cut_vertices() == 1 << 10
    assert find_hamilton(g) is None


def test_exhausted_search_within_budget_returns_none(monkeypatch):
    spent = []

    class CountingBudget(hamilton._Budget):
        def spend(self):
            spent.append(1)
            return super().spend()

    monkeypatch.setattr(hamilton, "_Budget", CountingBudget)
    g = generalized_petersen(11, 2)
    assert g.n == 22 and r_factor_exists(g, 2)
    assert find_hamilton(g) is None
    assert len(spent) == 2038


# the full 2 000 000-node budget takes about 4-10 s on a 2-core machine
HAMILTON_TIME_BOUND_S = 60.0


@seed(20261018)
@settings(max_examples=30, deadline=None)
@given(
    st.integers(21, 40),
    st.sampled_from([0.1, 0.15, 0.2, 0.3, 0.5]),
    st.integers(0, 2**32 - 1),
)
def test_finder_above_dp_cap_answers_soundly_in_bounded_time(n, p, graph_seed):
    g = random_graph(n, p, graph_seed)
    assume(g.min_degree() >= 2)
    start = time.perf_counter()
    try:
        cycle = find_hamilton(g)
    except CapacityError:
        cycle = "capacity"
    assert time.perf_counter() - start < HAMILTON_TIME_BOUND_S
    if not r_factor_exists(g, 2):
        assert cycle is None
    if isinstance(cycle, tuple):
        assert sorted(cycle) == list(range(n))
        for i in range(n):
            assert g.has_edge(cycle[i], cycle[(i + 1) % n])


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8))
def test_finder_matches_permutation_scan(g):
    cycle = find_hamilton(g)
    assert (cycle is not None) == brute_hamilton_exists(g)
    if cycle is not None:
        assert len(cycle) == g.n and cycle[0] == 0
        assert cycle[1] < cycle[-1]
        for i in range(g.n):
            assert g.has_edge(cycle[i], cycle[(i + 1) % g.n])


def test_canonical_form():
    assert canonical_cycle([2, 3, 0, 1]) == (0, 1, 2, 3)
    assert canonical_cycle([0, 3, 2, 1]) == (0, 1, 2, 3)
    with pytest.raises(InputError):
        canonical_cycle([1, 2, 3])


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------

def test_k5_packs_two():
    p = pack_hamilton(complete_graph(5), 2)
    assert p.size == 2 and verify_packing(complete_graph(5), p)


def test_k7_packs_three():
    p = pack_hamilton(complete_graph(7), 3)
    assert p.size == 3 and verify_packing(complete_graph(7), p)


def test_babai2_target_two_fails_best_one():
    g = babai_graph(2)
    p = pack_hamilton(g, 2)
    assert p.exhaustive          # search completed, not a budget cut
    assert p.size == 1


def test_max_packing_examples():
    assert max_packing_exact(complete_graph(5))[0] == 2
    assert max_packing_exact(babai_graph(2))[0] == 1
    assert max_packing_exact(cycle_graph(6))[0] == 1
    assert max_packing_exact(Graph(0))[0] == 0
    assert pack_hamilton(Graph(0), 1).size == 0


def test_max_packing_capacity():
    with pytest.raises(CapacityError):
        max_packing_exact(complete_graph(13))


def test_max_below_ceiling_exhausts_search():
    # delta/2 = m/n = reg_even/2 = 1, but the Petersen graph has no
    # Hamilton cycle: only an exhausted search can answer 0
    g = petersen()
    assert reg_even_of_graph(g) == 2
    count, packing = max_packing_exact(g)
    assert count == 0 and packing.cycles == ()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_early_stop_matches_full_exhaustion(seed):
    import random as _r

    rng = _r.Random(seed)
    while True:
        n = rng.randint(6, 10)
        g = random_graph(n, rng.uniform(0.5, 0.95), rng.getrandbits(32))
        if 2 * g.min_degree() >= n:
            break
    count, packing = max_packing_exact(g)
    full, _ = _search_packing(g, None, _Budget(None))
    assert count == len(full)
    assert packing.cycles == tuple(full)


def test_audit_rejects_packing_above_reg_even():
    g = complete_graph(5)
    packing = decompose_even_regular(g)
    _audit_packing(g, packing, 4)
    with pytest.raises(InternalError, match="reg_even"):
        _audit_packing(g, packing, 2)


def test_packing_respects_degree_cap():
    count, packing = max_packing_exact(complete_graph(8))
    assert count <= complete_graph(8).min_degree() // 2
    assert verify_packing(complete_graph(8), packing)


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,count", [(5, 2), (7, 3), (9, 4)])
def test_odd_complete_graphs_decompose(n, count):
    g = complete_graph(n)
    p = decompose_even_regular(g)
    assert p is not None and p.size == count
    assert verify_packing(g, p)
    assert sum(len(c) for c in p.cycles) == g.m


def test_c8_decomposes_into_itself():
    p = decompose_even_regular(cycle_graph(8))
    assert p.size == 1 and p.cycles[0] == tuple(range(8))


def test_decompose_rejects_bad_inputs():
    with pytest.raises(InputError):
        decompose_even_regular(complete_graph(4))  # odd-regular
    with pytest.raises(InputError):
        decompose_even_regular(babai_graph(1))  # irregular


def test_two_cliques_cannot_decompose():
    from hampack.construct import two_cliques

    g = two_cliques(10)  # 4-regular but disconnected
    assert decompose_even_regular(g) is None


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def test_verify_accepts_valid_decomposition():
    g = complete_graph(5)
    p = decompose_even_regular(g)
    assert verify_packing(g, p)


def test_verify_rejects_duplicate_cycle():
    g = complete_graph(5)
    c = find_hamilton(g)
    bad = Packing(g, (c, c))
    ok, reason = verify_packing_detailed(g, bad)
    assert not ok and "reused" in reason


def test_verify_rejects_non_edge():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    bad = Packing(g, ((0, 2, 1, 3),))
    ok, reason = verify_packing_detailed(g, bad)
    assert not ok and "non-edge" in reason


def test_verify_rejects_short_cycle():
    g = complete_graph(5)
    bad = Packing(g, ((0, 1, 2, 3),))
    ok, reason = verify_packing_detailed(g, bad)
    assert not ok


# ---------------------------------------------------------------------------
# Conjecture experiments
# ---------------------------------------------------------------------------

def test_babai2_conjecture_equalities():
    rep = conjecture_experiment(babai_graph(2))
    assert rep.reg_even == 2
    assert rep.max_packing == 1
    assert rep.graph_law_ok and rep.class_law_ok
    assert rep.counterexample is None


def test_k9_conjecture_equalities():
    rep = conjecture_experiment(complete_graph(9))
    assert rep.reg_even == 8 and rep.max_packing == 4
    assert rep.graph_law_ok


def test_k55_conjecture():
    rep = conjecture_experiment(complete_bipartite(10))
    assert rep.delta == 5
    assert rep.reg_even == 4
    assert rep.max_packing == 2
    assert rep.graph_law_ok and rep.class_law_ok


def test_conjecture_requires_dirac_degree():
    with pytest.raises(InputError):
        conjecture_experiment(cycle_graph(8))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 1000))
def test_conjecture_pipeline_on_random_dirac_graphs(seed):
    g = random_graph(8, 0.75, seed)
    if 2 * g.min_degree() < g.n:
        return
    rep = conjecture_experiment(g)
    assert verify_packing(g, rep.packing)
    if not (rep.graph_law_ok and rep.class_law_ok):
        assert rep.counterexample  # recorded, never suppressed


def test_babai_packing_law_small_m():
    # the bottleneck construction caps packings at floor((m+1)/2)
    for m in (1, 2):
        count, _ = max_packing_exact(babai_graph(m))
        assert count <= (m + 1) // 2


@seed(20261018)
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_max_packing_matches_cycle_list_oracle(seed):
    import random as _r

    from oracles import brute_max_packing

    rng = _r.Random(seed)
    g = random_graph(rng.randint(4, 8), rng.uniform(0.5, 1.0), seed)
    count, packing = max_packing_exact(g)
    assert count == brute_max_packing(g)
    assert verify_packing(g, packing)


def test_pack_budget_exhaustion_is_flagged():
    g = complete_graph(9)
    p = pack_hamilton(g, 4, budget=5)
    assert not p.exhaustive
    assert p.size < 4
    assert verify_packing(g, p)
