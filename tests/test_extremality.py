import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_min_closeness,
    brute_min_closeness_score,
    reference_closeness_heuristic,
)

from hampack.core import Graph, Partition
from hampack.construct import (
    babai_graph,
    complete_bipartite,
    complete_graph,
    extremal_graph,
    random_graph,
    two_cliques,
)
from hampack.errors import InputError
from hampack import extremality
from hampack.extremality import (
    alpha_of,
    check_eta_extremal_pair,
    closeness,
    find_eta_extremal_witness,
    trichotomy_classify,
)


# ---------------------------------------------------------------------------
# Pair checks
# ---------------------------------------------------------------------------

def test_extremal_16_9_all_conditions_hold():
    g, _, part = extremal_graph(16, 9)
    rep = check_eta_extremal_pair(g, Fraction(1, 5), part)
    assert (rep.e1, rep.e2, rep.e3, rep.e4) == (True, True, True, True)
    assert rep.extremal
    assert rep.quantities["e_b"] == 22
    assert rep.quantities["uncovered"] <= 2 * Fraction(1, 5) * 16


def test_babai2_extremal_at_quarter():
    # the independent class A and the matched class B
    part = Partition(frozenset(range(4)), frozenset(range(4, 10)))
    rep = check_eta_extremal_pair(babai_graph(2), Fraction(1, 4), part)
    assert rep.extremal
    assert rep.quantities == {
        "size_a": 4,
        "size_b": 6,
        "e_ab": 24,
        "e_b": 3,
        "uncovered": 0,
    }


def test_empty_partition_on_complete_graph():
    g = complete_graph(12)
    rep = check_eta_extremal_pair(g, Fraction(1, 100), Partition(frozenset(), frozenset()))
    assert not rep.e1  # the E1 window misses 0 at small eta
    rep = check_eta_extremal_pair(g, Fraction(1, 20), Partition(frozenset(), frozenset()))
    assert rep.e1 and not rep.e2  # |B| = 0 can never reach its window


def test_uncovered_vertices_allowed():
    g, _, part = extremal_graph(16, 9)
    trimmed = Partition(part.a, frozenset(sorted(part.b)[:-1]))
    rep = check_eta_extremal_pair(g, Fraction(1, 5), trimmed)
    assert rep.quantities["uncovered"] == 1


def test_monotone_in_eta():
    g, _, part = extremal_graph(16, 9)
    small = check_eta_extremal_pair(g, Fraction(1, 5), part)
    for num in (2, 3, 4):
        big = check_eta_extremal_pair(g, Fraction(num, 5), part)
        for name in ("e1", "e2", "e3", "e4"):
            if getattr(small, name):
                assert getattr(big, name)


def test_degenerate_eta_flagged():
    g, _, part = extremal_graph(16, 9)
    rep = check_eta_extremal_pair(g, Fraction(3, 2), part)
    assert rep.quantities.get("degenerate_eta")


def test_alpha_is_exact_rational():
    assert alpha_of(babai_graph(2)) == 0
    assert alpha_of(complete_graph(8)) == Fraction(7, 8) - Fraction(1, 2)


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def test_exact_search_finds_witness_on_extremal_instance():
    g, _, _ = extremal_graph(12, 7)
    rep = find_eta_extremal_witness(g, Fraction(1, 4))
    assert rep.mode == "exact"
    assert rep.extremal
    check = check_eta_extremal_pair(g, Fraction(1, 4), rep.partition)
    assert check.extremal


def test_exact_negative_is_definitive():
    rep = find_eta_extremal_witness(random_graph(12, 0.5, seed=1), Fraction(1, 20))
    assert rep.mode == "exact"
    assert not rep.extremal
    assert rep.partition is None


def _first_witness_by_scan(g, eta):
    """The first extremal pair over all 3^n assignments, vertex 0 most
    significant and A before B before unassigned: no pruning at all."""
    for assign in itertools.product("abu", repeat=g.n):
        part = Partition(frozenset(v for v, c in enumerate(assign) if c == "a"),
                         frozenset(v for v, c in enumerate(assign) if c == "b"))
        if check_eta_extremal_pair(g, eta, part).extremal:
            return part
    return None


@pytest.mark.parametrize(
    "g",
    [extremal_graph(6, 4)[0], extremal_graph(7, 5)[0]]
    + [random_graph(7, p, seed) for p in (0.4, 0.7) for seed in range(3)],
)
@pytest.mark.parametrize("eta", [Fraction(1, 20), Fraction(1, 10), Fraction(1, 4)])
def test_exact_search_finds_the_first_witness_of_an_unpruned_scan(g, eta):
    rep = find_eta_extremal_witness(g, eta)
    assert rep.mode == "exact"
    assert rep.partition == _first_witness_by_scan(g, eta)


def test_heuristic_recovers_construction_witness():
    g, _, _ = extremal_graph(16, 9)
    rep = find_eta_extremal_witness(g, Fraction(1, 5), seed=3)
    assert rep.mode == "heuristic"
    assert rep.extremal


# ---------------------------------------------------------------------------
# Closeness
# ---------------------------------------------------------------------------

def test_closeness_bipartite_of_bipartite():
    rep = closeness(complete_bipartite(12), "bipartite", Fraction(0))
    assert rep.score == 0 and rep.close and rep.exact


def test_closeness_cliques_of_two_cliques():
    rep = closeness(two_cliques(12), "two_cliques", Fraction(0))
    assert rep.score == 0 and rep.close


def test_closeness_k12_balanced_cut():
    rep = closeness(complete_graph(12), "two_cliques", Fraction(1, 4))
    assert rep.score == 36
    assert rep.close  # 36 <= 144/4
    rep = closeness(complete_graph(12), "two_cliques", Fraction(24, 100))
    assert not rep.close


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["bipartite", "two_cliques"]))
def test_closeness_exact_matches_unpruned_brute_force(seed, kind):
    import random as _r

    rng = _r.Random(seed)
    g = random_graph(rng.randint(2, 10), rng.uniform(0.2, 0.9), seed)
    rep = closeness(g, kind, Fraction(1, 10))
    assert rep.score == brute_min_closeness_score(g, kind)


@pytest.mark.parametrize("kind", ["bipartite", "two_cliques"])
def test_closeness_exact_returns_lexicographically_first_minimiser(kind):
    # ties are common (edgeless and complete graphs tie everywhere), so
    # this pins which minimiser comes back, not only its score
    graphs = [Graph(n) for n in range(1, 15)]
    for n in range(1, 15):
        for i, p in enumerate((0.3, 0.5, 0.8)):
            graphs.append(random_graph(n, p, 100 * n + i))
    for g in graphs:
        rep = closeness(g, kind, Fraction(1, 10))
        assert (rep.a, rep.score) == brute_min_closeness(g, kind), g.edges()


@pytest.mark.parametrize("kind", ["bipartite", "two_cliques"])
@pytest.mark.parametrize("n", [15, 16, 17, 18])
def test_closeness_exact_first_minimiser_across_the_halves(n, kind):
    # A is split between L = {0..n//2-1} and the rest; the first minimiser
    # must come out the same whatever |A n L| is, and on edgeless and
    # complete graphs every set ties
    graphs = [Graph(n), complete_graph(n)]
    graphs += [random_graph(n, p, 100 * n + i) for i, p in enumerate((0.2, 0.5, 0.8))]
    for g in graphs:
        rep = closeness(g, kind, Fraction(1, 10))
        assert rep.exact
        assert (rep.a, rep.score) == brute_min_closeness(g, kind), g.edges()


@pytest.mark.parametrize("build, kind", [(complete_bipartite, "bipartite"),
                                          (two_cliques, "two_cliques")])
def test_closeness_heuristic_finds_the_family_split(build, kind):
    # above n = 24 the swap search runs instead of the enumeration
    rep = closeness(build(26), kind, Fraction(0))
    assert rep.score == 0 and rep.close and not rep.exact
    assert len(rep.a) == 13


@pytest.mark.parametrize("kind", ["bipartite", "two_cliques"])
def test_closeness_heuristic_score_recomputes_from_a(kind):
    g = random_graph(30, 0.5, 7)
    rep = closeness(g, kind, Fraction(1, 20), seed=3)
    assert not rep.exact and len(rep.a) == 15
    # e(A) counts the edges with both ends in A, e(A, complement) those with one
    ends_in_a = 2 if kind == "bipartite" else 1
    assert rep.score == sum((u in rep.a) + (v in rep.a) == ends_in_a for u, v in g.edges())


@pytest.mark.parametrize("kind", ["bipartite", "two_cliques"])
@pytest.mark.parametrize("n, p", [(25, 0.5), (33, 0.9), (47, 0.5), (64, 0.9)])
@pytest.mark.parametrize("seed_", [0, 7])
def test_closeness_heuristic_matches_the_rescoring_oracle(n, p, kind, seed_):
    # the kept counts change how a swap is scored, never which swap is taken
    g = random_graph(n, p, n + seed_)
    got = extremality._closeness_heuristic(g, kind, n // 2, seed_, 6)
    assert got == reference_closeness_heuristic(g, kind, n // 2, seed_, 6)


def test_closeness_float_epsilon_reads_as_decimal():
    # score 3 = 0.03 n^2 exactly; the double 0.03 lies just below 3/100
    g = random_graph(10, 0.5, 8)
    rep = closeness(g, "bipartite", 0.03)
    assert rep.score == 3 and rep.epsilon == Fraction(3, 100) and rep.close
    assert rep == closeness(g, "bipartite", Fraction(3, 100))
    result = trichotomy_classify(g, 0.5, 0.1, 0.3, 0.03)
    assert result.label == "close_bipartite" and result.bipartite.epsilon == Fraction(3, 100)


def test_float_eta_reads_as_decimal():
    # e(A, B) = 9 = (1 - 1/10)|A||B|, so (E3) fails at eta = 1/10; the
    # double 0.1 lies just above 1/10 and would let it pass
    g = Graph(7, [(a, b) for a in (0, 1) for b in range(2, 7) if (a, b) != (0, 2)])
    part = Partition(frozenset({0, 1}), frozenset(range(2, 7)))
    rep = check_eta_extremal_pair(g, 0.1, part)
    assert rep.eta == Fraction(1, 10) and rep.quantities["e_ab"] == 9 and not rep.e3
    assert rep == check_eta_extremal_pair(g, Fraction(1, 10), part)
    assert find_eta_extremal_witness(g, 0.1).eta == Fraction(1, 10)


def test_closeness_bad_kind():
    with pytest.raises(InputError):
        closeness(complete_graph(4), "nope", Fraction(1, 10))


def test_closeness_refuses_a_negative_seed():
    # above the exact cutoff the swap search would run on seed 3's draws
    g = random_graph(30, 0.6, 3)
    with pytest.raises(InputError, match="seed must be >= 0, got -3"):
        closeness(g, "bipartite", Fraction(1, 10), seed=-3)


def test_witness_search_refuses_a_negative_seed():
    g = random_graph(30, 0.6, 3)
    with pytest.raises(InputError, match="seed must be >= 0, got -1"):
        find_eta_extremal_witness(g, Fraction(1, 5), seed=-1)


def test_negative_eta_and_epsilon_are_refused_zero_is_valid():
    g, _, part = extremal_graph(16, 9)
    with pytest.raises(InputError, match="eta must be nonnegative, got -1"):
        check_eta_extremal_pair(g, -1, part)
    with pytest.raises(InputError, match="eta must be nonnegative, got -1/4"):
        find_eta_extremal_witness(g, Fraction(-1, 4))
    with pytest.raises(InputError, match="epsilon must be nonnegative, got -1"):
        closeness(g, "bipartite", -1)
    with pytest.raises(InputError, match="epsilon must be nonnegative, got -1/10"):
        trichotomy_classify(g, Fraction(1, 10), Fraction(1, 50), Fraction(3, 10), -0.1)
    assert check_eta_extremal_pair(g, 0, part).eta == 0
    assert find_eta_extremal_witness(g, 0).eta == 0
    assert closeness(g, "two_cliques", 0).epsilon == 0


# ---------------------------------------------------------------------------
# Trichotomy
# ---------------------------------------------------------------------------

def test_classify_bipartite_family():
    res = trichotomy_classify(
        complete_bipartite(16), Fraction(1, 20), Fraction(1, 20), Fraction(1, 4), Fraction(1, 20)
    )
    assert res.label == "close_bipartite"


def test_classify_two_cliques_family():
    res = trichotomy_classify(
        two_cliques(16), Fraction(1, 16), Fraction(1, 16), Fraction(1, 4), Fraction(1, 100)
    )
    assert res.label == "close_cliques"
    assert res.bipartite is not None and not res.bipartite.close


def test_classify_expander():
    seed = 0
    while True:
        g = random_graph(16, 0.55, seed)
        if Fraction(g.min_degree()) >= (Fraction(1, 2) - Fraction(1, 20)) * 16:
            break
        seed += 1
    res = trichotomy_classify(
        g, Fraction(1, 20), Fraction(1, 100), Fraction(3, 10), Fraction(1, 50)
    )
    assert res.label == "robust_expander"


def test_classify_two_cliques_above_exact_closeness():
    res = trichotomy_classify(
        two_cliques(30), Fraction(1, 15), Fraction(1, 16), Fraction(1, 4), Fraction(1, 20)
    )
    assert res.label == "close_cliques"
    assert not res.cliques.exact and not res.bipartite.close


def test_classify_above_exact_expander_cap_uses_monte_carlo():
    g = random_graph(30, 0.7, 5)
    res = trichotomy_classify(
        g, Fraction(1, 4), Fraction(1, 100), Fraction(1, 4), Fraction(1, 50), mc_samples=50
    )
    assert res.label == "unclassified"
    assert res.expander.checked_mode == "monte_carlo"


def test_classify_hypothesis_violation():
    g = Graph(8, [(0, 1)])
    res = trichotomy_classify(g, Fraction(1, 100), Fraction(1, 20), Fraction(1, 4), Fraction(1, 50))
    assert res.label == "hypothesis_violated"


@pytest.mark.parametrize("g", [two_cliques(12), complete_bipartite(12), Graph(8, [(0, 1)]),
                               random_graph(12, 0.9, 1)],
                         ids=["close-cliques", "close-bipartite", "hypothesis-violated", "gnp"])
def test_classify_checks_nu_and_tau_on_every_graph(g):
    # nu > tau is refused before any early return, not only when the
    # expansion check is reached
    with pytest.raises(InputError, match="need 0 < nu <= tau < 1"):
        trichotomy_classify(g, Fraction(1, 10), 5, Fraction(1, 3), Fraction(1, 20))


def test_bipartite_closeness_on_extremal_instance():
    # the complete A-B join prices every A-vertex at k-|A| cross edges,
    # so the exact minimizer settles inside the inner class
    g, _, part = extremal_graph(16, 9)
    rep = closeness(g, "bipartite", Fraction(1, 20))
    assert rep.exact
    assert rep.score == brute_min_closeness_score(g, "bipartite") == 10
    assert not (rep.a & part.a)
