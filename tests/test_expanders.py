import random
from collections import deque
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from oracles import (
    brute_first_non_expanding_set,
    reference_random_candidate,
    reference_refute_mc,
    robust_neighbourhood,
)

from hampack import expanders
from hampack.core import Graph, iter_bits, mask_of
from hampack.construct import (
    complete_graph,
    cycle_graph,
    random_graph,
    two_cliques,
)
from hampack.errors import CapacityError, InputError
from hampack.expanders import (
    RobustParams,
    _bit_matrix,
    _random_rows,
    eulerian_orientation,
    is_robust_expander_exact,
    min_degree_implies_expander_params,
    refute_robust_expander_mc,
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


def test_params_read_floats_as_decimals():
    assert RobustParams(0.1, 0.3) == RobustParams(Fraction(1, 10), Fraction(3, 10))


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
    rn = robust_neighbourhood(g, v.witness, params.nu)
    assert Fraction(len(rn)) < len(v.witness) + params.nu * g.n


def test_one_clique_is_itself_a_refuting_set():
    g = two_cliques(12)
    params = RobustParams(Fraction(1, 10), Fraction(2, 5))
    clique = frozenset(range(6))
    rn = robust_neighbourhood(g, clique, params.nu)
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


def test_mc_refuses_a_negative_seed():
    # random.Random drops the sign: seed -1 would replay seed 1's draws
    g = random_graph(32, 0.6, 831)
    with pytest.raises(InputError, match="seed must be >= 0, got -1"):
        refute_robust_expander_mc(g, RobustParams(Fraction(13, 64), Fraction(7, 16)), 300, seed=-1)


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


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 255, 256])
def test_bit_matrix_matches_per_bit_construction(n):
    import numpy as np

    rng = random.Random(n)
    rows = [rng.getrandbits(n) for _ in range(n)]
    if n:
        rows[0], rows[-1] = (1 << n) - 1, 0
    expected = np.zeros((n, n), dtype=np.float32)
    for u, row in enumerate(rows):
        for v in range(n):
            if row >> v & 1:
                expected[u, v] = 1.0
    got = _bit_matrix(rows, n)
    assert got.dtype == np.float32 and got.shape == (n, n)
    assert np.array_equal(got, expected)


def _path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _triangle_soup(t):
    triangles = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(t)]
    return Graph(3 * t, [e for a, b, c in triangles for e in ((a, b), (b, c), (a, c))])


def _circulant(n, d):
    return Graph(n, [(u, (u + i) % n) for u in range(n) for i in range(1, d + 1)])


BFS_GRAPHS = {"empty": Graph(0), "single": Graph(1), "path9": _path(9),
              "soup12": _triangle_soup(4), "gnp40": random_graph(40, 0.06, 3)}


@pytest.mark.parametrize("gather", [1, 1 << 23])
@pytest.mark.parametrize("name", list(BFS_GRAPHS))
def test_bfs_distances_match_per_root_bfs(monkeypatch, name, gather):
    # gather = 1 advances one root at a time, the default all at once
    monkeypatch.setattr(expanders, "_GATHER_BYTES", gather)
    g = BFS_GRAPHS[name]
    n = g.n
    dist = expanders._bfs_distances(_bit_matrix(g.adj, n) > 0)
    for v in range(n):
        expected = [n] * n
        expected[v] = 0
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in iter_bits(g.adj[u]):
                if expected[w] == n:
                    expected[w] = expected[u] + 1
                    queue.append(w)
        assert dist[v].tolist() == expected


# id: (graph, nu, tau, samples, seed, the reference's samples).  "row 0"
# and "row 63" put the witness in the first and in the last row of a
# 64-row block; the structured witnesses come from the component,
# cumulative-union and neighbourhood sections.
MC_ORACLE_CASES = {
    "path64-first-candidate": (_path(64), Fraction(1, 16), Fraction(1, 4), 100, 0, 1),
    "two-cliques40-component": (two_cliques(40), Fraction(1, 10), Fraction(2, 5), 100, 3, 1),
    "triangle-soup30-union": (_triangle_soup(10), Fraction(1, 30), Fraction(1, 4), 10, 0, 19),
    "gnp25-structured-row-0": (random_graph(25, 0.3, 149), Fraction(5, 32), Fraction(3, 8), 300, 149, 3),
    "gnp63-structured-row-63": (random_graph(63, 0.2, 7111), Fraction(5, 128), Fraction(5, 32), 1, 7111, 66),
    "gnp96-sparse-structured": (random_graph(96, 0.1, 4), Fraction(1, 32), Fraction(1, 4), 50, 9, 182),
    "gnp23-random": (random_graph(23, 0.5, 26), Fraction(9, 64), Fraction(3, 8), 200, 33, 263),
    "gnp23-random-row-63": (random_graph(23, 0.5, 26), Fraction(9, 64), Fraction(3, 8), 300, 135, 156),
    "gnp23-random-row-0": (random_graph(23, 0.5, 26), Fraction(9, 64), Fraction(3, 8), 300, 179, 157),
    "gnp23-random-early": (random_graph(23, 0.4, 284), Fraction(1, 8), Fraction(7, 16), 200, 21, 77),
    "path64-none": (_path(64), Fraction(1, 64), Fraction(1, 4), 100, 0, 268),
    "gnp64-none": (random_graph(64, 0.7, 1), Fraction(1, 64), Fraction(1, 4), 200, 5, 444),
    "gnp96-none": (random_graph(96, 0.7, 2), Fraction(1, 64), Fraction(1, 4), 100, 6, 474),
    # every structured candidate is an interval of the circulant and
    # expands, so only a random row refutes it
    "circulant96-random": (_circulant(96, 16), Fraction(1, 16), Fraction(1, 8), 200, 0, 380),
    "gnp128-none": (random_graph(128, 0.7, 5), Fraction(1, 64), Fraction(1, 8), 150, 12, 670),
}

# the random row (counted from 0) that refutes each random-decided case:
# a late hit, the last and the first row of a 64-row block, an early hit,
# and the circulant's witness
MC_RANDOM_ROW = {
    "gnp23-random": 170,
    "gnp23-random-row-63": 63,
    "gnp23-random-row-0": 64,
    "gnp23-random-early": 3,
    "circulant96-random": 21,
}


def _verdict_tuple(v):
    return v.certified, v.witness, v.samples, v.checked_mode


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("case", list(MC_ORACLE_CASES))
def test_mc_matches_reference_refuter(monkeypatch, case, block):
    g, nu, tau, samples, seed, expected_samples = MC_ORACLE_CASES[case]
    params = RobustParams(nu, tau)
    ref = reference_refute_mc(g, params, samples, seed)
    assert ref.samples == expected_samples
    monkeypatch.setattr(expanders, "_BLOCK", block)
    assert _verdict_tuple(refute_robust_expander_mc(g, params, samples, seed)) == _verdict_tuple(ref)


@pytest.mark.parametrize("case", list(MC_RANDOM_ROW))
def test_mc_random_cases_are_decided_by_their_random_row(case):
    g, nu, tau, samples, seed, expected_samples = MC_ORACLE_CASES[case]
    params = RobustParams(nu, tau)
    structured = reference_refute_mc(g, params, 0, seed)
    assert structured.witness is None
    assert expected_samples == structured.samples + MC_RANDOM_ROW[case] + 1
    assert reference_refute_mc(g, params, samples, seed).refuted


class _TiedWords:
    """A getrandbits source whose 32-bit words take four values, so that
    keys tie in almost every row; a bulk call returns the words of that
    many 32-bit calls, least significant first, like random.Random."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def getrandbits(self, bits: int) -> int:
        assert bits % 32 == 0
        return sum(self._rng.choice((0, 1, 3 << 30, (1 << 32) - 1)) << (32 * i) for i in range(bits // 32))

    def getstate(self):
        return self._rng.getstate()


@pytest.mark.parametrize("n", [1, 2, 5, 21, 22, 23, 96, 256, 1024])
def test_random_rows_match_reference_candidates(n):
    windows = {(0, n), (n, n), (1, min(n, 5)), (n // 4, n - n // 4)}
    for seed, (kmin, kmax) in enumerate(sorted(windows)):
        for ours, ref in ((random.Random(seed), random.Random(seed)), (_TiedWords(seed), _TiedWords(seed))):
            rows = _random_rows(ours.getrandbits, n, kmin, kmax, 50)
            assert rows.shape == (50, n)
            for row in rows:
                members = reference_random_candidate(ref, n, kmin, kmax)
                assert kmin <= len(members) <= kmax
                assert row.nonzero()[0].tolist() == sorted(members)
            assert ours.getstate() == ref.getstate()


def test_random_rows_are_uniform_in_size_and_members():
    n, kmin, kmax, count = 8, 2, 6, 20_000
    rows = _random_rows(random.Random(2024).getrandbits, n, kmin, kmax, count)
    sizes = rows.sum(axis=1)
    share = count / (kmax - kmin + 1)
    for k in range(kmin, kmax + 1):
        assert abs((sizes == k).sum() - share) <= 0.15 * share
    freq = rows.sum(axis=0)
    assert (abs(freq - freq.mean()) <= 0.05 * freq.mean()).all()


def _seeded_graph(rng, n):
    kind = rng.choice(["gnp", "components", "path"])
    if kind == "gnp":
        p = rng.random()
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    if kind == "path":
        return Graph(n, [(i, i + 1) for i in range(n - 1) if rng.random() < 0.95])
    edges, start = [], 0
    while start < n:
        block = range(start, min(n, start + rng.randint(1, max(1, n // 4))))
        p = rng.random()
        edges += [(u, v) for u in block for v in block if u < v and rng.random() < p]
        start = block.stop
    perm = rng.sample(range(n), n)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@pytest.mark.parametrize("seed", range(40))
def test_mc_matches_reference_refuter_seeded(seed):
    rng = random.Random(seed)
    n = rng.choice([0, 1, 2, 3, 9]) if seed < 5 else rng.randint(23, 96)
    g = _seeded_graph(rng, n)
    params = RobustParams(Fraction(rng.randint(1, 16), 128), Fraction(rng.randint(5, 15), 32))
    samples = rng.choice([1, 63, 64, 65, 200])
    expected = reference_refute_mc(g, params, samples, seed)
    assert _verdict_tuple(refute_robust_expander_mc(g, params, samples, seed)) == _verdict_tuple(expected)


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


def test_params_from_floats_read_as_decimals():
    p = min_degree_implies_expander_params(0.1, 0.2)
    assert p == RobustParams(Fraction(1, 100), Fraction(1, 5))


def test_params_domain_error():
    with pytest.raises(InputError):
        min_degree_implies_expander_params(Fraction(1, 2), Fraction(1, 4))


# ---------------------------------------------------------------------------
# Orientation
# ---------------------------------------------------------------------------

def _out_in_degrees(g, out):
    """Per vertex (out-degree, in-degree) of the orientation whose
    out-rows are ``out``, counted arc by arc."""
    arcs = [(v, w) for v, row in enumerate(out) for w in iter_bits(row)]
    return [(sum(a == v for a, _ in arcs), sum(b == v for _, b in arcs)) for v in range(g.n)]


def test_orientation_c4_balanced():
    g = cycle_graph(4)
    assert _out_in_degrees(g, eulerian_orientation(g)) == [(1, 1)] * 4


def test_orientation_k5_exactly_half():
    g = complete_graph(5)
    assert _out_in_degrees(g, eulerian_orientation(g)) == [(2, 2)] * 5


def test_orientation_path_endpoints():
    g = Graph(3, [(0, 1), (1, 2)])
    degs = _out_in_degrees(g, eulerian_orientation(g))
    assert degs[1] == (1, 1)
    for v in (0, 2):
        assert abs(degs[v][0] - degs[v][1]) == 1


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12))
def test_orientation_balance_and_arc_count(g):
    out = eulerian_orientation(g)
    # each edge oriented exactly one way: the out-rows and their
    # transpose partition the adjacency rows
    for v in range(g.n):
        assert not out[v] & ~g.adj[v]
        for w in iter_bits(g.adj[v]):
            assert (out[v] >> w & 1) != (out[w] >> v & 1)
    assert sum(map(int.bit_count, out)) == g.m
    for v, (o, i) in enumerate(_out_in_degrees(g, out)):
        gap = abs(o - i)
        assert gap <= 1
        if g.degree(v) % 2 == 0:
            assert gap == 0


# ---------------------------------------------------------------------------
# Against the definition
# ---------------------------------------------------------------------------

def test_expander_matches_definition_on_seeded_gnp():
    params = RobustParams(Fraction(1, 8), Fraction(1, 4))
    outcomes = set()
    for seed in range(16):
        g = random_graph(8 + seed % 3, (0.3, 0.5, 0.7)[seed % 3], seed)
        want = brute_first_non_expanding_set(g, params.nu, params.tau)
        got = is_robust_expander_exact(g, params)
        assert (got.certified, got.witness) == (want is None, want)
        outcomes.add(want is None)
    assert outcomes == {True, False}


def _dense_below_16(n, seed):
    """G(n, 0.7) on the vertices below 16, each pair touching a vertex
    >= 16 kept with probability 0.1."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [(u, v) for u, v in pairs if rng.random() < (0.7 if v < 16 else 0.1)])


@pytest.mark.parametrize("n, seed", [(17, 3), (18, 1)])
def test_first_witness_across_the_16_bit_chunk_split(n, seed):
    # the first violating set lies in the second 2^16-mask chunk, where
    # the high bits are fixed and the low 16 bits come from the table
    params = RobustParams(Fraction(1, 6), Fraction(1, 4))
    g = _dense_below_16(n, seed)
    got = is_robust_expander_exact(g, params)
    want = brute_first_non_expanding_set(g, params.nu, params.tau)
    assert max(want) >= 16
    assert got.witness == want and not got.certified
    # samples counts the window-sized masks of every whole chunk up to
    # and including the witness's
    kmin, kmax = -(-n // 4), 3 * n // 4
    chunk = mask_of(want, n) >> 16
    assert got.samples == sum(
        comb(16, s) for high in range(chunk + 1) for s in range(17)
        if kmin <= s + high.bit_count() <= kmax)


# ---------------------------------------------------------------------------
# Supergraph monotonicity
# ---------------------------------------------------------------------------

def test_disjoint_union_preserves_certification():
    from hampack.construct import circulant_regular

    g = circulant_regular(12, 6)
    parts = petersen_two_factorization(g)
    params = RobustParams(Fraction(1, 30), Fraction(1, 3))
    h = [a | b for a, b in zip(parts[0].subgraph.rows, parts[1].subgraph.rows)]
    if is_robust_expander_exact(Graph.from_adj(h), params).certified:
        hh = [a | b for a, b in zip(h, parts[2].subgraph.rows)]
        assert is_robust_expander_exact(Graph.from_adj(hh), params).certified


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
    rn = robust_neighbourhood(soup, v.witness, params.nu)
    assert Fraction(len(rn)) < len(v.witness) + params.nu * soup.n
