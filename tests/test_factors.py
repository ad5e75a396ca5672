import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from oracles import brute_has_r_factor, first_structured_violation

from hampack.core import Graph, iter_bits, union_edge_disjoint
from hampack.construct import (
    babai_graph,
    circulant_regular,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    extremal_graph,
    random_graph,
)
from hampack.edgelist import read_edge_list
from hampack.errors import CapacityError, ExistenceError, InputError
from hampack.factors import (
    _build_gadget,
    _ge_pair,
    _seed_mate,
    _structured_violation,
    extract_r_factor,
    largest_even_factor,
    dense_factor_degree,
    max_matching,
    petersen_two_factorization,
    r_factor_exists,
    reg_even_of_graph,
    regeven_bounds,
    tutte_quantities,
    tutte_verify_exhaustive,
)
from hampack.matching import _Matcher, matching_size


# ---------------------------------------------------------------------------
# Tutte quantities
# ---------------------------------------------------------------------------

def test_quantities_k4_r1_empty_pair():
    cert = tutte_quantities(complete_graph(4), 1, [], [])
    assert (cert.q_r, cert.r_r) == (0, 0)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=9), st.integers(0, 4))
def test_empty_pair_vanishes_for_even_r(g, half_r):
    cert = tutte_quantities(g, 2 * half_r, [], [])
    assert (cert.q_r, cert.r_r) == (0, 0)


def test_quantities_c5_hand_value():
    cert = tutte_quantities(cycle_graph(5), 2, [0], [1])
    assert cert.r_r == 2 - 1 + 0
    assert cert.q_r == 1  # path 2-3-4: 2*3 + e(C,{1}) = 7, odd


def test_quantities_rejects_overlap():
    with pytest.raises(InputError):
        tutte_quantities(complete_graph(4), 1, [0], [0, 1])


def test_negative_r_r_not_clamped():
    cert = tutte_quantities(babai_graph(2), 4, range(4), range(4, 10))
    assert cert.r_r == -2
    assert cert.violates


# ---------------------------------------------------------------------------
# Existence pipeline vs oracles
# ---------------------------------------------------------------------------

def test_k5_has_four_factor():
    decision = r_factor_exists(complete_graph(5), 4)
    assert decision.exists
    decision.factor.validate(complete_graph(5))


def test_c6_has_one_factor():
    assert r_factor_exists(cycle_graph(6), 1).exists


def test_babai2_four_factor_refuted_with_certificate():
    g = babai_graph(2)
    decision = r_factor_exists(g, 4)
    assert not decision.exists
    cert = decision.certificate
    assert cert is not None and cert.violates
    redo = tutte_quantities(g, 4, cert.s, cert.t)
    assert (redo.q_r, redo.r_r) == (cert.q_r, cert.r_r)
    assert not brute_has_r_factor(g, 4)


def test_parity_gate_notes_instead_of_certificate():
    decision = r_factor_exists(complete_graph(5), 1)  # r*n odd
    assert not decision.exists
    assert decision.certificate is None
    assert "odd" in decision.note


def test_r_out_of_range():
    with pytest.raises(InputError):
        r_factor_exists(complete_graph(4), 4)
    with pytest.raises(InputError):
        r_factor_exists(complete_graph(4), -1)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=8), st.data())
def test_existence_matches_brute_force_with_valid_witnesses(g, data):
    if g.n == 0:
        return
    r = data.draw(st.integers(0, g.n - 1))
    decision = r_factor_exists(g, r)
    expected = (r * g.n) % 2 == 0 and brute_has_r_factor(g, r)
    assert decision.exists == expected
    if decision.exists:
        decision.factor.validate(g)
        assert all(d == r for d in decision.factor.subgraph.degrees())
    elif decision.certificate is not None:
        redo = tutte_quantities(g, r, decision.certificate.s, decision.certificate.t)
        assert redo.violates


# ---------------------------------------------------------------------------
# Exhaustive Tutte verification
# ---------------------------------------------------------------------------

def test_k4_r3_all_pairs_hold():
    assert tutte_verify_exhaustive(complete_graph(4), 3)


def test_k4_minus_edge_r3_fails():
    g = Graph(4, [e for e in complete_graph(4).edges() if e != (0, 1)])
    assert not tutte_verify_exhaustive(g, 3)


def test_exhaustive_capacity():
    with pytest.raises(CapacityError):
        tutte_verify_exhaustive(complete_graph(15), 2)


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=6), st.data())
def test_exhaustive_agrees_with_existence(g, data):
    if g.n == 0:
        return
    r = data.draw(st.integers(0, g.n - 1))
    if (r * g.n) % 2:
        return
    assert tutte_verify_exhaustive(g, r) == r_factor_exists(g, r).exists


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def test_extract_two_factor_of_k5():
    f = extract_r_factor(complete_graph(5), 2)
    assert f.subgraph.degrees() == [2] * 5


def test_extract_c6_two_factor_is_itself():
    f = extract_r_factor(cycle_graph(6), 2)
    assert f.subgraph.edges == cycle_graph(6).edge_set()


def test_extract_extremal_16_9_iff_exists():
    g, _, _ = extremal_graph(16, 9)
    decision = r_factor_exists(g, 8)
    if decision.exists:
        f = extract_r_factor(g, 8)
        assert all(d == 8 for d in f.subgraph.degrees())
    else:
        with pytest.raises(ExistenceError) as err:
            extract_r_factor(g, 8)
        assert err.value.certificate is not None


def test_extract_missing_factor_raises_with_certificate():
    with pytest.raises(ExistenceError) as err:
        extract_r_factor(babai_graph(2), 4)
    assert err.value.certificate.violates


# ---------------------------------------------------------------------------
# Largest even factor
# ---------------------------------------------------------------------------

def test_reg_even_examples():
    assert reg_even_of_graph(complete_graph(5)) == 4
    assert reg_even_of_graph(babai_graph(2)) == 2
    assert reg_even_of_graph(complete_bipartite(12)) == 6


def test_largest_even_factor_returns_witness():
    r, factor = largest_even_factor(babai_graph(2))
    assert r == 2
    factor.validate(babai_graph(2))


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=7))
def test_reg_even_matches_brute_force(g):
    expected = 0
    for r in range(g.n - 1 if g.n else 0, 0, -1):
        if r % 2 == 0 and brute_has_r_factor(g, r):
            expected = r
            break
    assert reg_even_of_graph(g) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_bound_sandwich_on_dirac_graphs(seed):
    g = random_graph(9, 0.8, seed)
    if 2 * g.min_degree() < g.n:
        return
    b = regeven_bounds(g.n, g.min_degree())
    assert reg_even_of_graph(g) >= b.lower


# ---------------------------------------------------------------------------
# Bounds evaluator
# ---------------------------------------------------------------------------

def test_bounds_8_4():
    b = regeven_bounds(8, 4)
    assert b.lower == 2
    assert b.upper == Fraction(3)


def test_bounds_16_8_matches_quarter():
    assert regeven_bounds(16, 8).lower == 4


def test_bounds_10_5():
    b = regeven_bounds(10, 5)
    assert b.lower == 2
    assert b.upper == Fraction(7, 2)


def test_bounds_below_half_are_zero():
    b = regeven_bounds(10, 4)
    assert (b.lower, b.upper) == (0, 0)
    assert b.note


def test_bounds_grid_invariants():
    for n in range(4, 40):
        for delta in range((n + 1) // 2, n):
            b = regeven_bounds(n, delta)
            assert b.lower % 2 == 0
            assert b.admits(b.lower)
            assert not b.admits(b.lower + 40)


# ---------------------------------------------------------------------------
# Two-factor splitting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "g,count",
    [
        (complete_graph(5), 2),
        (cycle_graph(8), 1),
        (circulant_regular(9, 4), 2),
        (circulant_regular(12, 6), 3),
    ],
)
def test_two_factorization_partitions_edges(g, count):
    factors = petersen_two_factorization(g)
    assert len(factors) == count
    union = None
    for f in factors:
        assert all(d == 2 for d in f.subgraph.degrees())
        union = f.subgraph if union is None else union_edge_disjoint(union, f.subgraph)
    assert union.edges == g.edge_set()


def test_two_factorization_rejects_bad_inputs():
    with pytest.raises(InputError):
        petersen_two_factorization(complete_graph(4))  # odd-regular
    with pytest.raises(InputError):
        petersen_two_factorization(babai_graph(1))  # irregular


# ---------------------------------------------------------------------------
# Even-degree formula
# ---------------------------------------------------------------------------

def test_dense_factor_degree_zero_terms():
    assert dense_factor_degree(16, 0, 0)[0] == 4
    assert dense_factor_degree(10, 0, 0)[0] == 2  # 2.5 rounds down to even


def test_dense_factor_degree_worked_example():
    r, value = dense_factor_degree(64, Fraction(1, 16), Fraction(1, 64))
    assert r == 30
    assert abs(float(value) - 31.149) < 0.001


def test_dense_factor_degree_monotone_in_alpha():
    values = [
        dense_factor_degree(48, Fraction(k, 96), Fraction(1, 96))[0] for k in range(0, 40)
    ]
    assert values == sorted(values)


def test_dense_factor_degree_domain():
    with pytest.raises(InputError):
        dense_factor_degree(16, Fraction(-1, 4), Fraction(1, 8))


# ---------------------------------------------------------------------------
# Matching front end (detail cases live in test_matching.py)
# ---------------------------------------------------------------------------

def test_max_matching_on_factor_host():
    m = max_matching(complete_bipartite(8))
    assert m.size == 4


def test_unbalanced_bipartite_has_no_even_factor():
    # spanning r-regular needs 5r = 7r across the two sides, so r = 0:
    # the almost-balanced bipartite graph pins reg_even below half degree
    g = Graph(12, [(u, 5 + v) for u in range(5) for v in range(7)])
    assert g.min_degree() == 5
    assert reg_even_of_graph(g) == 0


# ---------------------------------------------------------------------------
# Seeded blossom arbiter: the Gallai-Edmonds cut does not depend on the seed
# ---------------------------------------------------------------------------

_HARD_NEGATIVES = [(s, 1) for s in (114, 160, 168, 244, 264, 299, 312)] + [(337, 2)]


def _seed_invariance_inputs(count: int = 200):
    """The fixed hard negatives, then seeded sparse G(n, p) with
    n = 15..40 that pass the degree and parity gates for r."""
    for s, r in _HARD_NEGATIVES:
        yield random_graph(16, 0.15, s), r
    rng = random.Random(41)
    while count:
        n, r = rng.randint(15, 40), rng.choice((1, 2))
        g = random_graph(n, rng.uniform(0.06, 0.2), rng.getrandbits(32))
        if g.min_degree() >= r and (r * n) % 2 == 0:
            count -= 1
            yield g, r


def test_seed_leaves_gallai_edmonds_pair_unchanged():
    negatives = 0
    for g, r in _seed_invariance_inputs():
        gadget = _build_gadget(g, r)
        plain = _Matcher(gadget.size, gadget.adj)
        seeded = _Matcher(gadget.size, gadget.adj, _seed_mate(g, r, gadget))
        size = matching_size(plain.solve())
        assert matching_size(seeded.solve()) == size
        if 2 * size == gadget.size:
            continue
        negatives += 1
        assert plain.outer_vertices() == seeded.outer_vertices()
        smask, tmask = _ge_pair(g, gadget, plain)
        assert (smask, tmask) == _ge_pair(g, gadget, seeded)
        # the barrier pair is exact: Q_r - R_r is the gadget's deficiency
        cert = tutte_quantities(g, r, iter_bits(smask), iter_bits(tmask))
        assert cert.q_r - cert.r_r == gadget.size - 2 * size
    assert negatives > len(_HARD_NEGATIVES)


@pytest.mark.parametrize("seed, r", [(244, 1), (337, 2)])
def test_former_certificate_fault_gets_exact_pair(seed, r):
    # the structured pairs miss here, so the pair comes off the barrier
    g = random_graph(16, 0.15, seed)
    decision = r_factor_exists(g, r)
    assert decision.exists is False and decision.certificate is not None
    cert = decision.certificate
    redo = tutte_quantities(g, r, cert.s, cert.t)
    assert redo.violates and (redo.q_r, redo.r_r) == (cert.q_r, cert.r_r)


# ---------------------------------------------------------------------------
# The pruned structured pass against the full pair list
# ---------------------------------------------------------------------------

FIXED_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "fixed"


def _side_by_side(a: Graph, b: Graph, shared: int) -> Graph:
    """a and b on consecutive labels, with the last ``shared`` (0 or 1)
    vertex of a identified with vertex 0 of b."""
    off = a.n - shared
    return Graph(off + b.n, a.edges() + [(u + off, v + off) for u, v in b.edges()])


def _hub(blob: Graph, copies: int) -> Graph:
    """A new vertex 0 joined by one edge to vertex 0 of each copy of blob."""
    edges = []
    for i in range(copies):
        off = 1 + i * blob.n
        edges.append((0, off))
        edges += [(u + off, v + off) for u, v in blob.edges()]
    return Graph(1 + copies * blob.n, edges)


def _join(a: Graph, b: Graph) -> Graph:
    """a and b side by side, with every edge between them."""
    edges = _side_by_side(a, b, 0).edges()
    return Graph(a.n + b.n, edges + [(u, a.n + v) for u in range(a.n) for v in range(b.n)])


def _structured_inputs():
    """Seeded G(n, p) for n = 2..30, two of them side by side (a
    disconnected graph) and sharing a vertex (a cut vertex), graphs
    built around a known violating pair, and the fixed hard negatives."""
    rng = random.Random(20261018)
    for n in range(2, 31):
        for p in (0.15, 0.3, 0.6, 0.9):
            yield random_graph(n, p, rng.getrandbits(32))
        a = random_graph(rng.randint(2, 15), rng.uniform(0.3, 1), rng.getrandbits(32))
        b = random_graph(rng.randint(2, 15), rng.uniform(0.3, 1), rng.getrandbits(32))
        yield _side_by_side(a, b, 0)
        yield _side_by_side(a, b, 1)
    yield _hub(complete_graph(4), 3)
    yield _hub(complete_graph(3), 3)
    triangles = Graph(0)
    for _ in range(6):
        triangles = _side_by_side(triangles, complete_graph(3), 0)
    yield _join(Graph(2), triangles)
    for path in sorted(FIXED_INPUTS.glob("*.txt")):
        yield read_edge_list(path)


def _pair_kind(pair: tuple[int, int]) -> str:
    smask, tmask = pair
    if smask == 0:
        return "(0, {v})" if tmask else "(0, 0)"
    if tmask:
        return "(S, V - S)"
    return "({v}, 0)" if smask.bit_count() == 1 else "(S, 0)"


def test_pruned_structured_pass_matches_full_pair_list():
    assert len(list(FIXED_INPUTS.glob("*.txt"))) == 8
    kinds = set()
    for g in _structured_inputs():
        degs = g.degrees()
        for r in range(1, 7):
            # the gates that run before the structured pass
            if r > min(degs) or (r * g.n) % 2 or all(d == r for d in degs):
                continue
            hit = _structured_violation(g, r)
            assert hit == first_structured_violation(g, r)
            if hit is not None:
                kinds.add(_pair_kind(hit))
    assert kinds == {"(0, 0)", "(0, {v})", "({v}, 0)", "(S, V - S)", "(S, 0)"}

