import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from oracles import (
    arc_list_balanced_subdigraph,
    brute_balanced_min_cut,
    brute_has_r_factor,
    first_structured_violation,
    reference_balanced_subdigraph,
    reference_decide,
    reference_gadget,
    reference_gadget_decision,
    reference_orientation_arcs,
    reference_orientation_walk,
    regeven_upper_admits,
    sum_form_regeven_upper,
)

from hampack.core import EdgeSubgraph, Graph, iter_bits
from hampack.construct import (
    babai_graph,
    circulant_regular,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    extremal_graph,
    random_graph,
)
from hampack.edgelist import format_rows, read_edge_list
from hampack.errors import CapacityError, InputError, InternalError
from hampack import factors
from hampack.factors import (
    _balanced_subdigraph,
    _build_gadget,
    _decide_by_gadget,
    _factor_via_orientation,
    _ge_pair,
    _seed_mate,
    _structured_violation,
    _sweep,
    largest_even_factor,
    petersen_two_factorization,
    r_factor_exists,
    reg_even_of_graph,
    regeven_bounds,
    tutte_quantities,
    tutte_verify_exhaustive,
)
from hampack.matching import _Matcher, maximum_matching
from hampack.orientation import balanced_orientation_arcs


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
    f = r_factor_exists(complete_graph(5), 2).factor
    assert f.subgraph.degrees() == [2] * 5


def test_extract_c6_two_factor_is_itself():
    f = r_factor_exists(cycle_graph(6), 2).factor
    assert f.subgraph.edges == frozenset(cycle_graph(6).edges())


def test_extract_extremal_16_9_iff_exists():
    g, _, _ = extremal_graph(16, 9)
    decision = r_factor_exists(g, 8)
    if decision.exists:
        assert all(d == 8 for d in decision.factor.subgraph.degrees())
    else:
        assert decision.factor is None and decision.certificate.violates


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


# Faults injected into C6's own rows as a 2-factor: the (row, bit) pairs
# flipped, and the audit's message
FACTOR_FAULTS = {
    "non-edge": ([(0, 3), (3, 0)], "factor edge (0,3) absent from host"),
    "bit >= n": ([(2, 6)], "factor edge (2,6) absent from host"),
    "loop": ([(4, 4)], "factor edge (4,4) absent from host"),
    "one-sided bit": ([(3, 0)], "factor edge (0,3) absent from host"),
    "degree off by one": ([(0, 1), (1, 0)], "factor degrees [1, 2] != 2"),
}


@pytest.mark.parametrize("fault", sorted(FACTOR_FAULTS))
def test_factor_audit_rejects_injected_faults(fault):
    flips, message = FACTOR_FAULTS[fault]
    host = cycle_graph(6)
    factors.Factor(EdgeSubgraph.from_host_edges(6, (), host.adj), 2).validate(host)
    rows = list(host.adj)
    for u, v in flips:
        rows[u] ^= 1 << v
    with pytest.raises(InternalError) as err:
        factors.Factor(EdgeSubgraph.from_host_edges(6, (), rows), 2).validate(host)
    assert str(err.value) == message


@pytest.mark.parametrize("n,size", [(7, 7), (6, 5), (6, 7), (5, 6)])
def test_factor_audit_rejects_a_wrong_vertex_count(n, size):
    host = cycle_graph(6)
    sub = EdgeSubgraph.from_host_edges(n, (), (list(host.adj) + [0])[:size])
    with pytest.raises(InternalError, match="^factor lives on a different vertex set$"):
        factors.Factor(sub, 2).validate(host)


def test_factor_audit_rejects_a_wrong_degree_on_a_complete_host():
    host = complete_graph(5)
    rows = list(EdgeSubgraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]).rows)
    with pytest.raises(InternalError, match=r"factor degrees \[2, 3\] != 2"):
        factors.Factor(EdgeSubgraph.from_host_edges(5, (), rows), 2).validate(host)


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
            assert regeven_upper_admits(n, delta, b.lower)
            assert not regeven_upper_admits(n, delta, b.lower + 40)


def test_bounds_upper_is_the_sum_form():
    # one Fraction over one denominator, the same rational as the sum
    for n in range(8, 200):
        for delta in range(n):
            assert regeven_bounds(n, delta).upper == sum_form_regeven_upper(n, delta), (n, delta)


# ---------------------------------------------------------------------------
# The b-matching of the even fast path and of the 2-factor peel
# ---------------------------------------------------------------------------

def _arcs_of(g, out):
    """The arcs of the out-rows ``out`` in ``g.edges()`` order, after
    checking that they orient every edge of g exactly one way."""
    assert all(o & ~a == 0 for o, a in zip(out, g.adj))
    arcs = []
    for u, v in g.edges():
        assert (out[u] >> v & 1) != (out[v] >> u & 1)
        arcs.append((u, v) if out[u] >> v & 1 else (v, u))
    return arcs


def _out_rows(n, arcs):
    out = [0] * n
    for u, v in arcs:
        out[u] |= 1 << v
    return out


def _picked_rows(n, arcs, picked):
    """The symmetric rows of the arcs ``arcs[i]``, i in ``picked``."""
    rows = [0] * n
    for i in picked:
        u, v = arcs[i]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _greedy_start(n, arcs, half, order):
    """The rows (chosen, fed) of the arcs ``arcs[i]``, i in ``order``,
    each taken while its tail and its head have room."""
    chosen, fed = [0] * n, [0] * n
    for i in order:
        u, v = arcs[i]
        if chosen[u].bit_count() < half and fed[v].bit_count() < half:
            chosen[u] |= 1 << v
            fed[v] |= 1 << u
    return chosen, fed


def _walk_order(arcs, walk):
    """The indices into ``arcs`` of the arcs of ``walk``, in its order."""
    index = {a: i for i, a in enumerate(arcs)}
    return [index[a] for a in walk]


def _flipped(g, out, rng):
    """``out`` with each edge of g reversed with probability 1/2."""
    out = list(out)
    for u, v in g.edges():
        if rng.random() < 0.5:
            out[u] ^= 1 << v
            out[v] ^= 1 << u
    return out


def _assert_selection(g, out, half, sel):
    """Symmetric rows of edges of g with every in- and out-degree at
    most ``half`` in the orientation ``out``."""
    assert all(s & ~a == 0 for s, a in zip(sel, g.adj))
    assert all(sel[v] >> u & 1 for u in range(g.n) for v in iter_bits(sel[u]))
    outs = [(s & o).bit_count() for s, o in zip(sel, out)]
    into = [(s & ~o).bit_count() for s, o in zip(sel, out)]
    assert max(outs + into, default=0) <= half
    return outs, into


def _assert_full_selection(g, out, half, sel):
    outs, into = _assert_selection(g, out, half, sel)
    assert outs == [half] * g.n and into == [half] * g.n


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10), st.data())
def test_balanced_subdigraph_matches_min_cut_oracle(g, data):
    # a wrong None would go unseen elsewhere: the blossom decides after it.
    # The phases start from the walk's greedy arcs, or from nothing on a
    # random flip of the orientation
    flips = None
    if not data.draw(st.booleans()):
        flips = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    for half in range(max(g.degrees(), default=0) + 2):
        out, chosen, fed = balanced_orientation_arcs(g, half)
        if flips is not None:
            chosen, fed = [0] * g.n, [0] * g.n
            for (u, v), f in zip(g.edges(), flips):
                if f:
                    out[u] ^= 1 << v
                    out[v] ^= 1 << u
        sel = _balanced_subdigraph(g.adj, out, half, chosen, fed)
        _assert_selection(g, out, half, sel)
        size = sum(map(int.bit_count, sel)) // 2
        cut = brute_balanced_min_cut(g.n, _arcs_of(g, out), half)
        assert (size == g.n * half) == (cut == g.n * half)
        if g.n <= 8:
            assert size == cut  # the selection is maximum


def test_balanced_subdigraph_long_augmenting_path():
    # Tails t_i = i and heads h_j = 2k - 1 - j, with the arcs t_i -> h_{i+1}
    # and t_i -> h_{i-1}.  From a cold start the first phase takes every
    # t_i -> h_{i+1}, its lower head, so tail t_{k-1} is left short and its
    # one augmenting path alternates through every other tail down to h_0.
    # The heads have no out-arcs, so the selection stops at k arcs, every
    # tail full.
    k = 512
    n = 2 * k
    arcs = [(i, 2 * k - 1 - j) for i in range(k) for j in (i - 1, i + 1) if 0 <= j < k]
    g, out = Graph(n, arcs), _out_rows(n, arcs)
    sel = _balanced_subdigraph(g.adj, out, 1, [0] * n, [0] * n)
    outs, _ = _assert_selection(g, out, 1, sel)
    assert outs == [1] * k + [0] * k
    assert sel == _picked_rows(n, _arcs_of(g, out), arc_list_balanced_subdigraph(n, _arcs_of(g, out), 1))


def _seeded_graphs(sizes, densities, seeds):
    for n in sizes:
        for p in densities:
            for seed in seeds:
                yield random_graph(n, p, 1000 * n + seed)


def test_orientation_matches_reference_arcs():
    # sparse draws give odd degrees, isolated vertices and many components
    for g in _seeded_graphs(range(65), (0.03, 0.1, 0.3, 0.5, 0.9), range(2)):
        assert _arcs_of(g, balanced_orientation_arcs(g, 0)[0]) == reference_orientation_arcs(g), g


def test_walk_selection_is_the_greedy_in_walk_order():
    # the orientation does not depend on half; the selection is the
    # arcs taken greedily in the order the closed trails walk them
    for g in _seeded_graphs(range(0, 65, 8), (0.1, 0.5, 0.9), range(2)):
        arcs = reference_orientation_arcs(g)
        order = _walk_order(arcs, reference_orientation_walk(g))
        euler = _out_rows(g.n, arcs)
        for half in range(max(g.degrees(), default=0) // 2 + 2):
            out, chosen, fed = balanced_orientation_arcs(g, half)
            assert out == euler
            assert (chosen, fed) == _greedy_start(g.n, arcs, half, order)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12), st.integers(0, 7))
def test_walk_selection_is_a_maximal_sub_selection(g, half):
    out, chosen, fed = balanced_orientation_arcs(g, half)
    for v, (row, o) in enumerate(zip(g.adj, out)):
        assert o & ~row == 0 and abs(2 * o.bit_count() - row.bit_count()) <= 1
    # valid: arcs of the orientation, fed the transpose of chosen, degrees <= half
    assert all(c & ~o == 0 for c, o in zip(chosen, out))
    assert fed == [sum(1 << u for u in range(g.n) if chosen[u] >> v & 1) for v in range(g.n)]
    outs = [c.bit_count() for c in chosen]
    ins = [f.bit_count() for f in fed]
    assert max(outs + ins, default=0) <= half
    # maximal: every arc left out has a full tail or a full head
    for u in range(g.n):
        for v in iter_bits(out[u] & ~chosen[u]):
            assert outs[u] == half or ins[v] == half


def test_balanced_subdigraph_matches_reference_verdict():
    # the rows selection is the arc-list oracle's arc for arc, from the
    # walk's greedy on Euler orientations and from a cold start on random
    # flips, for every half up to Delta/2 + 1
    nones = fulls = 0
    for g in _seeded_graphs(range(0, 65, 4), (0.2, 0.5, 0.8), range(2)):
        rng = random.Random(g.m)
        euler = balanced_orientation_arcs(g, 0)[0]
        flipped = _flipped(g, euler, rng)
        order = _walk_order(_arcs_of(g, euler), reference_orientation_walk(g))
        for half in range(max(g.degrees(), default=0) // 2 + 2):
            walked = balanced_orientation_arcs(g, half)
            for out, chosen, fed, greedy in (
                (*walked, order), (flipped, [0] * g.n, [0] * g.n, ()),
            ):
                arcs = _arcs_of(g, out)
                sel = _balanced_subdigraph(g.adj, out, half, chosen, fed)
                assert sel == _picked_rows(g.n, arcs, arc_list_balanced_subdigraph(g.n, arcs, half, greedy))
                short = sum(map(int.bit_count, sel)) < 2 * g.n * half
                assert short == (reference_balanced_subdigraph(g.n, arcs, half) is None)
                if short:
                    nones += 1
                else:
                    fulls += 1
                    _assert_full_selection(g, out, half, sel)
    assert nones >= 50 and fulls >= 50


def test_balanced_subdigraph_retries_the_arc_of_a_dead_tail():
    # K6 less the edges 14 and 35.  The greedy start, in edge order,
    # leaves tail 5 one arc short and head 4 with room.  Tail 5's only
    # unchosen arc 5 -> 0 reaches head 0, which is full and fed by the
    # chosen arcs 1 -> 0 and 2 -> 0, in ascending tail order.  Tail 1 has
    # no unchosen arc, so it dies; the arc 5 -> 0 must be tried again to
    # reach tail 2, whose arc 2 -> 4 ends the path at head 4.
    arcs = [(0, 3), (0, 4), (1, 0), (1, 5), (2, 0), (2, 1), (2, 4),
            (3, 1), (3, 2), (4, 3), (4, 5), (5, 0), (5, 2)]
    g, out = Graph(6, arcs), _out_rows(6, arcs)
    edge_arcs = _arcs_of(g, out)
    chosen, fed = _greedy_start(6, edge_arcs, 2, range(len(edge_arcs)))
    assert chosen[5].bit_count() == 1 and fed[4].bit_count() < 2
    sel = _balanced_subdigraph(g.adj, out, 2, chosen, fed)
    _assert_full_selection(g, out, 2, sel)
    assert Graph.from_adj(sel).edges() == [e for e in g.edges() if e != (0, 2)]


def test_largest_even_factor_at_n512():
    g = random_graph(512, 0.5, 1)
    r, factor = largest_even_factor(g)
    assert r == 222 and factor.r == 222
    factor.validate(g)


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
    union = [0] * g.n
    for f in factors:
        assert all(d == 2 for d in f.subgraph.degrees())
        assert not any(a & b for a, b in zip(union, f.subgraph.rows))
        union = [a | b for a, b in zip(union, f.subgraph.rows)]
    assert tuple(union) == g.adj


def test_two_factorization_pinned_digest():
    # the 20-factor of a seeded G(64, 1/2): most peels run Hopcroft-Karp phases
    h = r_factor_exists(random_graph(64, 0.5, 1), 20).factor.subgraph.to_graph()
    parts = petersen_two_factorization(h)
    text = "".join(format_rows(h.n, f.subgraph.rows) for f in parts)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b97013ab17e23cdffb6aa35d0ea2978825e71a1e75ad8bf11821fca14404c507")


def test_two_factorization_rejects_bad_inputs():
    with pytest.raises(InputError):
        petersen_two_factorization(complete_graph(4))  # odd-regular
    with pytest.raises(InputError):
        petersen_two_factorization(babai_graph(1))  # irregular


# ---------------------------------------------------------------------------
# Matching front end (detail cases live in test_matching.py)
# ---------------------------------------------------------------------------

def test_max_matching_on_factor_host():
    g = complete_bipartite(8)
    mate = maximum_matching(g.n, g.adj)
    assert sum(u > v for v, u in enumerate(mate)) == 4


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
        plain = _Matcher(gadget.size, gadget.rows, heads=gadget.partner)
        seeded = _Matcher(gadget.size, gadget.rows, _seed_mate(g, r, gadget), gadget.partner)
        size = sum(u > v for v, u in enumerate(plain.solve()))
        assert sum(u > v for v, u in enumerate(seeded.solve())) == size
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
# The implicit-core gadget against the explicit one, past the n <= 14 zone
# ---------------------------------------------------------------------------

def _rows_as_read(gadget):
    """Each gadget vertex's neighbours in the matcher's scan order."""
    return [([p] if p >= 0 else []) + list(row) for p, row in zip(gadget.partner, gadget.rows)]


def _program_seed_edges(g, r):
    """The host edges whose two stubs ``_seed_mate`` matches to each other."""
    gadget = _build_gadget(g, r)
    mate = _seed_mate(g, r, gadget)
    return [ei for ei, (a, b) in enumerate(gadget.edge_stubs) if mate[a] == b]


def _agrees_with_explicit_oracle(g, r) -> bool:
    """Check the gadget's rows, verdict, factor edges and Tutte pair
    against the explicit gadget run through the matcher; True on a no."""
    assert _rows_as_read(_build_gadget(g, r)) == reference_gadget(g, r)[0]
    edges, pair = reference_gadget_decision(g, r, _program_seed_edges(g, r))
    decision = _decide_by_gadget(g, r)
    assert decision.exists == (edges is not None) == r_factor_exists(g, r).exists
    if decision.exists:
        assert decision.factor.subgraph.edges == frozenset(edges)
    else:
        assert (decision.certificate.s, decision.certificate.t) == pair
    return not decision.exists


@settings(max_examples=60, deadline=None)
@given(st.integers(15, 40), st.sampled_from((0.1, 0.15, 0.2, 0.35, 0.5, 0.7)),
       st.integers(0, 2**32 - 1))
def test_gadget_matches_explicit_oracle(n, p, seed):
    # every admissible r: 1 <= r <= delta with rn even
    g = random_graph(n, p, seed)
    step = 1 + n % 2
    for r in range(step, g.min_degree() + 1, step):
        _agrees_with_explicit_oracle(g, r)


def test_gadget_certificates_match_explicit_oracle():
    negatives = sum(_agrees_with_explicit_oracle(g, r) for g, r in _seed_invariance_inputs())
    assert negatives > len(_HARD_NEGATIVES)


def test_gadget_memory_is_linear_in_the_host():
    g = random_graph(256, 0.5, 1)
    n, m, r = g.n, g.m, 3
    gadget = _build_gadget(g, r)
    # the rows are 2n shared ranges: each vertex's stubs and its cores
    shared = {id(row): row for row in gadget.rows}
    assert len(shared) <= 2 * n and all(type(row) is range for row in shared.values())
    # neighbour entries stored: one partner slot per gadget vertex, three numbers per range
    assert gadget.size == len(gadget.partner) == len(gadget.rows) == 4 * m - r * n
    assert len(gadget.partner) + 3 * len(shared) <= 4 * (n + m)
    assert len(gadget.edges) == len(gadget.edge_stubs) == m
    # explicit lists held d(v) + 2 d(v)(d(v) - r) entries per vertex: 8.2 M here


# ---------------------------------------------------------------------------
# The paper's extremal family, where the fast path misses at reg_even by a
# few units and the gadget starts from its near-factor
# ---------------------------------------------------------------------------

EXTREMAL_REG_EVEN = {(64, 33): 22, (64, 34): 24, (96, 49): 30, (96, 50): 34,
                     (128, 65): 40, (128, 66): 44}


@pytest.mark.parametrize("n,delta", sorted(EXTREMAL_REG_EVEN))
def test_extremal_family_through_the_seeded_gadget(n, delta):
    g = extremal_graph(n, delta)[0]
    r, factor = largest_even_factor(g)
    assert r == EXTREMAL_REG_EVEN[n, delta] and factor.r == r
    factor.validate(g)
    assert not _agrees_with_explicit_oracle(g, r)
    # every larger r has a structured pair; the gadget alone finds its barrier pair
    assert _agrees_with_explicit_oracle(g, r + 2)


def test_reg_even_of_the_extremal_graph_at_n256():
    assert reg_even_of_graph(extremal_graph(256, 129)[0]) == 74


# ---------------------------------------------------------------------------
# The odd-r fast path against the gadget arbiter
# ---------------------------------------------------------------------------

def _odd_factor_inputs():
    """Seeded G(n, p) for even n = 6..64 and several p, with every odd
    r <= delta, then the sparse r = 1 inputs of the seed-invariance test
    (the hard negatives among them)."""
    rng = random.Random(20261019)
    for n in (6, 8, 10, 12, 16, 24, 32, 40, 48, 64):
        for p in (0.15, 0.3, 0.5, 0.8):
            g = random_graph(n, p, rng.getrandbits(32))
            for r in range(1, g.min_degree() + 1, 2):
                yield g, r
    for g, r in _seed_invariance_inputs():
        if r == 1:
            yield g, r


def test_odd_fast_path_matches_the_gadget_arbiter():
    hits = negatives = 0
    for g, r in _odd_factor_inputs():
        decision = r_factor_exists(g, r)
        arbiter = _decide_by_gadget(g, r)
        assert decision.exists == arbiter.exists
        if g.n <= 10:
            assert decision.exists == brute_has_r_factor(g, r)
        if decision.exists:
            decision.factor.validate(g)
            assert decision.factor.r == r
            hits += _factor_via_orientation(g, r) is not None
            continue
        negatives += 1
        # a negative is the structured pair, or else the gadget's barrier pair
        hit = _structured_violation(g, r, _sweep(g, r, g.degrees()))
        cert = decision.certificate
        if hit is None:
            assert (cert.s, cert.t) == (arbiter.certificate.s, arbiter.certificate.t)
        else:
            assert (cert.s, cert.t) == (set(iter_bits(hit[0])), set(iter_bits(hit[1])))
        assert _factor_via_orientation(g, r) is None
    assert hits > 100 and negatives > len(_HARD_NEGATIVES)


def _leave_one_exposed(n, adj):
    mate = maximum_matching(n, adj)
    mate[mate[0]] = mate[0] = -1
    return mate


@pytest.mark.parametrize("miss", ["no_subdigraph", "exposed_vertex"])
def test_odd_fast_path_miss_falls_through_to_the_gadget(monkeypatch, miss):
    g = random_graph(40, 0.5, 7)
    if miss == "no_subdigraph":
        monkeypatch.setattr(factors, "_balanced_subdigraph",
                            lambda adj, out, half, chosen, fed: [0] * len(adj))
        rs = (3, 5, 7)
    else:
        monkeypatch.setattr(factors, "maximum_matching", _leave_one_exposed)
        rs = (1, 3, 5, 7)
    for r in rs:
        assert _factor_via_orientation(g, r) is None
        decision = r_factor_exists(g, r)
        assert decision.exists
        decision.factor.validate(g)
        assert decision.factor == _decide_by_gadget(g, r).factor


@pytest.mark.parametrize("g,r", [
    (extremal_graph(64, 33)[0], 22),    # the selection misses by a few units; a yes
    (random_graph(16, 0.3, 72), 3),     # the host matching leaves two vertices short; a yes
    (random_graph(16, 0.3, 57), 3),     # a no, off the barrier
    (random_graph(16, 0.15, 337), 2),   # a fixed hard negative
], ids=["extremal-r22", "gnp72-r3", "gnp57-r3", "gnp337-r2"])
def test_gadget_decision_orients_once(monkeypatch, g, r):
    # a fast-path miss hands its near-factor to the gadget, so the Euler
    # walk and the b-matching run once per decision
    calls, gadgets = [], []
    orient, build = factors.balanced_orientation_arcs, factors._build_gadget
    monkeypatch.setattr(factors, "balanced_orientation_arcs",
                        lambda g, half: calls.append(g) or orient(g, half))
    monkeypatch.setattr(factors, "_build_gadget", lambda g, r: gadgets.append(r) or build(g, r))
    decision = r_factor_exists(g, r)
    assert gadgets == [r] and len(calls) == 1
    arbiter = _decide_by_gadget(g, r)
    assert (decision.factor, decision.certificate) == (arbiter.factor, arbiter.certificate)


def test_extremal_reg_even_at_n128_is_a_fast_path_hit(monkeypatch):
    # the walk's greedy plus the phases fill the selection at reg_even = 40
    g = extremal_graph(128, 65)[0]
    monkeypatch.setattr(factors, "_build_gadget", lambda g, r: pytest.fail("the gadget ran"))
    decision = r_factor_exists(g, 40)
    assert decision.exists and decision.factor.r == 40
    decision.factor.validate(g)


def test_odd_factor_at_n512():
    g = random_graph(512, 0.5, 1)
    decision = r_factor_exists(g, 127)
    assert decision.exists and decision.factor.r == 127
    decision.factor.validate(g)


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
            hit = _structured_violation(g, r, _sweep(g, r, g.degrees()))
            assert hit == first_structured_violation(g, r)
            if hit is not None:
                kinds.add(_pair_kind(hit))
    assert kinds == {"(0, 0)", "(0, {v})", "({v}, 0)", "(S, V - S)", "(S, 0)"}


# ---------------------------------------------------------------------------
# The fast path ahead of the costly pairs, against the structured-first order
# ---------------------------------------------------------------------------

def _decision_order_inputs():
    """Odd r on G(n, 1/2), n = 24..40; r = 1 and 2 on the structured
    inputs (sparse G(n, p), disconnected graphs, cut vertices, odd-prefix
    negatives and the fixed hard negatives); every r on the extremal
    family."""
    rng = random.Random(20261020)
    for n in range(24, 41, 2):
        for _ in range(2):
            g = random_graph(n, 0.5, rng.getrandbits(32))
            for r in (1, 3, 5):
                yield g, r
    for g in _structured_inputs():
        for r in (1, 2):
            if r < g.n:
                yield g, r
    # K_{2,4} at r = 1: (S_2, V - S_2) and (S_2, 0) both violate
    yield Graph(6, [(a, b) for a in (0, 1) for b in range(2, 6)]), 1
    for n, delta in ((16, 9), (24, 13), (32, 17), (40, 21)):
        g = extremal_graph(n, delta)[0]
        for r in range(1, delta + 1):
            yield g, r


def test_fast_path_first_decides_as_the_structured_first_order():
    kinds = set()
    positives = gadget_negatives = 0
    for g, r in _decision_order_inputs():
        decision, want = r_factor_exists(g, r), reference_decide(g, r)
        assert (decision.exists, decision.note) == (want.exists, want.note)
        assert decision.certificate == want.certificate
        if want.factor is None:
            assert decision.factor is None
        else:
            assert decision.factor.subgraph.rows == want.factor.subgraph.rows
        if decision.exists:
            positives += 1
        elif decision.certificate is not None and r <= g.min_degree():
            hit = first_structured_violation(g, r)
            if hit is None:
                gadget_negatives += 1
            else:
                kinds.add(_pair_kind(hit))
    assert kinds == {"(0, 0)", "(0, {v})", "({v}, 0)", "(S, V - S)", "(S, 0)"}
    assert positives > 100 and gadget_negatives >= len(list(FIXED_INPUTS.glob("*.txt")))


def test_odd_positive_below_dirac_skips_the_costly_pairs(monkeypatch):
    # 2 delta < n, so only the fast path keeps the cut-vertex pass and
    # the odd-prefix union-find from running on this yes
    g = random_graph(40, 0.5, 7)
    assert 2 * g.min_degree() < g.n

    def refuse(*args):
        raise AssertionError("a positive ran a costly structured pass")

    monkeypatch.setattr(Graph, "cut_vertices", refuse)
    monkeypatch.setattr(factors, "_odd_components_after_prefixes", refuse)
    monkeypatch.setattr(factors, "_structured_violation", refuse)
    decision = r_factor_exists(g, 3)
    assert decision.exists
    decision.factor.validate(g)


@pytest.mark.parametrize("g,r,pair", [
    (_side_by_side(complete_graph(3), complete_graph(3), 0), 1, (0, 0)),
    (random_graph(12, 0.3, 18), 2, (0b110000, 0b111111001111)),
    (Graph(6, [(a, b) for a in (0, 1) for b in range(2, 6)]), 1, (0b11, 0b111100)),
], ids=["two-triangles-r1", "gnp12-r2", "k24-r1"])
def test_sweep_negative_skips_the_fast_path(monkeypatch, g, r, pair):
    # a pair of the O(n + m) sweep refutes before any orientation runs
    def refuse(*args):
        raise AssertionError("the fast path ran on a negative the sweep refutes")

    monkeypatch.setattr(factors, "_near_factor", refuse)
    cert = r_factor_exists(g, r).certificate
    assert (cert.s, cert.t) == (set(iter_bits(pair[0])), set(iter_bits(pair[1])))
