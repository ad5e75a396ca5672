import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hampack.construct import (
    babai_graph,
    circulant_regular,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    extremal_graph,
    extremal_spec,
    random_graph,
    reference_graph,
    two_cliques,
)
from hampack.errors import InputError, ParityError


def test_babai_m1_counts():
    g = babai_graph(1)
    assert g.n == 6
    assert g.min_degree() == 3
    assert g.m == 2 * 4 + 2  # complete bipartite part plus the matching


def test_babai_m2_order_and_degree():
    g = babai_graph(2)
    assert g.n == 10 and g.min_degree() == 5


def test_babai_independent_class_degrees():
    for m in (1, 2, 3):
        g = babai_graph(m)
        # the independent class A = {0..2m-1}, the matched class B the rest
        for v in range(2 * m):
            assert g.degree(v) == 2 * m + 2
        for v in range(2 * m, 4 * m + 2):
            assert g.degree(v) == 2 * m + 1


def test_babai_m_zero_rejected():
    with pytest.raises(InputError):
        babai_graph(0)


def test_extremal_spec_16_9():
    spec = extremal_spec(16, 9)
    assert spec.Delta == 11
    assert spec.inner_degree == 4
    assert spec.a_size == 5


def _recompute_Delta(n, delta):
    # direct restatement: smallest Delta above the threshold with even product
    x = n * (2 * delta - n)
    Delta = n // 2
    while True:
        if (2 * Delta - n) >= 0 and (2 * Delta - n) ** 2 >= x:
            if Delta * (delta + Delta - n) % 2 == 0:
                return Delta
        Delta += 1


@settings(max_examples=80, deadline=None)
@given(st.integers(8, 48), st.data())
def test_extremal_spec_matches_direct_recomputation(n, data):
    delta = data.draw(st.integers(n // 2 + 1, n - 1))
    spec = extremal_spec(n, delta)
    assert spec.Delta == _recompute_Delta(n, delta)


def test_extremal_graph_16_9_degrees():
    g, spec, part = extremal_graph(16, 9)
    assert g.min_degree() == 9
    for v in part.a:
        assert g.degree(v) == 11
    for v in part.b:
        assert g.degree(v) == 9


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 40), st.data())
def test_extremal_degree_sequence(n, data):
    delta = data.draw(st.integers(n // 2 + 1, n - 1))
    g, spec, part = extremal_graph(n, delta)
    assert g.min_degree() == delta
    degs = sorted(set(g.degree(v) for v in part.a)) if part.a else []
    assert degs in ([], [spec.Delta])
    assert all(g.degree(v) == delta for v in part.b)


def test_extremal_domain_errors():
    with pytest.raises(InputError):
        extremal_graph(16, 8)
    with pytest.raises(InputError):
        extremal_graph(16, 16)


def test_circulant_c5():
    g = circulant_regular(5, 2)
    assert g == cycle_graph(5)


def test_circulant_examples():
    g = circulant_regular(6, 3)
    assert g.degrees() == [3] * 6
    g = circulant_regular(11, 4)
    assert g.degrees() == [4] * 11


def test_circulant_parity_error():
    with pytest.raises(ParityError):
        circulant_regular(5, 3)


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 30), st.data())
def test_circulant_always_regular(k, data):
    d = data.draw(st.integers(0, k - 1))
    if (k * d) % 2:
        d -= 1
    g = circulant_regular(k, d)
    assert g.degrees() == [d] * k


def test_random_graph_extremes():
    assert random_graph(7, 1.0, 5) == complete_graph(7)
    assert random_graph(7, 0.0, 5).m == 0


def test_random_graph_determinism():
    a = random_graph(20, 0.37, 123)
    b = random_graph(20, 0.37, 123)
    c = random_graph(20, 0.37, 124)
    assert a == b
    assert a != c


def test_random_graph_refuses_a_negative_seed():
    with pytest.raises(InputError, match="seed must be >= 0, got -1"):
        random_graph(10, 0.5, -1)


def test_reference_graphs():
    assert two_cliques(12).m == 30
    kb = complete_bipartite(12)
    assert kb.m == 36 and kb.min_degree() == 6
    assert reference_graph(8, "cycle") == cycle_graph(8)
    assert reference_graph(6, "complete") == complete_graph(6)
    with pytest.raises(InputError):
        reference_graph(7, "two_cliques")
    with pytest.raises(InputError):
        reference_graph(8, "nonsense")
