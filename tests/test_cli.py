import argparse
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cliques_sharing_a_vertex, generalized_petersen

import hampack
from hampack import cli, hamilton
from hampack.cli import COMMANDS, MAX_WORKERS, build_parser, main
from hampack.core import Graph
from hampack.expanders import eulerian_orientation
from hampack.edgelist import format_edge_list, format_rows, parse_edge_list, read_edge_list
from hampack.factors import _decide_by_gadget
from hampack.construct import babai_graph, complete_graph, random_graph, two_cliques


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_construct_round_trip(tmp_path, capsys):
    out_path = tmp_path / "g.el"
    code, _ = run(["construct", "--kind", "gnp", "--n", "14", "--p", "0.4",
                   "--seed", "9", "--out", str(out_path)], capsys)
    assert code == 0
    assert read_edge_list(out_path) == random_graph(14, 0.4, 9)


def test_construct_babai_stdout(capsys):
    code, out = run(["construct", "--kind", "babai", "--m", "2"], capsys)
    assert code == 0
    assert parse_edge_list(out) == babai_graph(2)


def test_bounds_json(capsys):
    code, out = run(["bounds", "--n", "8", "--delta", "4"], capsys)
    assert code == 0
    assert json.loads(out) == {"n": 8, "delta": 4, "lower": 2, "upper": 3.0}


def test_regeven_and_factor(tmp_path, capsys):
    b2 = tmp_path / "b2.el"
    b2.write_text(format_edge_list(babai_graph(2)))
    code, out = run(["regeven", "--input", str(b2)], capsys)
    assert code == 0 and json.loads(out)["reg_even"] == 2

    code, out = run(["factor", "--r", "4", "--input", str(b2)], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["exists"] is False
    cert = payload["certificate"]
    assert cert["Qr"] > cert["Rr"]
    assert cert["S"] == sorted(cert["S"]) and cert["T"] == sorted(cert["T"])

    emitted = tmp_path / "f.el"
    code, out = run(["factor", "--r", "2", "--input", str(b2), "--emit", str(emitted)], capsys)
    assert code == 0 and json.loads(out)["exists"] is True
    factor_graph = read_edge_list(emitted)
    assert factor_graph.degrees() == [2] * 10


def test_factor_blossom_negative_prints_certificate(tmp_path, capsys):
    # structured pairs miss: the blossom decides and the barrier refutes
    graph = tmp_path / "g.el"
    code, _ = run(["construct", "--kind", "gnp", "--n", "16", "--p", "0.15",
                   "--seed", "244", "--out", str(graph)], capsys)
    assert code == 0
    code, out = run(["factor", "--r", "1", "--input", str(graph)], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["exists"] is False
    cert = payload["certificate"]
    assert cert["Qr"] > cert["Rr"]


def test_tutte_quantities_cli(tmp_path, capsys):
    c5 = tmp_path / "c5.el"
    c5.write_text("p 5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, out = run(["tutte", "--r", "2", "--input", str(c5), "--s", "0", "--t", "1"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["Rr"] == 1 and payload["Qr"] == 1
    code, out = run(["tutte", "--r", "2", "--input", str(c5), "--exhaustive"], capsys)
    assert code == 0 and json.loads(out)["holds_for_all_pairs"] is True


@pytest.mark.parametrize("pair", [["--s", "0", "--t", "1"], ["--s", "0"], ["--t", ""]])
def test_tutte_exhaustive_refuses_a_pair(tmp_path, capsys, pair):
    c6 = tmp_path / "c6.el"
    c6.write_text("p 6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    code = main(["tutte", "--r", "2", "--input", str(c6), "--exhaustive", *pair])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "tutte --exhaustive checks every pair: drop --s and --t" in captured.err


@pytest.mark.parametrize("mode", [["--exhaustive"], ["--s", "1", "--t", "2"]])
@pytest.mark.parametrize("r", ["-2", "8", "40"])
def test_tutte_refuses_r_outside_its_range(tmp_path, capsys, mode, r):
    # the message factor gives, before any pair is evaluated
    k8 = tmp_path / "k8.el"
    k8.write_text(format_edge_list(complete_graph(8)))
    code = main(["tutte", "--r", r, "--input", str(k8), *mode])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == f"input error: r must satisfy 0 <= r <= n-1, got r={r}, n=8\n"
    assert main(["factor", "--r", r, "--input", str(k8)]) == 4
    assert capsys.readouterr().err == captured.err
    assert run(["tutte", "--r", "7", "--input", str(k8), *mode], capsys)[0] == 0


def test_expander_cli(tmp_path, capsys):
    tc = tmp_path / "tc.el"
    code, _ = run(["construct", "--kind", "two-cliques", "--n", "12", "--out", str(tc)], capsys)
    code, out = run(["expander", "--nu", "1/10", "--tau", "2/5", "--input", str(tc)], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["certified"] is False
    assert payload["witness"] == [0, 1, 2, 3, 4]
    code, out = run(["expander", "--nu", "1/10", "--tau", "2/5", "--mc",
                     "--samples", "50", "--seed", "4", "--input", str(tc)], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["witness"] == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("command", [
    ["expander", "--nu", "1/10", "--tau", "2/5", "--exact"],
    ["extremal", "--eta", "1/5", "--exact"],
    ["extremal", "--eta", "1/5", "--heuristic"],
])
def test_mode_flags_that_select_nothing_are_unrecognized(tmp_path, capsys, command):
    # expander is exact unless --mc is given; extremal picks its search from n
    tc = tmp_path / "tc.el"
    tc.write_text(format_edge_list(two_cliques(8)))
    assert run(command[:-1] + ["--input", str(tc)], capsys)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(command + ["--input", str(tc)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {command[-1]}" in capsys.readouterr().err


def test_orient_cli(tmp_path, capsys):
    k5 = tmp_path / "k5.el"
    k5.write_text(format_edge_list(complete_graph(5)))
    code, out = run(["orient", "--input", str(k5)], capsys)
    assert code == 0
    header, *lines = out.splitlines()
    assert header == f"p 5 {len(lines)}" and all(line.startswith("a ") for line in lines)
    arcs = [tuple(map(int, line.split()[1:])) for line in lines]
    assert arcs == sorted(arcs)
    out_rows = [0] * 5
    for u, v in arcs:
        out_rows[u] |= 1 << v
    assert out_rows == eulerian_orientation(complete_graph(5))
    assert all(row.bit_count() == 2 for row in out_rows)
    arcs = tmp_path / "k5.arcs"
    assert run(["orient", "--input", str(k5), "--out", str(arcs)], capsys) == (0, "")
    assert arcs.read_text() == out


def test_extremal_and_closeness_cli(tmp_path, capsys):
    path = tmp_path / "ext.el"
    run(["construct", "--kind", "extremal", "--n", "16", "--delta", "9",
         "--out", str(path)], capsys)
    code, out = run(["extremal", "--eta", "1/5", "--input", str(path),
                     "--a", "0,1,2,3,4", "--b", "5,6,7,8,9,10,11,12,13,14,15"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["extremal"] is True
    assert payload["conditions"] == {"E1": True, "E2": True, "E3": True, "E4": True}

    code, out = run(["closeness", "--kind", "cliques", "--epsilon", "1/4",
                     "--input", str(path)], capsys)
    assert code == 0 and json.loads(out)["exact"] is True


def test_extremal_restarts_reach_local_search(tmp_path, capsys, monkeypatch):
    from hampack import extremality

    seen = []
    local_search = extremality._heuristic_witness

    def spy(g, eta, seed, restarts):
        seen.append(restarts)
        return local_search(g, eta, seed, restarts)

    monkeypatch.setattr(extremality, "_heuristic_witness", spy)
    path = tmp_path / "ext.el"
    run(["construct", "--kind", "extremal", "--n", "16", "--delta", "9",
         "--out", str(path)], capsys)
    code, out = run(["extremal", "--eta", "1/5", "--input", str(path),
                     "--restarts", "3"], capsys)
    assert code == 0 and json.loads(out)["mode"] == "heuristic"
    assert seen == [3]


@pytest.mark.parametrize("restarts", ["0", "-1"])
@pytest.mark.parametrize("n", ["12", "30"])  # the exact search, then the local search
def test_extremal_restarts_below_one_is_an_input_error(tmp_path, capsys, n, restarts):
    path = tmp_path / "g.el"
    run(["construct", "--kind", "gnp", "--n", n, "--p", "0.6", "--seed", "3", "--out", str(path)], capsys)
    code = main(["extremal", "--eta", "1/5", "--input", str(path), "--restarts", restarts])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert f"restarts must be >= 1, got {restarts}" in captured.err


# each command that takes --seed, with its other required options; None
# stands for an input file that does not exist
SEEDED = {
    "construct": ["--kind", "gnp", "--n", "10", "--p", "1/2"],
    "expander": ["--mc", "--nu", "1/8", "--tau", "1/4", "--input", None],
    "extremal": ["--eta", "1/5", "--input", None],
    "closeness": ["--kind", "bipartite", "--epsilon", "1/10", "--input", None],
    "classify": ["--kappa", "1/20", "--nu", "1/20", "--tau", "1/4", "--epsilon", "1/20", "--input", None],
    "ensemble": ["--experiment", "expansion", "--count", "3"],
}


@pytest.mark.parametrize("command", sorted(SEEDED))
def test_negative_seed_is_an_input_error(tmp_path, capsys, command):
    # refused before the input is read or anything is written
    assert sorted(SEEDED) == sorted(name for name, (_, _, options) in COMMANDS.items()
                                    if any(flag == "--seed" for flag, _ in options))
    out = tmp_path / "out"
    options = [str(tmp_path / "missing.el") if opt is None else opt for opt in SEEDED[command]]
    code = main([command, *options, "--seed", "-1", "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "") and not out.exists()
    assert captured.err == "input error: --seed must be >= 0, got -1\n"


def test_classify_cli(tmp_path, capsys):
    path = tmp_path / "kb.el"
    run(["construct", "--kind", "bipartite", "--n", "16", "--out", str(path)], capsys)
    code, out = run(["classify", "--kappa", "1/20", "--nu", "1/20", "--tau", "1/4",
                     "--epsilon", "1/20", "--input", str(path)], capsys)
    assert code == 0 and json.loads(out)["label"] == "close_bipartite"


@pytest.mark.parametrize("kind", [["two-cliques", "--n", "12"], ["gnp", "--n", "12", "--p", "0.9", "--seed", "1"]])
def test_classify_refuses_bad_nu_on_every_graph(tmp_path, capsys, kind):
    # close_bipartite on two cliques once returned before nu was checked
    path = tmp_path / "g.el"
    assert run(["construct", "--kind", *kind, "--out", str(path)], capsys)[0] == 0
    code = main(["classify", "--kappa", "1/10", "--nu", "5", "--tau", "1/3", "--epsilon", "1/20",
                 "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == "input error: need 0 < nu <= tau < 1, got nu=5, tau=1/3\n"


@pytest.mark.parametrize("argv, message", [
    (["extremal", "--eta", "-1"], "eta must be nonnegative, got -1"),
    (["extremal", "--eta", "-1", "--a", "0,1", "--b", "2,3"], "eta must be nonnegative, got -1"),
    (["closeness", "--kind", "bipartite", "--epsilon", "-1"], "epsilon must be nonnegative, got -1"),
    (["classify", "--kappa", "1/10", "--nu", "1/50", "--tau", "3/10", "--epsilon", "-1"],
     "epsilon must be nonnegative, got -1"),
])
def test_negative_eta_and_epsilon_exit_4(tmp_path, capsys, argv, message):
    path = tmp_path / "tc.el"
    path.write_text(format_edge_list(two_cliques(12)))
    code = main([*argv, "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (4, "", f"input error: {message}\n")
    # zero stays valid
    zero = [a if a != "-1" else "0" for a in argv]
    assert run([*zero, "--input", str(path)], capsys)[0] == 0


def test_ham_pack_maxpack_decompose_conjecture(tmp_path, capsys):
    k7 = tmp_path / "k7.el"
    k7.write_text(format_edge_list(complete_graph(7)))
    code, out = run(["ham", "--input", str(k7)], capsys)
    assert code == 0 and json.loads(out)["hamiltonian"] is True
    code, out = run(["pack", "--input", str(k7), "--target", "3"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["achieved"] and payload["verified"]
    code, out = run(["maxpack", "--input", str(k7)], capsys)
    assert code == 0 and json.loads(out)["max"] == 3
    code, out = run(["decompose", "--input", str(k7)], capsys)
    assert code == 0 and json.loads(out)["decomposed"] is True
    code, out = run(["conjecture", "--input", str(k7)], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["graph_law_ok"] and payload["class_law_ok"]


def test_decompose_says_whether_its_search_was_cut(tmp_path, capsys):
    k9, cliques = tmp_path / "k9.el", tmp_path / "cliques.el"
    k9.write_text(format_edge_list(complete_graph(9)))
    cliques.write_text(format_edge_list(two_cliques(10)))
    # K9 decomposes, but not within 10 search nodes
    code, out = run(["decompose", "--input", str(k9), "--budget", "10"], capsys)
    assert (code, out) == (0, '{"decomposed": false, "exact": false}\n')
    code, out = run(["decompose", "--input", str(k9)], capsys)
    assert code == 0 and json.loads(out)["decomposed"] is True
    # two disjoint K5: 4-regular and disconnected, refuted by the uncut search
    code, out = run(["decompose", "--input", str(cliques)], capsys)
    assert (code, out) == (0, '{"decomposed": false, "exact": true}\n')


@pytest.mark.parametrize("command", [["pack", "--target", "2"], ["decompose"]])
@pytest.mark.parametrize("budget", ["-1", "-500000"])
def test_negative_budget_is_an_input_error(tmp_path, capsys, command, budget):
    k9 = tmp_path / "k9.el"
    k9.write_text(format_edge_list(complete_graph(9)))
    code = main([command[0], "--input", str(k9), *command[1:], "--budget", budget])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert f"budget must be >= 0, got {budget}" in captured.err


@pytest.mark.parametrize("a", [10, 20])
def test_ham_unbalanced_complete_bipartite_is_false(tmp_path, capsys, a):
    # above the DP cap; no 2-factor, so no search runs
    path = tmp_path / "kab.el"
    path.write_text(format_edge_list(Graph(2 * a + 1, [(u, a + v) for u in range(a) for v in range(a + 1)])))
    code, out = run(["ham", "--input", str(path)], capsys)
    assert code == 0 and json.loads(out) == {"hamiltonian": False}


def test_ham_exhausted_budget_exits_3(tmp_path, capsys, monkeypatch):
    # the generalized Petersen graph GP(11, 2): 2-connected with a
    # 2-factor, and refuting a Hamilton cycle takes 2 038 search nodes
    monkeypatch.setattr(hamilton, "SEARCH_NODE_BUDGET", 1000)
    path = tmp_path / "g.el"
    path.write_text(format_edge_list(generalized_petersen(11, 2)))
    code = main(["ham", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "1000 nodes" in captured.err


@pytest.mark.parametrize("n,finder", [(6, "_hamilton_dp"), (21, "_iter_cycles")])
def test_ham_cycle_over_a_non_edge_exits_5(tmp_path, capsys, monkeypatch, n, finder):
    # K_n less the edge 01, and a finder that answers with the cycle 0..n-1
    def bad(*args):
        return tuple(range(n)) if finder == "_hamilton_dp" else iter([tuple(range(n))])

    monkeypatch.setattr(hamilton, finder, bad)
    path = tmp_path / "g.el"
    path.write_text(format_edge_list(Graph(n, [e for e in complete_graph(n).edges() if e != (0, 1)])))
    code = main(["ham", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err == "internal error: emitted packing failed its audit: cycle 0 uses non-edge (0, 1)\n"


def test_ham_cut_vertex_is_false(tmp_path, capsys):
    # two K_11 sharing vertex 10: a 2-factor and a cut vertex
    path = tmp_path / "g.el"
    path.write_text(format_edge_list(cliques_sharing_a_vertex(11)))
    code, out = run(["ham", "--input", str(path)], capsys)
    assert code == 0 and json.loads(out) == {"hamiltonian": False}


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("p 3 1\n2 1\n")
    code, _ = run(["regeven", "--input", str(bad)], capsys)
    assert code == 2


@pytest.mark.parametrize("data,message", [
    (b"p 2 1\n0 1\xff\n", "line 2: invalid UTF-8 byte 0xff"),
    (b"\xfe", "line 1: invalid UTF-8 byte 0xfe"),
    # valid UTF-8 and CRLF line ends before the bad byte
    (b"# caf\xc3\xa9\r\np 2 1\r\n0 \xe9 1\n", "line 3: invalid UTF-8 byte 0xe9"),
])
def test_undecodable_input_is_a_parse_error(tmp_path, capsys, data, message):
    bad = tmp_path / "bad.el"
    bad.write_bytes(data)
    assert main(["regeven", "--input", str(bad)]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


@pytest.mark.parametrize("text", ["p 11 1\n0 1_0\n", "p 2 1\n+0 1\n", "p 2 1\n0 \u0661\n",
                                  "p 1_1 0\n", "p +2 0\n", "p \u0662 0\n"])
def test_non_ascii_decimal_token_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.el"
    bad.write_text(text, encoding="utf-8")
    assert main(["regeven", "--input", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("parse error: line ")


def test_capacity_error_exit(tmp_path, capsys):
    k13 = tmp_path / "k13.el"
    k13.write_text(format_edge_list(complete_graph(13)))
    code, _ = run(["maxpack", "--input", str(k13)], capsys)
    assert code == 3


def test_precondition_error_exit(tmp_path, capsys):
    k5 = tmp_path / "k5.el"
    k5.write_text(format_edge_list(complete_graph(5)))
    code, _ = run(["factor", "--r", "9", "--input", str(k5)], capsys)
    assert code == 4


def test_missing_file_exit(capsys):
    code, _ = run(["regeven", "--input", "/nonexistent/path.el"], capsys)
    assert code == 4


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_construct_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.el", tmp_path / "b.el"
    args = ["construct", "--kind", "gnp", "--n", "18", "--p", "0.55", "--seed", "21"]
    run(args + ["--out", str(a)], capsys)
    run(args + ["--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_ensemble_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["ensemble", "--experiment", "conjecture", "--count", "3",
            "--seed", "5", "--n-min", "6", "--n-max", "8"]
    code, _ = run(args + ["--out", str(a)], capsys)
    assert code == 0
    run(args + ["--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert lines[0].startswith("index,seed,n,m,delta")
    assert len(lines) == 5  # header + 3 rows + summary
    assert lines[-1].startswith("summary")


def test_ensemble_expansion_small(tmp_path, capsys):
    out = tmp_path / "l.csv"
    code, _ = run(["ensemble", "--experiment", "expansion", "--count", "4",
                   "--seed", "2", "--n-min", "8", "--n-max", "12",
                   "--out", str(out)], capsys)
    assert code == 0
    rows = out.read_text().strip().splitlines()
    data = [line.split(",") for line in rows[1:-1]]
    assert all(row[5] == "1" for row in data)  # certified column


def test_ensemble_zero_rows_is_header_only(tmp_path, capsys):
    out = tmp_path / "z.csv"
    code, _ = run(["ensemble", "--experiment", "expansion", "--count", "0",
                   "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines == ["index,seed,n,m,delta,certified,error"]


@pytest.mark.parametrize("options,message", [
    (["--count", "-3"], "--count must be >= 0, got -3"),
    (["--count", "1000000", "--workers", "0"], f"--workers must be in 1..{MAX_WORKERS}, got 0"),
    (["--count", "1000000", "--workers", "-4"], f"--workers must be in 1..{MAX_WORKERS}, got -4"),
    (["--count", "1000000", "--workers", str(MAX_WORKERS + 1)],
     f"--workers must be in 1..{MAX_WORKERS}, got {MAX_WORKERS + 1}"),
])
def test_ensemble_refuses_counts_it_cannot_honour(capsys, monkeypatch, options, message):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code = main(["ensemble", "--experiment", "expansion", *options])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert message in captured.err


def test_ensemble_worker_pool_matches_sequential(tmp_path, capsys):
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    args = ["ensemble", "--experiment", "expansion", "--count", "4", "--seed", "8",
            "--n-min", "8", "--n-max", "10"]
    run(args + ["--out", str(seq)], capsys)
    run(args + ["--workers", "2", "--out", str(par)], capsys)
    assert seq.read_bytes() == par.read_bytes()


# Seeded inputs on which the even-factor fast path hits, misses with the
# blossom saying yes, and misses with the blossom saying no, at r = 2 and
# 4; the negatives carry gate, structured-pair and Gallai-Edmonds
# certificates, among them pairs found only after a fast-path miss: a
# cut-vertex pair (gnp13_03_101, r = 2) and an odd-prefix pair
# (gnp8_03_23, r = 1).
PINNED_INPUTS = {
    "gnp10_06_1": ["gnp", "--n", "10", "--p", "0.6", "--seed", "1"],
    "gnp10_05_27": ["gnp", "--n", "10", "--p", "0.5", "--seed", "27"],
    "gnp10_06_10": ["gnp", "--n", "10", "--p", "0.6", "--seed", "10"],
    "gnp10_03_28": ["gnp", "--n", "10", "--p", "0.3", "--seed", "28"],
    "gnp13_05_16": ["gnp", "--n", "13", "--p", "0.5", "--seed", "16"],
    "gnp13_03_101": ["gnp", "--n", "13", "--p", "0.3", "--seed", "101"],
    "gnp8_03_23": ["gnp", "--n", "8", "--p", "0.3", "--seed", "23"],
    "gnp16_015_114": ["gnp", "--n", "16", "--p", "0.15", "--seed", "114"],
    "gnp21_025_11": ["gnp", "--n", "21", "--p", "0.25", "--seed", "11"],
    "gnp22_015_46": ["gnp", "--n", "22", "--p", "0.15", "--seed", "46"],
    "extremal24_14": ["extremal", "--n", "24", "--delta", "14"],
    "babai2": ["babai", "--m", "2"],
}

PINNED_STDOUT = [
    ("regeven", "gnp10_06_1", [], '{"delta": 4, "n": 10, "reg_even": 4}'),
    ("regeven", "gnp10_05_27", [], '{"delta": 4, "n": 10, "reg_even": 4}'),
    ("regeven", "gnp10_06_10", [], '{"delta": 3, "n": 10, "reg_even": 2}'),
    ("regeven", "gnp10_03_28", [], '{"delta": 2, "n": 10, "reg_even": 0}'),
    ("regeven", "extremal24_14", [], '{"delta": 14, "n": 24, "reg_even": 12}'),
    ("regeven", "babai2", [], '{"delta": 5, "n": 10, "reg_even": 2}'),
    ("factor", "gnp10_06_1", ["1"], '{"exists": true, "r": 1}'),
    ("factor", "gnp10_06_1", ["2"], '{"exists": true, "r": 2}'),
    ("factor", "gnp10_06_1", ["3"], '{"exists": true, "r": 3}'),
    ("factor", "gnp10_06_1", ["4"], '{"exists": true, "r": 4}'),
    ("factor", "gnp10_03_28", ["1"], '{"exists": true, "r": 1}'),
    ("factor", "gnp10_03_28", ["2"],
     '{"certificate": {"Qr": 1, "Rr": -1, "S": [4], "T": [0, 1, 3, 5, 7, 9]}, "exists": false, "r": 2}'),
    ("factor", "gnp10_03_28", ["3"],
     '{"certificate": {"Qr": 1, "Rr": -1, "S": [], "T": [0]}, "exists": false, "r": 3}'),
    ("factor", "gnp10_03_28", ["4"],
     '{"certificate": {"Qr": 0, "Rr": -2, "S": [], "T": [0]}, "exists": false, "r": 4}'),
    ("factor", "gnp13_05_16", ["1"],
     '{"exists": false, "note": "r*n is odd; no spanning r-regular subgraph", "r": 1}'),
    ("factor", "gnp13_05_16", ["2"], '{"exists": true, "r": 2}'),
    ("factor", "gnp13_05_16", ["3"],
     '{"exists": false, "note": "r*n is odd; no spanning r-regular subgraph", "r": 3}'),
    ("factor", "gnp13_05_16", ["4"], '{"exists": true, "r": 4}'),
    ("factor", "gnp13_03_101", ["2"],
     '{"certificate": {"Qr": 2, "Rr": 0, "S": [], "T": [2]}, "exists": false, "r": 2}'),
    ("factor", "gnp8_03_23", ["1"],
     '{"certificate": {"Qr": 4, "Rr": 2, "S": [0, 6], "T": []}, "exists": false, "r": 1}'),
    ("factor", "gnp16_015_114", ["1"],
     '{"certificate": {"Qr": 0, "Rr": -2, "S": [2, 4, 7, 10, 12, 14, 15], '
     '"T": [0, 1, 3, 5, 6, 8, 9, 11, 13]}, "exists": false, "r": 1}'),
    ("factor", "gnp16_015_114", ["2"],
     '{"certificate": {"Qr": 1, "Rr": -1, "S": [], "T": [9]}, "exists": false, "r": 2}'),
    ("factor", "gnp16_015_114", ["3"],
     '{"certificate": {"Qr": 0, "Rr": -2, "S": [], "T": [9]}, "exists": false, "r": 3}'),
    ("factor", "gnp16_015_114", ["4"],
     '{"certificate": {"Qr": 1, "Rr": -3, "S": [], "T": [9]}, "exists": false, "r": 4}'),
    ("factor", "babai2", ["1"], '{"exists": true, "r": 1}'),
    ("factor", "babai2", ["2"], '{"exists": true, "r": 2}'),
    ("factor", "babai2", ["3"], '{"exists": true, "r": 3}'),
    ("factor", "babai2", ["4"],
     '{"certificate": {"Qr": 0, "Rr": -2, "S": [0, 1, 2, 3], "T": [4, 5, 6, 7, 8, 9]}, '
     '"exists": false, "r": 4}'),
    # above n = 20, ham asks r_factor_exists(g, 2) before it searches
    ("ham", "gnp22_015_46", [], '{"hamiltonian": false}'),
    ("ham", "gnp21_025_11", [],
     '{"cycle": [0, 1, 3, 13, 15, 9, 4, 2, 5, 16, 18, 11, 19, 6, 12, 10, 7, 20, 17, 14, 8], '
     '"hamiltonian": true}'),
]


@pytest.mark.parametrize("command,name,r,expected", PINNED_STDOUT,
                         ids=[f"{c}-{n}" + "".join(f"-r{x}" for x in r) for c, n, r, _ in PINNED_STDOUT])
def test_pinned_factor_stdout(tmp_path, capsys, command, name, r, expected):
    graph = tmp_path / "g.el"
    code, _ = run(["construct", "--kind", *PINNED_INPUTS[name], "--out", str(graph)], capsys)
    assert code == 0
    emitted = tmp_path / "f.el"
    args = [command, "--input", str(graph)]
    if r:
        args += ["--r", *r]
    if command != "ham":
        args += ["--emit", str(emitted)]
    code, out = run(args, capsys)
    assert (code, out) == (0, expected + "\n")
    payload = json.loads(out)
    degree = payload.get("reg_even", int(r[0]) if r else 0)
    if degree and payload.get("exists", True):
        # an emitted factor may differ between versions; it must be an r-factor
        host, factor = read_edge_list(graph), read_edge_list(emitted)
        assert factor.n == host.n and factor.degrees() == [degree] * host.n
        assert all(host.has_edge(u, v) for u, v in factor.edges())


# orient stdout on seeded inputs, by its sha256: odd degrees, isolated
# vertices and several components; the n = 9 arc list is spelled out.
PINNED_ORIENT = [
    (["gnp", "--n", "9", "--p", "0.4", "--seed", "3"],
     "b3031516677c7a5ea24b63979c51cb08ca9a37ad343c62dcc90a450c0613fd86"),
    (["gnp", "--n", "30", "--p", "0.04", "--seed", "1"],  # 10 isolated, 14 components
     "4199eb106c8beef8133cc394c1aab17c8c2553c6fac0ce44fc40e2ceb1364de5"),
    (["gnp", "--n", "40", "--p", "0.3", "--seed", "7"],
     "d4fd5c9c394096855619c34c72bea307ee83066c01daab04a2f7d0ab55ee3e86"),
    (["gnp", "--n", "64", "--p", "0.5", "--seed", "2"],
     "89a42c7b0049df441621202e53eccb54519884444f18c67f57381f48ff94e0da"),
    (["gnp", "--n", "64", "--p", "0.05", "--seed", "9"],  # 34 odd degrees, 4 components
     "2f1e055df4db0bfb67abf98c3109ee5e7f599634ec71817a34f6a6a2f86b3c45"),
    (["extremal", "--n", "24", "--delta", "14"],
     "9ea1d7a4d07436bcd3f5f1a657270a3dd78e59b4c517d6d5e33e4db621754ab8"),
    (["babai", "--m", "2"],
     "86a61f216adf22f245796442a74a237c196474d866023b429380d9be4785f209"),
    (["complete", "--n", "8"],
     "28684a4cea34c7f928e9645ab3ba93903a13f94c1b2bbfc70b5b7a1005c3bf28"),
]


@pytest.mark.parametrize("kind,digest", PINNED_ORIENT, ids=["-".join(k) for k, _ in PINNED_ORIENT])
def test_pinned_orient_stdout(tmp_path, capsys, kind, digest):
    graph = tmp_path / "g.el"
    assert run(["construct", "--kind", *kind, "--out", str(graph)], capsys)[0] == 0
    code, out = run(["orient", "--input", str(graph)], capsys)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    if kind[2] == "9":
        assert out == ("p 9 15\na 0 1\na 0 2\na 1 3\na 2 4\na 2 8\na 3 5\na 3 6\na 4 1\n"
                       "a 4 7\na 5 0\na 5 7\na 6 5\na 7 2\na 8 0\na 8 6\n")


# factor --emit on odd r, which the orientation fast path decides: (construct
# args, r, sha256 of stdout, and of the --emit file).  The gadget arbiter,
# seeded from the fast path's near-factor, must find the same factor.
PINNED_FACTOR = [
    (["--n", "40", "--p", "0.5", "--seed", "7"], 1,
     "a83d609244f80fc4fa83e295d663169bb23d53bffa1ed9b0def628aa9d1cd799",
     "075bc21d6410975a1f6e65856db03fb8ebadfe468f6de1ed60c16284c06cff07"),
    (["--n", "40", "--p", "0.5", "--seed", "7"], 3,
     "0526e3adf04b00d43645c685256706cd4036308611357dc2c3e81d0358c4efe1",
     "b2f69c10eb8cfbeac8f95b3a1a7ad9f08245b50944f098c4822e6af2eac4bbf3"),
    (["--n", "40", "--p", "0.5", "--seed", "7"], 5,
     "3dc2e102a503fcfc4e597378d37e89b85fe51b6c8c95ffa4fa4ec1a7b00d34f8",
     "7e8c55aaf8ac4184496ab72b95e729c4b7f111df1f82ae54b2f609ed07382e48"),
    (["--n", "64", "--p", "0.5", "--seed", "1"], 7,
     "3cf1455b7ed080c7669f6ae2a03c726e3557acc03040968f1d24bb6a06c88ca7",
     "b56c77dcd11cc7cb19a62ce6f40a6f00df2744c9e7ea6c7141d30e767414593f"),
]


@pytest.mark.parametrize("kind,r,out_digest,emit_digest", PINNED_FACTOR,
                         ids=[f"n{k[1]}-seed{k[5]}-r{r}" for k, r, *_ in PINNED_FACTOR])
def test_pinned_factor_emit(tmp_path, capsys, kind, r, out_digest, emit_digest):
    graph, emit = tmp_path / "g.el", tmp_path / "f.el"
    assert run(["construct", "--kind", "gnp", *kind, "--out", str(graph)], capsys)[0] == 0
    code, out = run(["factor", "--r", str(r), "--input", str(graph), "--emit", str(emit)], capsys)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(emit.read_bytes()).hexdigest() == emit_digest
    g = read_edge_list(graph)
    arbiter = _decide_by_gadget(g, r).factor.subgraph.edges
    text = format_rows(g.n, Graph(g.n, arbiter).adj)
    assert hashlib.sha256(text.encode()).hexdigest() == emit_digest


# regeven --emit: (test id, construct args, sha256 of stdout, of the --emit
# file).  On the two extremal graphs with delta = n/2 + 1 the selection
# stays short at reg_even (by 5 arcs at n = 48, by 1 at n = 64) and the
# gadget decides from it; on the other four the Euler walk's greedy arcs
# alone fill it at reg_even.
PINNED_REGEVEN = [
    ("extremal", ["extremal", "--n", "48", "--delta", "25"],
     "3b0c6b229c675a9884e2021f36ab7162435627320b82154a0734efe630e3582b",
     "132f0836de2539c6f2e495bd9877e77d576df42a06d875626e53d7d0ac6a29da"),
    ("gnp", ["gnp", "--n", "64", "--p", "0.88", "--seed", "3"],
     "f6bdccfa5ff3fea5ce4d78cd199b68534e4e7a344125376cf90cf0b4df682a86",
     "2336448d71829d1107fbc9a6fd1b497d8d5e50db297cde8f380ea90c5b73c037"),
    ("extremal-n64-d33", ["extremal", "--n", "64", "--delta", "33"],
     "6607a6fd2d2c64d0d612dcb41ca91ed96812bff73a98f865896bb5d9dad30963",
     "107ed9d52c1012dd64dcb6150a8eef2ca2d532dd396a2c004b7bca16919ce125"),
    ("extremal-n64-d37", ["extremal", "--n", "64", "--delta", "37"],
     "e021be127b5ec72e2c4b9f883d6d504599f74066c599ead89441e19eefd3101e",
     "e71485e1489c3b2a58402172e6ac0fe7750478e3b04854c1e5c7630303f3692a"),
    ("extremal-n64-d48", ["extremal", "--n", "64", "--delta", "48"],
     "a4177f818ebff2ae53b35971b3b0f7d1bea63a19adfbb48675711834c36bbd9b",
     "82486859ea44eb05583170414f4c4a49bdc01a676062b96d9f2efdccf5703e16"),
    ("gnp-n64-p075-seed5", ["gnp", "--n", "64", "--p", "0.75", "--seed", "5"],
     "44d4bdd1c7f5a0b89d77a520b443472ec3df25d26e7bc5839e9fa9104572bd0b",
     "f8ab0457ee5708ebb14a0ac414196def827ea4cf589fe5f0f3dc9e996ad9c1ae"),
]


@pytest.mark.parametrize("kind,out_digest,emit_digest", [case[1:] for case in PINNED_REGEVEN],
                         ids=[case[0] for case in PINNED_REGEVEN])
def test_pinned_regeven_emit(tmp_path, capsys, kind, out_digest, emit_digest):
    graph, emit = tmp_path / "g.el", tmp_path / "f.el"
    assert run(["construct", "--kind", *kind, "--out", str(graph)], capsys)[0] == 0
    code, out = run(["regeven", "--input", str(graph), "--emit", str(emit)], capsys)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(emit.read_bytes()).hexdigest() == emit_digest


PINNED_MC = [
    # refuted by the complement of the giant component, coerced into the window
    (["gnp", "--n", "30", "--p", "0.3", "--seed", "5"],
     ["--nu", "1/8", "--tau", "1/4", "--samples", "100", "--seed", "1"],
     '{"certified": false, "mode": "monte_carlo", "nu": "1/8", "samples": 2, "tau": "1/4", '
     '"witness": [0, 1, 2, 3, 4, 5, 6, 7]}'),
    # refuted by a seeded random subset, after every structured candidate
    (["gnp", "--n", "32", "--p", "0.6", "--seed", "831"],
     ["--nu", "13/64", "--tau", "7/16", "--samples", "300", "--seed", "1"],
     '{"certified": false, "mode": "monte_carlo", "nu": "13/64", "samples": 152, "tau": "7/16", '
     '"witness": [0, 2, 5, 7, 8, 12, 15, 20, 21, 23, 26, 28, 29, 30]}'),
    (["gnp", "--n", "64", "--p", "0.5", "--seed", "7"],
     ["--nu", "1/64", "--tau", "1/4", "--samples", "200", "--seed", "3"],
     '{"certified": false, "inconclusive": true, "mode": "monte_carlo", "nu": "1/64", '
     '"samples": 464, "tau": "1/4"}'),
    (["gnp", "--n", "96", "--p", "0.1", "--seed", "4"],
     ["--nu", "1/32", "--tau", "1/4", "--samples", "50", "--seed", "9"],
     '{"certified": false, "mode": "monte_carlo", "nu": "1/32", "samples": 182, "tau": "1/4", '
     '"witness": [2, 8, 11, 18, 19, 22, 26, 28, 29, 35, 39, 42, 44, 50, 54, 56, 57, 64, 67, 80, 82, '
     '86, 88, 94]}'),
    (["gnp", "--n", "128", "--p", "0.7", "--seed", "3"],
     ["--nu", "1/64", "--tau", "1/4", "--samples", "300", "--seed", "11"],
     '{"certified": false, "inconclusive": true, "mode": "monte_carlo", "nu": "1/64", '
     '"samples": 797, "tau": "1/4"}'),
]


@pytest.mark.parametrize("kind,options,expected", PINNED_MC,
                         ids=[f"n{k[2]}-{'refuted' if 'witness' in e else 'inconclusive'}"
                              for k, _, e in PINNED_MC])
def test_pinned_expander_mc_stdout(tmp_path, capsys, kind, options, expected):
    graph = tmp_path / "g.el"
    code, _ = run(["construct", "--kind", *kind, "--out", str(graph)], capsys)
    assert code == 0
    code, out = run(["expander", "--mc", *options, "--input", str(graph)], capsys)
    assert (code, out) == (0, expected + "\n")


# expander --mc stdout by its sha256: (input, options, digest).  The input is
# construct args, or None for the circulant C96(1..16), which only a random
# candidate refutes: a 12-set, random row 21.
PINNED_MC_DIGEST = [
    (["gnp", "--n", "18", "--p", "0.55", "--seed", "21"],  # the README example
     ["--nu", "1/10", "--tau", "2/5", "--samples", "2000", "--seed", "7"],
     "217ebf2b72a4c521f1388f0ac75801ab1b0d410cd1d923544121de47ced7545b"),
    (["gnp", "--n", "256", "--p", "0.7", "--seed", "1"],
     ["--nu", "1/64", "--tau", "1/4", "--samples", "1000", "--seed", "0"],
     "db9d95c55ba9112ae37d976fbd0450ddff23674253ef61b0c121de13ce2ddb58"),
    (None, ["--nu", "1/16", "--tau", "1/8", "--samples", "200", "--seed", "0"],
     "3a7426a601af9335bfb27190832869921ceca7200ca98645fa0c9689d09924b9"),
]


@pytest.mark.parametrize("kind,options,digest", PINNED_MC_DIGEST,
                         ids=["readme-n18", "gnp256", "circulant96-random"])
def test_pinned_expander_mc_digest(tmp_path, capsys, kind, options, digest):
    graph = tmp_path / "g.el"
    if kind is None:
        graph.write_text(format_edge_list(
            Graph(96, [(u, (u + i) % 96) for u in range(96) for i in range(1, 17)])))
    else:
        assert run(["construct", "--kind", *kind, "--out", str(graph)], capsys)[0] == 0
    code, out = run(["expander", "--mc", *options, "--input", str(graph)], capsys)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_import_leaves_numpy_unloaded():
    # numpy is imported inside the functions that use it, so a command
    # that never reaches them does not pay for its import
    src = str(Path(hampack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, hampack, hampack.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_run_record_written(tmp_path, capsys):
    rec = tmp_path / "rec.json"
    out = tmp_path / "b.json"
    code, _ = run(["bounds", "--n", "8", "--delta", "4",
                   "--out", str(out), "--record", str(rec)], capsys)
    assert code == 0
    payload = json.loads(rec.read_text())
    assert payload["command"] == "bounds"
    assert "wall_time_s" in payload and "version" in payload


# ---------------------------------------------------------------------------
# The command table and the one-command parser
# ---------------------------------------------------------------------------

BAD_VALUE = {
    "construct": ["--kind", "nope"], "regeven": ["--input"], "bounds": ["--n", "x"],
    "factor": ["--r", "x"], "tutte": ["--s", "1,x"], "expander": ["--nu", "1/0"],
    "orient": ["--input"], "extremal": ["--eta", "x"], "closeness": ["--epsilon", "x"],
    "classify": ["--kappa", "x"], "ham": ["--input"], "pack": ["--target", "x"],
    "maxpack": ["--out"], "decompose": ["--budget", "x"], "conjecture": ["--record"],
    "ensemble": ["--experiment", "nope"],
}


def test_every_option_is_read():
    # a dest is read as args.<dest> by its handler, or by main and
    # _write_record (input, out and record)

    shared = inspect.getsource(cli.main) + inspect.getsource(cli._write_record)
    unread = []
    for name, (handler, _, options) in COMMANDS.items():
        source = inspect.getsource(handler) + shared
        for flag, _ in cli.COMMON + options:
            dest = flag.removeprefix("--").replace("-", "_")
            if not re.search(rf"\bargs\.{dest}\b", source):
                unread.append(f"{name} {flag}")
    assert unread == []


#: The exports no command reaches, each with the command planned for it.
LIBRARY_ONLY = {
    "petersen_two_factorization": "ROADMAP item 1: peeling Hamilton cycles off the even factor",
    "min_degree_implies_expander_params": "ROADMAP item 3: the min-degree certificate of classify and expander",
}


def _export_argv(d):
    """One small seeded argv per command, with one per construct kind
    and one per mode that calls another export; ``d`` holds the inputs."""
    kinds = {"babai": ["--m", "2"], "extremal": ["--n", "12", "--delta", "7"], "complete": ["--n", "5"],
             "bipartite": ["--n", "8"], "two-cliques": ["--n", "8"], "cycle": ["--n", "6"],
             "gnp": ["--n", "10", "--p", "7/10", "--seed", "3"]}
    argv = [["construct", "--kind", k, *opts, "--out", f"{d}/{k}.el"] for k, opts in kinds.items()]
    gnp, ext, cyc, k5, tc = (f"{d}/{k}.el" for k in ("gnp", "extremal", "cycle", "complete", "two-cliques"))
    return argv + [
        ["regeven", "--input", gnp, "--emit", f"{d}/f.el"],
        ["bounds", "--n", "12", "--delta", "7"],
        ["factor", "--r", "3", "--input", gnp],
        ["tutte", "--r", "2", "--s", "0", "--t", "1", "--input", gnp],
        ["tutte", "--r", "2", "--exhaustive", "--input", cyc],
        ["expander", "--nu", "1/20", "--tau", "1/4", "--input", gnp],
        ["expander", "--nu", "1/20", "--tau", "1/4", "--mc", "--samples", "20", "--input", gnp],
        ["orient", "--input", gnp],
        ["extremal", "--eta", "1/5", "--input", ext],
        ["extremal", "--eta", "1/5", "--a", "0,1,2", "--b", "3,4,5,6,7,8,9,10,11", "--input", ext],
        ["closeness", "--kind", "cliques", "--epsilon", "1/20", "--input", tc],
        ["classify", "--kappa", "1/10", "--nu", "1/50", "--tau", "3/10", "--epsilon", "1/20",
         "--input", gnp],
        ["ham", "--input", gnp],
        ["pack", "--target", "2", "--input", k5],
        ["maxpack", "--input", k5],
        ["decompose", "--input", k5],
        ["conjecture", "--input", gnp],
        ["ensemble", "--experiment", "expansion", "--count", "2", "--n-min", "8", "--n-max", "10"],
        ["ensemble", "--experiment", "conjecture", "--count", "2", "--n-min", "6", "--n-max", "8"],
    ]


def test_every_export_is_reached(tmp_path, capsys, monkeypatch):
    # a counting wrapper on each function of __all__, in every hampack
    # namespace that binds it, and on each class's constructor and
    # classmethod builders, then one run of every command
    modules = [hampack] + [importlib.import_module(f"hampack.{m.name}")
                           for m in pkgutil.iter_modules(hampack.__path__)]
    reached = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in hampack.__all__:
        obj = getattr(hampack, name)
        if isinstance(obj, type):
            monkeypatch.setattr(obj, "__init__", counting(name, obj.__init__))
            for attr, value in list(vars(obj).items()):
                if isinstance(value, classmethod):
                    monkeypatch.setattr(obj, attr, classmethod(counting(name, value.__func__)))
        elif callable(obj):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is obj:
                        monkeypatch.setattr(mod, attr, counting(name, obj))
    argv = _export_argv(tmp_path)
    assert {a[0] for a in argv} == set(COMMANDS)
    for a in argv:
        assert main(a) == 0, a
    capsys.readouterr()
    exports = {name for name in hampack.__all__ if callable(getattr(hampack, name))}
    assert set(LIBRARY_ONLY) <= exports and not set(LIBRARY_ONLY) & reached
    assert sorted(exports - reached - set(LIBRARY_ONLY)) == []


def outcome(parse, argv, capsys):
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("shape", ["help", "bare", "unknown", "bad"])
def test_one_command_parser_matches_full_parser(command, shape, capsys):
    assert sorted(BAD_VALUE) == sorted(COMMANDS)
    argv = [command] + {"help": ["--help"], "bare": [], "unknown": ["--bogus", "1"],
                        "bad": BAD_VALUE[command]}[shape]
    subparsers = [a for a in build_parser(command)._actions if a.dest == "command"]
    assert list(subparsers[0].choices) == [command]
    full = outcome(build_parser().parse_args, argv, capsys)
    assert isinstance(full[0], int)  # every shape ends inside argparse
    assert outcome(main, argv, capsys) == full


def test_one_command_parser_keeps_the_full_usage_line(tmp_path, capsys):
    argv = ["ham", "--input", str(tmp_path / "g.el"), "stray"]
    full = outcome(build_parser().parse_args, argv, capsys)
    assert "{construct,regeven," in full[2] and "unrecognized arguments: stray" in full[2]
    assert outcome(main, argv, capsys) == full


# A valid call of each command, cheap on K5: the graph commands take
# ``--input`` as well
GRAPH_ARGS = {
    "regeven": [], "factor": ["--r", "2"], "tutte": ["--r", "2", "--exhaustive"],
    "expander": ["--nu", "1/10", "--tau", "2/5"], "orient": [], "extremal": ["--eta", "1/5"],
    "closeness": ["--kind", "bipartite", "--epsilon", "1/5"],
    "classify": ["--kappa", "1/10", "--nu", "1/10", "--tau", "2/5", "--epsilon", "1/5"],
    "ham": [], "pack": ["--target", "2"], "maxpack": [], "decompose": [], "conjecture": [],
}
OTHER_ARGS = {"construct": ["--kind", "cycle", "--n", "5"], "bounds": ["--n", "8", "--delta", "4"],
              "ensemble": ["--experiment", "expansion", "--count", "0"]}


def valid_calls(tmp_path) -> dict[str, list[str]]:
    k5 = tmp_path / "k5.el"
    k5.write_text(format_edge_list(complete_graph(5)))
    calls = {c: [c, "--input", str(k5), *extra] for c, extra in GRAPH_ARGS.items()}
    calls.update({c: [c, *extra] for c, extra in OTHER_ARGS.items()})
    assert sorted(calls) == sorted(COMMANDS)
    return calls


def test_graph_commands_read_their_input_once(tmp_path, capsys, monkeypatch):
    from hampack import edgelist

    k5 = str(tmp_path / "k5.el")
    calls = []
    read = edgelist.read_edge_list
    monkeypatch.setattr(edgelist, "read_edge_list", lambda path: calls.append(path) or read(path))
    for command, argv in valid_calls(tmp_path).items():
        calls.clear()
        code, _ = run(argv, capsys)
        assert code == 0 and calls == ([k5] if command in GRAPH_ARGS else []), command


# ---------------------------------------------------------------------------
# Parser reuse: plain argv builds no parser, and ``main`` builds each
# command's parser once per process for the argv it declines
# ---------------------------------------------------------------------------

def test_each_parser_is_built_once(tmp_path, capsys, monkeypatch):

    assert build_parser() is build_parser()
    for command in COMMANDS:
        assert build_parser(command) is build_parser(command)
    built = []

    def counting_parser(**kwargs):
        built.append(kwargs["prog"])
        return argparse.ArgumentParser(**kwargs)

    monkeypatch.setattr(cli, "argparse", SimpleNamespace(**{**vars(argparse),
                                                             "ArgumentParser": counting_parser}))
    build_parser.cache_clear()
    out = tmp_path / "out"
    for command, argv in valid_calls(tmp_path).items():
        built.clear()
        for _ in range(2):
            assert run(argv, capsys)[0] == 0, command
        assert run([*argv, "--out", str(out)], capsys) == (0, ""), command
        assert built == [], command
        expected = out.read_bytes()
        for _ in range(2):  # declined: argparse reads --flag=value
            out.unlink()
            assert run([*argv, f"--out={out}"], capsys) == (0, ""), command
            assert out.read_bytes() == expected, command
        assert built == ["hampack"], command


# ---------------------------------------------------------------------------
# The plain-argv dispatch against argparse
# ---------------------------------------------------------------------------

def parsed(parse, argv):
    """(namespace or exit code, stdout, stderr) of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# Values each option type takes, and tokens that a type refuses, that
# argparse reads as a flag or a negative number, or that only look odd
VALID_VALUES = {int: ["0", "3", "17"], cli._fraction: ["1/3", "2", "0.25"],
                cli._vertex_list: ["0,1", "5", ""], None: ["g.el", "x"]}
ODD_VALUES = ["", "x", "1/0", "1,x", "1.5", " 7", "٣", "nope", "bipartite",
              "-1", "-3/4", "-x", "-", "--", "--out", "-h"]


@st.composite
def command_argv(draw):
    """A command and an argv of its own flags, with whether it is plain:
    each flag once and in full, each value accepted, the required ones
    all given."""
    command = draw(st.sampled_from(list(COMMANDS)))
    options = dict(cli.COMMON + COMMANDS[command][2])

    def given_once(flag, odd=False):
        """A flag with its value, an odd one if asked, or a switch alone."""
        kwargs = options[flag]
        if kwargs.get("action"):
            return [flag], True
        valid = kwargs.get("choices") or VALID_VALUES[kwargs.get("type")]
        return [flag, draw(st.sampled_from(ODD_VALUES if odd else valid))], not odd

    def piece():
        flag = draw(st.sampled_from(list(options)))
        switch = options[flag].get("action") is not None
        shape = draw(st.sampled_from(["plain", "odd", "=", "prefix", "bare", "other"]))
        if shape == "plain":
            return given_once(flag)
        if shape == "odd":  # a switch with a value, or a valued flag with an odd one
            return ([flag, "1"], False) if switch else given_once(flag, odd=True)
        if shape == "=":
            return [f"{flag}={draw(st.sampled_from(ODD_VALUES + ['3', '1/2']))}"], False
        if shape == "prefix":
            return [flag[:draw(st.integers(1, len(flag) - 1))]], False
        if shape == "bare":
            return [flag], switch
        return [draw(st.sampled_from(["-h", "--help", "stray", "--bogus", "--", "-", "-1"]))], False

    required = [flag for flag, kwargs in options.items() if kwargs.get("required")]
    optional = [flag for flag in options if flag not in required]
    flags = required + draw(st.lists(st.sampled_from(optional), unique=True, max_size=4))
    pieces = [given_once(flag) for flag in flags]
    change = draw(st.sampled_from(["none", "drop", "odd"]))
    if change == "drop":
        pieces = pieces[1:]  # the first required flag goes missing
    elif change == "odd":
        at = draw(st.integers(0, len(pieces) - 1))
        pieces[at] = given_once(flags[at], odd=True)
    pieces += [piece() for _ in range(draw(st.integers(0, 3)))]
    pieces = draw(st.permutations(pieces))
    flags = [tokens[0] for tokens, _ in pieces]
    plain = (all(ok for _, ok in pieces) and len(set(flags)) == len(flags)
             and set(required) <= set(flags))
    return [command, *(token for tokens, _ in pieces for token in tokens)], plain


@settings(max_examples=600, deadline=None)
@given(command_argv())
def test_plain_dispatch_matches_argparse(case):
    # the dispatch reads plain argv as argparse does and declines the rest;
    # on a declined argv that argparse refuses, main answers as argparse alone
    argv, plain = case
    reference = parsed(build_parser(argv[0]).parse_args, argv)
    dispatched = cli._plain_args(argv)
    if plain:
        assert dispatched is not None, argv
    if dispatched is not None:
        assert isinstance(reference[0], argparse.Namespace), argv
        assert vars(dispatched) == vars(reference[0]), argv
    elif not isinstance(reference[0], argparse.Namespace):
        assert parsed(main, argv) == reference, argv


def test_no_state_crosses_calls(tmp_path, capsys):
    calls = valid_calls(tmp_path)
    emit, rec = tmp_path / "f.el", tmp_path / "rec.json"
    assert run([*calls["factor"], "--emit", str(emit)], capsys)[0] == 0
    emit.unlink()
    assert run(calls["factor"], capsys)[0] == 0
    assert not emit.exists()

    assert run([*calls["bounds"], "--record", str(rec)], capsys)[0] == 0
    rec.unlink()
    assert run(calls["bounds"], capsys)[0] == 0
    assert not rec.exists()

    bad = tmp_path / "bad.el"
    bad.write_text("p 3 1\n0 0\n")
    for command, argv in calls.items():
        valid = outcome(main, argv, capsys)
        assert outcome(main, [command, "--bogus"], capsys)[0] == 2
        assert outcome(main, argv, capsys) == valid, command
        if command in GRAPH_ARGS:
            assert outcome(main, [command, "--input", str(bad), *argv[3:]], capsys)[0] == 2
            assert outcome(main, argv, capsys) == valid, command


def test_reused_parser_texts_match_a_fresh_build(capsys, monkeypatch):
    shapes = [[c, *tail] for c in COMMANDS for tail in (["--help"], [], ["--bogus", "1"])]
    shapes += [["--help"], ["nope"], []]
    for width in ("80", "200", "40", "120"):
        monkeypatch.setenv("COLUMNS", width)
        for argv in shapes:
            command = argv[0] if argv and argv[0] in COMMANDS else None
            fresh = outcome(build_parser.__wrapped__(command).parse_args, argv, capsys)
            assert outcome(main, argv, capsys) == fresh, (width, argv)
