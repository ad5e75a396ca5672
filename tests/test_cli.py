import json

import pytest

from oracles import cliques_sharing_a_vertex, generalized_petersen

from hampack import hamilton
from hampack.cli import main
from hampack.core import Graph
from hampack.edgelist import format_edge_list, parse_edge_list, read_edge_list
from hampack.construct import babai_graph, complete_graph, random_graph


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


@pytest.mark.parametrize("command,flags", [
    (["expander", "--nu", "1/10", "--tau", "2/5"], ["--exact", "--mc"]),
    (["extremal", "--eta", "1/5"], ["--exact", "--heuristic"]),
])
def test_conflicting_mode_flags_exit_2(tmp_path, capsys, command, flags):
    tc = tmp_path / "tc.el"
    run(["construct", "--kind", "two-cliques", "--n", "8", "--out", str(tc)], capsys)
    code, out = run(command + flags[:1] + ["--input", str(tc)], capsys)
    assert code == 0 and json.loads(out)
    with pytest.raises(SystemExit) as exc:
        main(command + flags + ["--input", str(tc)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_orient_cli(tmp_path, capsys):
    k5 = tmp_path / "k5.el"
    k5.write_text(format_edge_list(complete_graph(5)))
    code, out = run(["orient", "--input", str(k5)], capsys)
    assert code == 0
    from hampack.edgelist import parse_arc_list

    d = parse_arc_list(out)
    assert all(d.out_degree(v) == 2 for v in range(5))


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


def test_classify_cli(tmp_path, capsys):
    path = tmp_path / "kb.el"
    run(["construct", "--kind", "bipartite", "--n", "16", "--out", str(path)], capsys)
    code, out = run(["classify", "--kappa", "1/20", "--nu", "1/20", "--tau", "1/4",
                     "--epsilon", "1/20", "--input", str(path)], capsys)
    assert code == 0 and json.loads(out)["label"] == "close_bipartite"


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


def test_ensemble_worker_pool_matches_sequential(tmp_path, capsys):
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    args = ["ensemble", "--experiment", "expansion", "--count", "4", "--seed", "8",
            "--n-min", "8", "--n-max", "10"]
    run(args + ["--out", str(seq)], capsys)
    run(args + ["--workers", "2", "--out", str(par)], capsys)
    assert seq.read_bytes() == par.read_bytes()


def test_run_record_written(tmp_path, capsys):
    rec = tmp_path / "rec.json"
    out = tmp_path / "b.json"
    code, _ = run(["bounds", "--n", "8", "--delta", "4",
                   "--out", str(out), "--record", str(rec)], capsys)
    assert code == 0
    payload = json.loads(rec.read_text())
    assert payload["command"] == "bounds"
    assert "wall_time_s" in payload and "version" in payload
