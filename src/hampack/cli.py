"""Command-line front end.

Graphs travel as edge-list text (``p <n> <m>`` header, one ``<u> <v>``
line per edge); orientations as arc lists.  Results are JSON with
sorted keys and ascending vertex lists, so identical invocations (same
seeds included) produce byte-identical output.  ``ensemble`` emits CSV
with one row per seeded instance plus a min/max/mean summary row.

Exit codes: 0 success, 2 parse error, 3 capacity error, 4 precondition
violation, 5 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import construct, edgelist, expanders, extremality, factors, hamilton
from .core import Graph, Partition
from .errors import (
    CapacityError,
    HampackError,
    InputError,
    InternalError,
    ParseError,
)

EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})") from None


def _vertex_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text!r}") from None


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_json(payload: dict, path: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True) + "\n", path)


def _cert_payload(cert: factors.TutteCertificate | None):
    if cert is None:
        return None
    return {
        "S": sorted(cert.s),
        "T": sorted(cert.t),
        "Qr": cert.q_r,
        "Rr": cert.r_r,
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_construct(args) -> None:
    kind = args.kind
    if kind == "babai":
        if args.m is None:
            raise InputError("construct --kind babai requires --m")
        g = construct.babai_graph(args.m)
    elif kind == "extremal":
        if args.n is None or args.delta is None:
            raise InputError("construct --kind extremal requires --n and --delta")
        g, _, _ = construct.extremal_graph(args.n, args.delta)
    elif kind == "gnp":
        if args.n is None or args.p is None:
            raise InputError("construct --kind gnp requires --n and --p")
        g = construct.random_graph(args.n, float(args.p), args.seed)
    else:
        if args.n is None:
            raise InputError(f"construct --kind {kind} requires --n")
        name = {"bipartite": "complete_bipartite", "two-cliques": "two_cliques"}.get(kind, kind)
        g = construct.reference_graph(args.n, name)
    _emit(edgelist.format_edge_list(g), args.out)


def cmd_regeven(args) -> None:
    g = edgelist.read_edge_list(args.input)
    r, factor = factors.largest_even_factor(g)
    payload = {"n": g.n, "delta": g.min_degree(), "reg_even": r}
    if args.emit:
        _emit(edgelist.format_edge_list(factor.subgraph.to_graph()), args.emit)
    _emit_json(payload, args.out)


def cmd_bounds(args) -> None:
    b = factors.regeven_bounds(args.n, args.delta)
    payload = {"n": b.n, "delta": b.delta, "lower": b.lower, "upper": float(b.upper)}
    if b.note:
        payload["note"] = b.note
    _emit_json(payload, args.out)


def cmd_factor(args) -> None:
    g = edgelist.read_edge_list(args.input)
    decision = factors.r_factor_exists(g, args.r)
    payload = {"exists": decision.exists, "r": args.r}
    if decision.certificate is not None:
        payload["certificate"] = _cert_payload(decision.certificate)
    if decision.note:
        payload["note"] = decision.note
    if decision.exists and args.emit:
        _emit(edgelist.format_edge_list(decision.factor.subgraph.to_graph()), args.emit)
    _emit_json(payload, args.out)


def cmd_tutte(args) -> None:
    g = edgelist.read_edge_list(args.input)
    if args.exhaustive:
        holds = factors.tutte_verify_exhaustive(g, args.r)
        _emit_json({"r": args.r, "holds_for_all_pairs": holds}, args.out)
        return
    if args.s is None or args.t is None:
        raise InputError("tutte requires either --exhaustive or both --s and --t")
    cert = factors.tutte_quantities(g, args.r, args.s, args.t)
    payload = _cert_payload(cert)
    payload["r"] = args.r
    payload["violates"] = cert.violates
    _emit_json(payload, args.out)


def cmd_expander(args) -> None:
    g = edgelist.read_edge_list(args.input)
    params = expanders.RobustParams(args.nu, args.tau)
    if args.mc:
        verdict = expanders.refute_robust_expander_mc(
            g, params, samples=args.samples, seed=args.seed
        )
    else:
        verdict = expanders.is_robust_expander_exact(g, params)
    payload = {
        "certified": verdict.certified,
        "mode": verdict.checked_mode,
        "samples": verdict.samples,
        "nu": str(params.nu),
        "tau": str(params.tau),
    }
    if verdict.witness is not None:
        payload["witness"] = sorted(verdict.witness)
    else:
        payload["inconclusive"] = verdict.inconclusive
    _emit_json(payload, args.out)


def cmd_orient(args) -> None:
    g = edgelist.read_edge_list(args.input)
    d = expanders.eulerian_orientation(g)
    _emit(edgelist.format_arc_list(d), args.emit or args.out)


def cmd_extremal(args) -> None:
    g = edgelist.read_edge_list(args.input)
    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise InputError("provide both --a and --b, or neither")
        part = Partition(frozenset(args.a), frozenset(args.b))
        report = extremality.check_eta_extremal_pair(g, args.eta, part)
    else:
        report = extremality.find_eta_extremal_witness(
            g, args.eta, seed=args.seed, restarts=args.restarts
        )
    payload = {
        "eta": str(report.eta),
        "alpha": str(report.alpha),
        "mode": report.mode,
        "extremal": report.extremal,
        "conditions": {
            "E1": report.e1,
            "E2": report.e2,
            "E3": report.e3,
            "E4": report.e4,
        },
        "quantities": report.quantities,
    }
    if report.partition is not None:
        payload["A"] = sorted(report.partition.a)
        payload["B"] = sorted(report.partition.b)
    _emit_json(payload, args.out)


def cmd_closeness(args) -> None:
    g = edgelist.read_edge_list(args.input)
    kind = {"bipartite": "bipartite", "cliques": "two_cliques"}[args.kind]
    report = extremality.closeness(g, kind, args.epsilon, seed=args.seed)
    payload = {
        "kind": args.kind,
        "epsilon": str(report.epsilon),
        "score": report.score,
        "close": report.close,
        "exact": report.exact,
        "A": sorted(report.a),
    }
    _emit_json(payload, args.out)


def cmd_classify(args) -> None:
    g = edgelist.read_edge_list(args.input)
    result = extremality.trichotomy_classify(
        g, args.kappa, args.nu, args.tau, args.epsilon, seed=args.seed
    )
    payload = {"label": result.label}
    if result.bipartite is not None:
        payload["bipartite_score"] = result.bipartite.score
        payload["bipartite_close"] = result.bipartite.close
    if result.cliques is not None:
        payload["cliques_score"] = result.cliques.score
        payload["cliques_close"] = result.cliques.close
    if result.expander is not None:
        payload["expander_certified"] = result.expander.certified
        payload["expander_mode"] = result.expander.checked_mode
        if result.expander.witness is not None:
            payload["expander_witness"] = sorted(result.expander.witness)
    _emit_json(payload, args.out)


def cmd_ham(args) -> None:
    g = edgelist.read_edge_list(args.input)
    cycle = hamilton.find_hamilton(g)
    payload = {"hamiltonian": cycle is not None}
    if cycle is not None:
        payload["cycle"] = list(cycle)
    _emit_json(payload, args.out)


def _packing_payload(g: Graph, packing: hamilton.Packing, exact: bool) -> dict:
    return {
        "cycles": [list(c) for c in packing.cycles],
        "count": packing.size,
        "verified": hamilton.verify_packing(g, packing),
        "exact": exact,
    }


def cmd_pack(args) -> None:
    g = edgelist.read_edge_list(args.input)
    packing = hamilton.pack_hamilton(g, args.target, budget=args.budget)
    payload = _packing_payload(g, packing, packing.exhaustive)
    payload["target"] = args.target
    payload["achieved"] = packing.size >= args.target
    _emit_json(payload, args.out)


def cmd_maxpack(args) -> None:
    g = edgelist.read_edge_list(args.input)
    count, packing = hamilton.max_packing_exact(g)
    payload = _packing_payload(g, packing, True)
    payload["max"] = count
    _emit_json(payload, args.out)


def cmd_decompose(args) -> None:
    g = edgelist.read_edge_list(args.input)
    packing = hamilton.decompose_even_regular(g, budget=args.budget)
    if packing is None:
        _emit_json({"decomposed": False}, args.out)
        return
    payload = _packing_payload(g, packing, packing.exhaustive)
    payload["decomposed"] = True
    _emit_json(payload, args.out)


def cmd_conjecture(args) -> None:
    g = edgelist.read_edge_list(args.input)
    report = hamilton.conjecture_experiment(g)
    payload = {
        "n": report.n,
        "delta": report.delta,
        "reg_even": report.reg_even,
        "bound_lower": report.bounds.lower,
        "bound_upper": float(report.bounds.upper),
        "max_packing": report.max_packing,
        "graph_law_ok": report.graph_law_ok,
        "class_law_ok": report.class_law_ok,
    }
    if report.counterexample is not None:
        payload["counterexample_edge_list"] = report.counterexample
    _emit_json(payload, args.out)


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

def _row_expansion(params: dict, row_seed: int) -> dict:
    import random as _random

    from .construct import random_graph
    from .expanders import RobustParams, is_robust_expander_exact

    rng = _random.Random(row_seed)
    ratio = Fraction(params["ratio"])
    for _ in range(10_000):
        n = rng.randint(params["n_min"], params["n_max"])
        g = random_graph(n, params["p"], rng.getrandbits(32))
        if Fraction(g.min_degree()) >= ratio * n:
            break
    else:
        raise InputError("could not sample a graph meeting the degree condition")
    eps = Fraction(params["eps"])
    tau = Fraction(params["tau"])
    verdict = is_robust_expander_exact(g, RobustParams(nu=eps * tau / 2, tau=tau))
    return {
        "n": g.n,
        "m": g.m,
        "delta": g.min_degree(),
        "certified": int(verdict.certified),
        "tracked": int(verdict.certified),
    }


def _row_conjecture(params: dict, row_seed: int) -> dict:
    import random as _random

    from .construct import random_graph
    from .hamilton import conjecture_experiment

    rng = _random.Random(row_seed)
    for _ in range(10_000):
        n = rng.randint(params["n_min"], params["n_max"])
        g = random_graph(n, rng.uniform(0.5, 0.95), rng.getrandbits(32))
        if 2 * g.min_degree() >= n:
            break
    else:
        raise InputError("could not sample a graph with delta >= n/2")
    rep = conjecture_experiment(g)
    return {
        "n": rep.n,
        "m": g.m,
        "delta": rep.delta,
        "reg_even": rep.reg_even,
        "bound_lower": rep.bounds.lower,
        "max_packing": rep.max_packing,
        "graph_law_ok": int(rep.graph_law_ok),
        "class_law_ok": int(rep.class_law_ok),
        "tracked": rep.max_packing,
    }


_EXPERIMENTS = {
    "expansion": (
        _row_expansion,
        ["index", "seed", "n", "m", "delta", "certified", "error"],
    ),
    "conjecture": (
        _row_conjecture,
        [
            "index",
            "seed",
            "n",
            "m",
            "delta",
            "reg_even",
            "bound_lower",
            "max_packing",
            "graph_law_ok",
            "class_law_ok",
            "error",
        ],
    ),
}


def _run_row(experiment: str, params: dict, index: int, row_seed: int) -> dict:
    fn = _EXPERIMENTS[experiment][0]
    try:
        row = fn(params, row_seed)
        row["error"] = ""
    except HampackError as exc:
        row = {"error": str(exc)}
    row["index"] = index
    row["seed"] = row_seed
    return row


def cmd_ensemble(args) -> None:
    import random as _random

    if args.experiment not in _EXPERIMENTS:
        raise InputError(f"unknown experiment {args.experiment!r}")
    _, header = _EXPERIMENTS[args.experiment]
    default_window = {"expansion": (8, 18), "conjecture": (6, 10)}[args.experiment]
    n_min = args.n_min if args.n_min is not None else default_window[0]
    n_max = args.n_max if args.n_max is not None else default_window[1]
    if n_min > n_max:
        raise InputError(f"empty size window {n_min}..{n_max}")
    params = {
        "n_min": n_min,
        "n_max": n_max,
        "p": float(args.p),
        "ratio": str(args.ratio),
        "eps": str(args.eps),
        "tau": str(args.tau),
    }
    rng = _random.Random(args.seed)
    row_seeds = [rng.getrandbits(32) for _ in range(args.count)]
    jobs = [(args.experiment, params, i, s) for i, s in enumerate(row_seeds)]
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_run_row_star, jobs))
    else:
        rows = [_run_row_star(job) for job in jobs]
    rows.sort(key=lambda r: r["index"])

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row.get(col, "")) for col in header))
    if rows:
        tracked = [row["tracked"] for row in rows if not row["error"] and "tracked" in row]
        if tracked:
            mean = sum(tracked) / len(tracked)
            summary = f"summary,,min={min(tracked)},max={max(tracked)},mean={mean:.6f}"
        else:
            summary = "summary,,min=,max=,mean="
        lines.append(summary)
    _emit("\n".join(lines) + "\n", args.out)


def _run_row_star(job) -> dict:
    return _run_row(*job)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hampack",
        description="Even factors, robust expansion and Hamilton cycle packing at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument(
            "--record",
            default=None,
            help="also write a run record (command echo, version, wall time) here; "
            "kept out of the main output so identical seeded runs stay byte-identical",
        )
        return p

    p = add("construct", cmd_construct, help="emit a generated graph as an edge list")
    p.add_argument("--kind", required=True,
                   choices=["babai", "extremal", "complete", "bipartite", "two-cliques", "cycle", "gnp"])
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--m", type=int, help="parameter m of the babai construction")
    p.add_argument("--p", type=_fraction, help="edge probability for gnp")
    p.add_argument("--seed", type=int, default=0)

    p = add("regeven", cmd_regeven, help="largest even-factor degree of a graph")
    p.add_argument("--input", required=True)
    p.add_argument("--emit", help="write the witness factor as an edge list")

    p = add("bounds", cmd_bounds, help="two-sided bound on reg_even(n, delta)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)

    p = add("factor", cmd_factor, help="decide r-factor existence with witness/certificate")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--emit", help="write the factor as an edge list when it exists")

    p = add("tutte", cmd_tutte, help="evaluate Tutte quantities or verify all pairs")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--s", type=_vertex_list, help="comma-separated S")
    p.add_argument("--t", type=_vertex_list, help="comma-separated T")
    p.add_argument("--exhaustive", action="store_true")

    p = add("expander", cmd_expander, help="certify or refute robust expansion")
    p.add_argument("--nu", type=_fraction, required=True)
    p.add_argument("--tau", type=_fraction, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=False,
                      help="exhaustive subset check (the default)")
    mode.add_argument("--mc", action="store_true", default=False,
                      help="seeded Monte-Carlo refuter")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", required=True)

    p = add("orient", cmd_orient, help="balanced Eulerian orientation as an arc list")
    p.add_argument("--input", required=True)
    p.add_argument("--emit", help="output path for the arc list")

    p = add("extremal", cmd_extremal, help="eta-extremality check or witness search")
    p.add_argument("--eta", type=_fraction, required=True)
    p.add_argument("--input", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=False,
                      help="the default: exact search for n <= 14, local search above")
    mode.add_argument("--heuristic", action="store_true", default=False,
                      help="also the default: exact search for n <= 14, local search above")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=20,
                   help="starts of the local search above n = 14")
    p.add_argument("--a", type=_vertex_list, help="explicit class A to check")
    p.add_argument("--b", type=_vertex_list, help="explicit class B to check")

    p = add("closeness", cmd_closeness, help="closeness to K_{n/2,n/2} or two cliques")
    p.add_argument("--kind", required=True, choices=["bipartite", "cliques"])
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", required=True)

    p = add("classify", cmd_classify, help="closeness/expansion trichotomy")
    p.add_argument("--kappa", type=_fraction, required=True)
    p.add_argument("--nu", type=_fraction, required=True)
    p.add_argument("--tau", type=_fraction, required=True)
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", required=True)

    p = add("ham", cmd_ham, help="find one Hamilton cycle")
    p.add_argument("--input", required=True)

    p = add("pack", cmd_pack, help="pack edge-disjoint Hamilton cycles")
    p.add_argument("--input", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--budget", type=int, default=500_000)

    p = add("maxpack", cmd_maxpack, help="exact maximum Hamilton packing (n <= 12)")
    p.add_argument("--input", required=True)

    p = add("decompose", cmd_decompose, help="Hamilton decomposition of an even-regular graph")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, default=None)

    p = add("conjecture", cmd_conjecture, help="packing-vs-even-factor laws on one graph")
    p.add_argument("--input", required=True)

    p = add("ensemble", cmd_ensemble, help="seeded experiment ensemble as CSV")
    p.add_argument("--experiment", required=True, choices=sorted(_EXPERIMENTS))
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-min", type=int, default=None,
                   help="default: 8 (expansion), 6 (conjecture)")
    p.add_argument("--n-max", type=int, default=None,
                   help="default: 18 (expansion), 10 (conjecture)")
    p.add_argument("--p", type=_fraction, default=Fraction(17, 20))
    p.add_argument("--ratio", type=_fraction, default=Fraction(7, 10))
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 5))
    p.add_argument("--tau", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--workers", type=int, default=1)

    return parser


def _write_record(args, argv, elapsed: float) -> None:
    from . import __version__

    record = {
        "command": args.command,
        "argv": list(argv) if argv is not None else sys.argv[1:],
        "version": __version__,
        "wall_time_s": round(elapsed, 6),
    }
    with open(args.record, "w") as fh:
        json.dump(record, fh, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    import time

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        t0 = time.perf_counter()
        args.fn(args)
        if args.record:
            _write_record(args, argv, time.perf_counter() - t0)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return 0


if __name__ == "__main__":
    sys.exit(main())
