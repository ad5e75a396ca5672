"""Command-line front end.

Graphs travel as edge-list text (``p <n> <m>`` header, one ``<u> <v>``
line per edge); orientations are written as arc lists, never read.
Results are JSON with sorted keys and ascending vertex lists, so
identical invocations (same seeds included) produce byte-identical
output.  ``ensemble`` emits CSV with one row per seeded instance plus a
min/max/mean summary row.

Exit codes: 0 success, 2 parse error, 3 capacity error, 4 precondition
violation, 5 internal invariant failure.

Plain argv, ``<command> --flag value ... [--switch]`` with each flag
spelled in full at most once, is read straight from the ``COMMANDS``
table into the namespace argparse would give.  argparse owns help,
usage and every error: any other argv, and any value its check would
refuse, goes to the command's argparse parser unchanged.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
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

#: The most processes ``ensemble --workers`` starts.
MAX_WORKERS = 32


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


def _cert_payload(cert: factors.TutteCertificate) -> dict:
    return {
        "S": sorted(cert.s),
        "T": sorted(cert.t),
        "Qr": cert.q_r,
        "Rr": cert.r_r,
    }


# ---------------------------------------------------------------------------
# Commands: each returns its JSON payload (a dict) or its text output,
# which ``main`` writes to ``--out``.  Commands that declare ``--input``
# get the graph it names as their first argument.
# ---------------------------------------------------------------------------

def cmd_construct(args) -> str:
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
    return edgelist.format_edge_list(g)


def cmd_regeven(g: Graph, args) -> dict:
    r, factor = factors.largest_even_factor(g)
    if args.emit:
        _emit(edgelist.format_rows(g.n, factor.subgraph.rows), args.emit)
    return {"n": g.n, "delta": g.min_degree(), "reg_even": r}


def cmd_bounds(args) -> dict:
    b = factors.regeven_bounds(args.n, args.delta)
    payload = {"n": b.n, "delta": b.delta, "lower": b.lower, "upper": float(b.upper)}
    if b.note:
        payload["note"] = b.note
    return payload


def cmd_factor(g: Graph, args) -> dict:
    decision = factors.r_factor_exists(g, args.r)
    payload = {"exists": decision.exists, "r": args.r}
    if decision.certificate is not None:
        payload["certificate"] = _cert_payload(decision.certificate)
    if decision.note:
        payload["note"] = decision.note
    if decision.exists and args.emit:
        _emit(edgelist.format_rows(g.n, decision.factor.subgraph.rows), args.emit)
    return payload


def cmd_tutte(g: Graph, args) -> dict:
    factors._check_degree(g.n, args.r)
    if args.exhaustive:
        if args.s is not None or args.t is not None:
            raise InputError("tutte --exhaustive checks every pair: drop --s and --t")
        return {"r": args.r, "holds_for_all_pairs": factors.tutte_verify_exhaustive(g, args.r)}
    if args.s is None or args.t is None:
        raise InputError("tutte requires either --exhaustive or both --s and --t")
    cert = factors.tutte_quantities(g, args.r, args.s, args.t)
    return {**_cert_payload(cert), "r": args.r, "violates": cert.violates}


def cmd_expander(g: Graph, args) -> dict:
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
    return payload


def cmd_orient(g: Graph, args) -> str:
    return edgelist.format_arc_list(g.n, expanders.eulerian_orientation(g))


def cmd_extremal(g: Graph, args) -> dict:
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
    return payload


def cmd_closeness(g: Graph, args) -> dict:
    kind = {"bipartite": "bipartite", "cliques": "two_cliques"}[args.kind]
    report = extremality.closeness(g, kind, args.epsilon, seed=args.seed)
    return {
        "kind": args.kind,
        "epsilon": str(report.epsilon),
        "score": report.score,
        "close": report.close,
        "exact": report.exact,
        "A": sorted(report.a),
    }


def cmd_classify(g: Graph, args) -> dict:
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
    return payload


def cmd_ham(g: Graph, args) -> dict:
    cycle = hamilton.find_hamilton(g)
    payload = {"hamiltonian": cycle is not None}
    if cycle is not None:
        payload["cycle"] = list(cycle)
    return payload


def _packing_payload(g: Graph, packing: hamilton.Packing, exact: bool) -> dict:
    return {
        "cycles": [list(c) for c in packing.cycles],
        "count": packing.size,
        "verified": hamilton.verify_packing(g, packing),
        "exact": exact,
    }


def cmd_pack(g: Graph, args) -> dict:
    packing = hamilton.pack_hamilton(g, args.target, budget=args.budget)
    payload = _packing_payload(g, packing, packing.exhaustive)
    payload["target"] = args.target
    payload["achieved"] = packing.size >= args.target
    return payload


def cmd_maxpack(g: Graph, args) -> dict:
    count, packing = hamilton.max_packing_exact(g)
    return {**_packing_payload(g, packing, True), "max": count}


def cmd_decompose(g: Graph, args) -> dict:
    packing, exact = hamilton.decompose_even_regular(g, args.budget)
    if packing is None:
        return {"decomposed": False, "exact": exact}
    return {**_packing_payload(g, packing, packing.exhaustive), "decomposed": True}


def cmd_conjecture(g: Graph, args) -> dict:
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
    return payload


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

def _row_expansion(params: dict, row_seed: int) -> dict:
    rng = random.Random(row_seed)
    ratio = Fraction(params["ratio"])
    for _ in range(10_000):
        n = rng.randint(params["n_min"], params["n_max"])
        g = construct.random_graph(n, params["p"], rng.getrandbits(32))
        if Fraction(g.min_degree()) >= ratio * n:
            break
    else:
        raise InputError("could not sample a graph meeting the degree condition")
    eps = Fraction(params["eps"])
    tau = Fraction(params["tau"])
    verdict = expanders.is_robust_expander_exact(g, expanders.RobustParams(nu=eps * tau / 2, tau=tau))
    return {
        "n": g.n,
        "m": g.m,
        "delta": g.min_degree(),
        "certified": int(verdict.certified),
        "tracked": int(verdict.certified),
    }


def _row_conjecture(params: dict, row_seed: int) -> dict:
    rng = random.Random(row_seed)
    for _ in range(10_000):
        n = rng.randint(params["n_min"], params["n_max"])
        g = construct.random_graph(n, rng.uniform(0.5, 0.95), rng.getrandbits(32))
        if 2 * g.min_degree() >= n:
            break
    else:
        raise InputError("could not sample a graph with delta >= n/2")
    rep = hamilton.conjecture_experiment(g)
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


def cmd_ensemble(args) -> str:
    if args.count < 0:
        raise InputError(f"--count must be >= 0, got {args.count}")
    if not 1 <= args.workers <= MAX_WORKERS:
        raise InputError(f"--workers must be in 1..{MAX_WORKERS}, got {args.workers}")
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
    rng = random.Random(args.seed)
    row_seeds = [rng.getrandbits(32) for _ in range(args.count)]
    columns = ([args.experiment] * args.count, [params] * args.count, range(args.count), row_seeds)
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_run_row, *columns))
    else:
        rows = list(map(_run_row, *columns))

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
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The command table: the one place each command and its options are declared
# ---------------------------------------------------------------------------

def _opt(flag: str, **kwargs) -> tuple[str, dict]:
    return flag, kwargs


INPUT = _opt("--input", required=True)
SEED = _opt("--seed", type=int, default=0)
COMMON = [
    _opt("--out", help="output path (default stdout)"),
    _opt("--record", help="also write a run record (command echo, version, wall time) here; "
         "kept out of the main output so identical seeded runs stay byte-identical"),
]

# name -> (handler, help, options in help order)
COMMANDS = {
    "construct": (cmd_construct, "emit a generated graph as an edge list", [
        _opt("--kind", required=True,
             choices=["babai", "extremal", "complete", "bipartite", "two-cliques", "cycle", "gnp"]),
        _opt("--n", type=int),
        _opt("--delta", type=int),
        _opt("--m", type=int, help="parameter m of the babai construction"),
        _opt("--p", type=_fraction, help="edge probability for gnp"),
        SEED,
    ]),
    "regeven": (cmd_regeven, "largest even-factor degree of a graph", [
        INPUT,
        _opt("--emit", help="write the witness factor as an edge list"),
    ]),
    "bounds": (cmd_bounds, "two-sided bound on reg_even(n, delta)", [
        _opt("--n", type=int, required=True),
        _opt("--delta", type=int, required=True),
    ]),
    "factor": (cmd_factor, "decide r-factor existence with witness/certificate", [
        _opt("--r", type=int, required=True),
        INPUT,
        _opt("--emit", help="write the factor as an edge list when it exists"),
    ]),
    "tutte": (cmd_tutte, "evaluate Tutte quantities or verify all pairs", [
        _opt("--r", type=int, required=True),
        INPUT,
        _opt("--s", type=_vertex_list, help="comma-separated S"),
        _opt("--t", type=_vertex_list, help="comma-separated T"),
        _opt("--exhaustive", action="store_true"),
    ]),
    "expander": (cmd_expander, "certify or refute robust expansion", [
        _opt("--nu", type=_fraction, required=True),
        _opt("--tau", type=_fraction, required=True),
        _opt("--mc", action="store_true",
             help="seeded Monte-Carlo refuter (default: exhaustive subset check)"),
        _opt("--samples", type=int, default=1000),
        SEED,
        INPUT,
    ]),
    "orient": (cmd_orient, "balanced Eulerian orientation as an arc list", [INPUT]),
    "extremal": (cmd_extremal, "eta-extremality check or witness search", [
        _opt("--eta", type=_fraction, required=True),
        INPUT,
        SEED,
        _opt("--restarts", type=int, default=20, help="starts of the local search above n = 14"),
        _opt("--a", type=_vertex_list, help="explicit class A to check"),
        _opt("--b", type=_vertex_list, help="explicit class B to check"),
    ]),
    "closeness": (cmd_closeness, "closeness to K_{n/2,n/2} or two cliques", [
        _opt("--kind", required=True, choices=["bipartite", "cliques"]),
        _opt("--epsilon", type=_fraction, required=True),
        SEED,
        INPUT,
    ]),
    "classify": (cmd_classify, "closeness/expansion trichotomy", [
        _opt("--kappa", type=_fraction, required=True),
        _opt("--nu", type=_fraction, required=True),
        _opt("--tau", type=_fraction, required=True),
        _opt("--epsilon", type=_fraction, required=True),
        SEED,
        INPUT,
    ]),
    "ham": (cmd_ham, "find one Hamilton cycle", [INPUT]),
    "pack": (cmd_pack, "pack edge-disjoint Hamilton cycles", [
        INPUT,
        _opt("--target", type=int, required=True),
        _opt("--budget", type=int, default=500_000),
    ]),
    "maxpack": (cmd_maxpack, "exact maximum Hamilton packing (n <= 12)", [INPUT]),
    "decompose": (cmd_decompose, "Hamilton decomposition of an even-regular graph", [
        INPUT,
        _opt("--budget", type=int),
    ]),
    "conjecture": (cmd_conjecture, "packing-vs-even-factor laws on one graph", [INPUT]),
    "ensemble": (cmd_ensemble, "seeded experiment ensemble as CSV", [
        _opt("--experiment", required=True, choices=sorted(_EXPERIMENTS)),
        _opt("--count", type=int, required=True),
        SEED,
        _opt("--n-min", type=int, help="default: 8 (expansion), 6 (conjecture)"),
        _opt("--n-max", type=int, help="default: 18 (expansion), 10 (conjecture)"),
        _opt("--p", type=_fraction, default=Fraction(17, 20)),
        _opt("--ratio", type=_fraction, default=Fraction(7, 10)),
        _opt("--eps", type=_fraction, default=Fraction(1, 5)),
        _opt("--tau", type=_fraction, default=Fraction(1, 2)),
        _opt("--workers", type=int, default=1),
    ]),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.  The
    one-command parser names the full command list in its usage, so its
    help and error texts are those of the full parser.

    ``main`` asks for a parser only for argv that ``_plain_args``
    declines.  Each parser is built once per process and reused, so
    ``main`` can be called repeatedly in one process at the cost of at
    most one build per command.  Reuse carries nothing between calls:
    ``parse_args`` returns a fresh namespace each time, and argparse
    reads the terminal width when it formats help and usage, not when it
    builds the parser."""
    parser = argparse.ArgumentParser(
        prog="hampack",
        description="Even factors, robust expansion and Hamilton cycle packing at desk scale.",
    )
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        fn, help_text, options = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for flag, kwargs in COMMON + options:
            p.add_argument(flag, **kwargs)
    return parser


#: Each command's options by flag, ``COMMON`` first: the order argparse sets dests in.
_OPTIONS = {name: dict(COMMON + options) for name, (_, _, options) in COMMANDS.items()}


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser(argv[0]).parse_args(argv)`` returns,
    for argv of the plain form (module docstring); None for any other
    argv, and for a value that its option's type or choices refuse."""
    options = _OPTIONS.get(argv[0]) if argv else None
    if options is None:
        return None
    given = {}
    i, end = 1, len(argv)
    while i < end:
        flag = argv[i]
        kwargs = options.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            i += 1
            continue
        if i + 1 == end or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
        i += 2
    args = argparse.Namespace(command=argv[0])
    for flag, kwargs in options.items():
        if flag in given:
            value = given[flag]
        elif kwargs.get("required"):
            return None
        else:
            value = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), value)
    args.fn = COMMANDS[argv[0]][0]
    return args


def _write_record(args, argv: list[str], elapsed: float) -> None:
    from . import __version__

    record = {
        "command": args.command,
        "argv": argv,
        "version": __version__,
        "wall_time_s": round(elapsed, 6),
    }
    with open(args.record, "w") as fh:
        json.dump(record, fh, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        command = argv[0] if argv and argv[0] in COMMANDS else None
        args = build_parser(command).parse_args(argv)
    try:
        t0 = time.perf_counter()
        # random.Random would drop a negative seed's sign, numpy refuses it
        if "seed" in args and args.seed < 0:
            raise InputError(f"--seed must be >= 0, got {args.seed}")
        if "input" in args:
            result = args.fn(edgelist.read_edge_list(args.input), args)
        else:
            result = args.fn(args)
        if isinstance(result, dict):
            result = json.dumps(result, sort_keys=True) + "\n"
        _emit(result, args.out)
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
