"""Output checks for the benchmark, written from the definitions.

Nothing here imports hampack: every quantity a command prints is
recomputed with this module's own graph code and integer arithmetic.
Each check returns None when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb


class Graph:
    """Simple undirected graph on 0..n-1 with bitmask adjacency rows."""

    def __init__(self, n: int, edges):
        self.n = n
        self.adj = [0] * n
        self.edges = set()
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge {u} {v}")
            e = (u, v) if u < v else (v, u)
            if e in self.edges:
                raise ValueError(f"repeated edge {u} {v}")
            self.edges.add(e)
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        return min(self.degree(v) for v in range(self.n))

    def edge_list_text(self) -> str:
        lines = [f"p {self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in sorted(self.edges))
        return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    n = m = None
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "p":
            n, m = int(parts[1]), int(parts[2])
        else:
            edges.append((int(parts[0]), int(parts[1])))
    if n is None or m != len(edges):
        raise ValueError("malformed edge list")
    return Graph(n, edges)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


# ---------------------------------------------------------------------------
# The quantities of the paper, from their definitions
# ---------------------------------------------------------------------------

def regeven_lower(n: int, delta: int) -> int:
    """Largest even L strictly below (delta + sqrt(n(2 delta - n) + 8)) / 2."""
    if 2 * delta < n:
        return 0
    x = n * (2 * delta - n) + 8
    L = delta + 2 - delta % 2
    while not (2 * L - delta < 0 or (2 * L - delta) ** 2 < x):
        L -= 2
    return max(L, 0)


def regeven_upper_admits(n: int, delta: int, r: int) -> bool:
    """r <= (delta + s) / 2 + 4 / (s + 4) with s = sqrt(n(2 delta - n)),
    decided by squaring: (c - 4) s <= x + 8 - 4c where c = 2r - delta."""
    x = n * (2 * delta - n)
    c = 2 * r - delta
    a, b = c - 4, x + 8 - 4 * c
    if a <= 0:
        return b >= 0 or a * a * x >= b * b
    return b >= 0 and a * a * x <= b * b


def tutte_pair(g: Graph, r: int, s, t) -> tuple[int, int]:
    """(Q_r, R_r) of a disjoint pair: Q_r counts components C of
    G - (S u T) with r|C| + e(C, T) odd; R_r = sum_T d(v) - e(S, T)
    + r(|S| - |T|)."""
    smask, tmask = _mask(s), _mask(t)
    rest = ((1 << g.n) - 1) & ~smask & ~tmask
    q = 0
    while rest:
        start = (rest & -rest).bit_length() - 1
        comp = frontier = 1 << start
        while frontier:
            grow = 0
            for v in _bits(frontier):
                grow |= g.adj[v]
            frontier = grow & rest & ~comp
            comp |= frontier
        rest &= ~comp
        e_ct = sum((g.adj[v] & tmask).bit_count() for v in _bits(comp))
        q += (r * comp.bit_count() + e_ct) % 2
    r_r = sum(g.degree(v) for v in _bits(tmask))
    r_r -= sum((g.adj[v] & tmask).bit_count() for v in _bits(smask))
    r_r += r * (smask.bit_count() - tmask.bit_count())
    return q, r_r


def robust_nbhd_size(g: Graph, s, nu: Fraction) -> int:
    """|RN_nu(S)|: vertices with at least nu*n neighbours in S."""
    smask = _mask(s)
    need = nu * g.n
    return sum(1 for v in range(g.n) if (g.adj[v] & smask).bit_count() >= need)


def size_window(n: int, tau: Fraction) -> tuple[int, int]:
    lo = tau * n
    hi = (1 - tau) * n
    return -((-lo.numerator) // lo.denominator), hi.numerator // hi.denominator


def closeness_score(g: Graph, kind: str, a) -> int:
    """e(A) for the bipartite family, e(A, V - A) for two cliques."""
    amask = _mask(a)
    if kind == "bipartite":
        return sum((g.adj[v] & amask).bit_count() for v in _bits(amask)) // 2
    return sum((g.adj[v] & ~amask).bit_count() for v in _bits(amask))


def brute_max_packing(g: Graph) -> int:
    """Maximum number of edge-disjoint Hamilton cycles, by listing every
    Hamilton cycle as an edge set and searching for disjoint families."""
    n = g.n
    index = {e: i for i, e in enumerate(sorted(g.edges))}
    cycles = []
    path = [0]

    def extend(v: int, used: int) -> None:
        if len(path) == n:
            if g.adj[v] & 1 and path[1] < path[-1]:
                emask = 0
                for i in range(n):
                    a, b = path[i], path[(i + 1) % n]
                    emask |= 1 << index[(a, b) if a < b else (b, a)]
                cycles.append(emask)
            return
        for u in _bits(g.adj[v] & ~used):
            path.append(u)
            extend(u, used | 1 << u)
            path.pop()

    extend(0, 1)
    cap = min(g.min_degree() // 2, g.m // n)

    def best(start: int, taken: int, depth: int) -> int:
        top = depth
        for i in range(start, len(cycles)):
            if not cycles[i] & taken:
                top = max(top, best(i + 1, taken | cycles[i], depth + 1))
                if top >= cap:
                    return top
        return top

    return best(0, 0, 0) if cycles else 0


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------

def _is_factor(host: Graph, sub: Graph, r: int) -> str | None:
    if sub.n != host.n:
        return f"factor has {sub.n} vertices, host {host.n}"
    if not sub.edges <= host.edges:
        return "factor uses a non-edge of the input"
    if any(sub.degree(v) != r for v in range(sub.n)):
        return f"factor is not {r}-regular"
    return None


def check_regeven(meta: dict, host: Graph, out: dict, emit: str | None) -> str | None:
    n, delta, r = host.n, host.min_degree(), out.get("reg_even")
    if (out.get("n"), out.get("delta")) != (n, delta):
        return "wrong n or delta"
    if not isinstance(r, int) or r % 2 or not 0 <= r <= delta:
        return f"reg_even {r!r} is not an even degree <= delta"
    if r < regeven_lower(n, delta):
        return f"reg_even {r} below lower({n}, {delta})"
    if meta["family"] == "extremal" and not regeven_upper_admits(n, delta, r):
        return f"reg_even {r} above upper({n}, {delta})"
    if emit is None:
        return "no emitted factor"
    return _is_factor(host, parse_edge_list(emit), r)


def check_factor(meta: dict, host: Graph, out: dict, emit: str | None) -> str | None:
    r = meta["r"]
    if out.get("r") != r:
        return "wrong r"
    expected = meta.get("expect")
    if expected is not None and out.get("exists") is not expected:
        return f"expected exists={expected}"
    if out.get("exists") is True:
        if emit is None:
            return "yes without an emitted factor"
        return _is_factor(host, parse_edge_list(emit), r)
    if out.get("exists") is not False:
        return "no verdict"
    cert = out.get("certificate")
    if cert is None:
        return None if (r * host.n) % 2 else "no without a certificate"
    s, t = set(cert["S"]), set(cert["T"])
    if s & t or not s | t <= set(range(host.n)):
        return "S and T are not disjoint vertex sets"
    q, rr = tutte_pair(host, r, s, t)
    if not q > rr:
        return f"(S, T) does not violate: Q_r={q}, R_r={rr}"
    if (cert["Qr"], cert["Rr"]) != (q, rr):
        return "printed Q_r, R_r differ from their definition"
    return None


def check_conjecture(meta: dict, host: Graph, out: dict, emit: str | None) -> str | None:
    n, delta = host.n, host.min_degree()
    k, reg = out.get("max_packing"), out.get("reg_even")
    if (out.get("n"), out.get("delta")) != (n, delta):
        return "wrong n or delta"
    if not isinstance(k, int) or not 1 <= k <= delta // 2:
        return f"max_packing {k!r} outside 1..floor(delta/2)"
    if not isinstance(reg, int) or reg % 2 or 2 * k > reg or reg > delta:
        return f"reg_even {reg!r} inconsistent with max_packing {k}"
    if out.get("bound_lower") != regeven_lower(n, delta):
        return "bound_lower differs from lower(n, delta)"
    if out.get("graph_law_ok") is not (2 * k >= reg):
        return "graph_law_ok disagrees with the printed numbers"
    if out.get("class_law_ok") is not (2 * k >= out["bound_lower"]):
        return "class_law_ok disagrees with the printed numbers"
    want = meta.get("max_packing")
    if want is not None and k != want:
        return f"max_packing {k}, brute force or construction gives {want}"
    return None


def check_expander(meta: dict, host: Graph, out: dict, emit: str | None) -> str | None:
    nu, tau = Fraction(meta["nu"]), Fraction(meta["tau"])
    lo, hi = size_window(host.n, tau)
    witness = out.get("witness")
    if meta["mode"] == "mc":
        if out.get("certified") is not False or out.get("mode") != "monte_carlo":
            return "a Monte-Carlo run certified"
    elif out.get("certified"):
        if witness is not None:
            return "certified with a witness"
        window = sum(comb(host.n, k) for k in range(lo, hi + 1))
        if out.get("samples") != window:
            return f"certified after {out.get('samples')} of {window} subsets"
    if meta.get("expect") == "certified" and not out.get("certified"):
        return "a graph with delta >= (1/2 + eps) n was not certified"
    if meta.get("expect") == "refuted" and witness is None:
        return "a planted two-cluster graph was not refuted"
    if witness is not None:
        if not lo <= len(witness) <= hi or len(set(witness)) != len(witness):
            return "witness outside the size window"
        if robust_nbhd_size(host, witness, nu) >= len(witness) + nu * host.n:
            return "witness expands: |RN(S)| >= |S| + nu n"
    return None


def check_closeness(meta: dict, host: Graph, out: dict, emit: str | None) -> str | None:
    a = out.get("A", [])
    if len(set(a)) != host.n // 2 or len(a) != host.n // 2:
        return "|A| != floor(n/2)"
    score = closeness_score(host, meta["kind"], a)
    if out.get("score") != score:
        return f"printed score {out.get('score')} but A scores {score}"
    planted = meta.get("planted")
    if planted is not None and score > closeness_score(host, meta["kind"], planted):
        return "score above the planted partition's"
    return None


def check_construct(meta: dict, host: Graph, out: str, emit: str | None) -> str | None:
    if parse_edge_list(out).edges != host.edges:
        return "constructed graph differs from the definition"
    return None


CHECKS = {
    "regeven": check_regeven,
    "factor": check_factor,
    "conjecture": check_conjecture,
    "expander": check_expander,
    "closeness": check_closeness,
    "construct": check_construct,
}


def check_output(kind: str, meta: dict, host: Graph, out_text: str, emit: str | None) -> str | None:
    try:
        out = out_text if kind == "construct" else json.loads(out_text)
        return CHECKS[kind](meta, host, out, emit)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"


# ---------------------------------------------------------------------------
# Self-tests: every checker must reject a broken output
# ---------------------------------------------------------------------------

def self_test() -> list[str]:
    """Feed each checker a broken output; return the ones it let through."""
    missed = []
    k6 = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    hexagon = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    good = {"exists": True, "r": 2}
    if check_factor({"r": 2}, k6, good, hexagon.edge_list_text()) is not None:
        missed.append("factor: a valid 2-factor was rejected")
    dropped = Graph(6, sorted(hexagon.edges)[1:])
    if check_factor({"r": 2}, k6, good, dropped.edge_list_text()) is None:
        missed.append("factor: a factor with one edge dropped passed")

    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    q, rr = tutte_pair(star, 1, {0}, set())
    cert = {"exists": False, "r": 1, "certificate": {"S": [0], "T": [], "Qr": q, "Rr": rr}}
    if check_factor({"r": 1}, star, cert, None) is not None:
        missed.append("factor: a valid (S, T) was rejected")
    swapped = {"exists": False, "r": 1, "certificate": {"S": [], "T": [0], "Qr": q, "Rr": rr}}
    if check_factor({"r": 1}, star, swapped, None) is None:
        missed.append("factor: an (S, T) with S and T swapped passed")

    k8 = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
    meta = {"mode": "exact", "nu": "1/8", "tau": "1/4"}
    out = {"certified": False, "mode": "exact", "samples": 1, "witness": [0, 1, 2]}
    if check_expander(meta, k8, out, None) is None:
        missed.append("expander: a witness with too large a neighbourhood passed")

    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)] + [(i, (i + 2) % 5) for i in range(5)])
    report = {"n": 5, "delta": 4, "reg_even": 4, "bound_lower": regeven_lower(5, 4),
              "graph_law_ok": True, "class_law_ok": True}
    if check_conjecture({}, c5, dict(report, max_packing=2), None) is not None:
        missed.append("packing: a valid count was rejected")
    if check_conjecture({}, c5, dict(report, max_packing=3), None) is None:
        missed.append("packing: a count above floor(delta/2) passed")
    if brute_max_packing(c5) != 2:
        missed.append("packing: K5 does not split into two Hamilton cycles")
    return missed


if __name__ == "__main__":
    problems = self_test()
    print("\n".join(problems) if problems else "all checker self-tests pass")
    raise SystemExit(1 if problems else 0)
