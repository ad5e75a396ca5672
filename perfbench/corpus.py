"""Seeded inputs and command lists for the four workloads.

The graphs come from this module's own generators (Python's
``random.Random`` seeded with the workload name and ``--seed``), so a
change to ``hampack.construct`` cannot change the corpus.  Every seed
gives the same strata -- the same sizes, degrees, edge counts and
parameters in the same numbers -- and only the random instances differ,
which keeps a round's cost close from seed to seed.

A round is the list of commands of one workload; a run repeats whole
rounds.  ``{out}`` and ``{emit}`` in an argv are filled in per round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from checks import Graph, brute_max_packing, parse_edge_list, tutte_pair

FIXED_DIR = Path(__file__).resolve().parent / "fixed"
# Every (seed, r) of `construct --kind gnp --n 16 --p 0.15 --seed s`,
# s = 1..399, r in {1, 2}, where the structured pairs miss and the
# blossom says no.  Seeds 244 and 337 hit the exit-5 certificate fault.
FIXED_HARD_NEGATIVES = [(114, 1), (160, 1), (168, 1), (244, 1), (264, 1), (299, 1), (312, 1), (337, 2)]


@dataclass
class Command:
    argv: list[str]
    kind: str            # which checker reads the output
    host: Graph          # the graph the output is checked against
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gnp(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def gnp_min_degree(n: int, p: float, min_deg: int, rng: random.Random) -> Graph:
    while True:
        g = Graph(n, gnp(n, p, rng))
        if g.min_degree() >= min_deg:
            return g


def gnm_min_degree(n: int, m: int, min_deg: int, rng: random.Random) -> Graph:
    """G(n, p) conditioned on exactly m edges and minimum degree >= min_deg."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        g = Graph(n, rng.sample(pairs, m))
        if g.min_degree() >= min_deg:
            return g


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def extremal(n: int, delta: int) -> Graph:
    """The paper's two-class graph: B of size D induces the circulant of
    degree delta + D - n, A = V - B is independent, A-B is complete.  D is
    the least size with (2D - n)^2 >= n(2 delta - n) and D(delta + D - n)
    even."""
    x = n * (2 * delta - n)
    size_b = (n + 1) // 2
    while (2 * size_b - n) ** 2 < x or size_b * (delta + size_b - n) % 2:
        size_b += 1
    inner, a_size = delta + size_b - n, n - size_b
    edges = [(u, v) for u in range(a_size) for v in range(a_size, n)]
    ring = set()
    for off in range(1, inner // 2 + 1):
        for i in range(size_b):
            j = (i + off) % size_b
            ring.add((min(i, j), max(i, j)))
    if inner % 2:
        ring.update((i, i + size_b // 2) for i in range(size_b // 2))
    edges += [(a_size + i, a_size + j) for i, j in ring]
    return Graph(n, edges)


def babai(m: int) -> Graph:
    """Independent A of size 2m joined completely to B of size 2m + 2,
    which carries a perfect matching."""
    n = 4 * m + 2
    edges = [(u, v) for u in range(2 * m) for v in range(2 * m, n)]
    edges += [(i, i + 1) for i in range(2 * m, n, 2)]
    return Graph(n, edges)


def two_clusters(n: int, p_in: float, p_out: float, rng: random.Random) -> tuple[Graph, list[int]]:
    """Dense halves with sparse edges across; returns the graph and its
    first half (floor(n/2) vertices) after a random relabelling."""
    half = n // 2
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < (p_in if (u < half) == (v < half) else p_out)
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    g = Graph(n, [(perm[u], perm[v]) for u, v in edges])
    return g, sorted(perm[u] for u in range(half))


def plant_matching(g: Graph, rng: random.Random) -> Graph:
    order = list(range(g.n))
    rng.shuffle(order)
    extra = {(min(a, b), max(a, b)) for a, b in zip(order[::2], order[1::2])}
    return Graph(g.n, g.edges | extra)


def plant_cycle(g: Graph, rng: random.Random) -> Graph:
    order = list(range(g.n))
    rng.shuffle(order)
    extra = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:] + order[:1])}
    return Graph(g.n, g.edges | extra)


def connected_blob(size: int, p: float, offset: int, rng: random.Random) -> list[tuple[int, int]]:
    """A Hamilton cycle (a single edge for size 2) plus G(size, p) chords."""
    order = [offset + i for i in range(size)]
    rng.shuffle(order)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    if size > 2:
        edges.add((min(order[0], order[-1]), max(order[0], order[-1])))
    edges |= {(offset + u, offset + v) for u, v in gnp(size, p, rng)}
    return sorted(edges)


def odd_components(n: int, rng: random.Random) -> Graph:
    """n even, two connected blocks of odd size: (S, T) = (0, 0) refutes
    a 1-factor with Q_1 = 2 > R_1 = 0."""
    a = rng.randrange(3, n - 2, 2)
    edges = connected_blob(a, 0.15, 0, rng) + connected_blob(n - a, 0.15, a, rng)
    return relabel(Graph(n, edges), rng)


def three_blob_cut(n: int, rng: random.Random) -> Graph:
    """Vertex 0 sends one edge into each of three 2-connected blobs, so
    T = {0} gives Q_2 = 3 > R_2 = 1 and no 2-factor exists."""
    sizes = [3, 3, 3]
    for _ in range(n - 10):
        sizes[rng.randrange(3)] += 1
    edges, offset = [], 1
    for size in sizes:
        edges += connected_blob(size, 0.2, offset, rng)
        edges.append((0, offset + rng.randrange(size)))
        offset += size
    return relabel(Graph(n, edges), rng)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _write(g: Graph, path: Path) -> str:
    path.write_text(g.edge_list_text())
    return str(path)


def regeven(rng: random.Random, inputs: Path) -> list[Command]:
    """Extremal graphs for every delta in (n/2, n), n = 16..64 step 8,
    relabelled at random; dense G(n, p), p in {0.75, 0.88}, with
    delta >= n/2, n = 16..64 step 8, two each."""
    cmds = []
    for n in range(16, 65, 8):
        for delta in range(n // 2 + 1, n):
            cmds.append(("extremal", relabel(extremal(n, delta), rng)))
    for n in range(16, 65, 8):
        for p in (0.75, 0.88):
            for _ in range(2):
                cmds.append(("gnp", gnp_min_degree(n, p, (n + 1) // 2, rng)))
    return [
        Command(["regeven", "--input", _write(g, inputs / f"g{i}.txt"), "--emit", "{emit}", "--out", "{out}"],
                "regeven", g, {"family": family})
        for i, (family, g) in enumerate(cmds)
    ]


def factor(rng: random.Random, inputs: Path) -> list[Command]:
    """Odd r in {1, 3, 5} on G(n, 1/2) with delta >= 7, n = 24..40 step 2,
    four graphs per (n, r); nine sparse commands at r in {1, 2}, n = 15..40
    (gates, structured negatives, planted factors); the fixed hard
    negatives.  The dense commands are most of a round, so p50 and p90
    fall among them."""
    jobs = []
    for n in range(24, 41, 2):
        for r in (1, 3, 5):
            for _ in range(4):
                jobs.append((gnp_min_degree(n, 0.5, 7, rng), r, None))
    n = rng.randrange(15, 40, 2)  # odd n: the r * n parity gate
    jobs.append((Graph(n, gnp(n, rng.uniform(0.1, 0.3), rng)), 1, False))
    for r in (1, 2):  # a vertex of degree below r
        while True:
            n = rng.randrange(16, 41, 2)
            g = Graph(n, gnp(n, rng.uniform(0.05, 0.1), rng))
            if g.min_degree() < r:
                break
        jobs.append((g, r, False))
    jobs.append((odd_components(rng.randrange(16, 41, 2), rng), 1, False))
    jobs.append((three_blob_cut(rng.randrange(15, 41), rng), 2, False))
    for _ in range(2):
        n = rng.randrange(16, 41, 2)
        jobs.append((plant_matching(Graph(n, gnp(n, rng.uniform(0.05, 0.2), rng)), rng), 1, True))
        n = rng.randrange(15, 41)
        jobs.append((plant_cycle(Graph(n, gnp(n, rng.uniform(0.05, 0.2), rng)), rng), 2, True))
    cmds = []
    for i, (g, r, expect) in enumerate(jobs):
        path = _write(g, inputs / f"g{i}.txt")
        cmds.append(Command(["factor", "--r", str(r), "--input", path, "--emit", "{emit}", "--out", "{out}"],
                            "factor", g, {"r": r, "expect": expect}))
    for seed, r in FIXED_HARD_NEGATIVES:
        path = FIXED_DIR / f"gnp16_p015_s{seed}.txt"
        g = parse_edge_list(path.read_text())
        cmds.append(Command(["factor", "--r", str(r), "--input", str(path), "--emit", "{emit}", "--out", "{out}"],
                            "factor", g, {"r": r, "expect": False, "fixed": seed}))
    return cmds


# (n, m, minimum degree or None for any >= n/2, graphs).  One (m, delta)
# for n = 9 and n = 10 puts p50 and p90 inside a stratum of similar
# commands; delta = ceil(n/2) keeps the graphs at the Dirac threshold,
# where a search for a third cycle can take seconds (6.4 s once at
# n = 10, m = 34, delta = 6).
PACKING_STRATA = [(8, 20, None, 3), (8, 22, None, 3), (8, 24, None, 3), (8, 26, None, 3),
                  (9, 29, 5, 12), (10, 34, 5, 12)]


def full_packing(g: Graph, rng: random.Random, attempts: int = 30) -> bool:
    """Whether randomised greedy search finds min(delta // 2, m // n)
    edge-disjoint Hamilton cycles -- as many as the program's pruning
    bound allows, so its exact search ends once it has found them."""
    n = g.n
    want = min(g.min_degree() // 2, g.m // n)
    for _ in range(attempts):
        rows = list(g.adj)
        for _ in range(want):
            cycle = _random_hamilton(rows, n, rng)
            if cycle is None:
                break
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                rows[a] &= ~(1 << b)
                rows[b] &= ~(1 << a)
        else:
            return True
    return False


def _random_hamilton(rows: list[int], n: int, rng: random.Random, budget: int = 5000):
    path, nodes = [0], [0]

    def extend(v: int, used: int) -> bool:
        nodes[0] += 1
        if len(path) == n:
            return bool(rows[v] & 1)
        if nodes[0] > budget:
            return False
        nxt = [u for u in range(n) if rows[v] >> u & 1 and not used >> u & 1]
        rng.shuffle(nxt)
        for u in nxt:
            path.append(u)
            if extend(u, used | 1 << u):
                return True
            path.pop()
        return False

    return list(path) if extend(0, 1) else None


def packing(rng: random.Random, inputs: Path) -> list[Command]:
    """G(n, p) conditioned on m edges and the minimum degree over the
    strata above, each graph holding a full packing (see full_packing);
    the Babai m = 2 graph, whose maximum packing of 1 lies below its
    degree bound of 2, built both by the benchmark and by `construct`."""
    cmds = []
    for n, m, delta, count in PACKING_STRATA:
        for _ in range(count):
            while True:
                g = gnm_min_degree(n, m, delta or (n + 1) // 2, rng)
                if delta in (None, g.min_degree()) and full_packing(g, rng):
                    break
            path = _write(g, inputs / f"g{len(cmds)}.txt")
            cmds.append(Command(["conjecture", "--input", path, "--out", "{out}"], "conjecture", g))
    b = babai(2)
    path = _write(b, inputs / "babai2.txt")
    cmds.append(Command(["conjecture", "--input", path, "--out", "{out}"], "conjecture", b, {"max_packing": 1}))
    cmds.append(Command(["construct", "--kind", "babai", "--m", "2", "--out", "{out}"], "construct", b))
    return cmds


def fill_brute_force(cmds: list[Command]) -> None:
    """Brute-force packing counts for the n <= 8 graphs (check phase)."""
    for cmd in cmds:
        if cmd.kind == "conjecture" and cmd.host.n <= 8 and "max_packing" not in cmd.meta:
            cmd.meta["max_packing"] = brute_max_packing(cmd.host)


EPS, TAU = Fraction(1, 8), Fraction(1, 4)
EXPANSION_SIZES = (16, 17, 18, 19, 19, 20, 21)
NU_DENSE = EPS * TAU / 2          # delta >= (1/2 + eps) n certifies
NU_PLANTED = Fraction(1, 4)


def expansion(rng: random.Random, inputs: Path) -> list[Command]:
    """Exact checks on dense graphs (delta >= 5n/8, certify) and planted
    two-cluster graphs (refuted), n = 16..21; Monte-Carlo refutation on
    dense G(n, p), n = 64..256; closeness of both kinds on the n <= 21
    graphs.  Each command's cost roughly doubles with n, so a second
    graph of each kind at n = 19 puts p50 inside the n = 19 commands
    rather than on the gap below them."""
    cmds = []
    small = []
    for i, n in enumerate(EXPANSION_SIZES):
        g = gnp_min_degree(n, 0.85, -(-5 * n // 8), rng)
        small.append((g, None, inputs / f"d{i}.txt"))
        cmds.append(_expander(g, NU_DENSE, "exact", "certified", small[-1][2]))
    for i, n in enumerate(EXPANSION_SIZES):
        g, half = two_clusters(n, 0.9, 0.04, rng)
        small.append((g, half, inputs / f"c{i}.txt"))
        cmds.append(_expander(g, NU_PLANTED, "exact", "refuted", small[-1][2]))
    for n in (64, 96, 128, 160, 192, 256):
        g = Graph(n, gnp(n, 0.7, rng))
        cmd = _expander(g, NU_DENSE, "mc", None, inputs / f"mc{n}.txt")
        cmd.argv[1:1] = ["--mc", "--seed", str(rng.randrange(1 << 16))]
        cmds.append(cmd)
    for g, half, path in small:
        for kind in ("bipartite", "cliques"):
            meta = {"kind": "bipartite" if kind == "bipartite" else "two_cliques"}
            if half is not None:
                meta["planted"] = half
            cmds.append(Command(["closeness", "--kind", kind, "--epsilon", "1/20", "--input", str(path),
                                 "--out", "{out}"], "closeness", g, meta))
    return cmds


def _expander(g: Graph, nu: Fraction, mode: str, expect, path: Path) -> Command:
    argv = ["expander", "--nu", str(nu), "--tau", str(TAU), "--input", _write(g, path), "--out", "{out}"]
    return Command(argv, "expander", g, {"nu": str(nu), "tau": str(TAU), "mode": mode, "expect": expect})


WORKLOADS = {"regeven": regeven, "factor": factor, "packing": packing, "expansion": expansion}


def build(workload: str, seed: int, inputs: Path) -> list[Command]:
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    cmds = WORKLOADS[workload](rng, inputs)
    for cmd in cmds:
        if cmd.kind == "factor" and cmd.meta["expect"] is False and "fixed" not in cmd.meta:
            _assert_refutable(cmd)
    return cmds


def _assert_refutable(cmd: Command) -> None:
    """A seeded negative must fail a gate or a pair the program tries
    before its certificate search: (0, 0), or T = {v}."""
    g, r = cmd.host, cmd.meta["r"]
    if (r * g.n) % 2 or g.min_degree() < r:
        return
    if any(q > rr for q, rr in [tutte_pair(g, r, (), ())] + [tutte_pair(g, r, (), {v}) for v in range(g.n)]):
        return
    raise AssertionError(f"seeded negative is not refuted by a simple pair: {cmd.argv}")

