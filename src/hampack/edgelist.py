"""Plain-text graph exchange formats.

Edge lists (undirected)::

    # optional comments
    p <n> <m>
    <u> <v>          (m lines, 0-based, u < v, no duplicates)

Arc lists (directed) use the same header followed by ``a <u> <v>`` lines
(u != v, no repeated arc).  Both formats go through one reader, so they
reject the same faults with the same ``ParseError``.  These formats are
the unit of exchange for every CLI command.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from .core import DiGraph, Graph, _check_capacity, iter_bits
from .errors import ParseError


def _read_rows(text: str, arcs: bool) -> list[int]:
    """The header, comment and record lines both formats share, read in
    one pass into bitset rows: adjacency rows for edges, out-rows for
    arcs.  Each record is checked for range, loops and repeats (a repeat
    finds its row bit set), and their number against the header.  A
    header above the vertex cap raises ``CapacityError`` at once."""
    noun = "arc" if arcs else "edge"
    shape = "'a <u> <v>'" if arcs else "'<u> <v>'"
    rows: list[int] | None = None
    n = m = count = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if parts[0] == "p":
            if rows is not None:
                raise ParseError("duplicate header line", lineno)
            if len(parts) != 3:
                raise ParseError("header must be 'p <n> <m>'", lineno)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("non-integer header fields", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("negative header fields", lineno)
            _check_capacity(n)
            rows = [0] * n
            continue
        if arcs:
            if parts[0] != "a":
                raise ParseError(f"expected {shape}, got {raw.strip()!r}", lineno)
            del parts[0]
        if rows is None:
            raise ParseError(f"{noun} line before 'p' header", lineno)
        if len(parts) != 2:
            raise ParseError(f"expected {shape}, got {raw.strip()!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("non-integer endpoint", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range 0..{n - 1}", lineno)
        if arcs and u == v:
            raise ParseError(f"loop at vertex {u}", lineno)
        if not arcs and u >= v:
            raise ParseError(f"endpoints must satisfy u < v, got {u} {v}", lineno)
        bit = 1 << v
        if rows[u] & bit:
            raise ParseError(f"duplicate {noun} {u} {v}", lineno)
        rows[u] |= bit
        if not arcs:
            rows[v] |= 1 << u
        count += 1
    if rows is None:
        raise ParseError("missing 'p <n> <m>' header")
    if m != count:
        raise ParseError(f"header declares m={m} but found {count} {noun}s")
    return rows


def parse_edge_list(text: str) -> Graph:
    return Graph.from_adj(_read_rows(text, arcs=False))


def format_rows(n: int, rows: Sequence[int]) -> str:
    """The edge-list text of the graph on 0..n-1 whose bitset rows are
    ``rows``, edges in ascending (u, v) order.  Row u is read above bit u
    only, so symmetric adjacency rows and upper-triangle rows give the
    same text."""
    names = [str(v) for v in range(n)]
    lines = [""]
    for u, row in enumerate(rows):
        head = names[u] + " "
        bits = bin(row >> (u + 1))[:1:-1]
        lines.extend([head + names[v] for v, bit in enumerate(bits, u + 1) if bit == "1"])
    lines[0] = f"p {n} {len(lines) - 1}"
    return "\n".join(lines) + "\n"


def format_edge_list(g: Graph) -> str:
    return format_rows(g.n, g.adj)


def read_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text())


def write_edge_list(g: Graph, path: str | Path) -> None:
    Path(path).write_text(format_edge_list(g))


def parse_arc_list(text: str) -> DiGraph:
    rows = _read_rows(text, arcs=True)
    return DiGraph(len(rows), [(u, v) for u, row in enumerate(rows) for v in iter_bits(row)])


def format_arc_list(d: DiGraph) -> str:
    arcs = sorted(d.arcs())
    lines = [f"p {d.n} {len(arcs)}"]
    lines.extend(f"a {u} {v}" for u, v in arcs)
    return "\n".join(lines) + "\n"
