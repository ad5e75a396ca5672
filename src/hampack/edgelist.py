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

from pathlib import Path

from .core import DiGraph, Graph
from .errors import ParseError


def _read_pairs(text: str, arcs: bool) -> tuple[int, list[tuple[int, int]]]:
    """The header, comment and record lines both formats share: the
    vertex count and the records, each checked for range, loops and
    repeats, with their number checked against the header."""
    noun = "arc" if arcs else "edge"
    shape = "'a <u> <v>'" if arcs else "'<u> <v>'"
    n = None
    m = None
    pairs = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate header line", lineno)
            if len(parts) != 3:
                raise ParseError("header must be 'p <n> <m>'", lineno)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("non-integer header fields", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("negative header fields", lineno)
            continue
        if arcs:
            if parts[0] != "a":
                raise ParseError(f"expected {shape}, got {line!r}", lineno)
            parts = parts[1:]
        if n is None:
            raise ParseError(f"{noun} line before 'p' header", lineno)
        if len(parts) != 2:
            raise ParseError(f"expected {shape}, got {line!r}", lineno)
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
        if (u, v) in seen:
            raise ParseError(f"duplicate {noun} {u} {v}", lineno)
        seen.add((u, v))
        pairs.append((u, v))
    if n is None:
        raise ParseError("missing 'p <n> <m>' header")
    if m != len(pairs):
        raise ParseError(f"header declares m={m} but found {len(pairs)} {noun}s")
    return n, pairs


def parse_edge_list(text: str) -> Graph:
    return Graph(*_read_pairs(text, arcs=False))


def format_edge_list(g: Graph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text())


def write_edge_list(g: Graph, path: str | Path) -> None:
    Path(path).write_text(format_edge_list(g))


def parse_arc_list(text: str) -> DiGraph:
    return DiGraph(*_read_pairs(text, arcs=True))


def format_arc_list(d: DiGraph) -> str:
    arcs = sorted(d.arcs())
    lines = [f"p {d.n} {len(arcs)}"]
    lines.extend(f"a {u} {v}" for u, v in arcs)
    return "\n".join(lines) + "\n"
