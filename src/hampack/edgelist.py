"""Plain-text graph exchange formats.

Edge lists (undirected), the one format read::

    # optional comments
    p <n> <m>
    <u> <v>          (m lines, 0-based, u < v, no duplicates)

Every CLI command that takes a graph reads this format.  Header fields
and vertices are ASCII decimals.  Arc lists (directed: the same header
followed by ``a <u> <v>`` lines) are written only, by ``orient``.

Canonical text, the edge-list text this module and ``construct`` write,
is read in bulk: the header ``p <n> <m>`` on the first line, then one
``<u> <v>`` record per line, with single spaces, every line ended by
``\\n``, and every vertex an ASCII decimal without sign or leading zero.
The bulk reader takes it in chunks of at most 8 KiB that end at a line
end, and declines the whole text at anything else, faults included.  A
declined text goes to the line reader.  So any other valid text
(comments, blank lines, extra spaces, CRLF line ends, ...) reads to the
same graph, and every fault is reported by the line reader alone, with
its ``ParseError`` message and line number.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from pathlib import Path

from .core import MAX_VERTICES, Graph, _check_capacity, iter_bits
from .errors import ParseError

#: The bulk reader's lookup tables: each vertex's canonical token and bit.
_VERTEX = {str(v): v for v in range(MAX_VERTICES)}
_BIT = [1 << v for v in range(MAX_VERTICES)]
_NO_DIGITS = str.maketrans("", "", "0123456789")
_CHUNK = 1 << 13


def _natural(token: str) -> int | None:
    """The value of an ASCII decimal of at most six digits (as many as a
    canonical header field has: m <= 1024 * 1023 / 2), else None."""
    return int(token) if len(token) <= 6 and token.isascii() and token.isdigit() else None


def _integer(token: str) -> int:
    """int() of an ASCII decimal with an optional leading '-', else ValueError."""
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(token)
    return int(token)


def _read_canonical(text: str) -> list[int] | None:
    """The rows ``_read_lines`` gives for canonical text (module
    docstring), or None for any other text.  Each chunk's layout is
    checked with string calls (what is left after deleting the digits,
    and the token count), its tokens are looked up in ``_VERTEX`` and
    checked for range and u < v before any bit is set.  The edge count
    and the rows' bit total, which a repeat lowers, are checked at the
    end.  Declining never raises."""
    head_end = text.find("\n") + 1
    header = text[:head_end - 1].split(" ")
    if not head_end or len(header) != 3 or header[0] != "p" or text[-1] != "\n":
        return None
    n, m = _natural(header[1]), _natural(header[2])
    if n is None or m is None or n > MAX_VERTICES:
        return None
    rows = [0] * n
    bit = _BIT
    count = 0
    start = head_end
    while start < len(text):
        end = text.rfind("\n", start, start + _CHUNK) + 1
        if end <= start:
            return None
        chunk = text[start:end]
        lines = chunk.count("\n")
        tokens = chunk.split()
        if len(tokens) != 2 * lines or chunk.translate(_NO_DIGITS) != " \n" * lines:
            return None
        try:
            tails = list(map(_VERTEX.__getitem__, tokens[0::2]))
            heads = list(map(_VERTEX.__getitem__, tokens[1::2]))
        except KeyError:
            return None
        del tokens  # so that no two chunks' tokens are alive at once
        if max(heads) >= n or not all(map(operator.lt, tails, heads)):
            return None
        for u, v in zip(tails, heads):
            rows[u] |= bit[v]
            rows[v] |= bit[u]
        count += lines
        start = end
    if count != m or sum(map(int.bit_count, rows)) != 2 * count:
        return None
    return rows


def _read_rows(text: str) -> list[int]:
    """Bitset adjacency rows: canonical text in bulk, any other text,
    and every fault, through the line reader."""
    rows = _read_canonical(text)
    return _read_lines(text) if rows is None else rows


def _read_lines(text: str) -> list[int]:
    """The header, comment and edge lines, read in one pass into bitset
    adjacency rows.  Each edge is checked for range, order and repeats
    (a repeat finds its row bit set), and their number against the
    header.  A header above the vertex cap raises ``CapacityError`` at
    once."""
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
                n, m = _integer(parts[1]), _integer(parts[2])
            except ValueError:
                raise ParseError("non-integer header fields", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("negative header fields", lineno)
            _check_capacity(n)
            rows = [0] * n
            continue
        if rows is None:
            raise ParseError("edge line before 'p' header", lineno)
        if len(parts) != 2:
            raise ParseError(f"expected '<u> <v>', got {raw.strip()!r}", lineno)
        try:
            u, v = _integer(parts[0]), _integer(parts[1])
        except ValueError:
            raise ParseError("non-integer endpoint", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range 0..{n - 1}", lineno)
        if u >= v:
            raise ParseError(f"endpoints must satisfy u < v, got {u} {v}", lineno)
        bit = 1 << v
        if rows[u] & bit:
            raise ParseError(f"duplicate edge {u} {v}", lineno)
        rows[u] |= bit
        rows[v] |= 1 << u
        count += 1
    if rows is None:
        raise ParseError("missing 'p <n> <m>' header")
    if m != count:
        raise ParseError(f"header declares m={m} but found {count} edges")
    return rows


def parse_edge_list(text: str) -> Graph:
    return Graph.from_adj(_read_rows(text))


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
    """The graph in the edge-list file at ``path``, read as UTF-8; a
    byte that does not decode is a ``ParseError`` on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "_").splitlines())
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line) from None
    return parse_edge_list(text)


def format_arc_list(n: int, out_rows: Sequence[int]) -> str:
    """The arc-list text of the orientation on 0..n-1 whose out-neighbour
    bitset rows are ``out_rows``: arcs in ascending (u, v) order."""
    lines = [f"a {u} {v}" for u, row in enumerate(out_rows) for v in iter_bits(row)]
    return "\n".join([f"p {n} {len(lines)}", *lines]) + "\n"
