import functools
import random
import tracemalloc

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import graphs

from hampack import edgelist
from hampack.construct import random_graph
from hampack.core import DiGraph, Graph
from hampack.edgelist import (
    format_arc_list,
    format_edge_list,
    parse_arc_list,
    parse_edge_list,
)
from hampack.errors import CapacityError, ParseError


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=12))
def test_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


def test_comments_and_blanks_ignored():
    g = parse_edge_list("# a comment\n\np 3 1\n# another\n0 2\n")
    assert g.n == 3 and g.edges() == [(0, 2)]


@pytest.mark.parametrize(
    "text",
    [
        "0 1\np 2 1\n",          # edge before header
        "p 2 x\n",               # non-integer header
        "p 2 1\n1 0\n",          # u >= v
        "p 2 1\n0 2\n",          # out of range
        "p 3 2\n0 1\n0 1\n",     # duplicate
        "p 3 2\n0 1\n",          # count mismatch
        "p 2 1\n0 1 9\n",        # trailing token
        "",                      # no header
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_edge_list(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_edge_list("p 3 1\nbogus line\n")
    assert "line 2" in str(err.value)


def test_arc_round_trip():
    d = DiGraph(4, [(0, 1), (1, 2), (3, 0), (2, 0)])
    back = parse_arc_list(format_arc_list(d))
    assert (back.n, back.out_adj, back.in_adj) == (d.n, d.out_adj, d.in_adj)


def test_arc_parse_errors():
    with pytest.raises(ParseError):
        parse_arc_list("p 3 1\n0 1\n")  # missing 'a' prefix
    with pytest.raises(ParseError):
        parse_arc_list("p 3 1\na 0 0\n")


def test_arc_list_rejects_repeated_arc():
    # the header declares two arcs; a repeat must not count as one
    with pytest.raises(ParseError, match="line 3"):
        parse_arc_list("p 3 2\na 0 1\na 0 1\n")
    assert sorted(parse_arc_list("p 2 2\na 0 1\na 1 0\n").arcs()) == [(0, 1), (1, 0)]


# Every fault of either format, with its exact message and line number.
PARSE_FAULTS = [
    ("edge", "0 1\np 2 1\n", 1, "line 1: edge line before 'p' header"),
    ("edge", "a 0 1\n", 1, "line 1: edge line before 'p' header"),
    ("edge", "p 2 x\n", 1, "line 1: non-integer header fields"),
    ("edge", "p 3\n", 1, "line 1: header must be 'p <n> <m>'"),
    ("edge", "p 3 1 2\n", 1, "line 1: header must be 'p <n> <m>'"),
    ("edge", "p -1 0\n", 1, "line 1: negative header fields"),
    ("edge", "p 3 -1\n", 1, "line 1: negative header fields"),
    ("edge", "p 3 1\np 3 1\n0 1\n", 2, "line 2: duplicate header line"),
    ("edge", "p 3 1\np\n", 2, "line 2: duplicate header line"),
    ("edge", "p 2 1\n1 0\n", 2, "line 2: endpoints must satisfy u < v, got 1 0"),
    ("edge", "p 3 1\n  1   1  \n", 2, "line 2: endpoints must satisfy u < v, got 1 1"),
    ("edge", "p 2 1\n0 2\n", 2, "line 2: endpoint out of range 0..1"),
    ("edge", "p 0 1\n0 1\n", 2, "line 2: endpoint out of range 0..-1"),
    ("edge", "p 3 1\n-1 1\n", 2, "line 2: endpoint out of range 0..2"),
    ("edge", "p 3 2\n0 1\n0 1\n", 3, "line 3: duplicate edge 0 1"),
    ("edge", "p 3 2\n# c\n0 2\n\n0 2\n", 5, "line 5: duplicate edge 0 2"),
    ("edge", "p 3 2\n0 1\n1 0\n", 3, "line 3: endpoints must satisfy u < v, got 1 0"),
    ("edge", "p 2 1\n0 1 9\n", 2, "line 2: expected '<u> <v>', got '0 1 9'"),
    ("edge", "p 3 1\n\t0 1 # trailing\n", 2, "line 2: expected '<u> <v>', got '0 1 # trailing'"),
    ("edge", "p 3 1\na 0 1\n", 2, "line 2: expected '<u> <v>', got 'a 0 1'"),
    ("edge", "p 3 1\n0\n", 2, "line 2: expected '<u> <v>', got '0'"),
    ("edge", "p 3 1\nbogus line\n", 2, "line 2: non-integer endpoint"),
    ("edge", "p 3 1\n0 x\n", 2, "line 2: non-integer endpoint"),
    ("edge", "p 3 1\n0 1.0\n", 2, "line 2: non-integer endpoint"),
    ("edge", "p 11 1\n0 1_0\n", 2, "line 2: non-integer endpoint"),
    ("edge", "p 3 1\n+0 1\n", 2, "line 2: non-integer endpoint"),
    ("edge", "p 3 1\n0 \u0661\n", 2, "line 2: non-integer endpoint"),
    ("edge", "p 3 1\n0 -\n", 2, "line 2: non-integer endpoint"),
    ("edge", "p 3 1\n0 --1\n", 2, "line 2: non-integer endpoint"),
    ("edge", "p 1_1 0\n", 1, "line 1: non-integer header fields"),
    ("edge", "p +3 0\n", 1, "line 1: non-integer header fields"),
    ("edge", "p 3 \u0660\n", 1, "line 1: non-integer header fields"),
    ("edge", "", None, "missing 'p <n> <m>' header"),
    ("edge", "# only\n\n", None, "missing 'p <n> <m>' header"),
    ("edge", "p 3 2\n0 1\n", None, "header declares m=2 but found 1 edges"),
    ("edge", "p 3 0\n0 1\n", None, "header declares m=0 but found 1 edges"),
    ("edge", "p 3 1\n0 1\n1 2\n", None, "header declares m=1 but found 2 edges"),
    ("arc", "a 0 1\np 2 1\n", 1, "line 1: arc line before 'p' header"),
    ("arc", "0 1\n", 1, "line 1: expected 'a <u> <v>', got '0 1'"),
    ("arc", "p 2 x\n", 1, "line 1: non-integer header fields"),
    ("arc", "p -1 0\n", 1, "line 1: negative header fields"),
    ("arc", "p 3 1\np 3 1\n", 2, "line 2: duplicate header line"),
    ("arc", "p 3 1\n0 1\n", 2, "line 2: expected 'a <u> <v>', got '0 1'"),
    ("arc", "p 3 1\nb 0 1\n", 2, "line 2: expected 'a <u> <v>', got 'b 0 1'"),
    ("arc", "p 3 1\na\n", 2, "line 2: expected 'a <u> <v>', got 'a'"),
    ("arc", "p 3 1\na 0\n", 2, "line 2: expected 'a <u> <v>', got 'a 0'"),
    ("arc", "p 3 1\na 0 1 2\n", 2, "line 2: expected 'a <u> <v>', got 'a 0 1 2'"),
    ("arc", "p 3 1\na x 1\n", 2, "line 2: non-integer endpoint"),
    ("arc", "p 11 1\na 1_0 0\n", 2, "line 2: non-integer endpoint"),
    ("arc", "p 3 1\na 0 +1\n", 2, "line 2: non-integer endpoint"),
    ("arc", "p 3 1\na \u0661 0\n", 2, "line 2: non-integer endpoint"),
    ("arc", "p +3 0\n", 1, "line 1: non-integer header fields"),
    ("arc", "p 3 1_0\n", 1, "line 1: non-integer header fields"),
    ("arc", "p \u0663 0\n", 1, "line 1: non-integer header fields"),
    ("arc", "p 3 1\na 0 3\n", 2, "line 2: endpoint out of range 0..2"),
    ("arc", "p 3 1\na 0 0\n", 2, "line 2: loop at vertex 0"),
    ("arc", "p 3 2\na 0 1\na 0 1\n", 3, "line 3: duplicate arc 0 1"),
    ("arc", "", None, "missing 'p <n> <m>' header"),
    ("arc", "p 3 2\na 0 1\n", None, "header declares m=2 but found 1 arcs"),
    ("arc", "p 3 1\n a 2 1 \n a 1 2\n", None, "header declares m=1 but found 2 arcs"),
]


@pytest.mark.parametrize("fmt,text,line,message", PARSE_FAULTS)
def test_parse_fault_message_and_line(fmt, text, line, message):
    parse = parse_arc_list if fmt == "arc" else parse_edge_list
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, str(err.value)) == (line, message)


@pytest.mark.parametrize("parse", [parse_edge_list, parse_arc_list])
def test_header_above_the_vertex_cap_is_refused_at_the_header(parse):
    # no row is built for a header above the cap, however large its n
    for text in ("p 1025 0\n", "p 1000000000000 1\n0 1\n0 1\n", "p 2000 5\nbogus\n"):
        with pytest.raises(CapacityError, match="exceeds the supported maximum 1024"):
            parse(text)
    assert parse("p 1024 0\n").n == 1024


@pytest.mark.parametrize("text", ["p -1 0\n", "p 3 -1\n"])
def test_negative_header_is_a_parse_error_in_both_formats(text):
    with pytest.raises(ParseError):
        parse_edge_list(text)
    with pytest.raises(ParseError):
        parse_arc_list(text)


# ---------------------------------------------------------------------------
# The bulk reader against the line reader
# ---------------------------------------------------------------------------

def random_digraph(n, p, rng):
    return DiGraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])


@functools.cache
def canonical(n, p, seed_, arcs):
    if arcs:
        return format_arc_list(random_digraph(n, p, random.Random(seed_)))
    return format_edge_list(random_graph(n, p, seed_))


def outcome(read, text, arcs):
    try:
        return "rows", read(text, arcs)
    except (ParseError, CapacityError) as exc:
        return type(exc), str(exc)


def assert_same_as_line_reader(text, arcs):
    assert outcome(edgelist._read_rows, text, arcs) == outcome(edgelist._read_lines, text, arcs)


def _line_edit(edit):
    """A mutation that rewrites line i."""
    def mutate(lines, i, rng):
        lines[i] = edit(lines[i])
    return mutate


def _token_edit(edit):
    """A mutation that rewrites one token of line i."""
    def mutate(lines, i, rng):
        tokens = lines[i].split(" ")
        j = rng.randrange(len(tokens))
        tokens[j] = edit(tokens[j], rng)
        lines[i] = " ".join(tokens)
    return mutate


def _edit_header(edit):
    """A mutation that rewrites the first 'p <n> <m>' line, if any."""
    def mutate(lines, i, rng):
        for h, line in enumerate(lines):
            fields = line.split(" ")
            if len(fields) == 3 and fields[0] == "p":
                lines[h] = "p " + " ".join(edit(*fields[1:]))
                return
    return mutate


def _recount(delta):
    return _edit_header(lambda n, m: (n, str(int(m) + delta) if m.isdigit() else m))


def _header_n(n):
    return _edit_header(lambda _, m: (str(n), m))


def _insert(line):
    def mutate(lines, i, rng):
        lines.insert(i, line)
    return mutate


def _repeat(lines, i, rng):
    lines.insert(rng.randrange(1, len(lines) + 1), lines[i])


def _repeat_counted(lines, i, rng):
    _repeat(lines, i, rng)
    _recount(1)(lines, i, rng)


def _at_n(lines, i, rng):
    n = (lines[0].split(" ") + ["0", "0"])[1]
    lines[i] = lines[i].rsplit(" ", 1)[0] + " " + n


def _drop_line(lines, i, rng):
    if len(lines) > 1:
        del lines[i]


ARABIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

# Each mutation edits the list of lines (header first, no line ends) at a
# chosen line i.  The text is joined with "\n" and ended by one.
MUTATIONS = {
    "crlf": _line_edit(lambda line: line + "\r"),
    "tab": _line_edit(lambda line: line.replace(" ", "\t", 1)),
    "double space": _line_edit(lambda line: line.replace(" ", "  ", 1)),
    "trailing space": _line_edit(lambda line: line + " "),
    "leading space": _line_edit(lambda line: " " + line),
    "form feed": _line_edit(lambda line: line.replace(" ", "\x0c", 1)),
    "line separator": _line_edit(lambda line: line + "\u2028"),
    "comment": _insert("# a comment"),
    "trailing comment": _line_edit(lambda line: line + " # c"),
    "blank line": _insert(""),
    "leading zero": _token_edit(lambda t, rng: "0" + t),
    "plus sign": _token_edit(lambda t, rng: "+" + t),
    "minus sign": _token_edit(lambda t, rng: "-" + t),
    "arabic digit": _token_edit(lambda t, rng: t.translate(ARABIC_DIGITS)),
    "underscore": _token_edit(lambda t, rng: t[:1] + "_" + t[1:] if len(t) > 1 else t + "_0"),
    "huge token": _token_edit(lambda t, rng: "7" * 5000),
    "a glued on": _token_edit(lambda t, rng: "a" + t),
    "token dropped": _line_edit(lambda line: line.rsplit(" ", 1)[0]),
    "token added": _line_edit(lambda line: line + " 1"),
    "line dropped": _drop_line,
    "repeated record": _repeat,
    "repeated record, counted": _repeat_counted,
    "swapped endpoints": _line_edit(lambda line: " ".join(line.split(" ")[::-1])),
    "loop": _line_edit(lambda line: "a 1 1" if line.startswith("a ") else "1 1"),
    "out of range": _token_edit(lambda t, rng: str(1000 + rng.randrange(50)) if t.isdigit() else t),
    "at n": _at_n,
    "m zero": _edit_header(lambda n, m: (n, "0")),
    "m plus one": _recount(1),
    "m minus one": _recount(-1),
    "n 1024": _header_n(1024),
    "n 1025": _header_n(1025),
    "n 0": _header_n(0),
    "header dropped": lambda lines, i, rng: lines.pop(0),
    "second header": lambda lines, i, rng: lines.insert(i, lines[0]),
}


def mutated(text, names, rng):
    lines = text.split("\n")[:-1]
    for name in names:
        if lines:
            MUTATIONS[name](lines, rng.randrange(len(lines)), rng)
    out = "\n".join(lines) + "\n"
    return out[:-1] if rng.random() < 0.1 else out  # sometimes no final newline


BASES = [(0, 0.0), (1, 0.0), (2, 1.0), (7, 0.5), (40, 0.6), (90, 0.5)]  # the last one spans chunks


@pytest.mark.parametrize("arcs", [False, True], ids=["edge", "arc"])
@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_bulk_reader_matches_line_reader_under_seeded_mutations(name, arcs):
    rng = random.Random(f"{name}/{arcs}")
    for n, p in BASES:
        text = canonical(n, p, 17 + n, arcs)
        assert_same_as_line_reader(text, arcs)
        for _ in range(6):
            others = rng.sample(sorted(MUTATIONS), rng.randrange(2))
            assert_same_as_line_reader(mutated(text, [name, *others], rng), arcs)


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(graphs(max_n=12), st.booleans(), st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=3),
       st.integers(0, 2**32))
def test_bulk_reader_matches_line_reader_under_drawn_mutations(g, arcs, names, draw_seed):
    rng = random.Random(draw_seed)
    if arcs:
        text = format_arc_list(DiGraph(g.n, [(v, u) if rng.random() < 0.5 else (u, v)
                                             for u, v in g.edges()]))
    else:
        text = format_edge_list(g)
    assert_same_as_line_reader(mutated(text, names, rng), arcs)


def chunk_starts(text):
    """Where the bulk reader's chunks start, by its own rule."""
    start = text.find("\n") + 1
    starts = []
    while start < len(text):
        starts.append(start)
        start = text.rfind("\n", start, start + edgelist._CHUNK) + 1
    return starts


# Faults that leave the faulty line at least as long as the line it
# replaces, so that the chunk boundary before it stays where it was.
BOUNDARY_FAULTS = {
    "swapped endpoints": lambda line, earlier, n: " ".join(line.split(" ")[::-1]),
    "leading zero": lambda line, earlier, n: line.replace(" ", " 0", 1),
    "at n": lambda line, earlier, n: line.rsplit(" ", 1)[0] + f" {n}",
    "crlf": lambda line, earlier, n: line + "\r",
    "tab": lambda line, earlier, n: line.replace(" ", "\t", 1),
    "arabic digit": lambda line, earlier, n: line.translate(ARABIC_DIGITS),
    "repeat": lambda line, earlier, n: next(e for e in earlier if len(e) == len(line) and e != line),
}


@pytest.mark.parametrize("arcs", [False, True], ids=["edge", "arc"])
@pytest.mark.parametrize("fault", sorted(BOUNDARY_FAULTS))
def test_faults_just_after_a_chunk_boundary(fault, arcs):
    n = 160
    text = canonical(n, 0.5, 5, arcs)
    starts = chunk_starts(text)
    assert len(starts) > 5
    assert_same_as_line_reader(text, arcs)
    for boundary in starts[1:3] + starts[-1:]:
        for at in (boundary, text.rfind("\n", 0, boundary - 1) + 1):  # first line of a chunk, last before it
            end = text.index("\n", at)
            earlier = text[text.index("\n") + 1:at].split("\n")
            bad = text[:at] + BOUNDARY_FAULTS[fault](text[at:end], earlier, n) + text[end:]
            if at == boundary:
                assert boundary in chunk_starts(bad)
            assert_same_as_line_reader(bad, arcs)


def test_bulk_reader_reads_every_canonical_text(monkeypatch):
    def refuse(text, arcs):
        raise AssertionError("the line reader was called on canonical text")

    graphs_ = [Graph(0), Graph(1), random_graph(2, 1.0, 1), random_graph(17, 0.5, 2),
               random_graph(256, 0.7, 1), random_graph(1024, 0.01, 3),
               Graph(1024, [(0, 1023), (1022, 1023)])]
    digraphs = [DiGraph(1), DiGraph(1024, [(1023, 0), (0, 1023)]),
                random_digraph(200, 0.3, random.Random(4))]
    expected = [(g, parse_edge_list(format_edge_list(g))) for g in graphs_]
    expected_arcs = [(d, parse_arc_list(format_arc_list(d))) for d in digraphs]
    monkeypatch.setattr(edgelist, "_read_lines", refuse)
    for g, back in expected:
        assert parse_edge_list(format_edge_list(g)) == back == g
    for d, back in expected_arcs:
        again = parse_arc_list(format_arc_list(d))
        assert (again.n, again.out_adj, again.in_adj) == (d.n, d.out_adj, d.in_adj)
        assert (back.out_adj, back.in_adj) == (d.out_adj, d.in_adj)


def traced_peak(read, text):
    tracemalloc.start()
    try:
        read(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_reader_memory_stays_within_the_line_readers():
    # a whole-text token list or a backtracking regex would pass 1.1x
    text = format_edge_list(random_graph(256, 0.7, 1))
    bulk = traced_peak(parse_edge_list, text)
    lines = traced_peak(lambda t: Graph.from_adj(edgelist._read_lines(t, False)), text)
    assert bulk <= 1.1 * lines, (bulk, lines)
