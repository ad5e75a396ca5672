import functools
import random
import tracemalloc

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import graphs

from hampack import edgelist
from hampack.construct import random_graph
from hampack.core import Graph
from hampack.edgelist import format_edge_list, parse_edge_list
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


# Every fault, with its exact message and line number.  The test ids keep
# the format name ("edge-...") under which earlier runs recorded them.
PARSE_FAULTS = [
    ("0 1\np 2 1\n", 1, "line 1: edge line before 'p' header"),
    ("a 0 1\n", 1, "line 1: edge line before 'p' header"),
    ("p 2 x\n", 1, "line 1: non-integer header fields"),
    ("p 3\n", 1, "line 1: header must be 'p <n> <m>'"),
    ("p 3 1 2\n", 1, "line 1: header must be 'p <n> <m>'"),
    ("p -1 0\n", 1, "line 1: negative header fields"),
    ("p 3 -1\n", 1, "line 1: negative header fields"),
    ("p 3 1\np 3 1\n0 1\n", 2, "line 2: duplicate header line"),
    ("p 3 1\np\n", 2, "line 2: duplicate header line"),
    ("p 2 1\n1 0\n", 2, "line 2: endpoints must satisfy u < v, got 1 0"),
    ("p 3 1\n  1   1  \n", 2, "line 2: endpoints must satisfy u < v, got 1 1"),
    ("p 2 1\n0 2\n", 2, "line 2: endpoint out of range 0..1"),
    ("p 0 1\n0 1\n", 2, "line 2: endpoint out of range 0..-1"),
    ("p 3 1\n-1 1\n", 2, "line 2: endpoint out of range 0..2"),
    ("p 3 2\n0 1\n0 1\n", 3, "line 3: duplicate edge 0 1"),
    ("p 3 2\n# c\n0 2\n\n0 2\n", 5, "line 5: duplicate edge 0 2"),
    ("p 3 2\n0 1\n1 0\n", 3, "line 3: endpoints must satisfy u < v, got 1 0"),
    ("p 2 1\n0 1 9\n", 2, "line 2: expected '<u> <v>', got '0 1 9'"),
    ("p 3 1\n\t0 1 # trailing\n", 2, "line 2: expected '<u> <v>', got '0 1 # trailing'"),
    ("p 3 1\na 0 1\n", 2, "line 2: expected '<u> <v>', got 'a 0 1'"),
    ("p 3 1\n0\n", 2, "line 2: expected '<u> <v>', got '0'"),
    ("p 3 1\nbogus line\n", 2, "line 2: non-integer endpoint"),
    ("p 3 1\n0 x\n", 2, "line 2: non-integer endpoint"),
    ("p 3 1\n0 1.0\n", 2, "line 2: non-integer endpoint"),
    ("p 11 1\n0 1_0\n", 2, "line 2: non-integer endpoint"),
    ("p 3 1\n+0 1\n", 2, "line 2: non-integer endpoint"),
    ("p 3 1\n0 \u0661\n", 2, "line 2: non-integer endpoint"),
    ("p 3 1\n0 -\n", 2, "line 2: non-integer endpoint"),
    ("p 3 1\n0 --1\n", 2, "line 2: non-integer endpoint"),
    ("p 1_1 0\n", 1, "line 1: non-integer header fields"),
    ("p +3 0\n", 1, "line 1: non-integer header fields"),
    ("p 3 \u0660\n", 1, "line 1: non-integer header fields"),
    ("p 3 1_0\n", 1, "line 1: non-integer header fields"),
    ("p \u0663 0\n", 1, "line 1: non-integer header fields"),
    ("", None, "missing 'p <n> <m>' header"),
    ("# only\n\n", None, "missing 'p <n> <m>' header"),
    ("p 3 2\n0 1\n", None, "header declares m=2 but found 1 edges"),
    ("p 3 0\n0 1\n", None, "header declares m=0 but found 1 edges"),
    ("p 3 1\n0 1\n1 2\n", None, "header declares m=1 but found 2 edges"),
]


@pytest.mark.parametrize("text,line,message", PARSE_FAULTS,
                         ids=["edge-" + "-".join(map(str, fault)) for fault in PARSE_FAULTS])
def test_parse_fault_message_and_line(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert (err.value.line, str(err.value)) == (line, message)


@pytest.mark.parametrize("parse", [parse_edge_list])
def test_header_above_the_vertex_cap_is_refused_at_the_header(parse):
    # no row is built for a header above the cap, however large its n
    for text in ("p 1025 0\n", "p 1000000000000 1\n0 1\n0 1\n", "p 2000 5\nbogus\n"):
        with pytest.raises(CapacityError, match="exceeds the supported maximum 1024"):
            parse(text)
    assert parse("p 1024 0\n").n == 1024


@pytest.mark.parametrize("text", ["p -1 0\n", "p 3 -1\n"])
def test_negative_header_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_edge_list(text)


# ---------------------------------------------------------------------------
# The bulk reader against the line reader
# ---------------------------------------------------------------------------

@functools.cache
def canonical(n, p, seed_):
    return format_edge_list(random_graph(n, p, seed_))


def outcome(read, text):
    try:
        return "rows", read(text)
    except (ParseError, CapacityError) as exc:
        return type(exc), str(exc)


def assert_same_as_line_reader(text):
    assert outcome(edgelist._read_rows, text) == outcome(edgelist._read_lines, text)


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
    "loop": _line_edit(lambda line: "1 1"),
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


def edge_id(name):
    """The test id of a mutation or fault: its name and, as in the ids
    that earlier runs recorded, the format."""
    return f"{name}-edge"


@pytest.mark.parametrize("name", sorted(MUTATIONS), ids=edge_id)
def test_bulk_reader_matches_line_reader_under_seeded_mutations(name):
    rng = random.Random(name)
    for n, p in BASES:
        text = canonical(n, p, 17 + n)
        assert_same_as_line_reader(text)
        for _ in range(6):
            others = rng.sample(sorted(MUTATIONS), rng.randrange(2))
            assert_same_as_line_reader(mutated(text, [name, *others], rng))


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(graphs(max_n=12), st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=3),
       st.integers(0, 2**32))
def test_bulk_reader_matches_line_reader_under_drawn_mutations(g, names, draw_seed):
    rng = random.Random(draw_seed)
    assert_same_as_line_reader(mutated(format_edge_list(g), names, rng))


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


@pytest.mark.parametrize("fault", sorted(BOUNDARY_FAULTS), ids=edge_id)
def test_faults_just_after_a_chunk_boundary(fault):
    n = 160
    text = canonical(n, 0.5, 5)
    starts = chunk_starts(text)
    assert len(starts) > 5
    assert_same_as_line_reader(text)
    for boundary in starts[1:3] + starts[-1:]:
        for at in (boundary, text.rfind("\n", 0, boundary - 1) + 1):  # first line of a chunk, last before it
            end = text.index("\n", at)
            earlier = text[text.index("\n") + 1:at].split("\n")
            bad = text[:at] + BOUNDARY_FAULTS[fault](text[at:end], earlier, n) + text[end:]
            if at == boundary:
                assert boundary in chunk_starts(bad)
            assert_same_as_line_reader(bad)


def test_bulk_reader_reads_every_canonical_text(monkeypatch):
    def refuse(text):
        raise AssertionError("the line reader was called on canonical text")

    graphs_ = [Graph(0), Graph(1), random_graph(2, 1.0, 1), random_graph(17, 0.5, 2),
               random_graph(256, 0.7, 1), random_graph(1024, 0.01, 3),
               Graph(1024, [(0, 1023), (1022, 1023)])]
    expected = [(g, parse_edge_list(format_edge_list(g))) for g in graphs_]
    monkeypatch.setattr(edgelist, "_read_lines", refuse)
    for g, back in expected:
        assert parse_edge_list(format_edge_list(g)) == back == g


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
    lines = traced_peak(lambda t: Graph.from_adj(edgelist._read_lines(t)), text)
    assert bulk <= 1.1 * lines, (bulk, lines)
