import pytest
from hypothesis import given, settings

from conftest import graphs

from hampack.core import DiGraph
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
    assert back.n == d.n and sorted(back.arcs()) == sorted(d.arcs())


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
