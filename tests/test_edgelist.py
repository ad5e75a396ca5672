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
from hampack.errors import ParseError


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


@pytest.mark.parametrize("text", ["p -1 0\n", "p 3 -1\n"])
def test_negative_header_is_a_parse_error_in_both_formats(text):
    with pytest.raises(ParseError):
        parse_edge_list(text)
    with pytest.raises(ParseError):
        parse_arc_list(text)
