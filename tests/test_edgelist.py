"""Edge-list text format: parsing, formatting, error reporting."""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import helpers
from distbalance import (
    EdgeListFormatError,
    SelfLoopError,
    VertexOutOfRangeError,
    complete_graph,
    cycle_graph,
    format_edge_list,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)
from distbalance import edgelist


def test_basic_parse():
    g = parse_edge_list("3\n0 1\n1 2\n")
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]


def test_comments_blank_lines_duplicates():
    text = "# a path\n\n4\n0 1\n1 0\n# middle\n1 2\n2 3\n\n"
    g = parse_edge_list(text)
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_missing_vertex_count():
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("# nothing here\n")


def test_bad_token_counts():
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("3 3\n0 1\n")
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("3\n0 1 2\n")


def test_non_integer_token():
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("3\n0 x\n")


def test_nonpositive_vertex_count():
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("0\n")


def test_endpoint_errors_propagate():
    with pytest.raises(VertexOutOfRangeError):
        parse_edge_list("3\n0 7\n")
    with pytest.raises(SelfLoopError):
        parse_edge_list("3\n1 1\n")


def test_format_round_trip():
    g = cycle_graph(5)
    assert parse_edge_list(format_edge_list(g)) == g


def test_file_round_trip(tmp_path):
    g = cycle_graph(6)
    path = tmp_path / "c6.el"
    write_edge_list(g, path)
    assert read_edge_list(path) == g


@given(helpers.connected_graphs())
def test_round_trip_any_graph(g):
    assert parse_edge_list(format_edge_list(g)) == g


# The canonical form is read by a shape test and one int conversion, any
# other text by the line loop; both must give the same graph or the same
# exception with the same message.

def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the outcome under test is the exception itself
        return type(exc), str(exc)


def _assert_same_as_line_loop(text):
    assert _outcome(parse_edge_list, text) == _outcome(edgelist._parse_lines, text)


_CORPUS = [
    "0\n", "00 1", "3\n0  1\n", "3\n 0 1\n", "3\n0 1 \n", "3\r\n0 1\r\n",
    "# x\r1 2\n3\n", "3\n\u0663 1\n", "3\n0 3\n", "3\n1 1\n", "3\n-1 2\n",
    "70000\n0 1\n", "7" * 5000 + "\n0 1\n", "3\n0 1\n# mid\n1 2\n", "",
    "# only\n# comments\n",
    # canonical, and near misses of it
    "3\n0 1\n1 2\n", "# a\n# b\n3\n0 1\n", "3\n", "3\n0 1", "\n3\n0 1\n",
    "03\n0 1\n", "3\n01 2\n", "3\n0 1\n\n", "# a\x85b\n3\n0 1\n", "# a\r\n3\n0 1\n",
    "# no newline", "#\n3\n0 " + "1" * 5000 + "\n", "3\n\n0 1\n", "3\n0\n",
    # a blank count line: only the line loop may report the missing count
    "\n", "# x\n\n", "#\n\n", "\n1 2\n", "# x\n\n3\n0 1\n",
]


@pytest.mark.parametrize("text", _CORPUS, ids=lambda text: repr(text)[:30])
def test_corpus_parses_as_the_line_loop_does(text):
    _assert_same_as_line_loop(text)


_MUTATIONS = "0123456789 \n\r\t\x0b\x0c\x85\u2028#-+_x\u0663"


@st.composite
def _mutated_edge_lists(draw):
    """The writer's text, maybe under a header, with one character
    inserted, replaced or deleted."""
    text = format_edge_list(draw(helpers.connected_graphs()))
    if draw(st.booleans()):
        text = "# name\n" + text
    i = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from(_MUTATIONS))
    return draw(st.sampled_from([text[:i] + c + text[i:], text[:i] + c + text[i + 1:],
                                 text[:i] + text[i + 1:]]))


@given(_mutated_edge_lists())
def test_one_character_mutants_parse_as_the_line_loop_does(text):
    _assert_same_as_line_loop(text)


def _refuse(text):
    raise AssertionError("the canonical form fell back to the line loop")


@given(helpers.connected_graphs())
@example(complete_graph(40))  # what `gen complete 40 --out` writes
def test_the_writers_output_never_reaches_the_line_loop(g):
    """A drifted shape test would fall back silently and pass every other
    test, so the line loop is patched to fail here."""
    text = format_edge_list(g)
    with mock.patch.object(edgelist, "_parse_lines", _refuse):
        assert parse_edge_list(text) == g
        assert parse_edge_list(f"# name\n{text}") == g


def _traced_peak(parse, text):
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_canonical_read_peaks_no_higher_than_the_line_loop():
    """A shape test with a greedy regex over the whole text keeps a
    backtracking mark per line: about 5 MB on this 125 KB text."""
    text = format_edge_list(complete_graph(192))
    assert _traced_peak(parse_edge_list, text) <= _traced_peak(edgelist._parse_lines, text)
