import re

import pytest

from widthiso import FormatError, TreeDecomposition, build_minimal_tdd
from widthiso.formats import (
    format_tdd_records,
    parse_graph,
    parse_tree_decomposition,
    write_graph,
    write_tree_decomposition,
)

from helpers import cycle_graph, path_graph


def test_graph_round_trip():
    g = cycle_graph(4)
    text = write_graph(g)
    assert text == "p tw 4 4\ne 1 2\ne 1 4\ne 2 3\ne 3 4\n"
    assert parse_graph(text) == g


def test_graph_comments_and_blanks_tolerated():
    text = "c made by hand\n\np tw 3 2\nc mid comment\ne 1 2\ne 2 3\n"
    assert parse_graph(text) == path_graph(3)


def test_graph_parse_errors():
    with pytest.raises(FormatError):
        parse_graph("e 1 2\n")
    with pytest.raises(FormatError):
        parse_graph("p tw 2 1\ne 1 3\n")
    with pytest.raises(FormatError):
        parse_graph("p tw 2 2\ne 1 2\n")
    with pytest.raises(FormatError):
        parse_graph("p tw 2 1\ne 1 1\n")
    with pytest.raises(FormatError):
        parse_graph("p tw 2 2\ne 1 2\ne 2 1\n")
    with pytest.raises(FormatError):
        parse_graph("p tw -1 0\n")  # negative vertex count


def test_decomposition_round_trip():
    d = TreeDecomposition(
        bags=((0, 1, 3), (1, 2, 3)),
        tree_edges=frozenset({(0, 1)}),
        root=0,
    )
    text = write_tree_decomposition(d, 4)
    assert text == "p td 2 3 4\nb 1 1 2 4\nb 2 2 3 4\nt 1 2\nr 1\n"
    parsed, n = parse_tree_decomposition(text)
    assert parsed == d and n == 4


def test_decomposition_without_root():
    d = TreeDecomposition(bags=((0, 1),), tree_edges=frozenset())
    text = write_tree_decomposition(d, 2)
    parsed, n = parse_tree_decomposition(text)
    assert parsed.root is None and parsed.bags == ((0, 1),)


def test_decomposition_parse_errors():
    with pytest.raises(FormatError):
        parse_tree_decomposition("b 1 1\n")
    with pytest.raises(FormatError):
        parse_tree_decomposition("p td 2 2 3\nb 1 1\n")  # bag 2 missing
    with pytest.raises(FormatError):
        parse_tree_decomposition("p td 1 2 3\nb 1 5\n")  # vertex out of range
    with pytest.raises(FormatError):
        parse_tree_decomposition("p td 1 2 3\nb 1 1\nb 1 2\n")  # duplicate bag
    with pytest.raises(FormatError):
        parse_tree_decomposition("p td 2 2 3\nb 1 1\nb 2 2\nt 1\n")  # short tree edge
    with pytest.raises(FormatError):
        parse_tree_decomposition("p td 1 2 3\nb 1 1\nr 1 1\n")  # long root line
    with pytest.raises(FormatError, match="line 2: bag 1 repeats vertex 1"):
        parse_tree_decomposition("p td 1 2 2\nb 1 1 1 2\n")


def test_decomposition_header_width_must_match_largest_bag():
    with pytest.raises(FormatError, match="width"):
        parse_tree_decomposition("p td 2 3 3\nb 1 1 2\nb 2 2 3\nt 1 2\n")
    with pytest.raises(FormatError, match="width"):
        parse_tree_decomposition("p td 1 1 2\nb 1 1 2\n")
    with pytest.raises(FormatError, match="width"):
        parse_tree_decomposition("p td 1 1 0\nb 1\n")
    d, n = parse_tree_decomposition("p td 1 0 0\nb 1\n")
    assert d.bags == ((),) and n == 0


def test_decomposition_second_root_line_rejected():
    with pytest.raises(FormatError, match="duplicate r line"):
        parse_tree_decomposition("p td 2 2 3\nb 1 1 2\nb 2 2 3\nt 1 2\nr 1\nr 2\n")


def test_tdd_records_render_one_based():
    d = build_minimal_tdd(cycle_graph(4), [0])
    assert format_tdd_records(d) == "b 1 0 1\nb 2 1 2 4\nb 3 2 3\n"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_graph, "p tw 2 1\np tw 2 1\ne 1 2\n", "duplicate p line"),
        (parse_graph, "p td 2 1\ne 1 2\n", "expected 'p tw <n> <m>'"),
        (parse_graph, "p tw 2 1\ne 1 2 3\n", "expected 'e <u> <v>'"),
        (parse_graph, "p tw 2 1\nx 1 2\n", "unknown record 'x'"),
        (parse_graph, "c no header\n", "missing 'p tw' header"),
        (parse_graph, "p tw 2 one\n", "expected integers"),
        (parse_tree_decomposition, "p td 1 1 1\np td 1 1 1\nb 1 1\n", "duplicate p line"),
        (parse_tree_decomposition, "p td 1 1\nb 1 1\n", "expected 'p td <bags> <width+1> <n>'"),
        (parse_tree_decomposition, "p td 1 1 1\nb 1 1\ne 1 1\n", "unknown record 'e'"),
        (parse_tree_decomposition, "c no header\n", "missing 'p td' header"),
        (parse_tree_decomposition, "p td 1 1 1\nb\n", "bag line without id"),
        (parse_tree_decomposition, "p td 1 1 1\nb 2 1\n", "bag id 2 outside 1..1"),
        (parse_tree_decomposition, "p td 2 1 2\nb 1 1\nb 2 2\nt 1 3\n", "tree edge outside 1..2"),
        (parse_tree_decomposition, "t 1 2\np td 2 1 2\nb 1 1\nb 2 2\n", "t line before p line"),
        (parse_tree_decomposition, "p td 1 1 1\nb 1 1\nr 2\n", "root 2 outside 1..1"),
        (parse_tree_decomposition, "p td 1 1 1\nb 1 x\n", "expected integers"),
    ],
)
def test_malformed_input_is_rejected(parse, text, message):
    with pytest.raises(FormatError, match=re.escape(message)):
        parse(text)
