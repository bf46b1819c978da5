import dataclasses
import random
import re
import tracemalloc

import pytest

from widthiso import (
    FormatError,
    Graph,
    TreeDecomposition,
    build_minimal_tdd,
    compute_tree_decomposition,
    generate_partial_ktree,
    validate_tree_decomposition,
)
from widthiso.formats import (
    format_tdd_records,
    parse_graph,
    parse_tree_decomposition,
    write_graph,
    write_tree_decomposition,
)

from helpers import (
    complete_graph,
    cycle_graph,
    grid_graph,
    mutants,
    path_graph,
    petersen_graph,
    random_graph,
    spider_edge_bags,
    spider_graph,
    star_graph,
    triangle_with_pendants,
)


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


def test_decomposition_without_bags_round_trips():
    # width() is -1 without bags, as for one empty bag, so the writer
    # round-trips the text; validation still refuses the decomposition.
    assert TreeDecomposition(bags=((),), tree_edges=frozenset()).width() == -1
    d, n = parse_tree_decomposition("p td 0 0 3\n")
    assert d.bags == () and d.width() == -1 and n == 3
    assert write_tree_decomposition(d, n) == "p td 0 0 3\n"
    assert parse_tree_decomposition(write_tree_decomposition(d, n)) == (d, n)
    assert validate_tree_decomposition(path_graph(3), d) == ["structure: no bags"]


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


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_graph, "p tw 3 2\ne 1 4\nx 1 2\n", "line 2: endpoint outside 1..3"),
        (parse_graph, "p tw 3 2\ne 1 2 3\ne 2 2\n", "line 2: expected 'e <u> <v>'"),
        (parse_graph, "p tw 3 2\ne 1 1\ne 1 9\n", "line 2: self-loop at 1"),
        (parse_graph, "p tw 3 2\ne 1 2\ne 2 1\n", "duplicate edges in file"),
        (parse_tree_decomposition, "p td 2 2 3\nb 1 1 9\nb 1 2\n", "line 2: vertex 9 outside 1..3"),
        (parse_tree_decomposition, "p td 2 2 3\nt 1 5\nb 1 1 1\n", "line 2: tree edge outside 1..2"),
        # Texts in the writers' layout but for one fault at its edge.
        (parse_graph, "p tw 3 1\ne 1 4\n", "line 2: endpoint outside 1..3"),
        (parse_graph, "p tw 3 1\ne 0 1\n", "line 2: endpoint outside 1..3"),
        (parse_graph, "p tw 4 2\ne 1\n2 e 3 4\n", "line 2: expected 'e <u> <v>'"),
        (parse_graph, "p tw 4 2\ne 1 2 e 3 4\n\n", "line 2: expected 'e <u> <v>'"),
        (parse_tree_decomposition, "p td 1 1 3\nb 1 4\n", "line 2: vertex 4 outside 1..3"),
        (parse_tree_decomposition, "p td 1 1 3\nb 1 0\n", "line 2: vertex 0 outside 1..3"),
        (
            parse_tree_decomposition,
            "p td 3 1 3\nb 1 1\nb 2 2\nb 3 3\nt 1\n2 t 2 3\n",
            "line 5: expected 't <id1> <id2>'",
        ),
        # Negative counts in the header, refused like parse_graph refuses them.
        (parse_tree_decomposition, "p td -1 0 -5\n", "line 1: negative count in 'p td -1 0 -5'"),
        (parse_tree_decomposition, "p td 1 0 -5\nb 1\n", "line 1: negative count in 'p td 1 0 -5'"),
        (parse_tree_decomposition, "c x\np td 0 -1 0\n", "line 2: negative count in 'p td 0 -1 0'"),
        (parse_graph, "p tw -1 0\n", "line 1: negative count in 'p tw -1 0'"),
        (parse_graph, "e 1 2\np tw 2 1\n", "line 1: e line before p line"),
        (parse_graph, "p tw 2 2\ne 1 2\n", "header promises 2 edges, file has 1"),
        (parse_tree_decomposition, "b 1 1\np td 1 1 1\n", "line 1: b line before p line"),
        (parse_tree_decomposition, "p td 1 2 3\nb 1 1\nb 1 2\n", "line 3: duplicate bag 1"),
        (parse_tree_decomposition, "p td 1 2 3\nb 1 1\nr 1 1\n", "line 3: expected 'r <id>'"),
        (parse_tree_decomposition, "p td 2 2 3\nb 1 1\n", "bag 2 missing"),
        (
            parse_tree_decomposition,
            "p td 2 3 3\nb 1 1 2\nb 2 2 3\nt 1 2\n",
            "header width+1 is 3, but the largest bag has 2 vertices",
        ),
    ],
)
def test_first_fault_in_line_order_is_reported(parse, text, message):
    with pytest.raises(FormatError) as caught:
        parse(text)
    assert str(caught.value) == message


_BUNDLES = [generate_partial_ktree(6 + s, 1 + s % 3, 0.8, s) for s in range(12)]
_FAMILIES = [
    Graph(0),
    Graph(3),
    path_graph(1),
    path_graph(6),
    cycle_graph(5),
    star_graph(4),
    complete_graph(4),
    grid_graph(3, 3),
    spider_graph(2, 3, 1),
    triangle_with_pendants(),
    petersen_graph(),
    random_graph(9, 0.4, 1),
]
_SPIDER, _SPIDER_BAGS = spider_edge_bags(3)


def _narrowest(g: Graph) -> TreeDecomposition:
    return next(filter(None, (compute_tree_decomposition(g, k) for k in range(g.vertex_count + 1))))


GRAPHS = [bundle.graph for bundle in _BUNDLES] + _FAMILIES
DECOMPOSITIONS = [(bundle.decomposition, bundle.graph.vertex_count) for bundle in _BUNDLES]
DECOMPOSITIONS += [(_narrowest(g), g.vertex_count) for g in _FAMILIES]
DECOMPOSITIONS.append((_SPIDER_BAGS, _SPIDER.vertex_count))
DECOMPOSITIONS += [(dataclasses.replace(d, root=None), n) for d, n in DECOMPOSITIONS]


def _variants(text: str, rng: random.Random) -> list[str]:
    """The same records laid out as the line-by-line reader allows and the
    writers never emit."""
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("p"))
    records = lines[header + 1:]
    rng.shuffle(records)
    roots = [line for line in records if line.startswith("r")]
    interleaved = []
    for line in lines:
        interleaved += [line, rng.choice(["", "c note", "   ", "c"])]
    return [
        "\r\n".join(lines) + "\r\n",
        "c leading\n\n" + "\n".join(interleaved) + "\n",
        "".join(f"  {'   '.join(line.split())}\t \n" for line in lines),
        "\n".join(roots + lines[: header + 1] + [r for r in records if r not in roots]) + "\n",
        re.sub(r"\d+", lambda m: rng.choice(["+", "00"]) + m.group(), text),
    ]


def test_reordered_and_padded_layouts_parse_alike():
    rng = random.Random(5)
    for g in GRAPHS:
        expected = parse_graph(write_graph(g))
        for text in _variants(write_graph(g, comment="a\nb"), rng):
            parsed = parse_graph(text)
            assert parsed == expected, text
            assert parsed._adj == expected._adj and hash(parsed) == hash(expected), text
    for d, n in DECOMPOSITIONS:
        expected = parse_tree_decomposition(write_tree_decomposition(d, n))
        for text in _variants(write_tree_decomposition(d, n), rng):
            assert parse_tree_decomposition(text) == expected, text


def test_table_lookup_agrees_with_the_checked_conversion():
    # A 0 put before every digit run keeps each label's value but takes it
    # out of the readers' label tables, so the padded copy of each mutant is
    # read by the checked conversion alone.
    rng = random.Random(11)
    cases = [(parse_graph, write_graph(g)) for g in GRAPHS]
    cases += [(parse_tree_decomposition, write_tree_decomposition(d, n)) for d, n in DECOMPOSITIONS]
    accepted = 0
    for parse, written in cases:
        for text in mutants(written, rng, 40):
            padded = re.sub(r"\d+", r"0\g<0>", text)
            try:
                looked_up = parse(text)
            except FormatError as fault:
                with pytest.raises(FormatError) as caught:
                    parse(padded)
                # Messages may echo tokens: drop the one padding 0 of each.
                assert re.sub(r"\b0(?=\d)", "", str(caught.value)) == str(fault), text
                continue
            checked = parse(padded)
            assert looked_up == checked, text
            if isinstance(looked_up, Graph):
                assert looked_up._adj == checked._adj, text
            accepted += 1
    assert accepted > 100


@pytest.mark.parametrize(
    "text, expected",
    [
        ("p td 100000000 0 100000000\n", "bag 1 missing"),
        ("p td 0 0 100000000\n", (TreeDecomposition(bags=(), tree_edges=frozenset()), 100000000)),
    ],
)
def test_header_counts_size_no_allocation(text, expected):
    tracemalloc.start()
    try:
        try:
            parsed = parse_tree_decomposition(text)
        except FormatError as fault:
            parsed = str(fault)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == expected
    assert peak < 1 << 20


def test_edgeless_header_parses_in_bounded_memory():
    """A 16-byte text declaring a million vertices and no edges gives each
    vertex the shared empty adjacency tuple, not a set of its own: the
    parse peaks under 32 MB (230 MB with one set per vertex)."""
    tracemalloc.start()
    try:
        g = parse_graph("p tw 1000000 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (g.vertex_count, g.edge_count) == (1000000, 0)
    assert len(set(map(id, g._adj))) == 1 and g._adj[0] == ()
    assert peak < 32 << 20


def test_parsed_edges_are_checked_once(monkeypatch):
    """The reader checks each edge as it reads it and hands Graph the sorted
    adjacency it built: Graph(n, edges), which checks every edge, never
    runs, and the parsed graph equals the one it would build."""
    text = "c a 5-cycle with a chord\np tw 6 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\ne 2 5\n"
    expected = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)])

    def refuse(*args):
        raise AssertionError("Graph.__init__ checked the parsed edges again")

    monkeypatch.setattr(Graph, "__init__", refuse)
    g = parse_graph(text)
    assert g == expected and g.edge_count == 6 and g._adj[5] == ()
    with pytest.raises(FormatError, match="duplicate edges in file"):
        parse_graph("p tw 3 2\ne 1 2\ne 2 1\n")
