import itertools
import random
import tracemalloc

import pytest

from widthiso import (
    EmptySetError,
    Graph,
    InvalidVertexError,
    connected_components,
    distance,
    enumerate_connected_graphs,
    induced_subgraph,
    is_connected,
    random_relabel,
    set_distance,
)
from widthiso.formats import parse_graph, write_graph
from widthiso.graph import stable_colours

from helpers import (
    complete_graph,
    cycle_graph,
    neighbors_of_set,
    path_graph,
    random_graph,
    reachable_avoiding,
    star_graph,
)


def test_graph_construction_rejects_bad_edges():
    with pytest.raises(ValueError, match="vertex_count must be non-negative"):
        Graph(-1)
    with pytest.raises(InvalidVertexError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])
    # The first offending edge in input order is the one reported.
    with pytest.raises(InvalidVertexError, match=r"edge \(0, 5\)"):
        Graph(3, [(0, 1), (0, 5), (2, 2), (7, 0)])
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        Graph(3, [(0, 1), (2, 2), (0, 5), (1, 1)])
    with pytest.raises(InvalidVertexError, match=r"edge \(0, 5\)"):
        Graph(3, iter([(1, 2), (0, 5), (1, 1)]))


def test_graph_dedupes_and_normalizes():
    g = Graph(3, [(1, 0), (0, 1), (1, 2)])
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.neighbors(1) == (0, 2)
    assert g.degree(1) == 2
    # Edges may come from a one-shot generator: it is read once.
    once = Graph(3, (e for e in [(1, 0), (0, 1), (2, 1)]))
    assert once == g and once._adj == g._adj and hash(once) == hash(g)
    # A graph equals no other kind of object, and prints its sorted edges.
    assert g.__eq__(g._adj) is NotImplemented and g != g._adj
    assert repr(g) == "Graph(3, [(0, 1), (1, 2)])" and repr(Graph(0)) == "Graph(0, [])"


@pytest.mark.parametrize("seed", range(8))
def test_edge_list_order_and_duplicates_do_not_matter(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 24)
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.3]
    g = Graph(n, pairs)
    # edges derives the set the graph once stored: one (min, max) pair per edge
    assert g.edges == frozenset(pairs)
    assert g.edge_count == len(g.edges) == len(pairs)
    shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
    rng.shuffle(shuffled)
    for edges in (shuffled, pairs[::-1], pairs + shuffled + pairs):
        h = Graph(n, edges)
        assert h == g and hash(h) == hash(g) and h._adj == g._adj
        assert h.edges == g.edges and h.edge_count == g.edge_count
    assert g != Graph(n + 1, pairs)


def test_has_edge_is_symmetric_and_false_off_the_edges():
    star = star_graph(2000)
    assert all(star.has_edge(0, v) and star.has_edge(v, 0) for v in range(1, 2001))
    assert not any(star.has_edge(v, v + 1) for v in range(1, 2000))
    g = random_graph(12, 0.4, 3)
    for u, v in itertools.product(range(12), repeat=2):
        assert g.has_edge(u, v) == g.has_edge(v, u) == ((min(u, v), max(u, v)) in g.edges)
    # Labels outside 0..n-1 are no edge; -1 does not wrap round to n - 1,
    # a star leaf adjacent to the hub.
    for h in (star, g, path_graph(1), Graph(0)):
        n = h.vertex_count
        for v in (-1, 0, n - 1, n):
            assert not (h.has_edge(-1, v) or h.has_edge(v, -1))
            assert not (h.has_edge(n, v) or h.has_edge(v, n))


def test_parsed_graphs_hold_only_their_adjacency():
    rng = random.Random(16)
    pairs = list(itertools.combinations(range(16), 2))
    texts = [write_graph(Graph(16, rng.sample(pairs, 40))) for _ in range(1000)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graphs = [parse_graph(text) for text in texts]
        per_graph = (tracemalloc.get_traced_memory()[0] - before) / len(graphs)
    finally:
        tracemalloc.stop()
    # About 1,490 bytes: the adjacency tuples alone.  A second, edge-set
    # copy of each graph takes it to about 5,900.
    assert per_graph <= 2500, per_graph


def test_distance_on_path():
    g = path_graph(3)
    assert distance(g, 0, 2) == 2
    assert distance(g, 1, 1) == 0


def test_distance_unreachable():
    g = Graph(4, [(0, 1), (2, 3)])
    assert distance(g, 0, 3) is None


def test_distance_invalid_vertex():
    with pytest.raises(InvalidVertexError):
        distance(path_graph(2), 0, 5)


def test_set_distance():
    g = path_graph(4)
    assert set_distance(g, [0, 3], 1) == 1
    assert set_distance(g, [0, 3], 3) == 0
    star = star_graph(4)
    assert set_distance(star, [1], 2) == 2
    with pytest.raises(EmptySetError):
        set_distance(g, [], 0)


def test_neighbors_of_set():
    tri = cycle_graph(3)
    assert neighbors_of_set(tri, [0]) == (1, 2)
    isolated = Graph(2, [])
    assert neighbors_of_set(isolated, [0]) == ()
    g = path_graph(4)
    assert neighbors_of_set(g, [1, 2]) == (0, 3)


def test_connected_components():
    g = path_graph(3)
    assert connected_components(g, [1]) == [(0,), (2,)]
    assert connected_components(g) == [(0, 1, 2)]
    c4 = cycle_graph(4)
    assert connected_components(c4, [0, 2]) == [(1,), (3,)]


def test_reachable_avoiding():
    g = path_graph(3)
    assert not reachable_avoiding(g, [0], 2, [1])
    assert reachable_avoiding(g, [2], 2, [])
    c4 = cycle_graph(4)
    assert reachable_avoiding(c4, [0], 2, [1])
    with pytest.raises(ValueError):
        reachable_avoiding(g, [0], 1, [1])


def test_induced_subgraph():
    tri = cycle_graph(3)
    whole, relabel = induced_subgraph(tri, [0, 1, 2])
    assert whole == tri and relabel == {0: 0, 1: 1, 2: 2}
    edge, relabel = induced_subgraph(tri, [0, 1])
    assert edge == Graph(2, [(0, 1)])
    nothing, relabel = induced_subgraph(tri, [])
    assert nothing.vertex_count == 0 and relabel == {}


def _metric_pool():
    pool = []
    for n in range(1, 6):
        pool.extend(enumerate_connected_graphs(n))
    for seed in range(20):
        pool.append(random_graph(8, 0.35, seed))
    return pool


def test_distance_is_a_metric():
    for g in _metric_pool():
        n = g.vertex_count
        d = [[distance(g, u, v) for v in range(n)] for u in range(n)]
        for u, v in itertools.combinations(range(n), 2):
            assert d[u][v] == d[v][u]
        for u, v, w in itertools.permutations(range(n), 3):
            if d[u][v] is not None and d[v][w] is not None:
                assert d[u][w] is not None and d[u][w] <= d[u][v] + d[v][w]


def test_components_partition_and_reachability():
    for g in _metric_pool():
        for removed in ([], [0], list(range(0, g.vertex_count, 3))):
            removed = [v for v in removed if v < g.vertex_count]
            parts = connected_components(g, removed)
            flat = [v for part in parts for v in part]
            assert sorted(flat) == sorted(set(range(g.vertex_count)) - set(removed))
            assert len(flat) == len(set(flat))
            part_of = {v: i for i, part in enumerate(parts) for v in part}
            for u, v in g.edges:
                if u in part_of and v in part_of:
                    assert part_of[u] == part_of[v]
            for part in parts:
                sub, _ = induced_subgraph(g, part)
                assert is_connected(sub)
            # reachability coincides with sharing a part
            for target in range(g.vertex_count):
                if target in set(removed):
                    continue
                source = [0] if 0 not in set(removed) else []
                expected = bool(source) and part_of.get(source[0]) == part_of.get(target)
                assert reachable_avoiding(g, source, target, removed) == expected


def test_complete_graph_builder_sanity():
    k4 = complete_graph(4)
    assert k4.edge_count == 6 and all(k4.degree(v) == 3 for v in range(4))


def _rounds_of_refinement(g: Graph, h: Graph):
    """Reference: refine the disjoint union round by round, each vertex
    taking its colour and the sorted colours of its neighbours, until the
    number of colours stops growing; the final partition of the union's
    vertices (h's vertex v is len(g) + v), and whether the histograms agree."""
    n = g.vertex_count
    adj = [list(a) for a in g._adj] + [[w + n for w in a] for a in h._adj]
    colour = [len(a) for a in adj]
    while True:
        sigs = [(colour[v], tuple(sorted(colour[w] for w in a))) for v, a in enumerate(adj)]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        grown = len(palette) > len(set(colour))
        colour = [palette[s] for s in sigs]
        if not grown:
            break
    cells = {}
    for v, c in enumerate(colour):
        cells.setdefault(c, []).append(v)
    return sorted(cells.values()), sorted(colour[:n]) == sorted(colour[n:])


def test_stable_colours_match_refinement_by_rounds():
    # Random graphs against relabelled copies (equal histograms) and against
    # one another (mostly not): the same stable partition, the same verdict.
    for seed in range(60):
        g = random_graph(9, 0.3, seed)
        for h in (random_relabel(g, seed)[0], random_graph(9, 0.3, seed + 100)):
            cells, same = _rounds_of_refinement(g, h)
            colours = stable_colours(g, h)
            assert (colours is not None) == same
            if colours is not None:
                ours = {}
                for v, c in enumerate(colours[0] + colours[1]):
                    ours.setdefault(c, []).append(v)
                assert sorted(ours.values()) == cells


def test_stable_colours_follow_isomorphisms():
    for seed in range(20):
        g = random_graph(10, 0.35, seed)
        h, perm = random_relabel(g, seed + 1)
        g_colour, h_colour = stable_colours(g, h)
        assert all(g_colour[v] == h_colour[perm[v]] for v in range(10))


def test_stable_colours_refine_degrees():
    p5, tri_edge = path_graph(5), Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert p5.degree_sequence() == tri_edge.degree_sequence()
    assert stable_colours(p5, tri_edge) is None
    assert stable_colours(path_graph(4), star_graph(3)) is None
    assert stable_colours(path_graph(4), path_graph(5)) is None
    # Regular graphs of one degree and size stay one colour.
    assert stable_colours(cycle_graph(6), Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])) == (
        [0] * 6,
        [0] * 6,
    )
    # A path refines to distances from its nearer end in about n / 2 splits.
    g_colour, _ = stable_colours(path_graph(2001), path_graph(2001))
    assert len(set(g_colour)) == 1001
    assert stable_colours(Graph(0), Graph(0)) == ([], [])
