import time
from functools import partial

import pytest

from widthiso import (
    DisconnectedGraphError,
    EmptySetError,
    Graph,
    TreeDistanceDecomposition,
    build_minimal_tdd,
    canon_tdw,
    canonical_map,
    enumerate_connected_graphs,
    iso_tdw,
    random_relabel,
    set_distance,
    tree_distance_width,
    validate_tdd,
)
from helpers import (
    child_groups,
    complete_graph,
    cycle_graph,
    first_child,
    next_sibling,
    parent_bag,
    path_graph,
    star_graph,
    triangle_with_pendants,
)

SPIDER = Graph(5, [(0, 1), (1, 3), (0, 2), (2, 4)])  # legs 0-1-3 and 0-2-4


def test_parent_bag_examples():
    assert parent_bag(path_graph(3), [0], [2]) == (1,)
    assert parent_bag(star_graph(4), [0], [1]) == (0,)
    # vertex 2 fails the reachability test once {1, 3} is deleted
    assert parent_bag(cycle_graph(4), [0], [1, 3]) == (0,)


def test_parent_bag_root_rejected():
    with pytest.raises(ValueError):
        parent_bag(path_graph(3), [0], [0])


def test_first_child_examples():
    assert first_child(path_graph(3), [0], [0]) == (1,)
    assert first_child(path_graph(3), [0], [2]) is None
    # legs of the spider stay separate: 1 and 2 sit in different components
    assert first_child(SPIDER, [0], [0]) == (1,)


def test_next_sibling_examples():
    assert next_sibling(SPIDER, [0], [1]) == (2,)
    assert next_sibling(SPIDER, [0], [2]) is None
    assert next_sibling(path_graph(3), [0], [1]) is None
    with pytest.raises(ValueError):
        next_sibling(path_graph(3), [0], [0])


def test_build_minimal_tdd_path():
    d = build_minimal_tdd(path_graph(3), [0])
    assert d.bags == ((0,), (1,), (2,))
    assert d.depth == (0, 1, 2)
    assert d.parent == (0, 0, 1)


def test_build_minimal_tdd_cycle():
    d = build_minimal_tdd(cycle_graph(4), [0])
    assert d.bags == ((0,), (1, 3), (2,))
    assert d.depth == (0, 1, 2)
    assert validate_tdd(cycle_graph(4), d) == []


def test_build_minimal_tdd_full_root():
    g = cycle_graph(4)
    d = build_minimal_tdd(g, range(4))
    assert d.bags == ((0, 1, 2, 3),)
    assert d.width() == 4


def test_build_minimal_tdd_errors():
    with pytest.raises(DisconnectedGraphError):
        build_minimal_tdd(Graph(4, [(0, 1), (2, 3)]), [0])
    with pytest.raises(EmptySetError):
        build_minimal_tdd(path_graph(3), [])


def test_validate_tdd_accepts_built():
    for g, root in [
        (path_graph(5), [0]),
        (cycle_graph(6), [2]),
        (SPIDER, [0]),
        (complete_graph(4), [0, 1]),
        (triangle_with_pendants(), [0]),
    ]:
        assert validate_tdd(g, build_minimal_tdd(g, root)) == []


def test_validate_tdd_detects_merged_siblings():
    # merging the spider's depth-1 bags keeps depths right but breaks
    # minimality: {1, 2, 3, 4} induces two components
    d = TreeDistanceDecomposition(
        bags=((0,), (1, 2), (3,), (4,)),
        parent=(0, 0, 1, 1),
        depth=(0, 1, 2, 2),
        root=0,
    )
    problems = validate_tdd(SPIDER, d)
    assert any("minimality" in p for p in problems)


def test_validate_tdd_detects_wrong_depth():
    d = TreeDistanceDecomposition(
        bags=((0,), (1,), (2,), (3,)),
        parent=(0, 0, 1, 2),
        depth=(0, 1, 2, 3),
        root=0,
    )
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])  # vertex 3 is at distance 2, not 3
    problems = validate_tdd(g, d)
    assert any("depth" in p and "3" in p for p in problems)


def test_validate_tdd_reports_edge_locality_in_ascending_order():
    # Root 0, bags {1} and {2} below it, {3} under {1} and {4} under {2};
    # the edges 3-4, 2-3 and 1-4 cross between bags that are not adjacent.
    d = TreeDistanceDecomposition(
        bags=((0,), (1,), (2,), (3,), (4,)),
        parent=(0, 0, 0, 1, 2),
        depth=(0, 1, 1, 2, 2),
        root=0,
    )
    g = Graph(5, [(4, 3), (0, 1), (3, 2), (2, 4), (1, 3), (4, 1), (0, 2)])
    assert validate_tdd(g, d) == [
        f"edge-locality: edge {e} spans non-adjacent bags {a} and {b}"
        for e, a, b in [((1, 4), 1, 4), ((2, 3), 2, 3), ((3, 4), 3, 4)]
    ]


def test_validate_tdd_reports_foreign_vertex():
    d = TreeDistanceDecomposition(
        bags=((0,), (1, 2), (3,)),
        parent=(0, 0, 1),
        depth=(0, 1, 2),
        root=0,
    )
    problems = validate_tdd(path_graph(3), d)
    assert problems == ["partition: bag 2 holds 3, which is not a vertex"]


@pytest.mark.parametrize(
    "bags, parent, depth, root, problem",
    [
        (((0,), (1,)), (0, 0, 0), (0, 1), 0,
         "structure: bags, parent and depth have different lengths"),
        (((0,), (1,)), (0, 0), (0, 1), 2, "structure: root id 2 out of range"),
        (((0,), (1,)), (1, 0), (0, 1), 0, "structure: root must be its own parent"),
        (((0,), (1,)), (0, 0), (1, 2), 0, "structure: root depth must be 0"),
        (((0, 1), ()), (0, 0), (0, 1), 0, "structure: bag 1 is empty"),
        (((0,), (1,)), (0, 5), (0, 1), 0, "structure: bag 1 has invalid parent 5"),
        (((0,), (1,)), (0, 0), (0, 2), 0, "structure: bag 1 at depth 2 under parent at depth 0"),
        (((0,), (0, 1)), (0, 0), (0, 1), 0, "partition: vertex 0 appears in bags 0 and 1"),
        (((0,),), (0,), (0,), 0, "partition: vertex 1 is in no bag"),
    ],
)
def test_validate_tdd_reports_each_structure_and_partition_problem(
    bags, parent, depth, root, problem
):
    d = TreeDistanceDecomposition(bags=bags, parent=parent, depth=depth, root=root)
    assert validate_tdd(path_graph(2), d) == [problem]


def test_tree_distance_width_path():
    assert tree_distance_width(path_graph(6), 1) == 1


def test_tree_distance_width_k4():
    # exhaustive enumeration: the root set {0, 1} leaves {2, 3} as a single
    # adjacent depth-1 bag, so both bags have two vertices
    assert tree_distance_width(complete_graph(4), 4) == 2
    assert tree_distance_width(complete_graph(4), 2) == 2
    assert tree_distance_width(complete_graph(4), 1) is None


WIDE_QUERIES = [
    *((str(m), complete_graph(m), m, (m + 1) // 2) for m in range(2, 13)),
    ("K2,400", Graph(402, [(u, v) for u in (0, 1) for v in range(2, 402)]), 2, 2),
    ("star2000", random_relabel(star_graph(2000), 5)[0], 1, 1),
]


@pytest.mark.parametrize(
    "g,k,width", [q[1:] for q in WIDE_QUERIES], ids=[q[0] for q in WIDE_QUERIES]
)
def test_tree_distance_width_complete(g, k, width):
    # In K(m) a root set of size s leaves one depth-1 bag of size m - s; a
    # leaf of K(2, 400) or of the star is a root set of the least width.  The
    # width query orders no root set, so each query is far below the bound.
    start = time.perf_counter()
    assert tree_distance_width(g, k) == width
    assert time.perf_counter() - start < 2


def test_tree_distance_width_cycle():
    assert tree_distance_width(cycle_graph(4), 2) == 2
    assert tree_distance_width(cycle_graph(4), 1) is None


def test_tree_distance_width_disconnected():
    """Every tdw entry point refuses a disconnected graph with one message."""
    message = "^tree distance decompositions need a connected graph$"
    for g in (Graph(2, []), Graph(5, [(0, 1), (1, 2), (3, 4)])):
        calls = [partial(build_minimal_tdd, g, [0])]
        for k in range(4):
            calls += [
                partial(tree_distance_width, g, k),
                partial(canon_tdw, g, k),
                partial(canonical_map, g, k),
                partial(iso_tdw, g, g, k),
                partial(iso_tdw, path_graph(g.vertex_count), g, k),
            ]
        for call in calls:
            with pytest.raises(DisconnectedGraphError, match=message):
                call()


def _shape(g, d, node, perm):
    """Rooted tree of relabeled bag contents, children order-insensitive."""
    bag = tuple(sorted(perm[v] for v in d.bags[node]))
    kids = tuple(sorted(_shape(g, d, c, perm) for c in d.children(node)))
    return (bag, kids)


def test_rebuild_after_relabeling_gives_same_tree():
    pool = [
        (path_graph(5), (0,)),
        (cycle_graph(5), (1,)),
        (SPIDER, (0,)),
        (triangle_with_pendants(), (0,)),
        (complete_graph(4), (0, 1)),
        (star_graph(5), (2,)),
    ]
    for seed, (g, root) in enumerate(pool, start=1):
        d = build_minimal_tdd(g, root)
        h, perm = random_relabel(g, seed)
        droot = sorted(perm[v] for v in root)
        d2 = build_minimal_tdd(h, droot)
        ident = tuple(range(h.vertex_count))
        assert _shape(g, d, d.root, perm) == _shape(h, d2, d2.root, ident)


def test_depth_equals_set_distance_everywhere():
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            d = build_minimal_tdd(g, [0])
            for i, bag in enumerate(d.bags):
                for v in bag:
                    assert set_distance(g, d.bags[d.root], v) == d.depth[i]


def test_child_groups_contain_every_bag():
    # parent_bag may underreport the parent, but its child grouping always
    # lists the queried bag itself
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            for root in ([0], [0, 1] if n > 1 else [0]):
                d = build_minimal_tdd(g, root)
                s = d.bags[d.root]
                for i, bag in enumerate(d.bags):
                    if i == d.root:
                        continue
                    p = parent_bag(g, s, bag)
                    assert bag in child_groups(g, s, p)


def test_navigation_chain_on_simple_graphs():
    # on these graphs the neighborhood parent query returns the full parent
    # bag, so the first-child / next-sibling chain enumerates all children
    for g, root in [
        (path_graph(4), (0,)),
        (star_graph(4), (0,)),
        (SPIDER, (0,)),
        (cycle_graph(4), (0,)),
    ]:
        d = build_minimal_tdd(g, root)
        s = d.bags[d.root]
        for i in range(len(d.bags)):
            expected = sorted(d.bags[c] for c in d.children(i))
            chain = []
            bag = first_child(g, s, d.bags[i])
            while bag is not None:
                chain.append(bag)
                bag = next_sibling(g, s, bag)
            assert chain == expected
            if expected and i != d.root:
                assert parent_bag(g, s, expected[0]) == d.bags[i]


def test_parent_query_is_neighborhood_limited():
    # triangle with pendants: true parent bag of {3} is {1, 2} but only 1
    # is adjacent to 3, and the reachability filter keeps just that
    g = triangle_with_pendants()
    d = build_minimal_tdd(g, [0])
    assert (1, 2) in d.bags
    assert parent_bag(g, [0], [3]) == (1,)
