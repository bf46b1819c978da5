import random
import time

import pytest

import widthiso.treewidth as treewidth_module
from widthiso.graph import stable_colours
from widthiso import (
    Graph,
    InternalError,
    InvalidDecompositionError,
    SizeMismatchError,
    TreeDecomposition,
    WidthExceededError,
    brute_force_iso,
    compute_tree_decomposition,
    connected_components,
    enumerate_connected_graphs,
    generate_partial_ktree,
    is_connected,
    is_isomorphism,
    iso_one_decomp,
    iso_respecting_both,
    iso_tw,
    lex_subtree_order,
    random_relabel,
    validate_tree_decomposition,
)

from helpers import (
    brute_force_respecting_iso,
    brute_force_treewidth,
    complete_graph,
    cycle_graph,
    grid_graph,
    move_leaf_bag,
    path_graph,
    relabel_decomposition,
    shuffle_bag_ids,
    spider_graph,
    subtree_vertex_sets,
)

C4 = cycle_graph(4)
C4_DECOMP = TreeDecomposition(
    bags=((0, 1, 3), (1, 2, 3), (2, 3)),
    tree_edges=frozenset({(0, 1), (1, 2)}),
    root=0,
)


def test_validate_accepts_path_decomposition():
    g = path_graph(3)
    d = TreeDecomposition(bags=((0, 1), (1, 2)), tree_edges=frozenset({(0, 1)}))
    assert validate_tree_decomposition(g, d) == []
    assert d.width() == 1


def test_validate_detects_uncovered_edge():
    g = path_graph(3)
    d = TreeDecomposition(bags=((0, 1),), tree_edges=frozenset())
    problems = validate_tree_decomposition(g, d)
    assert any("edge-coverage" in p for p in problems)
    assert any("coverage: vertex 2" in p for p in problems)


def test_validate_reports_uncovered_edges_in_ascending_order():
    g = Graph(4, [(3, 2), (1, 3), (2, 0), (2, 1), (0, 1), (0, 3)])  # K4
    d = TreeDecomposition(bags=((0, 1), (2, 3)), tree_edges=frozenset({(0, 1)}))
    assert validate_tree_decomposition(g, d) == [
        f"edge-coverage: edge {e} is inside no bag" for e in [(0, 2), (0, 3), (1, 2), (1, 3)]
    ]


def test_validate_detects_broken_vertex_subtree():
    g = Graph(4, [(0, 1), (0, 3)])
    d = TreeDecomposition(
        bags=((0, 1), (2,), (0, 3)),
        tree_edges=frozenset({(0, 1), (1, 2)}),
    )
    problems = validate_tree_decomposition(g, d)
    assert any("connectivity" in p and "vertex 0" in p for p in problems)


def test_validate_rejects_bag_repeating_a_vertex():
    # A repeated vertex inflates the bag's size, so every entry point must
    # refuse the decomposition rather than search or trace it.
    g = path_graph(2)
    d = TreeDecomposition(bags=((0, 0, 1),), tree_edges=frozenset())
    plain = TreeDecomposition(bags=((0, 1),), tree_edges=frozenset())
    assert validate_tree_decomposition(g, d) == ["structure: bag 0 repeats vertex 0"]
    with pytest.raises(InvalidDecompositionError, match="repeats vertex 0"):
        iso_one_decomp(g, d, g, 2)
    with pytest.raises(InvalidDecompositionError, match="repeats vertex 0"):
        iso_respecting_both(g, d, g, plain)
    with pytest.raises(InvalidDecompositionError, match="repeats vertex 0"):
        lex_subtree_order(g, d, 0, [])


@pytest.mark.parametrize(
    "bags, tree_edges, root, problem",
    [
        (((0, 5),), (), None, "structure: bag 0 holds invalid vertex 5"),
        (((0, 1),), ((0, 0),), None, "structure: invalid tree edge (0, 0)"),
        (((0, 1),), (), 2, "structure: root 2 out of range"),
        (((0, 1), (0, 1), (0, 1)), ((0, 1), (1, 0)), None, "structure: bag tree is disconnected"),
    ],
)
def test_validate_reports_each_structure_problem(bags, tree_edges, root, problem):
    d = TreeDecomposition(bags=bags, tree_edges=frozenset(tree_edges), root=root)
    assert validate_tree_decomposition(path_graph(2), d) == [problem]


def test_unions_yield_nothing_when_too_few_units_carry_a_signature():
    units = [(frozenset({0}), 5), (frozenset({1}), 7)]
    assert list(treewidth_module._unions(units, {5: 2})) == []
    assert list(treewidth_module._unions(units, {9: 1})) == []
    assert list(treewidth_module._unions(units, {5: 1})) == [[frozenset({0})]]


def test_validate_c4_three_bag_decomposition():
    assert validate_tree_decomposition(C4, C4_DECOMP) == []
    assert C4_DECOMP.width() == 2


def test_iso_respecting_both_identity():
    assert iso_respecting_both(C4, C4_DECOMP, C4, C4_DECOMP)


def test_iso_respecting_both_coarsening_blocks_blockwise_maps():
    coarse = TreeDecomposition(bags=((0, 1, 2, 3),), tree_edges=frozenset(), root=0)
    assert brute_force_iso(C4, C4) is not None
    assert not iso_respecting_both(C4, C4_DECOMP, C4, coarse)


def test_iso_respecting_both_permuted_partial_two_tree():
    bundle = generate_partial_ktree(8, 2, 0.8, 31)
    g, d = bundle.graph, bundle.decomposition
    h, perm = random_relabel(g, 5)
    d_perm = TreeDecomposition(
        bags=tuple(tuple(sorted(perm[v] for v in bag)) for bag in d.bags),
        tree_edges=d.tree_edges,
        root=d.root,
    )
    assert iso_respecting_both(g, d, h, d_perm)


def test_iso_respecting_both_validates_inputs():
    broken = TreeDecomposition(bags=((0,),), tree_edges=frozenset())
    with pytest.raises(InvalidDecompositionError):
        iso_respecting_both(C4, broken, C4, C4_DECOMP)


def test_lex_subtree_order_by_least_fresh_vertex():
    g = Graph(6, [(0, 1), (1, 3), (0, 2), (1, 4), (4, 5)])
    d = TreeDecomposition(
        bags=((0, 1), (1, 3), (0, 2), (1, 4, 5)),
        tree_edges=frozenset({(0, 1), (0, 2), (0, 3)}),
        root=0,
    )
    assert validate_tree_decomposition(g, d) == []
    # fresh minima are 3, 2, 4 -> order: second, first, third
    assert lex_subtree_order(g, d, 0, [1, 2, 3]) == [2, 1, 3]
    assert lex_subtree_order(g, d, 0, [1]) == [1]


def test_lex_subtree_order_multivertex_fresh_sets():
    g = Graph(8, [(0, 2), (2, 5), (5, 6), (0, 3), (3, 4), (1, 2), (1, 7)])
    d = TreeDecomposition(
        bags=((0, 2, 5, 6), (0, 3), (3, 4), (1, 2), (1, 7)),
        tree_edges=frozenset({(0, 1), (1, 2), (0, 3), (3, 4)}),
        root=0,
    )
    assert validate_tree_decomposition(g, d) == []
    # fresh sets below the two branches are {3, 4} and {1, 7}
    assert lex_subtree_order(g, d, 0, [1, 3]) == [3, 1]
    assert lex_subtree_order(g, d, 0, [3, 1]) == [3, 1]


def test_lex_subtree_order_stale_children_first():
    g = Graph(3, [(0, 1), (1, 2)])
    d = TreeDecomposition(
        bags=((0, 1, 2), (1, 2), (0, 1)),
        tree_edges=frozenset({(0, 1), (0, 2)}),
        root=0,
    )
    assert validate_tree_decomposition(g, d) == []
    # neither child adds fresh vertices; ties break on bag content
    assert lex_subtree_order(g, d, 0, [1, 2]) == [2, 1]


def test_lex_subtree_order_rejects_a_bag_that_is_no_child():
    # Bag 1 is the root's child; the root itself and bag 3 are not.
    g = path_graph(4)
    d = TreeDecomposition(
        bags=((0, 1), (1, 2), (2, 3)), tree_edges=frozenset({(0, 1), (1, 2)}), root=0
    )
    assert lex_subtree_order(g, d, 0, [1]) == [1]
    for bad in (0, 2, 3, -1):
        with pytest.raises(ValueError, match=f"bag {bad} is not a child of bag 0"):
            lex_subtree_order(g, d, 0, [1, bad])


def test_lex_subtree_order_rejects_invalid_decomposition():
    # Vertex 0 sits in bags 0 and 2 but not in bag 1 between them.
    g = Graph(4, [(0, 1), (0, 3)])
    d = TreeDecomposition(
        bags=((0, 1), (2,), (0, 3)),
        tree_edges=frozenset({(0, 1), (1, 2)}),
    )
    with pytest.raises(InvalidDecompositionError):
        lex_subtree_order(g, d, 1, [0, 2])


def test_lex_subtree_order_rejects_bag_id_out_of_range():
    for r in (5, -1):
        with pytest.raises(ValueError, match="outside"):
            lex_subtree_order(C4, C4_DECOMP, r, [])


def _seeded_decompositions():
    rng = random.Random(61)
    for k in (1, 2, 3):
        for _ in range(12):
            n = rng.randint(k + 2, 14 + k)
            bundle = generate_partial_ktree(n, k, rng.choice([0.4, 0.7, 1.0]), rng.randrange(1 << 30))
            yield bundle.graph, bundle.decomposition
            yield bundle.graph, compute_tree_decomposition(bundle.graph, k)


def _root(d):
    return d.root if d.root is not None else 0


def _restricted(d, comps):
    """The restriction of d to each component as a TreeDecomposition: the
    bags meeting it in id order, renumbered from 0, cut down and sorted,
    the tree edges between them, rooted at the first of them that the walk
    of d's bag tree from its root reaches."""
    order = treewidth_module._bag_tree(d, _root(d))[0]
    parts = []
    for comp in comps:
        keep = [a for a in range(d.bag_count()) if set(d.bags[a]) & set(comp)]
        new = {a: i for i, a in enumerate(keep)}
        parts.append(TreeDecomposition(
            bags=tuple(tuple(sorted(set(d.bags[a]) & set(comp))) for a in keep),
            tree_edges=frozenset(
                (min(new[a], new[b]), max(new[a], new[b]))
                for a, b in d.tree_edges if a in new and b in new
            ),
            root=new[next(a for a in order if a in new)],
        ))
    return parts


def _forest_and_seeded_decompositions():
    forest = generate_partial_ktree(40, 2, 0.5, 3)
    assert len(connected_components(forest.graph)) == 12
    for g, d in [(forest.graph, forest.decomposition), *_seeded_decompositions()]:
        yield g, d
        # the same tree hung from its last bag, each bag listed backwards
        yield g, TreeDecomposition(
            tuple(bag[::-1] for bag in d.bags), d.tree_edges, d.bag_count() - 1
        )


def test_parts_match_restricted_decompositions():
    # Each part read off the walk of d is the restriction of d to its
    # component, walked from its top bag: the same bags, parents, children
    # and fresh vertices, compared in walk order.
    parted = 0
    for g, d in _forest_and_seeded_decompositions():
        comps = connected_components(g)
        walk = treewidth_module._bag_tree(d, _root(d))
        parts = treewidth_module._parts(d.bags, walk, comps)
        assert len(parts) == len(comps)
        for (bags, got), ref in zip(parts, _restricted(d, comps)):
            order, parent, children, fresh = treewidth_module._bag_tree(ref, ref.root)
            at = {a: j for j, a in enumerate(order)}
            assert len(order) == ref.bag_count() == len(bags)
            assert got[0] == list(range(len(bags)))
            assert [bags[a] for a in got[0]] == [ref.bags[a] for a in order]
            assert got[1] == [at[parent[a]] for a in order]
            assert got[2] == [[at[c] for c in children[a]] for a in order]
            assert got[3] == [fresh[a] for a in order]
        parted += len(comps) > 1
    assert parted >= 10


def test_subtree_counts_match_naive_vertex_sets():
    # Whole decompositions and the part of each component, rooted anywhere:
    # a part holds only its component's vertices, in the original labels.
    for g, d in _seeded_decompositions():
        walk = treewidth_module._bag_tree(d, _root(d))
        parts = [
            TreeDecomposition(
                bags=tuple(bags),
                tree_edges=frozenset((p, a) for a, p in enumerate(parent) if p != a),
                root=0,
            )
            for bags, (_, parent, _, _) in treewidth_module._parts(d.bags, walk, connected_components(g))
        ]
        for dec in (d, *parts):
            for root in range(dec.bag_count()):
                dec_walk = treewidth_module._bag_tree(dec, root)
                rooted = treewidth_module._Rooted(g, dec.bags, dec_walk, [0] * g.vertex_count)
                assert rooted.root == root
                for a, verts in subtree_vertex_sets(dec, root).items():
                    fresh = verts - set(dec.bags[rooted.parent[a]] if a != root else ())
                    assert rooted.size[a] == len(verts)
                    assert rooted.sort_key[a] == ((1, min(fresh)) if fresh else (0, dec.bags[a]))


def test_lex_subtree_order_matches_naive_key():
    for g, d in _seeded_decompositions():
        for root in range(d.bag_count()):
            verts = subtree_vertex_sets(d, root)
            above = set(d.bags[root])

            def naive_key(c):
                fresh = verts[c] - above
                return (1, (min(fresh),)) if fresh else (0, d.bags[c])

            kids = list(d.neighbors(root))
            assert lex_subtree_order(g, d, root, kids) == sorted(kids, key=naive_key)


def test_iso_one_decomp_c4_identity():
    perm = iso_one_decomp(C4, C4_DECOMP, C4, 2)
    assert perm is not None and is_isomorphism(C4, C4, perm)


def test_iso_one_decomp_c4_vs_p4():
    assert iso_one_decomp(C4, C4_DECOMP, path_graph(4), 2) is None


def test_iso_one_decomp_same_degree_trees():
    t1 = spider_graph(1, 1, 3)
    t2 = spider_graph(1, 2, 2)
    d1 = compute_tree_decomposition(t1, 1)
    assert iso_one_decomp(t1, d1, t2, 1) is None
    relabeled, _ = random_relabel(t1, 9)
    perm = iso_one_decomp(t1, d1, relabeled, 1)
    assert perm is not None and is_isomorphism(t1, relabeled, perm)


def test_iso_one_decomp_errors():
    with pytest.raises(SizeMismatchError):
        iso_one_decomp(C4, C4_DECOMP, path_graph(5), 2)
    with pytest.raises(InvalidDecompositionError):
        iso_one_decomp(C4, C4_DECOMP, C4, 1)  # width 2 decomposition, bound 1
    broken = TreeDecomposition(bags=((0, 1),), tree_edges=frozenset())
    with pytest.raises(InvalidDecompositionError):
        iso_one_decomp(C4, broken, C4, 2)


def test_iso_one_decomp_disconnected_components():
    bundle = generate_partial_ktree(12, 2, 0.55, 2)
    g = bundle.graph
    assert not is_connected(g)  # seed chosen to produce several components
    h, _ = random_relabel(g, 77)
    perm = iso_one_decomp(g, bundle.decomposition, h, 2)
    assert perm is not None and is_isomorphism(g, h, perm)


def test_iso_one_decomp_many_components(monkeypatch):
    # 1,200 and 6,000 components; matching them must not recurse once per
    # component, nor rebuild either graph for one: each component is
    # eliminated and searched in place, so no graph (an induced subgraph or
    # any other) is constructed.
    built = []
    init = Graph.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    for n in (2400, 12000):
        g = Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
        h, _ = random_relabel(g, 5)
        with monkeypatch.context() as patch:
            patch.setattr(Graph, "__init__", counted)
            d = compute_tree_decomposition(g, 1)
            start = time.perf_counter()
            perm = iso_one_decomp(g, d, h, 1)
            assert time.perf_counter() - start < 5.0
        assert built == []
        assert perm is not None and is_isomorphism(g, h, perm)


def test_iso_one_decomp_searches_forest_once_per_candidate_key(monkeypatch):
    # 100 random 12-vertex trees: many components of one size but few of one
    # signature, the sum of their spread colours.  Only candidates with the
    # part's signature are searched, each by the part's one search, so 326
    # runs find the map; a fresh search on every equal-size candidate would
    # need about 2,500.
    rng = random.Random(1)
    edges = [(12 * t + rng.randrange(i), 12 * t + i) for t in range(100) for i in range(1, 12)]
    g = Graph(1200, edges)
    h, _ = random_relabel(g, 3)
    runs = []
    run = treewidth_module._IsoSearch.run

    def counted(self, region):
        runs.append(region)
        return run(self, region)

    monkeypatch.setattr(treewidth_module._IsoSearch, "run", counted)
    perm = iso_one_decomp(g, compute_tree_decomposition(g, 1), h, 1)
    assert perm is not None and is_isomorphism(g, h, perm)
    assert len(runs) <= 500


def test_iso_one_decomp_places_an_empty_or_leaf_root_bag():
    # The root bag is placed like the one child of an empty bag, so an empty
    # root bag, inner or a leaf, gives the map found when its one neighbour
    # is the root; an empty root over two components is dropped when the
    # decomposition is cut into one part per component.
    p3, h3 = path_graph(3), Graph(3, [(2, 0), (0, 1)])
    edges = frozenset({(0, 1), (1, 2)})
    empty_root = TreeDecomposition(bags=((), (0, 1), (1, 2)), tree_edges=edges, root=0)
    assert iso_one_decomp(p3, empty_root, h3, 1) == (1, 0, 2)
    empty_leaf_root = TreeDecomposition(bags=((0, 1), (1, 2), ()), tree_edges=edges, root=2)
    assert iso_one_decomp(p3, empty_leaf_root, h3, 1) == (2, 0, 1)
    forest = Graph(4, [(0, 1), (2, 3)])
    over_both = TreeDecomposition(
        bags=((), (0, 1), (2, 3)), tree_edges=frozenset({(0, 1), (0, 2)}), root=0
    )
    assert iso_one_decomp(forest, over_both, Graph(4, [(0, 3), (1, 2)]), 1) == (0, 3, 1, 2)


def test_search_clash_raises_internal_error(monkeypatch):
    # A child bag's bijection that moves its pinned vertex's image onto a
    # fresh vertex disagrees with the parent bag's map on that vertex.
    bijections = treewidth_module._bag_bijections

    def swapped(pinned, *rest):
        for mapping in bijections(pinned, *rest):
            if pinned:
                v = next(iter(pinned))
                u = next(u for u in mapping if u not in pinned)
                mapping[v], mapping[u] = mapping[u], mapping[v]
            yield mapping

    monkeypatch.setattr(treewidth_module, "_bag_bijections", swapped)
    d = TreeDecomposition(bags=((0, 1), (1, 2)), tree_edges=frozenset({(0, 1)}), root=0)
    with pytest.raises(InternalError, match="two vertices onto one"):
        iso_one_decomp(path_graph(3), d, path_graph(3), 1)


def test_search_reused_image_raises_internal_error(monkeypatch):
    # A child bag's bijection that sends its fresh vertex onto the image of
    # a parent bag vertex it does not share takes that image twice.
    bijections = treewidth_module._bag_bijections
    root_map = {}

    def reusing(pinned, *rest):
        for mapping in bijections(pinned, *rest):
            if pinned:
                u = next(u for u in mapping if u not in pinned)
                mapping[u] = next(w for v, w in root_map.items() if v not in mapping)
            else:
                root_map.update(mapping)
            yield mapping

    monkeypatch.setattr(treewidth_module, "_bag_bijections", reusing)
    d = TreeDecomposition(bags=((0, 1), (1, 2)), tree_edges=frozenset({(0, 1)}), root=0)
    with pytest.raises(InternalError, match="two vertices onto one"):
        iso_one_decomp(path_graph(3), d, path_graph(3), 1)


def test_search_non_isomorphism_raises_internal_error(monkeypatch):
    # A one-bag decomposition whose bijection swaps the images of the path's
    # end 0 and middle 1: a permutation, but edge (1, 2) is lost.
    bijections = treewidth_module._bag_bijections

    def swapped(*args):
        for mapping in bijections(*args):
            mapping[0], mapping[1] = mapping[1], mapping[0]
            yield mapping

    monkeypatch.setattr(treewidth_module, "_bag_bijections", swapped)
    d = TreeDecomposition(bags=((0, 1, 2),), tree_edges=frozenset(), root=0)
    with pytest.raises(InternalError, match="not an isomorphism"):
        iso_one_decomp(path_graph(3), d, path_graph(3), 2)


def _hub_gadget(m: int, split: int = -1) -> tuple[Graph, TreeDecomposition]:
    """Hub 0 with m branches, each an edge from the hub to an apex that is
    joined to a rim r0..r5: a 6-cycle, or two triangles in branch split.
    The width-3 decomposition hangs one bag (0, apex) per branch from the
    root bag (0,), with the same chain of four rim bags below each."""
    edges, bags, tree_edges = [], [(0,)], []
    for b in range(m):
        apex, r = 7 * b + 1, [7 * b + 2 + t for t in range(6)]
        edges += [(0, apex)] + [(apex, x) for x in r]
        rings = (r[:3], r[3:]) if b == split else (r,)
        edges += [(ring[t], ring[(t + 1) % len(ring)]) for ring in rings for t in range(len(ring))]
        chain = [(0, apex), (apex, r[0], r[1], r[5]), (apex, r[1], r[4], r[5]),
                 (apex, r[1], r[2], r[4]), (apex, r[2], r[3], r[4])]
        parent = 0
        for bag in chain:
            tree_edges.append((parent, len(bags)))
            parent = len(bags)
            bags.append(bag)
    return Graph(7 * m + 1, edges), TreeDecomposition(tuple(bags), frozenset(tree_edges), 0)


def test_class_bound_prunes_interchangeable_branches(monkeypatch):
    # The m branches of the hub form one class, so its members take their
    # placements in ascending order.  Colour refinement does not tell a rim
    # of two triangles from a 6-cycle, so only the search refutes this
    # pair: in 256 placement tasks, and in 2,289 without the class bound.
    tasks = 0
    placements = treewidth_module._IsoSearch._placements

    def counted(self, *args):
        nonlocal tasks
        tasks += 1
        return (yield from placements(self, *args))

    monkeypatch.setattr(treewidth_module._IsoSearch, "_placements", counted)
    g, d = _hub_gadget(7)
    h, _ = random_relabel(_hub_gadget(7, split=0)[0], 11)
    assert stable_colours(g, h) is not None
    assert iso_one_decomp(g, d, h, 3) is None
    assert tasks <= 400
    copy, _ = random_relabel(g, 13)
    perm = iso_one_decomp(g, d, copy, 3)
    assert perm is not None and is_isomorphism(g, copy, perm)


def test_compute_tree_decomposition_tree():
    tree = spider_graph(1, 2, 2)
    d = compute_tree_decomposition(tree, 1)
    assert d is not None and d.width() == 1
    assert validate_tree_decomposition(tree, d) == []


def test_compute_tree_decomposition_cycles():
    for n in (3, 4, 5, 6):
        g = cycle_graph(n)
        assert compute_tree_decomposition(g, 1) is None
        d = compute_tree_decomposition(g, 2)
        assert d is not None and d.width() == 2
        assert validate_tree_decomposition(g, d) == []


def test_compute_tree_decomposition_k5_bound():
    assert compute_tree_decomposition(complete_graph(5), 3) is None
    d = compute_tree_decomposition(complete_graph(5), 4)
    assert d is not None and d.width() == 4


def test_compute_tree_decomposition_disconnected():
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])
    d = compute_tree_decomposition(g, 1)
    assert d is not None
    assert validate_tree_decomposition(g, d) == []


def test_decomposition_exists_exactly_from_the_treewidth_up():
    cases = 0
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            width = brute_force_treewidth(g)
            for k in range(n + 1):
                d = compute_tree_decomposition(g, k)
                assert (d is None) == (k < width), (g.edges, k, width)
                cases += 1
    assert cases == 953


def _minor_width(g: Graph) -> int:
    rows = [sum(1 << w for w in g.neighbors(v)) for v in range(g.vertex_count)]
    return treewidth_module._minor_width(rows, (1 << g.vertex_count) - 1)


def test_minor_width_is_a_treewidth_lower_bound():
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            assert _minor_width(g) <= brute_force_treewidth(g), g.edges
    for m in range(1, 9):
        assert _minor_width(complete_graph(m)) == m - 1
    # Contracting into a least-degree neighbour instead of a least-common
    # one reads 3 on some relabellings of the 4x4 grid.
    for seed in range(200):
        assert _minor_width(random_relabel(grid_graph(4, 4), seed)[0]) == 4, seed
        assert _minor_width(random_relabel(grid_graph(3, 6), seed)[0]) == 3, seed


def test_elimination_refuses_past_the_lower_bound():
    # K7 minus four edges is, up to isomorphism, the only connected graph on
    # at most 7 vertices whose minor-min-width (4) is below its treewidth
    # (5), so at k = 4 the lower bound lets it through and the elimination
    # search itself fails.
    dropped = {(0, 4), (1, 2), (2, 3), (5, 6)}
    g = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7) if (u, v) not in dropped])
    assert _minor_width(g) == 4
    assert compute_tree_decomposition(g, 4) is None
    d = compute_tree_decomposition(g, 5)
    assert d is not None and d.width() == 5
    with pytest.raises(WidthExceededError):
        iso_tw(g, random_relabel(g, 3)[0], 4)


def test_elimination_refuses_a_bag_attached_upwards():
    # An elimination bag attaches to the first of its closure neighbours
    # eliminated later.  With vertex 0 dropped from its own neighbour list
    # on the path 0-1-2-3-4, vertex 1 still reaches 0 once 0 is eliminated,
    # so at k = 2 the bag of 1, the last step, would attach to the earlier
    # bag of 0.
    g = path_graph(5)
    assert treewidth_module._eliminate(g, tuple(range(5)), 2) is not None
    g._adj = ((), *g._adj[1:])
    with pytest.raises(InternalError, match="bag 1 attaches to earlier bag 0"):
        treewidth_module._eliminate(g, tuple(range(5)), 2)


def test_compute_tree_decomposition_negative_width_is_none():
    assert compute_tree_decomposition(Graph(0), -1) is None
    assert compute_tree_decomposition(path_graph(3), -1) is None


def test_above_bound_grids_never_enter_the_search(monkeypatch):
    # Every elimination step reads its vertex's row through _bits, so when
    # every _bits call comes from inside _minor_width, no step was taken.
    calls = {"all": 0, "bound": 0}
    bits, minor_width = treewidth_module._bits, treewidth_module._minor_width

    def counting_bits(mask):
        calls["all"] += 1
        return bits(mask)

    def counting_minor_width(rows, alive):
        before = calls["all"]
        bound = minor_width(rows, alive)
        calls["bound"] += calls["all"] - before
        return bound

    monkeypatch.setattr(treewidth_module, "_bits", counting_bits)
    monkeypatch.setattr(treewidth_module, "_minor_width", counting_minor_width)
    for rows, cols, k in ((4, 4, 3), (3, 6, 2)):
        g, _ = random_relabel(grid_graph(rows, cols), 7)
        assert compute_tree_decomposition(g, k) is None
    assert calls["bound"] > 0 and calls["all"] == calls["bound"]
    g, _ = random_relabel(grid_graph(4, 4), 3)
    h, _ = random_relabel(grid_graph(4, 4), 5)
    with pytest.raises(WidthExceededError, match="neither graph has treewidth <= 3"):
        iso_tw(g, h, 3)
    assert calls["all"] == calls["bound"]


def test_iso_tw_relabeled_self():
    bundle = generate_partial_ktree(9, 2, 0.9, 3)
    g = bundle.graph
    h, _ = random_relabel(g, 4)
    assert iso_tw(g, h, 2)


def test_iso_tw_c6_vs_triangle_with_tail():
    c6 = cycle_graph(6)
    tri_tail = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
    assert brute_force_iso(c6, tri_tail) is None
    assert c6.edge_count == tri_tail.edge_count
    assert not iso_tw(c6, tri_tail, 2)


def test_iso_tw_width_exceeded():
    k5 = complete_graph(5)
    with pytest.raises(WidthExceededError):
        iso_tw(k5, k5, 2)
    # one side within the bound: plain non-isomorphic verdict
    assert not iso_tw(complete_graph(4), path_graph(4), 2)


def test_iso_tw_false_without_search_when_only_second_graph_fits(monkeypatch):
    # Equal degree sequences, and only the path fits width 1: refinement
    # tells the triangle from the path before either is decomposed or searched.
    def refuse(*args):
        raise AssertionError("searched although only the second graph fits width k")

    monkeypatch.setattr(treewidth_module, "_search_components", refuse)
    monkeypatch.setattr(treewidth_module, "compute_tree_decomposition", refuse)
    triangle_and_edge = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert triangle_and_edge.degree_sequence() == path_graph(5).degree_sequence()
    assert not iso_tw(triangle_and_edge, path_graph(5), 1)


def test_iso_tw_size_mismatch_is_false():
    assert not iso_tw(path_graph(3), path_graph(4), 1)


def test_iso_tw_compares_invariants_before_decomposing(monkeypatch):
    def refuse(g, k):
        raise AssertionError("decomposed although the invariants differ")

    monkeypatch.setattr(treewidth_module, "compute_tree_decomposition", refuse)
    grid = grid_graph(5, 6)
    assert not iso_tw(grid, path_graph(30), 4)  # edge counts differ
    assert not iso_tw(spider_graph(1, 1, 2), path_graph(5), 1)  # degree sequences differ


def test_iso_tw_refinement_answers_before_the_width_bound(monkeypatch):
    # K5 plus a 5-vertex path against K5 plus a triangle and an edge: equal
    # degree sequences and neither graph within width 3, but refinement
    # tells them apart, so the answer is False and nothing is decomposed.
    k5 = sorted(complete_graph(5).edges)
    g = Graph(10, k5 + [(5, 6), (6, 7), (7, 8), (8, 9)])
    h = Graph(10, k5 + [(5, 6), (6, 7), (5, 7), (8, 9)])
    assert g.degree_sequence() == h.degree_sequence()
    assert compute_tree_decomposition(g, 3) is None and compute_tree_decomposition(h, 3) is None

    def refuse(g, k):
        raise AssertionError("decomposed although refinement tells the graphs apart")

    monkeypatch.setattr(treewidth_module, "compute_tree_decomposition", refuse)
    assert not iso_tw(g, h, 3)


def test_refinement_separated_pairs_build_no_search(monkeypatch):
    # Two spiders with equal degree sequences: refinement decides trees.
    t1, t2 = spider_graph(1, 1, 3), spider_graph(1, 2, 2)
    assert t1.degree_sequence() == t2.degree_sequence()
    d1 = compute_tree_decomposition(t1, 1)

    def refuse(*args):
        raise AssertionError("built a search for a pair that refinement tells apart")

    monkeypatch.setattr(treewidth_module, "_IsoSearch", refuse)
    assert iso_one_decomp(t1, d1, t2, 1) is None
    assert not iso_tw(t1, t2, 1)


def test_pairs_refinement_cannot_separate_pass_the_precheck():
    # Regular graphs of one degree and size keep one colour throughout, so
    # what follows the refinement must answer: the search for K3,3 against
    # the triangular prism, the component count for the 6-cycle against two
    # triangles.
    k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for g, h, k in ((k33, prism, 3), (prism, k33, 3), (cycle_graph(6), two_triangles, 2)):
        assert stable_colours(g, h) == ([0] * 6, [0] * 6)
        assert iso_one_decomp(g, compute_tree_decomposition(g, k), h, k) is None
        assert not iso_tw(g, h, k)


def test_iso_tw_false_without_search_when_only_a_refinement_twin_fits(monkeypatch):
    # Subdivided K4 (treewidth 3) against a subdivided 4-cycle with two
    # doubled edges (treewidth 2): in both, four degree-3 vertices see only
    # degree-2 ones and six degree-2 vertices see only degree-3 ones, so
    # refinement cannot tell them apart.  Only the second fits width 2.
    def subdivided(edges):
        out = []
        for i, (u, v) in enumerate(edges):
            out += [(u, 4 + i), (4 + i, v)]
        return Graph(4 + len(edges), out)

    k4 = subdivided([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    ring = subdivided([(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)])
    assert stable_colours(k4, ring) is not None
    assert compute_tree_decomposition(ring, 2) is not None

    def refuse(*args):
        raise AssertionError("searched although only the second graph fits width k")

    monkeypatch.setattr(treewidth_module, "_search_components", refuse)
    assert not iso_tw(k4, ring, 2)


def test_respecting_iso_implies_plain_iso():
    from widthiso import enumerate_connected_graphs

    graphs = [g for g in enumerate_connected_graphs(5)]
    decs = {g: compute_tree_decomposition(g, 2) for g in graphs}
    pool = [g for g in graphs if decs[g] is not None]
    for a in pool:
        for b in pool:
            if iso_respecting_both(a, decs[a], b, decs[b]):
                assert brute_force_iso(a, b) is not None


def test_respecting_iso_matches_brute_force_oracle():
    # Completeness as well as soundness.  Each connected graph with n <= 5
    # (one per isomorphism class) comes with its computed decompositions at
    # every width that fits; each of those is matched against the same,
    # id-shuffled and leaf-moved decompositions, on the graph and on a
    # relabelled copy.
    rng = random.Random(16)
    verdicts = []
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            h, perm = random_relabel(g, rng.randrange(1, 1 << 30))
            fits = dict.fromkeys(compute_tree_decomposition(g, k) for k in range(n))
            base = [d for d in fits if d is not None]
            variants = [v for d in base for v in (d, shuffle_bag_ids(d, rng), move_leaf_bag(d))]
            items = [(g, d) for d in variants if d is not None]
            items += [(h, relabel_decomposition(d, perm)) for _, d in items]
            for d in base:
                for x, d_x in items:
                    assert validate_tree_decomposition(x, d_x) == []
                    expected = brute_force_respecting_iso(g, d, x, d_x)
                    assert iso_respecting_both(g, d, x, d_x) == expected, (g, d, x, d_x)
                    verdicts.append(expected)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def test_computed_decompositions_always_validate():
    from widthiso import enumerate_connected_graphs

    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            d = compute_tree_decomposition(g, 2)
            if d is None:
                continue
            assert d.width() <= 2
            assert validate_tree_decomposition(g, d) == []
