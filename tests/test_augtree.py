import pytest

from widthiso import (
    Graph,
    InvalidDecompositionError,
    TreeDistanceDecomposition,
    build_augmented_tree,
    build_minimal_tdd,
    enumerate_connected_graphs,
    random_relabel,
)

from helpers import cycle_graph, path_graph, reachable_avoiding, subtree_graph

SPIDER = Graph(5, [(0, 1), (1, 3), (0, 2), (2, 4)])  # legs 0-1-3 and 0-2-4


def _tree(g, root):
    return build_augmented_tree(g, build_minimal_tdd(g, root))


def test_path_chain_shape():
    t = _tree(path_graph(3), [0])
    assert t.to_debug_text() == "B(0)(S(0)(B(1)(S(1)(B(2)))))"


def test_spider_separator_dedup():
    # both depth-1 bags have separating set {0}; they share one node
    t = _tree(SPIDER, [0])
    assert t.to_debug_text() == "B(0)(S(0)(B(1)(S(1)(B(3))) B(2)(S(2)(B(4)))))"
    root_seps = t.children[0]
    assert len(root_seps) == 1
    assert len(t.children[root_seps[0]]) == 2


def test_separating_sets_numbered_in_preorder():
    # the root bag {0, 1} has three separating sets; each set's node is
    # numbered after the whole subtree of the set before it
    g = Graph(7, [(0, 1), (0, 2), (1, 3), (0, 4), (1, 4), (2, 5), (3, 6)])
    t = _tree(g, [0, 1])
    assert t.to_debug_text() == "B(0,1)(S(0)(B(2)(S(2)(B(5)))) S(0,1)(B(4)) S(1)(B(3)(S(3)(B(6)))))"
    assert t.vertices == ((0, 1), (0,), (2,), (2,), (5,), (0, 1), (4,), (1,), (3,), (3,), (6,))
    assert t.parent == (0, 0, 1, 2, 3, 0, 5, 0, 7, 8, 9)


def test_single_bag_tree():
    g = cycle_graph(3)
    t = build_augmented_tree(g, build_minimal_tdd(g, [0, 1, 2]))
    assert t.node_count() == 1
    assert t.to_debug_text() == "B(0,1,2)"


def test_handle_refuses_a_node_out_of_range():
    t = _tree(path_graph(3), [0])  # 5 nodes: three bags, two separating sets
    assert t.handle(4).node == 4
    for node in (-1, 5):
        with pytest.raises(ValueError, match=f"node {node} out of range"):
            t.handle(node)


def test_rejects_invalid_decomposition():
    broken = TreeDistanceDecomposition(
        bags=((0,), (2,), (1,)),
        parent=(0, 0, 1),
        depth=(0, 1, 2),
        root=0,
    )
    with pytest.raises(InvalidDecompositionError):
        build_augmented_tree(path_graph(3), broken)


def test_subtree_graph_examples():
    g = path_graph(3)
    t = _tree(g, [0])
    whole, _ = subtree_graph(t.handle(0))
    assert whole == g
    leaf = [i for i in range(t.node_count()) if t.is_bag(i) and t.vertices[i] == (2,)]
    sub, relabel = subtree_graph(t.handle(leaf[0]))
    assert sub.vertex_count == 1 and relabel == {2: 0}

    c4 = cycle_graph(4)
    tc = _tree(c4, [0])
    sep_under_root = tc.children[0][0]
    sub, _ = subtree_graph(tc.handle(sep_under_root))
    # the separating set {0} is associated to the subtree, so 0 is included
    assert sub.vertex_count == 4


def test_subtree_size_examples():
    c4 = cycle_graph(4)
    t = _tree(c4, [0])
    assert t.sizes[0] == 4
    assert t.sizes[t.children[0][0]] == 4
    leaves = [i for i in range(t.node_count()) if t.is_bag(i) and not t.children[i]]
    for leaf in leaves:
        assert t.sizes[leaf] == len(t.vertices[leaf])


def _pool():
    out = []
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            out.append((g, (0,)))
    out.append((cycle_graph(6), (0,)))
    out.append((SPIDER, (0,)))
    return out


def test_alternation_and_degree_invariants():
    for g, root in _pool():
        t = _tree(g, root)
        for node in range(t.node_count()):
            parent = t.parent[node]
            if node == t.root:
                assert t.is_bag(node)
                continue
            # kinds alternate along every parent link
            assert t.is_bag(node) != t.is_bag(parent)
            if not t.is_bag(node):
                assert len(t.children[node]) >= 1
        for node in range(t.node_count()):
            if t.is_bag(node):
                seps = [tuple(t.vertices[s]) for s in t.children[node]]
                assert len(seps) == len(set(seps))  # duplicates merged


def test_sizes_match_subtree_graphs_and_shrink():
    for g, root in _pool():
        t = _tree(g, root)
        assert t.sizes[0] == g.vertex_count
        for node in range(t.node_count()):
            sub, _ = subtree_graph(t.handle(node))
            assert sub.vertex_count == t.sizes[node]
            if node != t.root:
                assert t.sizes[node] <= t.sizes[t.parent[node]]


def test_separating_sets_cut_children_from_root():
    for g, root in _pool():
        t = _tree(g, root)
        root_bag = t.vertices[0]
        for node in range(t.node_count()):
            if t.is_bag(node):
                continue
            sep = t.vertices[node]
            for child in t.children[node]:
                sub, relabel = subtree_graph(t.handle(child))
                for v in relabel:
                    if v in sep:
                        continue
                    assert not reachable_avoiding(g, root_bag, v, sep)


def _node_shape(t, node, perm):
    verts = tuple(sorted(perm[v] for v in t.vertices[node]))
    kids = tuple(sorted(_node_shape(t, c, perm) for c in t.children[node]))
    return (t.kinds[node], verts, kids)


def test_relabeling_equivariance():
    for seed, (g, root) in enumerate(_pool(), start=1):
        t = _tree(g, root)
        h, perm = random_relabel(g, seed)
        t2 = _tree(h, sorted(perm[v] for v in root))
        ident = tuple(range(h.vertex_count))
        assert _node_shape(t, 0, perm) == _node_shape(t2, 0, ident)
