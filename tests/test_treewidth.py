import pytest

import widthiso.treewidth as treewidth_module
from widthiso import (
    Graph,
    InternalError,
    InvalidDecompositionError,
    SizeMismatchError,
    TreeDecomposition,
    WidthExceededError,
    brute_force_iso,
    compute_tree_decomposition,
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

from helpers import complete_graph, cycle_graph, path_graph, spider_graph

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


def test_validate_detects_broken_vertex_subtree():
    g = Graph(4, [(0, 1), (0, 3)])
    d = TreeDecomposition(
        bags=((0, 1), (2,), (0, 3)),
        tree_edges=frozenset({(0, 1), (1, 2)}),
    )
    problems = validate_tree_decomposition(g, d)
    assert any("connectivity" in p and "vertex 0" in p for p in problems)


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


def test_iso_one_decomp_many_components():
    # 1,200 components; matching them must not recurse once per component
    n = 2400
    g = Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
    d = compute_tree_decomposition(g, 1)
    h, _ = random_relabel(g, 5)
    perm = iso_one_decomp(g, d, h, 1)
    assert perm is not None and is_isomorphism(g, h, perm)


def test_iso_one_decomp_frame_audits_fire(monkeypatch):
    calls = []
    audit = treewidth_module._IsoSearch._audit_pop

    def counting(self, popped_bag):
        calls.append(popped_bag)
        audit(self, popped_bag)

    monkeypatch.setattr(treewidth_module._IsoSearch, "_audit_pop", counting)
    perm = iso_one_decomp(C4, C4_DECOMP, C4, 2)
    assert perm is not None
    assert calls  # every frame pop ran the path-coverage audit


def test_frame_audit_rejects_stack_off_the_root_path():
    # C4_DECOMP rooted at bag 0 is the path 0 - 1 - 2; a stack holding only
    # bag 1's map leaves the root bag's vertex 0 uncovered.
    search = treewidth_module._IsoSearch(
        C4, treewidth_module._Rooted(C4, C4_DECOMP, 0), C4
    )
    search.frames = [(1, {1: 1, 2: 2, 3: 3})]
    with pytest.raises(InternalError, match="root path"):
        search._audit_pop(2)
    search.frames = [(0, {0: 0, 1: 1, 3: 3}), (1, {2: 2})]
    search._audit_pop(2)


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


def test_iso_tw_size_mismatch_is_false():
    assert not iso_tw(path_graph(3), path_graph(4), 1)


def test_respecting_iso_implies_plain_iso():
    from widthiso import enumerate_connected_graphs

    graphs = [g for g in enumerate_connected_graphs(5)]
    decs = {g: compute_tree_decomposition(g, 2) for g in graphs}
    pool = [g for g in graphs if decs[g] is not None]
    for a in pool:
        for b in pool:
            if iso_respecting_both(a, decs[a], b, decs[b]):
                assert brute_force_iso(a, b) is not None


def test_computed_decompositions_always_validate():
    from widthiso import enumerate_connected_graphs

    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            d = compute_tree_decomposition(g, 2)
            if d is None:
                continue
            assert d.width() <= 2
            assert validate_tree_decomposition(g, d) == []
