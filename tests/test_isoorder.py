import itertools
import random

import pytest

from widthiso import (
    DisconnectedGraphError,
    Graph,
    NoAdmissibleMappingError,
    OrderResult,
    ThetaSet,
    TreeDistanceDecomposition,
    WidthExceededError,
    apply_permutation,
    brute_force_iso,
    build_augmented_tree,
    build_minimal_tdd,
    canon_tdw,
    canonical_map,
    compare_augmented,
    compose_permutations,
    enumerate_connected_graphs,
    full_theta,
    inverse_permutation,
    is_isomorphism,
    iso_tdw,
    random_relabel,
    tree_distance_width,
    validate_tdd,
)

from helpers import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_narrow_graph,
    spider_graph,
    star_graph,
)


def _tree(g, root):
    return build_augmented_tree(g, build_minimal_tdd(g, root))


def test_compare_identical_is_equal():
    g = path_graph(3)
    t = _tree(g, [0])
    assert (
        compare_augmented(g, t.handle(), g, t.handle(), full_theta(t.handle(), t.handle()))
        is OrderResult.EQUAL
    )


def test_compare_path_vs_triangle_direction():
    path = path_graph(3)
    tri = cycle_graph(3)
    assert brute_force_iso(path, tri) is None
    tp = _tree(path, [0])
    tt = _tree(tri, [0])
    theta = full_theta(tp.handle(), tt.handle())
    assert compare_augmented(path, tp.handle(), tri, tt.handle(), theta) is OrderResult.LESS
    back = full_theta(tt.handle(), tp.handle())
    assert compare_augmented(tri, tt.handle(), path, tp.handle(), back) is OrderResult.GREATER


def test_compare_spiders_decided_in_recursion():
    # same order, same root degree, same root bag subgraph: only the child
    # subtrees differ, so the order is settled inside step four
    even = spider_graph(2, 2, 2)
    skew = spider_graph(1, 2, 3)
    assert even.degree_sequence() == skew.degree_sequence()
    assert brute_force_iso(even, skew) is None
    te = _tree(even, [0])
    ts = _tree(skew, [0])
    assert len(te.children[0]) == len(ts.children[0])
    theta = full_theta(te.handle(), ts.handle())
    assert compare_augmented(even, te.handle(), skew, ts.handle(), theta) is not OrderResult.EQUAL


def test_compare_empty_theta_rejected():
    g = path_graph(3)
    t = _tree(g, [0])
    with pytest.raises(NoAdmissibleMappingError):
        compare_augmented(g, t.handle(), g, t.handle(), ThetaSet((0,), ()))


_P3 = path_graph(3)
_P3_TREE = _tree(_P3, [0])
_BAG, _SEPARATOR, _OTHER_BAG = (_P3_TREE.handle(x) for x in (0, 1, 2))
_THETA = full_theta(_BAG, _BAG)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: compare_augmented(cycle_graph(3), _BAG, _P3, _BAG, _THETA),
         ValueError, "does not belong"),
        (lambda: compare_augmented(_P3, _SEPARATOR, _P3, _BAG, _THETA),
         ValueError, "starts at bag nodes"),
        (lambda: compare_augmented(_P3, _BAG, _P3, _OTHER_BAG, _THETA),
         ValueError, "arrange the compared bags"),
        (lambda: canonical_map(complete_graph(4), 1), WidthExceededError, "exceeds 1"),
    ],
    ids=["foreign-handle", "separator-node", "wrong-theta", "canonical-map-k4"],
)
def test_engine_entry_points_reject_misuse(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_full_theta_empty_for_mismatched_bags():
    small = _tree(path_graph(3), [0])
    big = _tree(cycle_graph(4), [0, 1])
    assert not full_theta(small.handle(), big.handle())


def test_compare_on_a_decomposition_build_would_not_produce():
    """Bags stored as unsorted tuples, ids out of depth-first order and a
    root id other than 0: every bag node still compares EQUAL to its twin in
    the tree of the built decomposition."""
    g = random_narrow_graph(random.Random(3), 14)
    d = build_minimal_tdd(g, [0, 1])
    ids = list(range(len(d.bags)))
    random.Random(5).shuffle(ids)
    bags, parent, depth = [()] * len(ids), [0] * len(ids), [0] * len(ids)
    for old, i in enumerate(ids):
        bags[i], parent[i], depth[i] = d.bags[old][::-1], ids[d.parent[old]], d.depth[old]
    odd = TreeDistanceDecomposition(tuple(bags), tuple(parent), tuple(depth), root=ids[0])
    assert validate_tdd(g, odd) == []
    assert odd.root != 0 and odd.bags[odd.root] == (1, 0)
    assert any(parent[i] > i for i in range(len(ids)) if i != odd.root)
    built, twin = _tree(g, [0, 1]), build_augmented_tree(g, odd)
    node_of = {
        tuple(sorted(built.vertices[x])): x for x in range(built.node_count()) if built.is_bag(x)
    }
    for x in range(twin.node_count()):
        if twin.is_bag(x):
            a, b = twin.handle(x), built.handle(node_of[tuple(sorted(twin.vertices[x]))])
            assert twin.sizes[x] == built.sizes[b.node]
            assert compare_augmented(g, a, g, b, full_theta(a, b)) is OrderResult.EQUAL


def test_compare_is_deterministic_and_antisymmetric():
    graphs = [path_graph(4), star_graph(3), cycle_graph(4), spider_graph(1, 2)]
    trees = [(g, _tree(g, [0])) for g in graphs]
    for (ga, ta), (gb, tb) in itertools.product(trees, trees):
        theta = full_theta(ta.handle(), tb.handle())
        r1 = compare_augmented(ga, ta.handle(), gb, tb.handle(), theta)
        r2 = compare_augmented(ga, ta.handle(), gb, tb.handle(), theta)
        assert r1 is r2
        back = full_theta(tb.handle(), ta.handle())
        r_back = compare_augmented(gb, tb.handle(), ga, ta.handle(), back)
        assert r1.value == -r_back.value


def test_canon_single_vertex():
    form = canon_tdw(Graph(1), 1)
    assert form.data  # fixed nonempty encoding
    assert form == canon_tdw(Graph(1), 1)
    assert bytes(form) == form.data and form.hex == form.data.hex()


@pytest.mark.parametrize("k", range(3))
def test_empty_graph_has_width_0_and_the_empty_form(k):
    empty = Graph(0)
    assert tree_distance_width(empty, k) == 0
    assert canon_tdw(empty, k).data == b""
    assert canonical_map(empty, k) == ()
    assert iso_tdw(empty, Graph(0), k)
    assert not iso_tdw(empty, Graph(1), k) and not iso_tdw(Graph(1), empty, k)


def test_canon_invariant_under_relabeling():
    g = spider_graph(1, 2, 3)
    base = canon_tdw(g, 2)
    for seed in range(1, 101):
        h, _ = random_relabel(g, seed)
        assert canon_tdw(h, 2) == base


def test_canon_separates_path_and_star():
    p4 = path_graph(4)
    star = star_graph(3)
    assert brute_force_iso(p4, star) is None
    assert canon_tdw(p4, 1) != canon_tdw(star, 1)


def test_canon_hex_is_lowercase_hex():
    form = canon_tdw(path_graph(4), 1)
    assert form.hex == form.data.hex()
    assert set(form.hex) <= set("0123456789abcdef")


def test_canonical_map_reproduces_canon():
    g = cycle_graph(5)
    mapping = canonical_map(g, 2)
    relabeled = apply_permutation(g, mapping)
    assert canon_tdw(relabeled, 2) == canon_tdw(g, 2)


def test_canonical_map_composition_is_isomorphism():
    g = Graph(4, [(2, 0), (0, 3), (3, 1)])  # P4 labeled 2-0-3-1
    h = path_graph(4)
    mg = canonical_map(g, 1)
    mh = canonical_map(h, 1)
    iso = compose_permutations(inverse_permutation(mh), mg)
    assert is_isomorphism(g, h, iso)


def test_canonical_map_random_trials():
    """Every connected graph with n <= 6 and 25 seeded narrow graphs, each
    against relabelled copies at k = 1-3 where its width fits: the two
    canonical maps compose into an isomorphism, and each maps its graph
    onto the same canonical graph."""
    rng = random.Random(7)
    pairs = []
    for _ in range(25):
        g = random_narrow_graph(rng, rng.randint(3, 12))
        pairs.append((g, random_relabel(g, rng.randint(1, 10**6))[0]))
    for n in range(1, 7):
        for i, g in enumerate(enumerate_connected_graphs(n)):
            pairs += [(g, random_relabel(g, 4 * i + j)[0]) for j in range(1, 5)]
    checked = 0
    for (g, h), k in itertools.product(pairs, (1, 2, 3)):
        try:
            mg = canonical_map(g, k)
        except WidthExceededError:
            continue
        mh = canonical_map(h, k)
        assert is_isomorphism(g, h, compose_permutations(inverse_permutation(mh), mg))
        assert apply_permutation(g, mg) == apply_permutation(h, mh), (sorted(g.edges), k)
        checked += 1
    assert checked == 1102, checked


def test_iso_tdw_identity():
    g = cycle_graph(5)
    assert iso_tdw(g, g, 2)


def test_iso_tdw_path_vs_star():
    assert not iso_tdw(path_graph(4), star_graph(3), 1)


def test_iso_tdw_same_degree_trees():
    t1 = spider_graph(1, 1, 3)
    t2 = spider_graph(1, 2, 2)
    assert t1.degree_sequence() == t2.degree_sequence()
    # derive non-isomorphism exhaustively over all 6! mappings
    found = False
    for perm in itertools.permutations(range(6)):
        if all(t2.has_edge(perm[u], perm[v]) for u, v in t1.edges):
            found = True
            break
    assert not found
    assert not iso_tdw(t1, t2, 2)
    relabeled, _ = random_relabel(t1, 11)
    assert iso_tdw(t1, relabeled, 2)


def test_iso_tdw_errors():
    with pytest.raises(DisconnectedGraphError):
        iso_tdw(Graph(2, []), Graph(2, []), 1)
    k4 = complete_graph(4)
    with pytest.raises(WidthExceededError):
        iso_tdw(k4, k4, 1)  # K4 has tree distance width 2
    # only one side over the bound: verdict is simply "not isomorphic"
    assert not iso_tdw(k4, path_graph(4), 1)


def test_canon_width_exceeded():
    with pytest.raises(WidthExceededError):
        canon_tdw(complete_graph(5), 2)


def test_random_narrow_graph_small_sizes():
    for n in range(1, 5):
        for seed in range(51):
            g = random_narrow_graph(random.Random(seed), n)
            assert g.vertex_count == n and tree_distance_width(g, 2) is not None
