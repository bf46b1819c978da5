"""Invariants of the treewidth route's fast paths.

Decompositions, the rejection one width below, and the iso_one_decomp
witness maps are pinned by SHA-256 digests over seeded partial k-trees, and
the witnesses also over unions with repeated components under decompositions
rooted at a random bag: the bag candidates must come out in lexicographic
order and the elimination search must try vertices in ascending order, or
the first decomposition and the first witness found would change.  Deep
paths check that neither the elimination search, the one-decomposition
search nor the decomposition tracer depends on the interpreter's recursion
limit; a star checks that neither recurses once per child of a bag, and
spiders that equal sibling subtrees are compared, not paired by trial; a
2,000-bag path checks that the rooted view of a decomposition keeps counts,
not a vertex set per subtree.  A tree and a partial 2-tree check that the
search splits a bag's region into components once per bag mapping, wheel
gadgets that the walk memo keeps the search small, and a 2,000-vertex
caterpillar that a deep input with wide bags matches under the default
recursion limit.  Trees with hundreds and a thousand vertices check the
verdicts of iso_one_decomp, iso_tw and iso_tdw against AHU tree codes.
"""

import hashlib
import inspect
import random
from itertools import combinations
import sys
import time
import tracemalloc

import pytest

import widthiso.treewidth as treewidth_module
from widthiso.errors import FormatError
from widthiso.formats import parse_tree_decomposition, write_tree_decomposition
from widthiso.graph import stable_colours
from widthiso import (
    Graph,
    is_isomorphism,
    TreeDecomposition,
    compute_tree_decomposition,
    connected_components,
    generate_partial_ktree,
    iso_one_decomp,
    iso_respecting_both,
    iso_tdw,
    iso_tw,
    random_relabel,
    validate_tree_decomposition,
)

from helpers import (
    bag_bijections_reference,
    benchmark_inputs,
    cycle_graph,
    grid_graph,
    mutants,
    path_graph,
    relabel_decomposition,
    spider_edge_bags,
)


def _shape(d: TreeDecomposition | None):
    return None if d is None else (d.bags, tuple(sorted(d.tree_edges)), d.root)


def _outputs(k: int) -> list:
    """Every pinned output for width k, in a fixed order."""
    rng = random.Random(4000 + k)
    out = []
    for _ in range(30):
        n = rng.randint(k + 6, 12 + 2 * k)
        ratio = rng.choice([0.6, 0.8, 1.0])
        bundle = generate_partial_ktree(n, k, ratio, rng.randrange(1 << 30))
        g = bundle.graph
        d = compute_tree_decomposition(g, k)
        h, _ = random_relabel(g, rng.randrange(1, 1 << 30))
        out.append((
            _shape(d),
            _shape(compute_tree_decomposition(g, k - 1)),
            iso_one_decomp(g, d, h, k),
            iso_one_decomp(g, bundle.decomposition, h, k),
        ))
    return out


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


GOLDEN = {
    1: "8b19e0ac0e68989daa458d5bb3e1d70bd477eef3ee5574393082e3e05678676a",
    2: "a2356c482dfa7a036338d72f86ecd4b27dfe285330ef6d88b78765e82192a8ab",
    3: "565e26789b1cbcc9c283300ac5a6b54c18d03d6763f0ae364f2ebccd4cc256c4",
}


@pytest.mark.parametrize("k", sorted(GOLDEN))
def test_golden_partial_ktrees(k):
    assert _digest(_outputs(k)) == GOLDEN[k]


def _respect_outputs(k: int) -> list:
    """iso_respecting_both on the generator decomposition of a partial
    k-tree against its relabelled copy, its computed decomposition and an
    unrelated partial k-tree with the same edge count, and on the computed
    decompositions of the graph and its relabelled copy."""
    rng = random.Random(5000 + k)
    out = []
    for _ in range(25):
        n = rng.randint(k + 4, 10 + 2 * k)
        ratio = rng.choice([0.6, 0.8, 1.0])
        bundle = generate_partial_ktree(n, k, ratio, rng.randrange(1 << 30))
        g, d = bundle.graph, bundle.decomposition
        h, perm = random_relabel(g, rng.randrange(1, 1 << 30))
        computed = compute_tree_decomposition(g, k)
        partner = None
        for _ in range(40):
            other = generate_partial_ktree(n, k, ratio, rng.randrange(1 << 30))
            if other.graph.edge_count == g.edge_count:
                partner = other
                break
        row = [
            iso_respecting_both(g, d, h, relabel_decomposition(d, perm)),
            iso_respecting_both(g, d, g, computed),
            iso_respecting_both(g, computed, h, compute_tree_decomposition(h, k)),
        ]
        if partner is not None:
            row.append(iso_respecting_both(g, d, partner.graph, partner.decomposition))
        out.append(tuple(row))
    return out


RESPECT_GOLDEN = {
    1: "df7ba187b3e9edcd155d4c32b9654bc098d4d4ca4985fca04f9f10d391c137b5",
    2: "f7ab62a24a88822149916960f16ac9c1c6bb29f16b5d6a64c672a776feddd28d",
    3: "2bf2fde695fb720e625df7ff35a1d26555277347c4be51ab0664249762ac3473",
}


@pytest.mark.parametrize("k", sorted(RESPECT_GOLDEN))
def test_golden_respecting_both(k):
    assert _digest(_respect_outputs(k)) == RESPECT_GOLDEN[k]


def _colour_outputs() -> list:
    """stable_colours of partial 1-, 2- and 3-trees against a relabelled
    copy and a relabelled copy after one degree-preserving edge swap, and
    of relabelled grids against relabelled grids of the same size."""
    inputs = benchmark_inputs()
    rng = random.Random(7000)
    out = []
    for k in (1, 2, 3):
        for _ in range(40):
            n = rng.randint(k + 6, 14 + 3 * k)
            bundle = generate_partial_ktree(n, k, rng.choice([0.6, 0.8, 1.0]), rng.randrange(1 << 30))
            g = bundle.graph
            out.append(stable_colours(g, random_relabel(g, rng.randrange(1, 1 << 30))[0]))
            edges = sorted(g.edges)
            swapped = inputs.edge_swap(n, edges, rng) if len(edges) > 1 else None
            h = Graph(n, inputs.relabel(n, swapped or edges, rng)[0])
            out.append(stable_colours(g, h))
    for rows, cols in ((2, 6), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5)):
        g, _ = random_relabel(grid_graph(rows, cols), rng.randrange(1, 1 << 30))
        for other in ((rows, cols), (1, rows * cols), (cols, rows)):
            h, _ = random_relabel(grid_graph(*other), rng.randrange(1, 1 << 30))
            out.append(stable_colours(g, h))
    return out


COLOUR_GOLDEN = "2a11129c3b58eb5f9f9a763b8baa49496c61072fb806731dd28eac085d35b5e0"


def test_golden_stable_colours():
    assert _digest(_colour_outputs()) == COLOUR_GOLDEN


def _validator_outputs() -> list:
    """validate_tree_decomposition's messages on every mutant of the
    generator and computed decompositions of seeded partial k-trees that
    the decomposition reader accepts, with the vertex count it declares."""
    rng = random.Random(8000)
    out = []
    for k in (1, 2, 3):
        for _ in range(12):
            n = rng.randint(k + 3, 10 + 2 * k)
            bundle = generate_partial_ktree(n, k, rng.choice([0.6, 1.0]), rng.randrange(1 << 30))
            g = bundle.graph
            for d in (bundle.decomposition, compute_tree_decomposition(g, k)):
                for text in mutants(write_tree_decomposition(d, n), rng, 40):
                    try:
                        mutant, declared = parse_tree_decomposition(text)
                    except FormatError:
                        continue
                    out.append((declared, validate_tree_decomposition(g, mutant)))
    return out


VALIDATOR_GOLDEN = "0669e32a15d03c00d0d34e8ad0d0d8e3c129505f986cb675908d0c0a65cc33c7"


def test_golden_validator_messages():
    outputs = _validator_outputs()
    kinds = {message.split(":")[0] for _, messages in outputs for message in messages}
    assert kinds == {"structure", "coverage", "edge-coverage", "connectivity"}
    assert _digest(outputs) == VALIDATOR_GOLDEN


def test_bag_bijections_match_all_pairs_reference():
    # Pinned pairs were tested at the parent bag, so only pairs with a fresh
    # vertex are tested; on bags whose pinned part preserves edges the
    # bijections, and their order, are those of testing every pair.
    rng = random.Random(9000)
    yielded = 0
    for _ in range(300):
        n = rng.randint(4, 9)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.45])
        h, perm = random_relabel(g, rng.randrange(1, 1 << 30))
        g_colour = [rng.randrange(rng.choice([1, 2, 3])) for _ in range(n)]
        h_colour = [0] * n
        for v in range(n):
            h_colour[perm[v]] = g_colour[v]
        g_bag = rng.sample(range(n), rng.randint(1, min(5, n)))
        pinned = {v: perm[v] for v in rng.sample(g_bag, rng.randint(0, len(g_bag) - 1))}
        if rng.random() < 0.5:
            fresh = [perm[v] for v in g_bag if v not in pinned]
        else:
            others = [w for w in range(n) if w not in pinned.values()]
            fresh = rng.sample(others, len(g_bag) - len(pinned))
        h_bag = list(pinned.values()) + fresh
        rng.shuffle(h_bag)
        fresh_g = [v for v in g_bag if v not in pinned]
        fresh_h = [w for w in h_bag if w not in pinned.values()]
        near_g = [treewidth_module._bag_neighbours(g, v, g_bag) for v in fresh_g]
        found = list(
            treewidth_module._bag_bijections(
                pinned, fresh_g, near_g, h, h_bag, fresh_h, g_colour, h_colour
            )
        )
        expected = bag_bijections_reference(g, g_bag, h, h_bag, pinned, g_colour, h_colour)
        assert [list(m.items()) for m in found] == [list(m.items()) for m in expected]
        yielded += len(found)
    assert yielded > 200


def test_one_bag_tree_walk_per_search(monkeypatch):
    # On a connected graph, validation's walk of the bag tree is the one the
    # search's rooted view reads: one walk per call, none kept on d.
    calls = 0
    walk = treewidth_module._bag_tree

    def counted_walk(*args):
        nonlocal calls
        calls += 1
        return walk(*args)

    monkeypatch.setattr(treewidth_module, "_bag_tree", counted_walk)
    bundle = generate_partial_ktree(30, 3, 1.0, 5)
    g, d = bundle.graph, bundle.decomposition
    h, _ = random_relabel(g, 5)
    perm = iso_one_decomp(g, d, h, 3)
    assert perm is not None and is_isomorphism(g, h, perm)
    assert calls == 1
    assert set(vars(d)) == {"bags", "tree_edges", "root", "tree_adjacency"}


def test_one_bag_tree_walk_per_call_on_a_forest(monkeypatch):
    # On a 12-component forest each component's part of the decomposition
    # is read off the one walk the call makes: iso_one_decomp walks the bag
    # tree in validation, iso_tw its computed decomposition once, and
    # iso_respecting_both validates each side and finds its centres from
    # validation's walk and one more.
    calls = 0
    walk = treewidth_module._bag_tree

    def counted_walk(*args):
        nonlocal calls
        calls += 1
        return walk(*args)

    monkeypatch.setattr(treewidth_module, "_bag_tree", counted_walk)
    bundle = generate_partial_ktree(40, 2, 0.5, 3)
    g, d = bundle.graph, bundle.decomposition
    assert len(connected_components(g)) == 12
    h, _ = random_relabel(g, 3)
    perm = iso_one_decomp(g, d, h, 2)
    assert perm is not None and is_isomorphism(g, h, perm)
    assert calls == 1
    calls = 0
    assert iso_tw(g, h, 2)
    assert calls == 1
    calls = 0
    assert iso_respecting_both(g, d, g, d)
    assert calls <= 4


def test_symmetric_graphs_keep_their_first_witness():
    # Graphs with many automorphisms admit many witnesses; the search must
    # return the first one in candidate order.
    out = []
    for g, k in ((cycle_graph(9), 2), (grid_graph(3, 4), 3), (path_graph(11), 1)):
        d = compute_tree_decomposition(g, k)
        h, _ = random_relabel(g, 31)
        d_h = compute_tree_decomposition(h, k)
        out.append((_shape(d), iso_one_decomp(g, d, h, k), iso_one_decomp(h, d_h, g, k)))
    assert _digest(out) == "b7795a57c0bdcf874c5086cc3631eff78596ca2eef9f4ac9f2530ec3a82228a4"


def _forest(pieces, rng: random.Random) -> tuple[Graph, TreeDecomposition]:
    """Disjoint union of (graph, decomposition) pieces under one random
    relabelling, so that components interleave in label order: the bag
    trees are joined at a random bag of each, and rooted at a random bag."""
    n, edges, bags, tree_edges, joints = 0, [], [], [], []
    for g, d in pieces:
        edges += [(u + n, v + n) for u, v in g.edges]
        tree_edges += [(a + len(bags), b + len(bags)) for a, b in d.tree_edges]
        joints.append(len(bags) + rng.randrange(d.bag_count()))
        bags += [tuple(v + n for v in bag) for bag in d.bags]
        n += g.vertex_count
    tree_edges += zip(joints, joints[1:])
    g, perm = random_relabel(Graph(n, edges), rng.randrange(1, 1 << 30))
    d = TreeDecomposition(tuple(bags), frozenset(tree_edges), rng.randrange(len(bags)))
    return g, relabel_decomposition(d, perm)


def _forest_outputs(k: int) -> list:
    """iso_one_decomp witnesses on unions of partial k-trees in which some
    components repeat, against a relabelled copy, under the union's
    decomposition and the computed one, each rooted at a random bag."""
    rng = random.Random(6000 + k)
    out = []
    for _ in range(20):
        pieces = []
        for _ in range(rng.randint(2, 6)):
            if pieces and rng.random() < 0.5:
                pieces.append(rng.choice(pieces))
            else:
                n = rng.randint(k + 1, k + 5)
                bundle = generate_partial_ktree(n, k, rng.choice([0.7, 1.0]), rng.randrange(1 << 30))
                pieces.append((bundle.graph, bundle.decomposition))
        g, d = _forest(pieces, rng)
        computed = compute_tree_decomposition(g, k)
        computed = TreeDecomposition(
            computed.bags, computed.tree_edges, rng.randrange(computed.bag_count())
        )
        h, _ = random_relabel(g, rng.randrange(1, 1 << 30))
        out.append((iso_one_decomp(g, d, h, k), iso_one_decomp(g, computed, h, k)))
    return out


FOREST_GOLDEN = {
    1: "86e0ae4ad9081c789216f81125bb091a3e7305b85b53672b890281a7c068b11f",
    2: "1c37b87a7a088b1025b0b9412704e855f33cfdc8b73d7be7a133698c539f6deb",
}


@pytest.mark.parametrize("k", sorted(FOREST_GOLDEN))
def test_golden_forest_witnesses(k):
    assert _digest(_forest_outputs(k)) == FOREST_GOLDEN[k]


def test_relabelled_grid_exceeds_width_three():
    g, _ = random_relabel(grid_graph(4, 4), 7)
    assert compute_tree_decomposition(g, 3) is None
    d = compute_tree_decomposition(g, 4)
    assert d is not None and d.width() == 4
    assert validate_tree_decomposition(g, d) == []


def test_deep_paths_decompose_without_recursion():
    n = 2000
    graphs = [path_graph(n), random_relabel(path_graph(n), 11)[0]]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        decomps = [compute_tree_decomposition(g, 1) for g in graphs]
    finally:
        sys.setrecursionlimit(limit)
    for g, d in zip(graphs, decomps):
        assert d is not None and d.width() == 1 and d.bag_count() == n - 1
        assert validate_tree_decomposition(g, d) == []


def _with_default_recursion_limit(fn, *args):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


def test_wide_bag_matches_children_without_recursion():
    # Every leaf bag of the star hangs from one bag: about 1,200 children.
    n = 1200
    g = Graph(n, [(0, v) for v in range(1, n)])
    d = compute_tree_decomposition(g, 1)
    assert max(len(d.neighbors(i)) for i in range(d.bag_count())) >= n - 2
    h, _ = random_relabel(g, 17)
    perm = _with_default_recursion_limit(iso_one_decomp, g, d, h, 1)
    assert perm is not None and is_isomorphism(g, h, perm)
    assert _with_default_recursion_limit(iso_respecting_both, g, d, g, d)


def test_spider_siblings_are_compared_not_paired():
    # Equal legs are told apart by their traces.  Pairing sibling subtrees by
    # trial took m! steps against the forked copy: 42 s at m = 11.
    start = time.perf_counter()
    for m in (11, 50):
        g, d = spider_edge_bags(m)
        h, d_h = spider_edge_bags(m, fork=True)
        assert not iso_respecting_both(g, d, h, d_h)
        assert iso_respecting_both(g, d, g, d)
    assert time.perf_counter() - start < 1.0


def test_deep_path_search_frames_per_level():
    # The search and the tracer run on explicit stacks: no Python frame per
    # decomposition level, so hundreds of levels fit under a recursion limit
    # of the current depth + 100.
    g = path_graph(600)
    d = compute_tree_decomposition(g, 1)
    h, _ = random_relabel(g, 23)
    long_path = path_graph(2000)
    d_long = compute_tree_decomposition(long_path, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        perm = iso_one_decomp(g, d, h, 1)
        same = iso_respecting_both(long_path, d_long, long_path, d_long)
    finally:
        sys.setrecursionlimit(limit)
    assert perm is not None and is_isomorphism(g, h, perm)
    assert same


def test_rooted_view_of_deep_path_stays_small():
    # Subtree facts are counts gathered bottom up, not vertex sets, so the
    # rooted view of a 2,000-bag path takes memory linear in its bags.
    g = path_graph(2000)
    d = compute_tree_decomposition(g, 1)
    tracemalloc.start()
    try:
        walk = treewidth_module._bag_tree(d, d.root)
        treewidth_module._Rooted(g, d.bags, walk, [0] * g.vertex_count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_children_take_whole_components(monkeypatch):
    # A child is placed on whole components of the region below its parent's
    # image, split once per bag mapping.  These inputs need 141 and 287 bag
    # mappings; a search that tries placements which are not unions of such
    # components needs tens of thousands, and over 30 s on the tree.
    calls = {"map_bag": 0, "components": 0}
    map_bag, components = treewidth_module._IsoSearch._map_bag, treewidth_module._components

    def counted_map_bag(self, *args):
        calls["map_bag"] += 1
        if calls["map_bag"] > 1000:
            raise AssertionError("more than 1,000 bag mappings")
        return map_bag(self, *args)

    def counted_components(*args):
        calls["components"] += 1
        return components(*args)

    monkeypatch.setattr(treewidth_module._IsoSearch, "_map_bag", counted_map_bag)
    monkeypatch.setattr(treewidth_module, "_components", counted_components)
    for k, bundle in ((1, generate_partial_ktree(80, 1, 1.0, 7)),
                      (2, generate_partial_ktree(60, 2, 0.8, 7))):
        calls.update(map_bag=0, components=0)
        g = bundle.graph
        h, _ = random_relabel(g, 7)
        perm = iso_one_decomp(g, bundle.decomposition, h, k)
        assert perm is not None and is_isomorphism(g, h, perm)
        assert calls["components"] <= calls["map_bag"]


def _wheel_gadget(m: int, split: int = -1) -> Graph:
    """Hub 0 with m branches, each a path hub - x - apex whose apex is
    joined to six rim vertices: a 6-cycle, or two triangles in branch split."""
    edges = []
    for b in range(m):
        x, apex, rim = 8 * b + 1, 8 * b + 2, range(8 * b + 3, 8 * b + 9)
        edges += [(0, x), (x, apex)] + [(apex, r) for r in rim]
        ring = (rim[:3], rim[3:]) if b == split else (rim,)
        edges += [(r[t], r[(t + 1) % len(r)]) for r in ring for t in range(len(r))]
    return Graph(8 * m + 1, edges)


def test_walk_memo_bounds_the_wheel_gadget(monkeypatch):
    # Colour refinement does not tell a rim of two triangles from a 6-cycle,
    # so only the search refutes this pair.  With every child placement's
    # outcome memoised it takes 548 bag mappings; memoising failures only
    # takes 1,506, and no memo 318,654.
    calls = 0
    map_bag = treewidth_module._IsoSearch._map_bag

    def counted_map_bag(self, *args):
        nonlocal calls
        calls += 1
        if calls > 1000:
            raise AssertionError("more than 1,000 bag mappings")
        return map_bag(self, *args)

    monkeypatch.setattr(treewidth_module._IsoSearch, "_map_bag", counted_map_bag)
    g = _wheel_gadget(4)
    d = compute_tree_decomposition(g, 3)
    h, _ = random_relabel(_wheel_gadget(4, split=2), 5)
    assert g.vertex_count == 33 and stable_colours(g, h) is not None
    assert iso_one_decomp(g, d, h, 3) is None
    calls = 0
    copy, _ = random_relabel(g, 9)
    perm = iso_one_decomp(g, d, copy, 3)
    assert perm is not None and is_isomorphism(g, copy, perm)


def test_deep_caterpillar_search_without_recursion():
    # A 1,200-vertex spine with 800 leaves: deep, with wide bags of many
    # interchangeable leaf children.
    rng = random.Random(1)
    spine, n = 1200, 2000
    edges = [(v, v + 1) for v in range(spine - 1)]
    edges += [(rng.randrange(spine), v) for v in range(spine, n)]
    g = Graph(n, edges)
    h, _ = random_relabel(g, 7)
    d = compute_tree_decomposition(h, 1)
    perm = _with_default_recursion_limit(iso_one_decomp, h, d, g, 1)
    assert perm is not None and is_isomorphism(h, g, perm)


def test_tree_verdicts_match_ahu_codes():
    # Random trees and caterpillars of 300 and 1,000 vertices against a
    # relabelled copy and a relabelled copy with one leaf moved: colour
    # refinement decides trees, and component signatures keep the search
    # from backtracking over sibling placements.  A partial 2-tree of 240
    # vertices rides along.
    inputs = benchmark_inputs()
    names: dict = {}
    rng = random.Random(11)
    start = time.perf_counter()
    for n in (300, 1000):
        bundle = generate_partial_ktree(n, 1, 1.0, n)
        for edges, d in (
            (sorted(bundle.graph.edges), bundle.decomposition),
            (inputs.caterpillar(n, rng), None),
        ):
            g = Graph(n, edges)
            d = d or compute_tree_decomposition(g, 1)
            code = inputs.ahu_code(n, edges, names)
            for h_edges in (edges, inputs.move_leaf(n, edges, rng)):
                h_edges = inputs.relabel(n, h_edges, rng)[0]
                h = Graph(n, h_edges)
                same = inputs.ahu_code(n, h_edges, names) == code
                perm = iso_one_decomp(g, d, h, 1)
                assert (perm is not None) == same
                assert perm is None or is_isomorphism(g, h, perm)
                assert iso_tw(g, h, 1) == same
                assert iso_tdw(g, h, 1) == same
    bundle = generate_partial_ktree(240, 2, 0.8, 7)
    h, _ = random_relabel(bundle.graph, 7)
    perm = iso_one_decomp(bundle.graph, bundle.decomposition, h, 2)
    assert perm is not None and is_isomorphism(bundle.graph, h, perm)
    assert time.perf_counter() - start < 10.0
