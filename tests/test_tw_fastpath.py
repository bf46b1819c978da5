"""Invariants of the treewidth route's fast paths.

Decompositions, the rejection one width below, and the iso_one_decomp
witness maps are pinned by SHA-256 digests over seeded partial k-trees: the
bag candidates must come out in lexicographic order and the elimination
search must try vertices in ascending order, or the first decomposition and
the first witness found would change.  Deep paths check that the
elimination search does not depend on the interpreter's recursion limit;
a star checks that neither matcher recurses once per child of a bag.
"""

import hashlib
import inspect
import random
import sys

import pytest

from widthiso import (
    Graph,
    is_isomorphism,
    TreeDecomposition,
    compute_tree_decomposition,
    generate_partial_ktree,
    iso_one_decomp,
    iso_respecting_both,
    random_relabel,
    validate_tree_decomposition,
)

from helpers import cycle_graph, path_graph


def _grid(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


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


def _relabel_decomposition(d: TreeDecomposition, perm) -> TreeDecomposition:
    bags = tuple(tuple(sorted(perm[v] for v in bag)) for bag in d.bags)
    return TreeDecomposition(bags=bags, tree_edges=d.tree_edges, root=d.root)


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
            iso_respecting_both(g, d, h, _relabel_decomposition(d, perm)),
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


def test_symmetric_graphs_keep_their_first_witness():
    # Graphs with many automorphisms admit many witnesses; the search must
    # return the first one in candidate order.
    out = []
    for g, k in ((cycle_graph(9), 2), (_grid(3, 4), 3), (path_graph(11), 1)):
        d = compute_tree_decomposition(g, k)
        h, _ = random_relabel(g, 31)
        d_h = compute_tree_decomposition(h, k)
        out.append((_shape(d), iso_one_decomp(g, d, h, k), iso_one_decomp(h, d_h, g, k)))
    assert _digest(out) == "b7795a57c0bdcf874c5086cc3631eff78596ca2eef9f4ac9f2530ec3a82228a4"


def test_relabelled_grid_exceeds_width_three():
    g, _ = random_relabel(_grid(4, 4), 7)
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


def test_deep_path_search_frames_per_level():
    # The search still recurses once per decomposition level, in a fixed
    # number of frames; one more frame per level overflows the default limit.
    g = path_graph(300)
    d = compute_tree_decomposition(g, 1)
    h, _ = random_relabel(g, 23)
    perm = _with_default_recursion_limit(iso_one_decomp, g, d, h, 1)
    assert perm is not None and is_isomorphism(g, h, perm)
