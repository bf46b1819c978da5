"""Invariants of the treewidth route's fast paths.

Decompositions, the rejection one width below, and the iso_one_decomp
witness maps are pinned by SHA-256 digests over seeded partial k-trees: the
bag candidates must come out in lexicographic order and the elimination
search must try vertices in ascending order, or the first decomposition and
the first witness found would change.  Deep paths check that the
elimination search does not depend on the interpreter's recursion limit.
"""

import hashlib
import inspect
import random
import sys

import pytest

from widthiso import (
    Graph,
    TreeDecomposition,
    compute_tree_decomposition,
    generate_partial_ktree,
    iso_one_decomp,
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
