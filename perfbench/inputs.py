"""Seeded input generators and engine-independent reference answers.

Stdlib only.  Every generator takes the vertex count and an explicit
``random.Random`` and returns an edge list on labels 0..n-1, so one seed
always yields the same graphs.  The reference answers (AHU tree codes, colour refinement,
connectivity) share no code with the engines they are used to check.
"""

from __future__ import annotations

import random
from collections import deque

Edges = list[tuple[int, int]]


def norm(edges) -> Edges:
    return sorted((u, v) if u < v else (v, u) for u, v in edges)


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    adj = adjacency(n, edges)
    seen = {0}
    queue = deque([0])
    while queue:
        for y in adj[queue.popleft()]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == n


def relabel(n: int, edges, rng: random.Random) -> tuple[Edges, list[int]]:
    """Apply a uniform random permutation; returns the edges and the map."""
    perm = list(range(n))
    rng.shuffle(perm)
    return norm((perm[u], perm[v]) for u, v in edges), perm


# -- tree distance width 2 --------------------------------------------------


def layered_tdw2(n: int, rng: random.Random) -> Edges:
    """A random connected graph whose BFS layers are bags of size 1 or 2.

    Every vertex is wired to at least one vertex of the previous layer and
    edges stay inside a layer or between consecutive layers, so the layers
    form a tree distance decomposition of width at most 2.
    """
    while True:
        root = rng.choice([1, 2])
        prev = list(range(root))
        nxt = root
        edges = set()
        if root == 2 and rng.random() < 0.7:
            edges.add((0, 1))
        while nxt < n:
            bag = list(range(nxt, min(nxt + rng.choice([1, 2]), n)))
            nxt += len(bag)
            for v in bag:
                for a in rng.sample(prev, rng.randint(1, len(prev))):
                    edges.add((a, v))
            if len(bag) == 2 and rng.random() < 0.5:
                edges.add((bag[0], bag[1]))
            prev = bag
        if is_connected(n, edges):
            return norm(edges)


# -- deep trees ---------------------------------------------------------------


def path_tree(n: int, rng: random.Random) -> Edges:
    return [(i, i + 1) for i in range(n - 1)]


def caterpillar(n: int, rng: random.Random) -> Edges:
    """A spine of about 0.6 n vertices with single-vertex legs."""
    spine = max(2, int(0.6 * n))
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), v) for v in range(spine, n)]
    return edges


def spider(n: int, rng: random.Random) -> Edges:
    """A centre with three to five long legs of random lengths."""
    legs = rng.randint(3, 5)
    cuts = sorted(rng.sample(range(1, n - 1), legs - 1))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [n - 1])]
    edges = []
    nxt = 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return edges


def long_spine(n: int, rng: random.Random) -> Edges:
    """A spine of about 0.7 n vertices carrying small random subtrees."""
    spine = max(2, int(0.7 * n))
    edges = [(i, i + 1) for i in range(spine - 1)]
    for v in range(spine, n):
        anchor = rng.randrange(v) if rng.random() < 0.5 else rng.randrange(spine)
        edges.append((anchor, v))
    return edges


TREE_SHAPES = {
    "path": path_tree,
    "caterpillar": caterpillar,
    "spider": spider,
    "long_spine": long_spine,
}


def move_leaf(n: int, edges, rng: random.Random) -> Edges:
    """Detach one leaf and hang it from another vertex: still a tree."""
    adj = adjacency(n, edges)
    leaf = rng.choice([v for v in range(n) if len(adj[v]) == 1])
    (old,) = adj[leaf]
    new = rng.choice([v for v in range(n) if v not in (leaf, old)])
    return norm([e for e in norm(edges) if leaf not in e] + [(leaf, new)])


def ahu_code(n: int, edges, names: dict) -> int:
    """Aho-Hopcroft-Ullman code of a tree rooted at its centre.

    ``names`` interns sorted child-name tuples to integers; share it
    between trees so that equal codes mean isomorphic trees.
    """
    adj = adjacency(n, edges)
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for y in adj[v]:
                degree[y] -= 1
                if degree[y] == 1:
                    nxt.append(y)
        layer = nxt
    best = None
    for centre in layer:
        order, parent = [centre], {centre: -1}
        for v in order:
            for y in adj[v]:
                if y != parent[v]:
                    parent[y] = v
                    order.append(y)
        kids: dict[int, list[int]] = {v: [] for v in order}
        name = {}
        for v in reversed(order):
            name[v] = names.setdefault(tuple(sorted(kids[v])), len(names))
            if parent[v] >= 0:
                kids[parent[v]].append(name[v])
        best = name[centre] if best is None else min(best, name[centre])
    return best


# -- treewidth inputs -----------------------------------------------------------


def edge_swap(n: int, edges, rng: random.Random) -> Edges | None:
    """One degree-preserving swap {a,b},{c,d} -> {a,d},{c,b}; None if stuck."""
    edges = norm(edges)
    present = set(edges)
    for _ in range(200):
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) < 4:
            continue
        if rng.random() < 0.5:
            c, d = d, c
        new = norm([(a, d), (c, b)])
        if any(e in present for e in new):
            continue
        return norm((present - {(a, b), tuple(sorted((c, d)))}) | set(new))
    return None


def grid(rows: int, cols: int) -> Edges:
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return edges


def refinement_differs(n: int, g_edges, h_edges) -> bool:
    """True when colour refinement tells the two graphs apart.

    Refines the disjoint union to a stable colouring; differing colour
    histograms prove the graphs non-isomorphic.  Equal histograms prove
    nothing (except between trees, which refinement identifies).
    """
    adj = adjacency(2 * n, list(g_edges) + [(u + n, v + n) for u, v in h_edges])
    colour = [0] * (2 * n)
    classes = 1
    while True:
        sigs = [(colour[v], tuple(sorted(colour[y] for y in adj[v]))) for v in range(2 * n)]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colour = [palette[s] for s in sigs]
        if sorted(colour[:n]) != sorted(colour[n:]):
            return True
        if len(palette) == classes:
            return False
        classes = len(palette)
