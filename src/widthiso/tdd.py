"""Building and validating minimal tree distance decompositions of connected
graphs, and their width, the least over root sets.  The canonisation's
search over root sets is in isoorder: it keeps one record per (bag, parent
bag) pair, builds only where re-rooting cannot read a bag's child bags off
its records, and records a build's pairs in one pass over _build's rows,
which list a bag's children before it, in content order.  Both it and the
width query refuse a root set whose depth-1 bag is too wide by _sep_counts,
a single vertex by its articulation count, and both build under a cap, at
whose first bag above it _build stops.  build_minimal_tdd renumbers the
rows depth-first for callers that read ids.

A tree distance decomposition rooted at a vertex set S partitions V into
disjoint bags; the bag holding v sits at tree depth d(S, v) and every edge
joins one bag or two tree-adjacent bags.  For each root set there is a
unique decomposition whose subtrees all cover connected subgraphs, and it
has the least width any decomposition with that root set can have.

That minimal decomposition has a direct characterization which the builder
uses: the bags at depth d are the depth-d slices of the connected components
left after deleting every vertex closer than d to S.  Two vertices at the
same depth share a bag exactly when they are connected without going nearer
the root, which is forced anyway whenever they are adjacent (equal-depth
bags are never tree-adjacent, so an edge between them would be uncoverable).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .errors import DisconnectedGraphError, EmptySetError
from .graph import Graph, _articulation_counts, _levels, is_connected, vertex_set


@dataclass(frozen=True)
class TreeDistanceDecomposition:
    """Rooted tree of disjoint bags; ids are depth-first discovery order."""

    bags: tuple[tuple[int, ...], ...]
    parent: tuple[int, ...]
    depth: tuple[int, ...]
    root: int = 0

    def width(self) -> int:
        return max(len(bag) for bag in self.bags)

    @cached_property
    def child_lists(self) -> tuple[tuple[int, ...], ...]:
        """Child bag ids of every bag, ascending; built once per decomposition."""
        kids: list[list[int]] = [[] for _ in self.bags]
        for j, p in enumerate(self.parent):
            if j != self.root:
                kids[p].append(j)
        return tuple(tuple(c) for c in kids)

    def children(self, i: int) -> tuple[int, ...]:
        return self.child_lists[i]

    @cached_property
    def subtree_sizes(self) -> tuple[int, ...]:
        """Vertices in the subtree below every bag, from one bottom-up pass."""
        order = [self.root]
        for i in order:  # order grows while it is read: a breadth-first walk
            order.extend(self.child_lists[i])
        sizes = [len(bag) for bag in self.bags]
        for i in reversed(order[1:]):
            sizes[self.parent[i]] += sizes[i]
        return tuple(sizes)

def _find(up: list[int] | dict[int, int], x: int) -> int:
    """Union-find root of x in the parent list or dict up, compressing the
    path walked; _build, validate_tdd and the treewidth rooted view share it."""
    root = x
    while up[root] != root:
        root = up[root]
    while up[x] != root:
        up[x], x = root, up[x]
    return root


def _build(g: Graph, s: tuple[int, ...], cap: int) -> tuple[list, list[int], list[int]] | None:
    """The minimal decomposition rooted at s as rows (bags, parent ids,
    depths), in the order they are built: deepest level first, the bags of
    one level by least vertex, and s last, its own parent.  So a bag's
    children come before it, in content order, and every bag below s is
    sorted.  None at the first bag found to hold more than cap vertices:
    the decomposition's width exceeds cap.

    One BFS and one union-find pass over the adjacency lists: O(n + m) per
    root set up to the slowly growing factor of the path-compressed
    union-find.
    """
    if len(s) > cap:
        return None
    adj = g._adj
    level = _levels(g, s)
    layers: list[list[int]] = [[] for _ in range(max(level) + 1)]
    for v, d in enumerate(level):
        if d > 0:
            layers[d].append(v)

    # Union-find from the deepest level upward: once level d is merged, the
    # classes are the components of the subgraph on {v : level >= d}, and the
    # level-d vertices of one class form one depth-d bag.
    up = list(range(g.vertex_count))
    bags: list[tuple[int, ...]] = []
    depth: list[int] = []
    bag_of = [0] * g.vertex_count
    for d in range(len(layers) - 1, 0, -1):
        layer = layers[d]
        for v in layer:
            a = _find(up, v)
            for y in adj[v]:
                if level[y] >= d:
                    b = _find(up, y)
                    if a != b:
                        up[a] = a = b
        groups: dict[int, list[int]] = {}
        for v in layer:
            groups.setdefault(_find(up, v), []).append(v)
        for bag in groups.values():
            if len(bag) > cap:
                return None
            for v in bag:
                bag_of[v] = len(bags)
            bags.append(tuple(bag))
            depth.append(d)
    root = len(bags)
    for v in s:
        bag_of[v] = root
    bags.append(s)
    depth.append(0)

    # Any neighbor one level up sits in the parent bag.
    parent = [root] * len(bags)
    for i in range(root):
        v = bags[i][0]
        parent[i] = bag_of[next(y for y in adj[v] if level[y] == depth[i] - 1)]
    return bags, parent, depth


def _components(g: Graph, s: tuple[int, ...], cap: int) -> list[tuple] | None:
    """The components C of G - S, one breadth-first search each, as triples:
    N(C) ∩ S sorted, the child bag N(S) ∩ C in search order, and |C|.  None
    as soon as a child bag holds more than cap vertices: the decomposition
    rooted at S holds that bag, so its width exceeds cap.

    The child bags of the root are the components of G - S, each cut down to
    its neighbours of S, and the component C hangs from N(C) ∩ S.
    """
    adj = g._adj
    inside = set(s)
    seen = [False] * g.vertex_count
    for v in s:
        seen[v] = True
    comps = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        sep = set()
        bag = []
        for x in comp:  # comp grows while it is read: a breadth-first search
            near = False
            for y in adj[x]:
                if y in inside:
                    sep.add(y)
                    near = True
                elif not seen[y]:
                    seen[y] = True
                    comp.append(y)
            if near:
                bag.append(x)
        if len(bag) > cap:
            return None
        comps.append((tuple(sorted(sep)), bag, len(comp)))
    return comps


def _sep_counts(
    g: Graph, s: tuple[int, ...], splits: list[int], cap: int
) -> tuple[dict[tuple[int, ...], int], list[tuple] | None] | None:
    """Separating sets of the root bag s, each with its number of child
    bags, and the components of G - S when known (see _components); None
    when a child bag is seen to hold more than cap.  tree_distance_width
    and isoorder._root_search both refuse root sets by it.

    A single vertex v separates all splits[v] components of G - v, and its
    neighbours cannot fit when there are more than cap per component, so a
    single vertex needs no search.  A vertex that cuts nothing has one
    component, all of G - v, whose child bag is N(v).
    """
    if len(s) == 1:
        v = s[0]
        if len(g._adj[v]) > cap * splits[v]:
            return None
        if splits[v] == 1:
            return {s: 1}, [(s, g._adj[v], g.vertex_count - 1)]
        return ({s: splits[v]} if splits[v] else {}), None
    comps = _components(g, s, cap)
    if comps is None:
        return None
    counts: dict[tuple[int, ...], int] = {}
    for sep, _, _ in comps:
        counts[sep] = counts.get(sep, 0) + 1
    return counts, comps


def tree_distance_width(g: Graph, k_max: int) -> int | None:
    """Least width of a tree distance decomposition of g, None above k_max.

    The minimal decomposition rooted at S is unique and has the least width
    of any rooted at S, so the width is the least over root sets of their
    largest bag.  A root bag counts, and only a tree has a decomposition of
    one-vertex bags, so a root set cannot beat the best width so far once
    its size, or 2 for a graph that is not a tree, reaches it.  Sizes are
    tried in increasing order, a root set whose depth-1 bag is already too
    wide (_sep_counts) is not built, and a build stops at a bag that cannot
    beat the best.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("tree distance decompositions need a connected graph")
    n = g.vertex_count
    if n == 0:
        return 0 if k_max >= 0 else None
    splits = _articulation_counts(g)
    least = 1 if g.edge_count == n - 1 else 2
    best = min(k_max, n) + 1
    size = 1
    while max(size, least) < best:
        for s in combinations(range(n), size):
            if _sep_counts(g, s, splits, best - 1) is None:
                continue
            if (rows := _build(g, s, best - 1)) is None:
                continue
            best = max(map(len, rows[0]))
            if best == max(size, least):
                return best
        size += 1
    return best if best <= k_max else None


def build_minimal_tdd(g: Graph, s: Iterable[int]) -> TreeDistanceDecomposition:
    """The unique minimal tree distance decomposition rooted at s, its bags
    numbered in depth-first discovery order, children by least vertex."""
    root = vertex_set(g, s)
    if not root:
        raise EmptySetError("root set must be nonempty")
    if not is_connected(g):
        raise DisconnectedGraphError("tree distance decompositions need a connected graph")
    bags, parent, depth = _build(g, root, g.vertex_count)
    kids: list[list[int]] = [[] for _ in bags]
    for i in range(len(bags) - 1):
        kids[parent[i]].append(i)
    order: list[int] = []
    stack = [len(bags) - 1]
    while stack:
        i = stack.pop()
        order.append(i)
        stack.extend(reversed(kids[i]))
    new_id = {old: new for new, old in enumerate(order)}
    return TreeDistanceDecomposition(
        bags=tuple(bags[old] for old in order),
        parent=tuple(new_id[parent[old]] for old in order),
        depth=tuple(depth[old] for old in order),
        root=0,
    )


def validate_tdd(g: Graph, d: TreeDistanceDecomposition) -> list[str]:
    """Check partition, depth, edge-locality and minimality; [] means valid."""
    problems: list[str] = []
    n_bags = len(d.bags)
    if not (len(d.parent) == len(d.depth) == n_bags):
        return ["structure: bags, parent and depth have different lengths"]
    if not (0 <= d.root < n_bags):
        return [f"structure: root id {d.root} out of range"]
    if d.parent[d.root] != d.root:
        problems.append("structure: root must be its own parent")
    if d.depth[d.root] != 0:
        problems.append("structure: root depth must be 0")
    for i in range(n_bags):
        if not d.bags[i]:
            problems.append(f"structure: bag {i} is empty")
        if i != d.root:
            p = d.parent[i]
            if not (0 <= p < n_bags):
                problems.append(f"structure: bag {i} has invalid parent {p}")
            elif d.depth[i] != d.depth[p] + 1:
                problems.append(
                    f"structure: bag {i} at depth {d.depth[i]} under parent at depth {d.depth[p]}"
                )
    if problems:
        return problems

    seen: dict[int, int] = {}
    for i, bag in enumerate(d.bags):
        for v in bag:
            if not 0 <= v < g.vertex_count:
                problems.append(f"partition: bag {i} holds {v}, which is not a vertex")
            elif v in seen:
                problems.append(f"partition: vertex {v} appears in bags {seen[v]} and {i}")
            seen[v] = i
    for v in range(g.vertex_count):
        if v not in seen:
            problems.append(f"partition: vertex {v} is in no bag")
    if problems:
        return problems

    level = _levels(g, d.bags[d.root])
    for i, bag in enumerate(d.bags):
        for v in bag:
            if level[v] != d.depth[i]:
                dist = level[v] if level[v] >= 0 else None
                problems.append(
                    f"depth: vertex {v} in bag {i} at depth {d.depth[i]} but distance is {dist}"
                )

    # Each edge joins the subgraph of every subtree holding its lowest common
    # bag.  Merging bags deepest first, after bag i's edges the union-find
    # classes inside its subtree are the components of that subgraph, and
    # parts[i] counts them.
    edges_at: list[list[tuple[int, int]]] = [[] for _ in d.bags]
    adj = g._adj
    for u in range(g.vertex_count):  # edges in ascending order
        for v in adj[u]:
            if v < u:
                continue
            bu, bv = seen[u], seen[v]
            if bu != bv and d.parent[bu] != bv and d.parent[bv] != bu:
                problems.append(
                    f"edge-locality: edge ({u}, {v}) spans non-adjacent bags {bu} and {bv}"
                )
            while bu != bv:
                if d.depth[bu] >= d.depth[bv]:
                    bu = d.parent[bu]
                else:
                    bv = d.parent[bv]
            edges_at[bu].append((u, v))

    up = list(range(g.vertex_count))
    parts = [len(bag) for bag in d.bags]
    for i in sorted(range(n_bags), key=d.depth.__getitem__, reverse=True):
        for u, v in edges_at[i]:
            a, b = _find(up, u), _find(up, v)
            if a != b:
                up[a] = b
                parts[i] -= 1
        if i != d.root:
            parts[d.parent[i]] += parts[i]
    for i in range(n_bags):
        if parts[i] != 1:
            problems.append(f"minimality: subtree of bag {i} induces a disconnected subgraph")
    return problems

