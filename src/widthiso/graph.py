"""Undirected simple graphs on dense 0-based labels, stored once as sorted
adjacency tuples (the edge set is derived on demand), plus the primitives the
engines read them through: BFS levels from a vertex set, connectivity,
components and articulation counts.  Distances and induced subgraphs are
for library users and the tests; no engine builds a subgraph.

Vertex sets are accepted as arbitrary iterables of labels and are always
returned as ascending tuples; the fixed iteration order settles every
tie-break downstream, so all algorithms built on top are deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Iterable

from .errors import EmptySetError, InvalidVertexError


class Graph:
    """Immutable simple graph: no self-loops, no duplicates, undirected.

    The sorted adjacency ``_adj`` (``_adj[v]`` is the ascending tuple of
    v's neighbours) is the one stored form; every engine reads it.  The
    edge set ``edges`` is derived from it on each access.
    """

    __slots__ = ("vertex_count", "edge_count", "_adj", "_hash")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        edges = list(edges)
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InvalidVertexError(
                    f"edge ({u}, {v}) outside label range 0..{vertex_count - 1}"
                )
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
        self._build(vertex_count, edges)

    def _build(self, vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Store the sorted adjacency of edges, taken as they stand: the
        caller has checked every one (see formats.parse_graph); returns self."""
        # A set only for a vertex on an edge; the others share the empty tuple.
        adj: list[set[int] | None] = [None] * vertex_count
        for u, v in edges:
            if adj[u] is None:
                adj[u] = {v}
            else:
                adj[u].add(v)
            if adj[v] is None:
                adj[v] = {u}
            else:
                adj[v].add(u)
        self.vertex_count = vertex_count
        self._adj = tuple([tuple(sorted(nbrs)) if nbrs else () for nbrs in adj])
        self.edge_count = sum(map(len, self._adj)) // 2
        self._hash: int | None = None
        return self

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge once, as a (smaller, larger) pair; built on each access."""
        return frozenset(
            (u, v) for u, nbrs in enumerate(self._adj) for v in nbrs if v > u
        )

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge; False for any label outside 0..n-1."""
        if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
            return False
        nbrs = self._adj[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(nbrs) for nbrs in self._adj))

    def check_vertex(self, v: int) -> None:
        if not (isinstance(v, int) and 0 <= v < self.vertex_count):
            raise InvalidVertexError(f"vertex {v!r} outside 0..{self.vertex_count - 1}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._adj)
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, {sorted(self.edges)})"


def vertex_set(g: Graph, members: Iterable[int]) -> tuple[int, ...]:
    """Normalize an iterable of labels into an ascending, validated tuple."""
    out = sorted(set(members))
    for v in out:
        g.check_vertex(v)
    return tuple(out)


def distance(g: Graph, u: int, v: int) -> int | None:
    """Shortest-path length from u to v; None if they are in different components."""
    g.check_vertex(u)
    return set_distance(g, (u,), v)


def set_distance(g: Graph, s: Iterable[int], u: int) -> int | None:
    """min over v in s of distance(g, v, u); None if u is unreachable from s."""
    src = vertex_set(g, s)
    if not src:
        raise EmptySetError("set_distance needs a nonempty source set")
    g.check_vertex(u)
    level = _levels(g, src)[u]
    return level if level >= 0 else None


def _levels(g: Graph, s: Iterable[int]) -> list[int]:
    """BFS layer of every vertex from the root set; -1 if unreachable."""
    adj = g._adj
    level = [-1] * g.vertex_count
    queue = deque(s)
    for v in queue:
        level[v] = 0
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if level[y] < 0:
                level[y] = level[x] + 1
                queue.append(y)
    return level


def connected_components(g: Graph, removed: Iterable[int] = ()) -> list[tuple[int, ...]]:
    """Components of the graph induced on V minus removed, sorted by least member."""
    gone = set(vertex_set(g, removed))
    return [tuple(sorted(c)) for c in _components(g, set(range(g.vertex_count)) - gone)]


def _components(g: Graph, verts: set[int]) -> list[list[int]]:
    """Components of the subgraph induced on verts, sorted by least member;
    each lists its least member first, the rest in breadth-first order."""
    adj = g._adj
    seen: set[int] = set()
    parts: list[list[int]] = []
    for start in sorted(verts):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for x in comp:  # comp grows while it is read: a breadth-first search
            for y in adj[x]:
                if y in verts and y not in seen:
                    seen.add(y)
                    comp.append(y)
        parts.append(comp)
    return parts


def stable_colours(g: Graph, h: Graph) -> tuple[list[int], list[int]] | None:
    """Colour refinement (1-dimensional Weisfeiler–Leman) of the disjoint
    union of g and h, starting from degrees: the colours of g's vertices and
    of h's, on one palette, or None as soon as the two colour histograms
    differ, which proves g and h non-isomorphic.

    The stable colouring is the coarsest partition, refining degree, in
    which all vertices of a cell have equally many neighbours in each cell.
    Cells are split by their neighbour counts into one splitter cell at a
    time; of the parts of a cell that is not waiting to be a splitter, all
    but the largest wait, since the counts into the cell fix those into its
    last part (Hopcroft's rule, Cardon and Crochemore 1982), so each vertex
    is a splitter O(log n) times.  Every isomorphism maps each vertex to one
    of the same colour.

    A touched cell whose vertices all have the same count does not split
    and is dropped before any grouping.  Every cell holds as many vertices
    of g as of h (unequal degree sequences answer None at once), so a split
    cell's largest part is balanced when its other parts are, and only
    those are counted.
    """
    n = g.vertex_count
    if n != h.vertex_count:
        return None
    if sorted(map(len, g._adj)) != sorted(map(len, h._adj)):
        return None  # the degree cells below would not all be halved
    # Vertex v of h is vertex n + v of the union.
    shift = n.__add__
    adj = g._adj + tuple([tuple(map(shift, nbrs)) for nbrs in h._adj])
    degrees = list(map(len, adj))
    by_degree: dict[int, list[int]] = {}
    for v, degree in enumerate(degrees):
        by_degree.setdefault(degree, []).append(v)
    cells = list(by_degree.values())
    colour = list(map({degree: c for c, degree in enumerate(by_degree)}.__getitem__, degrees))
    # The counts into the whole union are the degrees, so all cells but the
    # largest are the splitters to start from.
    sizes = list(map(len, cells))
    largest = sizes.index(max(sizes)) if cells else 0
    waiting = [c for c in range(len(cells)) if c != largest]
    hits = [0] * (2 * n)  # neighbours in the current splitter, per vertex
    while waiting:
        by_cell: dict[int, list[int]] = {}  # colour -> its touched vertices, first touch first
        for v in cells[waiting.pop()]:
            for w in adj[v]:
                if hits[w]:
                    hits[w] += 1
                else:
                    hits[w] = 1
                    by_cell.setdefault(colour[w], []).append(w)
        for c, ws in by_cell.items():
            cell = cells[c]
            if len(ws) == len(cell):
                first = hits[ws[0]]
                for w in ws:
                    if hits[w] != first:
                        break
                else:
                    continue  # every vertex of c has the same count: no split
            groups: dict[int, list[int]] = {}  # count -> vertices
            if len(ws) < len(cell):
                groups[0] = [v for v in cell if not hits[v]]
            for w in ws:
                groups.setdefault(hits[w], []).append(w)
            parts = [groups[count] for count in sorted(groups)]
            # Cell c keeps its largest part, so if c waits, all its parts do.
            sizes = list(map(len, parts))
            keep = sizes.index(max(sizes))
            cells[c] = parts[keep]
            del parts[keep]
            # Cell c holds as many vertices of g as of h, so its largest part
            # does too when every other part does.
            for part in parts:
                if 2 * len([v for v in part if v < n]) != len(part):
                    return None
            for part in parts:
                for v in part:
                    colour[v] = len(cells)
                waiting.append(len(cells))
                cells.append(part)
        for ws in by_cell.values():
            for w in ws:
                hits[w] = 0
    return colour[:n], colour[n:]


def _articulation_counts(g: Graph) -> list[int]:
    """Number of components of g minus v, for every vertex v.

    One iterative Hopcroft–Tarjan depth-first pass: a DFS child w of v
    whose subtree reaches no higher than v (low[w] >= disc[v]) becomes its
    own component once v is gone; every other child stays joined to v's
    parent side, which only a non-root vertex has.
    """
    adj = g._adj
    n = g.vertex_count
    disc = [-1] * n
    low = [0] * n
    cut_off = [0] * n
    roots = []
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        roots.append(root)
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, untried = stack[-1]
            for w in untried:
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if parent >= 0:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] >= disc[parent]:
                        cut_off[parent] += 1
    # Besides the len(roots) - 1 other components: the parent side, which a
    # DFS root lacks, and the cut-off children.
    counts = [len(roots) + c for c in cut_off]
    for root in roots:
        counts[root] -= 1
    return counts


def is_connected(g: Graph) -> bool:
    """Whether one BFS from vertex 0 reaches every vertex."""
    return g.vertex_count == 0 or -1 not in _levels(g, (0,))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Graph induced on keep, relabeled densely; returns the old-to-new map."""
    kept = vertex_set(g, keep)
    relabel = {v: i for i, v in enumerate(kept)}
    edges = [
        (relabel[u], relabel[v])
        for u in kept
        for v in g._adj[u]
        if v > u and v in relabel
    ]
    return Graph(len(kept), edges), relabel
