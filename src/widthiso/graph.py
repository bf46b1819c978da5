"""Undirected simple graphs on dense 0-based labels, plus the distance,
component and induced-subgraph primitives the decomposition algorithms
consume.

Vertex sets are accepted as arbitrary iterables of labels and are always
returned as ascending tuples; the fixed iteration order settles every
tie-break downstream, so all algorithms built on top are deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .errors import EmptySetError, InvalidVertexError


class Graph:
    """Immutable simple graph: no self-loops, no duplicates, undirected."""

    __slots__ = ("vertex_count", "edges", "_adj", "_hash")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InvalidVertexError(
                    f"edge ({u}, {v}) outside label range 0..{vertex_count - 1}"
                )
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e not in seen:
                seen.add(e)
                adj[e[0]].append(e[1])
                adj[e[1]].append(e[0])
        self.vertex_count = vertex_count
        self.edges = frozenset(seen)
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self._hash: int | None = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.vertex_count)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        e = (u, v) if u < v else (v, u)
        return e in self.edges

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(nbrs) for nbrs in self._adj))

    def check_vertex(self, v: int) -> None:
        if not (isinstance(v, int) and 0 <= v < self.vertex_count):
            raise InvalidVertexError(f"vertex {v!r} outside 0..{self.vertex_count - 1}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vertex_count, self.edges))
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
    dist = {v: 0 for v in src}
    if u in dist:
        return 0
    queue = deque(src)
    while queue:
        x = queue.popleft()
        for y in g._adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                if y == u:
                    return dist[y]
                queue.append(y)
    return None


def connected_components(g: Graph, removed: Iterable[int] = ()) -> list[tuple[int, ...]]:
    """Components of the graph induced on V minus removed, sorted by least member."""
    gone = set(vertex_set(g, removed))
    seen: set[int] = set(gone)
    parts: list[tuple[int, ...]] = []
    for start in range(g.vertex_count):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in g._adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    queue.append(y)
        parts.append(tuple(sorted(comp)))
    return parts


def is_connected(g: Graph) -> bool:
    if g.vertex_count <= 1:
        return True
    return len(connected_components(g)) == 1


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
