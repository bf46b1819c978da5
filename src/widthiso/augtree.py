"""Augmented trees: bag nodes alternating with minimum-separating-set nodes.

Each bag node of a minimal tree distance decomposition gets one child node
per distinct set X_a intersect N(X_b) over its child bags b; that set is the
smallest piece of the parent bag cutting b's subtree off from the root.
Child bags producing the same separating set hang under the same node, so
bag levels and separating-set levels strictly alternate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import InvalidDecompositionError
from .graph import Graph
from .tdd import TreeDistanceDecomposition, validate_tdd

BAG = "bag"
SEP = "sep"


class AugmentedTree:
    """Immutable alternating tree over a graph and its decomposition.

    Node 0 is the bag node of the decomposition root.  Per node we keep its
    kind, the associated vertices (bag contents or separating set), parent
    and children links, the bag-internal edges for bag nodes, and the number
    of distinct graph vertices associated to the subtree.
    """

    __slots__ = (
        "graph",
        "kinds",
        "vertices",
        "parent",
        "children",
        "bag_edges",
        "sizes",
        "_tracer",
    )

    def __init__(
        self,
        graph: Graph,
        kinds: tuple[str, ...],
        vertices: tuple[tuple[int, ...], ...],
        parent: tuple[int, ...],
        children: tuple[tuple[int, ...], ...],
        bag_edges: tuple[tuple[tuple[int, int], ...] | None, ...],
        sizes: tuple[int, ...],
    ) -> None:
        self.graph = graph
        self.kinds = kinds
        self.vertices = vertices
        self.parent = parent
        self.children = children
        self.bag_edges = bag_edges
        self.sizes = sizes
        self._tracer = None  # isoorder's trace table for this graph, made on first use

    @property
    def root(self) -> int:
        return 0

    def node_count(self) -> int:
        return len(self.kinds)

    def is_bag(self, node: int) -> bool:
        return self.kinds[node] == BAG

    def handle(self, node: int = 0) -> "SubtreeHandle":
        if not (0 <= node < len(self.kinds)):
            raise ValueError(f"node {node} out of range")
        return SubtreeHandle(self, node)

    def to_debug_text(self, node: int = 0, fmt: Callable[[int], object] = lambda v: v) -> str:
        """Nested labels, B(...) for bags and S(...) for separating sets."""
        parts: list[str] = []
        stack: list[int | str] = [node]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            tag = "B" if self.is_bag(item) else "S"
            parts.append(f"{tag}({','.join(str(fmt(v)) for v in self.vertices[item])})")
            kids = self.children[item]
            if kids:
                parts.append("(")
                stack.append(")")
                for i, b in enumerate(reversed(kids)):
                    if i:
                        stack.append(" ")
                    stack.append(b)
        return "".join(parts)


@dataclass(frozen=True)
class SubtreeHandle:
    tree: AugmentedTree
    node: int


def bag_split(
    g: Graph, d: TreeDistanceDecomposition, i: int
) -> tuple[tuple[tuple[int, int], ...], dict[tuple[int, ...], list[int]]]:
    """Edges inside bag i, and its child bags grouped by separating set.

    A child bag's separating set is the part of bag i adjacent to it; the
    groups keep the child bags in ascending id order.
    """
    adj = g._adj
    bag = d.bags[i]
    inside = set(bag)
    edges = tuple((u, w) for u in bag for w in adj[u] if w > u and w in inside)
    groups: dict[tuple[int, ...], list[int]] = {}
    for child in d.child_lists[i]:
        sep = tuple(sorted({y for v in d.bags[child] for y in adj[v] if y in inside}))
        groups.setdefault(sep, []).append(child)
    return edges, groups


def build_augmented_tree(
    g: Graph, d: TreeDistanceDecomposition, check: bool = True
) -> AugmentedTree:
    """Interleave separating-set nodes into the decomposition tree.

    Separating sets under one bag are deduplicated extensionally and ordered
    by ascending vertex content, as are the child bags under each of them;
    that base order makes serialization reproducible.
    """
    if check:
        problems = validate_tdd(g, d)
        if problems:
            raise InvalidDecompositionError("; ".join(problems))

    kinds: list[str] = []
    vertices: list[tuple[int, ...]] = []
    parent: list[int] = []
    children: list[list[int]] = []
    bag_edges: list[tuple[tuple[int, int], ...] | None] = []

    # Preorder over an explicit stack.  An entry is (bag id, parent node,
    # None) for a bag and (separating set, parent node, child bag ids) for a
    # separating-set node, which is numbered only when popped: after the
    # whole subtree of the set before it.
    stack: list[tuple] = [(d.root, 0, None)]
    while stack:
        item, par, sep_kids = stack.pop()
        node = len(kinds)
        verts = d.bags[item] if sep_kids is None else item
        kinds.append(BAG if sep_kids is None else SEP)
        vertices.append(verts)
        parent.append(par)
        children.append([])
        if par != node:
            children[par].append(node)
        if sep_kids is not None:
            bag_edges.append(None)
            for b in reversed(sorted(sep_kids, key=d.bags.__getitem__)):
                stack.append((b, node, None))
            continue
        edges, groups = bag_split(g, d, item)
        bag_edges.append(edges)
        for sep in reversed(sorted(groups)):
            stack.append((sep, node, groups[sep]))

    # A subtree's size counts each associated vertex once: separating sets
    # live inside the parent bag, child components are pairwise disjoint.
    sizes = [0] * len(kinds)
    for node in range(len(kinds) - 1, -1, -1):
        if kinds[node] == BAG:
            below = sum(
                sizes[b] for s in children[node] for b in children[s]
            )
            sizes[node] = len(vertices[node]) + below
        else:
            sizes[node] = len(vertices[node]) + sum(sizes[b] for b in children[node])

    return AugmentedTree(
        graph=g,
        kinds=tuple(kinds),
        vertices=tuple(vertices),
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        bag_edges=tuple(bag_edges),
        sizes=tuple(sizes),
    )
