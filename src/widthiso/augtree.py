"""Augmented trees: bag nodes alternating with minimum-separating-set nodes.

Each bag node of a minimal tree distance decomposition gets one child node
per distinct set X_a intersect N(X_b) over its child bags b; that set is the
smallest piece of the parent bag cutting b's subtree off from the root.
Child bags producing the same separating set hang under the same node, so
bag levels and separating-set levels strictly alternate.  bag_split is the
one code that splits a bag, given its child bags, and every trace reads a
bag's edges through its _bag_edges and _bag_links; canonisation splits the
bags of its (bag, parent bag) records through it, and the tree is the
paper-level view for the CLI ``augtree`` command and compare_augmented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Iterable, Sequence

from .errors import InvalidDecompositionError
from .graph import Graph
from .tdd import TreeDistanceDecomposition, validate_tdd

BAG = "bag"
SEP = "sep"


class AugmentedTree:
    """Immutable alternating tree over a graph and its decomposition.

    Node 0 is the bag node of the decomposition root.  Per node we keep its
    kind, the associated vertices (bag contents or separating set), parent
    and children links, and the number of distinct graph vertices associated
    to the subtree, and nothing else: compare_augmented traces a node in a
    table of its own.
    """

    __slots__ = (
        "graph",
        "kinds",
        "vertices",
        "parent",
        "children",
        "sizes",
    )

    def __init__(
        self,
        graph: Graph,
        kinds: tuple[str, ...],
        vertices: tuple[tuple[int, ...], ...],
        parent: tuple[int, ...],
        children: tuple[tuple[int, ...], ...],
        sizes: tuple[int, ...],
    ) -> None:
        self.graph = graph
        self.kinds = kinds
        self.vertices = vertices
        self.parent = parent
        self.children = children
        self.sizes = sizes

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


def _bag_edges(g: Graph, bag: Sequence[int]) -> list[tuple[int, int]]:
    """Edges inside bag as (u, w) pairs with u < w, in bag order of u."""
    adj = g._adj
    inside = set(bag)
    return [(u, w) for u in bag for w in adj[u] if w > u and w in inside]


def _bag_links(g: Graph, bag: Sequence[int], near: Container[int]) -> list[tuple[int, int]]:
    """Edges from bag to the set near as (near vertex, bag vertex) pairs."""
    adj = g._adj
    return [(m, w) for w in bag for m in adj[w] if m in near]


def bag_split(
    g: Graph, bag: tuple[int, ...], kids: Iterable[tuple[int, ...]]
) -> tuple[list[tuple[int, int]], list[tuple[tuple[int, ...], list]]]:
    """Edges inside bag, and its separating sets in ascending order.

    kids are the bag's child bags, sorted by content.  A child bag's
    separating set is the part of bag adjacent to it.  Each set comes with
    its child bags in that order, each child bag with its edges from the set
    (_bag_links).
    """
    inside = set(bag)
    groups: dict[tuple[int, ...], list] = {}
    for child in kids:
        pairs = _bag_links(g, child, inside)
        groups.setdefault(tuple(sorted({m for m, _ in pairs})), []).append((child, pairs))
    return _bag_edges(g, bag), sorted(groups.items())


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
    # A subtree's size counts each associated vertex once: separating sets
    # live inside the parent bag, child components are pairwise disjoint.
    below = d.subtree_sizes
    sizes: list[int] = []

    # Preorder over an explicit stack.  An entry is (bag id, parent node,
    # None) for a bag and (separating set, parent node, child bags) for a
    # separating-set node, which is numbered only when popped: after the
    # whole subtree of the set before it.
    stack: list[tuple] = [(d.root, 0, None)]
    while stack:
        item, par, kids = stack.pop()
        node = len(kinds)
        parent.append(par)
        children.append([])
        if par != node:
            children[par].append(node)
        if kids is not None:
            kinds.append(SEP)
            vertices.append(item)
            sizes.append(len(item) + sum(below[c] for c in kids))
            for c in reversed(kids):
                stack.append((c, node, None))
            continue
        kinds.append(BAG)
        vertices.append(d.bags[item])
        sizes.append(below[item])
        ids = {d.bags[c]: c for c in d.child_lists[item]}
        for sep, group in reversed(bag_split(g, d.bags[item], sorted(ids))[1]):
            stack.append((sep, node, [ids[c] for c, _ in group]))

    return AugmentedTree(
        graph=g,
        kinds=tuple(kinds),
        vertices=tuple(vertices),
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        sizes=tuple(sizes),
    )
