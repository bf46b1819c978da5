"""Isomorphism order on augmented trees, the isomorphism decision for
bounded tree distance width graphs, and canonization.

The order is realized through canonical traces.  The trace of a subtree
rooted at a bag node, under a fixed ordering of that bag, is an integer
sequence listing relative depth, bag size, the bag's edges as position
pairs, the subtree's vertex count, and one block per separating-set child.
A separating-set block carries the set's positions in the bag ordering and
one block per child bag; a child block is the bipartite edges between the
separating set and the child bag as position pairs, followed by the child's
own trace minimized over the child bag's orderings.  Every variable-length
field is length-prefixed, so equal sequences mean equal structure, and
comparing two subtrees is comparing their minimal traces:

  * a difference in the bag edge lists is a first-step difference,
  * then subtree sizes, then child counts,
  * then the ordered child blocks, where separating-set positions come
    first, bipartite edge positions second and the child's own trace last.

Equality of minimal traces holds exactly when the two subgraphs admit an
isomorphism mapping bag onto bag, separating set onto separating set, which
is what makes the minimum over all root sets a canonical form.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, permutations
from operator import itemgetter
from typing import NamedTuple, Sequence

from .augtree import AugmentedTree, SubtreeHandle, bag_split, build_augmented_tree
from .errors import (
    DisconnectedGraphError,
    InternalError,
    NoAdmissibleMappingError,
    WidthExceededError,
)
from .graph import Graph, is_connected
from .tdd import TreeDistanceDecomposition, _build


class OrderResult(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass(frozen=True)
class ThetaSet:
    """Admissible bag-ordering pairs for a left/right comparison.

    Every ordering of the sorted bag left pairs with every ordering of the
    sorted bag right; the set is empty when the bag sizes differ.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __bool__(self) -> bool:
        return len(self.left) == len(self.right)


def full_theta(left: SubtreeHandle, right: SubtreeHandle) -> ThetaSet:
    return ThetaSet(
        tuple(sorted(left.tree.vertices[left.node])),
        tuple(sorted(right.tree.vertices[right.node])),
    )


def _orderings(bag: tuple[int, ...]) -> list[tuple[int, ...]]:
    return list(permutations(sorted(bag)))


def _bip_pairs(tree: AugmentedTree, sep_node: int, child_node: int) -> tuple[tuple[int, int], ...]:
    key = ("bip", sep_node, child_node)
    cached = tree._trace_memo.get(key)
    if cached is None:
        inside = set(tree.vertices[child_node])
        cached = tuple(
            sorted(
                (m, w)
                for m in tree.vertices[sep_node]
                for w in tree.graph._adj[m]
                if w in inside
            )
        )
        tree._trace_memo[key] = cached
    return cached


def _bip_code(
    pos: dict[int, int], child_pos: dict[int, int], pairs: tuple[tuple[int, int], ...]
) -> tuple[int, ...]:
    """Bipartite edges as sorted (parent, child) position pairs, length-prefixed."""
    out = [len(pairs)]
    for a, b in sorted((pos[m], child_pos[w]) for m, w in pairs):
        out.append(a)
        out.append(b)
    return tuple(out)


def _header(
    rel_depth: int,
    pos: dict[int, int],
    edges: tuple[tuple[int, int], ...],
    size: int,
    n_seps: int,
) -> list[int]:
    """Trace fields ahead of the blocks: relative depth, bag size, the bag's
    edges as length-prefixed position pairs, subtree size, separating-set count."""
    edge_pos = sorted(
        (pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u]) for u, v in edges
    )
    out = [rel_depth, len(pos), len(edge_pos)]
    for x, y in edge_pos:
        out.append(x)
        out.append(y)
    out.append(size)
    out.append(n_seps)
    return out


def _sep_head(pos: dict[int, int], sep: tuple[int, ...], n_kids: int) -> list[int]:
    """Head of a separating-set block: |sep|, its sorted positions, #kids."""
    head = [len(sep)]
    head.extend(sorted(pos[m] for m in sep))
    head.append(n_kids)
    return head


def _sep_blocks(
    tree: AugmentedTree, node: int, sigma: tuple[int, ...], rel_depth: int
) -> list[tuple[tuple[int, ...], list[tuple]]]:
    """Separating-set blocks of a bag node under sigma, least first.

    Each block comes with its children's least (block, child, ordering)
    entries in block order.  A child block is the pair (bipartite code,
    child trace), which orders like their concatenation because the code is
    length-prefixed.  The children's traces must already be memoised.
    """
    pos = {v: i for i, v in enumerate(sigma)}
    memo = tree._trace_memo
    blocks = []
    for s in tree.children[node]:
        kids = tree.children[s]
        head = _sep_head(pos, tree.vertices[s], len(kids))
        entries = []
        for b in kids:
            pairs = _bip_pairs(tree, s, b)
            best = None
            for phi, trace in memo[b, rel_depth + 2].items():
                block = (_bip_code(pos, {v: i for i, v in enumerate(phi)}, pairs), trace)
                if best is None or block < best[0]:
                    best = (block, b, phi)
            entries.append(best)
        entries.sort(key=itemgetter(0))
        for (code, trace), _, _ in entries:
            head.extend(code)
            head.extend(trace)
        blocks.append((tuple(head), entries))
    blocks.sort(key=itemgetter(0))
    return blocks


def _traces(
    tree: AugmentedTree, node: int, rel_depth: int
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Trace of the subtree under every ordering of its bag, in ordering order.

    One bottom-up pass over an explicit stack: every bag node below is
    traced and memoised at its relative depth before its parent.
    """
    memo = tree._trace_memo
    todo = []
    stack = [(node, rel_depth)]
    while stack:
        key = stack.pop()
        if key in memo:
            continue
        todo.append(key)
        b, r = key
        for s in tree.children[b]:
            for c in tree.children[s]:
                stack.append((c, r + 2))
    for key in reversed(todo):
        b, r = key
        edges = tree.bag_edges[b]
        n_seps = len(tree.children[b])
        traces = {}
        for sigma in _orderings(tree.vertices[b]):
            pos = {v: i for i, v in enumerate(sigma)}
            out = _header(r, pos, edges, tree.sizes[b], n_seps)
            for block, _ in _sep_blocks(tree, b, sigma, r):
                out.extend(block)
            traces[sigma] = tuple(out)
        memo[key] = traces
    return memo[node, rel_depth]


def _root_prefix(g: Graph, d: TreeDistanceDecomposition) -> tuple[int, ...]:
    """Opening of the root set's minimal trace, read from the decomposition.

    The header of the root bag (depth 0, the whole graph as subtree) and,
    when there is a separating set, the least block head.  Blocks are sorted
    and each head is self-delimiting, so the first block starts with the
    least head; minimised over the root bag's orderings this tuple is an
    exact prefix of the least trace, and comparing two root sets' prefixes
    orders their traces whenever the prefixes differ.
    """
    edges, groups = bag_split(g, d, d.root)
    best = None
    for sigma in _orderings(d.bags[d.root]):
        pos = {v: i for i, v in enumerate(sigma)}
        out = _header(0, pos, edges, g.vertex_count, len(groups))
        if groups:
            out.extend(min(_sep_head(pos, sep, len(kids)) for sep, kids in groups.items()))
        if best is None or out < best:
            best = out
    return tuple(best)


def _min_trace(
    tree: AugmentedTree, node: int, sigmas: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Least trace over sigmas and the first ordering reaching it."""
    traces = _traces(tree, node, 0)
    sigma = min(sigmas, key=traces.__getitem__)
    return traces[sigma], sigma


def compare_augmented(
    g_left: Graph,
    left: SubtreeHandle,
    g_right: Graph,
    right: SubtreeHandle,
    theta: ThetaSet,
) -> OrderResult:
    """Order two bag-node subtrees under the admissible ordering pairs.

    Each side's trace is minimised over all orderings of its bag, which is
    the least comparison the unrestricted pairs in theta achieve.
    """
    for g, handle in ((g_left, left), (g_right, right)):
        if handle.tree.graph != g:
            raise ValueError("handle does not belong to the given graph")
        if not handle.tree.is_bag(handle.node):
            raise ValueError("comparison starts at bag nodes")
    if not theta:
        raise NoAdmissibleMappingError("no admissible ordering pairs")
    bags = (left.tree.vertices[left.node], right.tree.vertices[right.node])
    if (theta.left, theta.right) != bags:
        raise ValueError("theta orderings must arrange the compared bags")
    t_left, _ = _min_trace(left.tree, left.node, _orderings(theta.left))
    t_right, _ = _min_trace(right.tree, right.node, _orderings(theta.right))
    if t_left < t_right:
        return OrderResult.LESS
    if t_left > t_right:
        return OrderResult.GREATER
    return OrderResult.EQUAL


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Isomorphism-complete byte string; plain byte order is the total order."""

    data: bytes

    @property
    def hex(self) -> str:
        return self.data.hex()

    def __bytes__(self) -> bytes:
        return self.data


def _serialize(trace: tuple[int, ...]) -> bytes:
    """Each value as 4 big-endian bytes; InternalError outside [0, 2**32)."""
    try:
        return struct.pack(">%dI" % len(trace), *trace)
    except struct.error as exc:
        raise InternalError(f"trace value does not fit 32 bits: {exc}") from exc


class _CanonState(NamedTuple):
    trace: tuple[int, ...]
    root_set: tuple[int, ...]
    decomposition: TreeDistanceDecomposition
    tree: AugmentedTree
    sigma: tuple[int, ...]


# Graphs whose canonisation state stays cached; each entry keeps its
# augmented tree with the whole trace memo.  Large enough for all-pairs
# iso_tdw over the 434 connected graphs with n <= 7 and width <= 2.
_CANON_CACHE_SIZE = 512


@lru_cache(maxsize=_CANON_CACHE_SIZE)
def _canon_state(g: Graph, k: int) -> _CanonState | None:
    """Least trace over all admissible root sets; None when none fits k.

    Every trace starts (0, |S|, ...): relative depth 0, then the root bag's
    size.  So any admissible root set of size s has a smaller trace than
    every root set of size > s, and the search stops after the first size
    that admits one.  Within a size, only the root sets whose root prefix
    (see _root_prefix) is least get an augmented tree and a trace; the
    others cannot win.  The first minimiser in combinations order wins.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("canonization needs a connected graph")
    best: _CanonState | None = None
    for size in range(1, min(k, g.vertex_count) + 1):
        least = None
        survivors = []
        for s in combinations(range(g.vertex_count), size):
            d = _build(g, s, cap=k)
            if d is None:
                continue
            prefix = _root_prefix(g, d)
            if least is None or prefix < least:
                least = prefix
                survivors = [(s, d)]
            elif prefix == least:
                survivors.append((s, d))
        for s, d in survivors:
            tree = build_augmented_tree(g, d, check=False)
            trace, sigma = _min_trace(tree, 0, _orderings(s))
            if best is None or trace < best.trace:
                best = _CanonState(trace, s, d, tree, sigma)
        if best is not None:
            break
    return best


def iso_tdw(g: Graph, h: Graph, k: int) -> bool:
    """Isomorphism decision for graphs of tree distance width at most k.

    True iff some pair of root sets yields equal-comparing augmented trees,
    which is exactly equality of the two canonical traces.  If only one
    graph fits the width bound the answer is False; if neither does the
    width bound is reported as exceeded.
    """
    state_g = _canon_state(g, k)
    state_h = _canon_state(h, k)
    if state_g is None and state_h is None:
        raise WidthExceededError(f"neither graph has tree distance width <= {k}")
    if state_g is None or state_h is None:
        return False
    return state_g.trace == state_h.trace


def canon_tdw(g: Graph, k: int) -> CanonicalForm:
    """Canonical form: equal bytes exactly for isomorphic graphs of width <= k."""
    state = _canon_state(g, k)
    if state is None:
        raise WidthExceededError(f"tree distance width exceeds {k}")
    return CanonicalForm(_serialize(state.trace))


def canonical_map(g: Graph, k: int) -> tuple[int, ...]:
    """A relabeling onto canonical positions realizing canon_tdw(g, k).

    Positions follow the depth-first traversal of the winning augmented tree
    under the minimizing orderings; exact ties keep the first minimizer in
    lexicographic ordering order, so the map is deterministic.
    """
    state = _canon_state(g, k)
    if state is None:
        raise WidthExceededError(f"tree distance width exceeds {k}")
    tree = state.tree
    positions: dict[int, int] = {}
    stack = [(0, state.sigma, 0)]
    while stack:
        node, sigma, rel_depth = stack.pop()
        for v in sigma:
            positions[v] = len(positions)
        below = [
            (b, phi, rel_depth + 2)
            for _, entries in _sep_blocks(tree, node, sigma, rel_depth)
            for _, b, phi in entries
        ]
        stack.extend(reversed(below))
    return tuple(positions[v] for v in range(g.vertex_count))
