"""Brute-force isomorphism oracle, permutation helpers, and the exhaustive
enumerator of small connected graphs used to validate the real algorithms.

Everything here is deliberately independent of the decomposition machinery:
the oracle decides isomorphism by backtracking over vertex mappings and the
enumerator dedupes by minimizing the edge bitmask over all permutations.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .errors import InternalError
from .graph import Graph


def identity_permutation(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def is_permutation(perm: Sequence[int]) -> bool:
    return sorted(perm) == list(range(len(perm)))


def inverse_permutation(perm: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = i
    return tuple(out)


def compose_permutations(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    """(outer o inner)[v] = outer[inner[v]]."""
    return tuple(outer[inner[v]] for v in range(len(inner)))


def apply_permutation(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel every vertex v to perm[v]."""
    if not is_permutation(perm) or len(perm) != g.vertex_count:
        raise ValueError("not a permutation of the vertex labels")
    return Graph(
        g.vertex_count,
        ((perm[u], perm[v]) for u, nbrs in enumerate(g._adj) for v in nbrs if v > u),
    )


def is_isomorphism(g: Graph, h: Graph, perm: Sequence[int]) -> bool:
    """Check edge preservation in both directions."""
    if g.vertex_count != h.vertex_count or len(perm) != g.vertex_count:
        return False
    if not is_permutation(perm):
        return False
    if g.edge_count != h.edge_count:
        return False
    h_adj = h._adj
    for u, nbrs in enumerate(g._adj):
        image = h_adj[perm[u]]
        for v in nbrs:
            if v > u:  # each edge once; h.has_edge inlined
                w = perm[v]
                i = bisect_left(image, w)
                if i == len(image) or image[i] != w:
                    return False
    return True


def brute_force_iso(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """Find an isomorphism g -> h by backtracking, or None.

    Candidates are pruned by degree and by adjacency consistency with the
    vertices already mapped, which keeps the search tractable well past the
    sizes the property tests need.
    """
    n = g.vertex_count
    if n != h.vertex_count or g.edge_count != h.edge_count:
        return None
    if g.degree_sequence() != h.degree_sequence():
        return None
    # Most-constrained vertices first.
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def images(u: int):
        """Images of u in label order, each checked against the vertices
        mapped when it is asked for."""
        du = g.degree(u)
        for w in range(n):
            if w in used or h.degree(w) != du:
                continue
            ok = True
            for x in g.neighbors(u):
                y = mapping.get(x)
                if y is not None and not h.has_edge(w, y):
                    ok = False
                    break
            if ok:
                # Mapped non-neighbors must stay non-adjacent.
                for x, y in mapping.items():
                    if h.has_edge(w, y) and not g.has_edge(u, x):
                        ok = False
                        break
            if ok:
                yield w

    # Depth first on an explicit stack: tries[i] resumes the images of
    # order[i], which stays mapped while tries holds an entry after it.
    tries: list = []
    while len(mapping) < n:
        if len(tries) == len(mapping):
            tries.append(images(order[len(mapping)]))
        w = next(tries[-1], None)
        if w is None:
            tries.pop()
            if not tries:
                return None
            used.discard(mapping.pop(order[len(tries) - 1]))
        else:
            mapping[order[len(tries) - 1]] = w
            used.add(w)
    perm = tuple(mapping[v] for v in range(n))
    if not is_isomorphism(g, h, perm):
        raise InternalError("backtracking returned a map that is not an isomorphism")
    return perm


def _edge_slots(n: int) -> dict[tuple[int, int], int]:
    return {e: i for i, e in enumerate(combinations(range(n), 2))}


@lru_cache(maxsize=None)
def _perm_gather(n: int):
    """Index matrix turning an edge-bit vector into its relabeled versions.

    Row p of the result gathers, for each edge slot of the permuted graph,
    the slot of the preimage edge, so bits[row] is the permuted bit vector.
    """
    from itertools import permutations

    import numpy as np

    slots = _edge_slots(n)
    rows = []
    for perm in permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        row = [0] * len(slots)
        for (a, b), out_slot in slots.items():
            pa, pb = inv[a], inv[b]
            row[out_slot] = slots[(pa, pb) if pa < pb else (pb, pa)]
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def canonical_code(g: Graph) -> int:
    """Minimum edge-bitmask over all relabelings: a complete brute invariant.

    Needs numpy, which the test extra installs; no engine calls it.
    """
    import numpy as np

    n = g.vertex_count
    if n <= 1:
        return 0
    slots = _edge_slots(n)
    bits = np.zeros(len(slots), dtype=np.uint64)
    for e in g.edges:
        bits[slots[e]] = 1
    gathered = bits[_perm_gather(n)]
    powers = (np.uint64(1) << np.arange(len(slots), dtype=np.uint64))
    return int((gathered @ powers).min())


@lru_cache(maxsize=None)
def enumerate_connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices, one per isomorphism class, in
    ascending order of canonical_code.

    Built by attaching a fresh vertex to every nonempty subset of every
    (n-1)-vertex representative: every connected graph has a non-cut vertex,
    so nothing is missed.  Candidates are bucketed by a labelling-free
    invariant, the sorted (degree, sorted neighbour degrees) pairs of their
    vertices, and a candidate joins the first class of its bucket whose
    representative brute_force_iso matches, or founds a class of its own.
    canonical_code then runs once per class, for the order.  Needs numpy, as
    canonical_code does.
    """
    if n < 1 or n > 8:
        raise ValueError("enumerator supports 1..8 vertices")
    if n == 1:
        return (Graph(1),)
    buckets: dict[tuple, list[Graph]] = {}  # invariant -> class representatives
    new = n - 1
    for base in enumerate_connected_graphs(n - 1):
        base_edges = list(base.edges)
        for mask in range(1, 1 << new):
            edges = base_edges + [(v, new) for v in range(new) if mask >> v & 1]
            g = Graph(n, edges)
            degree = list(map(len, g._adj))
            key = tuple(sorted(
                (degree[v], tuple(sorted([degree[w] for w in nbrs])))
                for v, nbrs in enumerate(g._adj)
            ))
            reps = buckets.setdefault(key, [])
            if all(brute_force_iso(g, rep) is None for rep in reps):
                reps.append(g)
    coded = {canonical_code(g): g for reps in buckets.values() for g in reps}
    if len(coded) != sum(map(len, buckets.values())):
        raise InternalError("two classes share a canonical code")
    return tuple(coded[c] for c in sorted(coded))
