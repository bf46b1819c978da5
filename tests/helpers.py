"""Shared builders for the test suite, and reference implementations that
the engines are checked against."""

from __future__ import annotations

import importlib.util
import random
from collections import deque
from itertools import combinations, permutations
from pathlib import Path
from typing import Iterable

from widthiso import (
    Graph,
    SubtreeHandle,
    TreeDecomposition,
    connected_components,
    induced_subgraph,
    is_connected,
    is_isomorphism,
    tree_distance_width,
    vertex_set,
)
from widthiso.augtree import bag_split
from widthiso.isoorder import _header, _orderings, _sep_head
from widthiso.tdd import TreeDistanceDecomposition
from widthiso.treewidth import _bag_tree


def benchmark_inputs():
    """perfbench/inputs.py, the benchmark's seeded generators and
    engine-independent references, loaded read-only by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mutants(text: str, rng: random.Random, count: int) -> list[str]:
    """Copies of text with one to three rows deleted, duplicated, swapped,
    inserted or given a token changed, added or dropped."""
    tokens = ["0", "1", "2", "3", "4", "-1", "99", "+1", "01", "x", "e", "b", "t", "r", "p", "c"]
    out = []
    for _ in range(count):
        rows = [line.split() for line in text.splitlines()]
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(rows))
            row = rows[i]
            op = rng.randrange(7)
            if op == 0:
                del rows[i]
            elif op == 1:
                rows.insert(i, list(row))
            elif op == 2:
                j = rng.randrange(len(rows))
                rows[i], rows[j] = rows[j], rows[i]
            elif op == 3:
                rows.insert(i, rng.choices(tokens, k=rng.randint(0, 4)))
            elif op == 4 and row:
                row[rng.randrange(len(row))] = rng.choice(tokens)
            elif op == 5:
                row.append(rng.choice(tokens))
            elif row:
                row.pop(rng.randrange(len(row)))
            if not rows:
                rows.append([])
        out.append("\n".join(map(" ".join, rows)) + "\n")
    return out


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


def spider_graph(*legs: int) -> Graph:
    """Center 0 with paths of the given lengths hanging off it."""
    edges = []
    nxt = 1
    for leg in legs:
        prev = 0
        for _ in range(leg):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def spider_edge_bags(legs: int, fork: bool = False) -> tuple[Graph, TreeDecomposition]:
    """A spider with the given number of legs of length 3 around centre 0,
    with one bag per edge: the bags holding 0 form a star around the first
    leg's, and each leg's other bags hang below it in a chain.  With fork,
    the last leg 0-a-b-c becomes 0-a-b plus a-c, which keeps the vertex and
    edge counts."""
    edges, tree = [], []
    for leg in range(legs):
        a, b, c = 3 * leg + 1, 3 * leg + 2, 3 * leg + 3
        first = len(edges)
        tip = (a, c) if fork and leg == legs - 1 else (b, c)
        edges += [(0, a), (a, b), tip]
        if leg:
            tree.append((0, first))
        tree += [(first, first + 1), (first if tip[0] == a else first + 1, first + 2)]
    return Graph(3 * legs + 1, edges), TreeDecomposition(tuple(edges), frozenset(tree), 0)


def triangle_with_pendants() -> Graph:
    """Triangle 0-1-2 with pendant edges 1-3 and 2-4.

    The depth-1 bag rooted at 0 is {1, 2}, but vertex 2 is not adjacent to
    the child bag {3}: the graph where the purely neighborhood-based parent
    query underreports the parent bag.
    """
    return Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def random_graph(n: int, edge_probability: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_probability
    ]
    return Graph(n, edges)


def random_narrow_graph(rng: random.Random, n: int) -> Graph:
    """A random connected graph of tree distance width at most 2.

    Built layer by layer: bags of size one or two, every vertex wired to at
    least one vertex of the previous bag, optional in-bag edge.  The layer
    structure itself is a width-2 tree distance decomposition, and the
    builder retries until the sample is connected and verified.
    """
    while True:
        root = min(rng.choice([1, 2]), n)
        prev = list(range(root))
        nxt = root
        edges = set()
        if root == 2 and rng.random() < 0.7:
            edges.add((0, 1))
        while nxt < n:
            width = rng.choice([1, 2])
            bag = list(range(nxt, min(nxt + width, n)))
            nxt += len(bag)
            for v in bag:
                for a in rng.sample(prev, rng.randint(1, len(prev))):
                    edges.add((a, v))
            if len(bag) == 2 and rng.random() < 0.5:
                edges.add((bag[0], bag[1]))
            prev = bag
        g = Graph(n, edges)
        if is_connected(g) and tree_distance_width(g, 2) is not None:
            return g


# -- reference implementations ------------------------------------------------


def neighbors_of_set(g: Graph, s: Iterable[int]) -> tuple[int, ...]:
    """All vertices adjacent to s but not in s, ascending."""
    inside = set(vertex_set(g, s))
    out: set[int] = set()
    for v in inside:
        out.update(g.neighbors(v))
    return tuple(sorted(out - inside))


def reachable_avoiding(
    g: Graph, source: Iterable[int], target: int, forbidden: Iterable[int]
) -> bool:
    """True iff some path joins a source vertex to target using no forbidden vertex.

    Source vertices inside the forbidden set are ignored.
    """
    g.check_vertex(target)
    blocked = set(vertex_set(g, forbidden))
    if target in blocked:
        raise ValueError(f"target {target} is itself forbidden")
    seeds = [v for v in vertex_set(g, source) if v not in blocked]
    if target in seeds:
        return True
    seen = set(seeds) | blocked
    queue = deque(seeds)
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y == target:
                return True
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return False


def parent_bag(g: Graph, s: Iterable[int], x: Iterable[int]) -> tuple[int, ...]:
    """Neighbors of bag x that stay reachable from the root set s once x is deleted.

    The paper's local parent query.  For most bags this is the whole parent
    bag; a parent-bag vertex that touches the subtree below x only through
    other parent vertices is not adjacent to x and is not reported.
    """
    root = vertex_set(g, s)
    bag = vertex_set(g, x)
    if bag == root:
        raise ValueError("the root bag has no parent")
    return tuple(
        v for v in neighbors_of_set(g, bag) if reachable_avoiding(g, root, v, bag)
    )


def child_groups(g: Graph, s: tuple[int, ...], x: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Neighbors of x cut off from s by x, grouped by their component of g minus x."""
    loose = [
        v for v in neighbors_of_set(g, x) if not reachable_avoiding(g, s, v, x)
    ]
    if not loose:
        return []
    comp_of: dict[int, int] = {}
    for idx, comp in enumerate(connected_components(g, x)):
        for v in comp:
            comp_of[v] = idx
    groups: dict[int, list[int]] = {}
    for v in loose:
        groups.setdefault(comp_of[v], []).append(v)
    return sorted((tuple(sorted(vs)) for vs in groups.values()), key=lambda b: b[0])


def first_child(g: Graph, s: Iterable[int], x: Iterable[int]) -> tuple[int, ...] | None:
    """The child bag holding the least-labeled neighbor of x cut off by x."""
    groups = child_groups(g, vertex_set(g, s), vertex_set(g, x))
    return groups[0] if groups else None


def next_sibling(g: Graph, s: Iterable[int], x: Iterable[int]) -> tuple[int, ...] | None:
    """Among the children of parent_bag(x), the next one by least label."""
    root = vertex_set(g, s)
    bag = vertex_set(g, x)
    if bag == root:
        raise ValueError("the root bag has no siblings")
    for group in child_groups(g, root, parent_bag(g, root, bag)):
        if group[0] > bag[0]:
            return group
    return None


def brute_force_treewidth(g: Graph) -> int:
    """Treewidth as the least, over all elimination orders, of the largest
    fill degree: the number of remaining neighbours a vertex has when it is
    eliminated, after each eliminated vertex's neighbours were made pairwise
    adjacent."""
    best = g.vertex_count - 1
    for order in permutations(range(g.vertex_count)):
        nbrs = [set(g.neighbors(v)) for v in range(g.vertex_count)]
        width = 0
        for v in order:
            width = max(width, len(nbrs[v]))
            for u in nbrs[v]:
                nbrs[u] |= nbrs[v] - {u}
                nbrs[u].discard(v)
        best = min(best, width)
    return best


def subtree_vertex_sets(d: TreeDecomposition, root: int) -> dict[int, frozenset[int]]:
    """Every vertex in the bags of each subtree when d hangs from root,
    gathered by a separate walk below every bag."""
    order, _, children, _ = _bag_tree(d, root)
    out: dict[int, frozenset[int]] = {}
    for a in order:
        verts: set[int] = set()
        stack = [a]
        while stack:
            b = stack.pop()
            verts.update(d.bags[b])
            stack.extend(children[b])
        out[a] = frozenset(verts)
    return out


def subtree_graph(h: SubtreeHandle) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on every vertex associated to a node of the subtree."""
    tree = h.tree
    verts: set[int] = set()
    stack = [h.node]
    while stack:
        node = stack.pop()
        verts.update(tree.vertices[node])
        stack.extend(tree.children[node])
    return induced_subgraph(tree.graph, verts)


def root_prefix(g: Graph, d: TreeDistanceDecomposition, entry: bool = True) -> tuple[int, ...]:
    """Opening of the root set's minimal trace, read from its decomposition.

    Depth 0, the header of the root bag and, when there is a separating
    set, the least block head, then with entry the least opening of a child
    entry of that block: the bipartite code, relative depth 2, and the
    child bag's size, edge code and subtree vertex count, least over the
    child bag's orderings.  When the root set and the child bag are single
    vertices, the child's separating-set count and its least block head
    follow.  The whole is minimised over the root bag's orderings.
    """
    node = {d.bags[c]: c for c in d.children(d.root)}
    edges, seps = bag_split(g, d.bags[d.root], sorted(node))
    single = len(d.bags[d.root]) == 1
    best = None
    for sigma in _orderings(d.bags[d.root]):
        pos = {v: i for i, v in enumerate(sigma)}
        out = [0, *_header(pos, edges, g.vertex_count, len(seps))]
        if seps:
            head, kids = min((_sep_head(pos, sep, len(kids)), kids) for sep, kids in seps)
            out.extend(head)
            if entry:
                out.extend(min(_entry_opening(g, d, pos, node[kid], pairs, single) for kid, pairs in kids))
        if best is None or out < best:
            best = out
    return tuple(best)


def _entry_opening(
    g: Graph, d: TreeDistanceDecomposition, pos: dict, c: int, pairs: list, single: bool
) -> list[int]:
    """The child entry of bag c up to its subtree size, least over its
    orderings; when single (a one-vertex root set) and c holds one vertex,
    followed by c's separating-set count and least block head."""
    kid = d.bags[c]
    inner = [(u, w) for u in kid for w in g.neighbors(u) if w > u and w in kid]
    best = None
    for phi in _orderings(kid):
        kid_pos = {v: i for i, v in enumerate(phi)}
        out = [len(pairs)]
        for ab in sorted((pos[m], kid_pos[w]) for m, w in pairs):
            out.extend(ab)
        out += [2, *_header(kid_pos, inner, d.subtree_sizes[c], 0)[:-1]]
        if single and len(kid) == 1:
            _, seps = bag_split(g, kid, sorted(d.bags[x] for x in d.children(c)))
            out.append(len(seps))
            if seps:
                out.extend(min(_sep_head(kid_pos, sep, len(group)) for sep, group in seps))
        if best is None or out < best:
            best = out
    return best


def relabel_decomposition(d: TreeDecomposition, perm) -> TreeDecomposition:
    bags = tuple(tuple(sorted(perm[v] for v in bag)) for bag in d.bags)
    return TreeDecomposition(bags=bags, tree_edges=d.tree_edges, root=d.root)


def shuffle_bag_ids(d: TreeDecomposition, rng: random.Random) -> TreeDecomposition:
    """d with its bag ids permuted at random, root included."""
    ids = list(range(d.bag_count()))
    rng.shuffle(ids)
    bags = [()] * len(ids)
    for i, bag in enumerate(d.bags):
        bags[ids[i]] = bag
    edges = frozenset((min(ids[a], ids[b]), max(ids[a], ids[b])) for a, b in d.tree_edges)
    return TreeDecomposition(tuple(bags), edges, None if d.root is None else ids[d.root])


def move_leaf_bag(d: TreeDecomposition) -> TreeDecomposition | None:
    """d with its first leaf bag that can move re-hung from another bag
    holding all the leaf shares with its neighbour; None if none can."""
    for leaf in range(d.bag_count()):
        if len(d.neighbors(leaf)) != 1:
            continue
        (nbr,) = d.neighbors(leaf)
        shared = set(d.bags[leaf]).intersection(d.bags[nbr])
        for t in range(d.bag_count()):
            if t not in (leaf, nbr) and shared <= set(d.bags[t]):
                edges = d.tree_edges - {(leaf, nbr), (nbr, leaf)} | {(min(leaf, t), max(leaf, t))}
                return TreeDecomposition(d.bags, edges, d.root)
    return None


def brute_force_respecting_iso(
    g: Graph, d_g: TreeDecomposition, h: Graph, d_h: TreeDecomposition
) -> bool:
    """Whether some isomorphism g -> h and some bijection of bag ids that
    preserves the tree edges carry every bag of d_g onto its partner in d_h,
    trying every pair of them."""
    if g.vertex_count != h.vertex_count or d_g.bag_count() != d_h.bag_count():
        return False
    tree_h = {frozenset(e) for e in d_h.tree_edges}
    bijections = [
        psi for psi in permutations(range(d_h.bag_count()))
        if {frozenset((psi[a], psi[b])) for a, b in d_g.tree_edges} == tree_h
    ]
    return any(
        all({phi[v] for v in bag} == set(d_h.bags[psi[a]]) for a, bag in enumerate(d_g.bags))
        for phi in permutations(range(h.vertex_count))
        if is_isomorphism(g, h, phi)
        for psi in bijections
    )


def bag_bijections_reference(
    g: Graph, g_bag, h: Graph, h_bag, pinned: dict, g_colour, h_colour
) -> list[dict]:
    """Every bijection g_bag -> h_bag that extends pinned, keeps colours and
    preserves adjacency on every pair of bag vertices, pinned pairs
    included, in the order of the permutations of h_bag's unpinned part."""
    pinned_img = set(pinned.values())
    fresh_g = [v for v in g_bag if v not in pinned]
    fresh_h = [w for w in h_bag if w not in pinned_img]
    out = []
    for image in permutations(fresh_h):
        mapping = {**pinned, **dict(zip(fresh_g, image))}
        if all(g_colour[v] == h_colour[w] for v, w in zip(fresh_g, image)) and all(
            g.has_edge(u, v) == h.has_edge(mapping[u], mapping[v])
            for u, v in combinations(mapping, 2)
        ):
            out.append(mapping)
    return out
