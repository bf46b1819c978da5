"""Tree decompositions and the rooted isomorphism algorithms over them:
decomposition-respecting isomorphism with both decompositions given, the
backtracking search when only one side has a decomposition, an exact
bounded-treewidth decomposition routine, and their composition.

The one-decomposition search mirrors a nondeterministic traversal with
exhaustive backtracking: root bags for the second graph are enumerated,
partial vertex maps are extended bag by bag, children of a bag are grouped
into interchangeability classes so symmetric branches are explored once,
and each candidate child bag must separate its claimed interior from the
root side before the search descends.  A mapping is only returned after an
edge-preserving check in both directions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterable, Sequence

from .errors import (
    InternalError,
    InvalidDecompositionError,
    SizeMismatchError,
    WidthExceededError,
)
from .graph import (
    Graph,
    connected_components,
    induced_subgraph,
)
from .oracle import is_isomorphism


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed by id, tree edges on ids, optional designated root."""

    bags: tuple[tuple[int, ...], ...]
    tree_edges: frozenset[tuple[int, int]]
    root: int | None = None

    def bag_count(self) -> int:
        return len(self.bags)

    def width(self) -> int:
        return max(len(bag) for bag in self.bags) - 1

    @cached_property
    def tree_adjacency(self) -> dict[int, tuple[int, ...]]:
        """Neighbour bag ids of every bag, ascending; built once per decomposition."""
        adj: dict[int, list[int]] = {i: [] for i in range(len(self.bags))}
        for a, b in self.tree_edges:
            adj.setdefault(a, []).append(b)
            if b != a:
                adj.setdefault(b, []).append(a)
        return {i: tuple(sorted(nbrs)) for i, nbrs in adj.items()}

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.tree_adjacency.get(i, ())

    def rooted(self, root: int) -> tuple[dict[int, int], dict[int, list[int]]]:
        """Parent and children maps when the bag tree hangs from root."""
        parent = {root: root}
        children: dict[int, list[int]] = {i: [] for i in range(len(self.bags))}
        queue = deque([root])
        while queue:
            a = queue.popleft()
            for b in self.neighbors(a):
                if b not in parent:
                    parent[b] = a
                    children[a].append(b)
                    queue.append(b)
        return parent, children


def validate_tree_decomposition(g: Graph, d: TreeDecomposition) -> list[str]:
    """Check bag coverage, edge coverage and per-vertex connectivity."""
    problems: list[str] = []
    n_bags = len(d.bags)
    if n_bags == 0:
        return ["structure: no bags"]
    for i, bag in enumerate(d.bags):
        for v in bag:
            if not (0 <= v < g.vertex_count):
                problems.append(f"structure: bag {i} holds invalid vertex {v}")
    for a, b in d.tree_edges:
        if not (0 <= a < n_bags and 0 <= b < n_bags) or a == b:
            problems.append(f"structure: invalid tree edge ({a}, {b})")
    if d.root is not None and not (0 <= d.root < n_bags):
        problems.append(f"structure: root {d.root} out of range")
    if problems:
        return problems
    if len(d.tree_edges) != n_bags - 1:
        problems.append(
            f"structure: {len(d.tree_edges)} tree edges on {n_bags} bags is not a tree"
        )
    elif len(d.rooted(0)[0]) != n_bags:
        problems.append("structure: bag tree is disconnected")
    if problems:
        return problems

    holders: dict[int, set[int]] = {}  # vertex -> ids of the bags holding it
    for i, bag in enumerate(d.bags):
        for v in bag:
            holders.setdefault(v, set()).add(i)
    for v in range(g.vertex_count):
        if v not in holders:
            problems.append(f"coverage: vertex {v} is in no bag")
    for u, v in sorted(g.edges):
        if holders.get(u, set()).isdisjoint(holders.get(v, ())):
            problems.append(f"edge-coverage: edge ({u}, {v}) is inside no bag")
    # The bag tree is a tree here, so the bags holding v form a subtree
    # exactly when |holders(v)| - 1 tree edges join two of them.
    joins = dict.fromkeys(holders, 0)
    for a, b in d.tree_edges:
        for v in set(d.bags[a]).intersection(d.bags[b]):
            joins[v] += 1
    for v in range(g.vertex_count):
        if v in holders and joins[v] != len(holders[v]) - 1:
            problems.append(f"connectivity: bags holding vertex {v} do not form a subtree")
    return problems


def _inner_edges(g: Graph, verts: set[int] | frozenset[int]) -> int:
    """Number of edges of g with both ends in verts."""
    adj = g._adj
    return sum(1 for v in verts for w in adj[v] if w in verts) // 2


class _Rooted:
    """Rooted view of one decomposition with per-subtree vertex sets and
    per-bag invariants: the sorted degrees of each bag's vertices and the
    number of edges inside each bag."""

    def __init__(self, g: Graph, d: TreeDecomposition, root: int) -> None:
        self.g = g
        self.root = root
        self.bags = d.bags
        self.parent, self.children = d.rooted(root)
        self.subtree_verts: dict[int, frozenset[int]] = {}
        # rooted() fills parent breadth first, so children come after parents.
        for a in reversed(self.parent):
            verts = set(self.bags[a])
            for b in self.children[a]:
                verts |= self.subtree_verts[b]
            self.subtree_verts[a] = frozenset(verts)
        self.degree = [len(nbrs) for nbrs in g._adj]
        self.bag_profile = [sorted(self.degree[v] for v in bag) for bag in self.bags]
        self.bag_inner = [_inner_edges(g, set(bag)) for bag in self.bags]

    def lex_key(self, parent_id: int, child_id: int):
        fresh = self.subtree_verts[child_id] - set(self.bags[parent_id])
        if not fresh:
            return (0, self.bags[child_id])
        return (1, (min(fresh),))

    def profile(self, child_id: int) -> tuple:
        """Cheap isomorphism invariant of a rooted subtree."""
        verts = self.subtree_verts[child_id]
        inner_edges = _inner_edges(self.g, verts)
        shapes = []
        stack = [(child_id, 0)]
        while stack:
            a, dep = stack.pop()
            shapes.append((dep, len(self.bags[a])))
            for b in self.children[a]:
                stack.append((b, dep + 1))
        return (len(verts), inner_edges, tuple(sorted(shapes)))


def lex_subtree_order(
    g: Graph, d: TreeDecomposition, r: int, children: Sequence[int]
) -> list[int]:
    """Children of r sorted by the least subtree vertex outside r's bag.

    A child whose subtree adds no vertex beyond the bag of r sorts first,
    tie-broken by its bag content.
    """
    rooted = _Rooted(g, d, r)
    for c in children:
        if rooted.parent.get(c) != r:
            raise ValueError(f"bag {c} is not a child of bag {r}")
    return sorted(children, key=lambda c: rooted.lex_key(r, c))


def _bag_bijections(
    g: Graph, g_bag: Sequence[int], h: Graph, h_bag: Sequence[int], pinned: dict[int, int],
    g_degree: Sequence[int], h_degree: Sequence[int],
):
    """Bijections g_bag -> h_bag extending pinned and preserving bag edges."""
    pinned_img = set(pinned.values())
    fresh_g = [v for v in g_bag if v not in pinned]
    fresh_h = [w for w in h_bag if w not in pinned_img]
    if len(fresh_g) != len(fresh_h) or len(g_bag) != len(h_bag):
        return
    for image in permutations(fresh_h):
        mapping = dict(pinned)
        ok = True
        for v, w in zip(fresh_g, image):
            if g_degree[v] != h_degree[w]:
                ok = False
                break
            mapping[v] = w
        if not ok:
            continue
        items = list(mapping.items())
        for i in range(len(items)):
            u, x = items[i]
            for j in range(i + 1, len(items)):
                v, y = items[j]
                if g.has_edge(u, v) != h.has_edge(x, y):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield mapping


class _RespectMatcher:
    """Blockwise tree-aligned matcher between two rooted decompositions."""

    def __init__(self, left: _Rooted, right: _Rooted) -> None:
        self.L = left
        self.R = right
        self.fwd: dict[int, int] = {}
        self.back: dict[int, int] = {}
        self.journal: list[int] = []

    def _apply(self, mapping: dict[int, int]) -> int | None:
        mark = len(self.journal)
        for v, w in mapping.items():
            cur = self.fwd.get(v)
            if cur is not None:
                if cur != w:
                    self._rollback(mark)
                    return None
                continue
            if w in self.back:
                self._rollback(mark)
                return None
            self.fwd[v] = w
            self.back[w] = v
            self.journal.append(v)
        return mark

    def _rollback(self, mark: int) -> None:
        while len(self.journal) > mark:
            v = self.journal.pop()
            w = self.fwd.pop(v)
            del self.back[w]

    def match(self, a: int, b: int, forced: dict[int, int]) -> bool:
        bag_a = self.L.bags[a]
        bag_b = self.R.bags[b]
        if len(bag_a) != len(bag_b):
            return False
        kids = self.L.children[a]
        if len(kids) != len(self.R.children[b]):
            return False
        for ext in _bag_bijections(
            self.L.g, bag_a, self.R.g, bag_b, forced, self.L.degree, self.R.degree
        ):
            mark = self._apply(ext)
            if mark is None:
                continue
            # levels[0] yields all children of b once; levels[j] pairs the j-th
            # child of a, yields the children of b left unused, and tries its
            # next pairing when resumed.
            levels = [iter((frozenset(self.R.children[b]),))]
            while levels:
                unused = next(levels[-1], None)
                if unused is None:
                    levels.pop()
                elif len(levels) > len(kids):
                    return True
                else:
                    levels.append(self._pairings(a, b, kids[len(levels) - 1], unused))
            self._rollback(mark)
        return False

    def _pairings(self, a: int, b: int, c: int, unused: frozenset[int]):
        """Pair child c of a with each unused child of b in turn, yielding the
        children still unused; resuming undoes the pairing."""
        bag_a = set(self.L.bags[a])
        forced = {v: self.fwd[v] for v in self.L.bags[c] if v in bag_a}
        forced_img = set(forced.values())
        size = len(self.L.subtree_verts[c])
        bag_b = set(self.R.bags[b])
        for c2 in self.R.children[b]:
            if c2 not in unused or len(self.R.subtree_verts[c2]) != size:
                continue
            if set(self.R.bags[c2]) & bag_b != forced_img:
                continue
            mark = len(self.journal)
            if self.match(c, c2, forced):
                yield unused - {c2}
            self._rollback(mark)


def iso_respecting_both(
    g: Graph, d_g: TreeDecomposition, h: Graph, d_h: TreeDecomposition
) -> bool:
    """Is there an isomorphism mapping bags of d_g blockwise onto bags of d_h?

    One root is fixed on the g side and every bag of d_h is tried as the
    opposing root; the trees are then matched node against node, extending
    the vertex map bag by bag.
    """
    for graph, dec, name in ((g, d_g, "first"), (h, d_h, "second")):
        problems = validate_tree_decomposition(graph, dec)
        if problems:
            raise InvalidDecompositionError(f"{name} decomposition: " + "; ".join(problems))
    if d_g.bag_count() != d_h.bag_count():
        return False
    root_g = d_g.root if d_g.root is not None else 0
    left = _Rooted(g, d_g, root_g)
    # match() rejects a root whose bag size or child count differs from root_g's.
    shape = (len(d_g.bags[root_g]), len(d_g.neighbors(root_g)))
    for root_h in range(d_h.bag_count()):
        if (len(d_h.bags[root_h]), len(d_h.neighbors(root_h))) != shape:
            continue
        right = _Rooted(h, d_h, root_h)
        if _RespectMatcher(left, right).match(root_g, root_h, {}):
            return True
    return False


_MISS = object()


class _IsoSearch:
    """Backtracking isomorphism search from a rooted decomposition of g into h."""

    def __init__(self, g: Graph, rooted: _Rooted, h: Graph) -> None:
        self.g = g
        self.h = h
        self.L = rooted
        self.hdeg = [len(nbrs) for nbrs in h._adj]
        self.mapping: dict[int, int] = {}
        self.journal: list[int] = []
        self.frames: list[tuple[int, dict[int, int]]] = []
        self.memo: dict = {}
        self.class_cache: dict[int, list[list[int]]] = {}

    # -- bookkeeping ---------------------------------------------------

    def _assign(self, items: Iterable[tuple[int, int]]) -> int:
        mark = len(self.journal)
        for v, w in items:
            if v not in self.mapping:
                self.mapping[v] = w
                self.journal.append(v)
        return mark

    def _rollback(self, mark: int) -> None:
        while len(self.journal) > mark:
            del self.mapping[self.journal.pop()]

    def _audit_pop(self, popped_bag: int) -> None:
        path = []
        if self.frames:
            a = self.frames[-1][0]
            while True:
                path.append(a)
                if a == self.L.root:
                    break
                a = self.L.parent[a]
        live = {v for _, ext in self.frames for v in ext}
        expected = {v for a in path for v in self.L.bags[a]}
        if live != expected:
            raise InternalError("frame stack must cover exactly the root path")

    # -- child classes ---------------------------------------------------

    def _classes(self, a: int) -> list[list[int]]:
        """Children of a, grouped into interchangeability classes.

        Two subtrees fall together when they meet the bag of a in the same
        vertices and an isomorphism between them fixes that overlap
        pointwise; class order follows the first member in subtree order.
        """
        cached = self.class_cache.get(a)
        if cached is not None:
            return cached
        kids = sorted(self.L.children[a], key=lambda c: self.L.lex_key(a, c))
        classes: list[list[int]] = []
        keys: list[tuple] = []
        for c in kids:
            overlap = tuple(v for v in self.L.bags[c] if v in set(self.L.bags[a]))
            key = (overlap, self.L.profile(c))
            placed = False
            for idx, members in enumerate(classes):
                if keys[idx] != key:
                    continue
                pinned = {v: v for v in overlap}
                if _RespectMatcher(self.L, self.L).match(members[0], c, pinned):
                    members.append(c)
                    placed = True
                    break
            if not placed:
                classes.append([c])
                keys.append(key)
        self.class_cache[a] = classes
        return classes

    # -- search ----------------------------------------------------------

    def run(self) -> tuple[int, ...] | None:
        root = self.L.root
        bag = self.L.bags[root]
        profile = self.L.bag_profile[root]
        hdeg = self.hdeg
        n = self.h.vertex_count
        # A vertex whose degree is not in the profile is in no candidate, so
        # the candidates over the rest come out in the same (lexicographic)
        # order, only fewer.
        degrees = set(profile)
        pool = [w for w in range(n) if hdeg[w] in degrees]
        for cand in combinations(pool, len(bag)):
            if sorted(hdeg[w] for w in cand) != profile:
                continue
            if _inner_edges(self.h, set(cand)) != self.L.bag_inner[root]:
                continue
            for ext in _bag_bijections(self.g, bag, self.h, cand, {}, self.L.degree, hdeg):
                mark = self._assign(ext.items())
                self.frames.append((root, ext))
                ok = self._match_into(root, frozenset(range(n)))
                self.frames.pop()
                self._audit_pop(root)
                if ok:
                    perm = tuple(self.mapping[v] for v in range(self.g.vertex_count))
                    if not is_isomorphism(self.g, self.h, perm):
                        raise InternalError("search returned a map that is not an isomorphism")
                    return perm
                self._rollback(mark)
        return None

    def _match_into(self, a: int, region: frozenset[int]) -> bool:
        phi = self.frames[-1][1]
        kids = [(c, cls) for cls, members in enumerate(self._classes(a)) for c in members]
        prev_choice: dict[int, tuple] = {}
        # levels[0] yields the free region once; levels[j] places the j-th
        # child, yields the region left available, and tries its next
        # placement when resumed.
        levels = [iter((set(region) - set(phi.values()),))]
        while levels:
            available = next(levels[-1], None)
            if available is None:
                levels.pop()
            elif len(levels) <= len(kids):
                i, class_id = kids[len(levels) - 1]
                levels.append(self._placements(a, i, class_id, available, phi, prev_choice))
            elif not available:
                return True
        return False

    def _placements(
        self, a: int, i: int, class_id: int, available: set[int], phi: dict[int, int],
        prev_choice: dict[int, tuple],
    ):
        """Place the subtree at child i of a inside available in each way in
        turn, yielding what is left available; resuming undoes the placement."""
        bag_a = set(self.L.bags[a])
        bag_i = self.L.bags[i]
        pinned = {v: phi[v] for v in bag_i if v in bag_a}
        pinned_img = set(pinned.values())
        fresh_count = len(bag_i) - len(pinned)
        target_interior = len(self.L.subtree_verts[i]) - len(bag_i)
        g_profile = self.L.bag_profile[i]
        hdeg = self.hdeg
        img_bag_a = set(phi.values())
        # Every mapped vertex keeps its degree, so the fresh vertices of the
        # image carry the degrees of the unpinned vertices of bag i.
        degrees = {self.L.degree[v] for v in bag_i if v not in pinned}
        pool = [w for w in sorted(available) if hdeg[w] in degrees]
        for combo in combinations(pool, fresh_count):
            cut = tuple(sorted(pinned_img | set(combo)))
            if sorted(hdeg[w] for w in cut) != g_profile:
                continue
            cset = set(cut)
            if _inner_edges(self.h, cset) != self.L.bag_inner[i]:
                continue
            for interior in self._claim_choices(available, img_bag_a, cset, set(combo), target_interior):
                choice = (cut, tuple(sorted(interior)))
                prev = prev_choice.get(class_id)
                if prev is not None and choice < prev:
                    continue
                # The subtree's vertices outside bag a are unmapped before the
                # placement, so they are exactly the journal entries after mark.
                mark = len(self.journal)
                if self._place_child(i, cut, interior, pinned):
                    prev_choice[class_id] = choice
                    yield available - set(combo) - interior
                    if prev is None:
                        del prev_choice[class_id]
                    else:
                        prev_choice[class_id] = prev
                    self._rollback(mark)

    def _claim_choices(
        self, available: set[int], img_bag_a: set[int], cut: set[int], combo: set[int], target: int
    ):
        """Unions of separated components of the right size, in label order.

        A component counts as separated when, once the candidate bag is
        removed, it cannot reach the rest of the current bag image inside
        the unconsumed region.
        """
        working = (available | img_bag_a) - cut
        seeds = img_bag_a - cut
        reach = set(seeds)
        queue = deque(seeds)
        while queue:
            x = queue.popleft()
            for y in self.h._adj[x]:
                if y in working and y not in reach:
                    reach.add(y)
                    queue.append(y)
        loose = (available - combo) - reach
        comps: list[frozenset[int]] = []
        seen: set[int] = set()
        for start in sorted(loose):
            if start in seen:
                continue
            comp = {start}
            seen.add(start)
            stack = [start]
            while stack:
                x = stack.pop()
                for y in self.h._adj[x]:
                    if y in loose and y not in seen:
                        seen.add(y)
                        comp.add(y)
                        stack.append(y)
            comps.append(frozenset(comp))

        sizes = [len(c) for c in comps]
        left = [0] * (len(comps) + 1)  # left[pos]: total size of comps[pos:]
        for pos in reversed(range(len(comps))):
            left[pos] = left[pos + 1] + sizes[pos]
        # Depth first over include/exclude decisions: the exclude branch is
        # pushed first, so index subsets come out in lexicographic order.
        stack = [(0, target, ())]
        while stack:
            pos, remaining, chosen = stack.pop()
            if remaining == 0:
                yield frozenset().union(*(comps[c] for c in chosen))
            elif left[pos] >= remaining:
                stack.append((pos + 1, remaining, chosen))
                if sizes[pos] <= remaining:
                    stack.append((pos + 1, remaining - sizes[pos], chosen + (pos,)))

    def _place_child(
        self, i: int, cut: tuple[int, ...], interior: frozenset[int], pinned: dict[int, int]
    ) -> bool:
        """Try to map the subtree at i onto cut plus interior; keep on success."""
        key = (i, cut, interior, tuple(sorted(pinned.items())))
        hit = self.memo.get(key, _MISS)
        if hit is None:
            return False
        if hit is not _MISS:
            self._assign(hit.items())
            return True
        found: dict[int, int] | None = None
        region = frozenset(cut) | interior
        for ext in _bag_bijections(
            self.g, self.L.bags[i], self.h, cut, pinned, self.L.degree, self.hdeg
        ):
            mark = self._assign(ext.items())
            self.frames.append((i, ext))
            ok = self._match_into(i, region)
            self.frames.pop()
            self._audit_pop(i)
            if ok:
                found = {
                    v: self.mapping[v]
                    for v in self.L.subtree_verts[i]
                    if v not in pinned
                }
                self._rollback(mark)
                break
            self._rollback(mark)
        self.memo[key] = found
        if found is None:
            return False
        self._assign(found.items())
        return True


def _split_decomposition(
    d: TreeDecomposition, comps: Sequence[tuple[int, ...]]
) -> list[TreeDecomposition]:
    """Restriction of d to each component, in one pass over the bags.

    A part keeps the bags meeting its component in id order, each cut down
    to the component and relabelled to positions in it, and the tree edges
    between kept bags.  Its root is the kept bag nearest the root of d, the
    least id on ties.
    """
    where: dict[int, tuple[int, int]] = {}
    for ci, comp in enumerate(comps):
        for pos, v in enumerate(comp):
            where[v] = (ci, pos)
    anchor = d.root if d.root is not None else 0
    parent, _ = d.rooted(anchor)
    depth = {anchor: 0}
    for b, a in parent.items():  # breadth-first: a parent precedes its children
        if b != anchor:
            depth[b] = depth[a] + 1
    bags: list[list[tuple[int, ...]]] = [[] for _ in comps]
    roots = [-1] * len(comps)
    ids: list[dict[int, int]] = []  # per bag of d: part -> id of its piece
    for i, bag in enumerate(d.bags):
        pieces: dict[int, list[int]] = {}
        for v in bag:
            ci, pos = where[v]
            pieces.setdefault(ci, []).append(pos)
        ids.append({})
        for ci, piece in pieces.items():
            if roots[ci] < 0 or depth[i] < depth[roots[ci]]:
                roots[ci] = i
            ids[i][ci] = len(bags[ci])
            bags[ci].append(tuple(sorted(piece)))
    edges: list[set[tuple[int, int]]] = [set() for _ in comps]
    for a, b in d.tree_edges:
        for ci, na in ids[a].items():
            nb = ids[b].get(ci)
            if nb is not None:
                edges[ci].add((min(na, nb), max(na, nb)))
    return [
        TreeDecomposition(
            bags=tuple(bags[ci]),
            tree_edges=frozenset(edges[ci]),
            root=ids[roots[ci]][ci],
        )
        for ci in range(len(comps))
    ]


def iso_one_decomp(
    g: Graph, d_g: TreeDecomposition, h: Graph, k: int
) -> tuple[int, ...] | None:
    """Find an isomorphism from g onto h given only g's decomposition.

    Root bags of size |root bag of g| are enumerated on the h side in
    sorted-content order; the map is grown blockwise down the decomposition
    tree with failed subproblems memoized.  Disconnected inputs are matched
    component by component.
    """
    problems = validate_tree_decomposition(g, d_g)
    if problems:
        raise InvalidDecompositionError("; ".join(problems))
    if d_g.width() > k:
        raise InvalidDecompositionError(f"decomposition width {d_g.width()} exceeds {k}")
    if g.vertex_count != h.vertex_count:
        raise SizeMismatchError(
            f"graphs have {g.vertex_count} and {h.vertex_count} vertices"
        )
    if g.edge_count != h.edge_count:
        return None
    if g.degree_sequence() != h.degree_sequence():
        return None

    g_comps = connected_components(g)
    h_comps = connected_components(h)
    if sorted(len(c) for c in g_comps) != sorted(len(c) for c in h_comps):
        return None
    if len(g_comps) == 1:
        root = d_g.root if d_g.root is not None else 0
        rooted = _Rooted(g, d_g, root)
        return _IsoSearch(g, rooted, h).run()

    # Componentwise: solve each piece on its induced subgraph, then stitch.
    # Isomorphism of components is an equivalence, so matching each g part
    # to the first free h part isomorphic to it never has to be undone.
    free = [(induced_subgraph(h, comp)[0], comp) for comp in h_comps]
    total: dict[int, int] = {}
    for comp, part_d in zip(g_comps, _split_decomposition(d_g, g_comps)):
        sub_g, _ = induced_subgraph(g, comp)
        rooted = _Rooted(sub_g, part_d, part_d.root)
        for idx, (sub_h, h_comp) in enumerate(free):
            if sub_g.vertex_count == sub_h.vertex_count and sub_g.edge_count == sub_h.edge_count:
                sub_map = _IsoSearch(sub_g, rooted, sub_h).run()
                if sub_map is not None:
                    break
        else:
            return None
        del free[idx]
        for v, w in zip(comp, sub_map):
            total[v] = h_comp[w]
    perm = tuple(total[v] for v in range(g.vertex_count))
    if not is_isomorphism(g, h, perm):
        raise InternalError("blockwise match returned a map that is not an isomorphism")
    return perm


def compute_tree_decomposition(g: Graph, k: int) -> TreeDecomposition | None:
    """An exact width-<=k decomposition via elimination orders, or None.

    Vertices are eliminated smallest-label first with failed elimination
    states memoized, so the output is deterministic for a fixed input.
    """
    if k < 0:
        return None
    if g.vertex_count == 0:
        return TreeDecomposition(bags=((),), tree_edges=frozenset(), root=0)
    all_bags: list[tuple[int, ...]] = []
    all_edges: list[tuple[int, int]] = []
    comp_roots: list[int] = []
    for comp in connected_components(g):
        sub, relabel = induced_subgraph(g, comp)
        back = {new: old for old, new in relabel.items()}
        piece = _eliminate(sub, k)
        if piece is None:
            return None
        bags, edges, root = piece
        offset = len(all_bags)
        all_bags.extend(tuple(sorted(back[v] for v in bag)) for bag in bags)
        all_edges.extend((a + offset, b + offset) for a, b in edges)
        comp_roots.append(root + offset)
    for first, second in zip(comp_roots, comp_roots[1:]):
        all_edges.append((min(first, second), max(first, second)))
    return TreeDecomposition(
        bags=tuple(all_bags),
        tree_edges=frozenset(all_edges),
        root=comp_roots[0],
    )


class _FillGraph:
    """The graph left by an elimination prefix, with its fill edges: each
    eliminated vertex's remaining neighbours are made pairwise adjacent.

    A remaining vertex's neighbours here are its closure neighbours, the
    remaining vertices it reaches through eliminated ones.  Eliminating a
    vertex with at most k neighbours changes O(k^2) entries, which are
    logged so that the search can undo eliminations in stack order.
    """

    def __init__(self, g: Graph) -> None:
        self.nbrs = [set(a) for a in g._adj]
        self.eliminated: set[int] = set()
        self.log: list[tuple[int, list[tuple[int, set[int]]]]] = []

    def eliminate(self, v: int) -> None:
        """Eliminate remaining v: its neighbours become pairwise adjacent."""
        nv = self.nbrs[v]
        added_to = []
        for w in nv:
            nw = self.nbrs[w]
            added = nv - nw
            added.discard(w)
            nw |= added
            nw.discard(v)
            added_to.append((w, added))
        self.eliminated.add(v)
        self.log.append((v, added_to))

    def restore(self) -> None:
        """Undo the last elimination."""
        v, added_to = self.log.pop()
        for w, added in added_to:
            nw = self.nbrs[w]
            nw -= added
            nw.add(v)
        self.eliminated.discard(v)


def _eliminate(
    g: Graph, k: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, int]], int] | None:
    """Elimination-order decomposition of a connected graph, or None.

    Depth first over elimination states (the sets eliminated so far) on an
    explicit stack: a state tries the remaining vertices in ascending order
    and descends into the first with at most k closure neighbours; a state
    all of whose moves fail is memoised as failed.
    """
    n = g.vertex_count
    if n <= k + 1:
        return [tuple(range(n))], [], 0
    fill = _FillGraph(g)
    nbrs, eliminated = fill.nbrs, fill.eliminated
    failed: set[int] = set()  # failed states as bit masks of eliminated vertices
    order: list[int] = []
    # One frame per state on the current path: its bit mask and an iterator
    # over the vertices it has yet to try.
    frames = [(0, iter(range(n)))]
    while frames:
        mask, untried = frames[-1]
        for v in untried:
            if v in eliminated or len(nbrs[v]) > k:
                continue
            child = mask | 1 << v
            done = n - len(eliminated) - 1 <= k + 1
            if done or child not in failed:
                break
        else:
            failed.add(mask)
            frames.pop()
            if order:
                order.pop()
                fill.restore()
            continue
        order.append(v)
        fill.eliminate(v)
        if done:
            break
        frames.append((child, iter(range(n))))
    else:
        return None
    # An eliminated vertex's neighbours no longer change: they are its
    # closure neighbours at the time it was eliminated.
    bags = [tuple(sorted(nbrs[v] | {v})) for v in order]
    order_pos = {v: i for i, v in enumerate(order)}
    final = tuple(sorted(set(range(n)) - set(order)))
    final_id = len(bags)
    bags.append(final)
    edges: list[tuple[int, int]] = []
    for i, v in enumerate(order):
        rest = [u for u in bags[i] if u != v]
        # Closure neighbors are never eliminated before v, so every
        # attachment points at a later bag or the final one.
        target = min((order_pos.get(u, final_id) for u in rest), default=final_id)
        if target <= i:
            raise InternalError(f"elimination bag {i} attaches to earlier bag {target}")
        edges.append((i, target))
    return bags, edges, final_id


def iso_tw(g: Graph, h: Graph, k: int) -> bool:
    """Bounded-treewidth isomorphism: decompose one side, then search.

    If g does not fit width k the roles are swapped; when neither graph has
    a width-k decomposition the bound itself is reported as exceeded.
    """
    if g.vertex_count != h.vertex_count:
        return False
    d_g = compute_tree_decomposition(g, k)
    if d_g is not None:
        return iso_one_decomp(g, d_g, h, k) is not None
    d_h = compute_tree_decomposition(h, k)
    if d_h is None:
        raise WidthExceededError(f"neither graph has treewidth <= {k}")
    return iso_one_decomp(h, d_h, g, k) is not None
