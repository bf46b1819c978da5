"""Tree decompositions and the rooted isomorphism algorithms over them:
decomposition-respecting isomorphism with both decompositions given, the
backtracking search when only one side has a decomposition, an exact
bounded-treewidth decomposition routine, and their composition.  The
first compares canonical subtree traces, as Lindell's tree canonisation does.

The one-decomposition search mirrors a nondeterministic traversal with
exhaustive backtracking.  It first colour-refines the disjoint union of
both graphs once (graph.stable_colours), and every filter below is keyed on
those colours, which every isomorphism preserves, or on signatures, their
sums (see _spread).  One search per component of the first graph runs in
place, on its part of the decomposition, against each component of the
second graph with its signature: the root bag is placed like the one child
of an empty bag, on that whole component, bags are mapped one below the
other, colour to colour, children of a bag are grouped into
interchangeability classes by their subtree sizes and traces, so symmetric
branches are explored once, and each child takes whole components of the
unconsumed region that touch the bag's image only at the child's pinned
vertices and whose signatures are those of its own.  Each subtree returns
its bag's bijection and its children's nodes, one walk writes the map, and
it is returned only after an edge-preserving check in both directions.
Elimination works on each component in place too, so no induced subgraph
is built anywhere on the route.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations, permutations
from typing import Iterable, Sequence

from .errors import (
    InternalError,
    InvalidDecompositionError,
    SizeMismatchError,
    WidthExceededError,
)
from .graph import Graph, _components, connected_components, stable_colours
from .isoorder import _bag_traces, _Tracer
from .oracle import is_isomorphism
from .tdd import _find


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed by id, tree edges on ids, optional designated root."""

    bags: tuple[tuple[int, ...], ...]
    tree_edges: frozenset[tuple[int, int]]
    root: int | None = None

    def bag_count(self) -> int:
        return len(self.bags)

    def width(self) -> int:
        """Largest bag size minus one; -1 without bags, as for one empty bag."""
        return max((len(bag) for bag in self.bags), default=0) - 1

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
        seen: set[int] = set()
        for v in bag:
            if not (0 <= v < g.vertex_count):
                problems.append(f"structure: bag {i} holds invalid vertex {v}")
            elif v in seen:
                problems.append(f"structure: bag {i} repeats vertex {v}")
            seen.add(v)
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
    adj = g._adj
    for u in range(g.vertex_count):  # edges in ascending order
        for v in adj[u]:
            if v > u and holders.get(u, set()).isdisjoint(holders.get(v, ())):
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


def _require_valid(g: Graph, d: TreeDecomposition, prefix: str = "") -> None:
    problems = validate_tree_decomposition(g, d)
    if problems:
        raise InvalidDecompositionError(prefix + "; ".join(problems))


def _inner_edges(g: Graph, verts: set[int] | frozenset[int]) -> int:
    """Number of edges of g with both ends in verts."""
    adj = g._adj
    return sum(1 for v in verts for w in adj[v] if w in verts) // 2


def _spread(colour: Sequence[int]) -> list[int]:
    """The colours, mapped onto pseudo-random 64-bit integers.

    The search takes the sum of a vertex set's colours as its signature, so
    equal colour multisets give equal signatures, and spread colours make
    unequal multisets that collide unlikely.  Every filter compares these
    integers only, so a collision merely lets a placement or a component
    through to a search, which decides it.
    """
    # A one-int tuple hashes by an odd multiply, a rotation and additions
    # modulo 2**64, so distinct small colours stay distinct.
    return [hash((c,)) for c in colour]


class _Rooted:
    """Rooted view of one decomposition of g with per-bag invariants (each
    bag's signature and number of inner edges) and per-subtree facts from
    one bottom-up pass over the vertices the decomposition holds: size is
    the subtree's vertex count; sort_key is (1, the least subtree vertex
    outside the parent's bag), or (0, the bag itself) when there is none.

    colour is a colouring of g that every isomorphism sought preserves,
    spread (see _spread).  The vertices of a bag c's subtree outside its
    parent's bag fall into components: forced[c] lists the signatures of
    those that meet bag c, sorted, and optional[c] counts the signatures of
    the others, None when there are none.  The root counts as the child of
    an empty bag, so its facts cover the whole part.
    """

    def __init__(self, g: Graph, d: TreeDecomposition, root: int, colour: Sequence[int]) -> None:
        self.d = d
        self.root = root
        self.bags = bags = d.bags
        self.parent, self.children = d.rooted(root)
        self.colour = colour
        self.bag_sig = [sum([colour[v] for v in bag]) for bag in bags]
        self.bag_inner = [_inner_edges(g, set(bag)) for bag in bags]
        self.size = [0] * len(bags)
        self.sort_key: list[tuple] = [()] * len(bags)
        self.forced: list[list[int]] = [[] for _ in bags]
        self.optional: list[dict[int, int] | None] = [None] * len(bags)
        # Each vertex is counted at its top bag, the one nearest the root
        # that holds it.  The top bags of a child's subtree count exactly its
        # vertices that are not in the parent's bag.
        top: dict[int, int] = {}
        for a in self.parent:  # breadth first, so parents come first
            for v in bags[a]:
                top.setdefault(v, a)
        n = g.vertex_count
        below = [0] * len(bags)  # vertices counted in the subtree
        least = [n] * len(bags)  # least vertex counted in the subtree, n if none
        for v, a in top.items():
            below[a] += 1
            least[a] = min(least[a], v)
        # The components of the vertices counted in a child's subtree, which
        # are its vertices outside the parent's bag, come from one union-find
        # over the vertices counted so far, each component's root holding
        # its signature; an edge from a vertex counted at bag a runs inside
        # a's subtree, so it joins a's vertices only.
        link: dict[int, int] = {}
        total: dict[int, int] = {}
        roots: dict[int, list[int]] = {}  # bag -> its components' roots, until its parent reads them
        for a in reversed(self.parent):
            size = len(bags[a])
            for b in self.children[a]:
                size += below[b]
                below[a] += below[b]
                least[a] = min(least[a], least[b])
            self.size[a] = size
            self.sort_key[a] = (1, least[a]) if least[a] < n else (0, bags[a])
            fresh = [v for v in bags[a] if top[v] == a]
            for v in fresh:
                link[v], total[v] = v, colour[v]
                for w in g._adj[v]:
                    if w in link:
                        x, y = _find(link, v), _find(link, w)
                        if x != y:
                            link[y] = x
                            total[x] += total.pop(y)
            meet = {_find(link, v) for v in fresh}
            passed = [
                r for b in self.children[a] for r in roots.pop(b) if _find(link, r) not in meet
            ]
            roots[a] = [*meet, *passed]
            self.forced[a] = sorted(total[r] for r in meet)
            if passed:
                counts = self.optional[a] = {}
                for r in passed:
                    counts[total[r]] = counts.get(total[r], 0) + 1


def lex_subtree_order(
    g: Graph, d: TreeDecomposition, r: int, children: Sequence[int]
) -> list[int]:
    """Children of r sorted by the least subtree vertex outside r's bag.

    A child whose subtree adds no vertex beyond the bag of r sorts first,
    tie-broken by its bag content.
    """
    _require_valid(g, d)
    if not 0 <= r < d.bag_count():
        raise ValueError(f"bag {r} outside 0..{d.bag_count() - 1}")
    rooted = _Rooted(g, d, r, [0] * g.vertex_count)
    for c in children:
        if rooted.parent.get(c) != r:
            raise ValueError(f"bag {c} is not a child of bag {r}")
    return sorted(children, key=rooted.sort_key.__getitem__)


def _bag_bijections(
    g: Graph, g_bag: Sequence[int], h: Graph, h_bag: Sequence[int], pinned: dict[int, int],
    g_colour: Sequence[int], h_colour: Sequence[int],
):
    """Bijections g_bag -> h_bag extending pinned and preserving colours and
    bag edges."""
    pinned_img = set(pinned.values())
    fresh_g = [v for v in g_bag if v not in pinned]
    fresh_h = [w for w in h_bag if w not in pinned_img]
    for image in permutations(fresh_h):
        mapping = dict(pinned)
        ok = True
        for v, w in zip(fresh_g, image):
            if g_colour[v] != h_colour[w]:
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


def _unions(units: list[tuple[frozenset[int], int]], wanted: dict[int, int]):
    """The sub-lists of the components in units, each with its signature,
    whose signatures make up wanted, counted, in include-first order: depth
    first, taking each unit before leaving it.  Only branches that still
    reach such a sub-list are entered: a unit whose signature is wanted no
    more is left, and one is taken, not left, when the units after it hold
    fewer of its signature than are still wanted."""
    sigs = [sig for _, sig in units]
    later = [0] * len(sigs)  # units after position p with the signature at p
    held: dict[int, int] = {}
    for p in range(len(sigs) - 1, -1, -1):
        later[p] = held.get(sigs[p], 0)
        held[sigs[p]] = later[p] + 1
    if any(held.get(sig, 0) < count for sig, count in wanted.items()):
        return
    stack = [(0, sum(wanted.values()), wanted, [])]
    while stack:
        pos, left, need, taken = stack.pop()
        if not left:
            yield taken
            continue
        while not need.get(sigs[pos]):
            pos += 1
        sig = sigs[pos]
        if later[pos] >= need[sig]:
            stack.append((pos + 1, left, need, taken))
        stack.append((pos + 1, left - 1, {**need, sig: need[sig] - 1}, taken + [units[pos][0]]))


def _drive(task):
    """Run a task to its result on one explicit stack.

    A task is a generator: it yields each sub-task whose result it needs,
    receives that result back, and returns its own, which _drive returns
    for the first task.  Pending tasks wait on a list, so a task tree of
    any depth runs in a fixed number of frames.
    """
    stack = [task]
    result = None
    while True:
        try:
            stack.append(stack[-1].send(result))
            result = None
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            result = done.value


def _centres(d: TreeDecomposition) -> list[int]:
    """The middle bags of a longest path in the bag tree, found by two
    breadth-first walks, each ending at a bag farthest from its start."""
    parent, _ = d.rooted(0)
    end = list(parent)[-1]
    parent, _ = d.rooted(end)
    path = [list(parent)[-1]]
    while path[-1] != end:
        path.append(parent[path[-1]])
    return path[(len(path) - 1) // 2 : len(path) // 2 + 1]


def iso_respecting_both(
    g: Graph, d_g: TreeDecomposition, h: Graph, d_h: TreeDecomposition
) -> bool:
    """Is there an isomorphism mapping bags of d_g blockwise onto bags of d_h?

    Each side is traced by isoorder._bag_traces from the centre bags of its
    bag tree, which every isomorphism of the trees maps onto the other
    side's, into one table where equal traces share an id: the answer is
    whether the two sides' least traces at their centres have the same ids.
    """
    _require_valid(g, d_g, "first decomposition: ")
    _require_valid(h, d_h, "second decomposition: ")
    if d_g.bag_count() != d_h.bag_count():
        return False
    tracer = _Tracer()
    ends = [
        {_bag_traces(tracer, memo, x, d, c, None)[()] for c in _centres(d)}
        for x, d, memo in ((g, d_g, {}), (h, d_h, {}))
    ]
    return ends[0] == ends[1]


class _IsoSearch:
    """Backtracking isomorphism search from a rooted decomposition of g into
    h; h_colour colours h on the palette of rooted.colour, spread."""

    def __init__(self, g: Graph, rooted: _Rooted, h: Graph, h_colour: Sequence[int]) -> None:
        self.g = g
        self.h = h
        self.L = rooted
        self.h_colour = h_colour
        self.memo: dict = {}
        self.class_cache: dict[int, list[list[int]]] = {}
        self.tracer = _Tracer()
        self.traces: dict = {}

    # -- child classes ---------------------------------------------------

    def _classes(self, a: int) -> list[list[int]]:
        """Children of a, grouped into interchangeability classes.

        Two subtrees fall together when they meet the bag of a in the same
        vertices and an isomorphism between them fixes that overlap
        pointwise; class order follows the first member in subtree order.
        Only children whose overlap and size agree are told apart by
        their least traces with the overlap in place, which are equal
        exactly when such an isomorphism exists; a child's own bag is
        traced under that one order of its overlap only."""
        cached = self.class_cache.get(a)
        if cached is not None:
            return cached
        L = self.L
        bag_a = set(L.bags[a])
        classes: list[list[int]] = []
        groups: dict[tuple, dict] = {}  # key -> trace id (None: untraced) -> class
        for c in sorted(L.children[a], key=L.sort_key.__getitem__):
            overlap = tuple(v for v in L.bags[c] if v in bag_a)
            group = groups.setdefault((overlap, L.size[c]), {})
            label = None
            if group:
                trace = partial(_bag_traces, self.tracer, self.traces, self.g, L.d)
                if None in group:
                    first = group.pop(None)
                    group[trace(first[0], a)[overlap]] = first
                label = trace(c, a)[overlap]
            members = group.get(label)
            if members is None:
                members = group[label] = []
                classes.append(members)
            members.append(c)
        self.class_cache[a] = classes
        return classes

    # -- search ----------------------------------------------------------

    def run(self, region: Sequence[int]) -> tuple | None:
        """Map the decomposition's vertices onto region, the vertices of one
        component of h: the root bag's node (see _map_bag), or None.  The root
        bag is placed like the one child of an empty bag, on region whole."""
        comp = (frozenset(region), set(), sum([self.h_colour[w] for w in region]))
        maps = _drive(self._placements([(self.L.root, 0)], 0, [comp], {}, None))
        return None if maps is None else maps[0]

    def _cuts(self, i: int, pinned: dict[int, int], available: Iterable[int]):
        """Candidate images of bag i: pinned's image plus fresh vertices from
        available, in lexicographic order of the fresh part, with bag i's
        signature and number of inner edges.  Yields (image, fresh)."""
        bag = self.L.bags[i]
        colour = self.h_colour
        pinned_img = set(pinned.values())
        # Every mapped vertex keeps its colour, so the fresh vertices carry the
        # colours of the unpinned vertices of bag i; leaving out every other
        # vertex only drops candidates, the rest keep their order.
        wanted = {self.L.colour[v] for v in bag if v not in pinned}
        pool = sorted(w for w in available if colour[w] in wanted)
        for fresh in combinations(pool, len(bag) - len(pinned)):
            cut = tuple(sorted(pinned_img.union(fresh))) if pinned else fresh
            if sum([colour[w] for w in cut]) != self.L.bag_sig[i]:
                continue
            if _inner_edges(self.h, set(cut)) != self.L.bag_inner[i]:
                continue
            yield cut, fresh

    def _map_bag(
        self, i: int, image: Sequence[int], interior: frozenset[int], pinned: dict[int, int]
    ):
        """Task: map bag i onto image, extending pinned, in each way in turn
        until the subtrees of i's children use up interior exactly, placed on
        its components, found once and kept with the image vertices they touch
        and their signatures.  Returns the node of i's subtree, the bijection
        and the list of its children's nodes (see _placements), or None."""
        adj = self.h._adj
        colour = self.h_colour
        image_set = set(image)
        comps = [
            (
                frozenset(c),
                {w for v in c for w in adj[v] if w in image_set},
                sum([colour[v] for v in c]),
            )
            for c in _components(self.h, interior)
        ]
        bijections = _bag_bijections(
            self.g, self.L.bags[i], self.h, image, pinned, self.L.colour, self.h_colour
        )
        kids = [(c, cls) for cls, members in enumerate(self._classes(i)) for c in members]
        for ext in bijections:
            maps = yield self._placements(kids, 0, comps, ext, None)
            if maps is not None:
                return ext, maps
        return None

    def _placements(
        self, kids: list[tuple[int, int]], j: int,
        comps: list[tuple[frozenset[int], set[int], int]],
        phi: dict[int, int], prev: tuple | None,
    ):
        """Task: place the subtree at the j-th child of a bag a on whole
        components from comps, the unused ones below bag a's image, in each
        way in turn until the later children take up the rest.  phi is bag
        a's bijection.  The root bag is placed as the one child of an empty
        bag: phi is empty and comps holds the whole region.

        Outside bag a, the child's subtree is a union of components of a's
        subtree minus bag a that meet bag a only in the child's bag, so its
        image touches no image of bag a but pinned ones.  An isomorphism maps
        those that meet the child's bag onto the components holding the
        cut's fresh vertices, which are taken if their signatures match, and
        the others onto components with their signatures, counted, which are
        added include-first in order of least vertex.

        Members of a class are adjacent in kids and take their placements in
        ascending order of (cut, least interior vertex or -1): prev, the
        previous child's placement, bounds this one when they share a class.
        This orders them as (cut, sorted interior) would: on equal cuts
        neither has a fresh vertex (the earlier took its components), so the
        interiors are disjoint and of one size and compare by least vertex.

        Returns the nodes of the j-th and later children's subtrees, or None;
        each placement's node, or None when it fails, is memoised.
        """
        if j == len(kids):
            return None if comps else []
        i, class_id = kids[j]
        if j == 0 or kids[j - 1][1] != class_id:
            prev = None
        L = self.L
        pinned = {v: phi[v] for v in L.bags[i] if v in phi}
        pinned_img = set(pinned.values())
        fits = [(c, sig) for c, touch, sig in comps if touch <= pinned_img]
        pin_key = tuple(pinned.values())
        wanted = L.optional[i] or {}
        for cut, fresh in self._cuts(i, pinned, [w for c, _ in fits for w in c]):
            forced = [(c, sig) for c, sig in fits if not c.isdisjoint(fresh)]
            if sorted(sig for _, sig in forced) != L.forced[i]:
                continue
            optional = [(c, sig) for c, sig in fits if sig in wanted and c.isdisjoint(fresh)]
            for chosen in _unions(optional, wanted):
                taken = [c for c, _ in forced] + chosen
                interior = frozenset().union(*taken).difference(fresh)
                choice = (cut, min(interior, default=-1))
                if prev is not None and choice < prev:
                    continue
                key = (i, cut, interior, pin_key)
                if key in self.memo:
                    found = self.memo[key]
                else:
                    found = self.memo[key] = yield self._map_bag(i, cut, interior, pinned)
                if found is None:
                    continue
                rest = [comp for comp in comps if comp[0] not in taken]
                maps = yield self._placements(kids, j + 1, rest, phi, choice)
                if maps is not None:
                    maps.append(found)
                    return maps
        return None


def _split_decomposition(
    d: TreeDecomposition, comps: Sequence[tuple[int, ...]]
) -> list[TreeDecomposition]:
    """Restriction of d to each component, in one pass over the bags.

    A part keeps the bags meeting its component in id order, renumbered
    from 0, each cut down to the component and sorted, and the tree edges
    between kept bags.  Its root is the kept bag nearest the root of d, the
    least id on ties.
    """
    where = {v: ci for ci, comp in enumerate(comps) for v in comp}
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
            pieces.setdefault(where[v], []).append(v)
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

    After the decomposition, width and size checks, the disjoint union of g
    and h is colour-refined once (graph.stable_colours): colour histograms
    that differ answer None before anything is searched.  One search per
    component of g, on its part of d_g, runs against each free h component
    with its signature (see _spread) in turn: the root bag is placed like
    the one child of an empty bag, each bag is mapped blockwise below its
    parent's image, every vertex onto one of its colour, and each subtree
    returns its bijection and its children's nodes, written into one map by
    one walk; every child placement's outcome is memoized, its node or None.
    """
    _require_valid(g, d_g)
    if d_g.width() > k:
        raise InvalidDecompositionError(f"decomposition width {d_g.width()} exceeds {k}")
    if g.vertex_count != h.vertex_count:
        raise SizeMismatchError(
            f"graphs have {g.vertex_count} and {h.vertex_count} vertices"
        )
    colours = stable_colours(g, h)
    return None if colours is None else _search_components(g, d_g, h, colours)


def _search_components(
    g: Graph, d_g: TreeDecomposition, h: Graph, colours: tuple[list[int], list[int]]
) -> tuple[int, ...] | None:
    """iso_one_decomp's search, given the stable colours of g and h."""
    g_colour, h_colour = map(_spread, colours)
    g_comps = connected_components(g)
    g_sigs = [sum([g_colour[v] for v in c]) for c in g_comps]
    free: dict[int, list[tuple[int, ...]]] = {}  # signature -> h components, by least vertex
    for c in connected_components(h):
        free.setdefault(sum([h_colour[v] for v in c]), []).append(c)
    if sorted(g_sigs) != sorted(sig for sig, comps in free.items() for _ in comps):
        return None
    # Isomorphism of components is an equivalence, so matching each g part
    # to the first free h component isomorphic to it never has to be undone.
    # A run keeps no map of its own, only memo entries, which hold only its
    # own region's vertices, so one search per part serves every candidate.
    parts = [d_g] if len(g_comps) == 1 else _split_decomposition(d_g, g_comps)
    nodes = []
    for sig, part in zip(g_sigs, parts):
        root = part.root if part.root is not None else 0
        search = _IsoSearch(g, _Rooted(g, part, root, g_colour), h, h_colour)
        candidates = free[sig]
        for idx, region in enumerate(candidates):
            found = search.run(region)
            if found is not None:
                break
        else:
            return None
        del candidates[idx]
        nodes.append(found)
    # One walk writes the map: bags share only vertices their parents pin and
    # children take disjoint components, so a clash breaks an invariant.
    perm = [-1] * g.vertex_count
    taken = [False] * h.vertex_count
    while nodes:
        ext, maps = nodes.pop()
        nodes.extend(maps)
        for v, w in ext.items():
            if perm[v] != w:
                if perm[v] >= 0 or taken[w]:
                    raise InternalError("search mapped two vertices onto one")
                perm[v], taken[w] = w, True
    perm = tuple(perm)
    if not is_isomorphism(g, h, perm):
        raise InternalError("search returned a map that is not an isomorphism")
    return perm


def compute_tree_decomposition(g: Graph, k: int) -> TreeDecomposition | None:
    """An exact width-<=k decomposition via elimination orders, or None.

    Each component is eliminated in place, from its ascending vertex list,
    smallest label first with failed elimination states memoized, so the
    output is deterministic for a fixed input.
    """
    if k < 0:
        return None
    if g.vertex_count == 0:
        return TreeDecomposition(bags=((),), tree_edges=frozenset(), root=0)
    all_bags: list[tuple[int, ...]] = []
    all_edges: list[tuple[int, int]] = []
    comp_roots: list[int] = []
    for comp in connected_components(g):
        piece = _eliminate(g, comp, k)
        if piece is None:
            return None
        bags, edges, root = piece
        offset = len(all_bags)
        all_bags.extend(tuple(comp[v] for v in bag) for bag in bags)
        all_edges.extend((a + offset, b + offset) for a, b in edges)
        comp_roots.append(root + offset)
    all_edges.extend(zip(comp_roots, comp_roots[1:]))  # roots ascend
    return TreeDecomposition(
        bags=tuple(all_bags),
        tree_edges=frozenset(all_edges),
        root=comp_roots[0],
    )


def _bits(mask: int) -> Iterable[int]:
    """The members of a non-negative bit mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _minor_width(rows: list[int], alive: int) -> int:
    """Minor-min-width (Gogate and Dechter, UAI 2004): a treewidth lower
    bound for the graph on alive, as treewidth is minor-monotone and at least
    the least degree.  Each round contracts a vertex of least degree into the
    neighbour it shares the fewest neighbours with (least-c, Bodlaender and
    Koster, Inf. Comput. 2011), lowest labels first; once at most bound + 1
    vertices remain, no degree can exceed the bound.
    """
    n = len(rows)
    rows = [row & alive for row in rows]
    # A vertex outside the graph has degree n, above every real degree.
    degree = [row.bit_count() if alive >> v & 1 else n for v, row in enumerate(rows)]
    bound, left = 0, alive.bit_count()
    while left > bound + 1:
        least = min(degree)
        v = degree.index(least)
        nbrs, degree[v], left = rows[v], n, left - 1
        bound = max(bound, least)
        if nbrs:
            u = min(_bits(nbrs), key=lambda w: (rows[w] & nbrs).bit_count())
            for w in _bits(nbrs):
                rows[w] = (rows[w] | (nbrs if w == u else 1 << u)) & ~(1 << w | 1 << v)
                degree[w] = rows[w].bit_count()
    return bound


def _eliminate(
    g: Graph, comp: tuple[int, ...], k: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, int]], int] | None:
    """Elimination-order decomposition of comp, the ascending vertices of one
    component of g, or None.  Vertex i of the result stands for comp[i].

    Depth first over elimination states (the sets eliminated so far, as bit
    masks) on an explicit stack: a state tries the remaining vertices in
    ascending order and descends into the first with at most k closure
    neighbours; a state all of whose moves fail is memoised as failed.
    Row v of a remaining vertex is the mask of the remaining vertices that v
    reaches through eliminated ones, so its closure degree is its bit count.
    An eliminated vertex's row holds k + 1 bits, so that test skips it.
    A graph whose minor-min-width exceeds k is refused before any state.
    """
    n = len(comp)
    if n <= k + 1:
        return [tuple(range(n))], [], 0
    index = {v: i for i, v in enumerate(comp)}
    rows = [sum(1 << index[w] for w in g._adj[v]) for v in comp]
    if _minor_width(rows, (1 << n) - 1) > k:
        return None
    closed = (1 << k + 1) - 1
    failed: set[int] = set()
    # One frame per state on the current path: its mask, an iterator over
    # the vertices it has yet to try, and the step that entered it: the
    # vertex eliminated, then its closure neighbours (with it, its bag), each
    # with the row that popping the frame restores.
    frames = [(0, iter(range(n)), [])]
    while frames:
        mask, untried, _ = frames[-1]
        done = n - mask.bit_count() - 1 <= k + 1
        for v in untried:
            if rows[v].bit_count() > k:
                continue
            child = mask | 1 << v
            if done or child not in failed:
                break
        else:
            failed.add(mask)
            for w, old in frames.pop()[2]:
                rows[w] = old
            continue
        row = rows[v]
        step = [(v, row)] + [(w, rows[w]) for w in _bits(row)]
        for w, old in step[1:]:
            rows[w] = (old | row) & ~(1 << w | 1 << v)
        rows[v] = closed
        frames.append((child, iter(range(n)), step))
        if done:
            break
    else:
        return None
    steps = [frame[2] for frame in frames[1:]]
    order_pos = {step[0][0]: i for i, step in enumerate(steps)}
    bags = [tuple(sorted(w for w, _ in step)) for step in steps]
    final_id = len(bags)
    bags.append(tuple(_bits((1 << n) - 1 & ~frames[-1][0])))
    edges: list[tuple[int, int]] = []
    for i, step in enumerate(steps):
        # A step's closure neighbours are eliminated after its vertex if at
        # all, so every attachment points at a later bag or the final one.
        target = min((order_pos.get(w, final_id) for w, _ in step[1:]), default=final_id)
        if target <= i:
            raise InternalError(f"elimination bag {i} attaches to earlier bag {target}")
        edges.append((i, target))
    return bags, edges, final_id


def iso_tw(g: Graph, h: Graph, k: int) -> bool:
    """Bounded-treewidth isomorphism: decompose one side, then search.

    Graphs with different vertex counts, or whose disjoint union refines to
    different colour histograms (graph.stable_colours; so also graphs with
    different degree sequences), are not isomorphic, and nothing is
    decomposed for them, whatever their treewidth.  Otherwise g is
    decomposed and searched against h with the same colours.  Isomorphic
    graphs have equal treewidth, so when only h fits width k the answer is
    False without a search; when neither graph has a width-k decomposition
    the bound itself is reported as exceeded.
    """
    colours = stable_colours(g, h)
    if colours is None:
        return False
    d_g = compute_tree_decomposition(g, k)
    if d_g is not None:
        return _search_components(g, d_g, h, colours) is not None
    if compute_tree_decomposition(h, k) is None:
        raise WidthExceededError(f"neither graph has treewidth <= {k}")
    return False
