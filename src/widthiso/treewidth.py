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

Each fact about a call is checked once.  Validation walks the bag tree
once, from the root the search uses, and the search's rooted view (_Rooted)
reads that walk instead of making its own; on a disconnected graph each
component's part is read off the same walk (_parts).  A bag's
vertices outside its parent's bag are its fresh ones; the others are
pinned by the parent's bijection, which matched their colours and edges
already, so a candidate image is filtered by the colours, signature and
edge count at its fresh part only, and a bag bijection tests only the
pairs with a fresh vertex.
"""

from __future__ import annotations

from bisect import bisect_left
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


def _bag_tree(d: TreeDecomposition, root: int) -> tuple:
    """One breadth-first walk of the bag tree from root: the bags it reaches
    in walk order, each bag's parent (root's is root, an unreached bag's -1),
    each bag's children, ascending, and each reached bag's fresh vertices,
    those outside its parent's bag (all of the root's).  Tree edges join bags."""
    bags = d.bags
    adjacency = d.tree_adjacency
    parent = [-1] * len(bags)
    parent[root] = root
    children: list[list[int]] = [[] for _ in bags]
    fresh: list[list[int]] = [[] for _ in bags]
    fresh[root] = list(bags[root])
    order = [root]
    for a in order:  # order grows while it is read
        up = bags[a]
        for b in adjacency[a]:
            if parent[b] < 0:
                parent[b] = a
                children[a].append(b)
                fresh[b] = [v for v in bags[b] if v not in up]
                order.append(b)
    return order, parent, children, fresh


def validate_tree_decomposition(g: Graph, d: TreeDecomposition) -> list[str]:
    """Check bag coverage, edge coverage and per-vertex connectivity.

    The structure is checked first: vertex labels, tree edges, the root, and
    that the bag tree is a tree, by one breadth-first walk from the root
    (bag 0 when d names none).  Each vertex's top bags are then read off
    that walk: the bags holding it whose parent bag does not.  A vertex with
    none is in no bag, and one with two or more is held by bags that do not
    form a subtree.  Bags that form subtrees share a vertex exactly when one
    holds the other's top bag, so an edge needs no search unless an end
    fails the subtree test.
    """
    return _validate(g, d)[0]


def _validate(g: Graph, d: TreeDecomposition) -> tuple[list[str], tuple | None]:
    """validate_tree_decomposition's messages, and when there are none the
    walk of the bag tree it made (see _bag_tree)."""
    n_bags = len(d.bags)
    if n_bags == 0:
        return ["structure: no bags"], None
    n = g.vertex_count
    bags = d.bags
    problems: list[str] = []
    for i, bag in enumerate(bags):
        if bag and not (0 <= min(bag) and max(bag) < n and len(set(bag)) == len(bag)):
            seen: set[int] = set()
            for v in bag:
                if not (0 <= v < n):
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
        return problems, None
    if len(d.tree_edges) != n_bags - 1:
        return [f"structure: {len(d.tree_edges)} tree edges on {n_bags} bags is not a tree"], None
    walk = _bag_tree(d, d.root if d.root is not None else 0)
    order, fresh = walk[0], walk[3]
    if len(order) != n_bags:
        return ["structure: bag tree is disconnected"], None
    top = [-1] * n  # the top bag of each vertex nearest the root, -1 if none
    split = [False] * n  # whether a vertex has a second top bag
    for a in order:
        for v in fresh[a]:
            if top[v] < 0:
                top[v] = a
            else:
                split[v] = True
    problems = [f"coverage: vertex {v} is in no bag" for v in range(n) if top[v] < 0]
    for u, nbrs in enumerate(g._adj):  # edges in ascending order
        home = bags[top[u]] if top[u] >= 0 else ()
        for v in nbrs:
            if v > u and v not in home and not (top[v] >= 0 and u in bags[top[v]]):
                # Subtrees meet exactly when one holds the other's top bag, so
                # only an end whose bags are split needs a search.
                if not (split[u] or split[v]) or not any(u in bag and v in bag for bag in bags):
                    problems.append(f"edge-coverage: edge ({u}, {v}) is inside no bag")
    problems += [
        f"connectivity: bags holding vertex {v} do not form a subtree"
        for v in range(n)
        if split[v]
    ]
    return problems, None if problems else walk


def _require_valid(g: Graph, d: TreeDecomposition, prefix: str = "") -> tuple:
    """The walk _validate made of a valid d; raises if d is invalid."""
    problems, walk = _validate(g, d)
    if problems:
        raise InvalidDecompositionError(prefix + "; ".join(problems))
    return walk


def _edges_at(adj: Sequence[Sequence[int]], fresh: Sequence[int], pinned: set[int]) -> int:
    """Number of edges, in adjacency adj, with one end in fresh and the other
    in fresh or in pinned, a set disjoint from it, counted by set
    intersections with the fresh vertices' neighbours."""
    count = sum([len(pinned.intersection(adj[v])) for v in fresh])
    if len(fresh) > 1:
        inside = set(fresh)
        count += sum([len(inside.intersection(adj[v])) for v in fresh]) // 2
    return count


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
    """Rooted view of one decomposition of g, given by its bags and a walk
    of its bag tree (see _bag_tree), whose first bag is the root, with
    per-bag invariants and per-subtree facts from one bottom-up pass over
    the vertices the decomposition holds: size is the subtree's vertex
    count; sort_key is (1, the least subtree vertex outside the parent's
    bag), or (0, the bag itself) when there is none.

    The caller hands the walk in, validation's or its part for one
    component (see _parts); the view makes none of its own.  Each bag's
    fresh vertices are those outside its parent's bag; the others are
    pinned by the parent's bijection, which matched their colours and edges
    already.  So the search tests a candidate image of bag a only against
    fresh_colours[a], fresh_sig[a], the signature of its fresh vertices, and
    fresh_edges[a], the number of bag a's edges with a fresh end, and a bag
    bijection against near[a], the neighbours in bag a of each fresh vertex.

    colour is a colouring of g that every isomorphism sought preserves,
    spread (see _spread).  The vertices of a bag c's subtree outside its
    parent's bag fall into components: forced[c] lists the signatures of
    those that meet bag c, sorted, and optional[c] counts the signatures of
    the others, None when there are none.  The root counts as the child of
    an empty bag, so its facts cover the whole part.
    """

    def __init__(
        self, g: Graph, bags: Sequence[Sequence[int]], walk: tuple, colour: Sequence[int]
    ) -> None:
        self.bags = bags
        order, self.parent, self.children, self.fresh = walk
        self.root = order[0]
        fresh = self.fresh
        self.colour = colour
        adj = g._adj
        n = g.vertex_count
        self.fresh_colours = [{colour[v] for v in f} for f in fresh]
        self.fresh_sig = [sum([colour[v] for v in f]) for f in fresh]
        self.fresh_edges = [_edges_at(adj, f, set(bag).difference(f)) for bag, f in zip(bags, fresh)]
        self.near = [[_bag_neighbours(g, v, bag) for v in f] for bag, f in zip(bags, fresh)]
        self.size = sizes = [0] * len(bags)
        self.sort_key: list[tuple] = [()] * len(bags)
        self.forced: list[list[int]] = [[] for _ in bags]
        self.optional: list[dict[int, int] | None] = [None] * len(bags)
        children, sort_key, forced, optional = self.children, self.sort_key, self.forced, self.optional
        # Each vertex is counted at its top bag, the one nearest the root
        # that holds it, where it is fresh.  The top bags of a child's
        # subtree count exactly its vertices that are not in the parent's bag.
        below = [len(f) for f in fresh]  # vertices counted in the subtree
        least = [min(f, default=n) for f in fresh]  # least of them, n if none
        # The components of the vertices counted in a child's subtree, which
        # are its vertices outside the parent's bag, come from one union-find
        # over the vertices counted so far (link[v] < 0 for the others), each
        # component's root holding its signature; an edge from a vertex
        # counted at bag a runs inside a's subtree, so it joins a's vertices
        # only.
        link = [-1] * n
        total: dict[int, int] = {}
        roots: dict[int, list[int]] = {}  # bag -> its components' roots, until its parent reads them
        for a in reversed(order):
            size = len(bags[a])
            for b in children[a]:
                size += below[b]
                below[a] += below[b]
                if least[b] < least[a]:
                    least[a] = least[b]
            sizes[a] = size
            sort_key[a] = (1, least[a]) if least[a] < n else (0, bags[a])
            for v in fresh[a]:
                # v stays its component's root: every root it meets joins it.
                link[v], total[v] = v, colour[v]
                for w in adj[v]:
                    if link[w] >= 0:
                        y = _find(link, w)
                        if y != v:
                            link[y] = v
                            total[v] += total.pop(y)
            meet = {_find(link, v) for v in fresh[a]}
            passed = [r for b in children[a] for r in roots.pop(b) if _find(link, r) not in meet]
            roots[a] = [*meet, *passed]
            forced[a] = sorted([total[r] for r in meet])
            if passed:
                counts = optional[a] = {}
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
    rooted = _Rooted(g, d.bags, _bag_tree(d, r), [0] * g.vertex_count)
    for c in children:
        if c not in range(len(rooted.parent)) or c == r or rooted.parent[c] != r:
            raise ValueError(f"bag {c} is not a child of bag {r}")
    return sorted(children, key=rooted.sort_key.__getitem__)


def _bag_bijections(
    pinned: dict[int, int], fresh_g: Sequence[int], near_g: Sequence[set[int]],
    h: Graph, h_bag: Sequence[int], fresh_h: Sequence[int],
    g_colour: Sequence[int], h_colour: Sequence[int],
):
    """Bijections from a bag of g onto h_bag extending pinned and preserving
    colours and bag edges, in the order of the permutations of fresh_h.

    pinned is the parent bag's bijection on the shared vertices, so pairs of
    pinned vertices were tested there: only pairs with a fresh vertex are
    tested.  fresh_g lists the g bag's other vertices, in bag order, near_g
    their neighbours in the bag (see _bag_neighbours), and fresh_h the
    vertices of h_bag outside pinned's image.  An image's bag neighbours
    are found once it is reached, and a mapping keeps the pairs of a fresh
    vertex v exactly when it maps v's bag neighbours onto those of v's
    image.
    """
    near_h: dict[int, set[int]] = {}
    for image in permutations(fresh_h):
        for v, w in zip(fresh_g, image):
            if g_colour[v] != h_colour[w]:
                break
        else:
            mapping = dict(pinned)
            mapping.update(zip(fresh_g, image))
            for near, w in zip(near_g, image):
                if w not in near_h:
                    near_h[w] = _bag_neighbours(h, w, h_bag)
                if {mapping[u] for u in near} != near_h[w]:
                    break
            else:
                yield mapping


def _bag_neighbours(g: Graph, v: int, bag: Sequence[int]) -> set[int]:
    """The vertices of bag adjacent to v: a set intersection with v's
    neighbours when they are few, else a binary search in them per bag
    vertex, as Graph.has_edge does, so a vertex of high degree costs
    O(|bag| log deg)."""
    nbrs = g._adj[v]
    if len(nbrs) <= 4 * len(bag):
        return set(bag).intersection(nbrs)
    end = len(nbrs)
    return {u for u in bag if (i := bisect_left(nbrs, u)) < end and nbrs[i] == u}


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


def _centres(d: TreeDecomposition, walk: tuple) -> list[int]:
    """The middle bags of a longest path in the bag tree, found by two
    breadth-first walks, each ending at a bag farthest from its start: walk,
    validation's, from any bag (the centre is unique), then one from its end."""
    end = walk[0][-1]
    order, parent, _, _ = _bag_tree(d, end)
    path = [order[-1]]
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
    walk_g = _require_valid(g, d_g, "first decomposition: ")
    walk_h = _require_valid(h, d_h, "second decomposition: ")
    if d_g.bag_count() != d_h.bag_count():
        return False
    tracer, ends = _Tracer(), []
    for x, d, walk in ((g, d_g, walk_g), (h, d_h, walk_h)):
        trace = partial(_bag_traces, tracer, {}, x, d.bags, d.tree_adjacency)
        ends.append({trace(c, None)[()] for c in _centres(d, walk)})
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
            overlap = tuple([v for v in L.bags[c] if v in bag_a])
            group = groups.setdefault((overlap, L.size[c]), {})
            label = None
            if group:
                trace = partial(_bag_traces, self.tracer, self.traces, self.g, L.bags, L.children)
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

    def _cuts(self, i: int, pinned_img: set[int], fits: list[tuple[frozenset[int], int]]):
        """Candidate images of bag i: pinned_img, the image of its pinned
        vertices, plus fresh vertices from the components in fits, in
        lexicographic order of the fresh part, whose colours, signature and
        edges at the fresh part are those of bag i's fresh vertices (see
        _Rooted).  Yields (image, fresh), both ascending."""
        L = self.L
        colour = self.h_colour
        adj = self.h._adj
        sig, edges = L.fresh_sig[i], L.fresh_edges[i]
        # Every mapped vertex keeps its colour, so the fresh vertices carry the
        # colours of bag i's fresh vertices; leaving out every other vertex
        # only drops candidates, the rest keep their order.
        wanted = L.fresh_colours[i]
        pool = sorted([w for c, _ in fits for w in c if colour[w] in wanted])
        for fresh in combinations(pool, len(L.fresh[i])):
            if sum([colour[w] for w in fresh]) == sig and _edges_at(adj, fresh, pinned_img) == edges:
                yield (tuple(sorted(pinned_img.union(fresh))) if pinned_img else fresh), fresh

    def _map_bag(
        self, i: int, image: Sequence[int], fresh: Sequence[int], interior: frozenset[int],
        pinned: dict[int, int],
    ):
        """Task: map bag i onto image, whose vertices outside pinned's image
        are fresh, extending pinned, in each way in turn until the subtrees
        of i's children use up interior exactly, placed on its components,
        found once and kept with the image vertices they touch and their
        signatures.  Returns the node of i's subtree, the bijection and the
        list of its children's nodes (see _placements), or None."""
        L = self.L
        bijections = _bag_bijections(
            pinned, L.fresh[i], L.near[i], self.h, image, fresh, L.colour, self.h_colour
        )
        if not L.children[i]:  # a leaf bag: its image must use up interior
            ext = None if interior else next(bijections, None)
            return None if ext is None else (ext, [])
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
        """Task: place the subtree at the j-th child of a bag a, j < len(kids), on whole
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
        i, class_id = kids[j]
        if j == 0 or kids[j - 1][1] != class_id:
            prev = None
        L = self.L
        pinned = {v: phi[v] for v in L.bags[i] if v in phi}
        pinned_img = set(pinned.values())
        fits = [(c, sig) for c, touch, sig in comps if touch <= pinned_img]
        pin_key = tuple(pinned.values())
        wanted = L.optional[i] or {}
        for cut, fresh in self._cuts(i, pinned_img, fits):
            forced = [(c, sig) for c, sig in fits if not c.isdisjoint(fresh)]
            if sorted([sig for _, sig in forced]) != L.forced[i]:
                continue
            optional = [(c, sig) for c, sig in fits if sig in wanted and c.isdisjoint(fresh)]
            for chosen in _unions(optional, wanted) if wanted else [[]]:
                taken = [c for c, _ in forced] + chosen
                interior = frozenset().union(*taken).difference(fresh)
                choice = (cut, min(interior, default=-1))
                if prev is not None and choice < prev:
                    continue
                key = (i, cut, interior, pin_key)
                if key in self.memo:
                    found = self.memo[key]
                else:
                    found = self.memo[key] = yield self._map_bag(i, cut, fresh, interior, pinned)
                if found is None:
                    continue
                rest = [comp for comp in comps if comp[0] not in taken]
                if j + 1 < len(kids):
                    maps = yield self._placements(kids, j + 1, rest, phi, choice)
                else:  # the last child: the children must use up comps
                    maps = None if rest else []
                if maps is not None:
                    maps.append(found)
                    return maps
        return None


def _parts(
    bags: Sequence[Sequence[int]], walk: tuple, comps: Sequence[tuple[int, ...]]
) -> list[tuple[list[tuple[int, ...]], tuple]]:
    """Restriction of a walk of a bag tree (see _bag_tree) to each
    component, in one pass over the walk: each part's bags and its walk.

    A part keeps the bags meeting its component in walk order, numbered
    from 0 and cut down to the component, sorted.  They form a subtree,
    topped by the first of them, so every other kept bag's parent is kept;
    a bag's fresh vertices are its old ones in the component, sorted.
    """
    order, parent, _, fresh = walk
    where = {v: ci for ci, comp in enumerate(comps) for v in comp}
    parts = [([], ([], [], [], [])) for _ in comps]
    ids: dict[int, dict[int, int]] = {}  # bag -> part -> id of its piece
    for a in order:
        pieces: dict[int, list[int]] = {}
        for v in sorted(bags[a]):
            pieces.setdefault(where[v], []).append(v)
        above = ids.get(parent[a], {})  # the root is its own parent
        here = ids[a] = {}
        for ci, piece in pieces.items():
            part_bags, (part_order, up, down, new) = parts[ci]
            i = here[ci] = len(part_bags)
            part_bags.append(tuple(piece))
            part_order.append(i)
            up.append(above.get(ci, i))
            down.append([])
            if up[i] != i:
                down[up[i]].append(i)
            new.append(sorted([v for v in fresh[a] if where[v] == ci]))
    return parts


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
    walk = _require_valid(g, d_g)
    if d_g.width() > k:
        raise InvalidDecompositionError(f"decomposition width {d_g.width()} exceeds {k}")
    if g.vertex_count != h.vertex_count:
        raise SizeMismatchError(
            f"graphs have {g.vertex_count} and {h.vertex_count} vertices"
        )
    colours = stable_colours(g, h)
    return None if colours is None else _search_components(g, d_g.bags, walk, h, colours)


def _search_components(
    g: Graph, bags: Sequence[Sequence[int]], walk: tuple, h: Graph,
    colours: tuple[list[int], list[int]],
) -> tuple[int, ...] | None:
    """iso_one_decomp's search, given the bags of g's decomposition, a walk
    of its bag tree (see _bag_tree) and the stable colours of g and h; each
    component of a disconnected g has its part read off the walk (_parts)."""
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
    parts = [(bags, walk)] if len(g_comps) == 1 else _parts(bags, walk, g_comps)
    nodes = []
    for sig, (part_bags, part_walk) in zip(g_sigs, parts):
        search = _IsoSearch(g, _Rooted(g, part_bags, part_walk, g_colour), h, h_colour)
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
        walk = _bag_tree(d_g, d_g.root)
        return _search_components(g, d_g.bags, walk, h, colours) is not None
    if compute_tree_decomposition(h, k) is None:
        raise WidthExceededError(f"neither graph has treewidth <= {k}")
    return False
