"""Isomorphism order on augmented trees, and for bounded tree distance width
graphs the isomorphism decision and canonization.

One search over root sets serves the last two: _root_search ranks the root
sets by exact prefixes of their least traces, read off the components of
G - S, and returns the first group of equal prefixes that fits the width
bound.  The ranking has two stages: every root set by its root prefix, then
a group of equal root prefixes by the longer prefix through its first child
entry, so that only the least group is walked: one walk per root set is
refused at its first bag above the bound, or traces the root set.  As in
Lindell's tree canonisation, two traces are ordered by their first field
that differs, so a root set whose exact prefix is larger is never traced.
Where a one-vertex root set's first child bag is one vertex u, the longer
prefix goes on with u's separating-set count and block head, which the
articulation counts of the graph give (_kid): on a tree this sets the leaves
apart by their neighbours, which the child's size alone does not.  The
width itself needs no trace; it is tdd.tree_distance_width.

The order is realized through canonical traces, read from (bag, parent bag)
pair records (below) rather than from stored decompositions, each bag split
by augtree.bag_split.  The augmented tree is the paper-level view for the
CLI ``augtree`` command and compare_augmented, which traces the pair of the
compared bag node.  The trace of a subtree rooted at a bag, under a fixed
ordering of that bag, is an integer sequence listing relative depth, bag
size, the bag's edges as position pairs, the subtree's vertex count, and one
block per separating set.  A separating-set block carries the set's
positions in the bag ordering and one block per child bag; a child block is
the bipartite edges between the separating set and the child bag as position
pairs, followed by the child's own trace minimized over the child bag's
orderings.  Every variable-length field is length-prefixed, so equal
sequences mean equal structure, and comparing two subtrees is comparing
their minimal traces:

  * a difference in the bag edge lists is a first-step difference,
  * then subtree sizes, then child counts,
  * then the ordered child blocks, where separating-set positions come
    first, bipartite edge positions second and the child's own trace last.

Equality of minimal traces holds exactly when the two subgraphs admit an
isomorphism mapping bag onto bag, separating set onto separating set, which
is what makes the minimum over all root sets a canonical form.

Traces are computed without their depth fields and interned.  Aligned
fields of two compared traces sit at the same depth, so dropping the depths
keeps the order.  A depth-free trace is stored as its bag's own fields, each
child trace replaced by its id in one table where equal traces share one id.
Two traces are ordered by walking their fields and descending into the
first pair of child ids that differ, which decides because traces are
prefix-free.  Each trace also records the child order it chose.  The
winner alone is read out, by one walk (_read_out) over its fields that
writes the depths into the trace and lists the vertices in canonical order
as it goes, taking each child from the recorded order and checking that
child's trace id against the field; the canonical map is that vertex order.

The subtree below a bag B whose parent bag is P is the component of G - P
holding B, so all that is known of it is one record per pair, shared by
every root set of a graph.  Like the paper's logspace walk and Lindell's
tree canonisation, the records are read off the graph, not off a stored
decomposition: a new pair is recorded by re-rooting (_Tracer._reroot), and
only where that rule cannot group a bag's child bags is one decomposition
built under the bound and all its pairs recorded.  A relabelled path needs
no build at all.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from functools import cmp_to_key, lru_cache
from itertools import combinations, groupby, permutations, product
from operator import itemgetter
from typing import NamedTuple, Sequence

from .augtree import AugmentedTree, SubtreeHandle, bag_split
from .errors import (
    DisconnectedGraphError,
    InternalError,
    NoAdmissibleMappingError,
    WidthExceededError,
)
from .graph import Graph, _articulation_counts, is_connected
from .oracle import inverse_permutation
from .tdd import _build, _components, _sep_counts


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


def _bip_code(
    pos: dict[int, int], child_pos: dict[int, int], pairs: list[tuple[int, int]]
) -> tuple[int, ...]:
    """Bipartite edges as sorted (parent, child) position pairs, length-prefixed."""
    out = [len(pairs)]
    for ab in sorted([(pos[m], child_pos[w]) for m, w in pairs]):
        out += ab
    return tuple(out)


def _header(
    pos: dict[int, int],
    edges: Sequence[tuple[int, int]],
    size: int,
    n_seps: int,
) -> list[int]:
    """Trace fields after the depth and ahead of the blocks: bag size, the
    bag's edges as length-prefixed position pairs, subtree size,
    separating-set count."""
    edge_pos = sorted(
        [(pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u]) for u, v in edges]
    )
    out = [len(pos), len(edge_pos)]
    for xy in edge_pos:
        out += xy
    out.append(size)
    out.append(n_seps)
    return out


def _sep_head(pos: dict[int, int], sep: tuple[int, ...], n_kids: int) -> list[int]:
    """Head of a separating-set block: |sep|, its sorted positions, #kids."""
    head = [len(sep)]
    head += sorted([pos[m] for m in sep])
    head.append(n_kids)
    return head


class _Pair:
    """The subtree below a bag B hung from parent bag P: its vertex count,
    its child bags sorted by content (augtree.bag_split makes B's split of
    them), and two dicts keyed by the orderings of B: the trace id under
    each, and the child order each of those traces chose (see
    _Tracer.local); each but size None until known.
    """

    __slots__ = ("size", "kids", "traces", "orders")

    def __init__(self, size: int) -> None:
        self.size = size
        self.kids = self.traces = self.orders = None


class _Tracer:
    """Interned depth-free traces of the bag subtrees of one graph g.

    fields[i] holds trace i's own fields with each child trace written as
    ~id, a negative number (every other field is >= 0); equal traces share
    one id.  pairs maps (B, P), a sorted bag and its sorted parent bag (None
    at the root), to its _Pair record, and kids_of maps a bag B to the child
    bags recorded under it, under any parent bag.  The table also interns
    tree-decomposition traces, for _bag_traces, which needs no graph.
    """

    def __init__(self, g: Graph | None = None) -> None:
        self.g = g
        self.fields: list[tuple[int, ...]] = []
        self.ids: dict[tuple[int, ...], int] = {}
        self.pairs: dict[tuple, _Pair] = {}
        self.kids_of: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        self.sort_key = cmp_to_key(self.cmp)

    def intern(self, fields: tuple[int, ...]) -> int:
        i = self.ids.get(fields)
        if i is None:
            i = self.ids[fields] = len(self.fields)
            self.fields.append(fields)
        return i

    def cmp(self, x: Sequence[int], y: Sequence[int]) -> int:
        """-1, 0 or 1 as field sequence x orders before, like or after y.

        Up to their first difference the sequences are aligned, so where one
        holds a child id the other does too.  Traces are prefix-free, so
        those two children's traces decide, and the loop goes on inside them.
        """
        if x == y:
            return 0
        while True:
            for p, q in zip(x, y):
                if p != q:
                    break
            else:
                return -1 if len(x) < len(y) else 1
            if p >= 0:
                return -1 if p < q else 1
            x, y = self.fields[~p], self.fields[~q]

    def less(self, a: int, b: int) -> bool:
        """Whether trace a orders strictly before trace b."""
        return a != b and self.cmp(self.fields[a], self.fields[b]) < 0

    def least(self, traces: dict):
        """The first key of traces whose trace id is least; None if empty."""
        best = None
        for key in traces:
            if best is None or self.less(traces[key], traces[best]):
                best = key
        return best

    def _pair(self, bag: tuple[int, ...], parent: tuple[int, ...] | None, size: int) -> _Pair:
        """The record of (bag, parent), made with the subtree's vertex count
        when first seen; a child bag is then listed in kids_of[parent]."""
        rec = self.pairs.get((bag, parent))
        if rec is not None:
            if rec.size != size:
                raise InternalError(f"subtree of {bag} under {parent} counted {rec.size} and {size}")
            return rec
        if size < 1:
            raise InternalError(f"subtree of {bag} under {parent} counts {size} vertices")
        rec = self.pairs[bag, parent] = _Pair(size)
        if parent is not None:
            self.kids_of.setdefault(parent, []).append(bag)
        return rec

    def _reroot(self, bag: tuple[int, ...], parent: tuple[int, ...] | None, rec: _Pair) -> bool:
        """Split rec's bag B by the re-rooting rule; False when it cannot.

        The child bags of (B, P) hold the seeds N(B) minus B and P, grouped
        by the components of G - B, which never touch P.  A seed in a child
        bag already recorded under B belongs to it, whatever P that record
        was made under.  One seed left over is a child bag of its own, with
        the vertices no other child counts; two or more cannot be grouped
        without a search, and the caller builds a decomposition instead.
        """
        adj = self.g._adj
        near = set(bag).union(parent or ())
        child_of = {}
        for c in self.kids_of.get(bag, ()):
            for y in c:
                if child_of.setdefault(y, c) is not c:
                    raise InternalError(f"vertex {y} lies in two child bags of {bag}")
        kids: dict[tuple[int, ...], None] = {}
        loose = set()
        for u in bag:
            for y in adj[u]:
                if y not in near:
                    c = child_of.get(y)
                    if c is None:
                        loose.add(y)
                    else:
                        kids[c] = None
        if len(loose) > 1:
            return False
        rest = rec.size - len(bag) - sum(self.pairs[c, bag].size for c in kids)
        if loose:
            last = (loose.pop(),)
            self._pair(last, bag, rest)
            kids[last] = None
        elif rest:
            raise InternalError(f"children of {bag} under {parent} miss {rest} vertices")
        rec.kids = tuple(sorted(kids))
        return True

    def _record(self, s: tuple[int, ...], cap: int) -> bool:
        """Build the decomposition rooted at s under cap and record every
        pair of it; False, recording nothing, at a bag above cap.  Its rows
        list a bag's children before the bag, in content order, and the root
        last, as its own parent (what it adds to itself is never read), so
        one forward pass sums sizes into parents and lists child bags sorted."""
        rows = _build(self.g, s, cap)
        if rows is None:
            return False
        bags, parent, _ = rows
        sizes = [len(bag) for bag in bags]
        kids: list[list[tuple[int, ...]]] = [[] for _ in bags]
        for i, bag in enumerate(bags):
            p = parent[i]
            rec = self._pair(bag, bags[p] if p != i else None, sizes[i])
            if rec.kids is None:
                rec.kids = tuple(kids[i])
            sizes[p] += sizes[i]
            kids[p].append(bag)
        return True

    def traces(
        self, s: tuple[int, ...], start: tuple, size: int, cap: int
    ) -> dict[tuple[int, ...], int] | None:
        """Trace id of the subtree of the pair start, of size vertices, under
        every ordering of its bag; None when that subtree holds a bag above
        cap.  s is a root set whose decomposition holds start.

        One walk from start records each new pair by _reroot, which adds
        single vertices only, or else by one build of s under cap, which
        records nothing when refused: every recorded bag fits cap.  Pairs
        already traced were walked under the same cap and are not entered.
        The subtree below B with parent bag P is the component of G - P
        holding B, so its depth-free traces depend on (B, P) alone.  The
        pairs walked are traced deepest first, each keeping the child order
        of each of its traces (see local), which _read_out follows.
        """
        if len(start[0]) > cap:
            return None
        pairs = self.pairs
        top = self._pair(*start, size)
        todo, stack = [], [start]
        while stack:
            bag, parent = key = stack.pop()
            rec = pairs[key]
            if rec.traces is not None:
                continue
            if rec.kids is None and not self._reroot(bag, parent, rec) and not self._record(s, cap):
                return None
            todo.append(key)
            stack.extend((c, bag) for c in rec.kids)
        for key in reversed(todo):
            rec = pairs[key]
            split = bag_split(self.g, key[0], rec.kids)
            traces, orders = {}, {}
            for sigma in _orderings(key[0]):
                fields, orders[sigma] = self.local(key, split, sigma)
                traces[sigma] = self.intern(fields)
            rec.traces, rec.orders = traces, orders
        return top.traces

    def local(
        self, key: tuple, split: tuple, sigma: tuple[int, ...]
    ) -> tuple[tuple[int, ...], tuple]:
        """Depth-free fields of the pair key's trace under sigma, from its
        bag's split, and the child order that trace chose.

        Each child bag's entry is the least over its orderings; an entry is
        the bipartite code followed by the child's trace id, which orders
        like the child block because the code is length-prefixed.  The
        order lists each entry's child bag and ordering, flat, as (c, phi,
        c, phi, ...), entries in their sorted order within each
        separating-set block and the blocks least first.  Ties keep the
        split's order.
        """
        bag = key[0]
        edges, seps = split
        pos = {v: i for i, v in enumerate(sigma)}
        out = _header(pos, edges, self.pairs[key].size, len(seps))
        sort_key = self.sort_key
        blocks = []
        for sep, group in seps:
            head = _sep_head(pos, sep, len(group))
            entries = []
            for c, pairs in group:
                best = None
                for phi, i in self.pairs[c, bag].traces.items():
                    entry = _bip_code(pos, {v: j for j, v in enumerate(phi)}, pairs) + (~i,)
                    if best is None or self.cmp(entry, best[0]) < 0:
                        best = (entry, c, phi)
                entries.append(best)
            if len(entries) > 1:
                entries.sort(key=lambda e: sort_key(e[0]))
            for entry, _, _ in entries:
                head.extend(entry)
            blocks.append((tuple(head), entries))
        if len(blocks) > 1:
            blocks.sort(key=lambda block: sort_key(block[0]))
        order = []
        for head, entries in blocks:
            out.extend(head)
            for _, c, phi in entries:
                order += c, phi
        return tuple(out), tuple(order)


def _read_out(
    tracer: _Tracer, key: tuple, sigma: tuple[int, ...]
) -> tuple[tuple[int, ...], list[int]]:
    """The trace of the traced pair key under sigma, written out in full at
    relative depth 0, and its subtree's vertices in canonical order.

    One depth-first walk over the trace fields: each bag's fields after its
    depth, and at each child id the next (child bag, ordering) of the child
    order recorded with the trace, whose trace there must be that id; the
    walk lists a bag's vertices in its ordering as it enters it.
    InternalError unless every child recorded exists with that trace, no
    recorded child is left over, and the walk lists each of the pair's
    vertices exactly once."""
    pairs = tracer.pairs
    rec = pairs[key]
    trace, order = [0], list(sigma)
    stack = [(iter(tracer.fields[rec.traces[sigma]]), key[0], iter(rec.orders[sigma]), 0)]
    while stack:
        fields, bag, kids, depth = stack[-1]
        for x in fields:
            if x < 0:
                c, phi = next(kids, None), next(kids, None)
                kid = pairs.get((c, bag))
                if kid is None or kid.traces is None or kid.traces.get(phi) != ~x:
                    raise InternalError(f"{bag}'s recorded child {c} under {phi} is not trace {~x}")
                trace.append(depth + 2)
                order += phi
                stack.append((iter(tracer.fields[~x]), c, iter(kid.orders[phi]), depth + 2))
                break
            trace.append(x)
        else:
            if next(kids, None) is not None:
                raise InternalError(f"{bag}'s recorded child order has entries left over")
            stack.pop()
    if len(order) != rec.size or len(set(order)) != rec.size:
        raise InternalError(f"the canonical walk lists {len(order)} vertices for {rec.size}")
    return tuple(trace), order


def _bag_traces(
    tracer: _Tracer, memo: dict, g: Graph, bags: Sequence[Sequence[int]],
    nbrs: Sequence[Sequence[int]] | dict[int, Sequence[int]], bag: int, parent: int | None,
):
    """Least trace ids of the subtree at bag of a tree decomposition of g,
    hung from bag parent (None at the root), keyed by each order of the
    vertices the two bags share: the least over the bag orderings that list
    them first, in that order.  The decomposition is read through its bags
    and nbrs, the bags next to each bag, ascending: all its tree neighbours,
    or its children in a rooted view; a pair's parent is skipped in either.
    A trace is the bag's _header with its child count, then per child bag,
    sorted: the number and ascending positions of the shared vertices, and
    ~id of the child's least trace for their order.  memo maps (bag,
    parent) to the subtree's vertex count and its traces; pairs not in it
    are traced deepest first, from an explicit stack.  The pair (bag,
    parent) itself, when not in memo, is traced under one order of the
    shared vertices only, the one they have in bag, and is not memoised,
    since memo entries hold every order.
    """
    if (bag, parent) in memo:
        return memo[bag, parent][1]
    todo, stack = [], [(bag, parent)]
    while stack:
        b, p = key = stack.pop()
        if key not in memo:
            todo.append(key)
            stack.extend((c, b) for c in nbrs[b] if c != p)
    for b, p in reversed(todo):  # the top pair comes last
        inside = set(bags[b])
        shared = tuple(v for v in bags[b] if p is not None and v in bags[p])
        private = tuple(v for v in bags[b] if v not in shared)
        edges = [(u, w) for u in inside for w in g._adj[u] if w > u and w in inside]
        kids = [(bags[c], memo[c, b]) for c in nbrs[b] if c != p]
        size = len(inside) + sum(count - len(inside.intersection(kid)) for kid, (count, _) in kids)
        best: dict[tuple[int, ...], int] = {}
        if b == bag:
            taus = [shared]
        else:
            taus = permutations(shared)
            memo[b, p] = (size, best)
        for tau, rest in product(taus, permutations(private)):
            sigma = tau + rest
            pos = {v: i for i, v in enumerate(sigma)}
            entries = []
            for kid, (_, traces) in kids:
                at = sorted(pos[v] for v in kid if v in pos)
                entries.append((len(at), *at, ~traces[tuple(sigma[i] for i in at)]))
            out = _header(pos, edges, size, len(kids))
            for entry in sorted(entries, key=tracer.sort_key):
                out.extend(entry)
            t = tracer.intern(tuple(out))
            if tau not in best or tracer.less(t, best[tau]):
                best[tau] = t
    return best


def _kid(
    g: Graph, s: tuple[int, ...], bag: Sequence[int], size: int, splits: list[int]
) -> tuple:
    """A child bag of the root bag s, of a subtree of size vertices, with
    what its trace entry opens with: its edges from s as (s vertex, child
    vertex) pairs, its inner edges, and the fields after its subtree size
    that splits, the articulation counts of g, give away.

    Those fields are known when s is one vertex v and the bag one vertex u.
    Then u is v's only neighbour in its component C of G - v, so the
    components of G - u are the one holding v (G - C is v and the other
    components of G - v, all joined to v) and those of C - u.  u thus has
    splits[u] - 1 child bags, all hung from the separating set {u}: its
    trace goes on with the separating-set count 1 and the head (1, 0,
    splits[u] - 1) of that set's block, or with the count 0 alone.  For a
    larger root set G - C may fall apart, and the count no longer gives
    the child bags, so nothing is added."""
    adj = g._adj
    inner = set(bag)
    pairs = [(m, w) for w in bag for m in adj[w] if m in s]
    edges = [(u, w) for u in bag for w in adj[u] if w > u and w in inner]
    tail = ()
    if len(s) == 1 and len(bag) == 1:
        count = splits[bag[0]] - 1
        tail = (1, 1, 0, count) if count else (0,)
    return bag, pairs, edges, size, tail


def _entry_head(pos: dict[int, int], kid: tuple) -> tuple[int, ...]:
    """Opening of kid's entry under the root bag positions pos, least over
    the child bag's orderings: the bipartite code, relative depth 2, the
    child's header up to its subtree size, and the fields _kid read off the
    articulation counts, if any (the same under every ordering of a
    one-vertex bag)."""
    bag, pairs, edges, size, tail = kid
    best = None
    for phi in _orderings(bag):
        child_pos = {v: i for i, v in enumerate(phi)}
        head = _header(child_pos, edges, size, 0)
        head.pop()
        entry = _bip_code(pos, child_pos, pairs) + (2, *head)
        if best is None or entry < best:
            best = entry
    return best + tail


def _root_prefix(
    g: Graph,
    s: tuple[int, ...],
    seps: dict[tuple[int, ...], int],
    kids: dict[tuple[int, ...], list[tuple]] | None = None,
) -> tuple[int, ...]:
    """Opening of root set s's minimal trace, from its separating sets.

    Depth 0, the header of the root bag (the whole graph as subtree) and,
    when there is a separating set, the least block head.  Blocks are sorted
    and each head is self-delimiting, so the first block starts with the
    least head, and no two sets share a head.  When kids maps each
    separating set to its child bags (see _kid), the first child entry's
    opening (see _entry_head) follows: entries are sorted too, so the least
    one over the least head's child bags and their orderings starts the
    first block's entries.  Every field is self-delimiting, so minimised
    over the root bag's orderings this tuple is an exact prefix of the least
    trace, and comparing two root sets' prefixes orders their traces
    whenever the prefixes differ.
    """
    adj = g._adj
    inside = set(s)
    edges = [(u, w) for u in s for w in adj[u] if w > u and w in inside]
    best = None
    for sigma in _orderings(s):
        pos = {v: i for i, v in enumerate(sigma)}
        out = [0, *_header(pos, edges, g.vertex_count, len(seps))]
        if seps:
            head, sep = min((_sep_head(pos, sep, count), sep) for sep, count in seps.items())
            out += head
            if kids is not None:
                out += min(_entry_head(pos, kid) for kid in kids[sep])
        if best is None or out < best:
            best = out
    return tuple(best)


def _entry_prefix(
    g: Graph,
    s: tuple[int, ...],
    cap: int,
    splits: list[int],
    comps: list[tuple] | None = None,
) -> tuple[int, ...] | None:
    """Root set s's root prefix through its first child entry (see
    _root_prefix), from the components comps of G - S when given and the
    articulation counts splits of g (see _kid); None when a child bag holds
    more than cap vertices, as no decomposition rooted at s then fits cap."""
    if comps is None:
        comps = _components(g, s, cap)
        if comps is None:
            return None
    kids: dict[tuple[int, ...], list[tuple]] = {}
    for sep, bag, size in comps:
        kids.setdefault(sep, []).append(_kid(g, s, bag, size, splits))
    return _root_prefix(g, s, {sep: len(group) for sep, group in kids.items()}, kids)


def _root_search(tracer: _Tracer, k: int) -> list[tuple[int, ...]] | None:
    """The root sets of tracer.g with a decomposition of width at most k
    that may carry the least trace; None when no root set fits k.

    Every trace starts (0, |S|, ...), so sizes are tried in increasing
    order.  Within a size, root sets are ranked in two stages, each by an
    exact prefix of their least traces.  All are ranked by their root
    prefix (see _root_prefix), read from the components of G - S, where a
    root set with a depth-1 bag above k drops out; a single vertex is only
    checked by its degree, against k per component, and its root prefix
    depends on its separating-set count alone, so it is computed once per
    count.  Each group of equal root prefixes is ranked again by the longer
    prefix through the first child entry (_entry_prefix), which for a
    single vertex whose first child bag is one vertex u goes on with u's
    separating-set fields, read off the articulation counts splits (see
    _kid).  Equal root prefixes have equal root-set sizes, and a one-vertex
    root set's entries open with their child bag's size (its edge count
    from the root vertex), so two members of a group either both carry
    those fields or both lack them.  The second stage reuses the components
    known from the first, and a cut vertex with a depth-1 bag above k drops
    out there, before its child orderings are enumerated.  Root pairs (S,
    None) are traced under the cap k one equal-prefix group at a time, and
    the first group with an admissible member, one the walk does not
    refuse, is returned, its admissible members only, in combinations
    order.  The empty graph's one root set is empty and has nothing to
    trace."""
    g = tracer.g
    if not is_connected(g):
        raise DisconnectedGraphError("tree distance decompositions need a connected graph")
    n = g.vertex_count
    if n == 0:
        return [] if k >= 0 else None
    splits = _articulation_counts(g)
    single: dict[int, tuple[int, ...]] = {}

    def prefix(s: tuple[int, ...], seps: dict) -> tuple[int, ...]:
        if len(s) > 1:
            return _root_prefix(g, s, seps)
        count = splits[s[0]]
        if count not in single:
            single[count] = _root_prefix(g, s, seps)
        return single[count]

    for size in range(1, min(k, n) + 1):
        ranked = sorted(
            (
                (prefix(s, found[0]), s, found[1])
                for s in combinations(range(n), size)
                if (found := _sep_counts(g, s, splits, k)) is not None
            ),
            key=itemgetter(0),
        )
        for _, ties in groupby(ranked, key=itemgetter(0)):
            finer = sorted(
                (
                    (key, s)
                    for _, s, comps in ties
                    if (key := _entry_prefix(g, s, k, splits, comps)) is not None
                ),
                key=itemgetter(0),
            )
            for _, group in groupby(finer, key=itemgetter(0)):
                group = [s for _, s in group if tracer.traces(s, (s, None), n, k) is not None]
                if group:
                    return group
    return None


def _min_trace(tree: AugmentedTree, node: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Least trace of a bag node over its bag's orderings, and the first
    ordering reaching it."""
    tracer = tree._tracer
    if tracer is None:
        tracer = tree._tracer = _Tracer(tree.graph)
    bag = tuple(sorted(tree.vertices[node]))
    parent = tuple(sorted(tree.vertices[tree.parent[tree.parent[node]]])) if node else None
    root = tuple(sorted(tree.vertices[0]))
    traces = tracer.traces(root, (bag, parent), tree.sizes[node], tree.graph.vertex_count)
    sigma = tracer.least(traces)
    return _read_out(tracer, (bag, parent), sigma)[0], sigma


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
    bags = tuple(tuple(sorted(h.tree.vertices[h.node])) for h in (left, right))
    if (theta.left, theta.right) != bags:
        raise ValueError("theta orderings must arrange the compared bags")
    t_left, _ = _min_trace(left.tree, left.node)
    t_right, _ = _min_trace(right.tree, right.node)
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
    sigma: tuple[int, ...]
    positions: tuple[int, ...]


# Graphs whose canonisation state stays cached; an entry is the least trace,
# its root set and ordering, and the canonical map, but no tracer: the pair
# records and the interned traces go once the map is read off.
# Large enough for all-pairs iso_tdw over the 434 connected graphs with
# n <= 7 and width <= 2.
_CANON_CACHE_SIZE = 512


@lru_cache(maxsize=_CANON_CACHE_SIZE)
def _canon_state(g: Graph, k: int) -> _CanonState | None:
    """Least trace over the group _root_search returns, read off the traces
    its walks made in one tracer that serves every root set; the first
    minimiser in combinations order, then ordering order, wins.  Its trace
    and canonical map come from one walk over the child orders recorded
    while tracing (see _read_out), and the tracer is then dropped.  None
    when no root set fits k; the empty graph's trace and map are empty."""
    tracer = _Tracer(g)
    found = _root_search(tracer, k)
    if found is None:
        return None
    traces = {(s, sigma): t for s in found for sigma, t in tracer.pairs[s, None].traces.items()}
    best = tracer.least(traces)
    if best is None:
        return _CanonState((), (), (), ())
    s, sigma = best
    trace, order = _read_out(tracer, (s, None), sigma)
    return _CanonState(trace, s, sigma, inverse_permutation(order))


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

    Positions follow the depth-first walk of the winner's pair records from
    (root set, None), children in their least block order, under the
    minimizing orderings; exact ties keep the first minimizer in
    lexicographic ordering order, so the map is deterministic.  The walk is
    the one that writes out the trace, made once, when the state is cached,
    from the child orders the traces recorded, so this call traces nothing.
    """
    state = _canon_state(g, k)
    if state is None:
        raise WidthExceededError(f"tree distance width exceeds {k}")
    return state.positions
