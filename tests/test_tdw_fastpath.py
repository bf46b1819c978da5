"""Invariants of the tdw canonisation fast path.

The minimal decomposition builder is checked against the definition, the
canonisation search that stops at the first admissible root-set size is
checked against the minimum over every root set, and so is the width query,
a minimum over root-set builds that reaches no trace.  The two prefixes that
rank root sets (read from the components of G - S), the root prefix and the
longer one through the first child entry, are checked against the
decomposition-based reference and the full trace, on random graphs and on
trees whose leaves tie (with a one-vertex child's separating-set fields),
the articulation counts behind the single-vertex prefixes against a
component count, and the canonical bytes and maps of a few fixed graphs, the
canonisation states and maps of 360 seeded graphs and of 200 seeded trees
and the augmented-tree order over a fixed pool are pinned.  The (bag,
parent bag) pair records that root sets share are checked against built
decompositions, capped walks and builds against their widths, and paths, a
caterpillar, a path with a second leaf, a cycle with a pendant vertex and
the width query against the builds and walks they may make, and a ladder's
width query against component searches; after the search no pair record
holds a bag above k.
The winner's trace and canonical map are read out by one walk over the
child orders the traces recorded: canonical_map traces nothing, the cache
holds no tracer, and a corrupt order (a child bag listed twice, dropped or
foreign, or an ordering of the right child bag whose trace id is not the
one in its parent's fields) raises InternalError; a single vertex's root
prefix is computed once per separating-set count.  Deep paths
and a deep spider check that no tdw traversal depends on the interpreter's
recursion limit, and that a relabelled 4,000-vertex path is canonised in
bounded memory.
"""

import gc
import hashlib
import inspect
import random
import sys
import time
import tracemalloc
from itertools import chain, combinations, islice

import pytest

from widthiso import (
    Graph,
    InternalError,
    NoAdmissibleMappingError,
    OrderResult,
    build_augmented_tree,
    build_minimal_tdd,
    canon_tdw,
    canonical_map,
    compare_augmented,
    compose_permutations,
    connected_components,
    enumerate_connected_graphs,
    full_theta,
    inverse_permutation,
    is_isomorphism,
    iso_tdw,
    tree_distance_width,
    validate_tdd,
)
from widthiso import isoorder, tdd
from widthiso.cli import main
from widthiso.formats import write_graph
from widthiso.generate import random_relabel
from widthiso.isoorder import (
    _CANON_CACHE_SIZE,
    _Tracer,
    _canon_state,
    _entry_prefix,
    _min_trace,
    _root_prefix,
    _root_search,
    _serialize,
)
from widthiso.graph import _articulation_counts, induced_subgraph
from widthiso.tdd import _build, _sep_counts

from helpers import (
    benchmark_inputs,
    child_groups,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    random_narrow_graph,
    root_prefix,
    spider_graph,
    star_graph,
)


def _random_connected(rng: random.Random, n: int) -> Graph:
    """A random spanning tree plus extra edges of a random density."""
    p = rng.choice([0.0, 0.1, 0.25, 0.5])
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def _graphs(seed: int, count: int, max_n: int) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(1, max_n)
        out.append(random_narrow_graph(rng, max(n, 2)) if i % 2 else _random_connected(rng, n))
    return out


@pytest.mark.parametrize("g", _graphs(2024, 16, 12), ids=lambda g: f"n{g.vertex_count}m{g.edge_count}")
def test_build_matches_definition(g):
    """The renumbered decomposition is valid, and the builder's rows list
    each bag's children before it, in content order, with the root last.
    Under a cap the builder refuses exactly the root sets whose
    decomposition is wider."""
    n = g.vertex_count
    for size in range(1, min(3, n) + 1):
        for s in combinations(range(n), size):
            d = build_minimal_tdd(g, s)
            assert validate_tdd(g, d) == []
            for cap in range(1, n + 1):
                assert (_build(g, s, cap) is None) == (d.width() > cap)
            bags, parent, _ = _build(g, s, n)
            root = len(bags) - 1
            assert bags[root] == s and parent[root] == root
            assert all(i < p for i, p in enumerate(parent[:root]))
            siblings: dict[int, list] = {}
            for i in range(root):
                siblings.setdefault(parent[i], []).append(bags[i])
            assert all(kids == sorted(kids) for kids in siblings.values())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_early_stop_keeps_least_trace(k):
    for g in _graphs(77 + k, 24, 9):
        found = []
        for size in range(1, min(k, g.vertex_count) + 1):
            for s in combinations(range(g.vertex_count), size):
                d = build_minimal_tdd(g, s)
                if d.width() <= k:
                    tree = build_augmented_tree(g, d, check=False)
                    found.append((*_min_trace(tree, 0), s))
        state = _canon_state(g, k)
        if found:
            least = min(trace for trace, _, _ in found)
            first = next(f for f in found if f[0] == least)
            assert state is not None
            assert (state.trace, state.sigma, state.root_set) == first
        else:
            assert state is None


def _bound_orderings(monkeypatch, k: int) -> None:
    """Fail at once where isoorder would enumerate the orderings of a bag
    of more than k vertices, as a bag of 11 has 11! of them."""
    orderings = isoorder._orderings

    def bounded(bag):
        assert len(bag) <= k, f"ordered a bag of {len(bag)} vertices"
        return orderings(bag)

    monkeypatch.setattr(isoorder, "_orderings", bounded)


def _prefix_graphs(rng: random.Random) -> list[Graph]:
    """60 random connected graphs with 1 to 12 vertices, then 40 trees with
    2 to 12 of the benchmark's four shapes (a spider has at least 6), whose
    leaves tie through the root prefix and the first child's size."""
    inputs = benchmark_inputs()
    shapes = list(inputs.TREE_SHAPES.values())
    graphs = [_random_connected(rng, rng.randint(1, 12)) for _ in range(60)]
    for i in range(40):
        shape = shapes[i % 4]
        n = rng.randint(6 if shape is inputs.spider else 2, 12)
        graphs.append(random_relabel(Graph(n, shape(n, rng)), seed=rng.randrange(1 << 30))[0])
    return graphs


@pytest.mark.parametrize("k", [1, 2, 3])
def test_root_prefix_opens_min_trace(k, monkeypatch):
    """The root prefix of every root set matches the reference read off the
    built decomposition.  The longer prefix through the first child entry
    is None exactly where a depth-1 bag exceeds k, so that no such root set
    is ranked by it; elsewhere it matches the reference, with or without the
    components searched for the root prefix, and both open the least trace
    where the width fits k.  On the trees, the single-vertex root sets with
    a one-vertex first child bag carry that child's separating-set fields
    from the articulation counts."""
    _bound_orderings(monkeypatch, k)
    rng = random.Random(500 + k)
    checked = longer = 0
    for g in _prefix_graphs(rng):
        splits = _articulation_counts(g)
        for size in range(1, min(k, g.vertex_count) + 1):
            for s in combinations(range(g.vertex_count), size):
                d = build_minimal_tdd(g, s)
                seps, _ = _sep_counts(g, s, splits, g.vertex_count)
                prefix = _root_prefix(g, s, seps)
                assert prefix == root_prefix(g, d, entry=False)
                wide = any(len(d.bags[c]) > k for c in d.children(d.root))
                key = _entry_prefix(g, s, k, splits)
                assert (key is None) == wide
                found = _sep_counts(g, s, splits, k)
                if found is None:
                    assert wide
                    continue
                assert _entry_prefix(g, s, k, splits, found[1]) == key
                if wide:
                    continue
                assert key == root_prefix(g, d)
                assert key[: len(prefix)] == prefix
                if size == 1 and key[len(prefix) : len(prefix) + 1] == (1,):
                    # a one-vertex child bag: bipartite code (1, 0, 0), depth
                    # 2, bag size 1, no edges, subtree size, then the fields
                    # that the articulation counts give
                    assert len(key) - len(prefix) in (8, 11)
                    longer += 1
                if d.width() > k:
                    continue
                tree = build_augmented_tree(g, d, check=False)
                trace, _ = _min_trace(tree, 0)
                assert trace[: len(key)] == key
                checked += 1
    assert checked >= 100 and longer >= 100


def _two_hubs() -> Graph:
    """Two hubs u = 0 and w = 1, each with 4 pendant leaves and 11
    neighbours all joined to one vertex (x for u, y for w), and the edge
    x-y: 34 vertices."""
    edges = [(32, 33)]
    nxt = 2
    for hub, far in ((0, 32), (1, 33)):
        for _ in range(4):
            edges.append((hub, nxt))
            nxt += 1
        for _ in range(11):
            edges += [(hub, nxt), (nxt, far)]
            nxt += 1
    return Graph(34, edges)


def test_wide_cut_vertices_order_no_wide_bag(monkeypatch):
    """Both hubs pass the degree check at k = 3 (degree 15 against 3 for
    each of 5 components) and share the root prefix, but each holds its 11
    far neighbours in one depth-1 bag.  Ranking must drop them without
    enumerating that bag's 11! orderings: no bag above k is ever ordered,
    and the canon state is still the first least trace over all root sets."""
    g = _two_hubs()
    splits = _articulation_counts(g)
    assert splits[0] == splits[1] == 5 and g.degree(0) == g.degree(1) == 15
    assert _root_prefix(g, (0,), _sep_counts(g, (0,), splits, 3)[0]) == _root_prefix(
        g, (1,), _sep_counts(g, (1,), splits, 3)[0]
    )
    _bound_orderings(monkeypatch, 3)
    assert _entry_prefix(g, (0,), 3, splits) is None
    _canon_state.cache_clear()
    start = time.perf_counter()
    state = _canon_state(g, 3)
    assert tree_distance_width(g, 3) == 3
    assert time.perf_counter() - start < 10
    monkeypatch.undo()
    found = []
    for size in range(1, 4):
        for s in combinations(range(g.vertex_count), size):
            d = build_minimal_tdd(g, s)
            if d.width() <= 3:
                found.append((*_min_trace(build_augmented_tree(g, d, check=False), 0), s))
    least = min(trace for trace, _, _ in found)
    assert (state.trace, state.sigma, state.root_set) == next(f for f in found if f[0] == least)


ARTICULATION_GRAPHS = [
    Graph(1),
    Graph(2),
    Graph(2, [(0, 1)]),
    path_graph(7),
    star_graph(5),
    spider_graph(1, 2, 3),
    *(cycle_graph(n) for n in (3, 4, 7)),
    *(complete_graph(n) for n in (3, 4, 6)),
    *(random_graph(n, p, seed) for n, p, seed in ((9, 0.15, 1), (12, 0.2, 2), (14, 0.3, 3))),
    *(_random_connected(random.Random(seed), 14) for seed in range(6)),
]


@pytest.mark.parametrize(
    "g", ARTICULATION_GRAPHS, ids=lambda g: f"n{g.vertex_count}m{g.edge_count}"
)
def test_articulation_counts_match_components(g):
    assert _articulation_counts(g) == [
        len(connected_components(g, [v])) for v in range(g.vertex_count)
    ]


def _count_builds(monkeypatch) -> tuple[list, list]:
    """Root sets that isoorder builds a decomposition for, and root pairs
    (S, None) that a tracer walks from, from now on."""
    built, entered = [], []

    def counting(g, s, cap):
        built.append(s)
        return _build(g, s, cap)

    def walking(tracer, s, key, size, cap):
        if key[1] is None:
            entered.append(s)
        return traces(tracer, s, key, size, cap)

    traces = _Tracer.traces
    monkeypatch.setattr(isoorder, "_build", counting)
    monkeypatch.setattr(_Tracer, "traces", walking)
    return built, entered


def test_path_traces_only_its_ends(monkeypatch):
    g, _ = random_relabel(path_graph(60), seed=9)
    built, entered = _count_builds(monkeypatch)
    _canon_state.cache_clear()
    canon_tdw(g, 1)
    assert built == []
    assert sorted(entered) == sorted((v,) for v in range(60) if g.degree(v) == 1)


def _count_width_builds(monkeypatch) -> list:
    """Root sets that the width query builds a decomposition for, from now on."""
    built = []

    def counting(g, s, cap):
        built.append(s)
        return _build(g, s, cap)

    monkeypatch.setattr(tdd, "_build", counting)
    return built


def test_path_width_builds_only_its_ends(monkeypatch):
    """Every single vertex of a path roots a decomposition of width 1, the
    least a root set can have, so the first one built decides the width."""
    g, _ = random_relabel(path_graph(300), seed=4)
    built = _count_width_builds(monkeypatch)
    _, entered = _count_builds(monkeypatch)
    cached = _canon_state.cache_info()
    assert tree_distance_width(g, 3) == 1
    assert built == [(0,)]
    assert entered == []
    assert _canon_state.cache_info() == cached


def test_width_builds_each_root_set_once(monkeypatch):
    """tree_distance_width takes each root set once, in order of size, and
    builds it at most once; it reads connectivity and the articulation
    counts once per query, through tdd's own bindings, and touches no trace
    or prefix."""
    rng = random.Random(5)
    graphs = []
    for _ in range(60):
        g = random_narrow_graph(rng, rng.randint(8, 20))
        graphs.append(random_relabel(g, seed=rng.randrange(10**6))[0])
    built = _count_width_builds(monkeypatch)
    setup = []

    def counted(module, name):
        read = getattr(module, name)
        return lambda g: setup.append(name) or read(g)

    monkeypatch.setattr(tdd, "is_connected", counted(tdd, "is_connected"))
    monkeypatch.setattr(tdd, "_articulation_counts", counted(tdd, "_articulation_counts"))

    def fail(*args, **kwargs):
        raise AssertionError("the width query reached the trace engine")

    monkeypatch.setattr(_Tracer, "traces", fail)
    for name in ("_root_search", "_root_prefix", "_entry_prefix"):
        monkeypatch.setattr(isoorder, name, fail)
    repeats = 0
    for g in graphs:
        built.clear()
        setup.clear()
        assert tree_distance_width(g, 3) is not None
        repeats += len(built) - len(set(built))
        assert setup == ["is_connected", "_articulation_counts"]
    assert repeats == 0


def _ladder_corners_last(rungs: int, seed: int) -> Graph:
    """A ladder of rungs rungs, its inner vertices relabelled at random and
    its four corners numbered last."""
    n = 2 * rungs
    edges = [(2 * i, 2 * i + 1) for i in range(rungs)]
    edges += [(v, v + 2) for v in range(n - 2)]
    corners = [0, 1, n - 2, n - 1]
    inner = list(range(2, n - 2))
    random.Random(seed).shuffle(inner)
    label = {v: i for i, v in enumerate(inner + corners)}
    return Graph(n, [(label[u], label[v]) for u, v in edges])


def test_ladder_width_refuses_single_vertices_by_articulation_count(monkeypatch):
    """Every inner vertex of a ladder has degree 3 and cuts nothing, so its
    one child bag is too wide for k = 2; the articulation counts refuse each
    without a component search, and the first corner, numbered after all of
    them, is the only root set built.  A component search per vertex made
    this quadratic."""
    g = _ladder_corners_last(1000, seed=0)
    built = _count_width_builds(monkeypatch)
    searched = []
    components = tdd._components

    def counted(g, s, cap):
        searched.append(s)
        return components(g, s, cap)

    monkeypatch.setattr(tdd, "_components", counted)
    assert tree_distance_width(g, 2) == 2
    assert len(searched) == 0
    assert built == [(1996,)]


def test_pendant_cycle_builds_only_the_pendant(monkeypatch):
    """On a 5-cycle with one pendant vertex, the pendant and the four cycle
    vertices of degree 2 share the root prefix.  The first child entry sets
    the pendant apart, its one neighbour against two, so only it is built."""
    original = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)])
    g, perm = random_relabel(original, seed=3)
    expected = canon_tdw(original, 2)
    _canon_state.cache_clear()
    built, entered = _count_builds(monkeypatch)
    assert canon_tdw(g, 2) == expected
    assert built == entered == [(perm[5],)]


def _caterpillar(n: int, seed: int) -> Graph:
    """A spine of 0.6 n vertices, the other vertices hung on random spine vertices."""
    rng = random.Random(seed)
    spine = int(0.6 * n)
    edges = [(v, v + 1) for v in range(spine - 1)]
    edges += [(rng.randrange(spine), v) for v in range(spine, n)]
    return Graph(n, edges)


def test_caterpillar_builds_at_most_once(monkeypatch):
    """Every leaf survives the root prefix, and the first child entry keeps
    only the leaves whose neighbour has the least articulation count; the
    first one builds, and every later one re-roots through the pairs
    already recorded."""
    original = _caterpillar(2000, seed=1)
    g, perm = random_relabel(original, seed=5)
    expected = (canon_tdw(original, 1), canonical_map(original, 1))
    splits = _articulation_counts(g)
    leaves = {v: g.neighbors(v)[0] for v in range(2000) if g.degree(v) == 1}
    least = min(splits[u] for u in leaves.values())
    built, entered = _count_builds(monkeypatch)
    tracemalloc.start()
    try:
        form, cmap = canon_tdw(g, 1), canonical_map(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(built) <= 1
    assert sorted(entered) == sorted((v,) for v, u in leaves.items() if splits[u] == least)
    assert peak < 100 * 2**20
    assert form == expected[0]
    assert is_isomorphism(g, original, compose_permutations(inverse_permutation(expected[1]), cmap))


def test_leaves_split_by_their_neighbours_articulation_counts(monkeypatch):
    """The path 0-1-2-3-4 with the leaf 5 on vertex 3: the leaves 0, 4 and 5
    share the root prefix and the first child's subtree size, but 0's
    neighbour leaves one component behind it and 3 leaves two, so only 0
    is walked."""
    original = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)])
    g, perm = random_relabel(original, seed=2)
    expected = canon_tdw(original, 1)
    _canon_state.cache_clear()
    _, entered = _count_builds(monkeypatch)
    assert canon_tdw(g, 1) == expected
    assert entered == [(perm[0],)]


@pytest.mark.parametrize(
    "original,k",
    [
        (_caterpillar(300, seed=2), 1),
        (spider_graph(4, 4, 2, 7), 1),
        (Graph(40, benchmark_inputs().layered_tdw2(40, random.Random(4))), 2),
    ],
    ids=["caterpillar", "spider", "layered40"],
)
def test_map_is_read_off_the_recorded_orders(original, k, monkeypatch):
    """The traces keep the child order each of them chose, so once
    canon_tdw has run, canonical_map neither splits a bag nor traces one."""
    expected = canonical_map(original, k)
    g, _ = random_relabel(original, seed=8)
    _canon_state.cache_clear()
    canon_tdw(g, k)

    def fail(*args):
        raise AssertionError("canonical_map traced again")

    monkeypatch.setattr(_Tracer, "local", fail)
    monkeypatch.setattr(isoorder, "bag_split", fail)
    cmap = canonical_map(g, k)
    assert is_isomorphism(g, original, compose_permutations(inverse_permutation(expected), cmap))


def test_cache_keeps_the_map_not_the_tracer():
    """A cached state is the trace, root set, ordering and map: tuples of
    integers, no tracer, and for a relabelled 2,000-vertex caterpillar less
    than 0.6 MB once the results are dropped (2.3 MB with the tracer)."""
    g, _ = random_relabel(_caterpillar(2000, seed=1), seed=5)
    _canon_state.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        form, cmap = canon_tdw(g, 1), canonical_map(g, 1)
        del form, cmap
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    state = _canon_state(g, 1)
    assert not any(isinstance(x, _Tracer) for x in gc.get_referents(state))
    assert all(isinstance(v, int) for field in state for v in field)
    assert sorted(state.positions) == list(range(2000))
    assert held < 0.6 * 2**20


def _other_ordering(order, tracer, bag):
    """order with its first child bag's ordering swapped for one under
    which that child's trace id differs."""
    c, phi = order[:2]
    traces = tracer.pairs[c, bag].traces
    other = next((psi for psi in traces if traces[psi] != traces[phi]), phi)
    return (c, other, *order[2:])


# A 5-cycle with a chord: at k = 2 its least root set (1,) has the child
# bag (0, 3), whose two orderings give different traces.
_HOUSE = Graph(5, [(0, 1), (0, 2), (0, 4), (1, 3), (2, 4), (3, 4)])


@pytest.mark.parametrize(
    "corrupt, g, k",
    [
        (lambda order, tracer, bag: order * 2, star_graph(6), 1),
        (lambda order, tracer, bag: (), star_graph(6), 1),
        (lambda order, tracer, bag: ((tracer.g.vertex_count - 1,),) + order[1:], star_graph(6), 1),
        (_other_ordering, _HOUSE, 2),
    ],
    ids=["child twice", "child dropped", "foreign bag", "other ordering"],
)
def test_map_walk_refuses_a_corrupt_order(corrupt, g, k, monkeypatch):
    """The read-out walk follows the recorded child orders, checks each
    child's trace id against its parent's fields and lists every vertex
    exactly once, or raises InternalError: here each root pair's first
    recorded order lists its child bags twice or not at all, swaps in a bag
    not recorded under it, or keeps its first child bag but swaps in an
    ordering of it under which that child's trace differs."""
    traces = _Tracer.traces

    def corrupting(tracer, s, start, size, cap):
        out = traces(tracer, s, start, size, cap)
        rec = tracer.pairs[start]
        if start[1] is None:
            sigma = next(iter(rec.orders))
            rec.orders[sigma] = corrupt(rec.orders[sigma], tracer, start[0])
        return out

    monkeypatch.setattr(_Tracer, "traces", corrupting)
    _canon_state.cache_clear()
    with pytest.raises(InternalError):
        canonical_map(g, k)


def _corrupt_recount(tracer):
    tracer.pairs[(0,), None].size = 4
    return (0,)


def _corrupt_oversized_child(tracer):
    tracer.pairs[(3,), (2,)].size = 4
    return (2,)


def _corrupt_undersized_child(tracer):
    tracer.pairs[(3,), (2,)].size = 1
    return (2,)


def _corrupt_overlapping_child(tracer):
    tracer._pair((3, 4), (2,), 2)
    return (2,)


@pytest.mark.parametrize(
    "corrupt, roots, message",
    [
        (_corrupt_recount, [0], "counted 4 and 5"),
        (_corrupt_oversized_child, [0], "counts 0 vertices"),
        (_corrupt_undersized_child, [0, 4], "miss 1 vertices"),
        (_corrupt_overlapping_child, [0, 4], "lies in two child bags"),
    ],
    ids=["size recounted", "size zero", "children miss vertices", "two child bags"],
)
def test_tracer_refuses_a_corrupt_pair_record(corrupt, roots, message):
    """On the path 0-1-2-3-4 under cap 1, the root sets in roots are traced,
    then one record is corrupted and the root set corrupt returns is traced:
    the root pair (0,) with its size changed is met again with another
    count; the re-rooting of (2,), with only the child (3,) known, counts
    its new child (1,) as empty once (3,)'s size is too large; with both
    children known, they leave a vertex over once (3,)'s size is too small;
    and a bogus child (3, 4) recorded under (2,) shares vertex 3 with (3,).
    Each raises InternalError."""
    tracer = _Tracer(path_graph(5))
    for v in roots:
        assert tracer.traces((v,), ((v,), None), 5, 1) is not None
    s = corrupt(tracer)
    with pytest.raises(InternalError, match=message):
        tracer.traces(s, (s, None), 5, 1)


def test_read_out_refuses_a_root_pair_of_the_wrong_size():
    """The canonical walk lists every vertex of the root pair once: with the
    pair's recorded size raised by one, reading out its trace raises."""
    tracer = _Tracer(path_graph(5))
    key = ((2,), None)
    traces = tracer.traces((2,), key, 5, 1)
    assert traces is not None
    isoorder._read_out(tracer, key, next(iter(traces)))
    tracer.pairs[key].size += 1
    with pytest.raises(InternalError, match="lists 5 vertices for 6"):
        isoorder._read_out(tracer, key, next(iter(traces)))


@pytest.mark.parametrize("g", [_caterpillar(400, seed=3), star_graph(30)], ids=["caterpillar", "star"])
def test_single_vertex_prefix_once_per_count(g, monkeypatch):
    """A single vertex's root prefix depends on its separating-set count
    alone: canonisation computes it at most once per count, and the width
    query computes no prefix at all."""
    g, _ = random_relabel(g, seed=6)
    splits = _articulation_counts(g)
    calls, counts = [], []

    def counting(graph, s, seps, kids=None):
        calls.append(s)
        if len(s) == 1 and kids is None:
            counts.append(splits[s[0]])
        return _root_prefix(graph, s, seps, kids)

    monkeypatch.setattr(isoorder, "_root_prefix", counting)
    _canon_state.cache_clear()
    canon_tdw(g, 1)
    assert counts and len(counts) == len(set(counts))
    calls.clear()
    assert tree_distance_width(g, 3) == 1
    assert calls == []


def _subtree_reference(g: Graph, bag: tuple[int, ...], parent) -> tuple[int, list]:
    """Vertex count and child bags of the subtree below bag hung from
    parent: the minimal decomposition of the component of G - parent that
    holds bag, rooted at bag."""
    comp = next(c for c in connected_components(g, parent or ()) if bag[0] in c)
    sub, index = induced_subgraph(g, comp)
    d = build_minimal_tdd(sub, [index[v] for v in bag])
    kids = sorted(tuple(sorted(comp[v] for v in d.bags[c])) for c in d.children(d.root))
    return len(comp), kids


@pytest.mark.parametrize("seed", range(4))
def test_pair_records_match_built_decompositions(seed, monkeypatch):
    """One tracer per graph walks every root set of size <= 3, in shuffled
    order, under a cap k of 1 to 3, and refuses exactly the root sets whose
    decomposition is wider than k.  Each pair an admitted root set reaches
    is checked once, against the built decomposition and child_groups (its
    split is augtree.bag_split of those child bags); at the end every record
    holds a bag of at most k and is checked against the decomposition of
    its own subtree, its child bags where a walk has split it."""
    rng = random.Random(seed)
    built, _ = _count_builds(monkeypatch)
    subtracted = deep_misfits = 0
    reroot = _Tracer._reroot

    def counting_reroot(tracer, bag, parent, rec):
        nonlocal subtracted
        before = len(tracer.pairs)
        done = reroot(tracer, bag, parent, rec)
        subtracted += len(tracer.pairs) > before
        return done

    monkeypatch.setattr(_Tracer, "_reroot", counting_reroot)
    for i in range(50):
        n = rng.randint(2, 12)
        g = random_narrow_graph(rng, n) if i % 2 else _random_connected(rng, n)
        g, _ = random_relabel(g, seed=rng.randrange(1, 10**6))
        k = rng.choice([1, 2, 3])
        splits = _articulation_counts(g)
        tracer = _Tracer(g)
        roots = [s for size in (1, 2, 3) for s in combinations(range(n), size)]
        rng.shuffle(roots)
        checked = set()
        for s in roots:
            d = build_minimal_tdd(g, s)
            refused = tracer.traces(s, (s, None), n, k) is None
            assert refused == (d.width() > k)
            if refused:
                deep_misfits += len(s) <= k and _sep_counts(g, s, splits, k) is not None
                continue
            for b, bag in enumerate(d.bags):
                key = (bag, d.bags[d.parent[b]] if b != d.root else None)
                if key in checked:
                    continue
                checked.add(key)
                rec = tracer.pairs[key]
                kids = sorted(d.bags[c] for c in d.children(b))
                assert (rec.size, list(rec.kids)) == (d.subtree_sizes[b], kids)
                assert kids == child_groups(g, s, bag)
        for (bag, parent), rec in tracer.pairs.items():
            size, kids = _subtree_reference(g, bag, parent)
            assert len(bag) <= k
            assert rec.size == size
            assert rec.kids is None or list(rec.kids) == kids
    assert built and subtracted and deep_misfits


def test_root_search_records_no_bag_above_k():
    """The search walks each root set under the cap k: a build is refused at
    its first bag above k and records nothing, so after the search over
    relabelled layered tdw-2 graphs of 20 to 45 vertices, drawn as the
    benchmark draws them, no pair record holds a bag above 2."""
    inputs = benchmark_inputs()
    rng = random.Random(3)
    wide = []
    for _ in range(40):
        n = rng.randint(20, 45)
        g = Graph(n, inputs.relabel(n, inputs.layered_tdw2(n, rng), rng)[0])
        tracer = _Tracer(g)
        assert _root_search(tracer, 2)
        wide += [bag for bag, _ in tracer.pairs if len(bag) > 2]
    assert wide == []


def test_width_is_least_over_all_root_sets():
    for g in _graphs(31, 40, 11):
        n = g.vertex_count
        least = min(
            build_minimal_tdd(g, s).width()
            for size in range(1, n + 1)
            for s in combinations(range(n), size)
        )
        for k in range(5):
            assert tree_distance_width(g, k) == (least if least <= k else None)


def test_serialize_rejects_values_outside_32_bits():
    assert _serialize((0, 1, (1 << 32) - 1)) == bytes(4) + bytes([0, 0, 0, 1]) + b"\xff" * 4
    for bad in ((1 << 32,), (3, -1)):
        with pytest.raises(InternalError):
            _serialize(bad)


def test_canon_cache_is_bounded_and_eviction_keeps_output():
    assert _canon_state.cache_info().maxsize == _CANON_CACHE_SIZE < float("inf")
    _canon_state.cache_clear()
    g, _ = random_relabel(path_graph(9), seed=3)
    expected = (canon_tdw(g, 1), canonical_map(g, 1))
    others = set()
    seed = 0
    while len(others) < _CANON_CACHE_SIZE:
        h, _ = random_relabel(path_graph(7), seed=seed)
        others.add(h)
        seed += 1
    for h in others:
        canon_tdw(h, 1)
    misses = _canon_state.cache_info().misses
    assert (canon_tdw(g, 1), canonical_map(g, 1)) == expected
    assert _canon_state.cache_info().misses == misses + 1


# (name, n, edges, k, sha256 of canon_tdw hex, canonical_map, tree_distance_width)
GOLDEN = [
    ("path5", 5, [(0, 1), (1, 2), (2, 3), (3, 4)], 1,
     "3018b3ec7aaf368f9287c2d8f4c1d7eced8c9b6263f825e9b6149ddb01fc7089",
     (0, 1, 2, 3, 4), 1),
    ("path9_k3", 9, [(0, 7), (0, 8), (1, 5), (1, 8), (2, 5), (2, 6), (3, 7), (4, 6)], 3,
     "0dca8d02472b1ed1e5b2e28e05783fb7803a18c6ddf0dfd0b039902fab3e5ec7",
     (2, 4, 6, 0, 8, 5, 7, 1, 3), 1),
    ("caterpillar", 9, [(0, 1), (0, 4), (1, 2), (1, 5), (1, 6), (2, 3), (2, 7), (3, 8)], 2,
     "7a260e214620bc35ad39de969b538cd4a62f2e93155d8785fbdac8f147285255",
     (7, 4, 2, 1, 8, 5, 6, 3, 0), 1),
    ("c4", 4, [(0, 1), (0, 3), (1, 2), (2, 3)], 2,
     "d0fa387a430b884266a838fcd88ee4c6eff735787d6580f7b07ea452eb734929",
     (0, 1, 3, 2), 2),
    ("k4", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 2,
     "1cb234bd6a3020e66902df72f8c7840c9cf121769a0e34b7d059ad5830fb96a2",
     (0, 1, 2, 3), 2),
    ("layered8", 8,
     [(0, 2), (0, 4), (0, 5), (0, 7), (1, 4), (1, 5), (1, 6), (2, 5), (3, 7), (4, 5), (5, 6)], 2,
     "ece872fe7744b7ea4f7a4af235fc79bde3dbd6fc2c43835d40e8ecbc569eb463",
     (4, 0, 5, 7, 3, 2, 1, 6), 2),
    ("layered12", 12,
     [(0, 1), (0, 4), (0, 11), (1, 4), (1, 6), (1, 8), (2, 3), (2, 5), (3, 7), (3, 9), (3, 10),
      (4, 6), (5, 10), (7, 11), (9, 11)], 2,
     "f9d9d1d0c70d0b4c0d27b624beb002ac144f005466eb070d69f1e7347a2422de",
     (7, 8, 1, 3, 9, 0, 11, 4, 10, 5, 2, 6), 2),
    ("layered16", 16,
     [(0, 7), (0, 13), (1, 2), (1, 9), (1, 15), (3, 8), (3, 10), (3, 14), (4, 10), (4, 12),
      (5, 9), (5, 13), (5, 15), (6, 11), (6, 12), (7, 8), (8, 14), (9, 13), (9, 15), (11, 12)], 2,
     "a5c13fae32d25a855bdf144fc1dbb4811c5bfdcd06a4ca9bf4b2a07a548279d7",
     (6, 1, 0, 9, 12, 4, 14, 7, 8, 2, 11, 15, 13, 5, 10, 3), 2),
]


@pytest.mark.parametrize("name,n,edges,k,digest,cmap,tdw", GOLDEN, ids=[c[0] for c in GOLDEN])
def test_golden_canonical_bytes(name, n, edges, k, digest, cmap, tdw):
    g = Graph(n, edges)
    assert hashlib.sha256(canon_tdw(g, k).hex.encode()).hexdigest() == digest
    assert canonical_map(g, k) == cmap
    assert tree_distance_width(g, k) == tdw


def _pinned_states() -> list:
    """_canon_state's (trace, root set, sigma) and canonical_map at k = 1..3
    of 300 relabelled width-2 graphs, half from the benchmark's
    layered_tdw2 generator, half from random_narrow_graph, and of 60
    denser random graphs with cut vertices and wider bags."""
    inputs = benchmark_inputs()
    rng = random.Random(2610)
    graphs = []
    for i in range(300):
        n = rng.randint(2, 24)
        g = random_narrow_graph(rng, n) if i % 2 else Graph(n, inputs.layered_tdw2(n, rng))
        graphs.append(g)
    graphs += [_random_connected(rng, rng.randint(1, 9)) for _ in range(60)]
    out = []
    for g in graphs:
        g, _ = random_relabel(g, seed=rng.randrange(1 << 30))
        for k in (1, 2, 3):
            state = _canon_state(g, k)
            if state is None:
                out.append(None)
            else:
                out.append((state.trace, state.root_set, state.sigma, canonical_map(g, k)))
    return out


# sha256 of repr(_pinned_states()).
CANON_STATE_DIGEST = "690c1584c2592ade2608399252b5a4f91fae86bb8d18c1dfd744bfe58d9024dd"


def test_golden_canon_states():
    assert hashlib.sha256(repr(_pinned_states()).encode()).hexdigest() == CANON_STATE_DIGEST


def _pinned_tree_states() -> list:
    """_canon_state's (trace, root set, sigma) and canonical_map at k = 1
    and 2 of 200 relabelled trees: 160 of the benchmark's four tree shapes
    with 2 to 120 vertices (a spider has at least 6), and 40 random trees
    with 2 to 60.  Their leaves and cut vertices tie in the root prefix."""
    inputs = benchmark_inputs()
    shapes = list(inputs.TREE_SHAPES.values())
    rng = random.Random(3707)
    graphs = []
    for i in range(160):
        n = rng.randint(2, 120)
        if shapes[i % 4] is inputs.spider:
            n = max(n, 6)
        graphs.append(Graph(n, shapes[i % 4](n, rng)))
    for _ in range(40):
        n = rng.randint(2, 60)
        graphs.append(Graph(n, [(rng.randrange(v), v) for v in range(1, n)]))
    out = []
    for g in graphs:
        g, _ = random_relabel(g, seed=rng.randrange(1 << 30))
        for k in (1, 2):
            state = _canon_state(g, k)
            out.append((state.trace, state.root_set, state.sigma, canonical_map(g, k)))
    return out


# sha256 of repr(_pinned_tree_states()).
TREE_STATE_DIGEST = "75a142d0e0a397d00340cda17fec4596f0295dc67ea870a247ab44dd588367d0"


def test_golden_tree_canon_states():
    assert hashlib.sha256(repr(_pinned_tree_states()).encode()).hexdigest() == TREE_STATE_DIGEST


# sha256 of the compare_augmented values over every ordered pair of the
# criterion-6 pool (the first 55 connected graphs with 4 to 6 vertices,
# rooted at [0]), space-separated in row-major order.
COMPARE_DIGEST = "def1b471cd89488fe815817a1b411bd7275a6349f68062b3a878ea0c45c943eb"


def test_golden_compare_augmented_matrix():
    graphs = chain.from_iterable(enumerate_connected_graphs(n) for n in (4, 5, 6))
    handles = [
        (g, build_augmented_tree(g, build_minimal_tdd(g, [0])).handle())
        for g in islice(graphs, 55)
    ]
    text = " ".join(
        str(compare_augmented(ga, a, gb, b, full_theta(a, b)).value)
        for ga, a in handles
        for gb, b in handles
    )
    assert hashlib.sha256(text.encode()).hexdigest() == COMPARE_DIGEST


def test_theta_empty_for_bags_of_different_sizes():
    g = path_graph(4)
    one = build_augmented_tree(g, build_minimal_tdd(g, [0])).handle()
    two = build_augmented_tree(g, build_minimal_tdd(g, [1, 2])).handle()
    theta = full_theta(one, two)
    assert not theta
    with pytest.raises(NoAdmissibleMappingError):
        compare_augmented(g, one, g, two, theta)


def test_deep_path_end_to_end(tmp_path, capsys):
    n = 1100
    g = path_graph(n)
    d = build_minimal_tdd(g, [0])
    assert validate_tdd(g, d) == []
    tree = build_augmented_tree(g, d)
    text = "".join(f"B({v})(S({v})(" for v in range(n - 1)) + f"B({n - 1})" + ")" * (2 * n - 2)
    assert tree.to_debug_text() == text
    h = tree.handle()
    assert compare_augmented(g, h, g, h, full_theta(h, h)) is OrderResult.EQUAL
    path = tmp_path / "deep.gr"
    path.write_text(write_graph(g))
    assert main(["augtree", str(path), "--root", "1"]) == 0
    assert capsys.readouterr().out.startswith("B(1)(S(1)(B(2)(S(2)")


def test_tdw_route_needs_no_recursion_depth():
    g = path_graph(150)
    expected = (canon_tdw(g, 1), canonical_map(g, 1), iso_tdw(g, g, 1))
    # Relabelled deep inputs must also stay under 100 MB of traced memory,
    # and each map must carry the input onto the original's canonical labels.
    deep = [path_graph(4000), spider_graph(666, 666, 667)]
    originals = [(canon_tdw(d, 1), canonical_map(d, 1)) for d in deep]
    relabelled = [random_relabel(d, seed=11)[0] for d in deep]
    _canon_state.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        got = (canon_tdw(g, 1), canonical_map(g, 1), iso_tdw(g, g, 1))
        deep_got = []
        for h in relabelled:
            tracemalloc.start()
            try:
                deep_got.append((canon_tdw(h, 1), canonical_map(h, 1)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100 * 2**20
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected
    for d, h, (form, perm), (d_form, d_map) in zip(deep, relabelled, deep_got, originals):
        assert form == d_form
        assert is_isomorphism(h, d, compose_permutations(inverse_permutation(d_map), perm))
