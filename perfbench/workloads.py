"""The three workloads: input generation, the timed op, its check, and the
per-layer replay used by traced runs.

Each workload is built from a seed and its parameters in
``workloads.json``.  Generation and reference answers run before anything
is timed.  The inputs exist as ``widthiso.formats`` text; ``load`` receives
the parsed objects, and ops see nothing else.  Ops run in order, one at a
time, and may depend on earlier ops of the same run, never on another run.
"""

from __future__ import annotations

import random
from itertools import combinations

import widthiso as wi
from widthiso import formats

import inputs

GOLDEN = (5 ** 0.5 - 1) / 2


class Workload:
    """Op ``i`` is ``run(i)``; ``check(i, result)`` returns None when the
    result is right and a reason otherwise; ``advance(i)`` follows every
    op, whatever its outcome; ``replay(i, tracer)`` calls each layer on
    op ``i``'s inputs."""

    def __init__(self, seed: int, params: dict) -> None:
        self.rng = random.Random(seed)
        self.k = params.get("k")
        self.graph_texts: list[str] = []
        self.decomp_texts: list[str] = []
        self.cases: list[str] = []
        self.seen: set = set()  # graphs passed to the canon cache so far
        self.sides = 0
        self.side_hits = 0

    def add_graph(self, n: int, edges) -> int:
        self.graph_texts.append(formats.write_graph(wi.Graph(n, edges)))
        return len(self.graph_texts) - 1

    def load(self, graphs: list, decomps: list) -> None:
        self.graphs = graphs
        self.decomps = decomps

    def __len__(self) -> int:
        return len(self.cases)

    def cache_side(self, g) -> None:
        self.sides += 1
        self.side_hits += g in self.seen
        self.seen.add(g)

    def advance(self, i: int) -> None:
        pass


def replay_tdw(tracer, op: int, g, k: int, rng: random.Random):
    """Time every tdw layer on g; returns the canonical form of a fresh copy
    and whether iso_tdw matched g against it."""
    with tracer.span("tdd.root_loop", op):
        wi.tree_distance_width(g, k)
    for size in range(1, min(k, g.vertex_count) + 1):
        for s in combinations(range(g.vertex_count), size):
            tracer.count("tdd.root_sets")
            with tracer.span("tdd.build", op):
                d = wi.build_minimal_tdd(g, s)
            if d.width() > k:
                continue
            tracer.count("tdd.admitted")
            with tracer.span("augtree.build", op):
                tree = wi.build_augmented_tree(g, d, check=False)
            tracer.count("augtree.nodes", tree.node_count())
            h = tree.handle()
            with tracer.span("isoorder.trace", op):
                wi.compare_augmented(g, h, g, h, wi.full_theta(h, h))
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    fresh = wi.apply_permutation(g, perm)
    with tracer.span("isoorder.canon", op):
        form = wi.canon_tdw(fresh, k)
    with tracer.span("isoorder.map", op):
        wi.canonical_map(fresh, k)
    with tracer.span("isoorder.iso_cached", op):
        same = wi.iso_tdw(g, fresh, k)
    return form, same


class TdwClassify(Workload):
    """Online deduplication of a stream of tree-distance-width-2 graphs.

    The pool is a sequence of independent epochs.  Each epoch holds
    ``bases`` pairwise non-isomorphic random graphs (sizes spread evenly
    over ``sizes``) and ``copies`` fresh relabellings of each, shuffled.
    Op i classifies arrival i against its epoch's representatives.
    """

    def __init__(self, seed: int, params: dict) -> None:
        super().__init__(seed, params)
        lo, hi = params["sizes"]
        bases, copies = params["bases"], params["copies"]
        self.epoch_of: list[int] = []
        self.class_of: list[int] = []
        seen_edges: set = set()
        for epoch in range(params["epochs"]):
            reps: list[tuple[int, list]] = []
            while len(reps) < bases:
                n = lo + (hi - lo) * len(reps) // (bases - 1)
                edges = inputs.layered_tdw2(n, self.rng)
                if all(_distinct(n, edges, m, other) for m, other in reps):
                    reps.append((n, edges))
            arrivals = [(b, c) for b in range(bases) for c in range(copies)]
            self.rng.shuffle(arrivals)
            for b, c in arrivals:
                n, edges = reps[b]
                while True:
                    relabelled, _ = inputs.relabel(n, edges, self.rng)
                    if (n, tuple(relabelled)) not in seen_edges:
                        break
                seen_edges.add((n, tuple(relabelled)))
                self.add_graph(n, relabelled)
                self.epoch_of.append(epoch)
                self.class_of.append(b)
                self.cases.append(f"e{epoch}-class{b}-copy{c}")
        self.reps: dict[int, list[tuple[int, object]]] = {}

    def run(self, i: int):
        x = self.graphs[i]
        verdicts = []
        for _, rep in self.reps.get(self.epoch_of[i], ()):
            verdicts.append(wi.iso_tdw(x, rep, self.k))
            if verdicts[-1]:
                break
        return verdicts

    def _expected(self, i: int) -> list[bool]:
        classes = [c for c, _ in self.reps.get(self.epoch_of[i], ())]
        if self.class_of[i] in classes:
            return [False] * classes.index(self.class_of[i]) + [True]
        return [False] * len(classes)

    def check(self, i: int, verdicts):
        x = self.graphs[i]
        for _, rep in self.reps.get(self.epoch_of[i], ())[: len(verdicts)]:
            self.cache_side(x)
            self.cache_side(rep)
        expected = self._expected(i)
        if verdicts != expected:
            return f"verdicts {verdicts} != expected {expected}"
        return None

    def advance(self, i: int) -> None:
        reps = self.reps.setdefault(self.epoch_of[i], [])
        if self.class_of[i] not in [c for c, _ in reps]:
            reps.append((self.class_of[i], self.graphs[i]))

    def replay(self, i: int, tracer) -> str | None:
        g = self.graphs[i]
        form, same = replay_tdw(tracer, i, g, self.k, self.rng)
        if form != wi.canon_tdw(g, self.k) or not same:
            return "a fresh relabelling got another canonical form"
        return None


def _distinct(n: int, edges, m: int, other) -> bool:
    """Reference non-isomorphism: sizes, then refinement, then brute force."""
    if n != m or len(edges) != len(other):
        return True
    if inputs.refinement_differs(n, edges, other):
        return True
    return wi.brute_force_iso(wi.Graph(n, edges), wi.Graph(m, other)) is None


class TdwDeep(Workload):
    """canon_tdw then canonical_map on deep trees (k = 1).

    Tree s has shape ``shapes[s % len(shapes)]`` and a size from the
    golden-ratio sequence over ``sizes``, so every prefix of the pool covers
    the size range evenly.  Each tree is followed, one tree later, by a
    relabelled copy, and every ``twin_every``-th tree also by a near twin
    (one leaf moved, relabelled).
    """

    def __init__(self, seed: int, params: dict) -> None:
        super().__init__(seed, params)
        lo, hi = params["sizes"]
        shapes = params["shapes"]
        names: dict = {}
        self.ahu: list[int] = []
        self.copy_of: dict[int, int] = {}
        pending: list[tuple] = []  # the previous tree's copy and twin
        for s in range(params["trees"]):
            shape = shapes[s % len(shapes)]
            n = lo + int((hi - lo + 1) * ((s + 1) * GOLDEN % 1))
            edges = inputs.TREE_SHAPES[shape](n, self.rng)
            tag = f"tree{s}-{shape}{n}"
            origin = self._add(n, edges, names, f"{tag}-original")
            for args in pending:
                self._add(*args)
            pending = [(n, edges, names, f"{tag}-copy", origin)]
            if s % params["twin_every"] == params["twin_every"] - 1:
                twin = inputs.move_leaf(n, edges, self.rng)
                pending.append((n, twin, names, f"{tag}-twin"))
        for args in pending:
            self._add(*args)
        self.form_class: dict[bytes, int] = {}
        self.class_form: dict[int, bytes] = {}
        self.maps: dict[int, tuple] = {}

    def _add(self, n: int, edges, names: dict, case: str, origin: int | None = None) -> int:
        i = self.add_graph(n, inputs.relabel(n, edges, self.rng)[0])
        self.ahu.append(inputs.ahu_code(n, edges, names))
        self.cases.append(case)
        if origin is not None:
            self.copy_of[i] = origin
        return i

    def run(self, i: int):
        x = self.graphs[i]
        return wi.canon_tdw(x, self.k), wi.canonical_map(x, self.k)

    def check(self, i: int, result):
        form, perm = result
        x = self.graphs[i]
        self.cache_side(x)
        if not wi.is_permutation(perm) or len(perm) != x.vertex_count:
            return "canonical_map is not a permutation"
        self.maps[i] = perm
        code = self.ahu[i]
        known = self.class_form.setdefault(code, form.data)
        if known != form.data:
            return "isomorphic trees got different canonical forms"
        if self.form_class.setdefault(form.data, code) != code:
            return "non-isomorphic trees share a canonical form"
        origin = self.copy_of.get(i)
        if origin in self.maps:
            witness = wi.compose_permutations(wi.inverse_permutation(self.maps[origin]), perm)
            if not wi.is_isomorphism(x, self.graphs[origin], witness):
                return f"inverse(map of case {self.cases[origin]}) . map is no isomorphism"
        return None

    def replay(self, i: int, tracer) -> str | None:
        g = self.graphs[i]
        form, same = replay_tdw(tracer, i, g, self.k, self.rng)
        if form.data != self.class_form.get(self.ahu[i]) or not same:
            return "a fresh relabelling got another canonical form"
        return None


class TwSearch(Workload):
    """The treewidth route on pairs drawn from a fixed cycle of op specs.

    A spec is ``[kind, k, ratio, [n_lo, n_hi], partner]`` with kind
    ``one_decomp`` (iso_one_decomp given g's decomposition) or ``iso_tw``
    (decompose, then search) on a partial k-tree, or ``[grid, k, rows,
    cols]`` for a pair of grids above the width bound.  The partner is a
    relabelled copy (``copy``) or a relabelled degree-preserving edge swap
    (``swap``).  Op i takes its n from the golden-ratio sequence at i, so
    every prefix of the pool spreads evenly over each spec's size range.
    """

    def __init__(self, seed: int, params: dict) -> None:
        super().__init__(seed, params)
        self.specs: list[tuple] = []
        for cycle in range(params["cycles"]):
            for spec in params["cycle"]:
                self._generate(cycle, spec)

    def _generate(self, cycle: int, spec: list) -> None:
        rng = self.rng
        kind, k = spec[0], spec[1]
        if kind == "grid":
            rows, cols = spec[2], spec[3]
            n, edges = rows * cols, inputs.grid(rows, cols)
            g = self.add_graph(n, inputs.relabel(n, edges, rng)[0])
            h = self.add_graph(n, inputs.relabel(n, edges, rng)[0])
            self.specs.append((kind, k, g, None, h, "width_exceeded"))
            self.cases.append(f"c{cycle}-grid{rows}x{cols}-k{k}")
            return
        ratio, (lo, hi), partner = spec[2], spec[3], spec[4]
        n = lo + int((hi - lo + 1) * ((len(self.specs) + 1) * GOLDEN % 1))
        bundle = wi.generate_partial_ktree(n, k, ratio, rng.randrange(1 << 30))
        g_edges, perm = inputs.relabel(n, bundle.graph.edges, rng)
        decomposition = wi.TreeDecomposition(
            bags=tuple(tuple(sorted(perm[v] for v in bag)) for bag in bundle.decomposition.bags),
            tree_edges=bundle.decomposition.tree_edges,
            root=bundle.decomposition.root,
        )
        if partner == "swap":
            h_edges = inputs.edge_swap(n, g_edges, rng) or g_edges
            h_edges = inputs.relabel(n, h_edges, rng)[0]
            expected = not inputs.refinement_differs(n, g_edges, h_edges) and (
                wi.brute_force_iso(wi.Graph(n, g_edges), wi.Graph(n, h_edges)) is not None
            )
        else:
            h_edges, expected = inputs.relabel(n, g_edges, rng)[0], True
        g = self.add_graph(n, g_edges)
        h = self.add_graph(n, h_edges)
        d = None
        if kind == "one_decomp":
            self.decomp_texts.append(formats.write_tree_decomposition(decomposition, n))
            d = len(self.decomp_texts) - 1
        self.specs.append((kind, k, g, d, h, expected))
        self.cases.append(f"c{cycle}-{kind}-k{k}-r{ratio}-n{n}-{partner}")

    def run(self, i: int):
        kind, k, g, d, h, _ = self.specs[i]
        g, h = self.graphs[g], self.graphs[h]
        if kind == "one_decomp":
            return wi.iso_one_decomp(g, self.decomps[d], h, k)
        try:
            return wi.iso_tw(g, h, k)
        except wi.WidthExceededError:
            return "width_exceeded"

    def check(self, i: int, result):
        kind, _, g, _, h, expected = self.specs[i]
        if kind != "one_decomp":
            return None if result == expected else f"got {result!r}, expected {expected!r}"
        if result is None:
            return "missed an isomorphism" if expected else None
        if not expected:
            return "returned a map between non-isomorphic graphs"
        if not wi.is_isomorphism(self.graphs[g], self.graphs[h], result):
            return "returned map is no isomorphism"
        return None

    def replay(self, i: int, tracer) -> None:
        kind, k, g, d, h, _ = self.specs[i]
        g, h = self.graphs[g], self.graphs[h]
        if kind == "one_decomp":
            d = self.decomps[d]
        else:
            with tracer.span("treewidth.decompose", i):
                d = wi.compute_tree_decomposition(g, k)
            if d is None:
                with tracer.span("treewidth.decompose", i):
                    d = wi.compute_tree_decomposition(h, k)
                g, h = h, g
            if d is None:
                return None
        tracer.count("treewidth.decomp_bags", d.bag_count())
        with tracer.span("treewidth.validate", i):
            wi.validate_tree_decomposition(g, d)
        with tracer.span("treewidth.search", i):
            wi.iso_one_decomp(g, d, h, k)
        return None


WORKLOADS = {"tdw_classify": TdwClassify, "tdw_deep": TdwDeep, "tw_search": TwSearch}
