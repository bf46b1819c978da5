#!/usr/bin/env python3
"""Per-op result digests of the benchmark's workload pools and of a corpus.

    python tools/pool_digest.py --src <tree>/src --seed N [workload ...]

Builds each named benchmark workload's pool (all three by default, followed
by the corpus below) from perfbench/workloads.py and workloads.json, with
the widthiso package imported from --src, runs every op in order, and prints
one line per workload: its op count and the first 16 hex digits of a sha256 over
repr((i, result)) of every op i.  An op that raises is recorded as its
exception's type name and message.  Two source trees whose lines agree
gave the same result on every op; run each tree in a process of its own.
Exits 1 when the workload's own check refuses a result.

The corpus (named "corpus") reaches the public entry points the pools never
call, each at the width bounds around its case's width: seeded partial 1-,
2- and 3-trees with their generator decompositions, and paths, cycles, a
star, K4, K(2,3), a 3x3 grid and a two-component union with computed ones,
each against a relabelled partner (see corpus).  It prints "corpus seed N:
C calls, digest X", X over each case's name and repr((i, entry point name,
result)) of every call i, each library object written out as plain tuples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from itertools import product
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def digest(workloads, formats, name: str, seed: int) -> tuple[int, str, list[str]]:
    """(op count, digest, refusals) of one workload's pool."""
    params = json.loads((BENCH / "workloads.json").read_text())["workloads"][name]
    w = workloads.WORKLOADS[name](seed, params)
    w.load(
        [formats.parse_graph(t) for t in w.graph_texts],
        [formats.parse_tree_decomposition(t)[0] for t in w.decomp_texts],
    )
    sha = hashlib.sha256()
    refused = []
    for i in range(len(w)):
        try:
            result = w.run(i)
        except Exception as exc:  # recorded, so a changed exception shows
            result = (type(exc).__name__, str(exc))
            reason = None
        else:
            reason = w.check(i, result)
        if reason is not None:
            refused.append(f"{name} op {i} case {w.cases[i]}: {reason}")
        w.advance(i)
        sha.update(repr((i, result)).encode())
    return len(w), sha.hexdigest()[:16], refused


def _plain(x):
    """x with every library object written as plain tuples, lists and
    strings, so that its repr is the same in any process."""
    if isinstance(x, (list, tuple)):
        return type(x)(_plain(y) for y in x)
    if isinstance(x, (set, frozenset)):
        return sorted(_plain(y) for y in x)
    if hasattr(x, "tree_edges"):  # TreeDecomposition
        return ("td", x.bags, sorted(x.tree_edges), x.root)
    if hasattr(x, "depth"):  # TreeDistanceDecomposition
        return ("tdd", x.bags, x.parent, x.depth, x.root)
    if hasattr(x, "kinds"):  # AugmentedTree
        return ("augtree", x.kinds, x.vertices, x.parent, x.children, x.sizes)
    if hasattr(x, "data"):  # CanonicalForm
        return ("form", x.data.hex())
    if hasattr(x, "name"):  # OrderResult
        return x.name
    return x


def _cases(w, seed: int) -> list[tuple]:
    """(name, g, d, k): a graph, a tree decomposition of width k of it, and
    k.  Partial k-trees come with their generator decompositions, the fixed
    graphs with compute_tree_decomposition's at their treewidth k."""
    cases = []
    for k, n, ratio in ((1, 12, 1.0), (1, 12, 0.75), (2, 10, 0.8), (3, 9, 0.9)):
        b = w.generate_partial_ktree(n, k, ratio, 1000 * seed + 10 * k + n)
        cases.append((f"partial {k}-tree n={n} ratio={ratio}", b.graph, b.decomposition, k))
    grid = [(v, v + 1) for v in range(9) if v % 3 < 2] + [(v, v + 3) for v in range(6)]
    fixed = [
        ("path 6", w.Graph(6, [(v, v + 1) for v in range(5)]), 1),
        ("path 1", w.Graph(1, []), 0),
        ("cycle 6", w.Graph(6, [(v, (v + 1) % 6) for v in range(6)]), 2),
        ("cycle 3", w.Graph(3, [(0, 1), (1, 2), (0, 2)]), 2),
        ("star 5", w.Graph(6, [(0, v) for v in range(1, 6)]), 1),
        ("K4", w.Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]), 3),
        ("K(2,3)", w.Graph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)]), 2),
        ("grid 3x3", w.Graph(9, grid), 3),
        ("path 3 + cycle 4", w.Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)]), 2),
    ]
    for name, g, k in fixed:
        cases.append((name, g, w.compute_tree_decomposition(g, k), k))
    return cases


def corpus(seed: int) -> tuple[int, str]:
    """(call count, digest) of the corpus at seed; widthiso must be importable.

    Per case (see _cases), against h, g relabelled by random_relabel at
    seed, and d relabelled alike: compute_tree_decomposition at k - 1, k
    and k + 1; validate_tree_decomposition of d and of d without its least
    tree edge (or its first vertex, for one bag); iso_respecting_both of
    (g, d) with (h, d_h); lex_subtree_order at every bag of d; then
    tree_distance_width, and at the width w it finds (k where g is
    disconnected) minus one, plus none and plus one, tree_distance_width,
    canon_tdw, canonical_map and iso_tdw(g, h).  For root sets {0}, {1} and
    {0, 1, 2} of g and the image of {0} in h: build_minimal_tdd,
    validate_tdd of it and of it with its last bag one level deeper,
    build_augmented_tree of both; and compare_augmented, under full_theta,
    of every bag node of g's {0} tree against the root of each tree built
    and against each of their bag nodes whose subtree counts as many
    vertices.
    """
    import widthiso as w

    sha = hashlib.sha256()
    calls = 0

    def call(f, *args):
        nonlocal calls
        try:
            result = f(*args)
        except Exception as exc:  # recorded, so a changed exception shows
            result = (type(exc).__name__, str(exc))
            ok = False
        else:
            ok = True
        sha.update(repr((calls, f.__name__, _plain(result))).encode())
        calls += 1
        return result if ok else None

    for name, g, d, k in _cases(w, seed):
        sha.update(repr(name).encode())
        h, perm = w.random_relabel(g, seed)
        d_h = w.TreeDecomposition(
            tuple(tuple(sorted(perm[v] for v in bag)) for bag in d.bags), d.tree_edges, d.root
        )
        for j in (k - 1, k, k + 1):
            call(w.compute_tree_decomposition, g, j)
        if d.tree_edges:
            broken = w.TreeDecomposition(d.bags, d.tree_edges - {min(d.tree_edges)}, d.root)
        else:
            broken = w.TreeDecomposition((d.bags[0][1:],), d.tree_edges, d.root)
        for x in (d, broken):
            call(w.validate_tree_decomposition, g, x)
        call(w.iso_respecting_both, g, d, h, d_h)
        for r in range(d.bag_count()):
            call(w.lex_subtree_order, g, d, r, d.neighbors(r))

        width = call(w.tree_distance_width, g, g.vertex_count)
        at = k if width is None else width
        for j in (at - 1, at, at + 1):
            for f in (w.tree_distance_width, w.canon_tdw, w.canonical_map):
                call(f, g, j)
            call(w.iso_tdw, g, h, j)

        trees = []
        for x, root in ((g, (0,)), (g, (1,)), (g, (0, 1, 2)), (h, (perm[0],))):
            t = call(w.build_minimal_tdd, x, root)
            if t is None:
                continue
            bad = w.TreeDistanceDecomposition(t.bags, t.parent, t.depth[:-1] + (t.depth[-1] + 1,))
            for y in (t, bad):
                call(w.validate_tdd, x, y)
            trees.append((x, call(w.build_augmented_tree, x, t)))
            call(w.build_augmented_tree, x, bad)
        if trees:
            left = trees[0][1]
            for x, right in trees:
                for a, b in product(range(left.node_count()), range(right.node_count())):
                    if left.is_bag(a) and right.is_bag(b) and (
                        b == 0 or left.sizes[a] == right.sizes[b]
                    ):
                        a, b = left.handle(a), right.handle(b)
                        call(w.compare_augmented, g, a, x, b, w.full_theta(a, b))
    return calls, sha.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of the tree to run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", help="default: every workload, then corpus")
    args = parser.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(BENCH)]
    import workloads
    from widthiso import formats

    refused = []
    for name in args.workloads or [*workloads.WORKLOADS, "corpus"]:
        if name == "corpus":
            count, hexdigest = corpus(args.seed)
            print(f"corpus seed {args.seed}: {count} calls, digest {hexdigest}", flush=True)
            continue
        count, hexdigest, bad = digest(workloads, formats, name, args.seed)
        print(f"{name} seed {args.seed}: {count} ops, digest {hexdigest}", flush=True)
        refused += bad
    for line in refused:
        print(line, file=sys.stderr)
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
