#!/usr/bin/env python3
"""Per-op result digests of the benchmark's workload pools.

    python tools/pool_digest.py --src <tree>/src --seed N [workload ...]

Builds each named workload's pool (all three by default) from
perfbench/workloads.py and workloads.json, with the widthiso package
imported from --src, runs every op in order, and prints one line per
workload: its op count and the first 16 hex digits of a sha256 over
repr((i, result)) of every op i.  An op that raises is recorded as its
exception's type name and message.  Two source trees whose lines agree
gave the same result on every op; run each tree in a process of its own.
Exits 1 when the workload's own check refuses a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of the tree to run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", help="default: every workload")
    args = parser.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(BENCH)]
    import workloads
    from widthiso import formats

    refused = []
    for name in args.workloads or list(workloads.WORKLOADS):
        count, hexdigest, bad = digest(workloads, formats, name, args.seed)
        print(f"{name} seed {args.seed}: {count} ops, digest {hexdigest}", flush=True)
        refused += bad
    for line in refused:
        print(line, file=sys.stderr)
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
