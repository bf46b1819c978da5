"""Command-line interface exposing every operation.

Exit codes: 0 for yes/success, 1 for a non-isomorphic verdict, 2 for usage,
format or width errors, 3 for an internal error (any other exception).  All
labels read or written here are 1-based; --json swaps the human output for a
single-line record of the form
{"command": ..., "inputs": ..., "verdict": ..., "witness": ...}.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .augtree import build_augmented_tree
from .errors import FormatError, GraphError
from .formats import (
    format_tdd_records,
    parse_graph,
    parse_tree_decomposition,
    write_graph,
    write_tree_decomposition,
)
from .generate import generate_partial_ktree
from .graph import Graph
from .isoorder import canon_tdw, canonical_map, iso_tdw
from .oracle import brute_force_iso
from .tdd import build_minimal_tdd, tree_distance_width
from .treewidth import TreeDecomposition, iso_one_decomp, iso_respecting_both, iso_tw


def _read_text(path: str) -> str:
    """The file at path as UTF-8 text, whatever the locale, or a FormatError."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def _read_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def _read_decomposition(path: str, g: Graph) -> TreeDecomposition:
    d, n = parse_tree_decomposition(_read_text(path))
    if n != g.vertex_count:
        raise GraphError(
            f"decomposition declares {n} vertices, graph has {g.vertex_count}"
        )
    return d


def _parse_root(text: str, g: Graph) -> tuple[int, ...]:
    try:
        labels = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise GraphError(f"bad root list {text!r}") from exc
    for v in labels:
        if not (1 <= v <= g.vertex_count):
            raise GraphError(f"root vertex {v} outside 1..{g.vertex_count}")
    return tuple(sorted(x - 1 for x in labels))


def _emit(args, verdict, witness=None, human: str | None = None) -> None:
    if args.json:
        record = {
            "command": args.command,
            "inputs": {
                key: value
                for key, value in vars(args).items()
                if key not in ("command", "json", "func") and value is not None
            },
            "verdict": verdict,
            "witness": witness,
        }
        print(json.dumps(record))
    elif human is not None:
        print(human, end="" if human.endswith("\n") else "\n")


def _map_lines(perm: Sequence[int]) -> str:
    return "\n".join(f"map {v + 1} {w + 1}" for v, w in enumerate(perm))


def _engine_inputs(args) -> list:
    """Engine arguments of an isomorphism command, read in command-line order:
    each graph followed by its decomposition if one is given, then k if any."""
    inputs: list = []
    for side in ("left", "right"):
        g = _read_graph(getattr(args, side))
        inputs.append(g)
        path = getattr(args, f"{side}_decomposition", None)
        if path is not None:
            inputs.append(_read_decomposition(path, g))
    if getattr(args, "k", None) is not None:
        inputs.append(args.k)
    return inputs


def _verdict_command(engine):
    """Handler for a command whose engine answers yes or no."""

    def run(args) -> int:
        same = engine(*_engine_inputs(args))
        verdict = "isomorphic" if same else "non-isomorphic"
        _emit(args, verdict, human=verdict)
        return 0 if same else 1

    return run


def _map_command(engine):
    """Handler for a command whose engine returns an isomorphism or None."""

    def run(args) -> int:
        perm = engine(*_engine_inputs(args))
        if perm is None:
            _emit(args, "non-isomorphic", human="non-isomorphic")
            return 1
        _emit(args, "isomorphic", witness=[p + 1 for p in perm], human=_map_lines(perm))
        return 0

    return run


def _cmd_tdd_build(args) -> int:
    g = _read_graph(args.graph)
    d = build_minimal_tdd(g, _parse_root(args.root, g))
    text = format_tdd_records(d)
    _emit(args, "ok", witness=text.strip().splitlines(), human=text)
    return 0


def _cmd_tdd_width(args) -> int:
    g = _read_graph(args.graph)
    width = tree_distance_width(g, args.k)
    if width is None:
        _emit(args, "width-exceeded", human=f"tree distance width exceeds {args.k}")
        return 2
    _emit(args, width, human=str(width))
    return 0


def _cmd_augtree(args) -> int:
    g = _read_graph(args.graph)
    d = build_minimal_tdd(g, _parse_root(args.root, g))
    tree = build_augmented_tree(g, d)
    text = tree.to_debug_text(fmt=lambda v: v + 1)
    _emit(args, "ok", witness=text, human=text)
    return 0


def _cmd_canon_tdw(args) -> int:
    g = _read_graph(args.graph)
    form = canon_tdw(g, args.k)
    mapping = canonical_map(g, args.k)
    image = " ".join(str(p + 1) for p in mapping)
    _emit(
        args,
        "ok",
        witness={"canon": form.hex, "map": [p + 1 for p in mapping]},
        human=f"{form.hex}\n{image}",
    )
    return 0


def _cmd_gen(args) -> int:
    bundle = generate_partial_ktree(args.n, args.k, args.ratio, args.seed)
    graph_text = write_graph(bundle.graph, comment=f"seed {args.seed}")
    decomp_text = write_tree_decomposition(bundle.decomposition, args.n)
    if args.out_graph:
        Path(args.out_graph).write_text(graph_text)
    if args.out_decomp:
        Path(args.out_decomp).write_text(decomp_text)
    human = ""
    if not args.out_graph:
        human += graph_text
    if not args.out_decomp:
        human += decomp_text
    _emit(
        args,
        "ok",
        witness={
            "n": args.n,
            "k": args.k,
            "ratio": args.ratio,
            "seed": args.seed,
            "edges": bundle.graph.edge_count,
        },
        human=human if human else "written",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widthiso",
        description="Isomorphism and canonization for graphs of bounded "
        "tree distance width and bounded treewidth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a single-line JSON record")
        return p

    p = add("tdd-build", _cmd_tdd_build, help="build the minimal tree distance decomposition")
    p.add_argument("graph")
    p.add_argument("--root", required=True, help="comma-separated 1-based root vertices")

    p = add("tdd-width", _cmd_tdd_width, help="tree distance width up to a bound")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)

    p = add("augtree", _cmd_augtree, help="print the augmented tree")
    p.add_argument("graph")
    p.add_argument("--root", required=True)

    p = add("iso-tdw", _verdict_command(iso_tdw),
            help="isomorphism via tree distance decompositions")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-k", type=int, required=True)

    p = add("canon-tdw", _cmd_canon_tdw, help="canonical form and canonical map")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)

    p = add("iso-both", _verdict_command(iso_respecting_both),
            help="decomposition-respecting isomorphism")
    p.add_argument("left")
    p.add_argument("left_decomposition")
    p.add_argument("right")
    p.add_argument("right_decomposition")

    p = add("iso-one", _map_command(iso_one_decomp),
            help="isomorphism with one decomposition given")
    p.add_argument("left")
    p.add_argument("left_decomposition")
    p.add_argument("right")
    p.add_argument("-k", type=int, required=True)

    p = add("iso-tw", _verdict_command(iso_tw), help="bounded-treewidth isomorphism")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-k", type=int, required=True)

    p = add("iso-brute", _map_command(brute_force_iso), help="brute-force oracle")
    p.add_argument("left")
    p.add_argument("right")

    p = add("gen", _cmd_gen, help="generate a partial k-tree bundle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-graph")
    p.add_argument("--out-decomp")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
