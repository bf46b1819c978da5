#!/usr/bin/env python3
"""widthiso benchmark: one client, one thread, closed loop.

    python3 perfbench/run.py --workload tdw_classify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src.  Each op
starts when the previous one returns and is checked against an answer the
benchmark knows without the engine under test.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it replays each layer's
public calls on the inputs of every op that succeeded, keeps spans in
memory, writes them to .bench_out/ when the run ends and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Workloads and their
parameters are in workloads.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
REPLAY_BUDGET_FACTOR = 2
PROBE_EVERY_S = 0.2


class OpTimeout(BaseException):
    """Raised from SIGALRM inside a call that ran past its budget."""


def _alarm(signum, frame):
    raise OpTimeout


def attempt(budget: float, fn, *args):
    """Call fn under a time budget; returns (outcome, value) where outcome
    is "ok", "timeout" or the type name of the exception it raised."""
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            return "ok", fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return "timeout", None
    except Exception as exc:  # any exception from the engine is a failed op
        return type(exc).__name__, None


def measure_setup(texts: dict) -> list[tuple[float, float]]:
    """(seconds, speed probe) to import widthiso and parse every input, each
    in a fresh interpreter."""
    payload = json.dumps(texts)
    runs = []
    for rep in range(SETUP_REPEATS + 1):  # the first one only warms caches
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=payload, capture_output=True, text=True, timeout=120, check=True,
        )
        if rep:
            elapsed, probe = map(float, done.stdout.split())
            runs.append((elapsed, probe))
    return runs


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<24} {value:>14.6g} {unit:<6} {note}")


def layer_metrics(tracer, w, factor, op_ms: float) -> dict:
    counts = tracer.counts

    def ms(name: str) -> float:
        return tracer.busy_ms(name, factor)

    canon = ms("isoorder.canon")
    if canon:
        coverage = (ms("tdd.root_loop") + ms("augtree.build") + ms("isoorder.trace")) / canon
    else:
        coverage = (ms("treewidth.decompose") + ms("treewidth.search")) / op_ms
    root_sets = counts["tdd.root_sets"]
    return {
        "formats.parse_ms": (ms("formats.parse"), "ms", ""),
        "tdd.root_loop_ms": (ms("tdd.root_loop"), "ms", ""),
        "tdd.root_sets": (root_sets, "count", ""),
        "tdd.admitted_frac": (
            counts["tdd.admitted"] / root_sets if root_sets else 0.0, "frac",
            f"{counts['tdd.admitted']} / {root_sets} root sets",
        ),
        "augtree.build_ms": (ms("augtree.build"), "ms", ""),
        "augtree.nodes": (counts["augtree.nodes"], "count", ""),
        "isoorder.trace_ms": (ms("isoorder.trace"), "ms", ""),
        "isoorder.canon_ms": (canon, "ms", ""),
        "isoorder.map_ms": (ms("isoorder.map"), "ms", ""),
        "isoorder.iso_cached_ms": (ms("isoorder.iso_cached"), "ms", ""),
        "isoorder.cache_hit_frac": (
            w.side_hits / w.sides if w.sides else 0.0, "frac",
            f"{w.side_hits} / {w.sides} cache sides",
        ),
        "treewidth.validate_ms": (ms("treewidth.validate"), "ms", ""),
        "treewidth.search_ms": (
            ms("treewidth.search"), "ms",
            f"self time without validation {ms('treewidth.search') - ms('treewidth.validate'):.1f} ms",
        ),
        "treewidth.decompose_ms": (ms("treewidth.decompose"), "ms", ""),
        "treewidth.decomp_bags": (counts["treewidth.decomp_bags"], "count", ""),
        "replay.coverage": (
            coverage, "ratio",
            "(root_loop + build + trace) / canon" if canon
            else f"(decompose + search) / op time {op_ms:.1f} ms",
        ),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    params = json.loads((HERE / "workloads.json").read_text())["workloads"][name]
    sys.path.insert(0, str(SRC))
    import workloads
    import speed
    from tracing import Tracer
    from widthiso import formats

    started = time.perf_counter()
    w = workloads.WORKLOADS[name](seed, params)
    texts = {"graphs": w.graph_texts, "decomps": w.decomp_texts}
    digest = hashlib.sha256(json.dumps(texts).encode()).hexdigest()
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(traced)}")
    print(f"  pool: {len(w)} ops, {len(w.graph_texts)} graphs, {len(w.decomp_texts)} "
          f"decompositions, input sha256 {digest[:16]}, generated in "
          f"{time.perf_counter() - started:.1f} s")

    setup = [] if traced else measure_setup(texts)
    tracer = Tracer() if traced else None

    def parse(fn, text):
        if tracer is None:
            return fn(text)
        with tracer.span("formats.parse", None):
            return fn(text)

    w.load(
        [parse(formats.parse_graph, t) for t in w.graph_texts],
        [parse(formats.parse_tree_decomposition, t)[0] for t in w.decomp_texts],
    )

    budget = params["budget_s"]
    signal.signal(signal.SIGALRM, _alarm)
    took_s: list[float] = []  # raw duration of each op
    mids: list[float] = []  # midpoint of each op, to find the probes near it
    good: list[bool] = []
    wrong = 0
    rss = None
    scale = speed.Scale()
    for _ in range(10):
        scale.probe()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < len(w) and time.perf_counter() < deadline:
        t0 = time.perf_counter()
        if tracer is None:
            outcome, result = attempt(budget, w.run, i)
        else:
            with tracer.span("op", i):
                outcome, result = attempt(budget, w.run, i)
        took = time.perf_counter() - t0
        took_s.append(took)
        mids.append(t0 + took / 2)
        reason = outcome if outcome != "ok" else w.check(i, result)
        good.append(reason is None)
        if reason is not None:
            wrong += outcome == "ok"
            print(f"  FAIL op {i} case {w.cases[i]}: {reason} ({took:.3f} s)")
        w.advance(i)
        if tracer is not None and reason is None:
            with tracer.span("replay", i):
                outcome, reason = attempt(REPLAY_BUDGET_FACTOR * budget, w.replay, i, tracer)
            if outcome != "ok" or reason is not None:
                wrong += reason is not None
                print(f"  REPLAY FAIL op {i} case {w.cases[i]}: {reason or outcome}")
        i += 1
        if i == params["rss_after_ops"]:
            rss = rss_mb()
        if time.perf_counter() - scale.at[-1] >= PROBE_EVERY_S:
            scale.probe()
    elapsed = time.perf_counter() - start
    attempted = len(took_s)
    ok = sum(good)
    failed = attempted - ok
    factors = [scale.factor(mid) for mid in mids]
    busy = sum(t * f for t, f in zip(took_s, factors))
    latencies = [t * f if g else budget for t, f, g in zip(took_s, factors, good)]
    raw = [t if g else budget for t, g in zip(took_s, good)]
    if i == len(w):
        print(f"  pool exhausted after {elapsed:.1f} s")

    print(f"  speed: {len(scale.times)} probes, median {1000 * statistics.median(scale.times):.3f}"
          f" ms against the reference {1000 * speed.REFERENCE_S:.3f} ms; op times scaled by "
          f"{min(factors):.3f}..{max(factors):.3f}")
    metrics = {}
    if traced:
        spans_file = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_file)
        print(f"  {len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}; "
              f"{attempted} ops replayed, {attempted / elapsed:.3f} ops/s with tracing")
        for key, (value, unit, note) in layer_metrics(tracer, w, scale.factor, 1000 * busy).items():
            show(key, value, unit, note)
            metrics[key] = {"value": value, "unit": unit}
    else:
        pct = params["tail_percentile"]
        beyond = attempted - math.ceil(pct / 100 * attempted)
        setup_s = statistics.median(t * speed.REFERENCE_S / p for t, p in setup)
        e2e = {
            "setup_s": (setup_s, "s", f"median of {len(setup)} fresh interpreters, raw "
                        f"{statistics.median(t for t, _ in setup):.4f} s"),
            "ops_per_s": (ok / busy, "1/s", f"{ok} ops completed in {elapsed:.2f} s, "
                          f"{busy:.2f} s busy when scaled, raw {ok / sum(took_s):.3f}/s"),
            "latency_p50_ms": (1000 * statistics.median(latencies), "ms",
                               f"over {attempted} ops, raw {1000 * statistics.median(raw):.2f}"),
            "latency_tail_ms": (1000 * nearest_rank(latencies, pct), "ms",
                                f"p{pct}, {beyond} ops beyond it, "
                                f"raw {1000 * nearest_rank(raw, pct):.2f}"),
            "ok_frac": (ok / attempted, "frac",
                        f"failed_frac {failed / attempted:.4f} = {failed} / {attempted}"),
            "peak_rss_mb": (rss or rss_mb(), "MB",
                            f"after {min(i, params['rss_after_ops'])} ops"),
        }
        for key, (value, unit, note) in e2e.items():
            show(key, value, unit, note)
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    names = json.loads((HERE / "workloads.json").read_text())["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "widthiso" / "__init__.py").is_file():
        print(f"error: no widthiso sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in names:  # one process per workload: no shared cache state
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
