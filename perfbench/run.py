"""specgrow benchmark: seeded growth problems, timed end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: grow-closed-n500, grow-spectral-n300, grow-small-many,
cli-grow-n500 (see workloads.py).  One run

1. writes the seeded instance files under perfbench/out/,
2. sets up once cold, then SETUP_REPEATS more times,
3. runs one untimed warm-up cycle of solves,
4. with ``--trace 0`` times cycles of solves for S seconds with tracing
   off, each cycle after a fresh set-up, and reports the end-to-end metrics
   (``setup_s`` is the median of every warm set-up); with ``--trace 1`` it
   times S/2 seconds untraced and S/2 seconds traced, then one cycle under
   tracemalloc, and reports the per-layer metrics, writing the spans to
   perfbench/out/,
5. checks every solve (checks.py), re-scoring the warm-up picks with the
   oracle.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 1 when any
check failed and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9
TAIL_BEYOND = 10
# One BLAS thread: on a shared 2-core machine a second OpenBLAS thread made
# a 300x300 eigvalsh 10-50x slower whenever the other core was busy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"solve_s": "s", "solve_s.tail": "s", "picks_per_s": "1/s",
             "setup_s": "s", "peak_rss_mib": "MiB"}
LAYER_UNITS = {
    "laplacian.with_edge.calls": "count", "laplacian.with_edge.self_s": "s",
    "laplacian.with_edge.share": "fraction", "laplacian.with_edge.alloc_mib": "MiB",
    "synthesis.greedy.self_s": "s",
    "lapack.eigvalsh.calls": "count", "lapack.eigvalsh.s": "s",
    "measures.companion_value.calls": "count", "measures.companion_value.self_s": "s",
    "synthesis.exact_score_ratio": "fraction", "synthesis.tie_breaks": "count",
    "lapack.eigh.calls": "count", "lapack.eigh.s": "s",
    "laplacian.build_laplacian.s": "s", "graphs.load_graph.s": "s",
    "synthesis.CandidateSet.parse.s": "s", "cli.import_s": "s", "cli.main.self_s": "s",
    "synthesis.brute_force.self_s": "s", "synthesis.linearized.self_s": "s",
    "measures.evaluate.calls": "count", "measures.gradient.s": "s",
    "limits.lower_bound.s": "s", "trace.overhead_frac": "fraction",
}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; with too few samples, the maximum (percentile 100)."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def machine_facts() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                threads = getattr(lib, sym)()
                break
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "nproc": os.cpu_count(), "src_lines": src_lines}


@dataclass(frozen=True)
class Sample:
    """One timed solve, reduced to what the metrics need once it is checked."""

    seconds: float
    picks: int
    tie_breaks: int
    greedy_steps: int
    failures: tuple[str, ...]


def sample(wl, seconds: float, s) -> Sample:
    return Sample(seconds, wl.picks(s), sum(r.tie_breaks for r in s.results.values()),
                  wl.greedy_candidate_steps(s), tuple(wl.check(s)))


def timed(wl, seconds: float, tracer=None) -> tuple[list[Sample], list[float]]:
    """Whole cycles of solves until `seconds` have passed; (samples, set-up times).

    Each cycle first sets up again, so set-up is sampled across the run as
    solves are (traced, in a unit of its own, so the set-up layers are
    measured per solve too).  Each solve is checked as soon as it is timed,
    so memory does not grow with the number of solves."""
    samples, setups = [], []
    end = perf_counter() + seconds
    cycle = 0
    while True:
        ctx = None                             # frees the last cycle's states first
        t0 = perf_counter()
        if tracer is None:
            ctx = wl.setup()
        else:
            with tracer.unit(f"setup-{cycle}", "setup"):
                ctx = wl.setup()
        setups.append(perf_counter() - t0)
        for pos, item in enumerate(wl.cycle()):
            if tracer is None:
                dt, s = wl.solve(ctx, item)
            else:
                with tracer.unit(f"solve-{cycle}-{pos}", "solve"):
                    dt, s = wl.solve(ctx, item, tracer)
            samples.append(sample(wl, dt, s))
        cycle += 1
        if perf_counter() >= end:
            return samples, setups


def end_to_end(wl, samples, setup_times) -> dict[str, float]:
    import resource

    times = [x.seconds for x in samples]
    tail_s, pct = tail(times)
    print(f"{wl.name}: {len(times)} solves; solve_s.tail is percentile {pct:.1f}")
    return {
        "solve_s": median(times),
        "solve_s.tail": tail_s,
        "picks_per_s": sum(x.picks for x in samples) / sum(times),
        "setup_s": median(setup_times),
        "peak_rss_mib": resource.getrusage(wl.rss_who).ru_maxrss / 1024.0,
    }


def per_layer(wl, spans, untraced, traced, alloc_mib) -> dict[str, float]:
    from tracer import LAYERS, nearest, summarize

    agg = summarize(spans)
    in_solves = summarize(spans, "solve")
    solves = len(traced)
    solve_time = sum(x.seconds for x in traced)

    def per(name, key):
        return agg.get(name, {}).get(key, 0.0) / solves

    exact = sum(1 for idx, span in enumerate(spans)
                if span[0] == "measures.companion_value"
                and nearest(spans, idx, "synthesis.") == "synthesis.greedy")
    remaining = sum(x.greedy_steps for x in traced)
    shares = {name: vals["self_s"] / solve_time for name, vals in in_solves.items()
              if name in LAYERS}
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"{wl.name}: layer {name} self share {share:.4f}")
    import_s = getattr(wl, "import_s", [])
    return {
        "laplacian.with_edge.calls": per("laplacian.with_edge", "calls"),
        "laplacian.with_edge.self_s": per("laplacian.with_edge", "self_s"),
        "laplacian.with_edge.share": shares.get("laplacian.with_edge", 0.0),
        "laplacian.with_edge.alloc_mib": alloc_mib,
        "synthesis.greedy.self_s": per("synthesis.greedy", "self_s"),
        "lapack.eigvalsh.calls": per("lapack.eigvalsh", "calls"),
        "lapack.eigvalsh.s": per("lapack.eigvalsh", "s"),
        "measures.companion_value.calls": per("measures.companion_value", "calls"),
        "measures.companion_value.self_s": per("measures.companion_value", "self_s"),
        "synthesis.exact_score_ratio": exact / remaining if remaining else 0.0,
        "synthesis.tie_breaks": sum(x.tie_breaks for x in traced) / solves,
        "lapack.eigh.calls": per("lapack.eigh", "calls"),
        "lapack.eigh.s": per("lapack.eigh", "s"),
        "laplacian.build_laplacian.s": per("laplacian.build_laplacian", "s"),
        "graphs.load_graph.s": per("graphs.load_graph", "s"),
        "synthesis.CandidateSet.parse.s": per("synthesis.CandidateSet.parse", "s"),
        "cli.import_s": median(import_s) if import_s else 0.0,
        "cli.main.self_s": per("cli.main", "self_s"),
        "synthesis.brute_force.self_s": per("synthesis.brute_force", "self_s"),
        "synthesis.linearized.self_s": per("synthesis.linearized", "self_s"),
        "measures.evaluate.calls": per("measures.evaluate", "calls"),
        "measures.gradient.s": per("measures.gradient", "s"),
        "limits.lower_bound.s": per("limits.lower_bound", "s"),
        "trace.overhead_frac": (median(x.seconds for x in traced)
                                / median(x.seconds for x in untraced) - 1.0),
    }


def count_failures(wl, warm, samples: list[Sample]) -> tuple[int, int]:
    """(attempted, failed) over the warm-up solves and the timed samples; the
    oracle re-scores the picks of the warm-up solves ``wl.oracle_targets`` names."""
    targets = {id(s) for s in wl.oracle_targets(warm)}
    reports = [wl.check(s) + (wl.oracle(s) if id(s) in targets else []) for s in warm]
    reports += [list(x.failures) for x in samples]
    for failures in reports:
        for msg in failures[:3]:
            print("FAILED " + msg, file=sys.stderr)
    return len(reports), sum(1 for failures in reports if failures)


def run(args) -> int:
    from tracer import AllocProbe, Tracer, installed
    from workloads import WORKLOADS

    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        wl = WORKLOADS[args.workload](args.seed, Path(tmp))
        ctx = wl.setup()                       # cold; not reported
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            ctx = wl.setup()
            setup_times.append(perf_counter() - t0)
        warm = [wl.solve(ctx, item)[1] for item in wl.cycle()]
        del ctx                                # timed() sets up its own
        for s in warm:                         # fills the checks' caches before timing
            wl.check(s)

        if not args.trace:
            samples, setups = timed(wl, args.seconds)
            metrics = end_to_end(wl, samples, setup_times + setups)
            units = E2E_UNITS
        else:
            untraced, _ = timed(wl, args.seconds / 2)
            tracer = Tracer()
            with installed(tracer.wrap):
                traced, _ = timed(wl, args.seconds / 2, tracer)
            probe = AllocProbe()
            with probe.tracing(), installed(probe.wrap, ["laplacian.with_edge"]):
                wl.in_process_cycle(wl.setup())
            metrics = per_layer(wl, tracer.spans, untraced, traced, probe.median_mib())
            units = LAYER_UNITS
            samples = untraced + traced
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps({"machine": facts, "spans": tracer.spans}),
                                  encoding="utf-8")

        attempted, failed = count_failures(wl, warm, samples)

    print(f"{args.workload}: attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / attempted}")
    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grow-closed-n500", "grow-spectral-n300",
                                 "grow-small-many", "cli-grow-n500"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "specgrow" / "__init__.py").is_file():
        print(f"error: specgrow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:                    # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
