"""The benchmark's four workloads, all closed loop: one solve at a time.

A workload writes its seeded instance files, sets up from them (parse with
``load_graph`` and ``CandidateSet.parse``, then ``build_laplacian``) and runs
its solves in cycles, so every measure of the mix is timed equally often.

* ``grow-closed-n500``: greedy with the O(1) closed forms; ``with_edge`` is
  most of a solve and LAPACK is never called.
* ``grow-spectral-n300``: greedy on ``tau``, one ``eigvalsh`` per candidate.
* ``grow-small-many``: per-call overhead on tiny instances, each solve
  checked against exhaustive search.
* ``cli-grow-n500``: the whole ``specgrow grow`` process, import included.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import specgrow as sg

import checks
import instances

PERFBENCH = Path(__file__).resolve().parent
SRC = PERFBENCH.parent / "src"
CLI_TIMEOUT_S = 120


@dataclass
class Solve:
    """What one solve produced, for the checks made after it is timed."""

    inst: int                               # index into the workload's instances
    spec: str
    results: dict[str, sg.SynthesisResult]  # by algorithm
    low: float | None = None                # lower_bound, grow-small-many only
    code: int = 0                           # exit status, cli-grow-n500 only


class Workload:
    """Instances on disk, set-up, the solve cycle and its checks."""

    name = ""
    rss_who = resource.RUSAGE_SELF   # whose peak resident memory is reported

    def __init__(self, seed: int, workdir: Path, insts: list[instances.Instance]):
        self.seed = seed
        self.instances = insts
        self.files = [inst.write(workdir, f"i{idx}") for idx, inst in enumerate(insts)]
        self.measures = {spec: sg.parse_measure(spec)
                         for inst in insts for spec in inst.specs}
        self._fresh: dict[tuple, float] = {}

    def setup(self) -> list[tuple[sg.LaplacianState, sg.CandidateSet]]:
        out = []
        for graph, cands in self.files:
            g = sg.load_graph(graph)
            c = sg.CandidateSet.parse(cands.read_text(encoding="utf-8"))
            out.append((sg.build_laplacian(g), c))
        return out

    def cycle(self) -> list[tuple[int, str]]:
        return [(idx, spec) for idx, inst in enumerate(self.instances) for spec in inst.specs]

    def solve(self, ctx, item, tracer=None) -> tuple[float, Solve]:
        raise NotImplementedError

    def in_process_cycle(self, ctx) -> None:
        """One cycle of the solver calls, in this process (for tracemalloc)."""
        for item in self.cycle():
            self.solve(ctx, item)

    def oracle_targets(self, warm: list[Solve]) -> list[Solve]:
        """Warm-up solves whose greedy picks the oracle re-scores."""
        return [warm[self.seed % len(warm)]]

    # --- checks -------------------------------------------------------------

    def check(self, s: Solve) -> list[str]:
        inst = self.instances[s.inst]
        m = self.measures[s.spec]
        failures = []
        for algo, res in s.results.items():
            label = f"{self.name} i{s.inst} {s.spec} {algo}"
            failures += checks.trajectory(label, res.values)
            key = (s.inst, s.spec, res.chosen)
            if key not in self._fresh:
                self._fresh[key] = checks.grown_value(inst.n, inst.edges, res.chosen, m)
            if not checks.close(res.final_value, self._fresh[key]):
                failures.append(f"{label}: final value {res.final_value!r} != "
                                f"fresh build {self._fresh[key]!r}")
        return failures

    def oracle(self, s: Solve) -> list[str]:
        label = f"{self.name} i{s.inst} {s.spec} oracle"
        if "greedy" not in s.results:
            return [f"{label}: no greedy result to re-score"]
        return checks.check_picks(label, self.instances[s.inst], self.measures[s.spec],
                                  s.results["greedy"])

    # --- counts ---------------------------------------------------------------

    def picks(self, s: Solve) -> int:
        return sum(len(res.chosen) for res in s.results.values())

    def greedy_candidate_steps(self, s: Solve) -> int:
        """Candidates remaining, summed over the greedy steps of a solve."""
        p = len(self.instances[s.inst].links)
        greedy = s.results.get("greedy")
        return sum(p - t for t in range(len(greedy.chosen))) if greedy else 0


class GreedyWorkload(Workload):
    """One instance; a solve is one ``greedy`` call on the cycle's next measure."""

    def solve(self, ctx, item, tracer=None):
        idx, spec = item
        state, cands = ctx[idx]
        k, m = self.instances[idx].k, self.measures[spec]
        t0 = perf_counter()
        res = sg.greedy(state, cands, k, m)
        return perf_counter() - t0, Solve(idx, spec, {"greedy": res})


class ClosedN500(GreedyWorkload):
    name = "grow-closed-n500"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, [instances.n500(seed)])


class SpectralN300(GreedyWorkload):
    name = "grow-spectral-n300"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, [instances.n300(seed)])


class SmallMany(Workload):
    """50 tiny instances x 8 measure families; a solve is one pair."""

    name = "grow-small-many"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, instances.small_sweep(seed))

    def solve(self, ctx, item, tracer=None):
        idx, spec = item
        state, cands = ctx[idx]
        k, m = self.instances[idx].k, self.measures[spec]
        t0 = perf_counter()
        results = {"brute": sg.brute_force(state, cands, k, m),
                   "greedy": sg.greedy(state, cands, k, m)}
        if m.differentiable:
            results["linear"] = sg.linearized(state, cands, k, m)
        low = sg.lower_bound(state, m, k)
        return perf_counter() - t0, Solve(idx, spec, results, low=low)

    def check(self, s):
        failures = super().check(s)
        best = s.results["brute"].final_value
        for algo, res in s.results.items():
            if not best <= res.final_value + 1e-9 * max(1.0, abs(best)):
                failures.append(f"{self.name} i{s.inst} {s.spec}: brute {best!r} "
                                f"above {algo} {res.final_value!r}")
        if not best > s.low:
            failures.append(f"{self.name} i{s.inst} {s.spec}: brute {best!r} "
                            f"not above lower bound {s.low!r}")
        return failures

    def oracle_targets(self, warm):
        return warm


class CliN500(Workload):
    """A solve is one ``specgrow grow --algo greedy`` process on the n500 files."""

    name = "cli-grow-n500"
    rss_who = resource.RUSAGE_CHILDREN
    specs = ("zeta:q=1", "volume")

    def __init__(self, seed, workdir):
        inst = instances.n500(seed)
        super().__init__(seed, workdir, [instances.Instance(
            inst.n, inst.edges, inst.links, inst.k, self.specs)])
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.import_s: list[float] = []
        self._reference: dict[str, sg.SynthesisResult] = {}

    def solve(self, ctx, item, tracer=None):
        idx, spec = item
        graph, cands = self.files[idx]
        record, spans = self.workdir / "run.json", self.workdir / "spans.json"
        args = ["grow", str(graph), str(cands), "--measure", spec, "--algo", "greedy",
                "-k", str(self.instances[idx].k), "--out", str(record),
                "--csv", str(self.workdir / "run.csv")]
        if tracer is None:
            cmd = [sys.executable, "-m", "specgrow.cli", *args]
        else:
            cmd = [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans), *args]
        record.unlink(missing_ok=True)
        spans.unlink(missing_ok=True)
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        elapsed = perf_counter() - t0
        results = {}
        if proc.returncode == 0:
            res = json.loads(record.read_text(encoding="utf-8"))["result"]
            results["greedy"] = sg.SynthesisResult(
                res["algorithm"], tuple(((i, j), w) for i, j, w in res["chosen"]),
                tuple(res["values"]), tuple(res["elapsed"]), res["tie_breaks"], res["seed"])
        if tracer is not None and spans.exists():
            child = json.loads(spans.read_text(encoding="utf-8"))
            tracer.extend(child["spans"])
            self.import_s.append(child["import_s"])
        return elapsed, Solve(idx, spec, results, code=proc.returncode)

    def reference(self, spec: str) -> sg.SynthesisResult:
        """In-process greedy on the same files, which the CLI must match."""
        if spec not in self._reference:
            state, cands = self.setup()[0]
            self._reference[spec] = sg.greedy(state, cands, self.instances[0].k,
                                              self.measures[spec])
        return self._reference[spec]

    def in_process_cycle(self, ctx):
        state, cands = ctx[0]
        for spec in self.specs:
            sg.greedy(state, cands, self.instances[0].k, self.measures[spec])

    def check(self, s):
        if s.code != 0 or "greedy" not in s.results:
            return [f"{self.name} {s.spec}: exit code {s.code}"]
        failures = super().check(s)
        got, ref = s.results["greedy"], self.reference(s.spec)
        if got.chosen != ref.chosen or got.values != ref.values:
            failures.append(f"{self.name} {s.spec}: run record differs from in-process greedy")
        return failures


WORKLOADS = {cls.name: cls for cls in (ClosedN500, SpectralN300, SmallMany, CliN500)}
