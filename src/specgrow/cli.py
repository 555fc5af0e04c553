"""Command-line front end: measures, growth solvers, bounds, validation.

Exit codes: 0 success, 2 input parse error, 3 disconnected graph,
4 invalid measure spec or parameter, 5 combinatorial cap exceeded,
6 nondifferentiable measure passed to the linearized solver.

Run records are JSON (command line, input hashes, seed, results) so a run
can be replayed and diffed; trajectory and bound tables are CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import (CombinatorialBlowup, InvalidParameter, NonDifferentiableMeasure,
                     NotConnected, SpecgrowError, UnsupportedMeasure)
from .graphs import load_graph
from .laplacian import build_laplacian
from .limits import enhancement_table, limit_value
from .measures import evaluate, parse_measure
from .montecarlo import SimConfig, stable_step_bound, validate_measure
from .synthesis import CandidateSet, brute_force, greedy, linearized

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_MEASURE = 4
EXIT_CAP = 5
EXIT_NONDIFF = 6


def _fmt(value: float) -> str:
    if math.isinf(value) or math.isnan(value):
        return str(value)
    return f"{value:.12f}"


def _run_record(inputs: dict[str, str], payload: dict) -> dict:
    return {
        "tool": "specgrow",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": sys.argv,
        "inputs": {name: {"path": p, "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()}
                   for name, p in inputs.items()},
        **payload,
    }


def _write_json(path: str, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_state(path: str):
    return build_laplacian(load_graph(path))


# --- subcommands --------------------------------------------------------------


def cmd_measure(args) -> int:
    m = parse_measure(args.measure)
    state = _load_state(args.graph)
    print(_fmt(evaluate(m, state)))
    return EXIT_OK


def cmd_grow(args) -> int:
    m = parse_measure(args.measure)
    state = _load_state(args.graph)
    candidates = CandidateSet.parse(Path(args.candidates).read_text(encoding="utf-8"))
    if args.algo == "brute":
        result = brute_force(state, candidates, args.k, m, cap=args.cap)
    elif args.algo == "greedy":
        result = greedy(state, candidates, args.k, m)
    else:
        result = linearized(state, candidates, args.k, m)
    result = dataclasses.replace(result, seed=args.seed)

    if args.out:
        record = _run_record(
            {"graph": args.graph, "candidates": args.candidates},
            {"measure": m.label, "algorithm": result.algorithm, "seed": args.seed,
             "result": result.to_json_obj()},
        )
        _write_json(args.out, record)
    if args.csv:
        lines = ["step,edge_i,edge_j,weight,value",
                 f"0,,,,{_fmt(result.values[0])}"]
        for step, ((i, j), w) in enumerate(result.chosen, start=1):
            lines.append(f"{step},{i},{j},{w:g},{_fmt(result.values[step])}")
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")

    for (i, j), w in result.chosen:
        print(f"chosen {i} {j} {w:g}")
    print(f"value {_fmt(result.final_value)}")
    return EXIT_OK


def cmd_limits(args) -> int:
    m = parse_measure(args.measure)
    state = _load_state(args.graph)
    k_max = args.k_max if args.k_max is not None else state.n - 1
    rows = enhancement_table(state, m, k_max)

    if args.csv:
        lines = ["k,rho_k,pi_k"]
        lines += [f"{k},{rho:.12g},{pi:.6f}" for k, rho, pi in rows]
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.out:
        record = _run_record(
            {"graph": args.graph},
            {"measure": m.label,
             "limit_value": limit_value(m, state.n),
             "rows": [{"k": k, "rho_k": rho, "pi_k": pi} for k, rho, pi in rows]},
        )
        _write_json(args.out, record)

    for k, rho, pi in rows:
        print(f"k={k} rho={rho:.12g} pi={pi:.4f}%")
    return EXIT_OK


def cmd_validate(args) -> int:
    m = parse_measure(args.measure)
    state = _load_state(args.graph)
    dt = args.dt if args.dt is not None else 0.2 * stable_step_bound(state)
    cfg = SimConfig(dt=dt, trials=args.trials, seed=args.seed)
    report = validate_measure(state, m, cfg)

    payload = report.to_json_obj()
    print(json.dumps(payload, sort_keys=True))
    if args.out:
        record = _run_record({"graph": args.graph}, {"measure": m.label, "report": payload})
        _write_json(args.out, record)
    return EXIT_OK


# --- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgrow",
        description="Spectral performance measures of consensus networks "
                    "and solvers for growing them by new links.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate one measure on a graph")
    p.add_argument("graph")
    p.add_argument("--measure", required=True)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("grow", help="choose k links minimizing a measure")
    p.add_argument("graph")
    p.add_argument("candidates")
    p.add_argument("--measure", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--algo", choices=("brute", "greedy", "linear"), default="greedy")
    p.add_argument("--out", help="write a JSON run record here")
    p.add_argument("--csv", help="write the step,edge,value trajectory here")
    p.add_argument("--cap", type=int, default=2_000_000,
                   help="subset cap for --algo brute")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grow)

    p = sub.add_parser("limits", help="tabulate bounds and enhancement percentages")
    p.add_argument("graph")
    p.add_argument("--measure", required=True)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--csv", help="write k,rho_k,pi_k rows here")
    p.add_argument("--out", help="write a JSON run record here")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("validate", help="Monte Carlo check of a closed form")
    p.add_argument("graph")
    p.add_argument("--measure", default="zeta:q=1")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--dt", type=float, default=None,
                   help="step size (default: a fifth of the stability bound)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write a JSON run record here")
    p.set_defaults(func=cmd_validate)

    return parser


# Checked in order, so a subclass maps with its first listed ancestor.
_EXIT_CODES = (
    (NotConnected, EXIT_DISCONNECTED),
    (CombinatorialBlowup, EXIT_CAP),
    (NonDifferentiableMeasure, EXIT_NONDIFF),
    ((InvalidParameter, UnsupportedMeasure), EXIT_MEASURE),
    ((SpecgrowError, OSError), EXIT_PARSE),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecgrowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
