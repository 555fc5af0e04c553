import json
import os
import subprocess
import sys
import time

import pytest

K3_JSON = json.dumps({"n": 3, "edges": [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]]})
TWO_NODE_JSON = json.dumps({"n": 2, "edges": [[0, 1, 1.0]]})
DISCONNECTED_JSON = json.dumps({"n": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]]})


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "specgrow.cli", *args],
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(K3_JSON)
    return str(path)


def test_measure_known_outputs(tmp_path, k3_file):
    out = run_cli("measure", k3_file, "--measure", "zeta:q=1")
    assert out.returncode == 0
    assert out.stdout.strip() == "0.666666666667"

    out = run_cli("measure", k3_file, "--measure", "hankel")
    assert out.stdout.strip() == "0.166666666667"

    two = tmp_path / "two.json"
    two.write_text(TWO_NODE_JSON)
    out = run_cli("measure", str(two), "--measure", "volume")
    assert out.stdout.strip() == "-1.386294361120"


def test_measure_accepts_text_format(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("n 3\n0 1 1.0\n0 2 1.0\n1 2 1.0\n")
    out = run_cli("measure", str(path), "--measure", "zeta:q=1")
    assert out.returncode == 0
    assert out.stdout.strip() == "0.666666666667"


def test_exit_codes(tmp_path, k3_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli("measure", str(bad), "--measure", "zeta:q=1").returncode == 2
    assert run_cli("measure", str(tmp_path / "missing.json"),
                   "--measure", "zeta:q=1").returncode == 2

    disc = tmp_path / "disc.json"
    disc.write_text(DISCONNECTED_JSON)
    assert run_cli("measure", str(disc), "--measure", "zeta:q=1").returncode == 3
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 1_000_000, "edges": []}))
    out = run_cli("measure", str(huge), "--measure", "zeta:q=1")
    assert out.returncode == 3 and "Traceback" not in out.stderr
    # Too few links to connect 10^12 nodes: refused before any n-sized allocation.
    huge.write_text(json.dumps({"n": 10**12, "edges": [[0, 1, 1.0]]}))
    out = run_cli("measure", str(huge), "--measure", "zeta:q=1")
    assert out.returncode == 3 and "Traceback" not in out.stderr

    assert run_cli("measure", k3_file, "--measure", "zeta:q=0.2").returncode == 4
    assert run_cli("measure", k3_file, "--measure", "bogus").returncode == 4


def test_node_count_above_the_cap_exits_2(tmp_path):
    """A connected graph too large for a dense Laplacian is refused before
    the n x n allocation."""
    from specgrow.graphs import MAX_NODES
    n = MAX_NODES + 1
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"n": n, "edges": [[i, i + 1, 1.0] for i in range(n - 1)]}))
    out = run_cli("measure", str(path), "--measure", "zeta:q=1")
    assert out.returncode == 2 and "Traceback" not in out.stderr, out.stderr
    assert str(MAX_NODES) in out.stderr


def test_ill_conditioned_graph_exits_3(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1e-20], [2, 3, 1.0]]}))
    out = run_cli("measure", str(path), "--measure", "zeta:q=1")
    assert out.returncode == 3 and "algebraic connectivity" in out.stderr, out.stderr


@pytest.mark.parametrize("graph, links", [
    ('{"n": "abc", "edges": [[0, 1, 1.0]]}', None),
    ('{"n": null, "edges": [[0, 1, 1.0]]}', None),
    ('{"n": 1e400, "edges": [[0, 1, 1.0]]}', None),
    ('{"n": 2.9, "edges": [[0, 1, 1.0]]}', None),
    ('{"n": 3, "edges": [[0, 1.5, 1.0], [1, 2, 1.0]]}', None),
    (K3_JSON, [[-1, 1, 1.0]]),
    (K3_JSON, [[0, 2.7, 1.0]]),
], ids=["n-abc", "n-null", "n-1e400", "n-2.9", "id-1.5", "candidate-id--1", "candidate-id-2.7"])
def test_malformed_links_exit_2(tmp_path, graph, links):
    """Node counts and ids must be integers in range: no truncation, no wrap."""
    gpath = tmp_path / "g.json"
    gpath.write_text(graph)
    if links is None:
        out = run_cli("measure", str(gpath), "--measure", "zeta:q=1")
    else:
        cands = tmp_path / "c.json"
        cands.write_text(json.dumps({"links": links}))
        out = run_cli("grow", str(gpath), str(cands), "--measure", "zeta:q=1", "-k", "1")
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


def test_grow_writes_record_and_csv(tmp_path, k3_file):
    cands = tmp_path / "cands.json"
    cands.write_text(json.dumps({"links": [[0, 1, 1.0], [0, 2, 2.0], [1, 2, 0.5]]}))
    record = tmp_path / "run.json"
    csv_path = tmp_path / "traj.csv"
    out = run_cli("grow", k3_file, str(cands), "--measure", "zeta:q=1", "-k", "2",
                  "--algo", "greedy", "--out", str(record), "--csv", str(csv_path),
                  "--seed", "9")
    assert out.returncode == 0, out.stderr

    rec = json.loads(record.read_text())
    assert rec["tool"] == "specgrow"
    assert rec["algorithm"] == "greedy"
    assert rec["measure"] == "zeta:q=1"
    assert rec["seed"] == 9
    assert len(rec["result"]["chosen"]) == 2
    assert len(rec["result"]["values"]) == 3
    assert len(rec["inputs"]["graph"]["sha256"]) == 64

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "step,edge_i,edge_j,weight,value"
    assert len(lines) == 4
    assert lines[1].startswith("0,,,,")
    values = [float(line.split(",")[4]) for line in lines[1:]]
    assert values == sorted(values, reverse=True)


def test_outputs_go_to_devices_and_pipes(tmp_path, k3_file):
    """--out and --csv take the null device and a pipe (/dev/stdout, which
    run_cli captures), neither of which can be cut to a length."""
    cands = tmp_path / "cands.json"
    cands.write_text(json.dumps({"links": [[0, 1, 1.0], [0, 2, 2.0]]}))
    grow = ("grow", k3_file, str(cands), "--measure", "zeta:q=1", "-k", "1")
    out = run_cli(*grow, "--out", os.devnull, "--csv", os.devnull)
    assert out.returncode == 0, out.stderr
    if os.path.exists("/dev/stdout"):
        out = run_cli(*grow, "--csv", "/dev/stdout")
        assert out.returncode == 0, out.stderr
        assert "step,edge_i,edge_j,weight,value" in out.stdout.splitlines()


def test_grow_is_reproducible(tmp_path, k3_file):
    cands = tmp_path / "cands.json"
    cands.write_text(json.dumps({"links": [[0, 1, 1.0], [0, 2, 2.0]]}))
    runs = []
    for name in ("a.json", "b.json"):
        record = tmp_path / name
        out = run_cli("grow", k3_file, str(cands), "--measure", "volume", "-k", "1",
                      "--algo", "brute", "--out", str(record))
        assert out.returncode == 0
        rec = json.loads(record.read_text())
        # timings, timestamps and record paths vary run to run; the computed
        # outputs must not
        del rec["timestamp"], rec["command"], rec["result"]["elapsed"]
        rec["inputs"] = {k: v["sha256"] for k, v in rec["inputs"].items()}
        runs.append(rec)
    assert runs[0] == runs[1]


def test_grow_brute_and_greedy_agree_at_k1(tmp_path, k3_file):
    cands = tmp_path / "cands.json"
    cands.write_text(json.dumps({"links": [[0, 1, 1.0], [0, 2, 2.0], [1, 2, 0.5]]}))
    chosen = {}
    for algo in ("brute", "greedy"):
        record = tmp_path / f"{algo}.json"
        out = run_cli("grow", k3_file, str(cands), "--measure", "zeta:q=1",
                      "-k", "1", "--algo", algo, "--out", str(record))
        assert out.returncode == 0
        chosen[algo] = json.loads(record.read_text())["result"]["chosen"]
    assert chosen["brute"] == chosen["greedy"]


def test_grow_linear_rejects_hankel(tmp_path, k3_file):
    cands = tmp_path / "cands.json"
    cands.write_text(json.dumps({"links": [[0, 1, 1.0]]}))
    out = run_cli("grow", k3_file, str(cands), "--measure", "hankel",
                  "-k", "1", "--algo", "linear")
    assert out.returncode == 6


def test_grow_cap_exit(tmp_path, k3_file):
    cands = tmp_path / "cands.json"
    cands.write_text(json.dumps({"links": [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]]}))
    out = run_cli("grow", k3_file, str(cands), "--measure", "zeta:q=1",
                  "-k", "2", "--algo", "brute", "--cap", "2")
    assert out.returncode == 5


def test_no_partial_outputs_on_error(tmp_path, k3_file):
    cands = tmp_path / "cands.json"
    cands.write_text(json.dumps({"links": [[0, 1, 1.0]]}))
    record = tmp_path / "never.json"
    csv_path = tmp_path / "never.csv"
    out = run_cli("grow", k3_file, str(cands), "--measure", "hankel",
                  "-k", "1", "--algo", "linear",
                  "--out", str(record), "--csv", str(csv_path))
    assert out.returncode == 6
    assert not record.exists()
    assert not csv_path.exists()


def test_limits_csv(tmp_path):
    graph_path = tmp_path / "k4.json"
    graph_path.write_text(json.dumps(
        {"n": 4, "edges": [[i, j, 1.0] for i in range(4) for j in range(i + 1, 4)]}))
    csv_path = tmp_path / "pi.csv"
    out = run_cli("limits", str(graph_path), "--measure", "zeta:q=1",
                  "--k-max", "3", "--csv", str(csv_path))
    assert out.returncode == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,rho_k,pi_k"
    assert len(lines) == 5
    k1 = lines[2].split(",")
    assert float(k1[1]) == pytest.approx(0.5, abs=1e-9)
    pis = [float(line.split(",")[2]) for line in lines[1:]]
    assert pis == sorted(pis)
    assert pis[-1] == pytest.approx(100.0, abs=1e-6)


def test_limits_rejects_volume(tmp_path, k3_file):
    out = run_cli("limits", k3_file, "--measure", "volume")
    assert out.returncode == 4


def assert_refused_at_once(*args):
    """The call exits 4 with one error line and no traceback, in well under
    the time a runaway loop or allocation would take."""
    t0 = time.perf_counter()
    out = run_cli(*args)
    elapsed = time.perf_counter() - t0
    assert out.returncode == 4, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert "Traceback" not in out.stderr and out.stdout == ""
    assert elapsed < 10.0, elapsed


def test_limits_k_max_outside_zero_to_n_minus_1_exits_4(tmp_path):
    graph_path = tmp_path / "path4.json"
    graph_path.write_text(json.dumps({"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0]]}))
    for k_max in ("-1", "-3", "4", "1000000000"):
        assert_refused_at_once("limits", str(graph_path), "--measure", "zeta:q=1",
                               "--k-max", k_max)


def test_validate_trials_above_the_ensemble_cap_exits_4(k3_file):
    assert_refused_at_once("validate", k3_file, "--trials", "100000000000")


def test_validate_bad_seed_or_step_size_exits_4(tmp_path):
    """A negative seed, a step count past the Euler-update cap and a step
    above the stability bound are each refused as a parameter error."""
    graph_path = tmp_path / "path4.json"
    graph_path.write_text(json.dumps({"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0]]}))
    for option in (("--seed", "-1"), ("--dt", "1e-9"), ("--dt", "1.0")):
        assert_refused_at_once("validate", str(graph_path), *option)


def test_validate_has_no_horizon_option(k3_file):
    assert run_cli("validate", k3_file, "--t-final", "5").returncode == 2


def test_validate_deterministic(tmp_path, k3_file):
    args = ("validate", k3_file, "--measure", "zeta:q=1",
            "--trials", "400", "--seed", "42")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert payload["trials"] == 400
    assert payload["seed"] == 42
    assert "z_score" in payload


def test_validate_transient(tmp_path, k3_file):
    out = run_cli("validate", k3_file, "--measure", "tau:t=0.5",
                  "--trials", "400", "--seed", "1")
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["t"] == 0.5


def test_validate_transient_at_tiny_t(tmp_path):
    """At t = 1e-17 the closed form is 3t on a 4-node path, which the
    simulation matches; a form that cancels reads about half of it."""
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0]]}))
    out = run_cli("validate", str(path), "--measure", "tau:t=1e-17", "--trials", "100")
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["closed_form"] == 3e-17 and payload["passed"], payload


def _path(n):
    return [[i, i + 1, 1.0] for i in range(n - 1)]


_HUGE_CANDIDATES = [(6, [[0, 3, 1e308]]), (40, [[0, 5, 1e308], [0, 9, 1e308]])]


@pytest.mark.parametrize("n, edges, links, grow, code", [
    (3, [[0, 1, 1e308], [1, 2, 1e308]], None, None, 2),
    (2, [[0, 1, 1.7e308]], None, None, 2),
    (40, _path(40), [[0, 5, 1e308], [0, 9, 1e308], [3, 20, 1.0], [1, 30, 1.0]], ["-k", "3"], 4),
    *[(n, _path(n), links, ["-k", "1", "--algo", algo], 4)
      for n, links in _HUGE_CANDIDATES for algo in ("greedy", "linear", "brute")],
], ids=["measure-two-1e308", "measure-one-1.7e308", "grow-1e308-candidates",
        *[f"grow-k1-n{n}-{algo}" for n, _ in _HUGE_CANDIDATES
          for algo in ("greedy", "linear", "brute")]])
def test_weights_that_overflow_the_laplacian_are_refused(tmp_path, n, edges, links, grow, code):
    """A graph whose doubled largest weighted degree overflows exits 2; a
    candidate set that could make a grown one overflow exits 4 before any
    solver runs, also at k = 1 and for exhaustive search; each prints one
    error line and nothing else."""
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"n": n, "edges": edges}))
    if links is None:
        out = run_cli("measure", str(gpath), "--measure", "zeta:q=1")
    else:
        cands = tmp_path / "c.json"
        cands.write_text(json.dumps({"links": links}))
        out = run_cli("grow", str(gpath), str(cands), "--measure", "tau:t=1", *grow)
    assert out.returncode == code, out.stdout + out.stderr
    assert out.stdout == ""
    [line] = out.stderr.splitlines()
    assert line.startswith("error:") and "overflows" in line, out.stderr
