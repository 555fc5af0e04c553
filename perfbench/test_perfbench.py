"""Tests of the benchmark itself: pinned instances and negative controls.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json

import pytest

import checks
import instances
import run
from run import count_failures, sample, tail
from workloads import WORKLOADS, SmallMany


def test_seed_zero_reproduces_the_acceptance_instances():
    assert instances.fingerprint([instances.n500(0)]) == instances.PINNED["n500"]
    assert instances.fingerprint([instances.n300(0)]) == instances.PINNED["n300"]
    assert instances.fingerprint(instances.small_sweep(0)) == instances.PINNED["small"]


def test_other_seeds_give_other_instances_of_the_same_shape():
    a, b = instances.n500(0), instances.n500(1)
    assert a.text() != b.text()
    assert (len(a.edges), len(a.links)) == (len(b.edges), len(b.links)) == (1499, 2000)


def test_tail_keeps_ten_samples_beyond():
    times = [float(t) for t in range(1, 41)]
    assert tail(times) == (30.0, 75.0)
    assert tail([2.0, 1.0]) == (2.0, 100.0)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    wl = SmallMany(0, tmp_path_factory.mktemp("small"))
    ctx = wl.setup()
    return wl, [wl.solve(ctx, item)[1] for item in wl.cycle()]


def _replace_greedy(solve, **changes):
    res = dataclasses.replace(solve.results["greedy"], **changes)
    return dataclasses.replace(solve, results={**solve.results, "greedy": res})


def test_correct_solves_pass(small):
    wl, warm = small
    assert count_failures(wl, warm, []) == (len(warm), 0)


@pytest.mark.parametrize("spec", ["zeta:q=1", "tau:t=1"])
def test_planted_wrong_pick_is_counted_as_failed(small, spec):
    wl, warm = small
    solve = next(s for s in warm if s.spec == spec)
    inst = wl.instances[solve.inst]
    res = solve.results["greedy"]
    picked = {edge for edge, _ in res.chosen}
    other = next((i, j, w) for i, j, w in sorted(inst.links) if (i, j) not in picked)
    planted = _replace_greedy(solve, chosen=(((other[0], other[1]), other[2]),)
                              + res.chosen[1:])
    assert any("oracle picks" in msg for msg in wl.oracle(planted))
    rest = [s for s in warm if s is not solve]
    assert count_failures(wl, [planted] + rest, []) == (len(warm), 1)


def test_perturbed_value_is_counted_as_failed(small):
    wl, warm = small
    solve = warm[0]
    values = list(solve.results["greedy"].values)
    values[-1] *= 1.0 + 1e-6
    planted = _replace_greedy(solve, values=tuple(values))
    assert any("fresh build" in msg for msg in wl.check(planted))
    assert count_failures(wl, warm, [sample(wl, 0.0, planted)]) == (len(warm) + 1, 1)


def test_oracle_agrees_with_greedy_on_the_closed_forms(small):
    wl, warm = small
    for solve in warm:
        if solve.spec in ("zeta:q=1", "zeta:q=2", "volume"):
            assert wl.oracle(solve) == []
    assert checks.SLACK_REL < checks.TIE_REL


def test_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
