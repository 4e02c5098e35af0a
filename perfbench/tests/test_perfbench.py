"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import faircover as fc  # noqa: E402

import bench  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, make_cases  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_UNITS = bench.declared_units(ROOT, "per_layer")


def run_cli(capsys, workload, trace, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
            "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def traced_pass(name, seed=3):
    workload = WORKLOADS[name]
    recipes = workload.recipes(seed, True)
    cases = make_cases(workload, [r.make() for r in recipes], recipes)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        out = bench.run_pass(workload, cases, tracer.lp_solver)
    return workload, cases, out, tracer.log


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric(capsys, workload, trace):
    out = run_cli(capsys, workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "c01-mix", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_spans_nest_and_self_time_is_non_negative():
    _, _, _, log = traced_pass("c01-mix")
    assert len(log) > 0
    for i, p in enumerate(log.parent):
        assert log.start[i] <= log.end[i]
        if p >= 0:
            assert log.start[p] <= log.start[i] and log.end[i] <= log.end[p]
    calls, total, self_s = log.totals()
    assert {"lp.solve", "weighted.sweep", "unweighted.new_coverage"} <= set(calls)
    for name, s in self_s.items():
        assert -1e-9 <= s <= total[name] + 1e-9


def test_wrappers_are_removed_after_the_traced_block():
    before = (fc.eff_fsc, fc.unweighted.sample_round_tuple,
              fc.weighted.sample_round_tuple, fc.unweighted.GreedyState.new_coverage)
    traced_pass("c01-mix")
    after = (fc.eff_fsc, fc.unweighted.sample_round_tuple,
             fc.weighted.sample_round_tuple, fc.unweighted.GreedyState.new_coverage)
    assert before == after


def test_no_lp_solves_on_the_oracle_workload(capsys):
    metrics = run_cli(capsys, "oracle-ratio", 1)["metrics"]
    assert metrics["lp.solve.calls"]["value"] == 0
    assert metrics["lp.solve.pct"]["value"] == 0


def test_lp_workload_solves_and_sweeps(capsys):
    metrics = run_cli(capsys, "c01-mix", 1)["metrics"]
    assert metrics["lp.solve.calls"]["value"] > 0
    assert 50 < metrics["lp.solve.pct"]["value"] < 100
    assert metrics["weighted.sweep.targets"]["value"] >= 1


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_gives_same_digest_and_counts(workload):
    runs = []
    for _ in range(2):
        wl, cases, out, log = traced_pass(workload)
        untraced = bench.run_pass(wl, cases)
        layers = spans.layer_metrics(log, out.cpu, LAYER_UNITS)
        counts = {k: layers[k] for k, unit in LAYER_UNITS.items()
                  if unit == "count" and k in layers}
        runs.append((bench.digest(wl, cases, out.outs),
                     bench.digest(wl, cases, untraced.outs), counts))
    assert runs[0] == runs[1]
    assert runs[0][0] == runs[0][1]


def test_a_wrong_cover_is_counted_as_a_failed_call():
    workload, cases, out, _ = traced_pass("oracle-ratio")
    case = cases[0]
    out.outs[0]["greedy_allpick"] = fc.Cover.from_selection(case.system, [0])
    verdict = bench.verify(workload, cases, out.outs)
    assert verdict.wrong == 1
    assert verdict.errors == {"CheckFailed": 1}
