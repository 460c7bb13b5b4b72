"""Smoke checks of the benchmark harness on the 4x4 illustrative system and one seed.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, units  # noqa: E402


def _benchmark_names(key):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}


def test_illustrative_pass_is_checked_and_accounted():
    tracer = Tracer("smoke")
    with workloads.gramian_halves_traced(tracer):
        (outcome,) = workloads.run_pass([workloads.illustrative_case()], tracer,
                                        workloads.simulate_kwargs())
    problems, record = workloads.check_outcome(outcome)
    assert problems == []
    assert (record["n_f"], record["n_inf"], record["nu"]) == workloads.ILLUSTRATIVE_TRUTH
    assert record["err_linf"] <= record["bound_total"]
    (unit,) = units(tracer.spans, "bench.pass")
    assert abs(sum(unit["self"].values()) - unit["total"]) < 1e-9
    assert {"gramians.controllability", "gramians.observability"} <= set(unit["calls"])


def _run(capsys, monkeypatch, trace):
    # small_batch without its random systems is the illustrative system alone
    monkeypatch.setattr(workloads, "N_RANDOM", 0)
    args = ["--workload", "small_batch", "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric(capsys, monkeypatch):
    result = _run(capsys, monkeypatch, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _benchmark_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(capsys, monkeypatch):
    result = _run(capsys, monkeypatch, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _benchmark_names("per_layer")
    assert result["metrics"]["cli.exit_nonzero"]["value"] == 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_batch", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
