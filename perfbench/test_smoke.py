"""Fast self-test of the benchmark (about ten seconds):

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_seed_gives_the_same_problem(name):
    run.import_combust()
    from combust.cli import parse_config
    from combust.mncp import SolverOptions
    from combust.model import BASE_PARAMS

    run.WORK.mkdir(exist_ok=True)
    path = run.WORK / f"selftest-{name}.cfg"
    texts = set()
    for seed in range(40):
        text = workloads.config_text(name, seed)
        assert text == workloads.config_text(name, seed)
        texts.add(text)
        path.write_text(text)
        config = parse_config(path)
        spec = workloads.WORKLOADS[name]
        assert workloads.expected_problem_errors(config, spec, BASE_PARAMS, SolverOptions()) == []
    assert len(texts) == 40


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_cut_short_run_reports_every_metric(name, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        result, _ = run.bench(name, seed=7, seconds=0, trace=trace, steps=5)
        # In the traced run, `correct` also covers the count cross-checks.
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] > 0
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        assert got == dict(expected)
        if trace:
            assert result["metrics"]["timestepper.step.calls"]["value"] == 5


def test_cross_check_reports_disagreeing_counts():
    m = {"discretization.residual.calls": 10, "mncp.s_evals": 10,
         "discretization.jacobian.calls": 4, "mncp.js_evals": 4, "mncp.iterations": 4,
         "timestepper.step.calls": 2}
    assert run.cross_check(m, 2) == []
    assert len(run.cross_check({**m, "mncp.s_evals": 11}, 2)) == 1
    assert len(run.cross_check({**m, "discretization.jacobian.calls": 5}, 2)) == 1
    assert len(run.cross_check(m, 3)) == 1


def test_reference_check_rejects_wrong_states():
    ref = workloads.load_reference()["base_m50"]
    theta, eta = np.array(ref["theta"]), np.array(ref["eta"])
    assert workloads.check_final_state(theta, eta, ref) == []
    assert workloads.check_final_state(theta + 0.5 * workloads.REF_TOL, eta, ref) == []
    assert workloads.check_final_state(theta + 2 * workloads.REF_TOL, eta, ref)
    bad = eta.copy()
    bad[3] = np.nan
    assert workloads.check_final_state(theta, bad, ref)
    assert workloads.check_final_state(theta, eta, {"theta": ref["theta"][:-1], "eta": ref["eta"]})
    assert workloads.check_final_state(-theta, eta, None)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "base_m50", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
