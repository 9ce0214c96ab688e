"""Self-test of the benchmark on tiny inputs.

    PYTHONPATH=src python3 -m pytest benchmark/tests -q

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, that a corrupted program output is counted as a failure,
and that the benchmark refuses to run without the program's source tree.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for path in SPEC["paths"]:
        assert (ROOT / path).is_dir()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"] is True
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_failed_check_counts_as_a_failure():
    import run
    from workloads import Execution

    class Broken:
        def execute(self, k, tracer, timeout):
            return Execution(0.01)

        def check(self, ex):
            return ["wrong answer"]

    r = run.Run(Broken(), seconds=0.0, deadline=math.inf)
    r.loop(0)
    assert (r.attempted, r.failed) == (1, 1)


def test_corrupted_fit_output_is_rejected(tmp_path):
    from workloads import TINY, ColdFit

    wl = ColdFit(5, tmp_path, TINY)
    wl.setup()
    wl.prepare()
    ex = wl.execute(0, None, 120.0)
    assert wl.check(ex) == []
    path = ex.outputs["dir"] / "fit.json"
    payload = json.loads(path.read_text())
    payload["minima"][0]["params"]["tau_e"] *= 1.0 + 3.0 * wl.tol["log_tau"]
    path.write_text(json.dumps(payload))
    assert wl.check(ex)


def test_corrupted_forward_outputs_are_rejected(tmp_path):
    from workloads import TINY, ForwardPhysics

    wl = ForwardPhysics(5, tmp_path, TINY)
    wl.setup()
    ex = wl.execute(0, None, 120.0)
    assert wl.check(ex) == []

    summary = ex.outputs["spectra"][0] / "spectrum_summary.json"
    good = summary.read_text()
    payload = json.loads(good)
    payload["gamma1_at_omega_nv_per_s"] *= 1.0 + 1e-4
    summary.write_text(json.dumps(payload))
    assert wl.check(ex)
    summary.write_text(good)

    tau = ex.outputs["tau_ee"] / "tau_ee.json"
    payload = json.loads(tau.read_text())
    payload["bracketing_verdict"] = "ordering violated"
    tau.write_text(json.dumps(payload))
    assert wl.check(ex)


def test_layer_self_times_add_up_to_the_wall_time():
    from tracer import Tracer, layer_table

    t = Tracer()
    t.spans = [
        {"name": "estimator.cache_build", "start": 0.0, "end": 4.0, "parent": None, "op": "setup"},
        {"name": "spinmodel.transition_spectrum", "start": 1.0, "end": 3.0, "parent": 0, "op": "setup"},
        {"name": "spinmodel.hamiltonian", "start": 1.0, "end": 1.5, "parent": 1, "op": "setup"},
        {"name": "estimator.fit", "start": 10.0, "end": 12.0, "parent": None, "op": "op-1"},
        {"name": "estimator.fit", "start": 20.0, "end": 24.0, "parent": None, "op": "op-2"},
    ]
    table = layer_table(t, {"setup": 5.0, "op-1": 3.0, "op-2": 5.0})
    assert table["spinmodel.hamiltonian_s"] == 0.5
    assert table["spinmodel.diag_s"] == 1.5
    assert table["estimator.cache_build_s"] == 4.0
    assert table["estimator.cache_self_s"] == 2.0
    assert table["estimator.fit_s"] == 3.0  # mean over the two operations
    assert table["trace.wall_s"] == 9.0
    layers = sum(table[f"{m}.self_s"] for m in
                 ("spinmodel", "bathspectrum", "relaxometry", "estimator", "eesolver"))
    assert layers + table["config.load_s"] + table["io.load_s"] + table["cli.other_s"] == 9.0
