"""The benchmark's entry points start against the current sources.

Each worker is started the way ``perfbench/run.py`` starts it, so renaming
anything the benchmark imports fails here and not only in a benchmark run.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
_run_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_run_module)
worker_env = _run_module.worker_env


def _run(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=worker_env(), cwd=ROOT, timeout=120
    )


def test_selftest_passes():
    proc = _run(str(PERFBENCH / "selftest.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["classify", "verify", "search"])
def test_worker_gets_ready(workload):
    proc = _run(str(PERFBENCH / "worker.py"), "--workload", workload, "--probe")
    assert proc.returncode == 0, proc.stderr
    assert "ready" in proc.stdout.splitlines()


@pytest.mark.parametrize("workload", ["classify", "verify"])
def test_traced_worker_reports_every_layer(workload):
    # installs the tracer, which wraps the backend dispatch by name and reads
    # the counts of hardy.multiply and paperchecks.build_order3_witness
    proc = _run(str(PERFBENCH / "worker.py"), "--workload", workload, "--trace", "1", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["correct"] is True, out["errors"]
    assert out["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    assert len(out["metrics"]) == 16
