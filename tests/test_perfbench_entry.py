"""The benchmark's entry points start against the current sources.

Each worker is started the way ``perfbench/run.py`` starts it, so renaming
anything the benchmark imports fails here and not only in a benchmark run.
"""

import importlib.util
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
