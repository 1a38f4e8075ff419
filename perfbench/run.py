"""Benchmark entry point: one workload, end to end or traced.

    python3 perfbench/run.py --workload {classify,verify,search} \\
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout; csymcomp is imported from
``src/``.  The workload runs in a fresh ``worker.py`` process with one
OpenBLAS thread.  ``setup_s`` is the median, over that process and four
more set-up-only processes, of the time from starting the process to the
end of its warm-up calls.  The last line of standard output is the result
as one JSON object; the full record, with machine metadata, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
#: Each worker must finish well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 160


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def start_worker(args, extra, env):
    """Start a worker and wait for its ``ready`` line; returns (process, seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, elapsed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=("classify", "verify", "search"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "csymcomp" / "__init__.py").is_file():
        print(f"error: no csymcomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = worker_env()
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, elapsed = start_worker(args, ["--probe"], env)
            proc.communicate(timeout=30)
            setups.append(elapsed)
    extra = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--trace-file", str(out_dir / f"trace-{stem}.json")]
    proc, elapsed = start_worker(args, extra, env)
    setups.append(elapsed)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("error: worker timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not stdout.strip():
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(stdout.strip().splitlines()[-1])
    metrics = record["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        record["setup_samples_s"] = setups
    record["args"] = vars(args)
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for err in record["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    summary = {k: record[k] for k in ("correct", "attempted", "failed")}
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
