"""One workload in one fresh process, driven by one client in a closed loop.

Started by ``run.py``.  It imports csymcomp, makes its warm-up calls and
prints ``ready``; with ``--probe`` it exits there (a set-up sample).
Otherwise it builds the seeded inputs, runs whole rounds of operations
until ``--seconds`` have passed and at least the workload's minimum number
of operations is done, checks every output, and prints one JSON line.

With ``--trace 1`` it first runs a calibration pass untraced, then installs
the tracer and runs the workload again; the per-layer metrics come from the
traced part, and the tracing overhead compares the traced and untraced
time of the same calibration operations.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from array import array

import numpy as np

import csymcomp
from csymcomp import cli, compop, conjfinder, csym, mobius
from csymcomp.errors import DomainError

import checks
import inputs
from tracing import Tracer


class Classify:
    """One operation is one ``decide(phi)``."""

    min_ops = 1000
    max_rate = 50_000  # operations per second, to size the time buffer
    tail_percentile = 97.0
    calibration_ops = None  # the whole round, repeated for a third of the run

    def warmup(self):
        for coeffs in (inputs.rot(1j), inputs.elliptic(-1, 0.4), (0.5, 0, -0.25, 1)):
            csym.decide(mobius.MobiusMap(*coeffs))

    def make_round(self, seed):
        """Symbols with ``decide_automorphism``'s verdict (None if it refuses
        the symbol), taken here so that it stays out of timing and tracing."""
        out = []
        for s in inputs.classify_round(seed):
            phi = mobius.MobiusMap(*s.coeffs)
            try:
                aut = csym.decide_automorphism(phi).is_cs
            except DomainError:
                aut = None
            out.append((s, (phi, aut)))
        return out

    def execute(self, prepared):
        return csym.decide(prepared[0])

    def check(self, i, item, prepared, verdict):
        cls = verdict.symbol_class
        err = checks.check_classify(item.expected, verdict.is_cs, cls.kind.value, cls.order)
        if err is None and cls.is_automorphism:
            err = checks.check_cross(verdict.is_cs, prepared[1])
        return err

    def reset(self):
        pass

    def reference(self, round_):
        return None


class Verify:
    """One operation is one in-process ``csymcomp verify --json --suite all``."""

    min_ops = inputs.VERIFY_OPS
    max_rate = 10
    tail_percentile = 75.0
    calibration_ops = 8

    def warmup(self):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "--json", "--suite", "all", "--truncation=32"])

    def make_round(self, seed):
        return [(p, inputs.verify_argv(p)) for p in inputs.verify_round(seed)]

    def execute(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def check(self, i, item, prepared, output):
        rc, text = output
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return f"exit code {rc}, stdout is not JSON: {text[:80]!r}"
        return checks.check_verify(item["a"], rc, report)

    def reset(self):
        pass

    def reference(self, round_):
        import reference  # mpmath loads after timing, not during set-up

        a = round_[0][0]["a"]
        coeffs = inputs.elliptic(np.exp(2j * np.pi / 3), a)
        t = compop.matrix_of_composition(mobius.MobiusMap(*coeffs), 64).data
        err = reference.max_error(coeffs, t)
        return None if err <= reference.TOL else f"elliptic3(a={a}) at N=64 differs from mpmath by {err:.3e}"


class Search:
    """One operation is one converged ``conjfinder.optimize``; each T is
    searched, then W T W^H, and the two floors must agree."""

    min_ops = 2 * len(inputs.SEARCH_GROUPS) * inputs.SEARCH_PER_GROUP
    max_rate = 10
    tail_percentile = 75.0
    calibration_ops = 8

    def warmup(self):
        t = compop.matrix_of_composition(mobius.involution(0.3), 8)
        conjfinder.optimize(t, conjfinder.OptimizeOptions(max_iters=200, grad_tol=1e-9, restarts=2))

    def make_round(self, seed):
        out = []
        for spec in inputs.search_round(seed):
            t = compop.matrix_of_composition(mobius.MobiusMap(*spec["coeffs"]), spec["n"]).data
            w = spec["w"]
            out.append(({**spec, "variant": "T", "t": t}, t))
            wtw = w @ t @ w.conj().T
            out.append(({**spec, "variant": "WTW^H", "t": wtw}, wtw))
        return out

    def execute(self, t):
        return conjfinder.optimize(t, conjfinder.OptimizeOptions(**inputs.SEARCH_OPTIONS))

    def check(self, i, item, prepared, report):
        stops = report.stops
        self.iterations += report.iterations
        self.restarts += len(stops)
        self.useful += sum(
            abs(s.residual - report.best_residual) <= 1e-6 * report.best_residual for s in stops)
        err = checks.check_search(item["t"], report.best_U, report.best_residual, [s.reason for s in stops])
        if err is None and item["variant"] == "T":
            self.floors[i] = report.best_residual
        elif err is None:
            err = checks.check_floor_pair(self.floors.get(i - 1, float("nan")), report.best_residual)
        return err

    def reset(self):
        self.floors, self.iterations, self.restarts, self.useful = {}, 0, 0, 0

    def reference(self, round_):
        import reference  # mpmath loads after timing, not during set-up

        for item, _ in round_:
            if item["variant"] == "T":
                err = reference.max_error(item["coeffs"], item["t"])
                if err > reference.TOL:
                    return f"{item['label']} differs from mpmath by {err:.3e}"
        return None


WORKLOADS = {"classify": Classify, "verify": Verify, "search": Search}

#: Every per-layer metric and its unit.  A traced run of any workload
#: reports all of them; a layer that the workload does not run reads 0.
LAYER_METRICS = {
    "mobius.us_per_decide": "us",
    "mobius.calls_per_decide": "count",
    "csym.self_us_per_decide": "us",
    "cli.self_ms_per_op": "ms",
    "paperchecks.self_ms_per_op": "ms",
    "paperchecks.witness_ms_per_op": "ms",
    "compop.matrix_builds_per_op": "count",
    "compop.ns_per_matrix_entry": "ns",
    "compop.self_ms_per_op": "ms",
    "hardy.multiply_calls_per_op": "count",
    "hardy.self_ms_per_op": "ms",
    "backend.power_columns_ms_per_op": "ms",
    "backend.cauchy_product_calls_per_op": "count",
    "conjfinder.iterations_per_search": "count",
    "conjfinder.us_per_iteration": "us",
    "conjfinder.useful_restart_ratio": "ratio",
}


def layer_metrics(tr: Tracer, ops: int, w) -> dict:
    """Per-operation layer figures from the traced loop.

    ``mobius.*_per_decide`` and ``csym.*_per_decide`` are per operation, which
    on ``classify`` is one decide.  Self time is a layer's span time minus
    the time of the spans it called; the other times are inclusive.
    """
    calls, incl, own = tr.calls, tr.inclusive_ns, tr.layer_self_ns
    iters = getattr(w, "iterations", 0)
    return {
        "mobius.us_per_decide": own["mobius"] / ops / 1e3,
        "mobius.calls_per_decide": tr.layer_calls("mobius") / ops,
        "csym.self_us_per_decide": own["csym"] / ops / 1e3,
        "cli.self_ms_per_op": own["cli"] / ops / 1e6,
        "paperchecks.self_ms_per_op": own["paperchecks"] / ops / 1e6,
        "paperchecks.witness_ms_per_op": incl["paperchecks.build_order3_witness"] / ops / 1e6,
        "compop.matrix_builds_per_op": calls["compop.matrix_of_composition"] / ops,
        "compop.ns_per_matrix_entry": (
            incl["compop.matrix_of_composition"] / tr.matrix_entries if tr.matrix_entries else 0.0),
        "compop.self_ms_per_op": own["compop"] / ops / 1e6,
        "hardy.multiply_calls_per_op": calls["hardy.multiply"] / ops,
        "hardy.self_ms_per_op": own["hardy"] / ops / 1e6,
        "backend.power_columns_ms_per_op": incl["backend.power_columns"] / ops / 1e6,
        "backend.cauchy_product_calls_per_op": calls["backend.cauchy_product"] / ops,
        "conjfinder.iterations_per_search": iters / ops,
        "conjfinder.us_per_iteration": incl["conjfinder.optimize"] / iters / 1e3 if iters else 0.0,
        "conjfinder.useful_restart_ratio": w.useful / w.restarts if iters else 0.0,
    }


class Loop:
    """Closed loop over whole rounds; times each operation and checks it."""

    def __init__(self, workload, round_, tracer=None, capacity=1024):
        self.w, self.round, self.tracer = workload, round_, tracer
        # every operation's time, in order; written through at once so that
        # its resident size does not grow with the run and move peak_rss_mib
        self._times = np.full(capacity, -1.0)
        self.busy_ns = 0
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.failed_at: set[int] = set()
        self.first_pass_ns = array("d")
        self.pass_busy_ns = array("d")

    def run(self, seconds, min_ops, ops=None):
        """Whole passes over ``ops`` (default the round) until both limits hold."""
        items = self.round if ops is None else ops
        clock = time.perf_counter_ns
        start = time.perf_counter()
        first = True
        while True:
            busy_before = self.busy_ns
            for i, (item, prepared) in enumerate(items):
                if self.tracer is not None:
                    self.tracer.op = self.attempted
                t0 = clock()
                try:
                    out, exc = self.w.execute(prepared), None
                except Exception as e:  # the program's fault is a result, not a crash
                    out, exc = None, e
                t1 = clock()
                if self.attempted == self._times.size:
                    self._times = np.concatenate([self._times, np.full(self._times.size, -1.0)])
                self._times[self.attempted] = t1 - t0
                self.attempted += 1
                self.busy_ns += t1 - t0
                if first:
                    self.first_pass_ns.append(t1 - t0)
                err = f"{type(exc).__name__}: {exc}" if exc else self.w.check(i, item, prepared, out)
                if err is None:
                    continue
                self.failed += 1
                self.failed_at.add(i)
                if not getattr(item, "known_fault", False):
                    label = item.label if isinstance(item, inputs.Symbol) else item.get("label", item.get("a"))
                    self.errors.append(f"op {i} ({label}): {err}")
                    if exc is not None:
                        traceback.print_exception(exc, file=sys.stderr)
            first = False
            self.pass_busy_ns.append(self.busy_ns - busy_before)
            if time.perf_counter() - start >= seconds and self.attempted >= min_ops:
                return

    def best_times_ns(self):
        """Each operation of the round at its best time over the run's rounds.

        Returns (times of the operations that never failed, sum of the best
        times of all operations).  ``verify`` and ``search`` run one round,
        so these are simply their operation times.
        """
        n = len(self.round)
        best = self._times[: self.attempted].reshape(-1, n).min(axis=0)
        ok = np.ones(n, dtype=bool)
        ok[list(self.failed_at)] = False
        return best[ok], float(best.sum())


def tail_ms(lat_ns, percentile):
    """Nearest-rank percentile, moved down if needed so that ten samples lie beyond it."""
    ordered = np.sort(lat_ns)
    k = -(-len(ordered) * int(percentile * 100) // 10000) - 1
    return ordered[max(0, min(k, len(ordered) - 11))] / 1e6


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "backend": csymcomp.backend_name(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-file", default=None)
    p.add_argument("--probe", action="store_true", help="exit after set-up")
    args = p.parse_args(argv)

    w = WORKLOADS[args.workload]()
    w.warmup()
    print("ready", flush=True)
    if args.probe:
        return 0

    round_ = w.make_round(args.seed)
    w.reset()
    out = {"machine": machine(), "round_size": len(round_)}
    if not args.trace:
        loop = Loop(w, round_, capacity=len(round_) + int(args.seconds * w.max_rate))
        loop.run(args.seconds, w.min_ops)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        lat, total_ns = loop.best_times_ns()
        metrics = {
            "ops_per_s": (lat.size / (total_ns / 1e9), "1/s"),
            "latency_p50_ms": (float(np.median(lat)) / 1e6, "ms"),
            "latency_tail_ms": (tail_ms(lat, w.tail_percentile), "ms"),
            "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        }
        out["tail_percentile"] = w.tail_percentile
        out["rounds"] = loop.attempted // len(round_)
        out["first_round_ms"] = [x / 1e6 for x in loop.first_pass_ns]
        out["round_busy_ms"] = [x / 1e6 for x in loop.pass_busy_ns]
    else:
        loop, tracer, out["tracing_overhead"] = traced_run(w, round_, args.seconds)
        values = layer_metrics(tracer, loop.attempted, w)
        metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
        if args.trace_file:
            write_trace(args.trace_file, tracer, loop, out)
    ref_err = w.reference(round_)
    if ref_err:
        loop.errors.append("reference: " + ref_err)
    out.update(
        correct=not loop.errors,
        attempted=loop.attempted,
        failed=loop.failed,
        errors=loop.errors[:20],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    print(json.dumps(out), flush=True)
    return 0


def traced_run(w, round_, seconds):
    """Untraced calibration, then the traced loop; returns (loop, tracer, overhead).

    ``classify`` calibrates on whole rounds for a third of the run and is
    traced for the rest; the others calibrate on their first
    ``calibration_ops`` operations.  ``overhead`` holds the untraced and
    traced operations per second over the same calibration operations, and
    their ratio minus one.
    """
    cal_ops = round_[: w.calibration_ops] if w.calibration_ops else None
    untraced = Loop(w, round_)
    untraced.run(0.0 if cal_ops else seconds / 3, 1, cal_ops)
    w.reset()
    tracer = Tracer()
    tracer.install()
    try:
        loop = Loop(w, round_, tracer)
        loop.run(seconds if cal_ops else seconds * 2 / 3, w.min_ops)
    finally:
        tracer.uninstall()
    if cal_ops:
        n = len(cal_ops)
        base = n / (sum(untraced.first_pass_ns) / 1e9)
        traced = n / (sum(loop.first_pass_ns[:n]) / 1e9)
    else:
        base = untraced.attempted / (untraced.busy_ns / 1e9)
        traced = loop.attempted / (loop.busy_ns / 1e9)
    overhead = {"untraced_ops_per_s": base, "traced_ops_per_s": traced, "slowdown": base / traced - 1.0}
    return loop, tracer, overhead


def write_trace(path, tracer: Tracer, loop: Loop, info: dict) -> None:
    ops = loop.attempted
    doc = {
        **info,
        "ops": ops,
        "layer_self_ms": {k: v / 1e6 for k, v in tracer.layer_self_ns.items()},
        "layer_self_ms_per_op": {k: v / 1e6 / ops for k, v in tracer.layer_self_ns.items()},
        "calls": tracer.calls,
        "inclusive_ms": {k: v / 1e6 for k, v in tracer.inclusive_ns.items()},
        "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
        "spans_kept": len(tracer.spans),
        "spans_total": sum(tracer.calls.values()),
        "spans": tracer.spans,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
