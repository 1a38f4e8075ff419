"""Self-tests of the benchmark's checkers: each must accept a right output and
reject a deliberately wrong one.

    python3 perfbench/selftest.py

Exits 0 when every case behaves, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402


def _cases():
    """(name, checker result, should reject) triples."""
    # classify: a right verdict, then a wrong verdict, kind and order
    exp = inputs.Expected(False, inputs.ELL, 3.0)
    yield "classify right", checks.check_classify(exp, False, inputs.ELL, 3.0), False
    yield "classify wrong verdict", checks.check_classify(exp, True, inputs.ELL, 3.0), True
    yield "classify wrong kind", checks.check_classify(exp, False, inputs.INT, None), True
    yield "classify wrong order", checks.check_classify(exp, False, inputs.ELL, math.inf), True
    yield "decide vs decide_automorphism", checks.check_cross(True, False), True

    # verify: a real report from the CLI, then broken copies of it
    from csymcomp import cli

    p = {"a": 0.35 + 0.2j, "b": 0.5 + 0.1j, "c": 0.2 - 0.05j}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(inputs.verify_argv(p)[:-1] + ["--truncation=128"])
    report = json.loads(buf.getvalue())
    yield "verify right", checks.check_verify(p["a"], rc, report), False
    yield "verify exit code 3", checks.check_verify(p["a"], 3, report), True
    bad = copy.deepcopy(report)
    bad["checks"][0]["residual"] = 10 * bad["checks"][0]["tol"]
    yield "verify failing residual", checks.check_verify(p["a"], rc, bad), True
    bad = copy.deepcopy(report)
    gap = next(c for c in bad["checks"] if c["name"] == "gap_strictly_positive")
    gap["gap"] *= 1 + 1e-6
    yield "verify changed gap", checks.check_verify(p["a"], rc, bad), True
    bad = copy.deepcopy(report)
    bad["checks"] = [c for c in bad["checks"] if not c["name"].startswith("theorem_final")]
    yield "verify missing suite", checks.check_verify(p["a"], rc, bad), True

    # search: a converged search, then a broken U, a wrong residual, a bad stop
    from csymcomp import compop, conjfinder, mobius

    coeffs = inputs.invol(0.4 + 0.1j)
    t = compop.matrix_of_composition(mobius.MobiusMap(*coeffs), 8).data
    rep = conjfinder.optimize(t, conjfinder.OptimizeOptions(**inputs.SEARCH_OPTIONS))
    reasons = [s.reason for s in rep.stops]
    u = rep.best_U
    yield "search right", checks.check_search(t, u, rep.best_residual, reasons), False
    skew = np.zeros_like(u)
    skew[0, 1], skew[1, 0] = 1e-6, -1e-6
    yield "search non-symmetric U", checks.check_search(t, u + skew, rep.best_residual, reasons), True
    yield "search non-unitary U", checks.check_search(t, 1.001 * u, rep.best_residual, reasons), True
    yield "search wrong residual", checks.check_search(t, u, rep.best_residual * (1 + 1e-6), reasons), True
    yield "search max_iters stop", checks.check_search(t, u, rep.best_residual, reasons[:-1] + ["max_iters"]), True
    w = inputs.haar_unitary(np.random.default_rng(5), 8)
    rep_w = conjfinder.optimize(w @ t @ w.conj().T, conjfinder.OptimizeOptions(**inputs.SEARCH_OPTIONS))
    yield "floor pair right", checks.check_floor_pair(rep.best_residual, rep_w.best_residual), False
    yield "floor pair differs", checks.check_floor_pair(rep.best_residual, rep.best_residual * (1 + 1e-5)), True

    # the mpmath reference against the program, and against a perturbed matrix
    yield "reference right", reference.max_error(coeffs, t) > reference.TOL, False
    off = t.copy()
    off[3, 2] += 1e-11
    yield "reference perturbed", reference.max_error(coeffs, off) > reference.TOL, True


def main() -> int:
    bad = 0
    for name, result, should_reject in _cases():
        rejected = bool(result)
        ok = rejected == should_reject
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {'rejected' if rejected else 'accepted'}"
              + (f" ({result})" if isinstance(result, str) else ""))
    print(f"{'all checks behave' if not bad else f'{bad} case(s) misbehave'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
