"""Command-line surface: symbol parsing, verification suites, reports.

Subcommands: ``classify``, ``verify``, ``residual``, ``sweep``, ``corpus``.
Exit codes: 0 success, 1 usage/parse error, 2 domain rejection (not a
self-map), 3 verification failure.  Reports are emitted as key-sorted
JSON (``--json``) or aligned text; identical invocations with the same
seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

import numpy as np

from . import __version__
from .backend import backend_name
from .compop import adjoint_kernel_checks, lemma_star_s_check, matrix_of_composition
from .conjfinder import OptimizeOptions, optimize, write_study_csv
from .csym import CsVerdict, decide
from .errors import CsymcompError, NotSelfMapError
from .hardy import identity_id_check
from .mobius import (
    MobiusMap,
    boundary_contact,
    classify,
    fixed_points,
    involution,
    rotation,
)
from .paperchecks import (
    build_order3_witness,
    check_claim1_structure,
    check_claim2_norm,
    check_claim3_moments,
    check_claim4,
    check_e1_norm,
    check_lemma_tz,
    check_theorem_final,
    check_theorem_main_gap,
    witness_truncation,
)

TOL_MATRIX = 1e-7
TOL_SERIES = 1e-8
TOL_POINTWISE = 1e-12

FAMILIES = ("rotation", "involution", "elliptic3", "dilate_translate", "bz_over_1_minus_cz")


# ---------------------------------------------------------------------------
# parsing and serialization


def parse_complex(text: str) -> complex:
    """Accepts '0.5', '0.5+0.25j', or '0.5,0.25'."""
    text = text.strip()
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return complex(float(re_part), float(im_part))
    return complex(text.replace(" ", ""))


def _pair_to_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ValueError(f"expected a number or [re, im] pair, got {value!r}")


def symbol_from_spec(spec: dict) -> MobiusMap:
    """Resolve a SymbolSpec: raw coefficients or a named family."""
    if "family" in spec:
        family = spec["family"]
        params = {k: v for k, v in spec.items() if k not in ("family", "expected_cs", "name")}
        if family == "rotation":
            if "theta" in params:
                omega = np.exp(1j * float(params["theta"]))
            else:
                omega = _pair_to_complex(params["omega"])
            return rotation(omega)
        if family == "involution":
            return involution(_pair_to_complex(params["a"]))
        if family == "elliptic3":
            from .mobius import elliptic

            return elliptic(np.exp(2j * np.pi / 3), _pair_to_complex(params["a"]))
        if family == "dilate_translate":
            a = _pair_to_complex(params["a"])
            c = _pair_to_complex(params.get("c", 0.0))
            return MobiusMap(a, c, 0, 1)
        if family == "bz_over_1_minus_cz":
            b = _pair_to_complex(params["b"])
            c = _pair_to_complex(params["c"])
            return MobiusMap(b, 0, -c, 1)
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return MobiusMap(
        _pair_to_complex(spec["a"]),
        _pair_to_complex(spec["b"]),
        _pair_to_complex(spec["c"]),
        _pair_to_complex(spec["d"]),
    )


def _sig15(x: float) -> float:
    return float(f"{x:.15g}")


def to_jsonable(obj):
    """Recursive conversion to JSON-safe data with 15-significant-digit floats."""
    import dataclasses
    from enum import Enum

    from .mobius import FixedPointData, SpherePoint

    if isinstance(obj, SpherePoint):
        return "inf" if obj.is_infinity else to_jsonable(obj.finite)
    if isinstance(obj, FixedPointData):
        return {"kind": obj.kind.value, "points": [to_jsonable(p) for p in obj.points]}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, complex):
        return [_sig15(obj.real), _sig15(obj.imag)]
    if isinstance(obj, (np.complexfloating,)):
        return to_jsonable(complex(obj))
    if isinstance(obj, (float, np.floating)):
        return _sig15(float(obj))
    if isinstance(obj, (int, np.integer, bool, str)) or obj is None:
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(to_jsonable(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def emit(report: dict, as_json: bool) -> None:
    data = to_jsonable(report)
    if as_json:
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))
        return
    _print_text(data, indent=0)


def _print_text(data, indent: int) -> None:
    pad = "  " * indent
    if isinstance(data, dict):
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                print(f"{pad}{key}:")
                _print_text(value, indent + 1)
            else:
                print(f"{pad}{key}: {_flat_repr(value)}")
    elif isinstance(data, list):
        for value in data:
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                print(f"{pad}-")
                _print_text(value, indent + 1)
            else:
                print(f"{pad}- {_flat_repr(value)}")
    else:
        print(f"{pad}{_flat_repr(data)}")


def _is_flat(value) -> bool:
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value)
    return False


def _flat_repr(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_flat_repr(v) for v in value) + "]"
    return json.dumps(value)


def _verdict_payload(verdict: CsVerdict) -> dict:
    return {
        "is_cs": verdict.is_cs,
        "witnesses": sorted(w.value for w in verdict.witnesses),
        "fixed_points": verdict.fixed_points,
        "class": {
            "kind": verdict.symbol_class.kind,
            "order": None
            if verdict.symbol_class.order is None
            else ("inf" if verdict.symbol_class.order == float("inf") else int(verdict.symbol_class.order)),
            "center": verdict.symbol_class.center,
        },
        "notes": verdict.notes,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    try:
        spec = json.loads(args.symbol)
        phi = symbol_from_spec(spec)
    except (ValueError, KeyError, CsymcompError) as exc:
        print(f"error: invalid symbol: {exc}", file=sys.stderr)
        return 1
    report = {
        "tool_version": __version__,
        "seed": args.seed,
        "symbol": spec,
        "coefficients": list(phi.coefficients),
    }
    try:
        verdict = decide(phi)
    except NotSelfMapError:
        report["verdict"] = None
        report["class"] = {"kind": classify(phi).kind}
        report["error"] = "not a self-map of the unit disk"
        emit(report, args.json)
        return 2
    report["verdict"] = _verdict_payload(verdict)
    report["boundary_contact"] = boundary_contact(phi)
    emit(report, args.json)
    return 0


def _check(name: str, residual: float, tol: float, truncation: int | None, **extra) -> dict:
    """One verification record; ``truncation`` is None for pointwise checks."""
    return {"name": name, "residual": residual, "tol": tol, "truncation": truncation, **extra}


def _suite_identities(a: complex, n: int) -> list[dict]:
    from .mobius import elliptic

    checks = []
    targets = [("rotation_i", rotation(1j))]
    if abs(a) > 0:
        targets.append(("involution", involution(a)))
    for name, phi in targets:
        worst = 0.0
        for r in np.linspace(0.0, 0.8, 5):
            for t in range(4):
                z = r * np.exp(2j * np.pi * t / 4)
                worst = max(worst, identity_id_check(phi, z))
        checks.append(_check(f"identity_id[{name}]", worst, TOL_POINTWISE, None))
    symbols = [("elliptic3", elliptic(np.exp(2j * np.pi / 3), a))]
    # dilate-translate with the same interior fixed point: z -> z/2 + a/2
    symbols.append(("dilate_translate", MobiusMap(0.5, a / 2.0, 0, 1)))
    for name, phi in symbols:
        r1, r2, r3 = adjoint_kernel_checks(phi, n)
        for label, value in (("star1", r1), ("star2", r2), ("star3", r3)):
            checks.append(_check(f"adjoint_{label}[{name}]", value, TOL_MATRIX, n))
    for k, value in enumerate(lemma_star_s_check(a, n)):
        checks.append(_check(f"lemma_star_s[k={k}]", value, TOL_MATRIX, n))
    return checks


def _suite_order3(a: complex, n: int) -> list[dict]:
    w = build_order3_witness(a, 1.0, witness_truncation(a, n))
    nw = w.truncation
    orth1, eig1 = check_claim1_structure(w)
    c2 = check_claim2_norm(w)
    c4 = check_claim4(w)
    gap = check_theorem_main_gap(a)
    return [
        _check("claim1_orthogonality", max(orth1), TOL_SERIES, nw),
        _check("claim1_eigen", eig1, TOL_MATRIX, nw),
        _check("claim2_norm", c2["norm"], TOL_SERIES, nw),
        _check("claim2_decomposition", c2["decomposition"], TOL_SERIES, nw),
        _check("claim2_e0_norm", c2["e0_norm_match"], TOL_SERIES, nw),
        _check("claim3_moments", max(check_claim3_moments(w)), TOL_SERIES, nw),
        _check("claim4_orthogonality", max(c4["orthogonality"]), TOL_SERIES, nw),
        _check("claim4_eigen", c4["eigen"], TOL_MATRIX, nw),
        _check("claim4_delta_law", c4["delta_law"], TOL_SERIES, nw),
        _check("gap_matches_closed_form", gap.residual, TOL_SERIES, gap.truncation),
        _check("gap_beta_decomposition", gap.beta_residual, TOL_SERIES, gap.truncation),
        _check(
            "gap_strictly_positive",
            0.0 if gap.gap > 0 else 1.0,
            0.5,
            gap.truncation,
            gap=gap.gap,
        ),
        _check("e1_norm", check_e1_norm(a, n), TOL_MATRIX, n),
    ]


def _suite_schroeder(b: complex, c: complex, n: int) -> list[dict]:
    mode, res = check_lemma_tz(b, c, n)
    return [_check(f"lemma_tz[{mode}]", res, TOL_SERIES, n if mode == "series" else None)]


def _suite_final(b: complex, c: complex, a: complex, n: int) -> list[dict]:
    report = check_theorem_final(b, c, a, n)
    return [
        _check(f"theorem_final[{key}]", value, TOL_MATRIX, report.truncation)
        for key, value in report.residuals.items()
    ]


def cmd_verify(args) -> int:
    n = args.truncation
    if n < 1:
        print(f"error: --truncation must be positive, got {n}", file=sys.stderr)
        return 1
    params = {}
    for name in ("a", "b", "c"):
        try:
            params[name] = parse_complex(getattr(args, name))
        except ValueError:
            print(f"error: --{name} is not a complex number: {getattr(args, name)!r}", file=sys.stderr)
            return 1
    a, b, c = params["a"], params["b"], params["c"]
    checks: list[dict] = []
    try:
        if args.suite in ("all", "identities"):
            checks.extend(_suite_identities(a, n))
        if args.suite in ("all", "order3"):
            if abs(a) > 0:
                checks.extend(_suite_order3(a, n))
        if args.suite in ("all", "schroeder"):
            checks.extend(_suite_schroeder(b, c, n))
        if args.suite in ("all", "final"):
            checks.extend(_suite_final(b, c, a if abs(a) else 0.3 + 0j, n))
    except CsymcompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for check in checks:
        check["margin"] = check["residual"] / check["tol"]
        check["pass"] = bool(check["residual"] <= check["tol"])
    report = {
        "tool_version": __version__,
        "seed": args.seed,
        "suite": args.suite,
        "truncation": n,
        "params": params,
        "checks": checks,
        "all_pass": all(ch["pass"] for ch in checks),
    }
    emit(report, args.json)
    return 0 if report["all_pass"] else 3


def cmd_residual(args) -> int:
    try:
        spec = json.loads(args.symbol)
        phi = symbol_from_spec(spec)
    except (ValueError, KeyError, CsymcompError) as exc:
        print(f"error: invalid symbol: {exc}", file=sys.stderr)
        return 1
    try:
        schedule = [int(s) for s in args.truncation_schedule.split(",")]
    except ValueError:
        schedule = []
    if not schedule or min(schedule) < 1:
        print(
            f"error: --truncation-schedule must be positive integers separated by commas, "
            f"got {args.truncation_schedule!r}",
            file=sys.stderr,
        )
        return 1
    opts = OptimizeOptions(restarts=args.restarts, seed=args.seed, max_iters=args.max_iters)
    rows = []
    try:
        for n in schedule:
            m = matrix_of_composition(phi, n)
            rep = optimize(m, opts)
            rows.append(
                {
                    "truncation": n,
                    "best_residual": rep.best_residual,
                    "iterations": rep.iterations,
                    "restarts": rep.restarts,
                }
            )
    except NotSelfMapError:
        print("error: not a self-map of the unit disk", file=sys.stderr)
        return 2
    report = {
        "tool_version": __version__,
        "seed": args.seed,
        "symbol": spec,
        "restarts": args.restarts,
        "rows": rows,
    }
    emit(report, args.json)
    return 0


def _grid_values(grid: str):
    # param=start:stop:count over the modulus of a complex parameter
    name, _, rng = grid.partition("=")
    start, stop, count = rng.split(":")
    return name.strip(), np.linspace(float(start), float(stop), int(count))


def cmd_sweep(args) -> int:
    if args.residual_truncation < 0:
        print(
            f"error: --residual-truncation must be nonnegative, got {args.residual_truncation}",
            file=sys.stderr,
        )
        return 1
    try:
        param, values = _grid_values(args.grid)
    except ValueError as exc:
        print(f"error: bad --grid (expected param=start:stop:count): {exc}", file=sys.stderr)
        return 1
    rows = []
    for value in values:
        spec = {"family": args.family, param: [float(value), 0.0]}
        try:
            phi = symbol_from_spec(spec)
        except (ValueError, KeyError, CsymcompError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        row = {"family": args.family, param: _sig15(float(value))}
        try:
            verdict = decide(phi)
            row["class"] = verdict.symbol_class.kind.value
            row["is_cs"] = verdict.is_cs
        except NotSelfMapError:
            row["class"] = "not_self_map"
            row["is_cs"] = False
        if args.residual_truncation:
            m = matrix_of_composition(phi, args.residual_truncation)
            rep = optimize(m, OptimizeOptions(restarts=args.restarts, seed=args.seed))
            row["best_residual"] = _sig15(rep.best_residual)
        rows.append(row)
    fieldnames = list(rows[0].keys()) if rows else ["family", param, "class", "is_cs"]
    import csv as _csv

    try:
        with open(args.out, "w", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=fieldnames, quoting=_csv.QUOTE_MINIMAL)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def bundled_corpus_path():
    return resources.files("csymcomp.data").joinpath("paper.jsonl")


def cmd_corpus(args) -> int:
    if args.infile:
        try:
            with open(args.infile, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {args.infile}: {exc}", file=sys.stderr)
            return 1
    else:
        lines = bundled_corpus_path().read_text(encoding="utf-8").splitlines()
    results = []
    malformed = 0
    mismatches = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        entry = {"line": lineno}
        try:
            spec = json.loads(line)
            phi = symbol_from_spec(spec)
        except (ValueError, KeyError, CsymcompError) as exc:
            entry["error"] = f"malformed: {exc}"
            malformed += 1
            results.append(entry)
            continue
        entry["name"] = spec.get("name", f"line{lineno}")
        try:
            verdict = decide(phi)
            entry["is_cs"] = verdict.is_cs
        except NotSelfMapError:
            entry["is_cs"] = None
            entry["error"] = "not a self-map"
        if "expected_cs" in spec:
            entry["expected_cs"] = spec["expected_cs"]
            entry["match"] = entry.get("is_cs") == spec["expected_cs"]
            if not entry["match"]:
                mismatches += 1
        results.append(entry)
    report = {
        "tool_version": __version__,
        "seed": args.seed,
        "symbols": len(results),
        "mismatches": mismatches,
        "malformed": malformed,
        "results": results,
    }
    emit(report, args.json)
    if malformed:
        return 1
    return 0 if mismatches == 0 else 3


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csymcomp",
        description="Complex symmetric composition operators: classification and verification",
    )
    parser.add_argument("--version", action="version", version=f"csymcomp {__version__} ({backend_name()} kernels)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("classify", help="decide complex symmetry of a symbol")
    common(p)
    p.add_argument("--symbol", required=True, help="SymbolSpec JSON")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run paper-identity verification suites")
    common(p)
    p.add_argument("--suite", choices=["all", "identities", "order3", "schroeder", "final"], default="all")
    p.add_argument("--a", default="0.5", help="interior point parameter")
    p.add_argument("--b", default="0.5", help="multiplier of bz/(1-cz)")
    p.add_argument("--c", default="0.25", help="denominator coefficient of bz/(1-cz)")
    p.add_argument("--truncation", type=int, default=512)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("residual", help="symmetric-unitary conjugation residuals per truncation")
    common(p)
    p.add_argument("--symbol", required=True, help="SymbolSpec JSON")
    p.add_argument("--truncation-schedule", default="8,16,32,64")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--max-iters", type=int, default=300)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("sweep", help="classify a family over a parameter grid, write CSV")
    common(p)
    p.add_argument("--family", choices=list(FAMILIES), required=True)
    p.add_argument("--grid", required=True, help="param=start:stop:count")
    p.add_argument("--out", required=True)
    p.add_argument("--residual-truncation", type=int, default=0)
    p.add_argument("--restarts", type=int, default=8)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("corpus", help="check verdicts against a JSONL corpus of symbols")
    common(p)
    p.add_argument("--in", dest="infile", default=None, help="JSONL file (default: bundled corpus)")
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
