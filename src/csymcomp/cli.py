"""Command-line surface: symbol parsing, verification suites, reports.

Subcommands: ``classify``, ``verify``, ``residual``, ``sweep``, ``corpus``.
Exit codes: 0 success, 1 usage/parse error, 2 domain rejection (not a
self-map), 3 verification failure.  Reports are emitted as key-sorted
JSON (``--json``) or aligned text; identical invocations with the same
seed produce byte-identical output.

Each flag's argparse ``type`` checks its value, and ``symbol_from_spec``
checks a symbol.  Every usage error is one ``error:`` line with exit 1.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import json
import sys
from enum import Enum
from importlib import resources

import numpy as np

from . import __version__
from .backend import backend_name
from .compop import CompositionOperator, adjoint_kernel_checks, lemma_star_s_check
from .conjfinder import OptimizeOptions, schedule_search
from .csym import CsVerdict, decide
from .errors import CsymcompError, NotSelfMapError
from .hardy import identity_id_check
from .mobius import (
    FixedPointData,
    MobiusMap,
    SpherePoint,
    SymbolKind,
    boundary_contact,
    elliptic,
    involution,
    rotation,
)
from .paperchecks import (
    OMEGA3,
    build_order3_witness,
    check_claim1_structure,
    check_claim2_norm,
    check_claim3_moments,
    check_claim4,
    check_claim_eigen,
    check_e1_norm,
    check_lemma_tz,
    check_theorem_final,
    gap_report,
    order3_truncation,
)

TOL_MATRIX = 1e-7
TOL_SERIES = 1e-8
TOL_POINTWISE = 1e-12

FAMILIES = ("rotation", "involution", "elliptic3", "dilate_translate", "bz_over_1_minus_cz")


# ---------------------------------------------------------------------------
# parsing and serialization


def parse_complex(text: str) -> complex:
    """Accepts '0.5', '0.5+0.25j', or '0.5,0.25'; rejects NaN and infinities."""
    text = text.strip()
    re_part, comma, im_part = text.partition(",")
    z = complex(float(re_part), float(im_part)) if comma else complex(text.replace(" ", ""))
    if not cmath.isfinite(z):
        raise ValueError(f"{text!r} is not finite")
    return z


def _number(spec: dict, key: str, default=None) -> complex:
    """``spec[key]``, a finite JSON number or [re, im] pair of them, as a complex."""
    if key not in spec and default is None:
        raise ValueError(f"missing {key!r}")
    value = spec.get(key, default)
    parts = value if isinstance(value, (list, tuple)) else [value, 0]
    # a boolean is no number, though Python counts it an int; nor is an int beyond the float range
    if len(parts) == 2 and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in parts):
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"{key}: expected a finite number or [re, im] pair, got {value!r}")


def _symbol(spec: dict) -> MobiusMap:
    if "family" not in spec:
        return MobiusMap(*(_number(spec, key) for key in "abcd"))
    family = spec["family"]
    if family == "rotation":
        if "theta" not in spec:
            return rotation(_number(spec, "omega"))
        theta = _number(spec, "theta")
        if theta.imag:
            raise ValueError(f"theta must be a real number, got {spec['theta']!r}")
        return rotation(np.exp(1j * theta.real))
    if family == "involution":
        return involution(_number(spec, "a"))
    if family == "elliptic3":
        return elliptic(OMEGA3, _number(spec, "a"))
    if family == "dilate_translate":
        return MobiusMap(_number(spec, "a"), _number(spec, "c", 0.0), 0, 1)
    if family == "bz_over_1_minus_cz":
        return MobiusMap(_number(spec, "b"), 0, -_number(spec, "c"), 1)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def symbol_from_spec(spec: dict) -> MobiusMap:
    """Resolve a SymbolSpec: raw coefficients or a named family.

    Raises ValueError for every spec it cannot read, also one whose
    parameters ``mobius`` rejects, such as a singular map.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"a symbol is a JSON object, got {spec!r}")
    try:
        return _symbol(spec)
    except CsymcompError as exc:
        raise ValueError(str(exc)) from None


def _sig15(x: float) -> float:
    return float(f"{x:.15g}")


def to_jsonable(obj):
    """Recursive conversion to JSON-safe data with 15-significant-digit floats."""
    if isinstance(obj, SpherePoint):
        return "inf" if obj.is_infinity else to_jsonable(obj.finite)
    if isinstance(obj, FixedPointData):
        return {"kind": obj.kind.value, "points": [to_jsonable(p) for p in obj.points]}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, complex):
        return [_sig15(obj.real), _sig15(obj.imag)]
    if isinstance(obj, (float, np.floating)):
        return _sig15(float(obj))
    if isinstance(obj, (int, np.integer, bool, str)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def emit(report: dict, args) -> None:
    """Print a report, headed by the tool version and the seed, as JSON or text."""
    data = to_jsonable({"tool_version": __version__, "seed": args.seed, **report})
    if args.json:
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
    except ValueError as exc:
        print(f"error: invalid symbol: {exc}", file=sys.stderr)
        return 1
    report = {
        "symbol": spec,
        "coefficients": list(phi.coefficients),
        "conditioning": phi.conditioning,
    }
    try:
        verdict = decide(phi)
    except NotSelfMapError:
        report["verdict"] = None
        report["class"] = {"kind": SymbolKind.NOT_SELF_MAP}  # the class of every map decide refuses
        report["error"] = "not a self-map of the unit disk"
        emit(report, args)
        return 2
    report["verdict"] = _verdict_payload(verdict)
    report["boundary_contact"] = boundary_contact(phi)
    emit(report, args)
    return 0


def _check(name: str, residual: float, tol: float, truncation: int | None, **extra) -> dict:
    """One verification record; ``truncation`` is None for pointwise checks."""
    return {"name": name, "residual": residual, "tol": tol, "truncation": truncation, **extra}


def _suite_pointwise(a: complex) -> list[dict]:
    """The identity checks, pointwise on a disk grid."""
    checks = []
    targets = [("rotation_i", rotation(1j))]
    if abs(a) > 0:
        targets.append(("involution", involution(a)))
    grid = np.outer(np.linspace(0.0, 0.8, 5), np.exp(2j * np.pi * np.arange(4) / 4))
    for name, phi in targets:
        worst = float(np.max(identity_id_check(phi, grid)))
        checks.append(_check(f"identity_id[{name}]", worst, TOL_POINTWISE, None))
    return checks


def _adjoint_checks(name: str, t: CompositionOperator) -> list[dict]:
    residuals = adjoint_kernel_checks(t)
    return [
        _check(f"adjoint_{label}[{name}]", value, TOL_MATRIX, t.truncation)
        for label, value in zip(("star1", "star2", "star3"), residuals)
    ]


def _suite_identities(a: complex, n: int, elliptic3: CompositionOperator) -> list[dict]:
    """The adjoint checks on the given elliptic3 operator, the rest at truncation n."""
    checks = _adjoint_checks("elliptic3", elliptic3)
    # dilate-translate with the same interior fixed point: z -> z/2 + a/2
    dilate = MobiusMap(0.5, a / 2.0, 0, 1)
    checks += _adjoint_checks("dilate_translate", CompositionOperator(dilate, n))
    for k, value in enumerate(lemma_star_s_check(a, n)):
        checks.append(_check(f"lemma_star_s[k={k}]", value, TOL_MATRIX, n))
    return checks


def _suite_order3(w, elliptic3: CompositionOperator) -> list[dict]:
    # one witness serves the claims, the gap checks and e1_norm
    nw = w.truncation
    orth1 = check_claim1_structure(w)
    eig1, eig4 = check_claim_eigen(w, elliptic3)
    c2 = check_claim2_norm(w)
    c4 = check_claim4(w)
    gap = gap_report(w)
    return [
        _check("claim1_orthogonality", max(orth1), TOL_SERIES, nw),
        _check("claim1_eigen", eig1, TOL_MATRIX, nw),
        _check("claim2_norm", c2["norm"], TOL_SERIES, nw),
        _check("claim2_decomposition", c2["decomposition"], TOL_SERIES, nw),
        _check("claim2_e0_norm", c2["e0_norm_match"], TOL_SERIES, nw),
        _check("claim3_moments", max(check_claim3_moments(w)), TOL_SERIES, nw),
        _check("claim4_orthogonality", max(c4["orthogonality"]), TOL_SERIES, nw),
        _check("claim4_eigen", eig4, TOL_MATRIX, nw),
        _check("claim4_delta_law", c4["delta_law"], TOL_SERIES, nw),
        _check("gap_matches_closed_form", gap.residual, TOL_SERIES, gap.truncation),
        _check("gap_beta_decomposition", gap.beta_residual, TOL_SERIES, gap.truncation),
        _check("gap_f0_modulus", gap.f0_residual, TOL_SERIES, gap.truncation),
        _check(
            "gap_strictly_positive",
            0.0 if gap.gap > 0 else 1.0,
            0.5,
            gap.truncation,
            gap=gap.gap,
        ),
        _check("e1_norm", check_e1_norm(w), TOL_MATRIX, nw),
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
    n, a, b, c = args.truncation, args.a, args.b, args.c
    checks: list[dict] = []
    order3 = args.suite == "order3" or (args.suite == "all" and a != 0)
    identities = args.suite in ("all", "identities")
    try:
        if identities:  # before the witness, so that they reject a centre outside the disk
            checks.extend(_suite_pointwise(a))
        if order3 or identities:
            # every elliptic3 check runs at the witness's truncation, or at n when a = 0;
            # the witness comes first, so that it rejects a bad centre before the operator
            n3 = order3_truncation(a, n) if a else n
            witness = build_order3_witness(a, n3) if order3 else None
            elliptic3 = CompositionOperator(elliptic(OMEGA3, a), n3)
            if identities:
                checks.extend(_suite_identities(a, n, elliptic3))
            if order3:
                checks.extend(_suite_order3(witness, elliptic3))
        if args.suite in ("all", "schroeder"):
            checks.extend(_suite_schroeder(b, c, n))
        if args.suite == "final" or (args.suite == "all" and a != 0):
            checks.extend(_suite_final(b, c, a, n))
    except CsymcompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for check in checks:
        check["margin"] = check["residual"] / check["tol"]
        check["pass"] = bool(check["residual"] <= check["tol"])
    report = {
        "suite": args.suite,
        "truncation": n,
        "params": {"a": a, "b": b, "c": c},
        "checks": checks,
        "all_pass": all(ch["pass"] for ch in checks),
    }
    emit(report, args)
    return 0 if report["all_pass"] else 3


def cmd_residual(args) -> int:
    try:
        spec = json.loads(args.symbol)
        phi = symbol_from_spec(spec)
    except ValueError as exc:
        print(f"error: invalid symbol: {exc}", file=sys.stderr)
        return 1
    opts = OptimizeOptions(restarts=args.restarts, seed=args.seed, max_iters=args.max_iters)
    try:
        reports = schedule_search(phi, args.truncation_schedule, opts)
    except NotSelfMapError:
        print("error: not a self-map of the unit disk", file=sys.stderr)
        return 2
    rows = [
        {
            "truncation": n,
            "best_residual": rep.best_residual,
            "iterations": rep.iterations,
            "restarts": rep.restarts,
            **_worst_stop(rep),
        }
        for n, rep in zip(args.truncation_schedule, reports)
    ]
    report = {
        "symbol": spec,
        "restarts": args.restarts,
        "rows": rows,
    }
    emit(report, args)
    return 0


def _worst_stop(rep) -> dict:
    """The worst stop reason among a search's restarts, and its gradient norm."""
    order = ("max_iters", "armijo", "grad", "tol")  # from worst to best
    worst = min(rep.stops, key=lambda s: (order.index(s.reason), -s.grad_norm))
    return {"stop": worst.reason, "grad_norm": _sig15(worst.grad_norm)}


def cmd_sweep(args) -> int:
    param, values = args.grid
    rows = []
    for value in values:
        spec = {"family": args.family, param: [float(value), 0.0]}
        try:
            phi = symbol_from_spec(spec)
        except ValueError as exc:
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
        if args.residual_truncation and row["class"] == "not_self_map":
            row.update(best_residual=None, stop=None, grad_norm=None)
        elif args.residual_truncation:
            # residual's warm ladder: 8, 16, 32, ... below n, then n ([n] for n <= 8)
            n = args.residual_truncation
            ladder = [2**i for i in range(3, (n - 1).bit_length())] + [n]
            opts = OptimizeOptions(restarts=args.restarts, seed=args.seed)
            rep = schedule_search(phi, ladder, opts)[-1]
            row.update(best_residual=_sig15(rep.best_residual), **_worst_stop(rep))
        rows.append(row)
    fieldnames = list(rows[0].keys()) if rows else ["family", param, "class", "is_cs"]
    try:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames, quoting=csv.QUOTE_MINIMAL)
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
        except ValueError as exc:
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
        "symbols": len(results),
        "mismatches": mismatches,
        "malformed": malformed,
        "results": results,
    }
    emit(report, args)
    if malformed:
        return 1
    return 0 if mismatches == 0 else 3


# ---------------------------------------------------------------------------
# argument parsing


def _version_text() -> str:
    """The tool with its kernels, then the numpy and BLAS it runs on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # a numpy without the dict mode, or no BLAS entry
        blas_name = "unknown"
    return f"csymcomp {__version__} ({backend_name()} kernels)\nnumpy {np.__version__}, BLAS {blas_name}"


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``error:`` line and exit 1."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _flag_type(expected: str, parse, valid=lambda value: True):
    """An argparse type: ``parse`` the flag's text, whose value must be ``valid``."""

    def convert(text: str):
        try:
            value = parse(text)
            if valid(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return convert


def _grid(text: str):
    # param=start:stop:count over the modulus of a complex parameter
    name, _, rng = text.partition("=")
    start, stop, count = rng.split(":")
    return name.strip(), np.linspace(float(start), float(stop), int(count))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; its types check every flag's value."""
    parser = _Parser(
        prog="csymcomp",
        description="Complex symmetric composition operators: classification and verification",
        formatter_class=argparse.RawDescriptionHelpFormatter,  # keeps the lines of --version
    )
    parser.add_argument("--version", action="version", version=_version_text())
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _flag_type("an integer of at least 1", int, lambda n: n >= 1)
    nonnegative = _flag_type("an integer of at least 0", int, lambda n: n >= 0)
    finite_complex = _flag_type("a finite complex number", parse_complex)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=nonnegative, default=42)

    p = sub.add_parser("classify", help="decide complex symmetry of a symbol")
    common(p)
    p.add_argument("--symbol", required=True, help="SymbolSpec JSON")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run paper-identity verification suites")
    common(p)
    p.add_argument("--suite", choices=["all", "identities", "order3", "schroeder", "final"], default="all")
    p.add_argument("--a", type=finite_complex, default="0.5", help="interior point parameter")
    p.add_argument("--b", type=finite_complex, default="0.5", help="multiplier of bz/(1-cz)")
    p.add_argument("--c", type=finite_complex, default="0.25", help="denominator coefficient of bz/(1-cz)")
    p.add_argument("--truncation", type=positive, default=512)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("residual", help="symmetric-unitary conjugation residuals per truncation")
    common(p)
    p.add_argument("--symbol", required=True, help="SymbolSpec JSON")
    schedule = _flag_type(
        "nondecreasing positive integers separated by commas",
        lambda text: [int(n) for n in text.split(",")],
        lambda ns: min(ns) >= 1 and ns == sorted(ns),
    )
    p.add_argument("--truncation-schedule", type=schedule, default="8,16,32,64")
    p.add_argument("--restarts", type=positive, default=8)
    p.add_argument("--max-iters", type=nonnegative, default=300)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("sweep", help="classify a family over a parameter grid, write CSV")
    common(p)
    p.add_argument("--family", choices=list(FAMILIES), required=True)
    p.add_argument("--grid", type=_flag_type("param=start:stop:count", _grid), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--residual-truncation", type=nonnegative, default=0)
    p.add_argument("--restarts", type=positive, default=8)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("corpus", help="check verdicts against a JSONL corpus of symbols")
    common(p)
    p.add_argument("--in", dest="infile", default=None, help="JSONL file (default: bundled corpus)")
    p.set_defaults(func=cmd_corpus)
    return parser


def _attach_complex_values(argv: list[str]) -> list[str]:
    """Join --a, --b or --c and a following value such as -0.6j into one token.

    argparse reads a token that starts with '-' as an option unless it looks
    like a negative real number, so it would reject --a -0.6j; a token that
    starts with a single '-' is taken as the value, and ``parse_complex``
    rejects one that is not a finite complex number.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--a", "--b", "--c") and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _attach_complex_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help, --version, or a usage error already printed
        return exc.code
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except RecursionError as exc:  # a symbol nested deeper than the interpreter can follow
        print(f"error: input nested too deeply: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
