"""Command line interface: exit codes, JSON output, determinism."""

import collections
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csymcomp import __version__, backend, compop, conjfinder, hardy, mobius, paperchecks
from csymcomp.cli import FAMILIES, _worst_stop, main, parse_complex, symbol_from_spec, to_jsonable

try:
    import resource
except ImportError:  # not on every platform
    resource = None
from csymcomp.conjfinder import ResidualReport, RestartStop
from csymcomp.mobius import SymbolKind, classify
from csymcomp.paperchecks import order3_truncation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- helpers ----------------------------------------------------------------------


def test_parse_complex_forms():
    assert parse_complex("0.5") == 0.5
    assert parse_complex("0.5,0.2") == 0.5 + 0.2j
    assert parse_complex("0.5+0.2j") == 0.5 + 0.2j


def test_symbol_from_spec_families():
    assert classify(symbol_from_spec({"family": "rotation", "theta": 0.0})).kind is (
        SymbolKind.ROTATION
    )
    m = symbol_from_spec({"family": "involution", "a": [0.5, 0.0]})
    assert classify(m).kind is SymbolKind.ELLIPTIC_AUT
    m = symbol_from_spec({"a": [0.5, 0], "b": [0.25, 0], "c": [0, 0], "d": [1, 0]})
    assert m.b == pytest.approx(0.25)
    # sweep hands each grid value over as [value, 0.0]
    pair = symbol_from_spec({"family": "rotation", "theta": [1.0, 0.0]})
    assert pair.coefficients == symbol_from_spec({"family": "rotation", "theta": 1.0}).coefficients


def test_symbol_from_spec_unknown_family():
    with pytest.raises(ValueError):
        symbol_from_spec({"family": "nope"})


HUGE_INT = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "spec",
    [
        {"a": 0.5, "b": 0, "c": 0},
        {"family": "involution", "a": [1.0, 0]},
        {"family": "involution", "a": 1.5},
        {"a": 0, "b": 0, "c": 0, "d": 0},
        {"a": True, "b": False, "c": 0, "d": 1},
        {"family": "rotation", "theta": True},
        {"a": int(HUGE_INT), "b": 0, "c": 0, "d": 1},
    ],
    ids=["missing_d", "involution_on_circle", "involution_outside", "singular", "booleans", "theta_bool",
         "huge_int"],
)
def test_symbol_from_spec_raises_value_error(spec):
    # the one exception the commands catch, whatever is wrong with the spec
    with pytest.raises(ValueError):
        symbol_from_spec(spec)


def test_to_jsonable_complex_and_floats():
    out = to_jsonable({"z": 0.1 + 0.2j, "x": 1 / 3})
    assert out["z"] == [0.1, 0.2]
    assert out["x"] == float(f"{1/3:.15g}")


def test_version_names_the_kernels(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.splitlines()[0] == f"csymcomp {__version__} (python kernels)"


def test_version_names_numpy_and_blas(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert out.splitlines()[1:] == [f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"]


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["residual", "-h"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: csymcomp")


# -- classify ----------------------------------------------------------------------


def test_classify_cs_symbol(capsys):
    code, out, _ = run(
        capsys, "classify", "--json", "--symbol", '{"family":"involution","a":[0.5,0]}'
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["is_cs"] is True
    assert "involutive_automorphism" in data["verdict"]["witnesses"]


def test_classify_non_cs_symbol(capsys):
    code, out, _ = run(
        capsys, "classify", "--json", "--symbol", '{"family":"elliptic3","a":[0.5,0]}'
    )
    assert code == 0
    assert json.loads(out)["verdict"]["is_cs"] is False


# 2z, and a map whose pole lies within 1e-12 of -1: it sends -1 + 1e-12 to -8.64
NOT_SELF_MAPS = [
    '{"a":[2,0],"b":[0,0],"c":[0,0],"d":[1,0]}',
    '{"a":0.5,"b":0.49999999999,"c":1,"d":1.0000000000001}',
]


def test_classify_not_selfmap_exits_2(capsys):
    for symbol in NOT_SELF_MAPS:
        code, out, _ = run(capsys, "classify", "--json", "--symbol", symbol)
        assert code == 2, symbol
        data = json.loads(out)
        assert data["error"] == "not a self-map of the unit disk"
        assert data["class"] == {"kind": "not_self_map"}


def test_classify_near_identity_not_selfmap_exits_2(capsys):
    # (z + e)/(1 - e z), e = 0.9e-10, passes is_identity but not is_disk_selfmap:
    # its class is not_self_map, not rotation
    symbol = '{"a":1,"b":0.9e-10,"c":-0.9e-10,"d":1}'
    code, out, _ = run(capsys, "classify", "--json", "--symbol", symbol)
    assert code == 2
    assert '"kind":"not_self_map"' in out
    assert json.loads(out)["class"] == {"kind": "not_self_map"}


def test_classify_near_circle_elliptic3(capsys):
    # the pole of elliptic3 at |a| = 0.99 lies 0.01 outside the circle
    argv = ("classify", "--json", "--symbol", '{"family":"elliptic3","a":[0.99,0]}')
    code, out, _ = run(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["class"]["kind"] == "elliptic_automorphism"
    assert data["verdict"]["class"]["order"] == 3
    assert data["verdict"]["is_cs"] is False
    assert data["conditioning"] == pytest.approx(1 / abs(symbol_from_spec(json.loads(argv[-1])).det))
    assert data["conditioning"] > 1e3
    assert run(capsys, *argv)[1] == out


def test_classify_malformed_symbol_exits_1(capsys):
    code, _, err = run(capsys, "classify", "--symbol", "not json")
    assert code == 1
    assert "invalid symbol" in err


@pytest.mark.parametrize(
    "command,symbol",
    [
        ("classify", "[1,2]"),
        ("classify", "3"),
        ("classify", '{"family":"rotation","theta":null}'),
        ("classify", '{"family":"rotation","theta":[1,2]}'),
        ("classify", '{"family":"rotation","theta":Infinity}'),
        ("classify", '{"family":"involution","a":[null,0]}'),
        ("classify", '{"a":1,"b":NaN,"c":0,"d":1}'),
        ("classify", '{"family":"involution","a":NaN}'),
        ("residual", "[0.5]"),
        ("classify", f'{{"a":{HUGE_INT},"b":0,"c":0,"d":1}}'),
        ("residual", f'{{"family":"involution","a":[0.5,{HUGE_INT}]}}'),
        ("classify", '{"a":true,"b":false,"c":0,"d":1}'),
        ("classify", '{"family":"rotation","theta":true}'),
    ],
    ids=["list", "number", "theta_null", "theta_complex", "theta_inf", "pair_null", "b_nan", "involution_nan",
         "residual_list", "huge_int", "residual_huge_int", "booleans", "theta_bool"],
)
def test_symbol_of_the_wrong_shape_exits_1(capsys, command, symbol):
    code, out, err = run(capsys, command, "--symbol", symbol)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: invalid symbol") and err.count("\n") == 1


def test_classify_text_output(capsys):
    code, out, _ = run(capsys, "classify", "--symbol", '{"family":"rotation","theta":1.0}')
    assert code == 0
    assert "is_cs: true" in out


# -- verify -------------------------------------------------------------------------


def test_verify_identities_suite_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--json", "--suite", "identities", "--a", "0.5", "--truncation", "256"
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert all(ch["pass"] for ch in data["checks"])


def test_verify_schroeder_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--json", "--suite", "schroeder", "--b", "0.5", "--c", "0.25"
    )
    assert code == 0
    assert json.loads(out)["all_pass"] is True


@pytest.mark.parametrize("c, code", [("0.50000000005", 0), ("0.5000000002", 2)])
def test_schroeder_and_classify_share_the_selfmap_test(capsys, c, code):
    # bz/(1 - cz) at b = 0.5 leaves the disk by c - 0.5; the first c is within
    # the tolerance of is_disk_selfmap, the second beyond it
    symbol = json.dumps({"family": "bz_over_1_minus_cz", "b": 0.5, "c": float(c)})
    assert run(capsys, "classify", "--json", "--symbol", symbol)[0] == code
    assert run(capsys, "verify", "--json", "--suite", "schroeder", "--b", "0.5", "--c", c)[0] == code


def test_verify_order3_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--json", "--suite", "order3", "--a", "0.3", "--truncation", "512"
    )
    assert code == 0
    data = json.loads(out)
    names = [ch["name"] for ch in data["checks"]]
    assert "gap_strictly_positive" in names
    for ch in data["checks"]:
        assert ch["truncation"] == 512
        assert ch["margin"] == pytest.approx(ch["residual"] / ch["tol"], rel=1e-14)
        assert ch["pass"] == (ch["margin"] <= 1.0)


def test_verify_all_near_circle_checks_elliptic3_at_witness_truncation(capsys):
    # at N = 512 adjoint_star3[elliptic3] was 1.46e-6 > 1e-7; the matrix at
    # the witness's truncation (N = 4685) brings it to rounding level
    code, out, _ = run(capsys, "verify", "--json", "--suite", "all", "--a", "0.95")
    assert code == 0
    checks = json.loads(out)["checks"]
    ell = [ch for ch in checks if ch["name"].endswith("[elliptic3]")]
    assert len(ell) == 3
    assert {ch["truncation"] for ch in ell} == {order3_truncation(0.95)} == {4685}
    assert all(ch["truncation"] == 512 for ch in checks if ch["name"].endswith("[dilate_translate]"))


@pytest.mark.parametrize("a", ["0.75", "0.8"])
def test_verify_order3_widens_witness_truncation(capsys, a):
    # the claims need a longer tail than --truncation gives near the circle
    code, out, _ = run(capsys, "verify", "--json", "--suite", "order3", "--a", a)
    assert code == 0
    data = json.loads(out)
    claims = [ch for ch in data["checks"] if ch["name"].startswith("claim")]
    assert all(ch["truncation"] > 512 for ch in claims)
    assert all(ch["margin"] <= 1.0 for ch in data["checks"])


def test_verify_order3_near_circle_is_not_rejected(capsys):
    # elliptic3 at |a| = 0.99 is a self-map, and with no cap on the witness's
    # truncation every claim passes at N = 25 329
    code, out, err = run(capsys, "verify", "--json", "--suite", "order3", "--a", "0.99")
    assert (code, err) == (0, "")
    data = json.loads(out)
    gap = [ch for ch in data["checks"] if ch["name"].startswith("gap_")]
    claims = [ch for ch in data["checks"] if ch["name"].startswith("claim")]
    assert {ch["truncation"] for ch in gap} == {ch["truncation"] for ch in claims} == {25329}
    assert all(ch["pass"] for ch in data["checks"])
    # the e_1 series needs the witness's length too: at --truncation 512 its
    # residual was 0.22, at the claims' truncation it is at rounding level
    (e1,) = [ch for ch in data["checks"] if ch["name"] == "e1_norm"]
    assert e1["truncation"] == claims[0]["truncation"] > 512
    assert e1["pass"]


def test_verify_order3_passes_at_a_tiny_centre(capsys):
    # the gap, about 2|a|^2, lies below the rounding error of ||f||^2 ~ 1; it is read
    # from the series without f_0, so nothing cancels
    code, out, _ = run(capsys, "verify", "--json", "--suite", "order3", "--a", "1e-9")
    assert [ch["name"] for ch in json.loads(out)["checks"] if not ch["pass"]] == []
    assert code == 0


def test_verify_order3_passes_at_0_98(capsys):
    # at N = 6144 claim1_eigen is 6.9e-6 and claim4_eigen 2.6e-4, against a
    # tolerance of 1e-7; the witness's own N passes them
    code, out, err = run(capsys, "verify", "--json", "--suite", "order3", "--a", "0.98")
    assert (code, err) == (0, "")
    checks = json.loads(out)["checks"]
    assert {ch["truncation"] for ch in checks} == {order3_truncation(0.98)} == {12422}
    assert all(ch["pass"] for ch in checks)


@pytest.mark.parametrize(
    "suite,a",
    [(s, a) for s in ("order3", "identities", "all") for a in ("0.9923", "0.999", "0.999999")]
    + [("order3", "0.9999999999999999"), ("final", "0.9995"), ("final", "0.9999999999999999")],
)
def test_verify_rejects_centres_beyond_the_truncation_limit(capsys, suite, a):
    # the order-3 truncation grows like 250/(1 - |a|), and final's like
    # 17/(1 - |a|) at the default b and c; past the one limit the run stops
    # at once with one error line, before any block is built
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--json", "--suite", suite, "--a", a)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"above {paperchecks.MAX_TRUNCATION}" in err
    assert time.perf_counter() - start < 2


def test_verify_identities_passes_at_0_99(capsys):
    # the second derivative kernel at |a| = 0.99 has norm about 9e4, so the
    # adjoint must keep the rounding level of M^H: 7.7e-8 against a tolerance of 1e-7
    code, out, err = run(capsys, "verify", "--json", "--suite", "identities", "--a", "0.99")
    assert (code, err) == (0, "")
    checks = json.loads(out)["checks"]
    (star3,) = [ch for ch in checks if ch["name"] == "adjoint_star3[elliptic3]"]
    assert star3["truncation"] == 25329
    assert all(ch["pass"] for ch in checks)


@pytest.mark.parametrize("a", ["0", "1"])
def test_verify_order3_rejects_bad_center(capsys, a):
    # a = 0 is the rotation case and |a| = 1 leaves the disk: one error line
    code, out, err = run(capsys, "verify", "--json", "--suite", "order3", "--a", a)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_all_skips_order3_at_zero(capsys):
    # order3 and final both need a != 0; the report's params.a is the a they would run at
    code, out, _ = run(capsys, "verify", "--json", "--suite", "all", "--a", "0", "--truncation", "64")
    assert code == 0
    data = json.loads(out)
    assert data["params"]["a"] == [0.0, 0.0]
    names = [ch["name"] for ch in data["checks"]]
    assert names and not any(n.startswith(("claim", "gap_", "theorem_final")) for n in names)


def test_verify_final_widens_its_truncation_near_the_circle(capsys):
    # at a = 0.992, w0 = 0.976: eigen_h2 was 6.9e-7 at N = 512
    code, out, err = run(capsys, "verify", "--json", "--suite", "final", "--a", "0.992")
    assert (code, err) == (0, "")
    checks = json.loads(out)["checks"]
    assert {ch["truncation"] for ch in checks} == {2167}
    assert all(ch["pass"] for ch in checks)


def test_verify_final_rejects_zero_center(capsys):
    code, out, err = run(capsys, "verify", "--json", "--suite", "final", "--a", "0")
    assert (code, out, err) == (2, "", "error: need a in the open disk, a != 0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "final", "--b", "0"],
        ["--suite", "final", "--c", "0"],
        ["--suite", "final", "--b", "0.8", "--c", "0.5"],
        ["--suite", "final", "--b", "0.5", "--c", "0.5"],
        ["--suite", "final", "--a", "1.5"],
        ["--suite", "schroeder", "--b", "0"],
    ],
    ids=["final_b_0", "final_c_0", "final_not_selfmap", "final_eta_on_circle", "final_a_outside",
         "schroeder_b_0"],
)
def test_verify_domain_rejection_exits_2_without_traceback(capsys, argv):
    code, out, err = run(capsys, "verify", "--json", *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_pointwise_checks_have_no_truncation(capsys):
    # the elliptic3 checks run at the order-3 witness's truncation, the rest at N
    code, out, _ = run(capsys, "verify", "--json", "--suite", "identities", "--truncation", "64")
    assert code == 0
    for ch in json.loads(out)["checks"]:
        if ch["name"].startswith("identity_id"):
            want = None
        elif ch["name"].endswith("[elliptic3]"):
            want = order3_truncation(0.5, 64)
        else:
            want = 64
        assert ch["truncation"] == want
    assert order3_truncation(0.5, 64) == 512


@pytest.mark.parametrize("a", ["0.5", "0.8", "0.95"])
def test_verify_identities_checks_elliptic3_as_all_does(capsys, a):
    # one truncation rule for the elliptic3 adjoint checks, whichever suite runs them
    records = {}
    for suite in ("identities", "all"):
        code, out, _ = run(capsys, "verify", "--json", "--suite", suite, "--a", a)
        assert code == 0
        records[suite] = [
            (ch["name"], ch["truncation"], ch["residual"])
            for ch in json.loads(out)["checks"]
            if ch["name"].endswith("[elliptic3]")
        ]
    assert len(records["all"]) == 3
    assert records["identities"] == records["all"]
    assert {t for _, t, _ in records["all"]} == {order3_truncation(float(a))}


def test_verify_reads_a_complex_value_with_a_leading_minus(capsys):
    # argparse's negative-number pattern matches real numbers only
    args = ["verify", "--json", "--suite", "identities"]
    code, out, err = run(capsys, *args, "--a", "-0.6j")
    assert (code, err) == (0, "")
    assert json.loads(out)["params"]["a"] == [0.0, -0.6]
    assert run(capsys, *args, "--a=-0.6j") == (code, out, err)


@pytest.mark.parametrize("a", ["0.5", "0.8"])
def test_verify_builds_each_block_once(capsys, monkeypatch, a):
    # the suites apply every composition operator without forming its matrix:
    # no operator matrix and no square block of powers, and one order-3
    # witness for the claims and the gap checks together, which holds the
    # only composition by phi_a; `identities` builds no witness.  The
    # witness's series are closed forms: no suite takes a product or a reciprocal.
    # Each operator stacks what it applies: one apply pass and one adjoint pass at most.
    # The witness reads phi_a's powers from its operator's block, so `order3` builds
    # one block of phi_a, and `all` builds 9 blocks in all
    matrices, squares, products, witnesses, phi_a_ops, passes = [], [], [], [], [], []
    blocks = collections.Counter()
    matrix_of_composition, power_columns = compop.matrix_of_composition, backend.power_columns
    multiply, reciprocal = hardy.multiply, backend.reciprocal
    composer, build_order3_witness = backend.composer, paperchecks.build_order3_witness
    phi_a = mobius.involution(complex(a)).coefficients

    def counted_matrix(phi, n):
        matrices.append(n)
        return matrix_of_composition(phi, n)

    def counted_power_columns(coeffs, n, k):
        blocks[tuple(coeffs)] += 1
        if n == k:
            squares.append(n)
        return power_columns(coeffs, n, k)

    def counted_multiply(f, g):
        products.append(max(f.truncation, g.truncation))
        return multiply(f, g)

    def counted_reciprocal(f, n):
        products.append(n)
        return reciprocal(f, n)

    def counted_composer(coeffs, n):
        if tuple(coeffs) == phi_a:
            phi_a_ops.append(n)
        apply, adjoint, block = composer(coeffs, n)
        count = {"apply": 0, "adjoint": 0}
        passes.append(count)

        def counted_apply(stack):
            count["apply"] += 1
            return apply(stack)

        def counted_adjoint(stack):
            count["adjoint"] += 1
            return adjoint(stack)

        return counted_apply, counted_adjoint, block

    def counted_witness(*args, **kwargs):
        witnesses.append(1)
        return build_order3_witness(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "csymcomp":
            continue
        for attr, orig, new in (
            ("matrix_of_composition", matrix_of_composition, counted_matrix),
            ("power_columns", power_columns, counted_power_columns),
            ("multiply", multiply, counted_multiply),
            ("reciprocal", reciprocal, counted_reciprocal),
            ("composer", composer, counted_composer),
            ("build_order3_witness", build_order3_witness, counted_witness),
        ):
            if getattr(module, attr, None) is orig:
                monkeypatch.setattr(module, attr, new)
    # blocks of phi_a: the witness's operator, and lemma_star_s's rows and columns
    for suite, want_witnesses, want_phi_a, want_blocks in (
        ("all", 1, 3, 9), ("order3", 1, 1, 2), ("identities", 0, 2, 4)
    ):
        for seen in (matrices, squares, products, witnesses, phi_a_ops, passes, blocks):
            seen.clear()
        code, _, _ = run(capsys, "verify", "--json", "--suite", suite, "--a", a, "--truncation", "512")
        assert code == 0
        assert matrices == [], f"{suite}: matrices {matrices}"
        assert squares == [], f"{suite}: square blocks {squares}"
        assert products == [], f"{suite}: products and reciprocals {products}"
        assert len(witnesses) == want_witnesses, f"{suite}: {len(witnesses)} witness builds"
        assert len(phi_a_ops) == want_witnesses, f"{suite}: phi_a composers {phi_a_ops}"
        assert all(max(count.values()) <= 1 for count in passes), f"{suite}: passes {passes}"
        assert blocks[phi_a] == want_phi_a, f"{suite}: {blocks[phi_a]} blocks of phi_a"
        assert sum(blocks.values()) == want_blocks, f"{suite}: blocks {dict(blocks)}"


# -- residual -----------------------------------------------------------------------


def test_residual_rotation_is_zero(capsys):
    code, out, _ = run(
        capsys,
        "residual",
        "--json",
        "--symbol",
        '{"family":"rotation","theta":1.0}',
        "--truncation-schedule",
        "8,16",
        "--restarts",
        "2",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["truncation"] for r in rows] == [8, 16]
    assert all(r["best_residual"] <= 1e-12 for r in rows)


def test_residual_rows_say_how_the_search_stopped(capsys):
    # a row that ran out of iterations must not read like a converged one
    args = ["residual", "--json", "--truncation-schedule", "8,16", "--restarts", "2"]
    code, out, _ = run(capsys, *args, "--symbol", '{"family":"rotation","theta":1.0}')
    assert code == 0
    assert [r["stop"] for r in json.loads(out)["rows"]] == ["tol", "tol"]
    code, out, _ = run(capsys, *args, "--symbol", '{"family":"elliptic3","a":[0.5,0]}', "--max-iters", "0")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["stop"] for r in rows] == ["max_iters", "max_iters"]
    assert all(r["grad_norm"] > 0 for r in rows)


def test_worst_stop_ranks_max_iters_armijo_grad_tol():
    def report(*stops):
        return ResidualReport(0.1, None, 0, len(stops), stops=[
            RestartStop(r, reason, grad_norm, 1, 0.1) for r, (reason, grad_norm) in enumerate(stops)])

    assert _worst_stop(report(("tol", 1e-3), ("armijo", 1e-6), ("grad", 1e-2), ("armijo", 1e-5))) == {
        "stop": "armijo", "grad_norm": 1e-5}
    assert _worst_stop(report(("grad", 1e-9), ("max_iters", 2e-4), ("tol", 1.0))) == {
        "stop": "max_iters", "grad_norm": 2e-4}
    assert _worst_stop(report(("tol", 3e-2), ("grad", 1e-14))) == {"stop": "grad", "grad_norm": 1e-14}


def test_residual_warm_starts_each_larger_truncation(capsys, monkeypatch):
    # the default schedule hands --restarts starts to the search at N = 8
    # and one warm start at each larger N, never eight random ones
    stacks = []
    lbfgs = conjfinder._lbfgs

    def counting(tm, v0, opts):
        stacks.append(v0.shape)
        return lbfgs(tm, v0, opts)

    monkeypatch.setattr(conjfinder, "_lbfgs", counting)
    code, out, _ = run(
        capsys, "residual", "--json", "--symbol", '{"family":"elliptic3","a":[0.5,0]}', "--max-iters", "0"
    )
    assert code == 0
    assert stacks == [(8, 8, 8), (1, 16, 16), (1, 32, 32), (1, 64, 64)]
    assert [r["restarts"] for r in json.loads(out)["rows"]] == [8, 1, 1, 1]


# an elliptic automorphism whose pole clears the closed disk by the pole margin
# to within rounding: it passes is_disk_selfmap, so its expansion must exist
POLE_AT_MARGIN = json.dumps({
    "a": [0.9559640329626999, 0.293480438330547],
    "b": [-0.9520836394945152, 0.3058345032952915],
    "c": [-0.6164683306544431, -0.7873797033821256],
    "d": [0.9559649889276889, 0.2934807318112788],
})


def test_residual_expands_a_selfmap_at_the_pole_margin(capsys):
    code, out, _ = run(capsys, "classify", "--json", "--symbol", POLE_AT_MARGIN)
    assert code == 0
    assert json.loads(out)["verdict"]["class"]["kind"] == "elliptic_automorphism"
    code, _, err = run(
        capsys, "residual", "--json", "--symbol", POLE_AT_MARGIN,
        "--truncation-schedule", "4,8", "--restarts", "2",
    )
    assert code == 0
    assert "Traceback" not in err


def test_residual_rejects_non_selfmap(capsys):
    for symbol in NOT_SELF_MAPS:
        code, out, err = run(capsys, "residual", "--symbol", symbol)
        assert code == 2, symbol
        assert out == ""
        assert err == "error: not a self-map of the unit disk\n"  # one line, no traceback


# -- sweep --------------------------------------------------------------------------


def test_sweep_writes_csv(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        "sweep",
        "--family",
        "involution",
        "--grid",
        "a=0.1:0.8:4",
        "--out",
        str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].startswith("family,a,class,is_cs")
    assert len(lines) == 5
    assert all("True" in ln for ln in lines[1:])


def test_sweep_residual_skips_non_selfmaps(capsys, tmp_path):
    # z -> a z is a self-map for a = 0.5 and 1.0 but not for a = 1.5
    out_file = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys, "sweep", "--family", "dilate_translate", "--grid", "a=0.5:1.5:3",
        "--residual-truncation", "8", "--restarts", "2", "--out", str(out_file),
    )
    assert code == 0, err
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "family,a,class,is_cs,best_residual,stop,grad_norm"
    assert lines[3] == "dilate_translate,1.5,not_self_map,False,,,"
    for ln in lines[1:3]:
        best_residual, stop, grad_norm = ln.split(",")[4:]
        assert float(best_residual) <= 1e-12
        assert stop in ("tol", "grad") and float(grad_norm) >= 0


def test_sweep_climbs_the_residual_ladder(capsys, tmp_path):
    # a sweep at N = 32 warm-starts through 8 and 16, as residual's schedule does
    symbol = {"family": "elliptic3", "a": [0.5, 0.0]}
    code, out, _ = run(capsys, "residual", "--json", "--symbol", json.dumps(symbol),
                       "--truncation-schedule", "8,16,32")
    assert code == 0
    want = json.loads(out)["rows"][-1]
    out_file = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--family", "elliptic3", "--grid", "a=0.5:0.5:1",
                       "--residual-truncation", "32", "--out", str(out_file))
    assert (code, err) == (0, "")
    with open(out_file, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["best_residual"]) == want["best_residual"]
    assert (row["stop"], float(row["grad_norm"])) == (want["stop"], want["grad_norm"])


def test_sweep_over_rotation_angles(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "sweep", "--family", "rotation", "--grid", "theta=0:3:4", "--out", str(out_file))
    assert (code, err) == (0, "")
    assert out == "wrote 4 rows to " + str(out_file) + "\n"
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].startswith("family,theta,class,is_cs")
    assert [ln.split(",")[1] for ln in lines[1:]] == ["0.0", "1.0", "2.0", "3.0"]


def test_sweep_bad_grid_exits_1(capsys, tmp_path):
    code, _, err = run(
        capsys, "sweep", "--family", "involution", "--grid", "a=bad", "--out", str(tmp_path / "x.csv")
    )
    assert code == 1


# -- corpus -------------------------------------------------------------------------


def test_bundled_corpus_all_match(capsys):
    code, out, _ = run(capsys, "corpus", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["symbols"] == 30
    assert data["mismatches"] == 0
    assert data["malformed"] == 0


def test_corpus_reports_mismatch_exit_3(capsys, tmp_path):
    f = tmp_path / "bad.jsonl"
    f.write_text('{"name":"x","family":"involution","a":[0.5,0],"expected_cs":false}\n')
    code, out, _ = run(capsys, "corpus", "--json", "--in", str(f))
    assert code == 3
    assert json.loads(out)["mismatches"] == 1


def test_corpus_counts_a_non_selfmap_as_a_mismatch(capsys, tmp_path):
    f = tmp_path / "outside.jsonl"
    f.write_text('{"name":"x","family":"dilate_translate","a":[1.5,0],"expected_cs":false}\n')
    code, out, _ = run(capsys, "corpus", "--json", "--in", str(f))
    assert code == 3
    data = json.loads(out)
    assert data["mismatches"] == 1
    (entry,) = data["results"]
    assert entry["is_cs"] is None
    assert entry["error"] == "not a self-map"
    assert entry["match"] is False


def test_corpus_malformed_line_exit_1(capsys, tmp_path):
    f = tmp_path / "bad.jsonl"
    f.write_text("{not json}\n")
    code, out, _ = run(capsys, "corpus", "--json", "--in", str(f))
    assert code == 1
    assert json.loads(out)["malformed"] == 1


@pytest.mark.parametrize(
    "line",
    ["[1,2]", '"x"', "3", "null",
     pytest.param(f'{{"family":"elliptic3","a":{HUGE_INT}}}', id="huge_int"),
     pytest.param('{"family":"rotation","theta":true}', id="boolean")],
)
def test_corpus_counts_a_non_object_line_as_malformed(capsys, tmp_path, line):
    f = tmp_path / "mixed.jsonl"
    f.write_text(line + '\n{"name":"ok","family":"rotation","theta":1.0,"expected_cs":true}\n')
    code, out, err = run(capsys, "corpus", "--json", "--in", str(f))
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert (data["symbols"], data["malformed"], data["mismatches"]) == (2, 1, 0)
    bad, good = data["results"]
    assert bad["line"] == 1 and bad["error"].startswith("malformed: ")
    assert good == {"line": 2, "name": "ok", "is_cs": True, "expected_cs": True, "match": True}


# -- bad input: exit 1 with a one-line message ----------------------------------------

ROTATION = '{"family":"rotation","theta":1.0}'


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--a", "xyz"],
        ["verify", "--a", "nan"],
        ["verify", "--b", "inf"],
        ["verify", "--c", "-inf"],
        ["verify", "--truncation", "0"],
        ["verify", "--truncation", "-3"],
        ["residual", "--symbol", ROTATION, "--truncation-schedule", "0"],
        ["residual", "--symbol", ROTATION, "--truncation-schedule", "4,x"],
        ["corpus", "--in", "{tmp}/missing.jsonl"],
        ["sweep", "--family", "involution", "--grid", "a=0.1:0.5:2", "--out", "{tmp}/x.csv",
         "--residual-truncation", "-3"],
        ["residual", "--symbol", ROTATION, "--restarts", "0"],
        ["residual", "--symbol", ROTATION, "--restarts", "-3"],
        ["residual", "--symbol", ROTATION, "--max-iters", "-1"],
        ["residual", "--symbol", ROTATION, "--truncation-schedule", "16,8"],
        ["sweep", "--family", "involution", "--grid", "a=0.1:0.5:2", "--out", "{tmp}/x.csv",
         "--restarts", "0"],
        ["residual", "--symbol", "{bad"],
        ["sweep", "--family", "involution", "--grid", "a=0.5:1.5:3", "--out", "{tmp}/x.csv"],
        ["sweep", "--family", "involution", "--grid", "a=0.1:0.5:2", "--out", "{tmp}/missing/x.csv"],
        ["verify", "--truncation", "abc"],
        ["residual", "--symbol", ROTATION, "--restarts", "x"],
        ["residual", "--symbol", ROTATION, "--max-iters", "1.5"],
        ["classify"],
        ["verify", "--bogus"],
        ["nope"],
        [],
        ["residual", "--symbol", ROTATION, "--seed", "-1"],
        ["sweep", "--family", "involution", "--grid", "a=0.1:0.5", "--out", "{tmp}/x.csv"],
        ["classify", "--symbol", "[" * 100_000],
        ["classify", "--json", "--symbol", '{"family":"rotation","theta":1,"x":' + "[" * 600 + "]" * 600 + "}"],
    ],
    ids=["a_xyz", "a_nan", "b_inf", "c_minus_inf", "truncation_0", "truncation_neg", "schedule_0", "schedule_4x",
         "corpus_missing", "sweep_residual_neg", "restarts_0", "restarts_neg", "max_iters_neg",
         "schedule_decreasing", "sweep_restarts_0", "residual_bad_symbol", "sweep_involution_outside", "sweep_out_missing_dir",
         "truncation_abc", "restarts_x", "max_iters_float", "classify_no_symbol", "unknown_flag", "unknown_command",
         "no_command", "seed_neg", "grid_no_count", "symbol_too_deep", "symbol_key_too_deep"],
)
def test_bad_input_exits_1_without_traceback(capsys, tmp_path, argv):
    code, out, err = run(capsys, *[arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "schroeder", "--truncation", "1000000000"],
        ["verify", "--suite", "final", "--truncation", "200000000"],
        ["residual", "--symbol", '{"family":"elliptic3","a":[0.5,0]}', "--truncation-schedule", "100000"],
    ],
    ids=["schroeder", "final", "residual"],
)
def test_out_of_memory_exits_1_without_traceback(argv):
    # each asks for 9-149 GiB; a 3 GiB address space makes numpy refuse it on any host
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "csymcomp.cli", *argv],
        env=env, preexec_fn=limit_address_space, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: out of memory: ") and proc.stderr.count("\n") == 1


# JSON values of every kind a symbol must refuse or read: huge integers,
# NaN, infinities, booleans, strings, null and nested lists
json_numbers = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400), st.floats(), st.floats(-2, 2), st.booleans()
)
json_leaves = st.one_of(json_numbers, st.text(max_size=3), st.none(), st.sampled_from(FAMILIES))
json_values = st.recursive(json_leaves, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
symbol_specs = st.one_of(
    st.dictionaries(st.sampled_from(["a", "b", "c", "d", "family", "theta", "omega"]), json_values),
    # all four coefficients present, so that some specs reach decide
    st.fixed_dictionaries({k: json_numbers | st.lists(json_numbers, min_size=2, max_size=2) for k in "abcd"}),
)
flag_values = st.text(alphabet="0123456789-+.,:= eEjinfx\n", max_size=6)
NOT_SELF_MAP = NOT_SELF_MAPS[0]  # residual rejects it before any search


def run_in_process(argv):
    """``run`` without capsys, a function-scoped fixture that Hypothesis cannot share between examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        symbol_specs.map(lambda spec: ["classify", "--json", "--symbol", json.dumps(spec)]),
        st.tuples(st.sampled_from(["--a", "--b", "--c"]), flag_values).map(
            lambda fv: ["verify", "--json", "--suite", "schroeder", "--truncation", "8", *fv]),
        st.tuples(st.sampled_from(["--truncation-schedule", "--restarts", "--max-iters", "--seed"]), flag_values).map(
            lambda fv: ["residual", "--json", "--symbol", NOT_SELF_MAP, *fv]),
    )
)
def test_every_input_meets_the_exit_contract(argv):
    code, _, err = run_in_process(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert err.count("\n") <= 1 and (err == "" or err.startswith("error: "))


# -- determinism ----------------------------------------------------------------------


def test_reports_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(
            capsys, "verify", "--json", "--suite", "order3", "--a", "0.5"
        )
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_residual_report_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(
            capsys,
            "residual",
            "--json",
            "--symbol",
            '{"family":"involution","a":[0.5,0]}',
            "--truncation-schedule",
            "8",
            "--restarts",
            "3",
            "--seed",
            "42",
        )
        outputs.append(out)
    assert outputs[0] == outputs[1]
