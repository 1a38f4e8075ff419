"""Command line interface: exit codes, JSON output, determinism."""

import json

import pytest

from csymcomp import __version__
from csymcomp.cli import main, parse_complex, symbol_from_spec, to_jsonable
from csymcomp.mobius import SymbolKind, classify


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


def test_symbol_from_spec_unknown_family():
    with pytest.raises(ValueError):
        symbol_from_spec({"family": "nope"})


def test_to_jsonable_complex_and_floats():
    out = to_jsonable({"z": 0.1 + 0.2j, "x": 1 / 3})
    assert out["z"] == [0.1, 0.2]
    assert out["x"] == float(f"{1/3:.15g}")


def test_version_names_the_kernels(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == f"csymcomp {__version__} (python kernels)"


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


def test_classify_not_selfmap_exits_2(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--json",
        "--symbol",
        '{"a":[2,0],"b":[0,0],"c":[0,0],"d":[1,0]}',
    )
    assert code == 2
    assert json.loads(out)["error"] == "not a self-map of the unit disk"


def test_classify_malformed_symbol_exits_1(capsys):
    code, _, err = run(capsys, "classify", "--symbol", "not json")
    assert code == 1
    assert "invalid symbol" in err


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


@pytest.mark.parametrize("a", ["0.75", "0.8"])
def test_verify_order3_widens_witness_truncation(capsys, a):
    # the claims need a longer tail than --truncation gives near the circle
    code, out, _ = run(capsys, "verify", "--json", "--suite", "order3", "--a", a)
    assert code == 0
    data = json.loads(out)
    claims = [ch for ch in data["checks"] if ch["name"].startswith("claim")]
    assert all(ch["truncation"] > 512 for ch in claims)
    assert all(ch["margin"] <= 1.0 for ch in data["checks"])


def test_verify_pointwise_checks_have_no_truncation(capsys):
    code, out, _ = run(capsys, "verify", "--json", "--suite", "identities", "--truncation", "64")
    assert code == 0
    for ch in json.loads(out)["checks"]:
        want = None if ch["name"].startswith("identity_id") else 64
        assert ch["truncation"] == want


def test_verify_builds_each_block_once(capsys, monkeypatch):
    # the suite reads each power block once at the shape it needs:
    # four full N x N operator matrices and few truncated products
    import sys

    from csymcomp import backend, hardy

    squares, products = [], []
    power_columns, multiply = backend.power_columns, hardy.multiply

    def counted_power_columns(coeffs, n, k):
        if n == k:
            squares.append(n)
        return power_columns(coeffs, n, k)

    def counted_multiply(f, g):
        products.append(1)
        return multiply(f, g)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "csymcomp":
            continue
        for attr, orig, new in (
            ("power_columns", power_columns, counted_power_columns),
            ("multiply", multiply, counted_multiply),
        ):
            if getattr(module, attr, None) is orig:
                monkeypatch.setattr(module, attr, new)
    code, _, _ = run(capsys, "verify", "--json", "--suite", "all", "--truncation", "512")
    assert code == 0
    assert squares == [512] * len(squares)
    assert len(squares) <= 4, f"{len(squares)} full builds"
    assert len(products) <= 30, f"{len(products)} products"


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


def test_residual_rejects_non_selfmap(capsys):
    code, _, err = run(
        capsys,
        "residual",
        "--symbol",
        '{"a":[2,0],"b":[0,0],"c":[0,0],"d":[1,0]}',
    )
    assert code == 2


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


def test_corpus_malformed_line_exit_1(capsys, tmp_path):
    f = tmp_path / "bad.jsonl"
    f.write_text("{not json}\n")
    code, out, _ = run(capsys, "corpus", "--json", "--in", str(f))
    assert code == 1
    assert json.loads(out)["malformed"] == 1


# -- bad input: exit 1 with a one-line message ----------------------------------------

ROTATION = '{"family":"rotation","theta":1.0}'


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--a", "xyz"],
        ["verify", "--truncation", "0"],
        ["verify", "--truncation", "-3"],
        ["residual", "--symbol", ROTATION, "--truncation-schedule", "0"],
        ["residual", "--symbol", ROTATION, "--truncation-schedule", "4,x"],
        ["corpus", "--in", "{tmp}/missing.jsonl"],
        ["sweep", "--family", "involution", "--grid", "a=0.1:0.5:2", "--out", "{tmp}/x.csv",
         "--residual-truncation", "-3"],
    ],
    ids=["a_xyz", "truncation_0", "truncation_neg", "schedule_0", "schedule_4x", "corpus_missing",
         "sweep_residual_neg"],
)
def test_bad_input_exits_1_without_traceback(capsys, tmp_path, argv):
    code, _, err = run(capsys, *[arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


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
