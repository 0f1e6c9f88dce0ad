import json
import pathlib

import numpy as np
import pytest

from qgeomcap import cli

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def run(argv):
    return cli.main([str(a) for a in argv])


def test_capacity_holevo_identity(tmp_path):
    spec = tmp_path / "id.channel"
    spec.write_text('kind = "identity"\n')
    out = tmp_path / "report.json"
    assert run(["capacity", spec, "--mode", "holevo", "-o", out]) == 0
    report = json.loads(out.read_text())
    assert abs(report["value"] - 1.0) < 1e-3
    assert run(["validate", out]) == 0


def test_capacity_depolarizing_closed_form(tmp_path):
    out = tmp_path / "report.json"
    assert run(["capacity", DATA / "depolarizing.channel", "-o", out]) == 0
    report = json.loads(out.read_text())
    # p = 0.5 -> 1 - H(0.25)
    h = -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75))
    assert abs(report["value"] - (1.0 - h)) < 1e-3


def test_capacity_erasure_quantum_zero(tmp_path):
    out = tmp_path / "report.json"
    assert run(["capacity", DATA / "erasure.channel", "--mode", "quantum",
                "-o", out]) == 0
    report = json.loads(out.read_text())
    assert abs(report["value"]) < 1e-6


def test_capacity_declared_private(tmp_path):
    spec = tmp_path / "declared.channel"
    spec.write_text('kind = "declared_capacity"\nprivate_capacity_bits = 0.02\n')
    out = tmp_path / "report.json"
    assert run(["capacity", spec, "--mode", "private", "-o", out]) == 0
    report = json.loads(out.read_text())
    assert report["value"] == 0.02
    assert report["declared"] is True


def test_sweep_window(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--pc-min", 0, "--pc-max", 0.1, "--steps", 1000,
                "-o", out]) == 0
    rows = [line for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("p_C")]
    nonzero = [line for line in rows if float(line.split(",")[2]) > 0]
    assert nonzero
    for line in nonzero:
        p = float(line.split(",")[0])
        assert 0.0 < p < 0.0041


def test_sweep_outside_window_zero(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--pc-min", 0.5, "--pc-max", 0.6, "--steps", 50,
                "-o", out]) == 0
    rows = [line for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("p_C")]
    assert all(float(line.split(",")[2]) == 0.0 for line in rows)


def test_sweep_bad_range():
    assert run(["sweep", "--pc-min", 0.5, "--pc-max", 0.2]) == 1


def test_zeroerr_pentagon(tmp_path):
    out = tmp_path / "ze.json"
    dot = tmp_path / "graph.dot"
    assert run(["zeroerr", DATA / "pentagon.channel",
                DATA / "pentagon_inputs.csv", "--uses", 2,
                "-o", out, "--dot", dot]) == 0
    report = json.loads(out.read_text())
    assert report["K"] == 5
    assert abs(report["rate_bits"] - 0.5 * np.log2(5.0)) < 1e-9
    assert dot.read_text().startswith("graph")
    assert run(["validate", out]) == 0


def test_zeroerr_cap_exit_code():
    assert run(["zeroerr", DATA / "pentagon.channel",
                DATA / "pentagon_inputs.csv", "--uses", 6]) == 3


@pytest.mark.parametrize("uses", [0, -2])
def test_zeroerr_uses_below_one_exit_code(tmp_path, capsys, uses):
    out = tmp_path / "ze.json"
    assert run(["zeroerr", DATA / "pentagon.channel",
                DATA / "pentagon_inputs.csv", f"--uses={uses}", "-o", out]) == 1
    assert "--uses" in capsys.readouterr().err
    assert not out.exists()


def test_reports_never_contain_nan(tmp_path):
    with pytest.raises(ValueError):
        cli._dump({"rate_bits": float("nan")}, tmp_path / "r.json")


def test_ball_deterministic(tmp_path):
    out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
    assert run(["ball", DATA / "example_points.csv", "-o", out1]) == 0
    assert run(["ball", DATA / "example_points.csv", "-o", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert run(["validate", out1]) == 0


def test_ball_improved_vs_oracle(tmp_path):
    outs = {}
    for alg in ("basic", "improved", "oracle"):
        out = tmp_path / f"{alg}.json"
        assert run(["ball", DATA / "example_points.csv",
                    "--algorithm", alg, "--eps", 0.05, "-o", out]) == 0
        outs[alg] = json.loads(out.read_text())["radius"]
    assert outs["basic"] <= (1.0 + 0.05) * outs["oracle"] + 1e-9
    assert abs(outs["improved"] - outs["basic"]) <= 0.1


def test_ball_one_point(tmp_path):
    csv = tmp_path / "one.csv"
    csv.write_text("0.1,0.2,0.3\n")
    out = tmp_path / "b.json"
    assert run(["ball", csv, "--algorithm", "oracle", "-o", out]) == 0
    assert json.loads(out.read_text())["radius"] == 0.0


def test_input_errors():
    assert run(["capacity", "/nonexistent.channel"]) == 1
    assert run(["validate", "/nonexistent.json"]) == 1


def test_validate_rejects_bad_report(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "capacity"}')
    assert run(["validate", bad]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"type": "mystery"}')
    assert run(["validate", unknown]) == 1
