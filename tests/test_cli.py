import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qgeomcap
from qgeomcap import capacity, channels, cli, superact

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run(argv):
    return cli.main([str(a) for a in argv])


# the six commands of README's "Command line", each with the file under
# tests/golden that holds its output
README_COMMANDS = [
    (["capacity", DATA / "depolarizing.channel", "--mode", "holevo"],
     "capacity_holevo_depolarizing.json"),
    (["capacity", DATA / "erasure.channel", "--mode", "quantum"], "capacity_quantum_erasure.json"),
    (["sweep", "--pc-min", "0", "--pc-max", "0.1", "--steps", "1000"], "sweep.csv"),
    (["zeroerr", DATA / "pentagon.channel", DATA / "pentagon_inputs.csv", "--uses", "2"],
     "zeroerr_pentagon_uses2.json"),
    (["ball", DATA / "example_points.csv", "--algorithm", "improved", "--eps", "0.05"],
     "ball_improved.json"),
    (["validate", GOLDEN / "capacity_holevo_depolarizing.json"], "validate.txt"),
]
_PROVENANCE_BLOCK = re.compile(r'^  "provenance": \{$.*?^  \}', re.M | re.S)


def _without_provenance(name, text):
    """(text with the provenance values taken out, provenance key names):
    the block of a JSON report, the '# key = value' lines of a CSV."""
    if name.endswith(".json"):
        keys = sorted(json.loads(text)["provenance"])
        return _PROVENANCE_BLOCK.sub('  "provenance": {}', text), keys
    if name.endswith(".csv"):
        lines = text.splitlines(keepends=True)
        keys = [line.split(" = ", 1)[0] for line in lines if line.startswith("# ")]
        return "".join(line for line in lines if not line.startswith("# ")), keys
    return text, []


@pytest.mark.parametrize("argv, golden", README_COMMANDS, ids=[g for _, g in README_COMMANDS])
def test_readme_commands_match_their_golden_reports(tmp_path, capsys, argv, golden):
    """Each README command, run in process, prints its golden output byte
    for byte, apart from the provenance values (tool version, backend,
    library versions), whose key names must match."""
    if argv[0] != "validate":
        argv = argv + ["-o", tmp_path / golden]
    assert run(argv) == 0
    text = capsys.readouterr().out if argv[0] == "validate" else (tmp_path / golden).read_text()
    got, got_keys = _without_provenance(golden, text)
    want, want_keys = _without_provenance(golden, (GOLDEN / golden).read_text())
    assert got_keys == want_keys
    assert got == want


# reports once compared by hand with cmp, each as (argv, text of the input
# file that "{input}" in argv names, golden file)
CMP_SET = [
    (["ball", DATA / "example_points.csv", "--algorithm", "basic"], None,
     "ball_basic_example_points.json"),
    (["ball", "{input}", "--algorithm", "basic"], "1,0,0\n0,0.5,0\n0,0,1\n",
     "ball_basic_near_shell.json"),
    *((["capacity", "{input}", "--mode", "holevo"], f'kind = "{kind}"\np = {p}\n',
       f"capacity_holevo_{kind}_p{p}.json")
      for kind in ("amplitude_damping", "bit_flip") for p in ("0.1", "0.3", "0.5", "0.7", "0.9")),
]


@pytest.mark.parametrize("argv, text, golden", CMP_SET, ids=[g for _, _, g in CMP_SET])
def test_cmp_set_matches_its_golden_reports(tmp_path, argv, text, golden):
    """ball --algorithm basic on the example points and on the near-shell
    set, and holevo capacity on amplitude damping and bit flip at five p,
    each run in process, write their golden reports byte for byte apart from
    the provenance values."""
    if text is not None:
        (tmp_path / "input").write_text(text)
        argv = [tmp_path / "input" if a == "{input}" else a for a in argv]
    assert run(argv + ["-o", tmp_path / golden]) == 0
    got = _without_provenance(golden, (tmp_path / golden).read_text())
    assert got == _without_provenance(golden, (GOLDEN / golden).read_text())

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


def test_capacity_holevo_bracket_and_provenance(tmp_path):
    out = tmp_path / "report.json"
    assert run(["capacity", DATA / "depolarizing.channel", "-o", out]) == 0
    report = json.loads(out.read_text())
    lower, upper = report["bracket"]
    assert lower == report["value"] == report["radius"] <= upper
    assert report["converged"] and upper - lower <= capacity.HSW_GAP_TOL
    assert report["iterations"] >= 1 and len(report["optimal_ensemble"]) <= 4
    prov = report["provenance"]
    assert prov["backend"] == qgeomcap.BACKEND and prov["numpy"] == np.__version__
    assert "scipy" not in prov and prov["flags"] == {"mode": "holevo"}
    assert prov["seed"] is None  # only ball is randomized
    assert run(["validate", out]) == 0
    for value in (upper + 1e-6, lower - 1e-6):
        report["value"] = value
        out.write_text(json.dumps(report))
        assert run(["validate", out]) == 1


@pytest.mark.parametrize("argv", [
    ["capacity", DATA / "depolarizing.channel", "--mode", "bogus"],
    ["capacity", DATA / "depolarizing.channel", "--eps", 0.1],
    ["zeroerr", DATA / "pentagon.channel", DATA / "pentagon_inputs.csv", "--uses", "two"],
    ["frobnicate"],
    # ball is the one randomized command, so only it takes --seed
    ["capacity", DATA / "depolarizing.channel", "--seed", 1],
    ["sweep", "--seed", 1],
    ["zeroerr", DATA / "pentagon.channel", DATA / "pentagon_inputs.csv", "--seed", 1],
])
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("rows, line, rule", [
    ("1000,0\n0,1\n", 1, "sums to 1000"),
    ("1,0\n-0.5,1.5\n", 2, "negative entry"),
    ("0.5,0.5\n0.3,0.3\n", 2, "sums to 0.6"),
    ("# Bloch\n0,0,1\n0.9,0.9,0\n", 3, "outside the unit ball"),
    ("1,0\n0,0,1\n", 2, "3 columns, the first row has 2"),
])
def test_zeroerr_rejects_bad_input_states(tmp_path, capsys, rows, line, rule):
    spec = tmp_path / "id.channel"
    spec.write_text('kind = "identity"\n')
    inputs = tmp_path / "inputs.csv"
    inputs.write_text(rows)
    assert run(["zeroerr", spec, inputs]) == 1
    err = capsys.readouterr().err
    assert f"{inputs}, line {line}:" in err and rule in err


def test_zeroerr_accepts_valid_input_states(tmp_path):
    spec = tmp_path / "id.channel"
    spec.write_text('kind = "identity"\n')
    inputs = tmp_path / "inputs.csv"
    for rows, k in (("0,0,1\n0,0,-1\n0.6,0.8,0\n", 2), ("1,0\n0,1\n0.5,0.5\n", 2)):
        inputs.write_text(rows)
        out = tmp_path / "ze.json"
        assert run(["zeroerr", spec, inputs, "-o", out]) == 0
        assert json.loads(out.read_text())["K"] == k


def test_zeroerr_bloch_rows_follow_the_one_radius_rule(tmp_path, capsys):
    spec = tmp_path / "id.channel"
    spec.write_text('kind = "identity"\n')
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("0,0,-1\n0,0,1.0000000005\n")
    assert run(["zeroerr", spec, inputs, "-o", tmp_path / "ze.json"]) == 0
    inputs.write_text("0,0,-1\n0,0,1.000000002\n")
    assert run(["zeroerr", spec, inputs, "-o", tmp_path / "ze.json"]) == 1
    assert f"{inputs}, line 2: Bloch point outside the unit ball" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["holevo", "quantum", "private"])
@pytest.mark.parametrize("channel", sorted(p.name for p in DATA.glob("*.channel")))
def test_capacity_on_every_data_channel(tmp_path, capsys, channel, mode):
    out = tmp_path / "report.json"
    code = run(["capacity", DATA / channel, "--mode", mode, "-o", out])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
    if out.exists():
        assert run(["validate", out]) == 0
    else:
        assert code == 1


def test_capacity_erasure_quantum_zero(tmp_path):
    out = tmp_path / "report.json"
    assert run(["capacity", DATA / "erasure.channel", "--mode", "quantum",
                "-o", out]) == 0
    report = json.loads(out.read_text())
    assert abs(report["value"]) < 1e-6


@pytest.mark.parametrize("channel, mode, message", [
    pytest.param("pentagon", "quantum", "qubit-input channels only; this channel's "
                 "input dimension is 5", id="quantum"),
    pytest.param("pentagon", "private", "qubit-input channels only; this channel's "
                 "input dimension is 5", id="private"),
    pytest.param("pentagon", "holevo", "qubit-to-qubit channels only; this channel's "
                 "input dimension is 5 and output dimension is 5", id="holevo-pentagon"),
    pytest.param("erasure", "holevo", "qubit-to-qubit channels only; this channel's "
                 "input dimension is 2 and output dimension is 3", id="holevo-erasure"),
])
def test_capacity_qubit_modes_reject_other_inputs(tmp_path, capsys, channel, mode, message):
    out = tmp_path / "report.json"
    assert run(["capacity", DATA / f"{channel}.channel", "--mode", mode, "-o", out]) == 1
    err = capsys.readouterr().err
    assert f"--mode {mode} takes {message}" in err
    assert not out.exists()


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


@pytest.mark.parametrize("steps", [-3, 0])
def test_sweep_rejects_steps_below_one(capsys, steps):
    assert run(["sweep", "--steps", steps]) == 1
    assert f"--steps must be at least 1, got {steps}" in capsys.readouterr().err


def test_sweep_steps_cap(capsys):
    # refused before the grid is built; no test runs a step count that allocates
    steps = cli.MAX_SWEEP_STEPS + 1
    assert run(["sweep", "--steps", steps]) == 3
    assert f"--steps {steps} exceeds the cap" in capsys.readouterr().err


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


def test_zeroerr_pentagon_three_uses(tmp_path):
    # the search starts from codeword 0 on the pentagon's circulant graph
    out = tmp_path / "ze.json"
    assert run(["zeroerr", DATA / "pentagon.channel",
                DATA / "pentagon_inputs.csv", "--uses", 3, "-o", out]) == 0
    report = json.loads(out.read_text())
    assert report["K"] == 10 and 0 in report["witness"]
    assert report["rate_bits"] == np.log2(10.0) / 3


def test_zeroerr_cap_exit_code(capsys):
    assert run(["zeroerr", DATA / "pentagon.channel",
                DATA / "pentagon_inputs.csv", "--uses", 6]) == 3
    # the use count is checked before 5 ** uses is formed, which alone took
    # 4.4 s at 10^7 uses
    t0 = time.perf_counter()
    assert run(["zeroerr", DATA / "pentagon.channel",
                DATA / "pentagon_inputs.csv", "--uses", 10**7]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "10000000 channel uses exceed the cap of 13" in capsys.readouterr().err


def test_oversized_state_stacks_exit_3_at_once(tmp_path, capsys):
    """capacity --mode quantum on a qubit-to-1024 isometry would form 4.5 GB
    of outputs, and zeroerr on 1 000 one-hot rows of dimension 1024 16 GiB
    of inputs: both exit 3 within a second, naming the byte cap."""
    iso = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]] + [[[0.0, 0.0]] * 2] * 1022
    spec = tmp_path / "iso.channel"
    spec.write_text(f'kind = "custom_kraus"\nkraus = {[iso]!r}\n')
    ident = tmp_path / "ident.channel"
    ident.write_text('kind = "identity"\nin_dim = 1024\n')
    rows = tmp_path / "onehot.csv"
    zeros = ["0"] * 1024
    rows.write_text("".join(",".join(zeros[:i] + ["1"] + zeros[i + 1:]) + "\n"
                            for i in range(1000)))
    for argv in (["capacity", spec, "--mode", "quantum"], ["zeroerr", ident, rows]):
        t0 = time.perf_counter()
        assert run(argv) == 3
        assert time.perf_counter() - t0 < 1.0
        assert f"more than the cap of {channels.MAX_STACK_BYTES}" in capsys.readouterr().err


def test_zeroerr_reads_the_inputs_before_it_builds_the_channel(tmp_path, monkeypatch, capsys):
    """An input file over the byte cap exits 3 without building the channel.
    Building identity at in_dim 1024 takes about 0.15 s, so the 1 s bound of
    test_oversized_state_stacks_exit_3_at_once cannot see this order."""
    built = []
    monkeypatch.setattr(channels, "build_channel", built.append)
    ident = tmp_path / "ident.channel"
    ident.write_text('kind = "identity"\nin_dim = 1024\n')
    # 17 one-hot rows of dimension 1024 take 17 * 16 MiB, over the 256 MiB cap
    rows = tmp_path / "onehot.csv"
    rows.write_text("".join(",".join("1" if j == i else "0" for j in range(1024)) + "\n"
                            for i in range(17)))
    assert run(["zeroerr", ident, rows]) == 3
    assert built == []
    assert f"more than the cap of {channels.MAX_STACK_BYTES}" in capsys.readouterr().err


def test_zeroerr_one_input_uses_cap(tmp_path, capsys):
    # one input makes one codeword at any n, but the build's work grew with
    # --uses (3.5 s at 10^6): 13 uses run, 14 reach the cap
    one = tmp_path / "one.csv"
    one.write_text("1,0,0,0,0\n")
    out = tmp_path / "ze.json"
    t0 = time.perf_counter()
    assert run(["zeroerr", DATA / "pentagon.channel", one, "--uses", 13, "-o", out]) == 0
    assert run(["zeroerr", DATA / "pentagon.channel", one, "--uses", 14]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "14 channel uses exceed the cap of 13" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert (report["K"], report["witness"], report["rate_bits"]) == (1, [0], 0.0)
    assert run(["validate", out]) == 0


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


def test_ball_reports_bracket(tmp_path):
    reports = {}
    for alg in ("basic", "improved", "oracle"):
        outs = [tmp_path / f"{alg}{k}.json" for k in (1, 2)]
        for out in outs:
            assert run(["ball", DATA / "example_points.csv", "--algorithm", alg, "-o", out]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert run(["validate", outs[0]]) == 0
        reports[alg] = json.loads(outs[0].read_text())
    assert "bracket" not in reports["basic"]
    for alg in ("improved", "oracle"):
        lower, upper = reports[alg]["bracket"]
        assert lower <= upper == reports[alg]["radius"]
    lower, upper = reports["oracle"]["bracket"]
    assert upper - lower <= 1e-9
    # both solve minimax_ball on every row
    for key in ("center", "radius", "bracket"):
        assert reports["improved"][key] == reports["oracle"][key]


def test_ball_pure_rows(tmp_path):
    pts = tmp_path / "pure.csv"
    pts.write_text("1,0,0\n0,0.5,0\n0,0,1\n")
    reports = {}
    for alg in ("basic", "improved", "oracle"):
        out = tmp_path / f"{alg}.json"
        assert run(["ball", pts, "--algorithm", alg, "-o", out]) == 0
        reports[alg] = json.loads(out.read_text())
        assert np.isfinite(reports[alg]["radius"])
    lower, upper = reports["oracle"]["bracket"]
    improved_lower = reports["improved"]["bracket"][0]
    assert improved_lower <= upper + 1e-9 and lower <= reports["improved"]["radius"] + 1e-9
    assert reports["basic"]["radius"] >= lower


@pytest.mark.parametrize("algorithm", ["basic", "improved"])
def test_ball_takes_rows_at_the_radius_tolerance(tmp_path, algorithm):
    # |r| = 1 + 1e-9 passes the reader; nudging it must not land on the shell
    pts = tmp_path / "tol.csv"
    pts.write_text("0.0,0.6000000006,0.8000000008000001\n0.1,0.2,0.3\n-0.5,0,0\n")
    out = tmp_path / f"{algorithm}.json"
    assert run(["ball", pts, "--algorithm", algorithm, "-o", out]) == 0
    assert np.isfinite(json.loads(out.read_text())["radius"])
    assert run(["validate", out]) == 0


@pytest.mark.parametrize("bracket", [[0.1], [0.1, "x"], [None, 0.3], [0.2, 1e999],
                                     [0.5, 0.6], "0.1,0.3"])
def test_validate_rejects_bad_bracket(tmp_path, bracket):
    out = tmp_path / "b.json"
    assert run(["ball", DATA / "example_points.csv", "--algorithm", "oracle", "-o", out]) == 0
    report = json.loads(out.read_text())
    report["bracket"] = bracket
    out.write_text(json.dumps(report))
    assert run(["validate", out]) == 1


def test_ball_one_point(tmp_path):
    csv = tmp_path / "one.csv"
    csv.write_text("0.1,0.2,0.3\n")
    out = tmp_path / "b.json"
    assert run(["ball", csv, "--algorithm", "oracle", "-o", out]) == 0
    assert json.loads(out.read_text())["radius"] == 0.0


@pytest.mark.parametrize("algorithm", ["basic", "improved", "oracle"])
@pytest.mark.parametrize("rows, line, rule", [
    ("0.1,0.2,0.3\nfoo,1,2\n1.5,0,0\n-0.2,0.1,0\n", 2, "not a row of numbers"),
    ("x,y,z\n0.1,0.2,0.3\n# comment\n1.5,0,0\n", 4, "outside the unit ball"),
    ("0.1,0.2,0.3\n0.1,0.2\n", 2, "at least 3 columns"),
    ("0.1,0.2,0.3\n0.1,inf,0\n", 2, "finite"),
    ("x,y,z\nx,y,z\n", 2, "not a row of numbers"),
    ("0.1,0.2,0.3,1\n0,0,0.5,-0.5\n", 2, "weight must be nonnegative, got -0.5"),
    ("x,y,z,w,r\n0,0,0.5,1,0.1\n0.1,0,0,1,-0.25\n", 3,
     "ball radius must be nonnegative, got -0.25"),
])
def test_ball_rejects_bad_rows(tmp_path, capsys, algorithm, rows, line, rule):
    pts = tmp_path / "pts.csv"
    pts.write_text(rows)
    assert run(["ball", pts, "--algorithm", algorithm]) == 1
    err = capsys.readouterr().err
    assert f"{pts}, line {line}:" in err and rule in err


def test_ball_header_and_unit_sphere_accepted(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("# Bloch points\nx,y,z\n0,0,1\n0.6,0.8,0\n0.1,0.2,0.3\n")
    out = tmp_path / "b.json"
    assert run(["ball", pts, "--algorithm", "oracle", "-o", out]) == 0
    assert json.loads(out.read_text())["n_points"] == 3


def test_ball_round_cap_exit_code(capsys):
    # at 1e-300, eps^2 underflows to 0
    for eps in (1e-6, 1e-300):
        assert run(["ball", DATA / "example_points.csv", "--eps", eps]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: eps = {eps:g} ") and "cap" in err


@pytest.mark.parametrize("algorithm", cli.BALL_ALGORITHMS)
@pytest.mark.parametrize("flag, value, message", [
    ("--eps", "nan", "--eps must lie in (0, 1), got nan"),
    ("--eps", "inf", "--eps must lie in (0, 1), got inf"),
    ("--eps", 5, "--eps must lie in (0, 1), got 5.0"),
    ("--eps", 0, "--eps must lie in (0, 1), got 0.0"),
    ("--eps", -0.1, "--eps must lie in (0, 1), got -0.1"),
    ("--seed", -1, "--seed must be non-negative, got -1"),
])
def test_ball_flags_out_of_range_name_themselves(tmp_path, capsys, algorithm, flag, value,
                                                  message):
    # every algorithm checks both flags, although only basic reads them
    out = tmp_path / "b.json"
    argv = ["ball", DATA / "example_points.csv", "--algorithm", algorithm, flag, value, "-o", out]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_input_errors():
    assert run(["capacity", "/nonexistent.channel"]) == 1
    assert run(["validate", "/nonexistent.json"]) == 1


def test_validate_rejects_bad_report(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "capacity"}')
    assert run(["validate", bad]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"type": "mystery"}')
    assert run(["validate", unknown]) == 1
    array = tmp_path / "array.json"
    array.write_text('[{"type": "ball"}]')
    assert run(["validate", array]) == 1
    assert "report must be a JSON object, got a top-level list" in capsys.readouterr().err
    bad.write_text('{"type": "capacity", "mode": "holevo", "value": 0.5, "converged": true, '
                   '"provenance": 5}')
    assert run(["validate", bad]) == 1
    assert "provenance must be a JSON object, got int" in capsys.readouterr().err
    ball = tmp_path / "ball.json"
    assert run(["ball", DATA / "example_points.csv", "-o", ball]) == 0
    good = json.loads(ball.read_text())
    for key, value in [("center", []), ("center", [0.1, 0.2]), ("center", [0.1, 0.2, "x"]),
                       ("center", [0.1, 0.2, None]), ("center", "0.1,0.2,0.3"),
                       ("algorithm", "x"), ("algorithm", None), ("algorithm", ["basic"]),
                       ("radius", -0.1), ("radius", "0.4"),
                       ("radius", True), ("n_points", 0), ("n_points", 2.0),
                       ("n_points", True), ("n_points", "50")]:
        bad.write_text(json.dumps({**good, key: value}))
        assert run(["validate", bad]) == 1
        assert f"error: {key!r} must be" in capsys.readouterr().err
    for algorithm in cli.BALL_ALGORITHMS:
        bad.write_text(json.dumps({**good, "algorithm": algorithm}))
        assert run(["validate", bad]) == 0
    capsys.readouterr()


def _capacity_report(tmp_path, mode):
    """A report of the capacity command: holevo on depolarizing, quantum on
    erasure, private on a declared capacity."""
    spec = {"holevo": DATA / "depolarizing.channel", "quantum": DATA / "erasure.channel",
            "private": tmp_path / "declared.channel"}[mode]
    if mode == "private":
        spec.write_text('kind = "declared_capacity"\nprivate_capacity_bits = 0.02\n')
    path = tmp_path / "cap.json"
    assert run(["capacity", spec, "--mode", mode, "-o", path]) == 0
    assert run(["validate", path]) == 0
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("mode, key, value", [
    ("holevo", "mode", "sideways"), ("holevo", "mode", None), ("holevo", "mode", ["holevo"]),
    ("holevo", "value", "abc"), ("holevo", "value", True), ("holevo", "value", None),
    ("holevo", "converged", "yes"), ("holevo", "converged", 1), ("holevo", "converged", None),
    ("holevo", "iterations", -3), ("holevo", "iterations", 1.0),
    ("holevo", "iterations", True), ("holevo", "iterations", "1"),
    ("holevo", "radius", [1]), ("holevo", "radius", "0.1"), ("holevo", "radius", None),
    ("quantum", "r_AB", "x"), ("quantum", "r_AE", None), ("quantum", "r_coh", [0.0]),
    ("private", "declared", "yes"), ("private", "declared", 1),
    ("private", "iterations", -1),
])
def test_validate_checks_capacity_values(tmp_path, capsys, mode, key, value):
    path, good = _capacity_report(tmp_path, mode)
    path.write_text(json.dumps({**good, key: value}))
    assert run(["validate", path]) == 1
    assert f"error: {key!r} must be" in capsys.readouterr().err


def test_validate_rejects_the_bad_capacity_report(tmp_path, capsys):
    path, good = _capacity_report(tmp_path, "holevo")
    path.write_text(json.dumps({"type": "capacity", "mode": "sideways", "value": "abc",
                                "converged": "yes", "iterations": -3, "radius": [1],
                                "provenance": good["provenance"]}))
    assert run(["validate", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 'mode' must be one of holevo|quantum|private")


def _zeroerr_report(tmp_path):
    path = tmp_path / "ze.json"
    assert run(["zeroerr", DATA / "pentagon.channel", DATA / "pentagon_inputs.csv",
                "--uses", 2, "-o", path]) == 0
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("key, value", [
    ("witness", "x"), ("witness", [0, 0, 7, 14, 16]), ("witness", [-1, 7, 14, 16, 23]),
    ("witness", [0.0, 7, 14, 16, 23]), ("witness", [True, 7, 14, 16, 23]),
    ("witness", None),
    ("K", -3), ("K", 4), ("K", 6), ("K", 5.0), ("K", True), ("K", "5"),
    ("n_uses", 0), ("n_uses", -2), ("n_uses", 2.0), ("n_uses", True), ("n_uses", "2"),
    ("normalized", "no"), ("normalized", 0), ("normalized", None),
    ("rate_bits", 0.5 * np.log2(5.0) + 1e-9), ("rate_bits", 0.25 * np.log2(5.0)),
    ("rate_bits", "1.16"), ("rate_bits", None), ("rate_bits", True),
])
def test_validate_checks_zeroerr_values(tmp_path, capsys, key, value):
    path, good = _zeroerr_report(tmp_path)
    assert run(["validate", path]) == 0
    path.write_text(json.dumps({**good, key: value}))
    assert run(["validate", path]) == 1
    assert f"error: {key!r} must be" in capsys.readouterr().err


def test_validate_accepts_consistent_zeroerr_values(tmp_path):
    path, good = _zeroerr_report(tmp_path)
    rate = good["rate_bits"]
    for changes in ({"normalized": True, "rate_bits": 0.5 * rate},
                    {"K": 0, "witness": [], "rate_bits": 0.0},
                    {"K": 2, "witness": [9999, 3], "rate_bits": 0.5},
                    {"n_uses": 4, "rate_bits": 0.5 * rate},
                    {"rate_bits": rate + 5e-13},
                    # no float overflow from a huge use count
                    {"n_uses": 10**400, "rate_bits": 0.0}):
        path.write_text(json.dumps({**good, **changes}))
        assert run(["validate", path]) == 0, changes
    path.write_text(json.dumps({**good, "normalized": True}))
    assert run(["validate", path]) == 1


@pytest.mark.parametrize("key, text", [
    ("rate_bits", "NaN"), ("rate_bits", "Infinity"), ("rate_bits", "-Infinity"),
    ("rate_bits", "1e999"), ("value", "Infinity"), ("value", "NaN"), ("value", "-1e400"),
    ("radius", "Infinity"),
])
def test_validate_rejects_non_finite_numbers(tmp_path, capsys, key, text):
    path, report = _zeroerr_report(tmp_path)
    if key == "value":
        report = {"type": "capacity", "mode": "quantum", "value": 0.0, "converged": True,
                  "provenance": report["provenance"]}
    elif key == "radius":
        assert run(["ball", DATA / "example_points.csv", "-o", path]) == 0
        report = json.loads(path.read_text())
    path.write_text(json.dumps(report))
    assert run(["validate", path]) == 0
    # json.dumps would refuse to write the text, so it is put in by hand
    path.write_text(json.dumps({**report, key: "@"}).replace('"@"', text))
    assert run(["validate", path]) == 1
    err = capsys.readouterr().err
    assert f"report holds {text}, which" in err


def test_validate_rejects_the_bad_zeroerr_report(tmp_path, capsys):
    path, report = _zeroerr_report(tmp_path)
    bad = {**report, "K": -3, "rate_bits": "@", "witness": "x", "n_uses": 0, "normalized": "no"}
    path.write_text(json.dumps(bad).replace('"@"', "NaN"))
    assert run(["validate", path]) == 1
    assert "report holds NaN" in capsys.readouterr().err


def _any_report(tmp_path, kind):
    """(path, report) of a capacity mode, of ball --algorithm oracle or of
    zeroerr --uses 2."""
    if kind == "zeroerr":
        return _zeroerr_report(tmp_path)
    if kind == "ball":
        path = tmp_path / "ball.json"
        assert run(["ball", DATA / "example_points.csv", "--algorithm", "oracle", "-o", path]) == 0
        return path, json.loads(path.read_text())
    return _capacity_report(tmp_path, kind)


@pytest.mark.parametrize("kind", ["holevo", "ball", "zeroerr"])
def test_validate_checks_the_provenance_of_every_report_type(tmp_path, capsys, kind):
    path, report = _any_report(tmp_path, kind)
    for prov, message in [(5, "provenance must be a JSON object, got int"),
                          ({"tool": "qgeomcap", "version": "0"}, "provenance missing 'flags'")]:
        path.write_text(json.dumps({**report, "provenance": prov}))
        assert run(["validate", path]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind", [["ball"], {"type": "ball"}, [], {}])
def test_validate_names_a_type_that_is_an_array_or_object(tmp_path, capsys, kind):
    # an unhashable type raised TypeError out of its lookup
    path, report = _any_report(tmp_path, "ball")
    path.write_text(json.dumps({**report, "type": kind}))
    assert run(["validate", path]) == 1
    assert capsys.readouterr().err == f"error: unknown or missing report type {kind!r}\n"


_HUGE = 10**400


@pytest.mark.parametrize("kind, key, value, message", [
    ("quantum", "value", _HUGE, "'value' must be a finite number"),
    ("quantum", "value", -_HUGE, "'value' must be a finite number"),
    ("quantum", "radius", _HUGE, "'radius' must be a finite number"),
    ("quantum", "r_AB", _HUGE, "'r_AB' must be a finite number"),
    ("quantum", "r_AE", _HUGE, "'r_AE' must be a finite number"),
    ("quantum", "r_coh", _HUGE, "'r_coh' must be a finite number"),
    ("holevo", "bracket", [0.0, _HUGE], "bracket must be two finite numbers"),
    ("ball", "radius", _HUGE, "'radius' must be a finite number >= 0"),
    ("ball", "center", [_HUGE, 0.0, 0.0], "'center' must be 3 finite numbers"),
    ("ball", "bracket", [0.0, _HUGE], "bracket must be two finite numbers"),
    ("zeroerr", "rate_bits", _HUGE, "'rate_bits' must be log2(K) / n_uses = "),
], ids=["quantum-value", "quantum-value-negative", "quantum-radius", "quantum-r_AB",
        "quantum-r_AE", "quantum-r_coh", "holevo-bracket", "ball-radius", "ball-center",
        "ball-bracket", "zeroerr-rate_bits"])
def test_validate_names_an_int_too_large_for_a_double(tmp_path, capsys, kind, key, value,
                                                      message):
    """An int literal such as 1 followed by 400 zeros holds no double, and
    math.isfinite raised OverflowError on it; n_uses may still be one (see
    test_validate_accepts_consistent_zeroerr_values)."""
    path, report = _any_report(tmp_path, kind)
    path.write_text(json.dumps({**report, key: value}))
    assert run(["validate", path]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_validate_refuses_a_report_nested_too_deeply(tmp_path, capsys):
    # the JSON reader raised RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["validate", path]) == 1
    assert capsys.readouterr().err == "error: report nests deeper than the JSON reader can go\n"


@pytest.mark.parametrize("bracket", [[0.0, 2.0], [1.0], None, "x"])
def test_validate_refuses_a_bracket_in_a_zeroerr_report(tmp_path, capsys, bracket):
    # a zeroerr report has no value for a bracket to hold; its lookup raised
    # KeyError
    path, report = _zeroerr_report(tmp_path)
    path.write_text(json.dumps({**report, "bracket": bracket}))
    assert run(["validate", path]) == 1
    assert capsys.readouterr().err == (f"error: 'bracket' must be left out of a zeroerr report, "
                                       f"got {bracket!r}\n")


@pytest.mark.parametrize("spec, key", [
    ('kind = "depolarizing"\np = [1]', "p"),
    ('kind = "custom_kraus"\nkraus = 1', "kraus"),
    ('kind = "identity"\nin_dim = 0.5', "in_dim"),
    ('kind = "identity"\nin_dim = -1', "in_dim"),
    ('kind = "declared_capacity"\nactivation_window = {}', "activation_window"),
    ('kind = "declared_capacity"\nprivate_capacity_bits = 1j', "private_capacity_bits"),
    ('kind = "depolarizing"\np = nan', "p: 'nan'"),
    ('kind = depolarizing\np = 0.5', "kind: 'depolarizing'"),
])
def test_channel_spec_wrong_type_names_key(tmp_path, capsys, spec, key):
    path = tmp_path / "bad.channel"
    path.write_text(spec + "\n")
    mode = "private" if key == "private_capacity_bits" else "holevo"
    assert run(["capacity", path, "--mode", mode]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err


@pytest.mark.parametrize("model, names", [
    ("P1_horodecki = nan", "line 1"),
    ("P1_horodecki = inf", "line 1"),
    ("window_lo = 0.0\nwindow_hi", "line 2"),
    ("window_hi = x", "line 1"),
    ("P1_horodeki = 0.02", "P1_horodeki"),
    ("P1_horodecki = -0.02", "P1_horodecki"),
    ("window_lo = 0.003\nwindow_hi = 0.001", "window_lo"),
    ("window_hi = 1.5", "window_hi"),
    ("window_lo = -0.1", "window_lo"),
])
def test_model_file_bad_line_names_it(tmp_path, capsys, model, names):
    path = tmp_path / "bad_model.txt"
    path.write_text(model + "\n")
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--model", path, "-o", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err and str(path) in err
    assert "Traceback" not in err and not out.exists()


def test_reference_model_file_is_the_default_model():
    text = (DATA / "reference_model.txt").read_text()
    assert superact.parse_model_file(text) == superact.ReferenceModel()


def _sweep_by_rows(grid, model):
    """(rows, CSV) of a sweep as the loop over Python floats that the
    vectorised sweep replaced, written with csv.writer."""
    lo, hi = model.activation_window
    rows = []
    for p in sorted(float(v) for v in grid):
        rh = model.r_H2_inside if lo < p < hi else 0.0
        rows.append((p, rh, 2.0 * p * (1.0 - p) * rh))
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["p_C", "r_H2", "r_super"])
    w.writerows([[f"{v:.12g}" for v in row] for row in rows])
    return rows, buf.getvalue()


@pytest.mark.parametrize("steps", [1, 2, 1000, 10_000])
@pytest.mark.parametrize("model", [None, DATA / "reference_model.txt"])
def test_sweep_equals_the_row_loop(tmp_path, steps, model):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--steps", steps, "-o", out] + (["--model", model] if model else [])
    assert run(argv) == 0
    text = out.read_bytes().decode()
    ref = superact.parse_model_file(model.read_text()) if model else superact.ReferenceModel()
    grid = np.linspace(0.0, 0.1, steps)
    want_rows, want_csv = _sweep_by_rows(grid, ref)
    assert text[text.index("p_C,"):] == want_csv
    rows = superact.sweep(grid, ref).rows
    assert rows == want_rows
    assert all(type(v) is float for row in rows for v in row)


def _in_fresh_process(code, *argv):
    """Last stdout line, as JSON, of `code` run in a fresh interpreter."""
    src = pathlib.Path(qgeomcap.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_qgeomcap_loads_no_solver_module():
    facts = _in_fresh_process(
        "import json, sys\n"
        "import qgeomcap\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('qgeomcap'))\n"
        "names = dir(qgeomcap)\n"
        "from qgeomcap import zeroerr\n"
        "try:\n"
        "    qgeomcap.no_such_module\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps({'loaded': loaded, 'dir': names, 'missing': missing,\n"
        "                  'capacity': qgeomcap.capacity.__name__,\n"
        "                  'zeroerr': zeroerr is sys.modules['qgeomcap.zeroerr']}))\n")
    assert facts["loaded"] == ["qgeomcap", "qgeomcap.kernels"]
    assert set(qgeomcap.__all__) <= set(facts["dir"])
    assert facts["capacity"] == "qgeomcap.capacity" and facts["zeroerr"]
    assert facts["missing"] == "module 'qgeomcap' has no attribute 'no_such_module'"


_CLI_MODULES = {"qgeomcap", "qgeomcap.cli", "qgeomcap.errors", "qgeomcap.kernels"}


@pytest.mark.parametrize("argv, solvers", [
    (["validate", "{report}"], []),
    (["ball", DATA / "example_points.csv", "--algorithm", "oracle"], ["infogeo", "states"]),
    (["sweep", "--steps", 10], ["states", "superact"]),
    (["zeroerr", DATA / "pentagon.channel", DATA / "pentagon_inputs.csv"],
     ["channels", "states", "zeroerr"]),
    (["capacity", DATA / "depolarizing.channel"],
     ["capacity", "channels", "infogeo", "states"]),
], ids=["validate", "ball", "sweep", "zeroerr", "capacity"])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, solvers):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"type": "capacity", "mode": "holevo", "value": 0.5,
                                  "converged": True, "provenance": {
                                      "tool": "qgeomcap", "version": "0.1.0", "flags": {}}}))
    argv = [str(a).format(report=report) for a in argv]
    if argv[0] != "validate":
        argv += ["-o", tmp_path / "out"]
    loaded = _in_fresh_process(
        "import json, sys\n"
        "import qgeomcap\n"
        "assert qgeomcap.cli.main(sys.argv[1:]) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qgeomcap'))))\n",
        *argv)
    assert loaded == sorted(_CLI_MODULES | {f"qgeomcap.{m}" for m in solvers})


# valid Kraus sets as [re, im] pairs: identity, amplitude damping 0.36, a
# phase gate, a qubit-to-qutrit isometry and a one-dimensional channel
_KRAUS_SETS = [[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
               [[[[1, 0], [0, 0]], [[0, 0], [0.8, 0]]], [[[0, 0], [0.6, 0]], [[0, 0], [0, 0]]]],
               [[[[1, 0], [0, 0]], [[0, 0], [0, 1]]]],
               [[[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]]], [[[[1, 0]]]]]
_wild = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.integers(10**300, 10**301),
              st.floats(-2.0, 2.0), st.sampled_from([1e999, -1e999, 1j, "", "x", b"x"]),
              st.sampled_from(_KRAUS_SETS)),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner)
    | st.dictionaries(st.integers(0, 2), inner, max_size=2),
    max_leaves=8).map(repr) | st.just("{[1]: 2}")
_spec_values = {
    "p": st.floats(0.0, 1.0).map(repr),
    "kraus": st.sampled_from(_KRAUS_SETS).map(repr),
    "in_dim": st.sampled_from(["2", "2", "1", "3"]),
    "out_dim": st.sampled_from(["2", "2", "1", "3"]),
    "private_capacity_bits": st.floats(0.0, 2.0).map(repr),
    "activation_window": st.lists(st.floats(0.0, 0.01), min_size=2, max_size=2).map(repr),
}


@st.composite
def _spec_file(draw):
    """A spec of a random kind with a random subset of the keys, each with
    a valid value or, less often, a wild one."""
    lines = [f"kind = {draw(st.sampled_from(channels.KNOWN_KINDS + ('no_such_kind',)))!r}"]
    for key, good in _spec_values.items():
        pick = draw(st.integers(0, 5))  # 0: key absent, 5: wild value
        if pick:
            lines.append(f"{key} = {draw(_wild if pick == 5 else good)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(_spec_file(), st.sampled_from(["holevo", "quantum", "private"]))
def test_capacity_never_raises_on_channel_specs(tmp_path_factory, text, mode):
    path = tmp_path_factory.mktemp("spec") / "f.channel"
    path.write_text(text)
    assert run(["capacity", path, "--mode", mode, "-o", path.with_suffix(".json")]) in (0, 1, 2, 3)


_good_row = st.tuples(st.lists(st.floats(-0.577, 0.577), min_size=3, max_size=3),
                      st.lists(st.floats(0.0, 2.0), max_size=2)).map(lambda t: t[0] + t[1])
_wild_row = st.lists(st.floats() | st.integers(-2, 2)
                     | st.sampled_from(["", "x", "#", "1e999", " 0.5", "nan"]),
                     min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(_good_row | _wild_row, min_size=1, max_size=8),
       st.sampled_from(["basic", "improved", "oracle"]))
def test_ball_never_raises_on_point_files(tmp_path_factory, rows, algorithm):
    path = tmp_path_factory.mktemp("points") / "p.csv"
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
    assert run(["ball", path, "--algorithm", algorithm, "-o", path.with_suffix(".json")]) in (0, 1, 2, 3)
