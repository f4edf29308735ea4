"""The rg1d command line, run in-process: golden outputs, exit codes and
option precedence."""

import gzip
import json
import os

import pytest

from rg1d import cli

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "benchmarks", "reference", "defaults.json.gz")

with gzip.open(REFERENCE, "rt") as _fh:
    DEFAULTS = json.load(_fh)["invocations"]

# default runs whose reference captured a defect that is fixed since: they
# now exit 0 with every check passing
FIXED = (["correlations"],)


def _run(argv, out_dir):
    return cli.main(argv + ["--out-dir", str(out_dir)])


def _summary(out_dir, command):
    with open(os.path.join(out_dir, command + "_summary.txt")) as fh:
        return dict(line.split("=", 1) for line in fh.read().splitlines())


@pytest.mark.parametrize("ref", DEFAULTS, ids=lambda ref: "-".join(ref["argv"]))
def test_default_runs_match_golden_outputs(ref, tmp_path, capsys):
    code = _run(ref["argv"], tmp_path)
    if ref["argv"] in FIXED:
        assert ref["exit"] == 3
        assert code == 0
        assert _summary(tmp_path, ref["argv"][0])["checks_ok"] == "true"
        return
    assert code == ref["exit"]
    written = {}
    for name in sorted(os.listdir(tmp_path)):
        with open(os.path.join(tmp_path, name)) as fh:
            written[name] = fh.read()
    assert written.keys() == ref["files"].keys()
    for name, text in ref["files"].items():
        assert written[name] == text, name
    summary = ref["files"][ref["argv"][0] + "_summary.txt"]
    assert capsys.readouterr().out == summary


@pytest.mark.parametrize("argv", [
    ["flow", "--h", "5"],
    ["oracle", "--what", "ed", "--L", "9"],
    ["oracle", "--what", "ed", "--beta", "30"],
    ["oracle", "--what", "bubble", "--h-max", "-2"],
    ["oracle", "--what", "bubble", "--h-min", "-6", "--h-max", "-8"],
    ["correlations", "--x-min", "0.1"],
    ["correlations", "--x-count", "0"],
    ["correlations", "--tail", "0"],
    ["g1map", "--g0-re", "0", "--g0-im", "0"],
    ["g1map", "--n", "-5"],
    ["g1map", "--n", "0"],
    ["nu", "--tol", "-1"],
    ["nu", "--tol", "0"],
    ["borel", "--rays", "0", "--n", "10"],
    ["borel", "--radii", "0", "--n", "10"],
    ["flow", "--a-mode", "bogus"],
], ids=" ".join)
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    assert _run(argv, tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")


def _flow_summary(tmp_path, config, *flags):
    path = tmp_path / "run.ini"
    path.write_text(config)
    out = tmp_path / "out"
    assert _run(["flow", "--h", "-20", "--config", str(path), *flags], out) == 0
    return _summary(out, "flow")


def test_flag_beats_command_section_beats_model_section_beats_default(tmp_path):
    both = "[model]\nlambda = 0.01\npF = 1.2\n[flow]\nlambda = 0.03\n"
    s = _flow_summary(tmp_path, both, "--lambda", "0.025")
    assert (s["lambda"], s["p_F"]) == ("0.025", "1.2")
    s = _flow_summary(tmp_path, both)
    assert (s["lambda"], s["p_F"]) == ("0.03", "1.2")
    s = _flow_summary(tmp_path, "[model]\nlambda = 0.01\n")
    assert (s["lambda"], s["p_F"]) == ("0.01", "1.0471975512")
    s = _flow_summary(tmp_path, "[nu]\nlambda = 0.01\n")
    assert s["lambda"] == "0.02"


@pytest.mark.parametrize("config", [
    "[flow]\na-mode = bogus\n",
    "[model]\nh = 5\n",
    "[flow]\nh = abc\n",
])
def test_bad_config_value_exits_2(config, tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(config)
    assert _run(["flow", "--config", str(path)], tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_exponents_ratio_skips_lambda_zero(tmp_path):
    key = "worst_fixed_point_gap_over_lam32"
    assert _run(["exponents", "--lambda-grid", "0:0.02:0.01"], tmp_path / "a") == 0
    assert _run(["exponents", "--lambda-grid", "0.01:0.02:0.01"], tmp_path / "b") == 0
    assert _summary(tmp_path / "a", "exponents")[key] == \
        _summary(tmp_path / "b", "exponents")[key]
    assert _run(["exponents", "--lambda-grid", "0:0:0.01"], tmp_path / "c") == 0
    assert _summary(tmp_path / "c", "exponents")[key] == "0"


def test_finite_scale_flow_stops_at_the_box_scale(tmp_path, capsys):
    # h_{L,beta} = -2 on the L = beta = 64 box: no shell is left below it
    box = ["flow", "--a-mode", "finite_scale", "--L", "64", "--beta", "64"]
    assert _run(box + ["--h", "-2"], tmp_path) == 0
    assert _summary(tmp_path, "flow")["check_bAj"] == "pass"
    capsys.readouterr()
    assert _run(box + ["--h", "-3"], tmp_path) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert "h_{L,beta} = -2" in err[0]
