"""The rg1d command line, run in-process: golden outputs, exit codes and
option precedence."""

import gzip
import hashlib
import inspect
import json
import os
import subprocess
import sys
import warnings

import pytest

from rg1d import cli

REFERENCES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks", "reference")


def _invocations(workload):
    with gzip.open(os.path.join(REFERENCES, workload + ".json.gz"), "rt") as fh:
        return json.load(fh)["invocations"]


DEFAULTS = _invocations("defaults")

# default runs whose reference captured a defect that is fixed since: they
# now exit 0 with every check passing
FIXED = (["correlations"],)


def _run(argv, out_dir):
    return cli.main(argv + ["--out-dir", str(out_dir)])


def _summary(out_dir, command):
    with open(os.path.join(out_dir, command + "_summary.txt")) as fh:
        return dict(line.split("=", 1) for line in fh.read().splitlines())


def _assert_golden(ref, out_dir, capsys):
    assert _run(ref["argv"], out_dir) == ref["exit"]
    written = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name)) as fh:
            written[name] = fh.read()
    assert written.keys() == ref["files"].keys()
    for name, text in ref["files"].items():
        assert written[name] == text, name
    summary = ref["files"][ref["argv"][0] + "_summary.txt"]
    assert capsys.readouterr().out == summary


@pytest.mark.parametrize("ref", DEFAULTS, ids=lambda ref: "-".join(ref["argv"]))
def test_default_runs_match_golden_outputs(ref, tmp_path, capsys):
    if ref["argv"] in FIXED:
        assert ref["exit"] == 3
        assert _run(ref["argv"], tmp_path) == 0
        assert _summary(tmp_path, ref["argv"][0])["checks_ok"] == "true"
        return
    _assert_golden(ref, tmp_path, capsys)


def test_interacting_ed_run_matches_golden_outputs(tmp_path, capsys):
    # the ed_l6 benchmark run: L = 6, lambda = 0.1, uv:1:0.5, with the
    # particle-hole check
    (ref,) = _invocations("ed_l6")
    _assert_golden(ref, tmp_path, capsys)


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
    ["borel", "--radii", "9", "--n", "10"],
    ["borel", "--delta", "2"],
    ["borel", "--delta", "0"],
    ["borel", "--epsilon", "-1"],
    ["borel", "--n", "-1"],
    ["borel", "--n", "0"],
    ["nu", "--mu", "1.5"],
    ["exponents", "--beta", "0"],
    ["nu", "--h-box", "2"],
    ["flow", "--a-mode", "bogus"],
    ["flow", "--pF", "4"],
    ["correlations", "--pF", "-1"],
    ["exponents", "--pF", "4"],
    ["oracle", "--what", "bubble", "--pF", "4"],
    ["oracle", "--what", "bubble", "--gamma", "1"],
    ["oracle", "--what", "wick", "--x0", "40"],
    ["oracle", "--what", "wick", "--L", "3"],
], ids=" ".join)
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    assert _run(argv, tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")


@pytest.mark.parametrize("argv", [
    # g -> g - 100 g^2 from g0 = 0.02 + 0.005i overflows a complex128
    ["oracle", "--what", "map", "--a", "100", "--n", "50"],
    # the first float step g - a g^2 overflows at |g| ~ 1e200
    ["borel", "--epsilon", "1e200", "--n", "5"],
    ["g1map", "--g0-re", "1e200", "--n", "5"],
], ids=" ".join)
def test_escaping_map_oracle_exits_3_with_one_line(argv, tmp_path, capsys):
    assert _run(argv, tmp_path) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure: ")
    assert "step" in lines[0]



@pytest.mark.parametrize("text", ["", "# x x0\n"], ids=["empty", "comment-only"])
def test_prop_points_file_without_rows_exits_2_with_one_line(text, tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text(text)
    assert _run(["prop", "--points", str(points)], tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")

# every command's table and handler (oracle's handler is the --what
# dispatch), then every --what mode's
HANDLED = [pytest.param(table, handler, id=command)
           for command, (_, table, handler) in cli.COMMANDS.items()] + [
    pytest.param(table, handler, id="oracle-" + mode)
    for mode, (handler, table) in cli.ORACLE_MODES.items()]


@pytest.mark.parametrize("table,handler", HANDLED)
def test_every_option_is_read_by_its_handler(table, handler):
    source = inspect.getsource(handler)
    assert [opt.name for opt in table if 'o["%s"]' % opt.name not in source] == []


def test_common_options_are_read_by_main():
    source = inspect.getsource(cli.main)
    assert [opt.name for opt in cli.COMMON if 'opts["%s"]' % opt.name not in source] == []


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


@pytest.mark.parametrize("argv", [
    ["--lambda-grid", "1e-250:1e-250:1"],
    ["--lambda-grid", "1e-200:1e-200:1", "--potential", "uv:1:0.5"],
], ids=" ".join)
def test_exponents_ratio_skips_lambda_below_roundoff(argv, tmp_path):
    # the gap of a tiny lambda is roundoff: no ratio is taken, and 0 is reported
    assert _run(["exponents", *argv], tmp_path) == 0
    assert _summary(tmp_path, "exponents")["worst_fixed_point_gap_over_lam32"] == "0"


def test_nu_runs_at_the_largest_box_scale(tmp_path):
    assert _run(["nu", "--h-box", "1"], tmp_path) == 0


def test_ed_oracle_drops_particle_hole_check_without_mirror_model(tmp_path):
    # mu_bar' = -(0.3 + 4 * 0.3 * vhat(0)) = -1.5 lies outside the band
    assert _run(["oracle", "--what", "ed", "--lambda", "0.3"], tmp_path) == 0
    summary = _summary(tmp_path, "oracle")
    assert summary["checks_ok"] == "true"
    assert "particle_hole_gap" not in summary
    assert "check_particle_hole" not in summary


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


def test_borel_sweep_past_failed_lanes_does_not_warn(tmp_path):
    # at epsilon = 1e100 every lane fails at n = 1; the 39 steps after it
    # must not overflow (pytest makes a RuntimeWarning an error)
    argv = ["borel", "--epsilon", "1e100", "--n", "40", "--rays", "4", "--radii", "2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(argv, tmp_path) == 4
    assert caught == []
    with open(os.path.join(tmp_path, "borel.csv"), "rb") as fh:
        data = fh.read()
    rows = data.decode().splitlines()[1:]
    assert len(rows) == 32
    assert all(row.split(",")[3:6] == ["0", "0", "1"] for row in rows)
    # sha256 of borel.csv as the per-step sweep wrote it
    assert hashlib.sha256(data).hexdigest() == \
        "edf7ef5987d0bf2c3feba05ad942f4f989bece24aaaba3066915cb2d0065c372"


def test_import_does_not_load_scipy():
    # scipy.special loads on first use of the Dirac profiles, not at import
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, rg1d.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
