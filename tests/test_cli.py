"""The rg1d command line, run in-process: golden outputs, exit codes and
option precedence."""

import collections
import gzip
import hashlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from rg1d import cli, correlations, oracle, propagators, rgflow

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCES = os.path.join(ROOT, "benchmarks", "reference")
SRC = os.path.join(ROOT, "src")


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


# The pins hold where the references were captured: numpy 2.4.6 with its
# AVX-512 kernels (ROADMAP item 10) and scipy-openblas 0.3.31.  The L = 4
# `oracle --what ed` run matches on one OpenBLAS thread and on two.
@pytest.mark.parametrize("ref", DEFAULTS, ids=lambda ref: "-".join(ref["argv"]))
def test_default_runs_match_golden_outputs(ref, tmp_path, capsys):
    if ref["argv"] in FIXED:
        assert ref["exit"] == 3
        assert _run(ref["argv"], tmp_path) == 0
        assert "checks_ok" not in _summary(tmp_path, ref["argv"][0])
        return
    _assert_golden(ref, tmp_path, capsys)


def test_interacting_ed_run_matches_golden_outputs(tmp_path, capsys):
    # the ed_l6 benchmark run: L = 6, lambda = 0.1, uv:1:0.5, with the
    # particle-hole check.  The pin holds on two OpenBLAS threads (the CI
    # workflow sets OPENBLAS_NUM_THREADS=2), not on one: there the 400^2
    # GEMMs round differently, and the SC,4,-4 row's roundoff-sized abs_diff
    # reads ...582348 for ...582349
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
    ["g1map", "--a", "-1"],
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
    # step counts past their caps, which no run of that size gets to test
    ["borel", "--n", str(cli.BOREL_MAX_N + 1)],
    ["borel", "--n", str(2 ** 31)],
    ["oracle", "--what", "map", "--n", str(cli.MAP_MAX_N + 1)],
    ["oracle", "--what", "map", "--n", str(2 ** 31)],
    ["borel", "--a", "0"],
    # a/(2 epsilon) is inf: the disk, constant and alternating drifts are not finite
    ["borel", "--a", "1e308", "--n", "40", "--rays", "2", "--radii", "1"],
    ["borel", "--epsilon", "1e-320", "--n", "50", "--rays", "2", "--radii", "1"],
    ["nu", "--mu", "1.5"],
    ["exponents", "--beta", "0"],
    ["nu", "--h-box", "2"],
    # eps-scale and c0 are a radius and a bound: at 0 the map T vanishes
    ["nu", "--eps-scale", "-1"],
    ["nu", "--eps-scale", "0"],
    ["nu", "--c0", "0"],
    ["nu", "--c0", "-5"],
    # a reversed x range; a tail of 1 or more can leave no scale in the window
    ["correlations", "--x-max", "5"],
    ["correlations", "--tail", "1e5"],
    ["correlations", "--tail", "20", "--x-min", "1", "--x-max", "1"],
    # the positivity hypothesis lambda vhat(2 p_F) >= 0: attractive, and a
    # repulsive lambda on a potential with vhat(2 p_F) = 1 + 3 cos(2 pi/3) < 0
    ["correlations", "--lambda", "-0.02"],
    ["correlations", "--lambda", "0.02", "--potential", "uv:1:3"],
    ["flow", "--a-mode", "bogus"],
    ["flow", "--pF", "4"],
    ["correlations", "--pF", "-1"],
    ["exponents", "--pF", "4"],
    ["oracle", "--what", "bubble", "--pF", "4"],
    ["oracle", "--what", "bubble", "--gamma", "1"],
    ["oracle", "--what", "wick", "--x0", "40"],
    ["oracle", "--what", "wick", "--L", "3"],
    ["prop", "--M", "0"],
    ["prop", "--M", "-3"],
    # 4.5e13 cutoff-grid frequencies, over the 2^22 cap
    ["prop", "--M", "40"],
    ["oracle", "--what", "map", "--a", "-1"],
    ["oracle", "--what", "map", "--a", "0"],
    # non-finite values: every float option must be finite
    ["flow", "--lambda", "inf"],
    ["flow", "--beta", "inf"],
    ["correlations", "--lambda", "inf"],
    ["correlations", "--x0", "inf"],
    ["oracle", "--what", "ed", "--lambda", "inf"],
    ["g1map", "--epsilon", "inf"],
    ["exponents", "--lambda-grid", "0.01:inf:0.01"],
    ["nu", "--lambda-grid", "0.01:inf:0.01"],
    ["oracle", "--what", "ed", "--potential", "hubbard:nan"],
    ["exponents", "--potential", "hubbard:inf"],
    ["flow", "--potential", "uv:1:nan"],
    # a seed is a non-negative integer, on every command that draws with it
    ["g1map", "--model", "disk", "--seed", "-1"],
    ["borel", "--seed", "-1"],
    ["flow", "--h", "-10", "--seed", "-1"],
    ["correlations", "--residuals", "envelope", "--lambda", "0.02", "--seed", "-1"],
    # sigma-scale bounds |sigma_k|, so it is a size
    ["g1map", "--sigma-scale", "-1", "--model", "constant"],
    ["g1map", "--sigma-scale", "-0.5", "--model", "disk"],
    # x is a distance on the ring: at most L, which also keeps it in int64
    ["correlations", "--x-min", "1e300", "--x-max", "1e300"],
    ["correlations", "--L", "100"],
    # an L past int64 would let x leave it too
    ["correlations", "--L", "1000000000000000000000000000000", "--x-min", "1e29",
     "--x-max", "1e29", "--x-count", "1"],
    ["correlations", "--L", "10000000000000000000", "--x-min", "1e19", "--x-max", "1e19",
     "--x-count", "1"],
    ["flow", "--config", "no-such-dir/run.ini"],
    # start:stop:step grids: two parts, a zero step, an empty range
    ["exponents", "--lambda-grid", "0.01:0.05"],
    ["nu", "--lambda-grid", "0.01:0.05:0"],
    ["exponents", "--lambda-grid", "0.05:0.01:0.01"],
    # a grid over the 10^6-point cap, or one whose point count overflows a float
    ["exponents", "--lambda-grid", "0:1:1e-12"],
    ["nu", "--lambda-grid", "0:1:1e-12"],
    ["nu", "--lambda-grid", "0:1:1e-320"],
    ["exponents", "--lambda-grid", "1e308:-1e308:1"],
    # a comma list names each item once
    ["correlations", "--alphas", "C,C", "--x-count", "3"],
    ["borel", "--models", "zero,zero"],
], ids=" ".join)
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    assert _run(argv, tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")


# every float option of every table, the --what modes included
FLOAT_OPTIONS = [[command, "--" + opt.name] for command, (_, table, _) in cli.COMMANDS.items()
                 for opt in table if opt.type is float] + [
    ["oracle", "--what", mode, "--" + opt.name] for mode, (_, table) in cli.ORACLE_MODES.items()
    for opt in table if opt.type is float]


@pytest.mark.parametrize("argv", FLOAT_OPTIONS, ids=" ".join)
def test_nan_float_option_exits_2_with_one_line(argv, tmp_path, capsys):
    assert _run(argv + ["nan"], tmp_path) == 2
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
    # |gtilde|^{3/2} underflows to 0 at step 0: the closeness ratio is nan
    ["borel", "--epsilon", "1e-250", "--n", "5"],
    # 1 + g0 n a = 1 - 0.0025 n vanishes at n = 400: a pole of the approximant
    ["g1map", "--g0-re", "-0.01"],
    # the drift sum a_0 + a_1 overflows at step 2
    ["g1map", "--a", "1e308", "--n", "3"],
    ["g1map", "--sigma-scale", "1e308", "--model", "constant", "--n", "3"],
    # the sweep's drift sums pass 1.8e308 at step 18
    ["borel", "--a", "1e307", "--epsilon", "1e-200", "--n", "100", "--rays", "2",
     "--radii", "1", "--models", "zero"],
], ids=" ".join)
def test_escaping_map_oracle_exits_3_with_one_line(argv, tmp_path, capsys):
    assert _run(argv, tmp_path) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure: ")
    assert "step" in lines[0]



@pytest.mark.parametrize("argv", [
    # gamma^(h-1) and the quadrature nodes underflow to 0: 0/0 in the cutoff ratio
    ["oracle", "--what", "bubble", "--gamma", "1e300"],
    # the finite-scale bubble's momentum grid over L = 1e12 sites takes 7.28 TiB
    ["flow", "--L", "1000000000000", "--a-mode", "finite_scale", "--h", "-3"],
], ids=" ".join)
def test_numeric_fault_exits_3_with_one_line(argv, tmp_path):
    # in a child whose address space is capped at 4 GiB, so that a large
    # allocation fails as MemoryError whatever the host's overcommit policy
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
            "from rg1d import cli; sys.exit(cli.main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", code, *argv, "--out-dir", str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 3
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure: "), done.stderr


@pytest.mark.parametrize("text", ["", "# x x0\n", "0 0\n1 64\n", "1.5 0\n", "1e30 0\n",
                                  "0 0\n-257 0\n"],
                         ids=["empty", "comment-only", "x0-at-beta", "x-between-sites",
                              "x-past-L", "x-past-minus-L"])
def test_prop_points_file_without_rows_exits_2_with_one_line(text, tmp_path, capsys):
    # a file with a row off (-beta, beta) in x0, or off the ring's sites
    # |x| <= L = 256 in x, has no usable row either
    points = tmp_path / "points.txt"
    points.write_text(text)
    assert _run(["prop", "--points", str(points)], tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")

def test_prop_points_rows_keep_file_order(tmp_path):
    # x0 interleaved and repeated, 0 and -0 apart, a repeated point and a comment
    rows = [(0, "0"), (3, "12.5"), (1, "0"), (3, "12.5"), (0, "-0"), (2, "-12.5"),
            (1, "0"), (5, "19.5")]
    points = tmp_path / "points.txt"
    points.write_text("".join("%d %s\n" % row for row in rows[:7]) + "# x x0\n5 19.5\n")
    out = tmp_path / "out"
    assert _run(["prop", "--L", "33", "--beta", "20", "--M", "7",
                 "--points", str(points)], out) == 0
    with open(os.path.join(out, "prop.csv"), "rb") as fh:
        data = fh.read()
    assert [tuple(line.split(",")[:2]) for line in data.decode().splitlines()[1:]] == \
        [(str(x), x0) for x, x0 in rows]
    # sha256 of prop.csv and prop_summary.txt as the one-point-per-call code wrote them
    assert hashlib.sha256(data).hexdigest() == \
        "ac46b89eb9ded549d69d98f6c154d86b962043bfd113cc5abcc8cc15e42e025d"
    with open(os.path.join(out, "prop_summary.txt"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == \
            "338838627fb95b78c65275346885a84eeb03a01e2eec8660fbfaf21914bf65a7"


@pytest.mark.parametrize("argv, text", [
    (["prop", "--L", "4"], None),
    (["prop"], "256 0\n-256 0\n0 0\n1 0\n256 12.5\n"),
], ids=["L4-defaults", "points-at-plus-minus-L"])
def test_prop_flags_every_periodic_image_of_the_origin(argv, text, tmp_path):
    # x = n L at x0 = 0 is the equal-time jump, where the cutoff sum gives
    # the half-sum: flagged, so max_equiv_diff stays at the cutoff's
    # O(gamma^-M) and no longer reads the jump's 0.4999
    if text is not None:
        points = tmp_path / "points.txt"
        points.write_text(text)
        argv = argv + ["--points", str(points)]
    out = tmp_path / "out"
    assert _run(argv, out) == 0
    summary = _summary(out, "prop")
    L = int(summary["L"])
    with open(os.path.join(out, "prop.csv")) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    assert [row[-1] == "1" for row in rows] == \
        [int(row[0]) % L == 0 and float(row[1]) == 0.0 for row in rows]
    assert any(int(row[0]) != 0 and row[-1] == "1" for row in rows)
    assert 0.0 < float(summary["max_equiv_diff"]) <= float(summary["gamma_minus_M"])


def test_default_prop_calls_each_representation_once_per_x0(tmp_path, monkeypatch):
    # the benchmark traces free_propagator per representation: its call
    # counts and times are per-x0 work, 2 distinct x0 at the defaults
    inner = propagators.free_propagator
    signature = inspect.signature(inner)
    calls = collections.Counter()

    def counted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls[bound.arguments["representation"]] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(propagators, "free_propagator", counted)
    assert _run(["prop"], tmp_path) == 0
    assert calls == {"kernel_sum": 2, "cutoff_sum": 2}


def test_only_flow_runs_the_flow_checks(tmp_path, monkeypatch):
    # the benchmark traces flow_checks: flow reads the checks of its one
    # flow, while the flows of exponents and correlations need none
    inner = rgflow.flow_checks
    calls = collections.Counter()
    command = None

    def counted(traj):
        calls[command] += 1
        return inner(traj)

    monkeypatch.setattr(rgflow, "flow_checks", counted)
    for command in ("flow", "exponents", "correlations"):
        assert _run([command], tmp_path / command) == 0
    assert calls == {"flow": 1}


def test_ed_oracle_takes_the_mirror_spectrum_before_the_eigenbasis(tmp_path, monkeypatch):
    # the mirror's eigh transients (its LAPACK workspace among them, which
    # tracemalloc does not see) must not sit on top of ed_micro's
    # eigenbasis, so only the call order can show a reorder
    calls = []

    def recorded(name):
        inner = getattr(oracle, name)

        def call(params):
            calls.append(name)
            return inner(params)
        return call

    for name in ("particle_hole_spectrum", "ed_micro"):
        monkeypatch.setattr(oracle, name, recorded(name))
    assert _run(["oracle", "--what", "ed", "--lambda", "0.1"], tmp_path) == 0
    assert calls == ["particle_hole_spectrum", "ed_micro"]
    assert "particle_hole_gap" in _summary(tmp_path, "oracle")


def test_correlations_builds_each_window_once(tmp_path, monkeypatch):
    # one scale window and one set of Dirac profiles per point serve every
    # channel: 40 points at the defaults, not 40 per channel
    inner = correlations.dirac_profiles
    calls = []

    def counted(*args):
        calls.append(args[1])
        return inner(*args)

    monkeypatch.setattr(correlations, "dirac_profiles", counted)
    assert _run(["correlations"], tmp_path) == 0
    assert len(calls) == len(set(calls)) == 40


def test_correlations_outputs_are_pinned(tmp_path):
    # every knob off its default: x0, seeded residuals, linear grid, uv potential
    argv = ["correlations", "--lambda", "0.02", "--x0", "3.5", "--residuals", "envelope",
            "--seed", "4", "--x-spacing", "linear", "--x-min", "100", "--x-max", "163",
            "--x-count", "64", "--potential", "uv:1:0.5"]
    assert _run(argv, tmp_path) == 0
    # sha256 as the one-window-per-channel code wrote them
    for name, digest in [
            ("correlations.csv",
             "da35af5a918ddad74537421be04daead744f4ba993ef97447f0ab74e9e317e3f"),
            ("correlations_summary.txt",
             "aab61c29ca5d2997f5dae60e18e39c3deecd3dc0c8172f8bdb4b8dc07ec68e1a")]:
        with open(os.path.join(tmp_path, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name



def test_correlations_peak_sits_at_2pF(tmp_path):
    # a linear grid from x0 = 0 with 16 or more points adds the peak check:
    # 64 points of spacing 1 give bins of 2 pi / 64
    argv = ["correlations", "--x-spacing", "linear", "--x-min", "100", "--x-max", "163",
            "--x-count", "64"]
    assert _run(argv, tmp_path) == 0
    summary = _summary(tmp_path, "correlations")
    assert summary["check_peak_at_2pF"] == "pass"
    assert (summary["peak_omega"], summary["two_p_F"], summary["peak_bin_width"],
            summary["check_peak_at_2pF_margin"]) == (
        "2.06167017892", "2.09439510239", "0.0981747704247", "-0.0654498469498")


def test_potential_file_runs_as_its_spec(tmp_path):
    # uv:1:0.5 is v(0) = 1, v(1) = 0.25
    path = tmp_path / "uv.txt"
    path.write_text("# x v(x)\n0 1.0\n\n1 0.25\n")
    outputs = []
    for spec in (str(path), "uv:1:0.5"):
        out = tmp_path / str(len(outputs))
        assert _run(["flow", "--h", "-20", "--lambda", "0.05", "--potential", spec], out) == 0
        with open(os.path.join(out, "flow.csv"), "rb") as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, digests", [
    # seeded remainders of both kinds, box scale at the target
    (["flow", "--remainders", "both", "--seed", "3", "--h", "-300", "--h-lbeta", "-300"],
     {"flow.csv": "0350eea8a18fc6f6739a29be3e30193bb2da148fc0cf9e4003d594764711fa5b",
      "flow_summary.txt": "9bd8309f8dbc1632a26831edd118c5e985838f58a5d97253f2ff80826408069e"}),
    # the lattice bubble a^{(j)} at every step
    (["flow", "--a-mode", "finite_scale", "--h", "-2", "--beta", "64", "--L", "64"],
     {"flow.csv": "0822019355a3bff98ebbef52d97188623eb1294ad6c40bf6660f43d6fbbd60e5",
      "flow_summary.txt": "94bd007c9f264a075e7e1d88a547584cc4889a9a446cd7db54e7fc861ad372af"}),
    # six counterterm solves and inversions on a short box
    (["nu", "--lambda-grid", "0.005:0.03:0.005", "--h-box", "-10"],
     {"nu.csv": "0cccc744cb1b263a0b4df0c61c0ed3af5af94236417c439ed5e1da2068590a2e",
      "nu_summary.txt": "847b36b89dee033de996df0d63957048611737b726d3a7de8bf293d4b4b3650e"}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_flow_and_nu_outputs_are_pinned(argv, digests, tmp_path):
    assert _run(argv, tmp_path) == 0
    # sha256 as the per-step record code wrote them
    for name, digest in digests.items():
        with open(os.path.join(tmp_path, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


@pytest.mark.parametrize("argv, digests", [
    # seeded disk drift off the default g0 and horizon
    (["g1map", "--model", "disk", "--seed", "2", "--g0-im", "0.004", "--n", "3000"],
     {"g1map.csv": "e58b138d81427985c6364610a00b3a58f794e7bed04353a83b890f11282cda2e",
      "g1map_summary.txt": "bf759ed04507af1c3b1fa2e0376bfc1635d6777348352eddcd1353aa1020f756"}),
    # alternating drift, g0 in the left half plane of a narrower sector
    (["g1map", "--model", "alternating", "--g0-re", "-0.002", "--g0-im", "0.009",
      "--delta", "0.5"],
     {"g1map.csv": "88eaf87bff73f8a9d32dbac6c9d712750b19de13497fb31a62f26c7d4d31a5b7",
      "g1map_summary.txt": "cf39aaaf34ecab0023d883aa02775739e7d77e86b08821a188d3d95a52588572"}),
    # the multiprecision map against the float one, off the default g0
    (["oracle", "--what", "map", "--g0-re", "0.01", "--g0-im", "-0.003", "--n", "500"],
     {"oracle.csv": "2deaa0cf2b5bf65324168042e88e03ea2fbe5f33a7225c405df5dcb4e2bff6eb",
      "oracle_summary.txt": "1634096f21471108bc59a0f62cc9b1c2b346d9573027ed3a773d583b8d127e28"}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_map_outputs_are_pinned(argv, digests, tmp_path):
    assert _run(argv, tmp_path) == 0
    # sha256 as the CheckReport and MapState code wrote them
    for name, digest in digests.items():
        with open(os.path.join(tmp_path, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


@pytest.mark.parametrize("argv", [
    # g0 outside the pi/4 sector around the positive axis, where the float
    # side once froze at step 0 and read max_drift = 0.105
    ["oracle", "--what", "map", "--g0-re", "-0.01", "--g0-im", "0.001", "--n", "2000"],
], ids=" ".join)
def test_map_oracle_drift_is_roundoff(argv, tmp_path):
    # the float map steps at every step, so it tracks the 40-digit one
    assert _run(argv, tmp_path) == 0
    assert float(_summary(tmp_path, "oracle")["max_drift"]) <= 1e-12


# Peak heap growth of a run, in doubles per CSV row, from the arrays it must
# hold per row.  g1map: the drifts sigma and a + sigma, the trajectory, the
# Cesaro averages and the approximant (complex, 2 each), and the err and
# bound columns: 12, about 17 with the checks' temporaries.  flow: the
# trajectory (five complex couplings, eps and a_j: 12), the j, g1_approx and
# error columns (4) and flow_checks' work arrays (16): 32.  Rows kept as
# tuples of Python floats cost about 30 (g1map) and 43 (flow) more.
@pytest.mark.parametrize("argv, doubles", [
    (["g1map", "--n", "20000"], 24),
    (["flow", "--h", "-20000"], 40),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_csv_rows_stream_from_the_arrays(argv, doubles, tmp_path):
    rows = 20001
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert _run(argv, tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / (8 * rows) < doubles


# every command's table and handler (oracle's handler is the --what
# dispatch), then every --what mode's
HANDLED = [pytest.param(table, handler, id=command)
           for command, (_, table, handler) in cli.COMMANDS.items()] + [
    pytest.param(table, handler, id="oracle-" + mode)
    for mode, (handler, table) in cli.ORACLE_MODES.items()]


@pytest.mark.parametrize("table,handler", HANDLED)
def test_every_option_is_read_by_its_handler(table, handler):
    # main builds the model of a table with a pF or beta row through _model
    source = inspect.getsource(handler)
    if {"pF", "beta"} & {opt.name for opt in table}:
        source += inspect.getsource(cli._model)
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
    "[flow]\nbeta = inf\n",
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


@pytest.mark.parametrize("argv", [
    # mu_bar' = -(0.3 + 4 * 0.3 * vhat(0)) = -1.5 lies outside the band
    ["--lambda", "0.3"],
    # an odd ring has no staggered sign
    ["--L", "5", "--lambda", "0.1"],
], ids=" ".join)
def test_ed_oracle_drops_particle_hole_check_without_mirror_model(argv, tmp_path):
    # at lambda != 0 no other check runs either, so no verdict is written
    assert _run(["oracle", "--what", "ed", *argv], tmp_path) == 0
    summary = _summary(tmp_path, "oracle")
    assert "checks_ok" not in summary
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


def test_import_does_not_load_scipy(tmp_path):
    # the package needs no scipy: the Dirac profiles' J1 is its own. Import
    # loads neither mpmath, which only the map oracle reads, nor
    # multiprocessing, which no run loads, nor
    # numpy.random, which numpy loads when a run first draws, nor
    # numpy.polynomial: the quadrature rules come from a shipped table
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import sys, rg1d.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'mpmath', 'multiprocessing') "
            "or m.startswith(('numpy.polynomial', 'numpy.random'))))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
    # nor do both correlations runs of the defaults, which build the profiles
    code = ("import sys, rg1d.cli; "
            "codes = [rg1d.cli.main(argv + ['--out-dir', sys.argv[1]]) for argv in "
            "(['correlations'], ['correlations', '--lambda', '0.02'])]; "
            "sys.exit(codes != [0, 0] or 'scipy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env).returncode == 0


@pytest.mark.parametrize("models, draws", [("zero,constant,disk,alternating", False),
                                           ("disk", True)])
def test_split_borel_run_loads_numpy_random_only_where_it_draws(models, draws, tmp_path):
    # in a fresh child, on two shares: the disk lanes make the worker's
    # share, so this process never loads numpy.random (whose pages
    # tracemalloc cannot see); with only disk lanes both shares draw.  The
    # worker is a plain fork: no run loads multiprocessing or
    # concurrent.futures
    code = ("import sys; from rg1d import cli, g1map; "
            "g1map._share_count = lambda n_lanes, n_steps: 2; "
            "code = cli.main(sys.argv[1:]); print(code, 'numpy.random' in sys.modules, "
            "[m for m in sys.modules if m.split('.')[0] == 'multiprocessing' "
            "or m.startswith('concurrent.futures')])")
    argv = ["borel", "--n", "200", "--rays", "4", "--radii", "2", "--models", models,
            "--out-dir", str(tmp_path)]
    done = subprocess.run([sys.executable, "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 %s []" % draws, done.stderr
