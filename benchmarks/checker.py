"""Reference outputs of the benchmark's invocations and the checker.

A reference file ``reference/<workload>.json.gz`` holds, for every
invocation of the workload at REFERENCE_SEED, its arguments, exit code
and the text of each file it wrote (``<command>.csv`` and
``<command>_summary.txt``).

``compare`` holds a new invocation to its reference:

* the exit code, the CSV header and row count, the summary keys and every
  ``check_*`` verdict must match in every run;
* when the invocation ran with the reference's exact arguments, every
  field must match too.  A field that reads as an integer in both outputs,
  or is not a number, must match exactly.  Other numbers must agree
  within the error bar their module states (``_bars``) plus a roundoff
  allowance of RTOL times the larger of the value and its column's scale
  (the largest magnitude in the column; the real and imaginary parts of a
  complex column share one scale).

An invocation whose reference exits non-zero but which now exits 0 with
every check passing is a fix of a known defect: it is accepted, with only
its verdicts checked, and reported as fixed.
"""

import gzip
import json
import math
import os
import re

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")
REFERENCE_SEED = 0

EPS = 2.0 ** -52
RTOL = 1e-9
_INT = re.compile(r"-?\d+\Z")


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, workload + ".json.gz")


def load_reference(workload):
    with gzip.open(reference_path(workload), "rt") as fh:
        return json.load(fh)


def save_reference(workload, invocations):
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with gzip.GzipFile(reference_path(workload), "wb", mtime=0) as fh:
        fh.write(json.dumps({"seed": REFERENCE_SEED, "invocations": invocations},
                            indent=1, sort_keys=True).encode())


def _option(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _bars(argv):
    """Absolute error bars the modules state, per field name.

    A bar is a number or a function of the reference row (CSV) or summary.
    """
    if argv[0] == "prop":
        # kernel_sum is an exact finite sum: the package's 16 L eps bar
        exact = 16 * int(_option(argv, "--L", "256")) * EPS
        return {"kernel_re": exact, "kernel_im": exact}
    if argv[0] == "exponents":
        # fixed_point_values converges to tol = 1e-9; the gap is a difference
        # of two such values, divided by lambda^{3/2} in the summary
        return {"fixed_point_gap": 1e-9,
                "worst_fixed_point_gap_over_lam32": 1e-9 / 0.01 ** 1.5}
    if argv[0] == "nu":
        # solver tolerance 1e-12; the residual gate is 100 tol
        return {"nu1": 1e-12, "p_F": 1e-12, "residual": 1e-10,
                "worst_residual": 1e-10, "check_residual_margin": 1e-10}
    if argv[0] != "oracle":
        return {}
    what = _option(argv, "--what", "bubble")
    if what == "ed":
        # EDSystem.roundoff
        roundoff = 4 ** int(_option(argv, "--L", "4")) * 64.0 * EPS
        return {"*": roundoff}
    if what == "wick":
        # wick_free_response's roundoff bar, also printed as its error column
        return {"*": 16 * int(_option(argv, "--L", "64")) * EPS}
    if what == "bubble":
        # two-level refinement bars of bubble_quadrature
        return {"value": lambda r: r["error"],
                "error": lambda r: 64 * EPS * abs(r["value"]),
                "dev_times_h": lambda r: r["error"] * abs(r["h"]),
                "richardson_value": lambda s: s["richardson_error"],
                "richardson_vs_a": lambda s: s["richardson_error"],
                "richardson_error": lambda s: 64 * EPS * abs(s["richardson_value"])}
    return {}


def _number(text):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _parse_csv(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _parse_summary(text):
    return dict(line.split("=", 1) for line in text.splitlines() if line)


def _numeric_row(names, fields):
    return {n: _number(f) for n, f in zip(names, fields)}


def _field_ok(ref, got, bar, scale):
    if ref == got:
        return True
    r, g = _number(ref), _number(got)
    if r is None or g is None or (_INT.match(ref) and _INT.match(got)):
        return False
    return abs(g - r) <= bar + RTOL * max(abs(r), scale)


def _bar(bars, name, row):
    bar = bars.get(name, bars.get("*", 0.0))
    return bar(row) if callable(bar) else bar


def _compare_csv(ref_text, got_text, bars, full, label):
    names, ref_rows = _parse_csv(ref_text)
    got_names, got_rows = _parse_csv(got_text)
    if got_names != names:
        return ["%s: header %s != %s" % (label, got_names, names)]
    if len(got_rows) != len(ref_rows):
        return ["%s: %d rows, reference has %d" % (label, len(got_rows), len(ref_rows))]
    if not full:
        return []
    scale = {}
    for j, name in enumerate(names):
        values = [_number(row[j]) for row in ref_rows]
        scale[name] = max((abs(v) for v in values if v is not None), default=0.0)
    for name in names:
        if name.endswith("_im") and name[:-3] + "_re" in scale:
            scale[name] = scale[name[:-3] + "_re"] = max(scale[name],
                                                         scale[name[:-3] + "_re"])
    for i, (ref_row, got_row) in enumerate(zip(ref_rows, got_rows)):
        if len(got_row) != len(names):
            return ["%s: row %d has %d fields" % (label, i + 1, len(got_row))]
        numeric = _numeric_row(names, ref_row)
        for name, ref, got in zip(names, ref_row, got_row):
            if not _field_ok(ref, got, _bar(bars, name, numeric), scale[name]):
                return ["%s: row %d %s = %s, reference %s" % (label, i + 1, name, got, ref)]
    return []


def _is_verdict(key):
    return key == "checks_ok" or (key.startswith("check_") and not key.endswith("_margin"))


def _compare_summary(ref_text, got_text, bars, full, label):
    ref, got = _parse_summary(ref_text), _parse_summary(got_text)
    if set(got) != set(ref):
        return ["%s: keys differ: %s" % (label, sorted(set(got) ^ set(ref)))]
    numeric = {k: _number(v) for k, v in ref.items()}
    for key in sorted(ref):
        if _is_verdict(key) or full:
            bar = 0.0 if _is_verdict(key) else _bar(bars, key, numeric)
            scale = abs(numeric[key] or 0.0)
            if not _field_ok(ref[key], got[key], bar, scale):
                return ["%s: %s = %s, reference %s" % (label, key, got[key], ref[key])]
    return []


def verdicts_pass(files):
    """True if no summary among the written files reports a failing check."""
    for name, text in files.items():
        if name.endswith("_summary.txt"):
            for key, value in _parse_summary(text).items():
                if _is_verdict(key) and value not in ("pass", "true"):
                    return False
    return True


def compare(ref, argv, exit_code, files):
    """Check one invocation against its reference.

    Returns (status, reasons) with status "match", "fixed" or "mismatch".
    """
    if ref["exit"] != 0 and exit_code == 0 and verdicts_pass(files):
        return "fixed", ["exit 0 with passing checks; reference exit %d" % ref["exit"]]
    if exit_code != ref["exit"]:
        return "mismatch", ["exit %s, reference %d" % (exit_code, ref["exit"])]
    if set(files) != set(ref["files"]):
        return "mismatch", ["files %s, reference %s" % (sorted(files), sorted(ref["files"]))]
    full = argv == ref["argv"]
    bars = _bars(argv)
    reasons = []
    for name in sorted(files):
        check = _compare_csv if name.endswith(".csv") else _compare_summary
        reasons += check(ref["files"][name], files[name], bars, full, name)
    return ("mismatch" if reasons else "match"), reasons
