"""End-to-end benchmark of the rg1d CLI.

Usage:
    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --capture

Runs the workload's rg1d invocations the way a user does: one at a time,
each in a fresh process (benchmarks/runner.py), in a closed loop with one
client.  One pass runs every invocation of the workload once; passes
repeat while another one fits in S seconds (at least one pass).  Every
invocation's exit code and outputs are checked against the reference
captured by --capture (see checker.py).

--trace 0 prints the end-to-end metrics:
    wall_s       median over passes of the pass's wall time (each
                 invocation from spawn until it is reaped, summed)
    setup_s      time from spawn until ``import rg1d.cli`` returns, for one
                 pass: invocations per pass times the median over every
                 invocation and SETUP_PROBES import-only processes of the run
    peak_rss_mb  median over passes of the largest child max-RSS (MiB)
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics: calls, inclusive and self seconds per traced function and pass
(runner.TRACED), the counters, process.cpu_s, trace.overhead_s and
trace.coverage.

Failed invocations (non-zero exit, a failing check, or output that misses
the reference) are counted in "failed" out of "attempted"; their ratio is
printed as failed_frac.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from array import array

import checker
import runner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join(ROOT, "benchmarks", "runner.py")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 6
DEADLINE_S = 170.0

# Closed-loop workloads; each is a function of the seed giving the argv of
# every invocation of one pass.  README.md gives the reason for each.
WORKLOADS = {
    "defaults": lambda seed: [
        ["prop"], ["flow"], ["exponents"], ["nu"], ["correlations"],
        ["correlations", "--lambda", "0.02"], ["g1map"],
        ["oracle", "--what", "bubble"], ["oracle", "--what", "wick"],
        ["oracle", "--what", "ed"], ["oracle", "--what", "map"]],
    "borel_sweep": lambda seed: [["borel", "--seed", str(seed)]],
    "ed_l6": lambda seed: [["oracle", "--what", "ed", "--L", "6",
                            "--lambda", "0.1", "--potential", "uv:1:0.5"]],
}

COUNTER_UNITS = {
    "nusolver.solve_fixed_point.iterations": "count",
    "g1map.sweep_sector.lane_steps_per_s": "1/s",
    "g1map.sweep_sector.live_lane_frac": "ratio",
    "oracle.ed_micro.max_sector_dim": "count",
    "oracle.ed_micro.sectors": "count",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name in runner.span_names():
        units[name + ".calls"] = "count"
        units[name + ".s"] = "s"
        units[name + ".self_s"] = "s"
    units.update(COUNTER_UNITS)
    return units


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(argv, workdir, trace, env, deadline):
    """Run one invocation to completion; returns its measurements."""
    os.makedirs(workdir)
    record = os.path.join(workdir, "record.json")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.path.join(workdir, "stdout.txt"), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, os.path.join(workdir, "stderr.txt"), flags, 0o644)]
    cli_argv = argv + ["--out-dir", workdir] if argv else []
    t0 = time.monotonic()
    if t0 >= deadline:
        raise BenchError("run deadline passed")
    pid = os.posix_spawn(sys.executable,
                         [sys.executable, RUNNER, record, repr(t0), str(int(trace))] + cli_argv,
                         env, file_actions=actions)
    watchdog = threading.Timer(deadline - t0, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:   # interrupted: leave no child behind
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    wall = time.monotonic() - t0
    if os.WIFSIGNALED(status):
        raise BenchError("%s killed by signal %d" % (argv, os.WTERMSIG(status)))
    try:
        with open(record) as fh:
            rec = json.load(fh)
    except FileNotFoundError:
        with open(os.path.join(workdir, "stderr.txt")) as fh:
            raise BenchError("%s wrote no record: %s" % (argv, fh.read().strip()))
    files = {}
    for name in sorted(os.listdir(workdir)):
        if name.endswith(".csv") or name.endswith("_summary.txt"):
            with open(os.path.join(workdir, name)) as fh:
                files[name] = fh.read()
    return {"argv": argv, "exit": os.waitstatus_to_exitcode(status), "wall": wall,
            "setup": rec["setup_s"], "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu": usage.ru_utime + usage.ru_stime, "files": files,
            "trace": rec.get("trace"), "spans": record + ".spans"}


def run_pass(argvs, trace, workdir, env, deadline):
    shutil.rmtree(workdir, ignore_errors=True)
    return [spawn(argv, os.path.join(workdir, "%02d" % i), trace, env, deadline)
            for i, argv in enumerate(argvs)]


def check_pass(invocations, reference):
    """Returns (correct, failed) and prints any mismatch to stderr."""
    correct, failed = True, 0
    for inv, ref in zip(invocations, reference["invocations"]):
        status, reasons = checker.compare(ref, inv["argv"], inv["exit"], inv["files"])
        for reason in reasons:
            print("%s: %s: %s" % (" ".join(inv["argv"]), status, reason), file=sys.stderr)
        correct = correct and status != "mismatch"
        if status == "mismatch" or inv["exit"] != 0 or not checker.verdicts_pass(inv["files"]):
            failed += 1
    return correct, failed


def _read_spans(inv):
    n = inv["trace"]["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(inv["spans"], "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return arrays


def layer_totals(invocations):
    """Per-layer totals of one traced pass: calls, s (outermost calls of a
    name only, so recursion is not counted twice), self_s and counters."""
    calls, incl, self_s, counters = {}, {}, {}, {}
    span_self_total = 0.0
    for inv in invocations:
        names = inv["trace"]["names"]
        name_of, parent, start, end = _read_spans(inv)
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        for i, nid in enumerate(name_of):
            name = names[nid]
            calls[name] = calls.get(name, 0) + 1
            own = dur[i] - child[i]
            self_s[name] = self_s.get(name, 0.0) + own
            span_self_total += own
            p = parent[i]
            while p >= 0 and name_of[p] != nid:
                p = parent[p]
            if p < 0:
                incl[name] = incl.get(name, 0.0) + dur[i]
        for key, (value, op) in inv["trace"]["counters"].items():
            runner.merge_counter(counters, key, value, op)
    counters = {key: total for key, (total, _) in counters.items()}
    return calls, incl, self_s, counters, span_self_total


def end_to_end(passes, setup_samples):
    n_inv = len(passes[0])
    return {
        "wall_s": (statistics.median([sum(i["wall"] for i in p) for p in passes]), "s"),
        "setup_s": (n_inv * statistics.median(setup_samples), "s"),
        "peak_rss_mb": (statistics.median([max(i["rss_mb"] for i in p) for p in passes]), "MB"),
    }


def per_layer(untraced, traced):
    units = per_layer_units()
    totals = [layer_totals(p) for p in traced]
    values = {}
    for name in runner.span_names():
        values[name + ".calls"] = totals[-1][0].get(name, 0)
        values[name + ".s"] = statistics.median([t[1].get(name, 0.0) for t in totals])
        values[name + ".self_s"] = statistics.median([t[2].get(name, 0.0) for t in totals])
    counters = totals[-1][3]
    values["nusolver.solve_fixed_point.iterations"] = \
        counters.get("nusolver.solve_fixed_point.iterations", 0)
    lane_steps = counters.get("g1map.sweep_sector.lane_steps", 0)
    sweep_s = values["g1map.sweep_sector.s"]
    values["g1map.sweep_sector.lane_steps_per_s"] = lane_steps / sweep_s if sweep_s else 0.0
    values["g1map.sweep_sector.live_lane_frac"] = (
        counters["g1map.sweep_sector.live_lane_steps"] / lane_steps if lane_steps else 0.0)
    values["oracle.ed_micro.max_sector_dim"] = counters.get("oracle.ed_micro.max_sector_dim", 0)
    values["oracle.ed_micro.sectors"] = counters.get("oracle.ed_micro.sectors", 0)
    values["process.cpu_s"] = statistics.median([sum(i["cpu"] for i in p) for p in untraced])
    traced_wall = [sum(i["wall"] for i in p) for p in traced]
    values["trace.overhead_s"] = statistics.median(traced_wall) - \
        statistics.median([sum(i["wall"] for i in p) for p in untraced])
    values["trace.coverage"] = statistics.median([
        (t[4] + sum(i["setup"] for i in p)) / w for t, p, w in zip(totals, traced, traced_wall)])
    return {name: (values[name], units[name]) for name in units}


def measure(workload, seed, seconds, trace):
    reference = checker.load_reference(workload)
    argvs = WORKLOADS[workload](seed)
    env = child_env()
    start = time.monotonic()
    deadline = start + DEADLINE_S
    workdir = os.path.join(OUT, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    # an untimed import fills the bytecode cache, which users pay only once
    spawn([], os.path.join(workdir, "warmup"), False, env, deadline)
    setup_samples = [spawn([], os.path.join(workdir, "probe%d" % k), False, env,
                           deadline)["setup"] for k in range(SETUP_PROBES)]
    untraced, traced = [], []
    correct, failed, attempted = True, 0, 0
    begin = time.monotonic()
    while True:
        t_pass = time.monotonic()
        for traced_pass, sink in ((False, untraced), (True, traced))[:1 + trace]:
            invocations = run_pass(argvs, traced_pass, os.path.join(
                workdir, "pass%d%s" % (len(sink), "t" if traced_pass else "")), env, deadline)
            ok, bad = check_pass(invocations, reference)
            correct, failed, attempted = correct and ok, failed + bad, attempted + len(invocations)
            setup_samples += [i["setup"] for i in invocations if not traced_pass]
            sink.append(invocations)
        now = time.monotonic()
        if now - begin + (now - t_pass) > seconds:
            break
    metrics = per_layer(untraced, traced) if trace else end_to_end(untraced, setup_samples)
    summary = {"failed_frac": (failed / attempted, "ratio"), **metrics}
    print("%s seed=%d passes=%d invocations/pass=%d wall=%.1fs" % (
        workload, seed, len(untraced), len(argvs), time.monotonic() - start))
    for name, (value, unit) in summary.items():
        print("  %-48s %14.6g %s" % (name, value, unit))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def capture():
    """Write the reference outputs of every workload at REFERENCE_SEED."""
    env = child_env()
    for workload, argvs_of in WORKLOADS.items():
        argvs = argvs_of(checker.REFERENCE_SEED)
        deadline = time.monotonic() + DEADLINE_S
        invocations = run_pass(argvs, False, os.path.join(OUT, workload, "capture"),
                               env, deadline)
        checker.save_reference(workload, [
            {"argv": i["argv"], "exit": i["exit"], "files": i["files"]}
            for i in invocations])
        print("%s: exits %s" % (workload, [i["exit"] for i in invocations]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=checker.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--capture", action="store_true",
                    help="write reference outputs at the reference seed")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "rg1d", "cli.py")):
        print("no rg1d source under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        if args.capture:
            capture()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
