"""Repeated benchmark runs into a result file, and self-comparison.

Usage:
    python3 benchmarks/sweep.py --out FILE [--seeds 1-10] [--workloads a,b]
                                [--seconds S] [--trace 0|1]
    python3 benchmarks/sweep.py --show FILE
    python3 benchmarks/sweep.py --compare FILE_A FILE_B

The first form runs benchmarks/run.py once per (seed, workload), one run
at a time and workloads interleaved, and writes FILE: the environment
record (envinfo.py), the settings and every run's result line.  It then
prints, per workload and metric, the sample count, median, quartiles
(statistics.quantiles with n=4) and spread, the quartile distance as a
share of the median, beside the metric's bound from BENCHMARK.json; and
failed_frac, failed over attempted invocations of all runs.

--compare reads two result files of the same code and reports, for every
end-to-end metric and workload, whether the medians agree within the
metric's bound.  A metric whose spread in either file is wider than its
bound is reported as unresolved.  Exits 0 only if every pair agrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from envinfo import environment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_all(spec, workloads, seeds, seconds, trace, out):
    data = {"env": environment(), "seconds": seconds, "trace": trace, "runs": []}
    for seed in seeds:
        for workload in workloads:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                raise SystemExit("%s exited %d" % (" ".join(cmd), done.returncode))
            result = json.loads(lines[-1])
            data["runs"].append({"workload": workload, "seed": seed, "result": result})
            print("%s seed %d: %s" % (workload, seed, ", ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()
                if k in {m["name"] for m in spec["end_to_end"]})), flush=True)
            with open(out, "w") as fh:
                json.dump(data, fh, indent=1)
    return data


def stats(data):
    """workload -> metric -> (n, median, q1, q3, spread); plus failed_frac."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in data["runs"]):
        runs = [r["result"] for r in data["runs"] if r["workload"] == workload]
        table = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
                else (med, med, med)
            table[name] = (len(values), med, q1, q3, (q3 - q1) / med if med else 0.0)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        table["failed_frac"] = (len(runs), failed / attempted, None, None, None)
        out[workload] = (table, all(r["correct"] for r in runs))
    return out


def show(data, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload, (table, correct) in stats(data).items():
        print("%s (correct=%s)" % (workload, correct))
        print("  %-44s %3s %12s %12s %12s %8s %6s" % (
            "metric", "n", "median", "q1", "q3", "spread", "bound"))
        for name, (n, med, q1, q3, spread) in table.items():
            if spread is None:
                print("  %-44s %3d %12.6g" % (name, n, med))
            else:
                bound = bounds.get(name)
                print("  %-44s %3d %12.6g %12.6g %12.6g %8.4f %6s" % (
                    name, n, med, q1, q3, spread, "-" if bound is None else bound))


def compare(a, b, spec):
    sa, sb = stats(a), stats(b)
    all_agree = True
    print("%-12s %-12s %12s %12s %8s %8s %8s %6s  %s" % (
        "workload", "metric", "median A", "median B", "change", "spreadA", "spreadB",
        "bound", "verdict"))
    for workload in sa:
        if workload not in sb:
            print("%-12s missing from B" % workload)
            all_agree = False
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            _, ma, _, _, spa = sa[workload][0][name]
            _, mb, _, _, spb = sb[workload][0][name]
            change = (mb - ma) / ma
            if spa > bound or spb > bound:
                verdict = "unresolved"
            else:
                verdict = "agree" if abs(change) <= bound else "differ"
            all_agree = all_agree and verdict == "agree"
            print("%-12s %-12s %12.6g %12.6g %+8.4f %8.4f %8.4f %6.3f  %s" % (
                workload, name, ma, mb, change, spa, spb, bound, verdict))
    return all_agree


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--show")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            return 0 if compare(json.load(fa), json.load(fb), spec) else 1
    if args.show:
        with open(args.show) as fh:
            data = json.load(fh)
    elif args.out:
        workloads = args.workloads.split(",") if args.workloads else \
            [w["name"] for w in spec["workloads"]]
        data = run_all(spec, workloads, _seeds(args.seeds),
                       args.seconds or spec["run_seconds"], args.trace, args.out)
    else:
        ap.error("one of --out, --show or --compare is required")
    show(data, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
