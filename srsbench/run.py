#!/usr/bin/env python3
"""Runner of the SRS benchmark.

Run from the root of a source checkout:

  python3 srsbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Build srsbench/srsbench.exe with dune, run one measurement and print
      its JSON result as the last line of standard output.  --trace 0
      gives the end-to-end metrics (plus peak_rss_mb, measured here on
      the child process); --trace 1 gives the per-layer metrics.

  python3 srsbench/run.py --selfcheck [--seconds S]
      Steadiness self-check: two sets of ten runs (seeds 1..10) of every
      workload of one commit, one set after the other.  Prints, per metric
      and workload, the median and the IQR of each set and the gap between
      the set medians, against the bounds in BENCHMARK.json; exits 1 if any
      IQR or gap is outside its bound.

  python3 srsbench/run.py --confirm [--seconds S]
      One traced run per workload; prints each workload's layer shares and
      checks the design claims recorded in srsbench/LAYERS.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading

EXE = os.path.join("_build", "default", "srsbench", "srsbench.exe")
WORKLOADS = ["srs_push", "srs_grid", "srs_team", "srs_checkpoint"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
CHILD_TIMEOUT_S = 170
SELFCHECK_RUNS = 10


def die(msg):
    print("srsbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Build the benchmark from the checkout's sources (no shared dune
    cache, so nothing is written outside the checkout)."""
    for path in ("dune-project", "lib", os.path.join("srsbench", "dune")):
        if not os.path.exists(path):
            die("not a source checkout: %s is missing" % path)
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./srsbench/srsbench.exe"],
                       env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed (dune exit %d)" % r.returncode)


def run_exe(argv, echo):
    """Run the executable; returns its result object and its peak RSS in
    MB.  Exits on any malformed outcome."""
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if p.returncode != 0 or not lines:
        die("%s exited with %d" % (EXE, p.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("last line is not JSON: %r" % lines[-1][:200])
    if set(result) != RESULT_KEYS:
        die("result keys %s" % sorted(result))
    # ru_maxrss is in KiB on Linux; wait4 reports this child alone
    return result, usage.ru_maxrss / 1024.0


def run_once(workload, seed, seconds, trace, echo=True):
    """One measurement.  On --trace 0, peak_rss_mb comes from a separate
    process that builds the deck and steps one window, as a user's run
    would: repeats inside one process leave the allocator's high-water
    mark to chance.  That process's repeat is checked like the others."""
    argv = [EXE, "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if trace:
        result, _ = run_exe(argv + ["--seconds", str(seconds)], echo)
    else:
        probe, rss = run_exe(argv + ["--seconds", "0", "--repeats", "1"], False)
        result, _ = run_exe(argv + ["--seconds", str(seconds)], echo)
        result["correct"] = result["correct"] and probe["correct"]
        result["attempted"] += probe["attempted"]
        result["failed"] += probe["failed"]
        result["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    check_names(result, trace)
    return result


def spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def check_names(result, trace):
    """The metrics must be exactly the ones BENCHMARK.json declares."""
    s = spec()
    if s is None:
        return
    want = {m["name"]: m["unit"] for m in s["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        die("metrics differ from BENCHMARK.json: missing %s, extra %s, units %s"
            % (missing, extra, sorted(k for k in want if k in got and want[k] != got[k])))


def iqr_frac(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def selfcheck(args):
    s = spec()
    if s is None:
        die("--selfcheck needs BENCHMARK.json")
    metrics = s["end_to_end"]
    seconds = args.seconds or s["run_seconds"]
    values = {}  # (set, workload, metric) -> [values]
    failed = 0
    for k in range(2):
        for w in WORKLOADS:
            for seed in range(1, SELFCHECK_RUNS + 1):
                r = run_once(w, seed, seconds, 0, echo=False)
                failed += r["failed"]
                for m in metrics:
                    values.setdefault((k, w, m["name"]), []).append(
                        r["metrics"][m["name"]]["value"])
                print("set %d %s seed %d: %s" % (k + 1, w, seed, " ".join(
                    "%s=%.6g" % (m["name"], r["metrics"][m["name"]]["value"])
                    for m in metrics)), flush=True)
    ok = failed == 0
    print("\n%-15s %-21s %6s %12s %8s %8s %8s  verdict" %
          ("workload", "metric", "bound", "median", "iqr1", "iqr2", "gap"))
    for w in WORKLOADS:
        for m in metrics:
            sets = [values[(k, w, m["name"])] for k in range(2)]
            meds = [statistics.median(v) for v in sets]
            iqrs = [iqr_frac(v) for v in sets]
            # gap: how much worse the second set's median is than the
            # first's (negative: better); the sets must agree either way
            sign = 1 if m["better"] == "lower" else -1
            gap = sign * (meds[1] - meds[0]) / meds[0]
            bound = m["bound"]
            spread = max(iqrs)
            if spread > bound or abs(gap) > bound:
                verdict = "OUTSIDE"
            elif spread > bound / 3 or abs(gap) > bound / 3:
                verdict = "ok (above bound/3)"
            else:
                verdict = "ok"
            ok = ok and verdict.startswith("ok")
            print("%-15s %-21s %6.2f %12.6g %8.4f %8.4f %+8.4f  %s" % (
                w, m["name"], bound, meds[0], iqrs[0], iqrs[1], gap, verdict))
    print("failed runs: %d" % failed)
    sys.exit(0 if ok else 1)


def confirm(args):
    seconds = args.seconds or 10
    res = {}
    all_correct = True
    for w in WORKLOADS:
        r = run_once(w, 1, seconds, 1, echo=False)
        all_correct = all_correct and r["correct"]
        res[w] = {k: v["value"] for k, v in r["metrics"].items()}
        m = res[w]
        step = m["step_s_traced"]
        shares = {
            "push": m["push.interior_s"] + m["push.boundary_s"],
            "interp.load": m["interp.load_s"],
            "accum.unload": m["accum.unload_s"],
            "field": m["field_s"],
            "exchange": m["exchange.fill_s"] + m["exchange.fold_s"],
            "migrate": m["migrate_s"],
            "sort": m["sort_s"] / 25.0,  # one sort every 25 steps
            "clean": m["clean_s"] / 50.0,  # one Marder clean every 50
            "checkpoint": m["checkpoint.overhead_frac"] * step,
        }
        print("%s (correct=%s): step %.4g s; %s; comm wait %.2e s/step; "
              "cleanup frac %.4f; closure residual %.4f; trace overhead %+.4f" % (
                  w, r["correct"], step, ", ".join(
                      "%s %.1f%%" % (k, 100 * v / step) for k, v in shares.items()),
                  m["comm.wait_s"], m["push.cleanup_frac"],
                  m["closure.residual_frac"], m["trace.overhead_frac"]), flush=True)

    def push_share(w):
        m = res[w]
        return (m["push.interior_s"] + m["push.boundary_s"]) / m["step_s_traced"]

    claims = [
        ("traced runs pass every check, energies bitwise equal", all_correct),
        ("push is most of the step on srs_push", push_share("srs_push") > 0.5),
        ("push is a minority of the step on srs_grid", push_share("srs_grid") < 0.5),
        ("comm wait and exchange bytes non-zero only on srs_grid",
         all((res[w]["comm.wait_s"] > 0 and res[w]["exchange.bytes_per_step"] > 0)
             == (w == "srs_grid") for w in WORKLOADS)),
        ("push.cleanup_frac on srs_team > 1.5x srs_push",
         res["srs_team"]["push.cleanup_frac"] > 1.5 * res["srs_push"]["push.cleanup_frac"]),
        ("checkpoint time non-zero only on srs_checkpoint",
         all((res[w]["checkpoint.save_s"] > 0) == (w == "srs_checkpoint")
             for w in WORKLOADS)),
    ]
    for text, holds in claims:
        print("%-55s %s" % (text, "yes" if holds else "NO"))
    sys.exit(0 if all(h for _, h in claims) else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--confirm", action="store_true")
    args = ap.parse_args()
    build()
    if args.selfcheck:
        selfcheck(args)
    elif args.confirm:
        confirm(args)
    else:
        if args.workload not in WORKLOADS:
            die("--workload must be one of %s" % ", ".join(WORKLOADS))
        r = run_once(args.workload, args.seed, args.seconds or 10, args.trace)
        print(json.dumps(r))


if __name__ == "__main__":
    main()
