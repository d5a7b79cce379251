#!/usr/bin/env python3
"""Noise qualification of the benchmark.

Runs BENCHMARK.json's command the way the driver does (--trace 0, a new
--seed for every run) in sets of runs, one set after the other, and writes
every value with the statistics the driver and ISSUE 15 judge by:

  spread   (Q3 - Q1) / median of a set, statistics.quantiles(n=4): the driver
           accepts the benchmark while it is within the metric's bound, and
           asks for a third of the bound
  range    (max - min) / median of a set: the issue wants it within the bound
  drift    how much worse the second set's median is than the first's, as a
           share of the first: within the bound for the driver, within half
           of it for the issue

Every flag in the output is computed from the runs in the same file.

    python3 bench/qualify.py --out bench/results/noise-v1.json
    python3 bench/qualify.py --workloads svc-mix --runs 5 --sets 1   # a quick look
    python3 bench/qualify.py --again F --out F    # the same runs, judged by BENCHMARK.json's bounds of today
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time


WHAT = ("Noise qualification: BENCHMARK.json's command run the way the driver runs it (--trace 0, a new --seed "
        "for every run), in sets of runs, one set after the other. spread = (Q3 - Q1) / median with "
        "statistics.quantiles(n=4); range = (max - min) / median; drift = how much worse the last set's median is "
        "than the first's, as a share of the first. Every flag is computed from the runs in this file by "
        "bench/qualify.py; failing lists the flags that are false.")


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    p = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    wall = time.monotonic() - t0
    if p.returncode != 0:
        sys.exit(f"{' '.join(argv)}: exit code {p.returncode}\n{p.stdout}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{' '.join(argv)}: incorrect result\n{p.stdout}")
    return result, wall


def worse_by(first, second, better):
    """How much worse second is than first, as a share of first."""
    if first == 0:
        return 0.0
    d = (second - first) / abs(first)
    return d if better == "lower" else -d


def describe_set(seeds, runs):
    med = statistics.median(runs)
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {
        "seeds": seeds,
        "runs": runs,
        "median": med,
        "spread": (q3 - q1) / med,
        "range": (max(runs) - min(runs)) / med,
    }


def measure(bench, names, args):
    """Runs the sets and returns every value, seed and wall time."""
    runs = {w: {m["name"]: [[] for _ in range(args.sets)] for m in bench["end_to_end"]} for w in names}
    seeds = {w: [[] for _ in range(args.sets)] for w in names}
    walls = {w: [] for w in names}
    seed = args.first_seed
    started = time.monotonic()
    for s in range(args.sets):
        for w in names:
            for _ in range(args.runs):
                result, wall = run_once(bench["command"], w, seed, bench["run_seconds"])
                for m in bench["end_to_end"]:
                    runs[w][m["name"]][s].append(result["metrics"][m["name"]]["value"])
                seeds[w][s].append(seed)
                walls[w].append(round(wall, 1))
                seed += 1
            print(f"set {s + 1} {w}: {args.runs} runs, {sum(walls[w][-args.runs:]):.0f} s", file=sys.stderr)
    return {
        "system": {"machine": platform.machine(), "kernel": platform.release(), "cpus": os.cpu_count()},
        "wall_seconds": {"total": round(time.monotonic() - started), "per_run": walls},
        "seeds": seeds,
        "runs": runs,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--out")
    ap.add_argument("--again", help="judge the runs recorded in this file by the current bounds; run nothing")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    bench = json.load(open(args.benchmark))
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]

    if args.again:
        old = json.load(open(args.again))
        measured = {k: old[k] for k in ("system", "wall_seconds")}
        measured["seeds"] = {w: [s["seeds"] for s in next(iter(ms.values()))["sets"]] for w, ms in old["workloads"].items()}
        measured["runs"] = {w: {m: [s["runs"] for s in row["sets"]] for m, row in ms.items()} for w, ms in old["workloads"].items()}
        names = [n for n in names if n in measured["runs"]]
    else:
        measured = measure(bench, names, args)

    out = {
        "what": WHAT,
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "system": measured["system"],
        "wall_seconds": measured["wall_seconds"],
        "failing": [],
        "workloads": {},
    }
    flags = ("spread_within_bound", "spread_within_a_third_of_bound", "range_within_bound",
             "drift_within_bound", "medians_within_half_of_bound")
    for w in names:
        out["workloads"][w] = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [describe_set(s, r) for s, r in zip(measured["seeds"][w], measured["runs"][w][name])]
            drift = worse_by(sets[0]["median"], sets[-1]["median"], m["better"])
            row = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": bound,
                "sets": sets,
                "drift": drift,
                "identical_in_every_run": len({v for s in sets for v in s["runs"]}) == 1,
                "spread_within_bound": all(s["spread"] <= bound for s in sets),
                "spread_within_a_third_of_bound": all(s["spread"] <= bound / 3 for s in sets),
                "range_within_bound": all(s["range"] <= bound for s in sets),
                "drift_within_bound": drift <= bound,
                "medians_within_half_of_bound": abs(drift) <= bound / 2,
            }
            out["workloads"][w][name] = row
            out["failing"] += [f"{w} {name}: not {flag}" for flag in flags if not row[flag]]
            print(f"{w:14s} {name:18s} bound {bound:.2f}  spread " + " ".join(f"{s['spread']:.3f}" for s in sets)
                  + "  range " + " ".join(f"{s['range']:.3f}" for s in sets) + f"  drift {drift:+.3f}"
                  + f"  median {sets[0]['median']:.6g}")
    for f in out["failing"]:
        print("FAILING", f)
    if args.out:
        text = json.dumps(out, indent=1)
        # One line per list of numbers.
        text = re.sub(r"\[\s+([-0-9.e+,\s]+?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
        with open(args.out, "w") as f:
            f.write(text + "\n")


if __name__ == "__main__":
    main()
