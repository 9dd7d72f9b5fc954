#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and summarize them.

    python3 tools/bench_pairs.py --parent ../mwiv-parent --seeds 10 \\
        --workloads cli-warm,cs-cold --out BENCH_10.json

For each workload and each seed 1..N, runs ``perfbench/run.py --trace 0``
once in the parent checkout and once in the working tree this script
lives in, one after the other, for the run length BENCHMARK.json sets.
Odd seeds run the parent first and even seeds the change first, so drift
in host speed does not favour one side. Runs are sequential, one process
at a time, and a run still going after RUN_TIMEOUT_S is killed.

The JSON file holds every run's result and, per workload and end-to-end
metric (names, directions and bounds from BENCHMARK.json), each side's
median and quartiles, the change's win count over the pairs (ties count
for neither side), and three verdicts: ``gain`` (the change wins at least
nine tenths of the pairs and the medians differ by more than the parent's
interquartile range, in the better direction), ``within_bound`` (the
change's median is not worse than the parent's by more than the bound) and
``unresolved`` (the parent's interquartile range over its median exceeds
the bound, so the runs spread too widely to call the metric unchanged,
unless every run of the change reads better than every run of the parent).
Standard library only.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900.0


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its JSON result plus wall time and exit code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result.update(exit_code=proc.returncode, elapsed_s=time.time() - start,
                  stderr_tail=proc.stderr.strip().splitlines()[-3:])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Per metric: quartiles of each side, the change's wins, and the verdicts."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(p["parent"]["metrics"].get(name, {}).get("value"), p["change"]["metrics"].get(name, {}).get("value"))
                for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            continue
        parent, change = [a for a, _ in both], [b for _, b in both]
        pq, cq = quartiles(parent), quartiles(change)
        wins = sum((b < a) if lower else (b > a) for a, b in both)
        losses = sum((b > a) if lower else (b < a) for a, b in both)
        iqr = pq[2] - pq[0]
        gained = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
        worse = -gained / pq[1] if pq[1] else 0.0
        all_better = max(change) < min(parent) if lower else min(change) > max(parent)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "pairs": len(both),
            "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2], "iqr": iqr},
            "change": {"q1": cq[0], "median": cq[1], "q3": cq[2], "iqr": cq[2] - cq[0]},
            "change_wins": wins,
            "change_losses": losses,
            "relative_change": (cq[1] - pq[1]) / pq[1] if pq[1] else None,
            "gain": wins >= 0.9 * len(both) and gained > iqr,
            "bound": metric["bound"],
            "within_bound": worse <= metric["bound"],
            "unresolved": bool(pq[1]) and iqr / pq[1] > metric["bound"] and not all_better,
        }
    return out


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..N (default 10)")
    parser.add_argument("--workloads", default=None, help="comma-separated names (default: all in BENCHMARK.json)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent, "change": ROOT}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bench = ["BENCHMARK.json", *[os.path.join(p, f) for p in spec["paths"]
                                 for f in sorted(os.listdir(os.path.join(ROOT, p))) if f.endswith(".py")]]
    same = all(os.path.exists(os.path.join(args.parent, f))
               and filecmp.cmp(os.path.join(args.parent, f), os.path.join(ROOT, f), shallow=False)
               for f in bench)
    if not same:
        print("warning: the two checkouts run different benchmark code", file=sys.stderr)

    report = {
        "seeds": list(range(1, args.seeds + 1)),
        "seconds": seconds,
        "benchmark_code_identical": same,
        "machine": machine(),
        "quartile_method": "statistics.quantiles(n=4, method='inclusive')",
        "workloads": {},
    }
    for workload in workloads:
        pairs = []
        for seed in report["seeds"]:
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            pair = {"seed": seed, "order": order}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, seconds)
                res = pair[side]
                print(f"{workload} seed {seed} {side}: correct={res['correct']} failed={res['failed']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), file=sys.stderr)
            pairs.append(pair)
        report["workloads"][workload] = {"runs": pairs, "summary": summarize(pairs, spec)}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
