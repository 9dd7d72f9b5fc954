#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload cs-cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; mwiv is imported from ./src.
With --trace 0 the result holds the end-to-end metrics, measured with
nothing wrapped. With --trace 1 it holds the per-layer metrics: rounds
alternate untraced and traced, and the traced rounds' overhead over the
untraced ones is reported as trace.overhead_pct. Times are scaled to a
reference host speed (hostclock.py), except on cs-large-n; the raw times
go to stderr. See perfbench/README.md.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")


def import_mwiv():
    """Import mwiv afresh from the checkout; set-up time includes it, so
    work moved to import time shows in setup_s."""
    for name in [n for n in sys.modules if n == "mwiv" or n.startswith("mwiv.")]:
        del sys.modules[name]
    mwiv = importlib.import_module("mwiv")
    importlib.import_module("mwiv.cli")
    if not os.path.abspath(mwiv.__file__).startswith(os.path.join(SRC, "")):
        raise ImportError(f"mwiv imported from {mwiv.__file__}, not from {SRC}")
    return mwiv


def peak_rss_bytes() -> int:
    """High-water resident set size of this process so far (VmHWM)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise OSError("VmHWM missing from /proc/self/status")


def run(args, workdir: str) -> dict:
    from hostclock import REF_BLOCK_S, HostClock
    from spans import PER_LAYER, Tracer
    from workloads import WORKLOADS, Recorder

    cls = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    clock = HostClock(enabled=cls.host_scaled)
    setup_times, setup_raw, judge_times = [], [], []
    for _ in range(cls.reps):
        clock.calibrate(0.0)
        start = time.perf_counter()
        mwiv = import_mwiv()
        if tracer:
            tracer.reset()
            tracer.install()
        wl = cls(mwiv, args.seed, workdir)
        wl.setup()
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
            judge_times.append(tracer.self_time.get("judge", 0.0))
        clock.calibrate(elapsed)
        factor, _ = clock.take()
        setup_raw.append(elapsed)
        setup_times.append(elapsed * factor)

    rec = Recorder(clock)
    plain, plain_raw, traced, layers, latencies = [], [], [], [], []
    digests = set()
    first = None
    min_rounds = 2 if tracer else 1
    setup_peak = peak_rss_bytes()
    start = time.perf_counter()
    while True:
        tracing = tracer is not None and len(plain) > len(traced)
        if tracing:
            tracer.reset()
            tracer.install()
        first_call = len(rec.latencies)
        t0 = time.perf_counter()
        out = wl.round(rec)
        elapsed_round = time.perf_counter() - t0
        factor, calibrating = clock.take()
        raw = elapsed_round - calibrating
        if tracing:
            tracer.uninstall()
            layers.append(tracer.layer_metrics())
            traced.append(raw * factor)
        else:
            plain.append(raw * factor)
            plain_raw.append(raw)
            latencies += [factor * t for t in rec.latencies[first_call:]]
        collected = wl.collect(out)
        digests.add(wl.fingerprint(collected))
        if first is None:
            first = (out, collected)
        else:
            wl.discard(out)
        del out, collected  # only the first round's output stays alive
        if len(plain) + len(traced) >= min_rounds and time.perf_counter() - start >= args.seconds:
            break

    peak = peak_rss_bytes()

    if peak <= setup_peak:
        print("warning: peak memory was reached in set-up, not in the timed rounds", file=sys.stderr)
    problems = wl.check(first[1])
    if len(digests) != 1:
        problems.append(f"rounds disagree: {len(digests)} distinct outputs from identical calls")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    wl.discard(first[0])
    print(
        f"perfbench {args.workload} seed {args.seed}: {len(plain)} plain + {len(traced)} traced rounds, "
        f"{rec.attempted} calls, BLAS threads {BLAS_THREADS}; round seconds scaled "
        f"{[round(t, 3) for t in plain]} plain, {[round(t, 3) for t in traced]} traced; "
        f"raw {[round(t, 3) for t in plain_raw]} plain; set-up raw {statistics.median(setup_raw):.4f} s; "
        + (f"calibration block median {1000 * statistics.median(clock.all_blocks):.2f} ms "
           f"(reference {1000 * REF_BLOCK_S:.2f} ms); " if clock.enabled else "times not scaled; ")
        + f"peak RSS {setup_peak / 2**20:.1f} MB after set-up, {peak / 2**20:.1f} MB after the rounds",
        file=sys.stderr,
    )

    if tracer:
        values = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
        values["judge.simulate_s"] = statistics.median(judge_times)
        values["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        os.makedirs(SCRATCH, exist_ok=True)
        tracer.write_spans(os.path.join(SCRATCH, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "call_p50_ms": {"value": 1000.0 * statistics.median(latencies), "unit": "ms"},
            "peak_mem_mb": {"value": peak / 2**20, "unit": "MB"},
        }
    return {"correct": not problems, "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["cs-cold", "power-curve", "cs-large-n", "cli-warm"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mwiv", "__init__.py")):
        print(f"perfbench: no mwiv package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
