"""Self-test of the benchmark: every workload passes its own checks at
reduced size, each check fails on a planted wrong answer, and the tracer
reports every per-layer metric and leaves the package as it found it.

    python3 -m pytest perfbench/test_selftest.py -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import mwiv  # noqa: E402
import mwiv.cli  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402


def small_round(name, tmp_path, tracer=None):
    wl = WORKLOADS[name](mwiv, 3, str(tmp_path), small=True)
    wl.setup()
    rec = Recorder()
    if tracer:
        tracer.install()
    try:
        out = wl.round(rec)
    finally:
        if tracer:
            tracer.uninstall()
    return wl, rec, out, wl.collect(out)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_workload_passes_its_checks(name, tmp_path):
    wl, rec, out, collected = small_round(name, tmp_path)
    assert rec.attempted > 0 and rec.failed == 0
    assert wl.check(collected) == []


def test_curve_scaled_down_fails(tmp_path):
    wl, _, out, collected = small_round("cs-cold", tmp_path)
    cache = out[0][1]["lib"].cache
    real_get = cache.get

    def scaled(rho, alpha=0.05):
        curve = real_get(rho, alpha)
        return dataclasses.replace(curve, knots_c=0.85 * curve.knots_c)

    cache.get = scaled
    problems = wl.check(collected)
    assert any("fixed point" in p for p in problems)
    assert any("vtfo: critical" in p for p in problems)


def test_flipped_reject_flag_fails(tmp_path):
    wl, _, out, collected = small_round("cs-cold", tmp_path)
    rejects = out[0][1]["sets"]["ms2"].rejects
    rejects[3] = not rejects[3]
    assert any("reject flags disagree" in p for p in wl.check(collected))


def test_truncated_cache_file_fails(tmp_path):
    wl = WORKLOADS["cli-warm"](mwiv, 3, str(tmp_path), small=True)
    wl.setup()
    for entry in os.scandir(wl.warm):
        with open(entry.path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(entry.path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[: max(12, len(lines) // 15)])
    wl.snapshot = wl._listing(wl.warm)
    rec = Recorder()
    problems = wl.check(wl.collect(wl.round(rec)))
    assert any("output differs from the same call with an empty cache" in p for p in problems)
    assert any("last knot" in p for p in problems)


def test_ms2_rate_off_fails(tmp_path):
    wl, _, out, collected = small_round("power-curve", tmp_path)
    out[0].rates["ms2"][1] += 0.05
    assert any("ms2 at delta" in p for p in wl.check(collected))


@pytest.mark.parametrize("name", ["cs-cold", "cli-warm"])
def test_tracer_reports_every_layer_and_restores(name, tmp_path):
    originals = (mwiv.inference.cw_critical_value, mwiv.CurveCache.get, mwiv.cli.read_dataset_csv)
    tracer = Tracer()
    wl, rec, out, collected = small_round(name, tmp_path, tracer)
    metrics = tracer.layer_metrics()
    assert set(PER_LAYER) - set(metrics) == {"trace.overhead_pct"}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert declared == PER_LAYER
    assert originals == (mwiv.inference.cw_critical_value, mwiv.CurveCache.get, mwiv.cli.read_dataset_csv)
    assert wl.check(collected) == []
    if name == "cli-warm":
        assert metrics["critval.curve_builds"] == 0
        assert metrics["critval.disk_loads"] > 0 and metrics["cli.calls"] == len(wl.calls)
    else:
        assert metrics["critval.curve_builds"] > 0
        assert metrics["estimators.stats_calls"] == metrics["inference.grid_points"]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "cs-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
