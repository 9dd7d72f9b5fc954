"""tools/layer_times.py: its five tables, run on this checkout, and its call recorder."""

import importlib.util
import os

import numpy as np
import pytest

import mwiv
from mwiv import critval

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESIGNS = [["40x10", "+-1.5"], ["100x8", "+-1.0"], ["32x10", "+-0.3"]]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("layer_times", os.path.join(ROOT, "tools", "layer_times.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_builds_row(tool, capsys):
    assert tool.main(["builds", "--rho", "0.5", "--repeat", "1"]) == 0
    header, row, *rest = capsys.readouterr().out.splitlines()
    assert rest == []
    got = dict(zip(header.split(), row.split()))
    assert list(got) == ["rho", "alpha", "knots", "build_s", "closed_s", "cont_s", "steps", "evals/step",
                         "fallbacks", "prefix_s", "p_knots", "csv_rows", "csv_s"]
    curve = mwiv.build_vtfo_curve(0.5, 0.05)
    assert int(got["knots"]) == curve.knots_nu.size
    # one knot past formula_end per step, at most half the 3425 steps of
    # the fixed 0.01 step
    assert int(got["steps"]) == np.sum(curve.knots_nu > curve.formula_end) > 300
    assert int(got["steps"]) <= 3425 // 2
    # the predictor finds each middle crossing in about two gap evaluations,
    # and a step landing on a breakpoint takes none; only the first step
    # past the tangency, which has no crossing before it, takes the
    # bracketed solve
    assert float(got["evals/step"]) <= 2.2
    assert got["fallbacks"] == "1"


def test_sets_table(tool, capsys):
    assert tool.main(["sets", "--repeat", "1", "--n", "41"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["design", "nu_hat", "set_s", "builds", "steps", "sha256"]
    assert [r.split()[:2] for r in rows] == DESIGNS
    for row, (judges, per, a) in zip(rows, tool.JUDGE_DESIGNS):
        builds, steps, digest = row.split()[4:]
        assert 1 <= int(builds) <= int(steps)
        assert len(digest) == 16
        # one build per distinct snapped bin of the tested points, whichever
        # process built it
        data = tool.judge_design(mwiv, judges, per, a)
        ctx = mwiv.build_projection(data)
        betas = np.linspace(*mwiv.default_grid(ctx, data, 41))
        rho = [mwiv.normalized_stats(ctx, data, float(b)).rho for b in betas]
        assert int(builds) == np.unique(critval.snap_rho_to_grid(np.array(rho))).size


def test_watching_a_resumed_build(tool):
    # two prefix builds, both from the tangency: the longer one's steps
    # less the shorter one's are the steps between their stops
    prefix = mwiv.build_vtfo_curve(0.5, nu_max=12.0)
    with tool.watching(critval, "build_vtfo_curve") as calls:
        curve = critval.build_vtfo_curve(0.5, nu_max=15.0)
    assert [c.name for c in calls] == ["build_vtfo_curve"]
    assert calls[0].result is curve
    assert tool.steps(curve) - tool.steps(prefix) == curve.knots_nu.size - prefix.knots_nu.size == 66
    assert critval.build_vtfo_curve is mwiv.build_vtfo_curve


def test_cw_tables(tool, capsys):
    assert tool.main(["cw", "--repeat", "1", "--n", "41"]) == 0
    solves, sets = capsys.readouterr().out.split("\n\n")
    header, *rows = solves.splitlines()
    assert header.split() == ["rho", "solve_ms", "c_iter", "z_iter", "worst_size_err"]
    assert len(rows) == 8
    for row in rows:
        _, _, c_iter, z_iter, err = row.split()
        assert 1 <= int(c_iter) <= int(z_iter)
        assert float(err) <= 1e-12
    header, *rows = sets.splitlines()
    assert header.split() == ["design", "set_s", "rejects", "sha256"]
    assert [r.split()[:2] for r in rows] == DESIGNS


def test_profile_table(tool, capsys):
    assert tool.main(["profile", "--repeat", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["design", "build", "profile", "variance", "grid", "ms2_set", "build_mb",
                              "profile_mb", "sha256"]
    assert [r.split()[0] for r in rows] == ["dense", "judge"]
    for row in rows:
        assert len(row.split()[-1]) == 16


def test_power_table(tool, capsys):
    assert tool.main(["power", "--repeat", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["design", "deltas", "power_s", "sha256"]
    assert [r.split()[:-2] for r in rows] == [["s3", "r0.5", "3"], ["s2", "r-0.3", "3"], ["default", "41"]]
    # the digest is over the five default methods' rates, in method order
    for row, (_, s, r, deltas, seed) in zip(rows, tool.POWER_DESIGNS):
        res = mwiv.rejection_rates(mwiv.AsymptoticDGP(s=s, r=r), deltas, seed=seed)
        assert row.split()[-1] == tool.digest(*(res.rates[m] for m in ("vtfo", "cw", "ms1", "ms2", "lm")))
