"""tools/build_times.py: one row of its table, run on this checkout."""

import importlib.util
import os

from mwiv import build_vtfo_curve

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool():
    spec = importlib.util.spec_from_file_location("build_times", os.path.join(ROOT, "tools", "build_times.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_rho_row(capsys):
    assert load_tool().main(["--rho", "0.5", "--repeat", "1"]) == 0
    header, row, *rest = capsys.readouterr().out.splitlines()
    assert rest == []
    got = dict(zip(header.split(), row.split()))
    assert list(got) == ["rho", "alpha", "knots", "build_s", "closed_s", "cont_s", "steps", "evals/step",
                         "fallbacks", "prefix_s", "p_knots", "csv_rows", "csv_s"]
    curve = build_vtfo_curve(0.5, 0.05)
    assert int(got["knots"]) == curve.knots_nu.size
    assert int(got["steps"]) == round((curve.t_last - curve.t_tilde) / 0.01) > 3000
    # the predictor finds each middle crossing in about two gap evaluations;
    # only the first step past the tangency, which has no crossing before
    # it, takes the bracketed solve
    assert float(got["evals/step"]) <= 2.2
    assert got["fallbacks"] == "1"
