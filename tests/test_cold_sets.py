"""tools/cold_sets.py: its table, and its step counter on a resumed build."""

import importlib.util
import os

import mwiv
from mwiv import critval

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool():
    spec = importlib.util.spec_from_file_location("cold_sets", os.path.join(ROOT, "tools", "cold_sets.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_table(capsys):
    assert load_tool().main(["--repeat", "1", "--n", "41"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["design", "nu_hat", "set_s", "builds", "steps", "sha256"]
    assert [r.split()[:2] for r in rows] == [["40x10", "+-1.5"], ["100x8", "+-1.0"], ["32x10", "+-0.3"]]
    for row in rows:
        builds, steps, digest = row.split()[4:]
        assert 1 <= int(builds) <= int(steps)
        assert len(digest) == 16


def test_counter_on_a_resumed_build():
    prefix = mwiv.build_vtfo_curve(0.5, nu_max=12.0)
    with load_tool().counting(critval) as counts:
        curve = critval.build_vtfo_curve(0.5, nu_max=15.0, prefix=prefix)
    assert counts == [1, curve.knots_nu.size - prefix.knots_nu.size]
    assert counts[1] > 0
