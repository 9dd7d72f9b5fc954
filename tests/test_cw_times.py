"""tools/cw_times.py: its tables, run on this checkout."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool():
    spec = importlib.util.spec_from_file_location("cw_times", os.path.join(ROOT, "tools", "cw_times.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tables(capsys):
    assert load_tool().main(["--repeat", "1", "--n", "41"]) == 0
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
    assert [r.split()[:2] for r in rows] == [["40x10", "+-1.5"], ["100x8", "+-1.0"], ["32x10", "+-0.3"]]
