"""tools/size_scan.py: its tables, run on this checkout."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool():
    spec = importlib.util.spec_from_file_location("size_scan", os.path.join(ROOT, "tools", "size_scan.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_table(capsys):
    assert load_tool().main(["--rho", "0.5,0.9999", "--t", "1e-3,0.1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["rho", "1e-03", "1e-01", "worst"]
    assert [r.split()[0] for r in rows] == ["0.5000", "0.9999"]
    for row in rows:
        errs = [float(x) for x in row.split()[1:3]]
        assert float(row.split()[3]) == max(map(abs, errs)) <= 1e-6


def test_dense(capsys):
    # 20 uniform T on [t_tilde, t_last] and 50 geometric ones past t_tilde
    assert load_tool().main(["--rho", "0.5", "--dense", "20"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["rho", "t_tilde", "t_last", "near", "at_T", "tail", "at_T", "scan_s"]
    rho, t_tilde, t_last, near, at_near, tail, at_tail, _ = map(float, row.split())
    assert rho == 0.5 and t_tilde <= at_near <= t_tilde + 2.0 < at_tail <= t_last
    assert max(near, tail) <= 1e-6
