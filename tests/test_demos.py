"""The quick demos run to completion from a clean environment.

Each demo runs in its own interpreter against the source tree, with a
fresh HOME and curve cache directory so that nothing outside the test's
temporary directory is read or written. The power-curve demo writes into
``demos/`` and the confidence-set demo takes over ten seconds; both are
left out.
"""

import math
import os
import re
import subprocess
import sys

import pytest
from scipy.stats import norm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(name, tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "HOME": str(tmp_path),
        "MWIV_CACHE_DIR": str(tmp_path / "cache"),
    }
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_estimate_and_test(tmp_path):
    out = run_demo("01_estimate_and_test.py", tmp_path)
    assert "point estimate" in out
    assert re.search(r"^testing beta0 = 1\.0$", out, re.M)


def test_critical_curve_tangency(tmp_path):
    out = run_demo("02_critical_curve.py", tmp_path)
    onsets = re.findall(r"^rho = (\S+)\n.*\n  tangency +T = (\S+),", out, re.M)
    assert [rho for rho, _ in onsets] == ["0.3", "0.5", "0.9"]
    for rho, t_tilde in onsets:
        nu_star = float(rho) * norm.ppf(0.95)
        assert t_tilde == f"{(3.0 + 2.0 * math.sqrt(2.0)) * nu_star:.4f}"
