"""tools/bench_pairs.py: the per-metric verdicts of its summary."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summary(parent, change):
    pairs = [{"parent": {"metrics": {"wall_s": {"value": a}}}, "change": {"metrics": {"wall_s": {"value": b}}}}
             for a, b in zip(parent, change)]
    return load_tool().summarize(pairs, SPEC)["wall_s"]


def test_unresolved_when_the_parent_spreads_past_the_bound():
    # parent quartiles 0.5 and 1.5 around a median of 1.0: IQR/median 1.0 > 0.25
    wide = [0.0, 0.5, 1.0, 1.5, 2.0]
    assert summary(wide, [1.0, 1.1, 1.2, 1.3, 1.4])["unresolved"]
    # unless every run of the change reads better than every parent run
    assert not summary(wide, [-0.5, -0.4, -0.3, -0.2, -0.1])["unresolved"]
    narrow = [1.0, 1.01, 1.02, 1.03, 1.04]
    assert not summary(narrow, [1.0, 1.1, 1.2, 1.3, 1.4])["unresolved"]
