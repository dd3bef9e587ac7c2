"""The verdicts of tools/bench_pairs.py's summary lines."""

import importlib.util
import os

import pytest

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def _metric(parent, change, iqr, won, pairs=10, better="lower"):
    return {"better": better, "pairs_won": won, "pairs": pairs,
            "parent": {"median": parent, "iqr": iqr},
            "change": {"median": change, "iqr": iqr}}


@pytest.mark.parametrize("metric, bound, want", [
    # 9 of 10 pairs and a median gain beyond the parent's IQR
    (_metric(0.20, 0.13, 0.01, 9), 0.25, "gain"),
    (_metric(40.0, 50.0, 1.0, 10, better="higher"), 0.25, "gain"),
    # 8 of 10 pairs is no gain, nor is a gain inside the IQR
    (_metric(0.20, 0.13, 0.01, 8), 0.25, "within bound"),
    (_metric(0.20, 0.195, 0.01, 10), 0.25, "within bound"),
    # of 12 pairs, 11 won is at least 9/10 and 10 is not
    (_metric(0.20, 0.13, 0.01, 11, pairs=12), 0.25, "gain"),
    (_metric(0.20, 0.13, 0.01, 10, pairs=12), 0.25, "within bound"),
    # worse by more than the relative bound, in either direction
    (_metric(20.0, 22.5, 0.1, 0), 0.1, "worse than bound"),
    (_metric(40.0, 29.0, 1.0, 0, better="higher"), 0.25, "worse than bound"),
    (_metric(20.0, 21.9, 0.1, 0), 0.1, "within bound"),
    # the parent's own spread exceeds the bound
    (_metric(0.20, 0.21, 0.06, 3), 0.25, "unresolved"),
    (_metric(0.20, 0.30, 0.06, 0), 0.25, "worse than bound"),
])
def test_verdict(metric, bound, want):
    assert bench_pairs.verdict(metric, bound) == want
    line = bench_pairs.summary_line("w seed=1 trace=0", "wall_s", metric,
                                    30, bound)
    assert line.endswith(": " + want)
