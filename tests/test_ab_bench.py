"""The summary step of ``tools/ab_bench.py`` on canned benchmark results."""

import importlib.util
import json
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "ab_bench.py")
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

METRICS = [
    {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "input_rows_per_s", "unit": "rows/s", "better": "higher", "bound": 0.24},
]


def _line(op_s: float, rows_s: float, failed: int = 0, correct: bool = True) -> str:
    """One ``perfbench/run.py`` stdout tail: metric lines, then the JSON."""
    result = {
        "correct": correct,
        "attempted": 5,
        "failed": failed,
        "metrics": {
            "op_p50_s": {"value": op_s, "unit": "s"},
            "input_rows_per_s": {"value": rows_s, "unit": "rows/s"},
        },
    }
    return f"op_p50_s = {op_s} s\n" + json.dumps(result) + "\n"


def test_parse_seeds():
    assert ab_bench.parse_seeds("1-10") == list(range(1, 11))
    assert ab_bench.parse_seeds("1,4,7-8") == [1, 4, 7, 8]


def test_summary_medians_wins_iqr_and_flags():
    base = [(2.0, 100.0), (2.5, 90.0), (2.2, 95.0), (2.6, 80.0), (2.1, 99.0)]
    change = [(1.6, 120.0), (1.9, 110.0), (2.3, 90.0), (2.0, 100.0), (1.7, 115.0)]
    pairs = []
    for seed, ((bo, br), (co, cr)) in enumerate(zip(base, change), start=1):
        b = ab_bench.parse_run(_line(bo, br))
        c = ab_bench.parse_run(_line(co, cr, failed=1 if seed == 3 else 0, correct=seed != 4))
        pairs.append((seed, b, c))
    summary = ab_bench.summarize(pairs, METRICS)
    op, rows = summary["metrics"]

    assert op["metric"] == "op_p50_s"
    assert op["base_median"] == 2.2 and op["change_median"] == 1.9
    assert abs(op["change_pct"] - (1.9 - 2.2) / 2.2 * 100) < 1e-9
    assert op["wins"] == 4 and op["pairs"] == 5  # seed 3: 2.3 s against 2.2 s is a loss
    # base quartiles (inclusive) of [2.0, 2.1, 2.2, 2.5, 2.6] are 2.1 and 2.5
    assert abs(op["base_iqr"] - 0.4) < 1e-9
    assert op["beats_iqr"] is False  # a 0.3 s gain does not exceed the 0.4 s IQR

    assert rows["base_median"] == 95.0 and rows["change_median"] == 110.0
    assert rows["wins"] == 4  # seed 3: 90 vs 95 is a loss for a higher-is-better metric
    assert rows["beats_iqr"] is True  # +15 against an IQR of 99 - 90 = 9

    assert summary["flagged"] == [
        {"side": "change", "seed": 3, "failed": 1, "correct": True},
        {"side": "change", "seed": 4, "failed": 0, "correct": False},
    ]
    text = ab_bench.format_summary(summary)
    assert "op_p50_s" in text and "FLAG change seed 3" in text and "FLAG change seed 4" in text
