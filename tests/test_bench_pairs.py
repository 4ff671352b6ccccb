"""scripts/bench_pairs.py: the per-workload summary of alternating base/change runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(pass_s, hits, failed=0, attempted=3):
    return {"seed": 0, "correct": True, "attempted": attempted, "failed": failed,
            "metrics": {"pass_s": pass_s, "hits": hits}}


def test_summary_counts_wins_by_direction_and_skips_broken_pairs():
    runs = {"w": {
        "base": [run(10.0, 5, failed=1), run(12.0, 5, failed=1), run(11.0, 5),
                 run(9.0, 5), run(10.0, 5)],
        "change": [run(5.0, 6, failed=1, attempted=6), run(6.0, 4), run(13.0, 6),
                   {"seed": 0, "error": "exit 1"}, run(7.0, 5)],
    }}
    s = bench_pairs.summarize(runs, {"pass_s": "lower", "hits": "higher"})["w"]
    assert s["pairs"] == 4  # the pair with a broken run is left out
    assert s["failed_share"] == {"base": 2 / 12, "change": 1 / 15}
    p = s["metrics"]["pass_s"]
    assert p["change_wins"] == 3  # lower is better: 5 < 10, 6 < 12, 7 < 10
    assert p["base"]["median"] == 10.5 and p["change"]["median"] == 6.5
    assert (p["base"]["q1"], p["base"]["q3"]) == (10.0, 11.25)
    assert p["median_gap_exceeds_base_iqr"]
    h = s["metrics"]["hits"]
    assert h["better"] == "higher" and h["change_wins"] == 2  # ties count for neither side
    assert h["change"]["median"] == 5.5 and h["median_gap_exceeds_base_iqr"]
