"""The summary of tools/bench_pairs.py on canned perfbench result lines."""
import importlib.util
import json
import pathlib

import pytest

_TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", _TOOLS / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _stdout(jobs_per_s, peak_rss_mb):
    report = json.dumps({"report": {"workload": "shoot"}})
    result = json.dumps({"correct": True, "attempted": 40, "failed": 0,
                         "metrics": {
                             "jobs_per_s": {"value": jobs_per_s,
                                            "unit": "1/s"},
                             "peak_rss_mb": {"value": peak_rss_mb,
                                             "unit": "MB"}}})
    return f"{report}\n{result}\n"


def test_summary_counts_wins_by_direction():
    """Medians and quartiles per side, and wins by each metric's better
    direction: higher jobs_per_s, lower peak_rss_mb; a tie counts for
    neither side."""
    runs = [((17.0, 86.0), (20.0, 87.0)), ((17.4, 86.0), (19.9, 86.0)),
            ((16.9, 86.5), (20.1, 87.5)), ((17.2, 86.2), (17.0, 86.1))]
    pairs = [tuple(bench_pairs.parse_result(_stdout(*side)) for side in run)
             for run in runs]
    rows = bench_pairs.summarize(pairs, {"jobs_per_s": "higher",
                                         "peak_rss_mb": "lower"})
    jobs, rss = rows["jobs_per_s"], rows["peak_rss_mb"]
    assert jobs["change_wins"] == 3 and jobs["base_wins"] == 1
    assert rss["change_wins"] == 1 and rss["base_wins"] == 2
    assert jobs["base"][1] == pytest.approx(17.1)
    assert jobs["change"][1] == pytest.approx(19.95)
    assert jobs["base"][0] <= jobs["base"][1] <= jobs["base"][2]
    text = bench_pairs.format_summary(rows, len(pairs))
    assert text.splitlines()[0].startswith("4 pairs")
    assert "won base 1 / change 3" in text


def test_output_without_result_line_is_rejected():
    with pytest.raises(ValueError, match="no perfbench result"):
        bench_pairs.parse_result('{"report": {}}\n')
