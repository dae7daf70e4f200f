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


def _result(**values):
    return json.dumps({"correct": True, "attempted": 40, "failed": 0,
                       "metrics": {n: {"value": v, "unit": ""}
                                   for n, v in values.items()}})


def test_verdict_against_each_metric_bound():
    """A change median worse than the base median by more than the bound
    is worse beyond it; a base whose quartiles spread wider than the bound
    leaves the verdict unresolved unless every change run beats every base
    run."""
    runs = {"jobs_per_s": ([17.0, 17.4, 16.9, 17.2], [20.0, 19.9, 20.1, 17.0]),
            "job_tail_s": ([1.0, 1.0, 1.1, 1.0], [1.5, 1.4, 1.6, 1.5]),
            "setup_s": ([0.8, 1.2, 0.6, 1.3], [0.9, 1.0, 0.7, 1.1]),
            "job_p50_s": ([0.8, 1.2, 0.6, 1.3], [0.5, 0.55, 0.4, 0.5])}
    pairs = [tuple(bench_pairs.parse_result(_result(
        **{n: sides[side][j] for n, sides in runs.items()}))
        for side in (0, 1)) for j in range(4)]
    better = {"jobs_per_s": "higher", "job_tail_s": "lower",
              "setup_s": "lower", "job_p50_s": "lower"}
    rows = bench_pairs.summarize(pairs, better, dict.fromkeys(better, 0.25))
    assert {n: r["verdict"] for n, r in rows.items()} == {
        "jobs_per_s": "within bound", "job_tail_s": "worse beyond bound",
        "setup_s": "unresolved", "job_p50_s": "within bound"}
    lines = bench_pairs.format_summary(rows, len(pairs)).splitlines()
    assert lines[2].startswith("job_tail_s")
    assert lines[2].endswith("worse beyond bound")
    assert lines[3].endswith("unresolved")


def _report_file(root, name, walls):
    """A canned report file under root/.perfbench_out with one record per
    (slot, label, wall seconds), and the result whose report line names
    it."""
    records = [{"slot": slot, "label": label, "wall_s": wall, "ok": True}
               for slot, label, wall in walls]
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / name).write_text(json.dumps({"meta": {},
                                        "report": {"records": records}}))
    return bench_pairs.parse_result(
        json.dumps({"report": {"metrics_file": f".perfbench_out/{name}"}})
        + "\n" + _result(jobs_per_s=1.0))


def test_slot_medians_from_report_files(tmp_path):
    """Each run's slot median comes from the records of its report file,
    keyed by slot and label (two slots may share a label); the summary
    gives each side's median over its runs, and the ratio."""
    cycles = {"base": [(0, 0.010, 0.080), (0, 0.012, 0.084),
                       (0, 0.011, 0.082)],
              "change": [(0, 0.010, 0.060), (0, 0.009, 0.062),
                         (0, 0.011, 0.058)]}
    pairs = []
    for seed in (1, 2):
        pair = []
        for side, rows in cycles.items():
            walls = []
            for _, sim, desc in rows:
                walls += [(0, "simulate.sphere", sim + 0.001 * seed),
                          (1, "descend.cosine", desc * seed),
                          (2, "descend.cosine", 0.5 * desc * seed)]
            result = _report_file(tmp_path, f"{side}-{seed}.json", walls)
            result["slots"] = bench_pairs.read_slots(tmp_path, result)
            pair.append(result)
        pairs.append(tuple(pair))
    assert pairs[0][0]["slots"] == {"0 simulate.sphere": 0.012,
                                    "1 descend.cosine": 0.082,
                                    "2 descend.cosine": 0.041}
    rows = bench_pairs.summarize_slots(pairs)
    assert list(rows) == ["0 simulate.sphere", "1 descend.cosine",
                          "2 descend.cosine"]
    assert rows["0 simulate.sphere"] == pytest.approx((0.0125, 0.0115))
    assert rows["1 descend.cosine"] == pytest.approx((0.123, 0.09))
    lines = bench_pairs.format_slots(rows).splitlines()
    assert lines[0].startswith("per slot")
    assert lines[2].startswith("1 descend.cosine")
    assert lines[2].endswith("(0.732)")
