"""The BENCH file of tools/bench_json.py on canned perfbench runs."""
import importlib.util
import json
import pathlib
import sys

import pytest

_TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(_TOOLS))
_spec = importlib.util.spec_from_file_location(
    "bench_json", _TOOLS / "bench_json.py")
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)
import bench_pairs  # noqa: E402  (from tools/, which bench_json puts first)

BENCH = {"run_seconds": 30,
         "end_to_end": [{"name": "jobs_per_s", "unit": "1/s",
                         "better": "higher", "bound": 0.25},
                        {"name": "peak_rss_mb", "unit": "MB",
                         "better": "lower", "bound": 0.1}]}


def _stdout(jobs_per_s, peak_rss_mb, failed=0):
    report = json.dumps({"report": {
        "workload": "shoot", "git_rev": None, "source_digest": "0123abcd",
        "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.0",
        "nproc": 2}})
    result = json.dumps({"correct": not failed, "attempted": 40,
                         "failed": failed, "metrics": {
                             "jobs_per_s": {"value": jobs_per_s,
                                            "unit": "1/s"},
                             "peak_rss_mb": {"value": peak_rss_mb,
                                             "unit": "MB"}}})
    return f"{report}\n{result}\n"


def test_record_gives_quartiles_and_versions():
    """Five runs of one workload give each metric's quartiles and median
    with every run's value, and the report line gives the source digest,
    versions and core count; a failed run is listed and counts for no
    metric."""
    runs = [bench_pairs.parse_result(_stdout(*v)) for v in
            [(20.0, 86.0), (21.0, 87.0), (19.0, 86.5), (22.0, 86.0),
             (20.5, 88.0)]]
    failed = [{"workload": "threshold", "seed": 1, "error": "exit 1"}]
    record = bench_json.bench_record("f" * 40, "fffffff",
                                     {"shoot": runs, "threshold": []},
                                     failed, BENCH)
    assert record["src_digest"] == "0123abcd"
    assert (record["python"], record["numpy"], record["nproc"]) == (
        "3.11.7", "2.4.6", 2)
    assert "2-core" in record["note"]
    assert "--seconds 30 " in record["command"]
    shoot = record["workloads"]["shoot"]
    assert shoot["runs"] == 5 and shoot["failed_jobs"] == 0
    jobs = shoot["metrics"]["jobs_per_s"]
    assert jobs["median"] == 20.5
    assert (jobs["q1"], jobs["q3"]) == pytest.approx((20.0, 21.0))
    assert jobs["values"] == [20.0, 21.0, 19.0, 22.0, 20.5]
    assert shoot["metrics"]["peak_rss_mb"]["better"] == "lower"
    assert record["workloads"]["threshold"]["metrics"]["jobs_per_s"][
        "median"] is None
    assert record["failed_runs"] == failed
    json.dumps(record)


def test_run_order_interleaves_revisions():
    """Each workload's turn runs every revision, in the given order at odd
    seeds and reversed at even ones; every revision gets every seed of
    every workload once."""
    order = bench_json.run_order(["a", "b"], ["shoot", "survey"], runs=3)
    assert order[:4] == [(1, "shoot", "a"), (1, "shoot", "b"),
                         (1, "survey", "a"), (1, "survey", "b")]
    assert order[4:8] == [(2, "shoot", "b"), (2, "shoot", "a"),
                          (2, "survey", "b"), (2, "survey", "a")]
    assert order[8:10] == [(3, "shoot", "a"), (3, "shoot", "b")]
    assert sorted(order) == sorted((seed, name, rev) for seed in (1, 2, 3)
                                   for name in ("shoot", "survey")
                                   for rev in "ab")
    assert bench_json.run_order(["a"], ["shoot"], runs=2) == [
        (1, "shoot", "a"), (2, "shoot", "a")]
