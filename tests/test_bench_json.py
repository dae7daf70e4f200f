"""tools/bench_json.py on canned perfbench runs: the BENCH file, the paired
comparison, the run schedule and the tools' imports."""
import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

_TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location(
    "bench_json", _TOOLS / "bench_json.py")
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)

BENCH = {"run_seconds": 30,
         "end_to_end": [{"name": "jobs_per_s", "unit": "1/s",
                         "better": "higher", "bound": 0.25},
                        {"name": "peak_rss_mb", "unit": "MB",
                         "better": "lower", "bound": 0.1}]}
REPORT = {"workload": "shoot", "git_rev": None, "source_digest": "0123abcd",
          "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.0",
          "nproc": 2, "metrics_file": ".perfbench_out/report.json"}


def _stdout(report=REPORT, failed=0, **values):
    """A perfbench run's stdout: its report line (none when report is
    None) and its result line with the given metric values."""
    result = json.dumps({"correct": not failed, "attempted": 40,
                         "failed": failed,
                         "metrics": {n: {"value": v, "unit": ""}
                                     for n, v in values.items()}})
    if report is None:
        return result + "\n"
    return json.dumps({"report": report}) + "\n" + result + "\n"


def _pairs(runs):
    """Pairs of parsed results from runs, {metric: (base values, change
    values)}, one pair per index, and the metrics, each bound 0.25 and
    lower better but jobs_per_s."""
    n = len(next(iter(runs.values()))[0])
    metrics = [{"name": name, "unit": "", "bound": 0.25,
                "better": "higher" if name == "jobs_per_s" else "lower"}
               for name in runs]
    pairs = [tuple(bench_json.parse_result(_stdout(
        **{name: sides[side][j] for name, sides in runs.items()}))
        for side in (0, 1)) for j in range(n)]
    return pairs, metrics


def test_record_gives_quartiles_and_versions():
    """Five runs of one workload give each metric's quartiles and median
    with every run's value, and the report line gives the source digest,
    versions and core count; a failed run is listed and counts for no
    metric."""
    runs = [bench_json.parse_result(_stdout(jobs_per_s=j, peak_rss_mb=m))
            for j, m in [(20.0, 86.0), (21.0, 87.0), (19.0, 86.5),
                         (22.0, 86.0), (20.5, 88.0)]]
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


def test_summary_counts_wins_by_direction():
    """Medians and quartiles per side, and wins by each metric's better
    direction: higher jobs_per_s, lower peak_rss_mb; a tie counts for
    neither side."""
    pairs, metrics = _pairs({
        "jobs_per_s": ([17.0, 17.4, 16.9, 17.2], [20.0, 19.9, 20.1, 17.0]),
        "peak_rss_mb": ([86.0, 86.0, 86.5, 86.2], [87.0, 86.0, 87.5, 86.1])})
    rows = bench_json.compare(pairs, metrics)
    jobs, rss = rows["jobs_per_s"], rows["peak_rss_mb"]
    assert jobs["change_wins"] == 3 and jobs["base_wins"] == 1
    assert rss["change_wins"] == 1 and rss["base_wins"] == 2
    assert jobs["base"]["median"] == pytest.approx(17.1)
    assert jobs["change"]["median"] == pytest.approx(19.95)
    assert jobs["base"]["q1"] <= jobs["base"]["median"] <= jobs["base"]["q3"]
    text = bench_json.format_summary(rows, len(pairs))
    assert text.splitlines()[0].startswith("4 pairs")
    assert "won base 1 / change 3" in text


def test_output_without_result_line_is_rejected():
    with pytest.raises(ValueError, match="no perfbench result"):
        bench_json.parse_result('{"report": {}}\n')
    with pytest.raises(ValueError, match="no perfbench report"):
        bench_json.parse_result(_stdout(report=None, jobs_per_s=1.0))


def test_verdict_against_each_metric_bound():
    """A change median worse than the base median by more than the bound
    is worse beyond it; a base whose quartiles spread wider than the bound
    leaves the verdict unresolved unless every change run beats every base
    run; a change that wins every pair by more than the base's spread is
    a gain."""
    pairs, metrics = _pairs({
        "jobs_per_s": ([17.0, 17.4, 16.9, 17.2], [20.0, 19.9, 20.1, 17.0]),
        "job_tail_s": ([1.0, 1.0, 1.1, 1.0], [1.5, 1.4, 1.6, 1.5]),
        "setup_s": ([0.8, 1.2, 0.6, 1.3], [0.9, 1.0, 0.7, 1.1]),
        "job_p50_s": ([0.8, 1.2, 0.6, 1.3], [0.5, 0.55, 0.4, 0.5])})
    rows = bench_json.compare(pairs, metrics)
    assert {n: r["verdict"] for n, r in rows.items()} == {
        "jobs_per_s": "within bound", "job_tail_s": "worse beyond bound",
        "setup_s": "unresolved", "job_p50_s": "gain"}
    lines = bench_json.format_summary(rows, len(pairs)).splitlines()
    assert lines[2].startswith("job_tail_s")
    assert lines[2].endswith("worse beyond bound")
    assert lines[3].endswith("unresolved")


@pytest.mark.parametrize("change_wins,ahead,expected", [
    (9, 1.0, "gain"), (8, 1.0, "within bound"), (10, 0.3, "within bound")])
def test_gain_needs_nine_pairs_in_ten_and_the_base_spread(change_wins, ahead,
                                                          expected):
    """Ten pairs whose base runs spread 0.45 between their quartiles: the
    change is a gain when it wins 9 of them and its median is ahead by
    more than that spread; 8 wins, or a lead within the spread, is not."""
    base = [10.0 + 0.1 * j for j in range(10)]
    change = [b + ahead if j < change_wins else b - 0.1
              for j, b in enumerate(base)]
    pairs, metrics = _pairs({"jobs_per_s": (base, change)})
    row = bench_json.compare(pairs, metrics)["jobs_per_s"]
    assert row["base"]["q3"] - row["base"]["q1"] == pytest.approx(0.45)
    assert row["change_wins"] == change_wins
    assert row["verdict"] == expected


def _report_file(root, name, walls):
    """A canned report file under root/.perfbench_out with one record per
    (slot, label, wall seconds), and the result whose report line names
    it."""
    records = [{"slot": slot, "label": label, "wall_s": wall, "ok": True}
               for slot, label, wall in walls]
    out = root / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(json.dumps({"meta": {},
                                        "report": {"records": records}}))
    return bench_json.parse_result(_stdout(
        report={"metrics_file": f".perfbench_out/{name}"}, jobs_per_s=1.0))


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
            result["slots"] = bench_json.read_slots(tmp_path, result)
            pair.append(result)
        pairs.append(tuple(pair))
    assert pairs[0][0]["slots"] == {"0 simulate.sphere": 0.012,
                                    "1 descend.cosine": 0.082,
                                    "2 descend.cosine": 0.041}
    lines = bench_json.format_slots(pairs).splitlines()
    assert lines[0].startswith("per slot")
    assert [line.split()[:2] for line in lines[1:]] == [
        ["0", "simulate.sphere"], ["1", "descend.cosine"],
        ["2", "descend.cosine"]]
    assert lines[1].endswith("0.0125 -> 0.0115  (0.920)")
    assert lines[2].endswith("0.123 -> 0.09  (0.732)")


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


def _main(monkeypatch, tmp_path, no_line=(), no_file=()):
    """main(--rev basea --rev chngb) on BENCHMARK.json's shoot and survey
    in a repository at tmp_path, each export an empty directory and each
    perfbench run canned: a report file in its directory and its report
    and result lines, jobs_per_s 20 in basea's export and 21 in chngb's.
    A (rev, workload, seed) in no_line prints no report line, one in
    no_file writes no report file.  Returns main's exit code, the export
    directories and the (directory, workload, seed) of every run."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(dict(
        BENCH, workloads=[{"name": "shoot"}, {"name": "survey"}])))
    exports, calls = [], []

    def export(rev, dest):
        exports.append(dest)
        os.makedirs(dest)

    def run(cmd, cwd, **kwargs):
        workload = cmd[cmd.index("--workload") + 1]
        seed = int(cmd[cmd.index("--seed") + 1])
        calls.append((cwd, workload, seed))
        key = (os.path.basename(cwd), workload, seed)
        name = f"report-{workload}-{seed}.json"
        if key not in no_file:
            _report_file(pathlib.Path(cwd), name, [(0, workload, 0.01)])
        report = None if key in no_line else dict(
            REPORT, metrics_file=f".perfbench_out/{name}")
        stdout = _stdout(report, jobs_per_s=20.0 if cwd.endswith("a")
                         else 21.0, peak_rss_mb=86.0)
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(bench_json, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_json, "_export", export)
    monkeypatch.setattr(bench_json, "_git", lambda *args: args[-1][:4]
                        if "--short" in args else args[-1])
    monkeypatch.setattr(bench_json.subprocess, "run", run)
    code = bench_json.main(["--rev", "basea", "--rev", "chngb"])
    return code, exports, calls


def test_main_runs_only_exported_trees(monkeypatch, tmp_path, capsys):
    """With two revisions every (seed, workload) runs once per revision,
    always in a git-archive export and never in the repository; both
    BENCH files are written and each workload's comparison is printed,
    the verdicts and per-slot ratios included."""
    code, exports, calls = _main(monkeypatch, tmp_path)
    assert code == 0
    assert sorted(os.path.basename(d) for d in exports) == ["basea", "chngb"]
    assert {cwd for cwd, _, _ in calls} == set(exports)
    assert sorted((os.path.basename(cwd), w, s) for cwd, w, s in calls) == \
        sorted((rev, w, s) for rev in ("basea", "chngb")
               for w in ("shoot", "survey") for s in range(1, 11))
    for short in ("base", "chng"):
        record = json.loads((tmp_path / f"BENCH_{short}.json").read_text())
        assert record["workloads"]["shoot"]["runs"] == 10
    out = capsys.readouterr().out
    assert "shoot: chng against base\n10 pairs;" in out
    assert "survey: chng against base\n10 pairs;" in out
    assert "won base 0 / change 10  gain" in out
    assert "0 survey" in out and "(1.000)" in out


def test_run_without_report_fails_only_its_run(monkeypatch, tmp_path,
                                               capsys):
    """A run whose stdout has a result line but no report line before it,
    or whose report file is missing, goes under failed_runs and drops its
    pair; the other runs go on and main exits 1."""
    code, _, calls = _main(monkeypatch, tmp_path,
                           no_line={("chngb", "shoot", 2)},
                           no_file={("basea", "survey", 5)})
    assert code == 1 and len(calls) == 40
    failed = {short: json.loads((tmp_path / f"BENCH_{short}.json")
                                .read_text())["failed_runs"]
              for short in ("base", "chng")}
    assert [(f["workload"], f["seed"]) for f in failed["chng"]] == [
        ("shoot", 2)]
    assert "no perfbench report line" in failed["chng"][0]["error"]
    assert [(f["workload"], f["seed"]) for f in failed["base"]] == [
        ("survey", 5)]
    assert "No such file" in failed["base"][0]["error"]
    out = capsys.readouterr().out
    assert "shoot: chng against base\n9 pairs;" in out
    assert "survey: chng against base\n9 pairs;" in out


def test_tools_import_only_the_standard_library():
    """Every tool imports standard-library modules only, nothing from
    magsurf or perfbench, so it runs any revision's tree as it stands."""
    for path in _TOOLS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, path
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top not in ("magsurf", "perfbench"), (path, name)
                assert top in sys.stdlib_module_names, (path, name)
