import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_bench.py"
METRICS = ["setup_s", "batch_s", "job_ms_p50", "job_ms_tail", "peak_rss_mb"]


def _tool():
    spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seeds_and_run_order():
    ab = _tool()
    assert ab.parse_seeds("230-233") == [230, 231, 232, 233]
    assert ab.parse_seeds("1,4,7") == [1, 4, 7]
    assert ab.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert [ab.run_order(i)[0] for i in range(4)] == [
        "parent", "change", "parent", "change"]
    assert all(sorted(ab.run_order(i)) == ["change", "parent"]
               for i in range(4))


def test_run_record_reads_the_result_line():
    ab = _tool()
    result = {"correct": True, "attempted": 812, "failed": 0,
              "metrics": {m: {"value": i / 10, "unit": "s"}
                          for i, m in enumerate(METRICS)}}
    stdout = "workload=cohomology seed=3\nbatch_s 0.1 s\n%s\n" % (
        json.dumps(result))
    assert ab.run_record(3, 1, ab.result_line(stdout), METRICS) == {
        "seed": 3, "pair": 1, "attempted": 812, "failed": 0, "setup_s": 0.0,
        "batch_s": 0.1, "job_ms_p50": 0.2, "job_ms_tail": 0.3,
        "peak_rss_mb": 0.4}


def test_summary_reproduces_a_recorded_one():
    # BENCH_23.json's summary was computed from its runs without this tool
    recorded = json.loads((ROOT / "BENCH_23.json").read_text())
    assert _tool().summarize(recorded["runs"], METRICS) == recorded["summary"]


def test_summary_counts_and_quartiles():
    ab = _tool()
    runs = {"w": {side: [{"seed": 10 + i, "pair": i, "attempted": 100,
                          "failed": i == 2 and side == "change",
                          "batch_s": value}
                         for i, value in enumerate(values)]
                  for side, values in (("parent", [4, 1, 3, 2]),
                                       ("change", [2, 2, 2, 1]))}}
    summary = ab.summarize(runs, ["batch_s"])["w"]
    assert summary["seeds"] == [10, 11, 12, 13]
    assert summary["metrics"] == {
        "batch_s": {"parent_q1_median_q3": [1.75, 2.5, 3.25],
                    "change_q1_median_q3": [1.75, 2.0, 2.0],
                    "change_over_parent_median": 0.8,
                    "change_lower_pairs": 3, "pairs": 4},
        "failed": {"parent": 0, "change": 1, "attempted_parent": 400,
                   "attempted_change": 400}}
    assert ab.quartiles([0.123456]) == [0.12346] * 3
