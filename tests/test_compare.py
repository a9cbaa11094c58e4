import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "perf" / "compare.py"
spec = importlib.util.spec_from_file_location("perf_compare", PATH)
compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare)


def runs(values):
    """One side's runs, from (run_s, evals_per_s) per round; the other metrics fixed."""
    return [{"scaled": {"setup_s": 1.0, "run_s": r, "evals_per_s": e, "peak_rss_mb": 80.0},
             "as_measured": {"setup_s": 1.0, "run_s": r, "evals_per_s": e, "peak_rss_mb": 80.0}}
            for r, e in values]


def test_summary_counts_wins_bounds_and_control_noise():
    summary = compare.summarize({
        "base": runs([(1.0, 100.0), (1.2, 90.0), (1.1, 95.0), (1.3, 80.0)]),
        "head": runs([(1.4, 100.0), (1.1, 95.0), (1.1, 96.0), (1.5, 70.0)]),
        "ctrl": runs([(1.3, 110.0), (1.2, 95.0), (1.0, 96.0), (1.4, 75.0)]),
    })
    for kind in ("scaled", "as_measured"):
        run_s, evals = summary[kind]["run_s"], summary[kind]["evals_per_s"]
        assert run_s["base"] == pytest.approx({"median": 1.15, "q1": 1.075, "q3": 1.225})
        assert run_s["head"]["median"] == pytest.approx(1.25)
        # head is lower in round 1 only; round 2 ties
        assert run_s["head_vs_base"]["head_won"] == 1
        assert run_s["head_vs_base"]["worse_by"] == pytest.approx(0.1 / 1.15)
        assert run_s["head_vs_base"]["within_bound"]  # the bound is 25%
        # higher is better: head beats base in rounds 1 and 2, ties round 0, loses round 3
        assert evals["head_vs_base"]["head_won"] == 2
        # ctrl's median 1.25 equals head's: within noise; it wins rounds 0, 2 and 3
        assert run_s["ctrl_vs_head"] == {"ratio": pytest.approx(1.0), "ctrl_won": 3,
                                         "within_noise": True}
        assert summary[kind]["peak_rss_mb"]["head_vs_base"]["ratio"] == 1.0


def test_worse_by_more_than_the_bound_and_control_outside_noise():
    summary = compare.summarize({
        "base": runs([(1.0, 100.0), (1.0, 100.0)]),
        "head": runs([(1.3, 100.0), (1.3, 100.0)]),
        "ctrl": runs([(1.4, 100.0), (1.4, 100.0)]),
    })["scaled"]["run_s"]
    assert not summary["head_vs_base"]["within_bound"]
    assert summary["head_vs_base"]["head_won"] == 0
    assert not summary["ctrl_vs_head"]["within_noise"]


def test_record_keeps_the_first_machine_a_run_reports(tmp_path, monkeypatch):
    for part in ("bench/run.py", "src/vropt/__init__.py"):
        (tmp_path / part).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / part).write_text("")
    results = iter([{"correct": False, "error": "exit 1"}]
                   + [{"correct": True, "scaled": {}, "as_measured": {}, "machine": {"nproc": 2}}]
                   * (3 * compare.PAIRS * len(compare.WORKLOADS) - 1))
    monkeypatch.setattr(compare, "stage", lambda tree, dest: None)
    monkeypatch.setattr(compare, "run_once", lambda tree, workload: dict(next(results)))
    out = tmp_path / "record.json"
    assert compare.main([str(tmp_path), "--out", str(out)]) == 1
    record = json.loads(out.read_text())
    assert record["machine"] == {"nproc": 2}
    assert (record["seed"], record["seconds"]) == (1, compare.BENCHMARK["run_seconds"])
