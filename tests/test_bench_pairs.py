"""The paired-run tool's summary, on fixed run records; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(pair, side, wall, hits=1.0, first_pass=None):
    first = "parent" if pair % 2 == 0 else "change"
    return {"pair": pair, "side": side, "first": first, "workload": "w",
            "seed": 1, "trace": 0, "first_pass_wall_s": first_pass,
            "metrics": {"wall_s": wall, "cache.hits": hits, "ok_share": 1.0}}


def test_summary_of_fixed_runs():
    parent = [0.10, 0.12, 0.11, 0.13, 0.09]
    change = [0.08, 0.13, 0.10, 0.10, 0.09]
    runs = [run(p, "parent", w, 1.0) for p, w in enumerate(parent)]
    runs += [run(p, "change", w, 2.0 if p < 2 else 1.0) for p, w in enumerate(change)]
    runs.append(run(5, "parent", 9.9))  # no change side: not a pair
    summary = bench_pairs.summarize(runs)
    assert summary["pairs"] == 5
    wall = summary["wall_s"]
    assert wall["parent_median"] == 0.11 and wall["change_median"] == 0.10
    assert wall["parent_quartiles"] == pytest.approx([0.10, 0.12])
    assert wall["change_quartiles"] == pytest.approx([0.09, 0.10])
    assert wall["change_vs_parent"] == pytest.approx(0.10 / 0.11 - 1)
    # lower wins: pairs 0, 2, 3; pair 1 lost; pair 4 tied
    assert (wall["change_won"], wall["change_lost"]) == (3, 1)
    hits = summary["cache.hits"]  # higher wins
    assert (hits["change_won"], hits["change_lost"]) == (2, 0)
    assert hits["change_vs_parent"] == 0.0
    ok = summary["ok_share"]
    assert ok == {"parent_median": 1.0, "parent_quartiles": [1.0, 1.0],
                  "change_median": 1.0, "change_quartiles": [1.0, 1.0],
                  "change_vs_parent": 0.0, "change_won": 0, "change_lost": 0}
    zero = bench_pairs.summarize([run(0, "parent", 0.0), run(0, "change", 0.0)])
    assert zero["wall_s"]["change_vs_parent"] == 0.0
    assert bench_pairs.summarize([run(0, "parent", 0.1)]) == {"pairs": 0}
    assert bench_pairs.run_key("series-deep", 7, 1) == "series-deep_s7_t1"
    assert "first_pass_wall_s" not in summary  # no run recorded one


def test_summary_of_first_pass_times():
    # a run without a first pass (traced, or recorded before the field) leaves
    # its pair out of the first-pass medians, and out of nothing else
    runs = [run(0, "parent", 0.10, first_pass=0.30), run(0, "change", 0.08, first_pass=0.31),
            run(1, "parent", 0.10, first_pass=0.20), run(1, "change", 0.08, first_pass=0.19),
            run(2, "parent", 0.10, first_pass=0.40), run(2, "change", 0.08, first_pass=0.35),
            run(3, "parent", 0.10, first_pass=9.9), run(3, "change", 0.08)]
    del runs[1]["first_pass_wall_s"]  # a record from before the field
    summary = bench_pairs.summarize(runs)
    assert summary["pairs"] == 4 and summary["wall_s"]["change_won"] == 4
    first = summary["first_pass_wall_s"]
    assert first["pairs"] == 2
    assert first["parent_median"] == pytest.approx(0.30)
    assert first["change_median"] == pytest.approx(0.27)
    assert first["change_vs_parent"] == pytest.approx(0.27 / 0.30 - 1)


def test_a_parent_with_another_benchmark_is_refused(tmp_path, monkeypatch, capsys):
    def extract(rev, target):
        (target / "perfbench").mkdir(parents=True)
        (target / "perfbench" / "run.py").write_text("# another benchmark\n")

    def run_once(*args):
        raise AssertionError("no run may start")

    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"what": "kept"}))
    assert bench_pairs.main(["--parent", "HEAD", "--out", str(out)]) == 2
    assert "perfbench/ at HEAD differs" in capsys.readouterr().err
    assert json.loads(out.read_text()) == {"what": "kept"}


def test_pairs_alternate_the_first_side_and_interleave_the_workloads(tmp_path, monkeypatch):
    def extract(rev, target):
        for name, data in bench_pairs.tree_files(bench_pairs.ROOT / "perfbench").items():
            (target / "perfbench" / name).parent.mkdir(parents=True, exist_ok=True)
            (target / "perfbench" / name).write_bytes(data)

    calls = []

    def run_once(checkout, workload, seed, trace, seconds):
        side = "change" if checkout == bench_pairs.ROOT else "parent"
        calls.append((workload, side))
        wall = {"parent": 0.10, "change": 0.08}[side]
        return {"meta": {"passes": 11, "pass_wall_s": [2 * wall, wall, wall]},
                "result": {"correct": True, "failed": 0, "attempted": 11,
                           "metrics": {"wall_s": {"value": wall, "unit": "s"}}}}

    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD", "--out", str(out), "--workloads", "a", "b",
            "--pairs", "2", "--seeds", "7"]
    assert bench_pairs.main(argv) == 0
    assert calls == [("a", "parent"), ("a", "change"), ("b", "parent"), ("b", "change"),
                     ("a", "change"), ("a", "parent"), ("b", "change"), ("b", "parent")]
    assert bench_pairs.main(argv) == 0  # a second call adds pairs 2 and 3
    doc = json.loads(out.read_text())
    assert sorted(doc["runs"]) == sorted(doc["summary"]) == ["a_s7_t0", "b_s7_t0"]
    runs = doc["runs"]["a_s7_t0"]
    assert [(r["pair"], r["side"], r["first"]) for r in runs] == [
        (0, "parent", "parent"), (0, "change", "parent"),
        (1, "change", "change"), (1, "parent", "change"),
        (2, "parent", "parent"), (2, "change", "parent"),
        (3, "change", "change"), (3, "parent", "change"),
    ]
    assert runs[0]["seed"] == 7 and runs[0]["passes"] == 11
    assert runs[0]["first_pass_wall_s"] == 0.20 and "first_pass_wall_s" not in runs[0]["metrics"]
    wall = doc["summary"]["b_s7_t0"]["wall_s"]
    assert doc["summary"]["b_s7_t0"]["pairs"] == 4
    assert (wall["change_won"], wall["change_lost"]) == (4, 0)
    first = doc["summary"]["b_s7_t0"]["first_pass_wall_s"]
    assert (first["parent_median"], first["change_median"]) == (0.20, 0.16)
    assert bench_pairs.record(0, "parent", "parent", "w", 1, 1, {
        "meta": {"traced_passes": 3}, "result": {
            "correct": True, "failed": 0, "attempted": 3, "metrics": {}}},
    )["first_pass_wall_s"] is None
