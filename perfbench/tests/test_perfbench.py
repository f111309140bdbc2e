"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REQUIRED_E2E = {
    "setup_s": "s", "wall_s": "s", "wall_tail_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MB",
}
REQUIRED_LAYERS = (
    "cli.self_s graph.build_s graph.calls graph.vertices_max graph.edges_max "
    "clusters.general_s clusters.general_calls clusters.memo_states "
    "clusters.cells clusters.single_s clusters.oracle_s "
    "kernels.distribution_s kernels.linext_s kernels.linext_calls "
    "monotone.recurrence_s monotone.emit_s monotone.verify_s "
    "series.shift_s series.reciprocal_s series.ops_s series.alpha_s "
    "series.terms series.coeff_bits_max equivalence.bijection_s "
    "equivalence.theorem13_checks equivalence.iso_s cache.key_s "
    "cache.key_calls cache.io_s cache.hits cache.misses trace_overhead_s"
).split()

SMALL = workloads.Op("count 123 --n 6", "cli", "alpha",
                     ("count", "@123", "--n", "6"), (("123", ("123",)),))


@pytest.fixture(autouse=True)
def sources(monkeypatch):
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "SRC", ROOT / "src")


@pytest.fixture
def checkout(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.delenv("CLUSTERPERM_CACHE_DIR", raising=False)
    return tmp_path


def small_setup(work):
    cp = run.import_program()
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    return cp, workloads.write_inputs([SMALL], inputs)


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_METRICS
    assert layer == layers.LAYER_METRICS
    assert REQUIRED_E2E.items() <= e2e.items()
    assert set(REQUIRED_LAYERS) <= set(layer)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_exactly_the_declared_metrics(checkout, monkeypatch, trace):
    monkeypatch.setattr(workloads, "build", lambda *a: (SMALL,))
    monkeypatch.setattr(run, "MIN_PASSES", 2)
    monkeypatch.setattr(run, "MIN_TRACE_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    args = argparse.Namespace(workload="avoid-count", seed=3, seconds=0,
                              trace=trace)
    meta, result = run.measure(args, checkout / "work")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = layers.LAYER_METRICS if trace else run.E2E_METRICS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert meta["seed"] == 3 and meta["backend"] in ("pure", "compiled")
    if trace:
        assert result["metrics"]["clusters.general_s"]["value"] > 0
        assert result["metrics"]["graph.calls"]["value"] == 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_and_follows_the_seed(name):
    cp = run.import_program()
    make, reject = cp.graph.PatternCollection, cp.perms.DomainError
    first = workloads.build(name, 1, make, reject)
    assert workloads.build(name, 1, make, reject) == first
    assert workloads.build(name, 2, make, reject) != first
    assert len({op.id for op in first}) == len(first)
    for seed in range(1, 6):
        for op in workloads.build(name, seed, make, reject):
            for _, patterns in op.files:
                checks.collection(cp, patterns)  # reduced, or it raises


def test_every_default_seed_op_has_a_stored_digest():
    cp = run.import_program()
    expected = checks.load_expected()
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, workloads.DEFAULT_SEED,
                                  cp.graph.PatternCollection,
                                  cp.perms.DomainError):
            assert op.id in expected


def test_corrupted_output_counts_as_failed(checkout):
    cp, paths = small_setup(checkout)
    good = run.render(SMALL, run.execute(cp, SMALL, paths))
    assert checks.Checker(cp, {}).verify(SMALL, good) is None

    # a changed count breaks the row sum
    bad = good.replace("6\t0\t", "6\t0\t1", 1)
    assert checks.Checker(cp, {}).verify(SMALL, bad)
    # reordered rows pass every invariant; only the stored digest sees them
    lines = good.splitlines(keepends=True)
    shuffled = "".join(lines[1:] + lines[:1])
    assert checks.Checker(cp, {}).verify(SMALL, shuffled) is None
    stored = {SMALL.id: checks.digest(good)}
    assert checks.Checker(cp, stored).verify(SMALL, shuffled)

    # through a pass: the op returns, the check fails it, the run goes on
    real_main = cp.cli.main

    def corrupt_main(argv):
        code = real_main(argv)
        print("6\t9\t1")
        return code

    cp.cli.main = corrupt_main
    try:
        done = run.run_pass(cp, [SMALL, SMALL], paths,
                            checks.Checker(cp, {}), checkout / "cache")
    finally:
        cp.cli.main = real_main
    assert [f[:2] for f in done.failures] == [(SMALL.id, "wrong")] * 2


def test_deadline_interrupts_a_busy_op():
    def spin():
        t0 = perf_counter()
        while perf_counter() - t0 < 5:
            pass

    t0 = perf_counter()
    with pytest.raises(run.DeadlineExceeded):
        run.call_with_deadline(spin, 0.2)
    assert perf_counter() - t0 < 2


def bindings():
    out = {}
    for module in layers.package_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
    series = sys.modules["clusterperm.series"]
    for attr, value in vars(series.BiSeries).items():
        out[("BiSeries", attr)] = value
    return out


def test_wrappers_cover_import_sites_and_are_removed(checkout):
    cp, paths = small_setup(checkout)
    before = bindings()
    tracer = layers.Tracer()
    tracer.install()
    try:
        during = bindings()
        for site in [("clusterperm.series", "cluster_counts"),
                     ("clusterperm.cache", "cluster_counts"),
                     ("clusterperm.clusters", "cluster_counts"),
                     ("clusterperm.equivalence", "cluster_counts_single_pattern"),
                     ("clusterperm.equivalence", "build_graph"),
                     ("clusterperm.cache", "build_graph"),
                     ("clusterperm.cli", "build_graph"),
                     ("BiSeries", "reciprocal")]:
            assert during[site] is not before[site], site
        tracer.active = True
        run.execute(cp, SMALL, paths)
        tracer.active = False
        values = tracer.take()
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert values["graph.calls"] == 1 and values["clusters.general_calls"] == 1
    assert values["clusters.general_s"] > 0 and values["series.reciprocal_s"] > 0
    assert values["cli.self_s"] > 0
    assert set(values) <= set(layers.LAYER_METRICS)


def test_tail_leaves_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)


def test_refuses_to_run_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "avoid-count", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
