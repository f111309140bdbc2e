#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of clusterperm.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload avoid-count --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # summary table

One process is one closed-loop client: it runs the workload's query list
(a *pass*) again and again, each query only after the previous one
returned, until ``--seconds`` have passed and at least ``MIN_PASSES``
passes are done.  Queries go in-process through ``clusterperm.cli.main``
(stdout captured) or the library API, and read only the pattern files the
seed generated.  Every output is checked untimed (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with the per-layer spans of ``layers.py`` installed,
and reports the per-layer metrics.  The last line of stdout is the JSON
result; the lines before it start with ``#`` and give the run metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from time import perf_counter, process_time

import checks
import layers
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_PASSES = 11  # the tail needs ten passes beyond it
MIN_TRACE_PASSES = 3
MAX_PASS_SECONDS = 120.0  # stop adding passes after this, however few
SETUP_REPS = 5
TAIL_BEYOND = 10
# The probe's time on an uncontended core of the machine the sizes were
# chosen on (2-vCPU VM, Python 3.11).  Reported times are scaled to it.
REFERENCE_PROBE_S = 0.0045

# name -> unit; README.md defines each
E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

MODULES = ("cli", "cache", "clusters", "equivalence", "graph", "kernels",
           "monotone", "perms", "series")


class DeadlineExceeded(BaseException):
    """Raised by the interval timer when an op outlives its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def call_with_deadline(fn, seconds: float):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Program:
    """The freshly imported clusterperm modules, by short name."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"clusterperm.{name}"))


def import_program() -> Program:
    for name in [m.__name__ for m in layers.package_modules()]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cp = Program()
    where = Path(cp.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"clusterperm imported from {where}, not {SRC}")
    return cp


def setup(workload: str, seed: int, work: Path):
    """Import the package (selecting the kernel backend), generate the
    pattern files from the seed and create a fresh cache directory."""
    cp = import_program()
    ops = workloads.build(workload, seed, cp.graph.PatternCollection,
                          cp.perms.DomainError)
    inputs = work / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    paths = workloads.write_inputs(ops, inputs)
    cache_root = work / "cache"
    shutil.rmtree(cache_root, ignore_errors=True)
    cache_root.mkdir()
    return cp, ops, paths, cache_root


def execute(cp: Program, op: workloads.Op, paths):
    """Run one op; returns its raw result (text for CLI ops)."""
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cp.cli.main(workloads.resolve_argv(op, paths))
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()
    if op.kind == "series":
        text = Path(paths[op.files[0][0]]).read_text()
        coll = cp.graph.PatternCollection(
            tuple(cp.perms.parse_collection_text(text)))
        table = cp.monotone.monotone_cluster_counts(coll, op.order, op.order)
        gf = cp.series.avoidance_gf(coll, op.order, table=table)
        return cp.series.alpha_counts(gf)
    if op.kind == "classify":
        return cp.equivalence.classify_s5(n_max=op.order)
    if op.kind == "linext":
        return cp.kernels.count_linear_extensions(op.order, op.masks)
    raise ValueError(f"unknown op kind {op.kind!r}")


def render(op: workloads.Op, result) -> str:
    """The op's output as text, in the CLI's formats."""
    if op.kind == "series":
        return "".join(f"{n}\t{q}\t{result[(n, q)]}\n" for n, q in sorted(result))
    if op.kind == "classify":
        return json.dumps(result, indent=2) + "\n"
    if op.kind == "linext":
        return f"{result}\n"
    return result


def probe() -> float:
    """Seconds a fixed pure-Python job takes now: Fraction arithmetic on
    growing integers, then sorting small tuples into a dict, like the
    series layer and the cluster engines do."""
    t0 = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 750):
        acc += Fraction(i * i + 1, 3 * i + 7)
        table[(i, i % 17)] = acc.numerator % 1000003
    for combo in combinations(range(1, 16), 4):
        word = tuple(sorted(combo, key=lambda x: -x))
        table[word] = table.get(word[:2], 0) + len(word)
    return perf_counter() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Scale a time measured between two probes to a machine on which the
    probe takes ``REFERENCE_PROBE_S``."""
    return seconds * REFERENCE_PROBE_S * 2 / (before + after)


class Pass:
    def __init__(self):
        self.wall = 0.0  # at reference speed
        self.cpu = 0.0
        self.raw_wall = 0.0  # as the clock read it
        self.raw_cpu = 0.0
        self.failures = []  # [(op id, "deadline" | "error" | "wrong", reason)]
        self.spans: dict[str, float] = {}

    def add_spans(self, spans, scale):
        for name, value in spans.items():
            if name.endswith("_max"):
                self.spans[name] = max(self.spans.get(name, 0), value)
            else:
                if name.endswith("_s"):
                    value *= scale
                self.spans[name] = self.spans.get(name, 0) + value


def run_op(cp, op, paths, tracer):
    """Run one op under its deadline; returns (result, problem, wall, cpu)."""
    if tracer:
        tracer.active = True
    cpu0, wall0 = process_time(), perf_counter()
    result, problem = None, None
    try:
        result = call_with_deadline(lambda: execute(cp, op, paths),
                                    op.deadline_s)
    except DeadlineExceeded:
        problem = ("deadline", f"missed its {op.deadline_s:g} s deadline")
    except Exception as exc:  # any op failure is counted, never fatal
        traceback.print_exc(file=sys.stderr)
        problem = ("error", f"{type(exc).__name__}: {exc}")
    wall, cpu = perf_counter() - wall0, process_time() - cpu0
    if tracer:
        tracer.active = False
    return result, problem, wall, cpu


def run_pass(cp, ops, paths, checker, cache_dir: Path, tracer=None) -> Pass:
    """One pass over the query list.  A speed probe runs before the first
    op and after each op, outside the op's timing, and every op's times are
    scaled by the probes on either side of it.  A missed deadline counts as
    the deadline itself, unscaled: it is a wall-clock limit.  Each output is
    checked, untimed, before the next op runs."""
    cache_dir.mkdir()
    os.environ["CLUSTERPERM_CACHE_DIR"] = str(cache_dir)
    gc.collect()
    done = Pass()
    before = probe()
    for op in ops:
        result, problem, wall, cpu = run_op(cp, op, paths, tracer)
        after = probe()
        scale = at_reference_speed(1.0, before, after)
        done.raw_wall += wall
        done.raw_cpu += cpu
        if problem and problem[0] == "deadline":
            scale = 1.0
            wall = cpu = op.deadline_s
        done.wall += wall * scale
        done.cpu += cpu * scale
        if tracer:
            done.add_spans(tracer.take(), scale)
        if problem is None:
            reason = checker.verify(op, render(op, result))
            problem = reason and ("wrong", reason)
        if problem:
            done.failures.append((op.id, *problem))
        del result
        before = after
    shutil.rmtree(cache_dir)
    return done


def run_passes(cp, ops, paths, checker, cache_root, seconds, min_passes,
               tracer=None, first_index=0):
    passes = []
    start = perf_counter()
    while True:
        cache_dir = cache_root / f"pass{first_index + len(passes)}"
        passes.append(run_pass(cp, ops, paths, checker, cache_dir, tracer))
        elapsed = perf_counter() - start
        if elapsed >= seconds and len(passes) >= min_passes:
            return passes
        if elapsed >= MAX_PASS_SECONDS:
            return passes


def tail(values):
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it; returns
    (value, percentile, samples beyond).  With too few samples it falls
    back to the minimum and says how many lie beyond."""
    ordered = sorted(values)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def summarize_failures(passes):
    seen = {}
    for p in passes:
        for op_id, kind, reason in p.failures:
            entry = seen.setdefault(op_id, [kind, reason, 0])
            entry[2] += 1
    return [
        {"op": op_id, "kind": k, "reason": r, "times": n}
        for op_id, (k, r, n) in seen.items()
    ]


def measure(args, work: Path):
    setup_times = []
    for _ in range(SETUP_REPS):
        before = probe()
        t0 = perf_counter()
        cp, ops, paths, cache_root = setup(args.workload, args.seed, work)
        took = perf_counter() - t0
        setup_times.append(at_reference_speed(took, before, probe()))
    checker = checks.Checker(cp, checks.load_expected())
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": cp.kernels.BACKEND,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "ops_per_pass": len(ops),
        "setup_reps": SETUP_REPS,
    }
    if not args.trace:
        passes = run_passes(cp, ops, paths, checker, cache_root,
                            args.seconds, MIN_PASSES)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls = [p.wall for p in passes]
        tail_s, pct, beyond = tail(walls)
        all_passes = passes
        attempted = len(ops) * len(passes)
        failed = sum(len(p.failures) for p in passes)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "wall_tail_s": tail_s,
            "cpu_s": statistics.median(p.cpu for p in passes),
            "peak_rss_mb": rss_mb,
            "ok_share": 1 - failed / attempted,
        }
        units = E2E_METRICS
        meta.update(passes=len(passes), tail_percentile=round(pct, 1),
                    tail_beyond=beyond,
                    pass_wall_s=[round(w, 4) for w in walls],
                    raw_pass_wall_s=[round(p.raw_wall, 4) for p in passes],
                    raw_wall_s=statistics.median(p.raw_wall for p in passes),
                    raw_cpu_s=statistics.median(p.raw_cpu for p in passes))
    else:
        untraced = run_passes(cp, ops, paths, checker, cache_root,
                              args.seconds / 2, MIN_TRACE_PASSES)
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced = run_passes(cp, ops, paths, checker, cache_root,
                                args.seconds / 2, MIN_TRACE_PASSES, tracer,
                                first_index=len(untraced))
        finally:
            tracer.uninstall()
        all_passes = untraced + traced
        attempted = len(ops) * len(all_passes)
        failed = sum(len(p.failures) for p in all_passes)
        values = {}
        for name in layers.LAYER_METRICS:
            samples = [p.spans.get(name, 0) for p in traced]
            values[name] = (max(samples) if name.endswith("_max")
                            else statistics.median(samples))
        values["trace_overhead_s"] = (
            statistics.median(p.wall for p in traced)
            - statistics.median(p.wall for p in untraced))
        units = layers.LAYER_METRICS
        meta.update(untraced_passes=len(untraced), traced_passes=len(traced))
    failures = summarize_failures(all_passes)
    meta["failed_share"] = failed / attempted
    meta["failures"] = failures
    correct = all(f["kind"] == "deadline" for f in failures)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return meta, result


def print_result(meta, result):
    print("# meta " + json.dumps(meta, sort_keys=True))
    for f in meta["failures"]:
        print(f"# failed {f['times']}x [{f['kind']}] {f['op']}: {f['reason']}")
    print(f"# failed_share {result['failed']}/{result['attempted']}"
          f" = {meta['failed_share']:.4f}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)


def summary(args) -> int:
    """Run every workload in its own process and print one table."""
    code = 0
    print(f"{'workload':<14} {'metric':<30} {'value':>12}  unit")
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<14} failed with exit code {proc.returncode}")
            sys.stderr.write(proc.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("failed_share", result["failed"] / result["attempted"],
                     "ratio"))
        for metric, value, unit in rows:
            print(f"{name:<14} {metric:<30} {value:>12.6g}  {unit}")
        for line in lines[:-1]:
            if line.startswith("# meta "):
                meta = json.loads(line[len("# meta "):])
                print(f"{name:<14} meta: backend={meta['backend']} "
                      f"passes={meta.get('passes', meta.get('traced_passes'))} "
                      f"tail=p{meta.get('tail_percentile', '-')} "
                      f"seed={meta['seed']} commit={meta['commit'][:12]}")
    return code


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clusterperm" / "__init__.py").is_file():
        print(f"error: no clusterperm sources under {SRC}; run from the root "
              "of a clusterperm checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return summary(args)
    sys.path.insert(0, str(SRC))
    work = WORK / str(os.getpid())
    try:
        meta, result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print_result(meta, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
