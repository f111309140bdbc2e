#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against the working tree.

The parent is extracted with ``git archive <rev>`` into a temporary
directory.  The script refuses to run unless that tree's ``perfbench/`` is
byte-identical to the working tree's, so both sides run the same benchmark.
For each seed it runs ``perfbench/run.py`` in pairs: pair p runs the parent
first when p is even and the change first when p is odd, and the workloads
take turns pair by pair.  Neither side writes ``.pyc`` files.

The result goes to ``--out`` in this layout:

- ``runs``: every run, keyed ``<workload>_s<seed>_t<trace>``
- ``summary``: the same keys, and per metric each side's median and
  inclusive quartiles, the relative change of the medians, and the pairs the
  change won and lost (``ok_share`` and ``cache.hits``: higher is better;
  every other metric: lower)

Each run also keeps the wall time of its first pass, ``pass_wall_s[0]`` of
the ``# meta`` line, as ``first_pass_wall_s`` beside its metrics, and the
summary gives each side's median of it: a gain that needs work repeated
within one process shows in ``wall_s``, the median pass, but not there.
A traced run records no pass times, and its first pass is None.

An existing ``--out`` file keeps its other keys and runs, and its summary is
recomputed over all runs, so several invocations can fill one file.  Run
from the root of a checkout, e.g.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH.json \\
        --workloads series-deep --seeds 1 7 --pairs 10 --trace 0
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HIGHER_IS_BETTER = {"ok_share", "cache.hits"}


def run_key(workload: str, seed: int, trace: int) -> str:
    return f"{workload}_s{seed}_t{trace}"


def summarize(runs: list[dict]) -> dict:
    """The summary of one key's runs: per metric, medians, inclusive
    quartiles, relative change and pairs won and lost.  Only pairs with
    both sides count."""
    sides = {}
    for run in runs:
        sides.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [s for _, s in sorted(sides.items()) if len(s) == 2]
    out = {"pairs": len(pairs)}
    if not pairs:
        return out
    for name in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = -1 if name in HIGHER_IS_BETTER else 1
        pm, cm = statistics.median(parent), statistics.median(change)
        out[name] = {
            "parent_median": pm,
            "parent_quartiles": _quartiles(parent),
            "change_median": cm,
            "change_quartiles": _quartiles(change),
            "change_vs_parent": cm / pm - 1 if pm else 0.0,
            "change_won": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "change_lost": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        }
    firsts = [(p["parent"].get("first_pass_wall_s"), p["change"].get("first_pass_wall_s"))
              for p in pairs]
    firsts = [f for f in firsts if None not in f]
    if firsts:
        pm, cm = (statistics.median(side) for side in zip(*firsts))
        out["first_pass_wall_s"] = {"pairs": len(firsts), "parent_median": pm,
                                    "change_median": cm,
                                    "change_vs_parent": cm / pm - 1 if pm else 0.0}
    return out


def _quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q3]


def tree_files(root: Path) -> dict[str, bytes]:
    """Relative path -> contents of every file under root, caches aside."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and "__pycache__" not in p.parts and p.suffix != ".pyc"
    }


def extract(rev: str, target: Path) -> None:
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(target)


def run_once(checkout: Path, workload: str, seed: int, trace: int,
             seconds: float) -> dict:
    """One perfbench run from the root of ``checkout``; its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    meta = next((json.loads(l[len("# meta "):]) for l in lines
                 if l.startswith("# meta ")), {})
    return {"meta": meta, "result": json.loads(lines[-1])}


def record(pair, side, first, workload, seed, trace, out) -> dict:
    result, meta = out["result"], out["meta"]
    return {
        "pair": pair, "side": side, "first": first, "workload": workload,
        "seed": seed, "trace": trace,
        "passes": meta.get("passes", meta.get("traced_passes")),
        "first_pass_wall_s": meta.get("pass_wall_s", [None])[0],
        "correct": result["correct"], "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", nargs="+",
                        default=["avoid-count", "series-deep", "equiv-verify"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=30)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        extract(args.parent, parent)
        if tree_files(parent / "perfbench") != tree_files(ROOT / "perfbench"):
            print(f"error: perfbench/ at {args.parent} differs from the working "
                  "tree's; the two sides would run different benchmarks",
                  file=sys.stderr)
            return 2
        checkouts = {"parent": parent, "change": ROOT}
        runs = doc.setdefault("runs", {})
        doc.setdefault("command", (
            "python3 perfbench/run.py --workload <workload> --seed <seed> "
            "--seconds <seconds> --trace <trace>, run from the root of each "
            "checkout by tools/bench_pairs.py"))
        doc.setdefault("machine", {"nproc": os.cpu_count(),
                                   "python": platform.python_version()})
        for seed in args.seeds:
            keys = {w: run_key(w, seed, args.trace) for w in args.workloads}
            # new pairs are numbered after the ones the file already holds
            base = {k: 1 + max((r["pair"] for r in runs.get(k, [])), default=-1)
                    for k in keys.values()}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for workload, key in keys.items():
                    for side in order:
                        out = run_once(checkouts[side], workload, seed,
                                       args.trace, args.seconds)
                        rec = record(base[key] + pair, side, order[0], workload,
                                     seed, args.trace, out)
                        runs.setdefault(key, []).append(rec)
                        print(f"# {key} pair {rec['pair']} {side}: "
                              f"{json.dumps(rec['metrics'])}", file=sys.stderr,
                              flush=True)
                    doc["summary"] = {k: summarize(v) for k, v in runs.items()}
                    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
