#!/usr/bin/env python3
"""Print the sha256 of every benchmark op's exact output, one line per op:

    <sha256>  <workload> <seed> <op id>

for each workload of ``perfbench/workloads.py`` at seeds 1, 7 and 11.  The
ops run as ``perfbench/run.py`` runs them, under their deadlines and on the
pattern files it generates; each (workload, seed) gets a fresh
``CLUSTERPERM_CACHE_DIR`` in a temporary directory, so the cached
``clusters`` ops really write and read the cache.  Each output must pass its
op's invariant check in ``perfbench/checks.py``; an op that fails the check,
raises or misses its deadline is reported on stderr, and the script exits 1.

It takes no flags.  The benchmark modules are this checkout's; the program
is the one in ``src/`` of the current directory.  To compare a change with
its parent, run it in both trees and diff:

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    (cd /tmp/parent && python3 "$OLDPWD/tools/op_digests.py") > parent.txt
    python3 tools/op_digests.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 7, 11)


def op_digests(seeds=SEEDS):
    """Yield (workload, seed, op id, digest, problem) for every op; the
    digest is None when the op raised or missed its deadline, and the
    problem is None when its output passed its check."""
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for seed in seeds:
                cp, ops, paths, cache = run.setup(name, seed, Path(tmp, f"{name}-{seed}"))
                os.environ["CLUSTERPERM_CACHE_DIR"] = str(cache)
                checker = checks.Checker(cp, {})
                for op in ops:
                    result, problem, _, _ = run.run_op(cp, op, paths, None)
                    if problem:
                        yield name, seed, op.id, None, problem[1]
                    else:
                        output = run.render(op, result)
                        yield name, seed, op.id, checks.digest(output), checker.verify(op, output)


def main() -> int:
    failed = False
    for name, seed, op_id, digest, problem in op_digests():
        print(f"{digest or '-' * 64}  {name} {seed} {op_id}", flush=True)
        if problem:
            print(f"{name} {seed} {op_id}: {problem}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
