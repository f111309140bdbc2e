#!/usr/bin/env python3
"""Write ``expected.json``: the digest of every op's exact output for the
default seed.  Run from the root of a source checkout:

    python3 perfbench/record_expected.py

Each output must pass its invariant check before it is stored.  Cached
``clusters`` ops are recorded from the uncached engine, so the digest of
the known-hang op exists although that op does not finish today.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import checks
import run
import workloads


def reference(cp, op, paths) -> str:
    if op.argv[:1] == ("clusters",) and "--cache" in op.argv:
        argv = [a for a in workloads.resolve_argv(op, paths) if a != "--cache"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cp.cli.main(argv) != 0:
                raise RuntimeError(f"{op.id}: uncached run failed")
        return out.getvalue()
    return run.render(op, run.execute(cp, op, paths))


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.WORK / "record"
    expected = {}
    try:
        for name in workloads.WORKLOADS:
            cp, ops, paths, _ = run.setup(name, workloads.DEFAULT_SEED, work)
            checker = checks.Checker(cp, {})
            for op in ops:
                output = reference(cp, op, paths)
                problem = checker.verify(op, output)
                if problem:
                    raise RuntimeError(f"{op.id}: {problem}")
                expected[op.id] = checks.digest(output)
                print(f"{expected[op.id][:12]}  {op.id}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    checks.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
