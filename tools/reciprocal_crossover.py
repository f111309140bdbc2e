#!/usr/bin/env python3
"""In-process crossover of the two paths of ``series.avoidance_gf``.

For each input collection and order, Pi(x, t) = 1/(1 - Pi_cl(x, t-1)) is
computed from the rows of Pi_cl(x, s) by the list path (``reciprocal`` of
1 - Pi_cl, then ``shift_t(-1)``) and by the packed pass
(``_avoidance_rows``), in interleaved pairs that alternate which path goes
first.  Prints one JSON object: per cell the slot width, the nonzero cells of
Pi_cl, which path ``avoidance_gf`` takes, every pair's times and the median
of list time over packed time.  Run from the root of a checkout:

    python3 tools/reciprocal_crossover.py --pairs 7 --orders 8 12 24 40 60 100 140
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from math import factorial
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from clusterperm import series  # noqa: E402
from clusterperm.clusters import cluster_counts  # noqa: E402
from clusterperm.graph import PatternCollection  # noqa: E402
from clusterperm.kernels import slot_width  # noqa: E402

INPUTS = {
    "12345": ("12345",),
    "1324": ("1324",),
    "2143": ("2143",),
    "123": ("123",),
    "132": ("132",),
    "MONO_C": ("1576243", "13254"),
    "MONO_D": ("12354", "132465"),
}


def paths(pcl, order):
    """The two paths as thunks, each returning the rows of Pi."""
    def list_shift():
        return (series.BiSeries.one(order) - pcl).reciprocal().shift_t(-1).rows

    return {"list": list_shift, "packed": lambda: series._avoidance_rows(pcl.rows, order)}


def cell(patterns, order, pairs):
    coll = PatternCollection(tuple(tuple(map(int, p)) for p in patterns))
    pcl = series.cluster_gf(cluster_counts(coll, order, order), order)
    thunks = paths(pcl, order)
    assert thunks["list"]() == thunks["packed"](), (patterns, order)
    times = {"list": [], "packed": []}
    for p in range(pairs):
        for name in (("list", "packed") if p % 2 == 0 else ("packed", "list")):
            start = perf_counter()
            thunks[name]()
            times[name].append(perf_counter() - start)
    ratios = [l / k for l, k in zip(times["list"], times["packed"])]
    return {
        "width": slot_width(factorial(order)),
        "cells": sum(len(row) - row.count(0) for row in pcl.rows),
        "path": "packed" if order >= series._PACKED_ORDER_MIN else "list",
        "list_s": times["list"],
        "packed_s": times["packed"],
        "list_over_packed_median": statistics.median(ratios),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, default=7)
    parser.add_argument("--orders", type=int, nargs="+", default=[8, 12, 24, 40, 60, 100, 140])
    parser.add_argument("--inputs", nargs="+", default=list(INPUTS), choices=list(INPUTS))
    args = parser.parse_args(argv)
    out = {}
    for name in args.inputs:
        for order in args.orders:
            out[f"{name}@{order}"] = row = cell(INPUTS[name], order, args.pairs)
            print(f"# {name}@{order} width {row['width']} cells {row['cells']} "
                  f"{row['path']} {row['list_over_packed_median']:.2f}x",
                  file=sys.stderr, flush=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
