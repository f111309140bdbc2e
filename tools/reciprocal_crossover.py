#!/usr/bin/env python3
"""In-process crossover of the two reciprocal kernels of ``series.py``.

For each input collection and order, the rows of 1 - Pi_cl(x, s) are
inverted by the list kernel and by the packed kernel (its majorant width
pass included), in interleaved pairs that alternate which kernel goes first.
Prints one JSON object: per cell the slot width, the nonzero input cells,
which kernel ``BiSeries.reciprocal`` picks, every pair's times and the median
of list time over packed time.  Run from the root of a checkout:

    python3 tools/reciprocal_crossover.py --pairs 7 --orders 24 40 60 100 140
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from clusterperm import series  # noqa: E402
from clusterperm.clusters import cluster_counts  # noqa: E402
from clusterperm.graph import PatternCollection  # noqa: E402

INPUTS = {
    "12345": ("12345",),
    "1324": ("1324",),
    "2143": ("2143",),
    "123": ("123",),
    "132": ("132",),
    "MONO_C": ("1576243", "13254"),
    "MONO_D": ("12354", "132465"),
}


def kernels(rows, order):
    """The two kernels as thunks, each returning the inverse rows."""
    def packed():
        return series._packed_reciprocal(rows, order, series._majorant_width(rows, order))

    return {"list": lambda: series._list_reciprocal(rows, order), "packed": packed}


def picked(s) -> str:
    """The kernel ``reciprocal`` runs on s, seen by swapping in a marker."""
    real = series._packed_reciprocal
    series._packed_reciprocal = lambda *args: [[1]] + [[] for _ in range(s.order)]
    try:
        ran = s.reciprocal().rows == [[1]] + [[] for _ in range(s.order)]
    finally:
        series._packed_reciprocal = real
    return "packed" if ran else "list"


def cell(patterns, order, pairs):
    coll = PatternCollection(tuple(tuple(map(int, p)) for p in patterns))
    table = cluster_counts(coll, order, order)
    s = series.BiSeries.one(order) - series.cluster_gf(table, order)
    thunks = kernels(s.rows, order)
    assert thunks["list"]() == thunks["packed"](), (patterns, order)
    times = {"list": [], "packed": []}
    for p in range(pairs):
        for name in (("list", "packed") if p % 2 == 0 else ("packed", "list")):
            start = perf_counter()
            thunks[name]()
            times[name].append(perf_counter() - start)
    ratios = [l / k for l, k in zip(times["list"], times["packed"])]
    return {
        "width": series._majorant_width(s.rows, order),
        "cells": sum(len(row) - row.count(0) for row in s.rows[1:]),
        "picked": picked(s),
        "list_s": times["list"],
        "packed_s": times["packed"],
        "list_over_packed_median": statistics.median(ratios),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, default=7)
    parser.add_argument("--orders", type=int, nargs="+", default=[24, 40, 60, 100, 140])
    parser.add_argument("--inputs", nargs="+", default=list(INPUTS), choices=list(INPUTS))
    args = parser.parse_args(argv)
    out = {}
    for name in args.inputs:
        for order in args.orders:
            out[f"{name}@{order}"] = row = cell(INPUTS[name], order, args.pairs)
            print(f"# {name}@{order} width {row['width']} cells {row['cells']} "
                  f"{row['picked']} {row['list_over_packed_median']:.2f}x",
                  file=sys.stderr, flush=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
