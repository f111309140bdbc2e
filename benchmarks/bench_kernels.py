#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Times the two hot kernels — the S_n occurrence-distribution scan and the
linear-extension count (a subset DP compiled, a downset DP in pure Python) —
on both backends and prints the speedup.

Usage: python3 benchmarks/bench_kernels.py [--scan-n 9] [--dp-n 18] [--repeat 3]
"""

import argparse
import random
import time

from clusterperm import _kernels_py

try:
    from clusterperm import _kernels as compiled
except ImportError:
    compiled = None

SCAN_PATTERNS = [(1, 3, 2), (2, 1, 4, 3), (1, 2, 3, 4, 5)]


def random_poset_masks(n: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    less = [0] * n
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.2:
                less[i] |= 1 << j
    return less


def best_of(repeat, fn, *args):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scan-n", type=int, default=9)
    parser.add_argument("--dp-n", type=int, default=18)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if compiled is None:
        print("compiled extension not available; showing pure backend only")

    rows = []

    t_pure, d_pure = best_of(
        args.repeat, _kernels_py.count_distribution, args.scan_n, SCAN_PATTERNS
    )
    if compiled is not None and args.scan_n <= 12:
        t_c, d_c = best_of(
            args.repeat, compiled.count_distribution, args.scan_n, SCAN_PATTERNS
        )
        assert d_c == d_pure, "backend disagreement"
    else:
        t_c = None
    rows.append((f"count_distribution n={args.scan_n}", t_pure, t_c))

    masks = random_poset_masks(args.dp_n, seed=5)
    t_pure, x_pure = best_of(
        args.repeat, _kernels_py.count_linear_extensions, args.dp_n, masks
    )
    if compiled is not None and args.dp_n <= 20:
        t_c, x_c = best_of(
            args.repeat, compiled.count_linear_extensions, args.dp_n, masks
        )
        assert x_c == x_pure, "backend disagreement"
    else:
        t_c = None
    rows.append((f"count_linear_extensions n={args.dp_n}", t_pure, t_c))

    width = max(len(r[0]) for r in rows)
    print(f"{'kernel':<{width}}  {'pure':>10}  {'compiled':>10}  {'speedup':>8}")
    for name, tp, tc in rows:
        if tc is None:
            print(f"{name:<{width}}  {tp:>9.4f}s  {'-':>10}  {'-':>8}")
        else:
            print(f"{name:<{width}}  {tp:>9.4f}s  {tc:>9.4f}s  {tp / tc:>7.1f}x")


if __name__ == "__main__":
    main()
