"""Pure-Python counting kernels.

Drop-in fallback for the compiled extension: same functions, same semantics,
arbitrary-precision integers throughout.
"""

from __future__ import annotations

from itertools import permutations


def count_distribution(n: int, patterns) -> dict[int, int]:
    """Tally permutations of S_n by their total number of consecutive
    occurrences of the given patterns."""
    data = []
    for p in patterns:
        l = len(p)
        pos_by_rank = sorted(range(l), key=lambda i: p[i])
        data.append((l, pos_by_rank))
    counts: dict[int, int] = {}
    for sigma in permutations(range(n)):
        q = 0
        for l, pbr in data:
            for i in range(n - l + 1):
                prev = sigma[i + pbr[0]]
                ok = True
                for j in range(1, l):
                    cur = sigma[i + pbr[j]]
                    if cur < prev:
                        ok = False
                        break
                    prev = cur
                if ok:
                    q += 1
        counts[q] = counts.get(q, 0) + 1
    return counts


def count_linear_extensions(n: int, less_masks) -> int:
    """Number of bijections positions -> {1..n} respecting the strict order
    constraints; less_masks[i] is the bitmask of positions forced smaller
    than position i.

    Values are handed out in increasing order, so the positions holding the
    first j values form a downset.  Layer j maps each reachable downset of
    size j to its number of fillings; a position joins a downset once every
    position forced below it is in it.
    """
    layer = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for placed, ways in layer.items():
            for i in range(n):
                bit = 1 << i
                if not placed & bit and less_masks[i] & placed == less_masks[i]:
                    key = placed | bit
                    nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    return layer.get((1 << n) - 1, 0)
