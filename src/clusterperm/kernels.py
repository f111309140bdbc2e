"""Counting kernels, in pure Python on arbitrary-precision integers.

``count_distribution`` is the definitional check of the occurrence counts
alpha_{n,q}: it standardizes windows of sigma and nothing else, so it stays
independent of the overlap graph and the cluster recurrences it checks.
``count_linear_extensions`` counts the fillings of a cluster's order.
"""

from __future__ import annotations

BACKEND = "pure"


def _std(word) -> tuple[int, ...]:
    """Ranks 0..l-1 of the distinct entries of word."""
    rank = {v: j for j, v in enumerate(sorted(word))}
    return tuple(map(rank.__getitem__, word))


def count_distribution(n: int, patterns) -> dict[int, int]:
    """Tally the permutations of S_n by their total number of consecutive
    occurrences of the given patterns; a pattern listed twice counts twice.

    sigma is built left to right, tracking its last entries (Nakamura,
    "Computational approaches to consecutive pattern avoidance in
    permutations", 2011).  After i entries the state is the values, in 1..i,
    of the longest suffix of sigma that standardizes to a proper prefix of a
    pattern, and at least the last entry; no earlier entry can lie in a
    later occurrence.  Each state maps to {q: ways}.  Appending rank r in
    1..i+1 bumps the earlier values >= r.  The occurrences the new entry
    ends, and the suffix kept, depend only on the shape of the state and on
    the gap between its sorted values that r falls in, so they are memoised
    per shape.  The last entry adds ways times the gap size per gap instead
    of building states.
    """
    patterns = [_std(p) for p in patterns if len(p) <= n]
    if n <= 0:
        return {0: 1}
    occurrences: dict[tuple[int, ...], int] = {}
    prefixes = set()
    for p in patterns:
        occurrences[p] = occurrences.get(p, 0) + 1
        prefixes.update(_std(p[:j]) for j in range(len(p)))
    moves_memo: dict[tuple[int, ...], list[tuple[int, int]]] = {}

    def move(shape, gap):
        """(occurrences ended, entries dropped) when the new entry has `gap`
        entries of the state below it; the new entry itself is always kept."""
        window = tuple(v + (v >= gap) for v in shape) + (gap,)
        hits, keep = 0, 1
        for l in range(1, len(window) + 1):
            suffix = _std(window[len(window) - l :])
            hits += occurrences.get(suffix, 0)
            if suffix in prefixes:
                keep = l
        return hits, len(window) - keep

    def gaps(tail, i):
        """((hits, drop), first r, last r) for each gap between the sorted
        tail values."""
        shape = _std(tail)
        moves = moves_memo.get(shape)
        if moves is None:
            moves = [move(shape, gap) for gap in range(len(tail) + 1)]
            moves_memo[shape] = moves
        ordered = sorted(tail)
        return zip(moves, [1] + [v + 1 for v in ordered], ordered + [i + 1])

    layer: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    for i in range(n - 1):
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for tail, dist in layer.items():
            for (h, drop), lo, hi in gaps(tail, i):
                # every r in the gap bumps the same kept values
                bumped = tuple(v + (v >= hi) for v in tail[drop:])
                for r in range(lo, hi + 1):
                    new = bumped + (r,)
                    into = nxt.get(new)
                    if into is None:
                        nxt[new] = {q + h: w for q, w in dist.items()}
                    else:
                        for q, w in dist.items():
                            into[q + h] = into.get(q + h, 0) + w
        layer = nxt
    out: dict[int, int] = {}
    for tail, dist in layer.items():
        for (h, _), lo, hi in gaps(tail, n - 1):
            size = hi - lo + 1
            for q, w in dist.items():
                out[q + h] = out.get(q + h, 0) + w * size
    return out


def count_linear_extensions(n: int, less_masks) -> int:
    """Number of bijections positions -> {1..n} respecting the strict order
    constraints; less_masks[i] is the bitmask of positions forced smaller
    than position i.

    Values are handed out in increasing order, so the positions holding the
    first j values form a downset.  Layer j maps each reachable downset of
    size j to its number of fillings; a position joins a downset once every
    position forced below it is in it.
    """
    less_masks = list(less_masks)
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
