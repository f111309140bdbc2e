"""Counting kernels, in pure Python on arbitrary-precision integers, and the
packed-slot format: a t-polynomial sum_q d_q t^q is the integer
sum_q d_q 2^(q w) (Kronecker substitution), with whole bytes per slot (w a
multiple of 8) and every |d_q| < 2^(w - 1), so packed rows add slot by slot
and no slot carries.

``count_distribution`` is the definitional check of the occurrence counts
alpha_{n,q}: it standardizes windows of sigma and nothing else, so it stays
independent of the overlap graph and the cluster recurrences it checks; each
state packs its counts by q into one integer of ``slot_width``-bit slots.
``count_linear_extensions`` counts the fillings of a cluster's order over
downsets that carry their ready positions.
"""

from __future__ import annotations

import sys
from itertools import accumulate
from math import factorial
from struct import calcsize

from .perms import DomainError

BACKEND = "pure"


def slot_width(bound: int) -> int:
    """The least multiple of 8 with bound < 2^(width - 1)."""
    return (bound.bit_length() + 8) // 8 * 8


def _bias(slots: int, width: int) -> int:
    """sum_q 2^(width - 1) 2^(q width) over ``slots`` slots: added to a
    packed row, it makes every digit nonnegative."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * slots, "little")


def pack_row(row, width: int) -> int:
    """sum_q row[q] 2^(q width); every |row[q]| < 2^(width - 1)."""
    size, half = width // 8, 1 << (width - 1)
    data = b"".join((d + half).to_bytes(size, "little") for d in row)
    return int.from_bytes(data, "little") - _bias(len(row), width)


# memoryview formats of the signed machine integers by width, if little-endian
_SIGNED = {8 * calcsize(c): c for c in "bhiq"} if sys.byteorder == "little" else {}


def unpack_rows(xs: list[int], width: int) -> list[list[int]]:
    """The signed base-2^width digits of each x in xs, lowest first and with
    no trailing zeros, read from one bytes object.  If the top digit of x
    has index j, 2^(j width - 1) < |x| < 2^(j width + width - 1), so x needs
    bit_length() // width + 1 = j + 1 slots.  With B the bias of the most
    slots any x needs, (x + B) ^ B holds each digit of x in two's complement
    in its own slot, and zeros above j."""
    size = width // 8
    slots = [x.bit_length() // width + 1 if x else 0 for x in xs]
    bias = _bias(max(slots, default=0), width)
    data = b"".join([((x + bias) ^ bias).to_bytes(k * size, "little")
                     for x, k in zip(xs, slots)])
    if width in _SIGNED:
        digits = memoryview(data).cast(_SIGNED[width]).tolist()
    else:
        digits = [int.from_bytes(data[i : i + size], "little", signed=True)
                  for i in range(0, len(data), size)]
    return [digits[end - k : end] for k, end in zip(slots, accumulate(slots))]


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

    A state's {q: ways} is sum_q ways 2^(q w), w = slot_width(n!): no count
    exceeds n!, so no slot carries, and ending h occurrences shifts h slots.
    """
    if n < 0:
        raise DomainError(f"count_distribution needs n >= 0, got n = {n}")
    patterns = [_std(p) for p in patterns if len(p) <= n]
    if n == 0:
        return {0: 1}
    occurrences: dict[tuple[int, ...], int] = {}
    prefixes = set()
    for p in patterns:
        occurrences[p] = occurrences.get(p, 0) + 1
        prefixes.update(_std(p[:j]) for j in range(len(p)))
    moves_memo: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    width = slot_width(factorial(n))

    def move(shape, gap):
        """(bit shift of the occurrences ended, entries dropped) when the new
        entry has `gap` entries of the state below it; the new entry itself
        is always kept."""
        window = tuple(v + (v >= gap) for v in shape) + (gap,)
        hits, keep = 0, 1
        for l in range(1, len(window) + 1):
            suffix = _std(window[len(window) - l :])
            hits += occurrences.get(suffix, 0)
            if suffix in prefixes:
                keep = l
        return hits * width, len(window) - keep

    def gaps(tail, i):
        """((shift, drop), first r, last r) for each gap between the sorted
        tail values."""
        shape = _std(tail)
        moves = moves_memo.get(shape)
        if moves is None:
            moves = [move(shape, gap) for gap in range(len(tail) + 1)]
            moves_memo[shape] = moves
        ordered = sorted(tail)
        return zip(moves, [1] + [v + 1 for v in ordered], ordered + [i + 1])

    layer: dict[tuple[int, ...], int] = {(): 1}
    for i in range(n - 1):
        nxt: dict[tuple[int, ...], int] = {}
        get = nxt.get
        for tail, packed in layer.items():
            for (shift, drop), lo, hi in gaps(tail, i):
                # every r in the gap bumps the same kept values
                bumped = tuple(v + (v >= hi) for v in tail[drop:])
                moved = packed << shift
                for r in range(lo, hi + 1):
                    new = bumped + (r,)
                    nxt[new] = get(new, 0) + moved
        layer = nxt
    total = 0
    for tail, packed in layer.items():
        for (shift, _), lo, hi in gaps(tail, n - 1):
            total += packed * (hi - lo + 1) << shift
    # every digit is at most n! < 2^(width - 1), so the signed read is exact
    return {q: ways for q, ways in enumerate(unpack_rows([total], width)[0]) if ways}


def count_linear_extensions(n: int, less_masks) -> int:
    """Number of bijections positions -> {1..n} respecting the strict order
    constraints; less_masks[i] is the bitmask of positions forced smaller
    than position i.

    Values are handed out in increasing order, so the positions holding the
    first j values form a downset.  Layer j maps each reachable downset of
    size j to its number of fillings and its ready mask: the positions
    outside it whose every position forced below is in it.  Placing a ready
    position can only make ready the positions forced above it.
    """
    less_masks = list(less_masks)
    if n < 0 or len(less_masks) != n:
        raise DomainError(f"count_linear_extensions needs n >= 0 and one mask per "
                          f"position: n = {n}, len(less_masks) = {len(less_masks)}")
    above = [[(1 << j, m) for j, m in enumerate(less_masks) if m >> i & 1] for i in range(n)]
    layer = {0: [1, sum(1 << i for i, m in enumerate(less_masks) if not m)]}
    for _ in range(n):
        nxt: dict[int, list[int]] = {}
        for placed, (ways, ready) in layer.items():
            rest = ready
            while rest:
                bit = rest & -rest
                rest ^= bit
                key = placed | bit
                entry = nxt.get(key)
                if entry is None:
                    # the ready mask depends on the downset alone
                    ready_key = ready ^ bit
                    for jbit, m in above[bit.bit_length() - 1]:
                        if m & key == m:
                            ready_key |= jbit
                    nxt[key] = [ways, ready_key]
                else:
                    entry[0] += ways
        layer = nxt
    return layer.get((1 << n) - 1, [0])[0]
