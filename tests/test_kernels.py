"""Counting kernels: the occurrence DP and the linear-extension DP against
brute force."""

import itertools
import random
from math import factorial, prod

import pytest

from conftest import MONO_C
from clusterperm import kernels
from clusterperm.graph import PatternCollection
from clusterperm.perms import DomainError, parse_perm
from clusterperm.series import alpha_counts, avoidance_gf


def brute_distribution(n, patterns):
    out = {}
    for sigma in itertools.permutations(range(1, n + 1)):
        q = 0
        for pat in patterns:
            l = len(pat)
            for i in range(n - l + 1):
                win = sigma[i : i + l]
                rank = sorted(win)
                if tuple(rank.index(v) + 1 for v in win) == tuple(pat):
                    q += 1
        out[q] = out.get(q, 0) + 1
    return out


def brute_linear_extensions(n, less):
    count = 0
    for order in itertools.permutations(range(n)):
        pos = {v: i for i, v in enumerate(order)}
        if all(
            pos[j] < pos[i]
            for i in range(n)
            for j in range(n)
            if less[i] >> j & 1
        ):
            count += 1
    return count


def test_backend_constant():
    assert kernels.BACKEND == "pure"


def random_collection(rng):
    return [
        tuple(rng.sample(range(1, l + 1), l))
        for l in (rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
    ]


def test_pure_distribution_matches_bruteforce():
    # mixed lengths 1-6 at every n <= 7, so some patterns are longer than n;
    # a pattern listed twice counts twice
    rng = random.Random(23)
    collections = [random_collection(rng) for _ in range(12)]
    collections += [
        [(1, 3, 2), (2, 1)],
        [(1, 2), (1, 2)],
        [(2, 1, 3), (1, 3, 2, 4, 5, 6), (1,)],
        [(1, 2, 3, 4), (3, 2, 1), (1, 2)],
        [(1, 3, 2, 4), (1, 4, 2, 5, 3)],
    ]
    for pats in collections:
        for n in range(8):
            assert kernels.count_distribution(n, pats) == brute_distribution(
                n, pats
            ), (pats, n)


def test_distribution_edge_cases():
    assert kernels.count_distribution(0, [(1, 2)]) == {0: 1}
    assert kernels.count_distribution(0, [(1,)]) == {0: 1}
    for n in range(1, 8):
        assert kernels.count_distribution(n, [(1,)]) == {n: factorial(n)}
        # no window is long enough
        assert kernels.count_distribution(n, [(1, 3, 2, 4, 5, 6, 7, 8)]) == {
            0: factorial(n)
        }


@pytest.mark.parametrize(
    "coll",
    [
        PatternCollection((parse_perm("1324"),)),
        PatternCollection((parse_perm("13254"), parse_perm("2413"))),
        MONO_C,
    ],
    ids=["1324", "13254_2413", "MONO_C"],
)
def test_distribution_matches_gf_at_n_12(coll):
    # beyond the reach of an S_n scan: the DP against the cluster method
    dist = kernels.count_distribution(12, coll.patterns)
    alpha = alpha_counts(avoidance_gf(coll, 12))
    row = {q: a for (n, q), a in alpha.items() if n == 12}
    assert dist == row
    assert sum(dist.values()) == factorial(12)


def test_pure_linear_extensions():
    # chain 0 < 1 < 2: one extension; antichain: n!
    chain = [0b000, 0b001, 0b011]
    assert kernels.count_linear_extensions(3, chain) == 1
    assert kernels.count_linear_extensions(3, [0, 0, 0]) == 6
    # V-poset 0 < 1, 0 < 2
    assert kernels.count_linear_extensions(3, [0, 0b001, 0b001]) == 2


def test_pure_linear_extensions_matches_bruteforce():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 6)
        less = [0] * n
        for i in range(n):
            for j in range(i):
                if rng.random() < 0.3:
                    less[i] |= 1 << j
        assert kernels.count_linear_extensions(n, less) == brute_linear_extensions(
            n, less
        )


def test_linear_extensions_of_any_constraints_match_bruteforce():
    # constraints in both directions, so some are cyclic and have none
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(0, 7)
        less = [0] * n
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.15:
                    less[i] |= 1 << j
        assert kernels.count_linear_extensions(n, less) == brute_linear_extensions(
            n, less
        )


def test_adjacent_pair_and_long_chain():
    assert kernels.count_distribution(3, [(1, 2)]) == {0: 1, 1: 4, 2: 1}
    big_chain = [(1 << i) - 1 for i in range(22)]
    assert kernels.count_linear_extensions(22, big_chain) == 1


def eulerian_rows(n_max):
    """A(n, k), the permutations of S_n with k ascents, by (k + 1) A(n - 1, k)
    + (n - k) A(n - 1, k - 1); row 0 is A(0, 0) = 1."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([(k + 1) * prev[k] + (n - k) * (prev[k - 1] if k else 0)
                     for k in range(n)])
    return rows


def test_ascent_distribution_is_eulerian_past_machine_words():
    # consecutive 12 marks the ascents; from n = 21 a packed slot is 72 bits
    # wide, more than one machine word, and at n = 22 the counts pass 2^64
    rows = eulerian_rows(22)
    assert max(rows[22]) > 2**64
    for n, row in enumerate(rows):
        expected = {k: a for k, a in enumerate(row) if a}
        assert kernels.count_distribution(n, [(1, 2)]) == expected, n


def zigzag_numbers(n_max):
    """E_0..E_n_max, the up/down numbers, by the Seidel boustrophedon."""
    out, row = [1], [1]
    for _ in range(n_max):
        nxt = [0]
        for x in reversed(row):
            nxt.append(nxt[-1] + x)
        row = nxt
        out.append(row[-1])
    return out


def test_zigzag_poset_has_the_up_down_number_of_extensions():
    # p0 < p1 > p2 < p3 > ...: E_17 = 209,865,342,976 at the benchmark's size
    numbers = zigzag_numbers(20)
    assert numbers[:8] == [1, 1, 1, 2, 5, 16, 61, 272]
    assert numbers[17] == 209_865_342_976
    for n in range(21):
        less = [0] * n
        for i in range(1, n, 2):
            less[i] = 1 << (i - 1) | (1 << (i + 1) if i + 1 < n else 0)
        assert kernels.count_linear_extensions(n, less) == numbers[n], n


@pytest.mark.parametrize("lengths", [(1,), (3, 4), (2, 2, 2), (5, 1, 6, 3), (7, 7, 4)])
def test_disjoint_chains_give_the_multinomial(lengths):
    # each point above its neighbour only, so the kernel must close the order
    less, start = [], 0
    for l in lengths:
        less += [0] + [1 << i for i in range(start, start + l - 1)]
        start += l
    expected = factorial(sum(lengths)) // prod(map(factorial, lengths))
    assert kernels.count_linear_extensions(len(less), less) == expected


def test_kernels_name_a_bad_argument():
    with pytest.raises(DomainError, match=r"len\(less_masks\) = 2"):
        kernels.count_linear_extensions(3, [0, 1])
    with pytest.raises(DomainError, match="n = -1"):
        kernels.count_linear_extensions(-1, [])
    with pytest.raises(DomainError, match="n = -1"):
        kernels.count_distribution(-1, [(1, 2)])
