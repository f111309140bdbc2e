"""Hot kernels: compiled extension vs pure-Python fallback."""

import itertools

import pytest

from clusterperm import _kernels_py, kernels

try:
    from clusterperm import _kernels as compiled
except ImportError:  # pragma: no cover - build-dependent
    compiled = None


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
    assert kernels.BACKEND in ("compiled", "pure")


def test_pure_distribution_matches_bruteforce():
    pats = [(1, 3, 2), (2, 1)]
    for n in range(1, 6):
        assert _kernels_py.count_distribution(n, pats) == brute_distribution(n, pats)


def test_pure_linear_extensions():
    # chain 0 < 1 < 2: one extension; antichain: n!
    chain = [0b000, 0b001, 0b011]
    assert _kernels_py.count_linear_extensions(3, chain) == 1
    assert _kernels_py.count_linear_extensions(3, [0, 0, 0]) == 6
    # V-poset 0 < 1, 0 < 2
    assert _kernels_py.count_linear_extensions(3, [0, 0b001, 0b001]) == 2


def test_pure_linear_extensions_matches_bruteforce():
    import random

    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 6)
        less = [0] * n
        for i in range(n):
            for j in range(i):
                if rng.random() < 0.3:
                    less[i] |= 1 << j
        assert _kernels_py.count_linear_extensions(n, less) == brute_linear_extensions(
            n, less
        )


def test_linear_extensions_of_any_constraints_match_bruteforce():
    # constraints in both directions, so some are cyclic and have none
    import random

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


@pytest.mark.skipif(compiled is None, reason="compiled extension not built")
def test_compiled_matches_pure():
    pats = [(1, 2, 3), (1, 3, 2), (3, 1, 2)]
    for n in range(1, 8):
        assert compiled.count_distribution(n, pats) == _kernels_py.count_distribution(
            n, pats
        )
    import random

    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 10)
        less = [0] * n
        for i in range(n):
            for j in range(i):
                if rng.random() < 0.25:
                    less[i] |= 1 << j
        assert compiled.count_linear_extensions(
            n, less
        ) == _kernels_py.count_linear_extensions(n, less)


def test_dispatcher_uses_fallback_beyond_caps():
    # n beyond the compiled scan cap must still answer via the fallback
    pats = [(1, 2)]
    assert kernels.count_distribution(3, pats) == {0: 1, 1: 4, 2: 1}
    big_chain = [(1 << i) - 1 for i in range(22)]
    assert kernels.count_linear_extensions(22, big_chain) == 1


def test_env_override_selects_pure(monkeypatch):
    import importlib
    import subprocess
    import sys

    code = (
        "import os; os.environ['CLUSTERPERM_PURE_PYTHON']='1';"
        "from clusterperm import kernels; print(kernels.BACKEND)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "pure"
