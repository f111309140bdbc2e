"""The benchmark's workloads: each one a fixed query list built from a seed.

A query list is a tuple of ``Op``.  The generator is pure: it returns the
ops and the pattern files they read, and ``write_inputs`` puts the files on
disk.  Op ids name the kind, the input patterns and the sizes, so an id
identifies the exact work and the exact expected output of an op.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1

# Per-op deadline; only the known-hang op gets a tighter one.
DEFAULT_DEADLINE_S = 30.0

MONO_C = ("1576243", "13254")
MONO_D = ("12354", "132465")
# Eight overlap-graph vertices: the cache key searches 7! relabellings.
CACHE_COLLECTION = ("51423", "54321", "34215", "31452")
# Sixteen vertices and 130 edges: the cache key tries 15! relabellings and
# does not finish today.  Counted as failed until it keys in time.
HANG_COLLECTION = (
    "123456", "153264", "253614", "315426",
    "362541", "435261", "541632", "632154",
)
HANG_DEADLINE_S = 0.75
# The linear-extension DP on a seeded random poset, as
# benchmarks/bench_kernels.py times it (there at n = 18, edge density 0.2).
LINEXT_N = 17

WORKLOADS = ("avoid-count", "series-deep", "equiv-verify")


@dataclass(frozen=True)
class Op:
    """One query.

    ``kind`` is ``cli`` (``argv`` goes to ``clusterperm.cli.main``; ``@name``
    stands for the pattern file ``name``), ``series`` (monotone recurrence,
    avoidance GF and alpha extraction through the library, to ``order``),
    ``classify`` (``classify_s5(n_max=order)`` through the library) or
    ``linext`` (``kernels.count_linear_extensions(order, masks)``).
    ``check`` names the output check in ``checks.py``; ``expect`` is its
    argument.
    """

    id: str
    kind: str
    check: str
    argv: tuple[str, ...] = ()
    files: tuple[tuple[str, tuple[str, ...]], ...] = ()
    order: int = 0
    expect: str = ""
    masks: tuple[int, ...] = ()
    deadline_s: float = DEFAULT_DEADLINE_S


def _name(patterns) -> str:
    return "_".join(patterns)


def _cli(verb, patterns, check, *extra, deadline_s=DEFAULT_DEADLINE_S, tag=""):
    name = _name(patterns)
    op_id = " ".join((verb, name) + extra) + tag
    return Op(op_id, "cli", check, (verb, "@" + name) + extra,
              ((name, tuple(patterns)),), deadline_s=deadline_s)


def _equiv(a, b, order, verdict):
    na, nb = _name(a), _name(b)
    return Op(f"equiv {na} {nb} --n {order}", "cli", "equiv",
              ("equiv", "@" + na, "@" + nb, "--n", str(order)),
              ((na, tuple(a)), (nb, tuple(b))), expect=verdict)


def _series(patterns, order):
    name = _name(patterns)
    return Op(f"series {name} --n {order}", "series", "alpha",
              files=((name, tuple(patterns)),), order=order)


def seeded_poset(n, rng, density=0.2) -> tuple[int, ...]:
    """Predecessor bitmasks of a random order on n points."""
    less = [0] * n
    for i in range(n):
        for j in range(i):
            if rng.random() < density:
                less[i] |= 1 << j
    return tuple(less)


def seeded_two_pattern_collections(count, rng, make_collection, reject):
    """Reduced two-pattern collections with pattern lengths 3-4, drawn like
    the test suite's ``random_two_pattern_collections``."""
    out = []
    while len(out) < count:
        pats = tuple(
            tuple(rng.sample(range(1, l + 1), l))
            for l in (rng.randint(3, 4), rng.randint(3, 4))
        )
        if pats[0] == pats[1]:
            continue
        try:
            make_collection(pats)
        except reject:
            continue
        text = tuple("".join(map(str, p)) for p in pats)
        if text not in out:
            out.append(text)
    return out


def build(workload: str, seed: int, make_collection, reject) -> tuple[Op, ...]:
    """The query list of ``workload`` for ``seed``.

    ``make_collection`` validates a tuple of patterns (it is
    ``PatternCollection``) and raises one of ``reject`` for a collection
    that is not reduced.  The seed picks the seeded collections and the
    order of the queries within a pass.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "avoid-count":
        pair_a, pair_b = seeded_two_pattern_collections(
            2, rng, make_collection, reject)
        units = [
            [_cli("count", ("1324",), "alpha", "--n", "12")],
            [_cli("count", ("1734526",), "alpha", "--n", "13")],
            [_cli("count", pair_a, "alpha", "--n", "8")],
            [_cli("count", pair_b, "alpha", "--n", "8")],
            [_cli("count", ("12345",), "alpha", "--n", "9")],
            [_cli("count", ("13254",), "alpha", "--n", "10")],
            [_cli("count", MONO_D, "alpha", "--n", "10")],
        ]
    elif workload == "series-deep":
        units = [
            [_series(("12345",), 45)],
            [_series(MONO_C, 50)],
            [_series(MONO_D, 50)],
            [_cli("verify-ode", ("12345",), "verify_ode", "--n", "60")],
        ]
    elif workload == "equiv-verify":
        (pair,) = seeded_two_pattern_collections(
            1, rng, make_collection, reject)
        masks = seeded_poset(LINEXT_N, rng)
        cold = _cli("clusters", CACHE_COLLECTION, "clusters",
                    "--n", "8", "--q", "3", "--cache", tag=" (cold)")
        warm = _cli("clusters", CACHE_COLLECTION, "clusters",
                    "--n", "8", "--q", "3", "--cache", tag=" (warm)")
        units = [
            [Op("classify-s5 --n 9", "classify", "classify", order=9)],
            [_equiv(("1342",), ("1432",), 8, "equivalent (sufficient condition")],
            [_equiv(("1234",), ("4321",), 8, "equivalent to order N=8")],
            [_equiv(("123",), ("132",), 8, "not equivalent")],
            [cold, warm],  # one unit: warm runs right after cold
            [_cli("oracle", MONO_C, "oracle", "--n", "8")],
            [_cli("oracle", pair, "oracle", "--n", "7")],
            [Op(f"linext n={LINEXT_N} masks={','.join(map(str, masks))}",
                "linext", "linext", order=LINEXT_N, masks=masks)],
            [_cli("clusters", HANG_COLLECTION, "clusters",
                  "--n", "8", "--q", "3", "--cache",
                  deadline_s=HANG_DEADLINE_S)],
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(units)
    return tuple(op for unit in units for op in unit)


def write_inputs(ops, directory) -> dict[str, str]:
    """Write every pattern file the ops read; returns name -> path."""
    paths = {}
    for op in ops:
        for name, patterns in op.files:
            if name not in paths:
                path = directory / f"{name}.txt"
                path.write_text("\n".join(patterns) + "\n")
                paths[name] = str(path)
    return paths


def resolve_argv(op: Op, paths) -> list[str]:
    return [paths[a[1:]] if a.startswith("@") else a for a in op.argv]
