"""Untimed output checks.

Every op's exact output is hashed.  For the default seed each op id has a
stored digest (``expected.json``); for any seed each output must also pass
the invariant check its op names, and every pass must reproduce the first
pass's output.  A check returns ``None`` when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import factorial
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Distributions are compared with the S_n scan up to this length.
ORACLE_MAX_N = 8

_VERIFY_LINE = re.compile(r"^.+: pass \(through x\^\d+\)$")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, str]:
    return json.loads(path.read_text()) if path.exists() else {}


def flag(op, name: str) -> int:
    return int(op.argv[op.argv.index(name) + 1])


def collection(cp, patterns):
    return cp.graph.PatternCollection(
        tuple(cp.perms.parse_collection_text("\n".join(patterns)))
    )


def parse_rows(text: str) -> dict[tuple[int, int], int]:
    rows = {}
    for line in text.splitlines():
        n, q, c = line.split("\t")
        rows[(int(n), int(q))] = int(c)
    return rows


def check_alpha(cp, op, output):
    """alpha(n, q) table: each row sums to n!, and rows n <= 8 equal the
    S_n scan."""
    order = op.order or flag(op, "--n")
    rows = parse_rows(output)
    by_n: dict[int, dict[int, int]] = {}
    for (n, q), c in rows.items():
        by_n.setdefault(n, {})[q] = c
    if not set(range(1, order + 1)) <= set(by_n) <= set(range(order + 1)):
        return f"rows cover n in {sorted(by_n)}, want 1..{order}"
    for n, dist in by_n.items():
        if sum(dist.values()) != factorial(n):
            return f"sum over q of alpha({n}, q) is not {n}!"
    coll = collection(cp, op.files[0][1])
    for n in range(1, min(order, ORACLE_MAX_N) + 1):
        if cp.series.count_distribution_oracle(coll, n) != by_n[n]:
            return f"alpha({n}, q) disagrees with the S_{n} scan"
    return None


def check_verify_ode(cp, op, output):
    lines = output.splitlines()
    if lines[-1:] != ["boundary: pass"]:
        return "boundary check did not pass"
    bad = [line for line in lines[:-1] if not _VERIFY_LINE.match(line)]
    if bad or not lines[:-1]:
        return f"equation check failed: {bad[:1]}"
    return None


def check_equiv(cp, op, output):
    if output.count("\n") != 1 or not output.startswith(op.expect):
        return f"verdict {output.strip()!r}, want {op.expect!r}..."
    return None


def check_clusters(cp, op, output):
    """Cached cluster table equals the one the engine computes uncached."""
    n, q = flag(op, "--n"), flag(op, "--q")
    table = cp.clusters.cluster_counts(collection(cp, op.files[0][1]), n, q)
    if output != cp.clusters.totals_to_tsv(table.totals):
        return "cluster table differs from the uncached computation"
    return None


def check_oracle(cp, op, output):
    if output != "oracle agreement: pass\n":
        return f"oracle reported {output.strip()[-40:]!r}"
    return None


def check_classify(cp, op, output):
    report = json.loads(output)
    reps = [o["representative"] for o in report["orbits"]]
    grouped = sorted(
        r for groups in report["classes"].values() for g in groups for r in g
    )
    if report["orbit_count"] != 32 or len(reps) != 32:
        return f"{report['orbit_count']} orbits, want 32"
    if sum(o["size"] for o in report["orbits"]) != 120:
        return "orbits do not partition S_5"
    if grouped != sorted(reps):
        return "classes do not partition the orbit representatives"
    return None


def check_linext(cp, op, output):
    """Recount by choosing the smallest value first, top-down and memoized;
    the kernel fills blocks bottom-up by their largest value."""
    full = (1 << op.order) - 1
    ways = {full: 1}

    def extend(placed):
        if placed not in ways:
            ways[placed] = sum(
                extend(placed | 1 << i)
                for i in range(op.order)
                if not placed >> i & 1 and op.masks[i] & placed == op.masks[i]
            )
        return ways[placed]

    if int(output) != extend(0):
        return f"{output.strip()} linear extensions, recount gives {extend(0)}"
    return None


CHECKS = {
    "alpha": check_alpha,
    "verify_ode": check_verify_ode,
    "equiv": check_equiv,
    "clusters": check_clusters,
    "oracle": check_oracle,
    "classify": check_classify,
    "linext": check_linext,
}


class Checker:
    """Checks op outputs, remembering each verdict by (op id, digest)."""

    def __init__(self, cp, expected: dict[str, str]):
        self.cp = cp
        self.expected = expected
        self._first: dict[str, str] = {}
        self._verdicts: dict[tuple[str, str], str | None] = {}

    def verify(self, op, output: str) -> str | None:
        d = digest(output)
        first = self._first.setdefault(op.id, d)
        if d != first:
            return "output differs from the first pass"
        if (op.id, d) not in self._verdicts:
            self._verdicts[(op.id, d)] = self._check(op, output, d)
        return self._verdicts[(op.id, d)]

    def _check(self, op, output, d):
        want = self.expected.get(op.id)
        if want is not None and want != d:
            return f"digest {d[:12]} differs from the stored {want[:12]}"
        try:
            return CHECKS[op.check](self.cp, op, output)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
