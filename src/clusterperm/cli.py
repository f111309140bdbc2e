"""Command-line interface.

Subcommands: count, clusters, graph, gf, equiv, monotone, verify-ode,
classify-s5, oracle.  ``build_parser`` registers each in one ``add`` call
that names it, declares only the flags its handler reads and binds the
handler; ``main`` parses and calls that handler with the namespace.  Exit
status 0 on success, 1 on a domain error (malformed pattern, non-reduced
collection, cap exceeded) or an unreadable file, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import cache, clusters, equivalence, monotone, series
from .graph import PatternCollection, build_graph, graph_to_dot, is_monotone
from .perms import DomainError, parse_collection_text

ORACLE_CAP = 10


def _load_collection(path) -> PatternCollection:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is no entry
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return PatternCollection(parse_collection_text(text))


def cmd_count(args: argparse.Namespace) -> int:
    coll = _load_collection(args.patterns)
    gf = series.avoidance_gf(coll, args.n)
    if args.format == "avoiders":
        sys.stdout.write(series.avoiders_to_tsv(gf))
    else:
        sys.stdout.write(clusters.totals_to_tsv(series.alpha_counts(gf)))
    return 0


def cmd_clusters(args: argparse.Namespace) -> int:
    coll = _load_collection(args.patterns)
    if args.cache:
        table = cache.cached_cluster_counts(coll, args.n, args.q)
    else:
        table = clusters.cluster_counts(coll, args.n, args.q)
    sys.stdout.write(clusters.totals_to_tsv(table.totals))
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    coll = _load_collection(args.patterns)
    sys.stdout.write(graph_to_dot(build_graph(coll)))
    return 0


def cmd_gf(args: argparse.Namespace) -> int:
    coll = _load_collection(args.patterns)
    if args.format == "cluster":
        table = clusters.cluster_counts(coll, args.n, args.n)
        sys.stdout.write(series.gf_to_tsv(series.cluster_gf(table, args.n)))
    else:
        sys.stdout.write(series.gf_to_tsv(series.avoidance_gf(coll, args.n)))
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    c1 = _load_collection(args.patterns)
    c2 = _load_collection(args.patterns1)
    try:
        phi = equivalence.any_theorem13_bijection(c1, c2)
    except equivalence.SearchBudgetError:
        phi = None  # past the search's node budget the tables below decide
    if phi is not None:
        pairs = ", ".join(f"{a} -> {b}" for a, b in phi.pairs)
        sys.stdout.write(f"equivalent (sufficient condition holds via {pairs})\n")
        return 0
    if equivalence.verify_strong_equivalence(c1, c2, args.n):
        sys.stdout.write(f"equivalent to order N={args.n} (generating functions agree)\n")
    else:
        sys.stdout.write(f"not equivalent (generating functions differ within order {args.n})\n")
    return 0


def cmd_monotone(args: argparse.Namespace) -> int:
    coll = _load_collection(args.patterns)
    res = is_monotone(coll)
    if not res:
        pi, pp, k = res.witness
        sys.stdout.write(f"not monotone: {pi} -> {pp} at k={k}\n")
        return 0
    system = monotone.emit_ode_system(coll)
    if args.format == "json":
        sys.stdout.write(monotone.system_to_json(system))
    else:
        sys.stdout.write("monotone\n")
        sys.stdout.write(monotone.system_to_text(system))
    return 0


def cmd_verify_ode(args: argparse.Namespace) -> int:
    coll = _load_collection(args.patterns)
    # one graph and one fill of the vertex rows serve the system and the check
    system, tables = monotone._ode_system(build_graph(coll), args.n)  # checks monotonicity
    if args.n < 0:
        raise DomainError("truncation order must be nonnegative")
    report = monotone._verify_rows(system, tables, args.n)
    for check in report.equations:
        status = "pass" if check.ok else "fail"
        line = f"{check.vertex}: {status} (through x^{check.checked_order})"
        if check.mismatch:
            n, q, lhs, rhs = check.mismatch
            line += f" first mismatch at x^{n} t^{q}: {lhs} != {rhs}"
        sys.stdout.write(line + "\n")
    sys.stdout.write(f"boundary: {'pass' if report.boundary_ok else 'fail'}\n")
    return 0 if report.ok else 1


def cmd_classify_s5(args: argparse.Namespace) -> int:
    report = equivalence.classify_s5()
    if args.format == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write(f"orbits: {report['orbit_count']}\n")
        for key, groups in report["classes"].items():
            sys.stdout.write(f"bucket {key}:\n")
            for grp in groups:
                sys.stdout.write("  " + " ~ ".join(grp) + "\n")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    coll = _load_collection(args.patterns)
    if args.n > ORACLE_CAP and not args.force:
        raise DomainError(
            f"oracle capped at n={ORACLE_CAP}; pass --force to override"
        )
    ok = True
    # one table serves the cluster check (q <= --q) and the GF (q <= --n)
    table = clusters.cluster_counts(coll, args.n, max(args.n, args.q))
    for q in range(1, args.q + 1):
        for n in range(1, args.n + 1):
            oracle = clusters.count_clusters_oracle(coll, n, q)
            fast = table.total(n, q)
            if oracle != fast:
                ok = False
                sys.stdout.write(f"cluster mismatch at n={n} q={q}: {oracle} != {fast}\n")
    dist = series.count_distribution_oracle(coll, args.n)
    alpha = series.alpha_counts(series.avoidance_gf(coll, args.n, table=table))
    # a q that only one side has must be zero on the other
    for q in sorted(dist.keys() | {q for n, q in alpha if n == args.n}):
        oracle, fast = dist.get(q, 0), alpha.get((args.n, q), 0)
        if oracle != fast:
            ok = False
            sys.stdout.write(f"distribution mismatch at n={args.n} q={q}: {oracle} != {fast}\n")
    sys.stdout.write("oracle agreement: " + ("pass" if ok else "fail") + "\n")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``main`` only reads it."""
    parser = argparse.ArgumentParser(
        prog="clusterperm",
        description="Consecutive pattern statistics via cluster recurrences",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_, paths=1, n=None, formats=(), q=False,
            force=False, cache=False):
        """Subcommand ``name`` bound to ``handler``, with only the flags it reads."""
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        for i in range(paths):
            p.add_argument("patterns" + (str(i) if i else ""))
        if n is not None:
            p.add_argument("--n", type=int, default=n)
        if q:
            p.add_argument("--q", type=int, default=5)
        if formats:
            p.add_argument("--format", default=formats[0], choices=formats)
        if force:
            p.add_argument("--force", action="store_true")
        if cache:
            p.add_argument("--cache", action="store_true")

    add("count", cmd_count, "occurrence-count tables alpha_{n,q}", n=10,
        formats=("tsv", "avoiders"))
    add("clusters", cmd_clusters, "cluster-count table cl_{n,q}", n=10, q=True, cache=True)
    add("graph", cmd_graph, "overlap graph as DOT")
    add("gf", cmd_gf, "generating function coefficients", n=10, formats=("tsv", "cluster"))
    add("equiv", cmd_equiv, "strong c-Wilf equivalence of two collections", paths=2, n=12)
    add("monotone", cmd_monotone, "monotonicity check and ODE emission",
        formats=("tsv", "json"))
    add("verify-ode", cmd_verify_ode, "verify the emitted ODE system against the series",
        n=20)
    add("classify-s5", cmd_classify_s5, "orbit classification of S_5", paths=0,
        formats=("text", "json"))
    add("oracle", cmd_oracle, "brute-force cross-checks", n=10, q=True, force=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
