"""Command-line interface.

Subcommands: count, clusters, graph, gf, equiv, monotone, verify-ode,
classify-s5, oracle.  Exit status 0 on success, 1 on a domain error
(malformed pattern, non-reduced collection, cap exceeded), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import cache, clusters, equivalence, monotone, series
from .graph import PatternCollection, build_graph, graph_to_dot
from .perms import DomainError, parse_collection_text

ORACLE_CAP = 10


@dataclass
class RunConfig:
    subcommand: str
    paths: tuple[Path, ...]
    n: int
    q: int
    fmt: str
    force: bool
    use_cache: bool


def _load_collection(path) -> PatternCollection:
    text = Path(path).read_text()
    return PatternCollection(tuple(parse_collection_text(text)))


def _emit(text: str):
    sys.stdout.write(text)


def cmd_count(cfg: RunConfig) -> int:
    coll = _load_collection(cfg.paths[0])
    gf = series.avoidance_gf(coll, cfg.n)
    if cfg.fmt == "avoiders":
        _emit(series.avoiders_to_tsv(gf))
    else:
        _emit(series.alpha_to_tsv(gf))
    return 0


def cmd_clusters(cfg: RunConfig) -> int:
    coll = _load_collection(cfg.paths[0])
    if cfg.use_cache:
        table = cache.cached_cluster_counts(coll, cfg.n, cfg.q)
    else:
        table = clusters.cluster_counts(coll, cfg.n, cfg.q)
    _emit(clusters.totals_to_tsv(table.totals))
    return 0


def cmd_graph(cfg: RunConfig) -> int:
    coll = _load_collection(cfg.paths[0])
    _emit(graph_to_dot(build_graph(coll)))
    return 0


def cmd_gf(cfg: RunConfig) -> int:
    coll = _load_collection(cfg.paths[0])
    if cfg.fmt == "cluster":
        table = clusters.cluster_counts(coll, cfg.n, cfg.n)
        _emit(series.gf_to_tsv(series.cluster_gf(table, cfg.n)))
    else:
        _emit(series.gf_to_tsv(series.avoidance_gf(coll, cfg.n)))
    return 0


def cmd_equiv(cfg: RunConfig) -> int:
    c1 = _load_collection(cfg.paths[0])
    c2 = _load_collection(cfg.paths[1])
    phi = equivalence.any_theorem13_bijection(c1, c2)
    if phi is not None:
        pairs = ", ".join(f"{a} -> {b}" for a, b in phi.pairs)
        _emit(f"equivalent (sufficient condition holds via {pairs})\n")
        return 0
    iso = equivalence.graphs_isomorphic(build_graph(c1), build_graph(c2))
    if iso is not None:
        _emit("equivalent (overlap graphs isomorphic)\n")
        return 0
    if equivalence.verify_strong_equivalence(c1, c2, cfg.n):
        _emit(f"equivalent to order N={cfg.n} (generating functions agree)\n")
    else:
        _emit(f"not equivalent (generating functions differ within order {cfg.n})\n")
    return 0


def cmd_monotone(cfg: RunConfig) -> int:
    coll = _load_collection(cfg.paths[0])
    res = monotone.is_monotone(coll)
    if not res:
        pi, pp, k = res.witness
        _emit(f"not monotone: {pi} -> {pp} at k={k}\n")
        return 0
    system = monotone.emit_ode_system(coll)
    if cfg.fmt == "json":
        _emit(monotone.system_to_json(system))
    else:
        _emit("monotone\n")
        _emit(monotone.system_to_text(system))
    return 0


def cmd_verify_ode(cfg: RunConfig) -> int:
    coll = _load_collection(cfg.paths[0])
    system = monotone.emit_ode_system(coll)
    ys = monotone.monotone_vertex_series(coll, cfg.n)
    report = monotone.verify_ode(system, ys, cfg.n)
    for check in report.equations:
        status = "pass" if check.ok else "fail"
        line = f"{check.vertex}: {status} (through x^{check.checked_order})"
        if check.mismatch:
            n, q, lhs, rhs = check.mismatch
            line += f" first mismatch at x^{n} t^{q}: {lhs} != {rhs}"
        _emit(line + "\n")
    _emit(f"boundary: {'pass' if report.boundary_ok else 'fail'}\n")
    return 0 if report.ok else 1


def cmd_classify_s5(cfg: RunConfig) -> int:
    report = equivalence.classify_s5()
    if cfg.fmt == "json":
        _emit(json.dumps(report, indent=2) + "\n")
    else:
        _emit(f"orbits: {report['orbit_count']}\n")
        for key, groups in report["classes"].items():
            _emit(f"bucket {key}:\n")
            for grp in groups:
                _emit("  " + " ~ ".join(grp) + "\n")
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    coll = _load_collection(cfg.paths[0])
    if cfg.n > ORACLE_CAP and not cfg.force:
        raise DomainError(
            f"oracle capped at n={ORACLE_CAP}; pass --force to override"
        )
    ok = True
    # one table serves the cluster check (q <= cfg.q) and the GF (q <= cfg.n)
    table = clusters.cluster_counts(coll, cfg.n, max(cfg.n, cfg.q))
    for q in range(1, cfg.q + 1):
        for n in range(1, cfg.n + 1):
            oracle = clusters.count_clusters_oracle(coll, n, q)
            fast = table.total(n, q)
            if oracle != fast:
                ok = False
                _emit(f"cluster mismatch at n={n} q={q}: {oracle} != {fast}\n")
    dist = series.count_distribution_oracle(coll, cfg.n)
    alpha = series.alpha_counts(series.avoidance_gf(coll, cfg.n, table=table))
    for q, count in dist.items():
        if alpha.get((cfg.n, q), 0) != count:
            ok = False
            _emit(f"distribution mismatch at n={cfg.n} q={q}\n")
    _emit("oracle agreement: " + ("pass" if ok else "fail") + "\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterperm",
        description="Consecutive pattern statistics via cluster recurrences",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_, paths=1, n=None, formats=(), q=False, force=False,
            cache=False):
        """A subcommand with only the flags its handler reads; the first of
        ``formats`` is the default ``--format``."""
        p = sub.add_parser(name, help=help_)
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

    add("count", "occurrence-count tables alpha_{n,q}", n=10,
        formats=("tsv", "avoiders"))
    add("clusters", "cluster-count table cl_{n,q}", n=10, q=True, cache=True)
    add("graph", "overlap graph as DOT")
    add("gf", "generating function coefficients", n=10,
        formats=("tsv", "cluster"))
    add("equiv", "strong c-Wilf equivalence of two collections", paths=2, n=12)
    add("monotone", "monotonicity check and ODE emission",
        formats=("tsv", "json"))
    add("verify-ode", "verify the emitted ODE system against the series", n=20)
    add("classify-s5", "orbit classification of S_5", paths=0,
        formats=("text", "json"))
    add("oracle", "brute-force cross-checks", n=10, q=True, force=True)
    return parser


_DISPATCH = {
    "count": cmd_count,
    "clusters": cmd_clusters,
    "graph": cmd_graph,
    "gf": cmd_gf,
    "equiv": cmd_equiv,
    "monotone": cmd_monotone,
    "verify-ode": cmd_verify_ode,
    "classify-s5": cmd_classify_s5,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    paths = []
    for attr in ("patterns", "patterns1"):
        if hasattr(args, attr):
            paths.append(Path(getattr(args, attr)))
    cfg = RunConfig(
        subcommand=args.subcommand,
        paths=tuple(paths),
        n=getattr(args, "n", 10),
        q=getattr(args, "q", 5),
        fmt=getattr(args, "format", "tsv"),
        force=getattr(args, "force", False),
        use_cache=getattr(args, "cache", False),
    )
    try:
        return _DISPATCH[args.subcommand](cfg)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
