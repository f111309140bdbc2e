"""Persistent cache for cluster tables, keyed by the canonical overlap graph.

Collections whose graphs are isomorphic (label-preserving on edges, vertex
labels free, distinguished vertex fixed) have identical cluster statistics,
so the canonical form of the graph plus the fill bounds (N, Q) is a sound
cache key.  The form is ``graph.canonical_form``: the overlap graph's call of
the canonical-form search that also decides the Theorem 1.3 bijection.  A
graph past that search's leaf budget has no key, and its table is computed
uncached.  Tables
are stored as JSON files that carry the cache schema version and their own
key; writes go through a temporary file in the same directory followed by an
atomic rename.  A file that cannot be read back as a table (one nested too
deeply for the JSON decoder among them), that holds a malformed or repeated
cell, whose cell list is not as long as the cell count it records, or whose
schema, key or fill bounds differ from the request, counts as a miss and is
rewritten.  So does a cell above n! 2^(n - 1): in a reduced collection one
pattern at most starts at each position, so a cluster is a permutation with
a set of marked starts, the first one always marked.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from math import factorial
from pathlib import Path

from .clusters import ClusterTable, cluster_counts
from .graph import LeafBudgetError, PatternCollection, build_graph, canonical_form

ENV_CACHE_DIR = "CLUSTERPERM_CACHE_DIR"
# Bumped whenever the key or the file layout changes.
SCHEMA = 3


def cache_key(collection: PatternCollection) -> str:
    """Hex digest identifying the collection's overlap graph up to
    label-preserving isomorphism."""
    encoding, _ = canonical_form(build_graph(collection))
    return hashlib.sha256(repr(encoding).encode()).hexdigest()


def cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "clusterperm"


def _table_path(key: str, n_max: int, q_max: int, directory: Path) -> Path:
    return directory / f"{key}-N{n_max}-Q{q_max}.json"


def atomic_write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_table(
    table: ClusterTable, directory: Path | None = None, *, key: str | None = None
) -> Path:
    """Write the table under ``key``, computed from its collection when
    absent."""
    if key is None:
        key = cache_key(table.collection)
    directory = directory or cache_dir()
    doc = {
        "schema": SCHEMA,
        "key": key,
        "n_max": table.n_max,
        "q_max": table.q_max,
        "cells": len(table.totals),
        "totals": [[n, q, str(c)] for (n, q), c in table.totals.items()],
    }
    path = _table_path(key, table.n_max, table.q_max, directory)
    atomic_write_text(path, json.dumps(doc) + "\n")
    return path


def load_table(
    collection: PatternCollection,
    n_max: int,
    q_max: int,
    directory: Path | None = None,
    *,
    key: str | None = None,
) -> ClusterTable | None:
    """The cached table under ``key`` (computed from the collection when
    absent), or None on a miss."""
    if key is None:
        key = cache_key(collection)
    directory = directory or cache_dir()
    path = _table_path(key, n_max, q_max, directory)
    if not path.exists():
        return None
    # a truncated, too deeply nested, stale or foreign file, or one with a
    # malformed, repeated, missing or too large cell, is a miss; the caller
    # recomputes and overwrites it
    try:
        doc = json.loads(path.read_text())
        if (doc["schema"], doc["key"], doc["n_max"], doc["q_max"], doc["cells"]) != (
            SCHEMA, key, n_max, q_max, len(doc["totals"])
        ):
            return None
        rows = [[] for _ in range(n_max + 1)]
        for n, q, c in doc["totals"]:
            if not (type(n) is type(q) is int and 1 <= n <= n_max and 0 <= q <= q_max
                    and not (q < len(rows[n]) and rows[n][q]) and type(c) is str
                    and c.isascii() and c.isdigit() and c[0] != "0"
                    and (count := int(c)) <= factorial(n) << (n - 1)):
                return None
            rows[n] += [0] * (q + 1 - len(rows[n]))
            rows[n][q] = count
        return ClusterTable(collection, n_max, q_max, rows)
    except (ValueError, KeyError, TypeError, RecursionError):
        return None


def cached_cluster_counts(
    collection: PatternCollection,
    n_max: int,
    q_max: int,
    directory: Path | None = None,
) -> ClusterTable:
    """Load the table from cache or compute and store it.  The key is
    computed once: on a large overlap graph it is the costly part."""
    try:
        key = cache_key(collection)
    except LeafBudgetError:
        return cluster_counts(collection, n_max, q_max)
    hit = load_table(collection, n_max, q_max, directory, key=key)
    if hit is not None:
        return hit
    table = cluster_counts(collection, n_max, q_max)
    save_table(table, directory, key=key)
    return table
