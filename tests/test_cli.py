"""Command-line interface: subcommands, formats, exit codes."""

import hashlib
import json
from collections import Counter
from itertools import permutations
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import clusterperm
import clusterperm.graph as graph_module
from clusterperm import cli, clusters, equivalence, monotone, series
from clusterperm.cli import build_parser, main


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def p123(tmp_path):
    return write(tmp_path, "p123.txt", "123\n")


def test_count_alpha_table(p123, capsys):
    assert main(["count", p123, "--n", "6"]) == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        n, q, a = line.split("\t")
        rows[(int(n), int(q))] = int(a)
    assert rows[(3, 0)] == 5
    assert rows[(3, 1)] == 1
    assert sum(a for (n, _), a in rows.items() if n == 6) == 720


def test_count_avoiders_format(p123, capsys):
    assert main(["count", p123, "--n", "5", "--format", "avoiders"]) == 0
    lines = [l.split("\t") for l in capsys.readouterr().out.splitlines()]
    assert [int(a) for _, a in lines] == [1, 2, 5, 17, 70]


def test_clusters_table(p123, capsys, tmp_path, monkeypatch):
    assert main(["clusters", p123, "--n", "6", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "3\t1\t1" in out
    monkeypatch.setenv("CLUSTERPERM_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["clusters", p123, "--n", "6", "--q", "3", "--cache"]) == 0
    assert capsys.readouterr().out == out
    assert (tmp_path / "cache").exists()


def test_clusters_cache_recovers_from_truncated_file(
    p123, capsys, tmp_path, monkeypatch
):
    monkeypatch.setenv("CLUSTERPERM_CACHE_DIR", str(tmp_path / "cache"))
    argv = ["clusters", p123, "--n", "6", "--q", "3", "--cache"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    (cached,) = (tmp_path / "cache").iterdir()
    whole = cached.read_text()
    cached.write_text(whole[: len(whole) // 2])
    assert main(argv) == 0
    assert capsys.readouterr().out == out
    assert cached.read_text() == whole


def test_graph_dot(p123, capsys):
    assert main(["graph", p123]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_gf_formats(p123, capsys):
    assert main(["gf", p123, "--n", "5"]) == 0
    avoid = capsys.readouterr().out
    assert main(["gf", p123, "--n", "5", "--format", "cluster"]) == 0
    cluster = capsys.readouterr().out
    assert avoid != cluster and avoid and cluster


def test_equiv_structural(tmp_path, capsys):
    a = write(tmp_path, "a.txt", "143265987\n")
    b = write(tmp_path, "b.txt", "134265897\n")
    assert main(["equiv", a, b]) == 0
    assert "sufficient condition holds" in capsys.readouterr().out


def test_equiv_gf_fallback(tmp_path, capsys):
    # equivalent to finite order but structurally unrelated checks fall back
    a = write(tmp_path, "a.txt", "123\n")
    b = write(tmp_path, "b.txt", "321\n")
    assert main(["equiv", a, b, "--n", "8"]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_equiv_negative(tmp_path, capsys):
    a = write(tmp_path, "a.txt", "123\n")
    b = write(tmp_path, "b.txt", "132\n")
    assert main(["equiv", a, b, "--n", "8"]) == 0
    assert "not equivalent" in capsys.readouterr().out


def test_equiv_answers_past_the_search_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(equivalence, "_NODE_BUDGET", 1)
    with pytest.raises(equivalence.SearchBudgetError, match="over 1 nodes on 1 patterns"):
        equivalence.any_theorem13_bijection([(1, 3, 4, 2)], [(1, 4, 3, 2)])
    a = write(tmp_path, "a.txt", "1342\n")
    b = write(tmp_path, "b.txt", "1432\n")
    assert main(["equiv", a, b]) == 0
    assert capsys.readouterr().out == "equivalent to order N=12 (generating functions agree)\n"


def test_equiv_bounds_a_factorial_bijection_search(tmp_path, capsys):
    # all 120 patterns of length 7 that start with 1 and end with 2 overlap one
    # another only at k = 1; against 11 of them and 7654312, which each of them
    # overlaps at k = 2, a search blind to the labels tries every pairing of
    # the 11, while no family pattern has a candidate of equal label
    family = [p for p in permutations(range(1, 8)) if p[0] == 1 and p[-1] == 2]
    pats_a, pats_b = family[:12], [*family[:11], (7, 6, 5, 4, 3, 1, 2)]
    assert equivalence.any_theorem13_bijection(pats_a, pats_b) is None
    a, b = (write(tmp_path, f"{name}.txt", "".join("".join(map(str, p)) + "\n" for p in pats))
            for name, pats in (("a", pats_a), ("b", pats_b)))
    start = time.perf_counter()
    assert main(["equiv", a, b]) == 0
    assert time.perf_counter() - start < 1
    out = capsys.readouterr().out
    assert out == "not equivalent (generating functions differ within order 12)\n"


def test_monotone_positive_and_json(tmp_path, capsys):
    f = write(tmp_path, "m.txt", "1 3 4 2 7 6 5\n1 2 5 3 6 4\n")
    assert main(["monotone", f]) == 0
    out = capsys.readouterr().out
    assert out.startswith("monotone")
    assert main(["monotone", f, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["equations"][0]["order"] == 5


def test_monotone_negative(tmp_path, capsys):
    f = write(tmp_path, "m.txt", "213\n")
    assert main(["monotone", f]) == 0
    assert "not monotone" in capsys.readouterr().out


def test_verify_ode(tmp_path, capsys):
    f = write(tmp_path, "m.txt", "1 3 2 6 7 9 4 8 5\n")
    assert main(["verify-ode", f, "--n", "20"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "fail" not in out


def test_verify_ode_reports_the_first_mismatch(tmp_path, capsys, monkeypatch):
    # the equation for (1), with its first term's b raised by one
    f = write(tmp_path, "p.txt", "12345\n")
    real = monotone._ode_system

    def altered(graph, order=0):
        system, tables = real(graph, order)
        eq, *rest = system.equations
        term, *terms = eq.terms
        eq = eq._replace(terms=(term._replace(b=term.b + 1), *terms))
        return system._replace(equations=(eq, *rest)), tables

    monkeypatch.setattr(monotone, "_ode_system", altered)
    assert main(["verify-ode", f, "--n", "12"]) == 1
    assert capsys.readouterr().out == (
        "(1,): fail (through x^7) first mismatch at x^0 t^1: 1 != 0\n"
        "(1, 2): pass (through x^7)\n"
        "(1, 2, 3): pass (through x^7)\n"
        "(1, 2, 3, 4): pass (through x^7)\n"
        "boundary: pass\n"
    )


def test_oracle_reports_each_mismatch(tmp_path, capsys, monkeypatch):
    # each oracle off by one at one cell
    f = write(tmp_path, "p.txt", "132\n")
    real_clusters = clusters.count_clusters_oracle
    real_dist = series.count_distribution_oracle

    def cluster_oracle(coll, n, q):
        return real_clusters(coll, n, q) + ((n, q) == (5, 2))

    def distribution_oracle(coll, n):
        dist = real_dist(coll, n)
        dist[1] += 1
        return dist

    monkeypatch.setattr(clusters, "count_clusters_oracle", cluster_oracle)
    monkeypatch.setattr(series, "count_distribution_oracle", distribution_oracle)
    assert main(["oracle", f, "--n", "6", "--q", "3"]) == 1
    assert capsys.readouterr().out == (
        "cluster mismatch at n=5 q=2: 4 != 3\n"
        "distribution mismatch at n=6 q=1: 369 != 368\n"
        "oracle agreement: fail\n"
    )


def test_oracle_compares_the_table_q_keys_too(tmp_path, capsys, monkeypatch):
    # a count at a q that the occurrence DP never reaches at n = 6
    f = write(tmp_path, "p.txt", "132\n")
    real = series.alpha_counts

    def alpha_counts(gf):
        return {**real(gf), (6, 5): 7}

    monkeypatch.setattr(series, "alpha_counts", alpha_counts)
    assert main(["oracle", f, "--n", "6", "--q", "3"]) == 1
    assert capsys.readouterr().out == (
        "distribution mismatch at n=6 q=5: 0 != 7\n"
        "oracle agreement: fail\n"
    )


# sha256 of the exact stdout of classify-s5, in each format
CLASSIFY_S5_DIGESTS = {
    "text": "ab20a616ec7674ae9b91e6d212c57a400c205d0773b772a0ed0c092c28b161c5",
    "json": "bbf9d598558c4bdc3214e51acb88bb6f3f30f7fe1bdf34671e8726e6f5be1014",
}


def test_classify_s5_outputs_are_pinned(capsys):
    outs = {}
    for fmt, digest in CLASSIFY_S5_DIGESTS.items():
        assert main(["classify-s5", "--format", fmt]) == 0
        outs[fmt] = capsys.readouterr().out
        assert hashlib.sha256(outs[fmt].encode()).hexdigest() == digest, fmt
    keys = json.loads(outs["json"])["classes"]
    buckets = [line for line in outs["text"].splitlines() if line.startswith("bucket ")]
    assert buckets == [f"bucket {key}:" for key in keys]


def test_oracle_cap(tmp_path, capsys):
    f = write(tmp_path, "p.txt", "132\n")
    assert main(["oracle", f, "--n", "11", "--q", "2"]) == 1
    assert "force" in capsys.readouterr().err
    assert main(["oracle", f, "--n", "6", "--q", "3"]) == 0
    assert "pass" in capsys.readouterr().out


def test_oracle_past_the_cap_names_the_cap_and_the_override(tmp_path, capsys):
    f = write(tmp_path, "p.txt", "1324\n")
    assert cli.ORACLE_CAP == 10
    assert main(["oracle", f, "--n", "11"]) == 1
    captured = capsys.readouterr()
    assert "oracle capped at n=10; pass --force to override" in captured.err
    assert captured.out == ""


def test_oracle_force_runs_past_the_cap(tmp_path, capsys):
    # with q = 1 every cluster is one occurrence of 1324, so the cluster
    # oracle and the occurrence DP at n = 11 stay small
    f = write(tmp_path, "p.txt", "1324\n")
    assert main(["oracle", f, "--n", "11", "--q", "1", "--force"]) == 0
    assert capsys.readouterr().out == "oracle agreement: pass\n"


@pytest.mark.parametrize("n, q", [(6, 3), (4, 6)])
def test_oracle_builds_one_cluster_table(tmp_path, capsys, monkeypatch, n, q):
    f = write(tmp_path, "p.txt", "1324\n2143\n")
    calls = []
    original = clusters.cluster_counts

    def counting(coll, n_max, q_max):
        calls.append((n_max, q_max))
        return original(coll, n_max, q_max)

    monkeypatch.setattr(clusters, "cluster_counts", counting)
    monkeypatch.setattr(series, "cluster_counts", counting)
    assert main(["oracle", f, "--n", str(n), "--q", str(q)]) == 0
    assert capsys.readouterr().out == "oracle agreement: pass\n"
    assert calls == [(n, max(n, q))]


def test_non_reduced_collection_is_domain_error(tmp_path, capsys):
    f = write(tmp_path, "bad.txt", "145623\n13452\n")
    assert main(["count", f, "--n", "5"]) == 1
    err = capsys.readouterr().err
    assert "divides" in err


def test_malformed_pattern(tmp_path, capsys):
    f = write(tmp_path, "bad.txt", "1 2 2\n")
    assert main(["count", f, "--n", "5"]) == 1


def test_missing_file(tmp_path, capsys):
    assert main(["count", str(tmp_path / "nope.txt")]) == 1


def test_non_utf8_pattern_file_is_a_domain_error(p123, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00\x01")
    for argv in (["count", bad], ["clusters", bad], ["graph", bad], ["gf", bad],
                 ["equiv", p123, bad], ["equiv", bad, p123], ["monotone", bad],
                 ["verify-ode", bad], ["oracle", bad]):
        assert main([str(a) for a in argv]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text") and err.count("\n") == 1


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    # some editors start a UTF-8 file with the mark EF BB BF
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(b"1324\n2143\n")
    marked.write_bytes(b"\xef\xbb\xbf1324\n2143\n")
    outs = []
    for path in (plain, marked):
        assert main(["count", str(path), "--n", "8"]) == 0
        outs.append(capsys.readouterr().out.encode())
    assert outs[0] == outs[1] and outs[0].startswith(b"0\t0\t1\n")


def test_usage_error_exit_code():
    for argv in (["no-such-command"], [], ["classify-s5", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_module_entry_point_exits_with_the_status_of_main(p123, tmp_path):
    src = Path(clusterperm.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    bad = write(tmp_path, "bad.txt", "145623\n13452\n")  # not reduced
    for argv, code, stream, start in (
        (["graph", p123], 0, "stdout", "digraph"),
        (["count", bad, "--n", "5"], 1, "stderr", "error: "),
        (["no-such-command"], 2, "stderr", "usage: clusterperm"),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "clusterperm.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == code, (argv, done.stderr)
        assert getattr(done, stream).startswith(start), argv


def test_the_cli_import_does_not_load_dataclasses():
    # each dataclass compiles its generated methods at import, and the module
    # itself pulls in inspect: together more than most queries take
    src = Path(clusterperm.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import clusterperm.cli; "
            "print('dataclasses' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_successive_calls_share_one_parser(p123, capsys):
    # the parser is built once per process; each call must parse afresh
    assert build_parser() is build_parser()
    assert main(["count", p123, "--n", "5", "--format", "avoiders"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [int(l.split("\t")[1]) for l in lines] == [1, 2, 5, 17, 70]
    assert main(["clusters", p123, "--n", "6", "--q", "3"]) == 0
    assert "3\t1\t1" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["graph", p123, "--n", "5"])
    assert exc.value.code == 2
    assert main(["graph", p123]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_flags_a_subcommand_does_not_read_are_usage_errors(p123, tmp_path, capsys):
    other = write(tmp_path, "q.txt", "132\n")
    for argv in (
        ["graph", p123, "--n", "5"],
        ["equiv", p123, other, "--cache"],
        ["count", p123, "--format", "avoider"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert "invalid choice: 'avoider'" in capsys.readouterr().err


# sha256 of the exact stdout.  The gf and count rows were recorded with the
# Fraction-coefficient series layer, and the EGF-normalised integer layer must
# reproduce every byte; the clusters and monotone rows pin the writers
# ``totals_to_tsv`` and ``system_to_json``, which the package never reads back.
# The count rows at orders 45 and up run the packed pass of ``avoidance_gf``;
# the digests of the rows at 45 and 50 were recorded with the list reciprocal
# alone, and those of 132 at order 60 (one cell per cluster length) and
# 1576243 13254 at order 100 (a slot past 512 bits) where a list reciprocal
# inverted them
PINNED_OUTPUTS = [
    (["gf", "--n", "14"], "1576243\n13254\n",
     "374ffd5dedda2f79277f6d5eb2a428e28eeae4c6780e582a8ecd230fe5b39000"),
    (["gf", "--format", "cluster", "--n", "10"], "1324\n",
     "c0e82fb5208364b703bf7bb8e2338a65e2ab21ad9d948a369b53668bcc54a557"),
    (["count", "--n", "20"], "12345\n",
     "3381653ee9bee15f6ba97669f0d53ee6cb3cfc9d72390102529b84ec4dc04b4b"),
    (["clusters", "--n", "12", "--q", "4"], "1324\n",
     "87b80c3a1c8093a179cbc07cba2df58908b8049007d04e70ea35ea2037580e3b"),
    (["monotone", "--format", "json"], "1576243\n13254\n",
     "324f9067d7590e1f173ab9dbd32a94d150ec3aa1b2f9469a79d912c520244f2f"),
    (["count", "--n", "45"], "12345\n",
     "a1ebef09880d23546632464f51886b45eef13b499aa0b3235bd89a2ce4ab831b"),
    (["count", "--n", "50"], "12354\n132465\n",
     "9dc14adf9a4d26a2fd71da183c5f6f011d2b1533028e2a4b9ae29e8070a2b28e"),
    (["count", "--n", "60"], "132\n",
     "9061e2f8c63b5be3b4384a21845663f3879e65b825507d4cad2d5c42f2dbcf9d"),
    (["count", "--n", "100"], "1576243\n13254\n",
     "e68ffcd1f60215ea6d3ee52792752b4c65a7591f2b505e362ee959667cab89a6"),
]


@pytest.mark.parametrize("argv, text, digest", PINNED_OUTPUTS)
def test_series_outputs_are_pinned(tmp_path, capsys, argv, text, digest):
    f = write(tmp_path, "p.txt", text)
    assert main([argv[0], f, *argv[1:]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_ode_order_below_derivative_order(tmp_path, capsys):
    f = write(tmp_path, "p.txt", "12345\n")
    for n in ("0", "3"):
        assert main(["verify-ode", f, "--n", n]) == 1
        err = capsys.readouterr().err
        assert f"truncation order {n} is below m_v=5" in err
        assert "vertex (1)" in err
    assert main(["verify-ode", f, "--n", "-1"]) == 1
    assert "truncation order must be nonnegative" in capsys.readouterr().err
    assert main(["verify-ode", f, "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass (through x^0)") == 4 and "boundary: pass" in out


def test_verify_ode_output_is_pinned(tmp_path, capsys):
    f = write(tmp_path, "p.txt", "12345\n")
    assert main(["verify-ode", f, "--n", "60"]) == 0
    assert capsys.readouterr().out == (
        "(1,): pass (through x^55)\n"
        "(1, 2): pass (through x^55)\n"
        "(1, 2, 3): pass (through x^55)\n"
        "(1, 2, 3, 4): pass (through x^55)\n"
        "boundary: pass\n"
    )


@pytest.mark.parametrize("text", ["12345\n", "1576243\n13254\n", "1\n"])
def test_verify_ode_fills_the_vertex_rows_once(tmp_path, capsys, monkeypatch, text):
    f = write(tmp_path, "p.txt", text)
    calls = Counter()
    real_tables, real_rows = clusters._vertex_tables, series.BiSeries._of_rows.__func__

    def tables(*args):
        calls["_vertex_tables"] += 1
        return real_tables(*args)

    def of_rows(cls, order, rows):  # every BiSeries, the constructor's too, is built here
        calls["BiSeries"] += 1
        return real_rows(cls, order, rows)

    for module in (clusters, monotone):
        monkeypatch.setattr(module, "_vertex_tables", tables)
    monkeypatch.setattr(series.BiSeries, "_of_rows", classmethod(of_rows))
    assert main(["verify-ode", f, "--n", "30"]) == 0
    assert calls == {"_vertex_tables": 1}
    assert "fail" not in capsys.readouterr().out


def test_verify_ode_runs_the_check_that_the_cli_runs(tmp_path, capsys, monkeypatch):
    # verify_ode packs the series and hands them to _verify_rows, which
    # verify-ode runs on the rows of its fill
    coll = graph_module.PatternCollection(((1, 2, 3, 4, 5),))
    calls = Counter()
    real = monotone._verify_rows

    def counting(*args):
        calls["_verify_rows"] += 1
        return real(*args)

    monkeypatch.setattr(monotone, "_verify_rows", counting)
    ys = monotone.monotone_vertex_series(coll, 20)
    assert monotone.verify_ode(monotone.emit_ode_system(coll), ys, 20).ok
    assert calls == {"_verify_rows": 1}
    f = write(tmp_path, "p.txt", "12345\n")
    assert main(["verify-ode", f, "--n", "20"]) == 0
    assert calls == {"_verify_rows": 2}
    assert "fail" not in capsys.readouterr().out


def test_length_one_pattern_has_an_ode(tmp_path, capsys):
    # the series of (1) for the collection (1) is y = x + t x
    f = write(tmp_path, "p.txt", "1\n")
    assert main(["monotone", f]) == 0
    assert capsys.readouterr().out == "monotone\ny_(1)^(2) = 0\n"
    assert main(["monotone", f, "--format", "json"]) == 0
    (eq,) = json.loads(capsys.readouterr().out)["equations"]
    assert eq["order"] == 2 and eq["terms"] == []
    assert eq["boundary"] == [{}, {"0": "1/1", "1": "1/1"}]
    assert main(["verify-ode", f, "--n", "12"]) == 0
    assert capsys.readouterr().out == "(1,): pass (through x^10)\nboundary: pass\n"


# Sixteen overlap-graph vertices in length classes of sizes 6, 5, 2 and 2;
# colour refinement splits them all.
SIXTEEN = "123456\n153264\n253614\n315426\n362541\n435261\n541632\n632154\n"


def test_sixteen_vertex_collection_through_the_cache(tmp_path, capsys, monkeypatch):
    f = write(tmp_path, "p.txt", SIXTEEN)
    argv = ["clusters", f, "--n", "8", "--q", "3"]
    assert main(argv) == 0
    direct = capsys.readouterr().out
    monkeypatch.setenv("CLUSTERPERM_CACHE_DIR", str(tmp_path / "cache"))
    for _ in ("cold", "warm"):
        assert main([*argv, "--cache"]) == 0
        assert capsys.readouterr().out == direct
    assert len(list((tmp_path / "cache").iterdir())) == 1


def test_cache_and_equiv_answer_past_the_leaf_budget(tmp_path, capsys, monkeypatch):
    f = write(tmp_path, "p.txt", "51423\n54321\n34215\n31452\n")
    argv = ["clusters", f, "--n", "8"]
    assert main(argv) == 0
    direct = capsys.readouterr().out
    monkeypatch.setattr(graph_module, "_LEAF_BUDGET", 0)  # every graph is past it
    monkeypatch.setenv("CLUSTERPERM_CACHE_DIR", str(tmp_path / "cache"))
    assert main([*argv, "--cache"]) == 0
    assert capsys.readouterr().out == direct
    assert not (tmp_path / "cache").exists()
    # no Theorem 1.3 bijection: equiv goes to the cluster tables and never
    # asks for a canonical form
    calls = []
    original = graph_module.canonical_form

    def counting(graph):
        calls.append(graph)
        return original(graph)

    bindings = [m for name, m in sys.modules.items() if name.startswith("clusterperm")
                and getattr(m, "canonical_form", None) is original]
    for module in bindings:
        monkeypatch.setattr(module, "canonical_form", counting)
    assert main([*argv, "--cache"]) == 0
    assert capsys.readouterr().out == direct and calls  # the wrapper sees the cache
    calls.clear()
    a = write(tmp_path, "a.txt", "1234\n")
    b = write(tmp_path, "b.txt", "4321\n")
    assert main(["equiv", a, b, "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert out == "equivalent to order N=8 (generating functions agree)\n"
    assert calls == []


def test_sixteen_vertex_collection_against_its_complement(tmp_path, capsys):
    a = write(tmp_path, "a.txt", SIXTEEN)
    flipped = ("".join(str(7 - int(x)) for x in w) for w in SIXTEEN.split())
    b = write(tmp_path, "b.txt", "\n".join(flipped) + "\n")
    start = time.perf_counter()
    assert main(["equiv", a, b, "--n", "8"]) == 0
    assert time.perf_counter() - start < 30
    assert "equivalent to order N=8" in capsys.readouterr().out


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    """Every ``clusterperm`` line of the fenced block under "## Command line"
    exits 0 with output, on small pattern files (1342 is monotone)."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
                if line.startswith("clusterperm ")]
    assert len(commands) == 10
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CLUSTERPERM_CACHE_DIR", str(tmp_path / "cache"))
    for name, pats in [("patterns.txt", "1342\n"), ("a.txt", "1342\n"), ("b.txt", "1432\n")]:
        write(tmp_path, name, pats)
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out, argv
