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
from clusterperm import clusters, equivalence, monotone, series
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
    assert capsys.readouterr().out == "equivalent (overlap graphs isomorphic)\n"


def test_equiv_bounds_a_factorial_bijection_search(tmp_path, capsys):
    # all 120 patterns of length 7 that start with 1 and end with 2 overlap one
    # another only at k = 1; against 11 of them and a pattern that starts with
    # 7 and sorts last, an unbounded search tries every pairing of the 11
    family = [p for p in permutations(range(1, 8)) if p[0] == 1 and p[-1] == 2]
    pats_a, pats_b = family[:12], [*family[:11], (7, 6, 5, 4, 3, 1, 2)]
    with pytest.raises(equivalence.SearchBudgetError, match="on 12 patterns"):
        equivalence.any_theorem13_bijection(pats_a, pats_b)
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


def test_oracle_cap(tmp_path, capsys):
    f = write(tmp_path, "p.txt", "132\n")
    assert main(["oracle", f, "--n", "11", "--q", "2"]) == 1
    assert "force" in capsys.readouterr().err
    assert main(["oracle", f, "--n", "6", "--q", "3"]) == 0
    assert "pass" in capsys.readouterr().out


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


# sha256 of the exact stdout, recorded with the Fraction-coefficient series
# layer; the EGF-normalised integer layer must reproduce every byte
PINNED_OUTPUTS = [
    (["gf", "--n", "14"], "1576243\n13254\n",
     "374ffd5dedda2f79277f6d5eb2a428e28eeae4c6780e582a8ecd230fe5b39000"),
    (["gf", "--format", "cluster", "--n", "10"], "1324\n",
     "c0e82fb5208364b703bf7bb8e2338a65e2ab21ad9d948a369b53668bcc54a557"),
    (["count", "--n", "20"], "12345\n",
     "3381653ee9bee15f6ba97669f0d53ee6cb3cfc9d72390102529b84ec4dc04b4b"),
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

    def of_rows(cls, *args):  # every BiSeries, the constructor's too, is built here
        calls["BiSeries"] += 1
        return real_rows(cls, *args)

    for module in (clusters, monotone):
        monkeypatch.setattr(module, "_vertex_tables", tables)
    monkeypatch.setattr(series.BiSeries, "_of_rows", classmethod(of_rows))
    assert main(["verify-ode", f, "--n", "30"]) == 0
    assert calls == {"_vertex_tables": 1}
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
    # no Theorem 1.3 bijection, and overlap graphs of equal size, so equiv
    # asks for both canonical forms
    a = write(tmp_path, "a.txt", "1234\n")
    b = write(tmp_path, "b.txt", "4321\n")
    assert main(["equiv", a, b, "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert out == "equivalent to order N=8 (generating functions agree)\n"


def test_sixteen_vertex_collection_against_its_complement(tmp_path, capsys):
    a = write(tmp_path, "a.txt", SIXTEEN)
    flipped = ("".join(str(7 - int(x)) for x in w) for w in SIXTEEN.split())
    b = write(tmp_path, "b.txt", "\n".join(flipped) + "\n")
    start = time.perf_counter()
    assert main(["equiv", a, b, "--n", "8"]) == 0
    assert time.perf_counter() - start < 30
    assert "equivalent to order N=8" in capsys.readouterr().out
