"""File formats and the command-line surface."""

import csv
import io
import json

import pytest

import kecc.cli as cli
from kecc.cli import main
from kecc.decompose import DecompositionError
from kecc.digraph import AUX_OTHER, ORDINARY
from kecc.gen import gen_blocks
from kecc.graphio import (GraphFormatError, parse_graph, partition_from_json,
                          partition_to_json, write_graph)
from kecc.oracle import ecc_components

from conftest import random_strongly_connected


def arcs_multiset(g):
    out = {}
    for e in g.edges():
        key = (g.tail(e), g.head(e))
        out[key] = out.get(key, 0) + 1
    return out


def test_graph_roundtrip(rng):
    for _ in range(20):
        g = random_strongly_connected(rng, rng.randrange(2, 9),
                                      rng.randrange(0, 14))
        if rng.random() < 0.5:
            for v in g.vertices():
                if rng.random() < 0.3:
                    g.kind[v] = AUX_OTHER
            if not g.ordinary_vertices():
                g.kind[0] = ORDINARY
        back = parse_graph(write_graph(g))
        assert arcs_multiset(back) == arcs_multiset(g)
        assert back.ordinary_vertices() == g.ordinary_vertices()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("p kec x y\n")
    assert "line 1" in str(err.value)
    with pytest.raises(GraphFormatError) as err:
        parse_graph("p kec 2 1\na 1 1 1\n")
    assert "line 2" in str(err.value) and "self-loop" in str(err.value)
    with pytest.raises(GraphFormatError):
        parse_graph("a 1 2 1\n")  # arc before header
    with pytest.raises(GraphFormatError) as err:
        parse_graph("p kec 2 5\na 1 2 1\n")  # header m mismatch
    assert "m=5" in str(err.value)


def test_partition_json_roundtrip():
    g = gen_blocks(4, 4, 2)
    part = ecc_components(g, 4)
    text = partition_to_json(part, g.ordinary_vertices(), k=4, mode="oracle")
    back, ordinary, doc = partition_from_json(text)
    assert back == part
    assert ordinary == g.ordinary_vertices()
    assert doc["format"] == "kecc-partition-v1"
    assert doc["blocks"] == sorted(doc["blocks"])


def test_cli_gen_reproducible(tmp_path):
    a = tmp_path / "a.gr"
    b = tmp_path / "b.gr"
    assert main(["gen", "random-kec", "--n", "12", "--k", "2", "--extra",
                 "10", "--seed", "9", "--out", str(a)]) == 0
    assert main(["gen", "random-kec", "--n", "12", "--k", "2", "--extra",
                 "10", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_cli_lambda_and_mset(tmp_path, capsys):
    path = tmp_path / "b.gr"
    main(["gen", "blocks", "--p", "5", "--q", "5", "--k", "2", "--out",
          str(path)])
    assert main(["lambda", str(path), "--from", "2", "--to", "7",
                 "--cap", "6"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["mset", str(path), "--v", "7", "--s", "2", "--k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "found"
    assert doc["members"] == [6, 7, 8, 9, 10]
    assert doc["out"] == 2
    assert doc["vol"] == 22


def test_cli_mset_rejects_bad_vertex(tmp_path, capsys):
    # --v and --s are 1-based: 0 and ids past n are input errors
    path = tmp_path / "b.gr"
    main(["gen", "blocks", "--p", "5", "--q", "5", "--k", "2", "--out",
          str(path)])
    for flag, other, bad in (("--v", "--s", "0"), ("--s", "--v", "0"),
                             ("--v", "--s", "99")):
        assert main(["mset", str(path), flag, bad, other, "2",
                     "--k", "2"]) == 1
        assert f"{flag} vertex {bad} is not live" in capsys.readouterr().err


def test_cli_lambda_rejects_bad_vertex(tmp_path, capsys):
    # --from and --to are 1-based: 0 and ids past n are input errors
    path = tmp_path / "b.gr"
    main(["gen", "blocks", "--p", "5", "--q", "5", "--k", "2", "--out",
          str(path)])
    for flag, other, bad in (("--from", "--to", "0"), ("--to", "--from", "0"),
                             ("--from", "--to", "99")):
        assert main(["lambda", str(path), flag, bad, other, "2",
                     "--cap", "3"]) == 1
        assert f"{flag} vertex {bad} is not live" in capsys.readouterr().err


def test_cli_rejects_k_below_one(tmp_path, capsys):
    # on a strongly connected graph and on one that is not
    strong = tmp_path / "strong.gr"
    main(["gen", "blocks", "--p", "5", "--q", "5", "--k", "2", "--out",
          str(strong)])
    weak = tmp_path / "weak.gr"
    weak.write_text("p kec 2 1\na 1 2\n")
    for path in (strong, weak):
        for command in ("components", "decompose"):
            assert main([command, str(path), "--k", "0"]) == 1
            assert "k must be a positive integer, got 0" in \
                capsys.readouterr().err


def test_cli_components_verify_oracle(tmp_path, capsys):
    graph = tmp_path / "g.gr"
    got = tmp_path / "got.json"
    truth = tmp_path / "truth.json"
    main(["gen", "blocks", "--p", "6", "--q", "6", "--k", "2", "--out",
          str(graph)])
    assert main(["components", str(graph), "--k", "2", "--mode", "exact",
                 "--out", str(got)]) == 0
    assert main(["oracle", str(graph), "--c", "4", "--out", str(truth)]) == 0
    assert main(["verify", str(got), str(truth)]) == 0
    capsys.readouterr()
    # now damage the result and expect a mismatch
    doc = json.loads(got.read_text())
    doc["blocks"] = [sorted(x for b in doc["blocks"] for x in b)]
    got.write_text(json.dumps(doc))
    assert main(["verify", str(got), str(truth)]) == 1


def test_cli_decompose_and_errors(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "g.gr"
    main(["gen", "blocks", "--p", "5", "--q", "5", "--k", "2", "--out",
          str(graph)])
    outdir = tmp_path / "pieces"
    outdir.mkdir()
    assert main(["decompose", str(graph), "--k", "2", "--verify",
                 "--out-dir", str(outdir)]) == 0
    files = sorted(outdir.iterdir())
    assert len(files) == 2
    piece = parse_graph(files[0].read_text())
    assert len(piece.ordinary_vertices()) == 5
    capsys.readouterr()
    # malformed input file: usage error
    bad = tmp_path / "bad.gr"
    bad.write_text("p kec nope\n")
    assert main(["decompose", str(bad), "--k", "2"]) == 1
    # algorithm-reported failure: exit code 2
    def boom(*a, **kw):
        raise DecompositionError("injected")
    monkeypatch.setattr(cli, "decompose_kecc", boom)
    assert main(["decompose", str(graph), "--k", "2"]) == 2


def test_cli_components_rejects_bad_start(tmp_path, capsys):
    # --s-override is 1-based: 0 and ids past n are input errors
    graph = tmp_path / "g.gr"
    main(["gen", "blocks", "--p", "5", "--q", "5", "--k", "2", "--out",
          str(graph)])
    for s in ("0", "99"):
        assert main(["components", str(graph), "--k", "2",
                     "--s-override", s]) == 1
        assert f"start vertex {s} is not live" in capsys.readouterr().err


def test_cli_components_rand_seeded(tmp_path):
    graph = tmp_path / "g.gr"
    main(["gen", "blocks", "--p", "5", "--q", "5", "--k", "2", "--out",
          str(graph)])
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["components", str(graph), "--k", "2", "--mode", "rand",
                 "--seed", "4", "--out", str(a)]) == 0
    assert main(["components", str(graph), "--k", "2", "--mode", "rand",
                 "--seed", "4", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_cli_bench_schema(tmp_path, monkeypatch):
    monkeypatch.setitem(cli.BENCH_SUITES, "smoke", [
        ("blocks-tiny", "blocks", {"p": 4, "q": 4, "k": 2}, 2),
    ])
    out = tmp_path / "bench.csv"
    assert main(["bench", "--suite", "smoke", "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert rows and set(rows[0]) == {"graph", "n", "m", "k", "mode",
                                     "seconds", "sampled_edges"}
    assert int(rows[0]["sampled_edges"]) > 0


def test_cli_usage_error_returns_one():
    assert main(["lambda"]) == 1
    assert main(["--threads", "2", "gen", "cyc"]) == 1
    assert main(["components", "/nonexistent/file.gr", "--k", "2"]) == 1


def test_random_kec_generator_guarantee():
    # every cut is crossed by each of the k Hamiltonian cycles
    from kecc.gen import gen_random_kec
    from kecc.oracle import lambda_oracle
    g = gen_random_kec(30, 3, 40, seed=7)
    verts = sorted(g.vertices())
    assert min(lambda_oracle(g, u, v, 3)
               for u in verts for v in verts if u != v) >= 3
