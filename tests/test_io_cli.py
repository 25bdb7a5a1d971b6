"""File formats and the command-line surface."""

import csv
import io
import json
import random

import pytest

import kecc.cli as cli
from kecc.cli import main
from kecc.decompose import DecompositionError, decompose_kecc
from kecc.digraph import AUXILIARY, ORDINARY, materialize
from kecc.driver import _check_value
from kecc.gen import gen_blocks, gen_chain
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
                    g.kind[v] = AUXILIARY
            if not g.ordinary_vertices():
                g.kind[0] = ORDINARY
        back = parse_graph(write_graph(g))
        assert arcs_multiset(back) == arcs_multiset(g)
        assert back.ordinary_vertices() == g.ordinary_vertices()


def test_piece_files_keep_their_kinds():
    # a piece as `kecc decompose --out-dir` writes it reads back with the
    # kinds it was written with
    pieces = decompose_kecc(gen_chain(30, 6, 1), 2, 0.25, "rand",
                            random.Random(0))
    assert len(pieces) == 30
    for p in pieces:
        h = materialize(p.graph)[0]
        assert AUXILIARY in h.kind
        assert parse_graph(write_graph(h)).kind == h.kind


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


def test_cli_mset_reads_the_graph_once(tmp_path, capsys, monkeypatch):
    # the default budget is the edge count of the graph mset already read
    path = tmp_path / "b.gr"
    main(["gen", "blocks", "--p", "5", "--q", "5", "--k", "2", "--out",
          str(path)])
    reads = []
    monkeypatch.setattr(cli, "parse_graph",
                        lambda text: reads.append(text) or parse_graph(text))
    argv = ["mset", str(path), "--v", "7", "--s", "2", "--k", "2"]
    for mode in ("det", "rand"):
        reads.clear()
        assert main(argv + ["--mode", mode]) == 0
        assert len(reads) == 1
        default = capsys.readouterr().out
        m = parse_graph(reads[0]).m_live
        assert main(argv + ["--mode", mode, "--delta-budget", str(m)]) == 0
        assert capsys.readouterr().out == default


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


def test_cli_mset_rejects_bad_parameters_in_both_modes(tmp_path, capsys):
    # checked before any search, naming the flag: det mode once rejected
    # --k -1 while rand mode printed an empty result, and rand mode accepted
    # --delta-budget 0
    path = tmp_path / "b.gr"
    main(["gen", "blocks", "--p", "5", "--q", "5", "--k", "2", "--out",
          str(path)])
    for mode in ("det", "rand"):
        for flags, named in ((["--k", "-1"], "--k"), (["--k", "0"], "--k"),
                             (["--delta-budget", "0"], "--delta-budget"),
                             (["--delta", "0"], "--delta"),
                             (["--delta", "1"], "--delta")):
            argv = ["mset", str(path), "--v", "7", "--s", "2", "--k", "2",
                    "--mode", mode] + flags
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {named}"), err


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


def test_cli_components_rejects_empty_graph(tmp_path, capsys):
    graph = tmp_path / "empty.gr"
    graph.write_text("p kec 0 0\n")
    assert main(["components", str(graph), "--k", "2"]) == 1
    assert "error: graph has no live vertex" in capsys.readouterr().err


def test_cli_names_precondition_failures_one_based(tmp_path, capsys,
                                                   monkeypatch):
    # proper_order finds lambda(5, 0) = 2 below k = 3 on the 0-based graph,
    # which the file numbers 6 and 1, in every mode; compute_k2ecc's check
    # of a value below k is worded and numbered the same way
    graph = tmp_path / "chain.gr"
    main(["gen", "chain", "--blocks", "10", "--size", "5", "--k", "1",
          "--out", str(graph)])
    for mode in ("exact", "rand"):
        assert main(["components", str(graph), "--k", "3", "--mode",
                     mode]) == 1
        assert capsys.readouterr().err == (
            "error: graph is not 3-edge-connected: lambda(6,1)=2\n")
    # nothing enters vertex 3 of this file, so lambda(1, 3) = 0; the
    # decomposition's second phase finds it on a side graph with its own ids
    g3 = tmp_path / "g3.gr"
    g3.write_text("p kec 3 3\na 2 1 1\na 3 1 1\na 1 2 1\n")
    for argv in (["components", str(g3), "--k", "1", "--mode", "exact"],
                 ["decompose", str(g3), "--k", "1"]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: graph is not 1-edge-connected: lambda(1,3)=0\n")
    monkeypatch.setattr(cli, "compute_k2ecc",
                        lambda *args, **kw: _check_value(1, 4, 0, 2, False))
    assert main(["components", str(graph), "--k", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: graph is not 2-edge-connected: lambda(5,1)=1\n")


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


def test_cli_components_with_auxiliary_vertices(tmp_path, capsys):
    # o lines mark the first 45 of the chain's 50 vertices ordinary; the
    # components cover those alone, and verify compares them with the oracle
    graph = tmp_path / "chain.gr"
    truth = tmp_path / "truth.json"
    main(["gen", "chain", "--blocks", "10", "--size", "5", "--k", "1",
          "--out", str(graph)])
    with graph.open("a") as fh:
        fh.writelines(f"o {v}\n" for v in range(1, 46))
    assert main(["oracle", str(graph), "--c", "4", "--out", str(truth)]) == 0
    for mode in ("exact", "rand"):
        got = tmp_path / f"got-{mode}.json"
        assert main(["components", str(graph), "--k", "2", "--mode", mode,
                     "--seed", "1", "--out", str(got)]) == 0
        doc = json.loads(got.read_text())
        assert doc["ordinary"] == list(range(1, 46))
        assert sorted(v for b in doc["blocks"] for v in b) == doc["ordinary"]
        assert main(["verify", str(got), str(truth)]) == 0
    capsys.readouterr()


def test_cli_components_rejects_det_mode(tmp_path, capsys):
    # det mode decomposes, but no longer partitions
    graph = tmp_path / "g.gr"
    main(["gen", "blocks", "--p", "5", "--q", "5", "--k", "2", "--out",
          str(graph)])
    assert main(["components", str(graph), "--k", "2", "--mode", "det"]) == 1
    assert "argument --mode: invalid choice: 'det'" in capsys.readouterr().err
    assert main(["decompose", str(graph), "--k", "2", "--mode", "det"]) == 0


@pytest.mark.parametrize("damage,cause", [
    (lambda doc: [doc], "must be a JSON object, got list"),
    (lambda doc: {k: v for k, v in doc.items() if k != "ordinary"},
     "'ordinary' must be a list of vertex ids"),
    (lambda doc: {**doc, "blocks": [b for b in doc["blocks"] if 2 not in b]},
     "ordinary vertex 2 is in no block")])
def test_cli_verify_rejects_malformed_partition(tmp_path, capsys, damage,
                                               cause):
    g = gen_blocks(3, 3, 2)
    text = partition_to_json(ecc_components(g, 4), g.ordinary_vertices())
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    good.write_text(text)
    bad.write_text(json.dumps(damage(json.loads(text))))
    for argv in ([str(bad), str(good)], [str(good), str(bad)]):
        assert main(["verify"] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and cause in err, err


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
    # --s-override is 1-based: 0 and ids past n are input errors, named
    # as the other vertex flags name them
    graph = tmp_path / "g.gr"
    main(["gen", "blocks", "--p", "5", "--q", "5", "--k", "2", "--out",
          str(graph)])
    for s in ("0", "99"):
        assert main(["components", str(graph), "--k", "2",
                     "--s-override", s]) == 1
        assert capsys.readouterr().err == (
            f"error: --s-override vertex {s} is not live\n")


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
