"""Command-line surface: generators, connectivity queries, decomposition,
component partitions, the brute-force oracle, partition verification and a
small benchmark harness.

Exit codes: 0 success, 1 usage or input error, 2 decomposition failure
reported by the algorithm.  All randomness derives from --seed through
fixed labels ("gen", "mset", "decompose", "components", "bench"), so every
published number replays.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .decompose import DecompositionError, decompose_kecc, verify_decomposition
from .digraph import GraphError, materialize, out_and_vol
from .driver import compute_k2ecc
from .flow import lambda_bounded
from .gen import MODELS, gen, sub_rng
from .graphio import (GraphFormatError, parse_graph, partition_from_json,
                      partition_to_json, write_graph)
from .local_search import amplified_mset, local_search_mset
from .oracle import ecc_components


def _read_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args):
    params = {}
    for name in ("n", "k", "p", "q", "blocks", "size", "extra"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    g = gen(args.model, seed=args.seed, **params)
    _write_text(args.out, write_graph(g, comment=f"model={args.model} "
                                                 f"seed={args.seed} {params}"))
    return 0


def _live(g, flag, x):
    """The 0-based id of the 1-based vertex x given with flag; raises
    naming x when it is not live."""
    if not g.is_live(x - 1):
        raise GraphError(f"{flag} vertex {x} is not live")
    return x - 1


def _cmd_lambda(args):
    g = _read_graph(args.graph)
    value = lambda_bounded(g, _live(g, "--from", args.src),
                           _live(g, "--to", args.dst), args.cap)
    print(value)
    return 0


def _cmd_mset(args):
    g = _read_graph(args.graph)
    v, s = _live(g, "--v", args.v), _live(g, "--s", args.s)
    if args.mode == "det":
        res = local_search_mset(g, v, s, args.k, args.delta_budget)
    else:
        rng = sub_rng(args.seed, "mset")
        res = amplified_mset(g, v, s, args.k, args.delta_budget,
                             args.delta / 2, rng)
    if res.found:
        out, vol = out_and_vol(g, res.members)
        doc = {"status": "found",
               "members": [u + 1 for u in sorted(res.members)],
               "out": out, "vol": vol}
    else:
        doc = {"status": "empty"}
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_decompose(args):
    g = _read_graph(args.graph)
    rng = sub_rng(args.seed, "decompose")
    pieces = decompose_kecc(g, args.k, args.delta, args.mode, rng)
    summary = []
    for i, piece in enumerate(pieces):
        summary.append({"piece": i, "n": piece.graph.n_live,
                        "m": piece.graph.m_live,
                        "ordinary": [o + 1 for o in sorted(piece.ordinary)]})
        if args.out_dir:
            compact, vmap = materialize(piece.graph)
            text = write_graph(compact, comment=f"piece {i} of {args.graph}")
            with open(f"{args.out_dir}/piece_{i:03d}.gr", "w",
                      encoding="utf-8") as fh:
                fh.write(text)
    if args.verify:
        report = verify_decomposition(g, pieces, args.k)
        print(json.dumps({"pieces": summary, "verified": report.ok,
                          "failures": report.failures}, sort_keys=True))
        return 0 if report.ok else 2
    print(json.dumps({"pieces": summary}, sort_keys=True))
    return 0


def _cmd_components(args):
    g = _read_graph(args.graph)
    rng = sub_rng(args.seed, "components")
    s = None
    if args.s_override is not None:
        s = args.s_override - 1
        if not g.is_live(s):
            raise GraphError(f"start vertex {args.s_override} is not live")
    part = compute_k2ecc(g, args.k, args.delta, args.mode, rng, s=s)
    text = partition_to_json(part, g.ordinary_vertices(), k=args.k,
                             mode=args.mode, seed=args.seed, delta=args.delta)
    _write_text(args.out, text)
    return 0


def _cmd_oracle(args):
    g = _read_graph(args.graph)
    part = ecc_components(g, args.c)
    text = partition_to_json(part, g.ordinary_vertices(), k=args.c,
                             mode="oracle", seed=None, delta=None)
    _write_text(args.out, text)
    return 0


def _cmd_verify(args):
    with open(args.got, "r", encoding="utf-8") as fh:
        got, got_ord, _ = partition_from_json(fh.read())
    with open(args.truth, "r", encoding="utf-8") as fh:
        truth, truth_ord, _ = partition_from_json(fh.read())
    if set(got_ord) != set(truth_ord):
        print("verify: ordinary vertex sets differ")
        return 1
    a = got.restrict(got_ord)
    b = truth.restrict(truth_ord)
    if a == b:
        print(f"verify: partitions agree on {len(got_ord)} ordinary vertices")
        return 0
    print("verify: partitions differ on ordinary vertices")
    for x, y in zip(a.blocks(), b.blocks()):
        if x != y:
            print(f"  got block {[v + 1 for v in x]}")
            print(f"  expected  {[v + 1 for v in y]}")
            break
    return 1


BENCH_SUITES = {
    "smoke": [
        ("cyc-64-2", "cyc", {"n": 64, "k": 2}, 2),
        ("blocks-10-10-2", "blocks", {"p": 10, "q": 10, "k": 2}, 2),
        ("random-kec-200-2", "random-kec", {"n": 200, "k": 2, "extra": 600}, 2),
    ],
    "scaling": [
        ("random-kec-500-2", "random-kec", {"n": 500, "k": 2, "extra": 3000}, 2),
        ("random-kec-2000-2", "random-kec",
         {"n": 2000, "k": 2, "extra": 12000}, 2),
    ],
}


def _cmd_bench(args):
    rows = []
    for name, model, params, k in BENCH_SUITES[args.suite]:
        g = gen(model, seed=args.seed, **params)
        rng = sub_rng(args.seed, "bench")
        stats = {}
        start = time.perf_counter()
        compute_k2ecc(g, k, args.delta, "rand", rng, stats=stats)
        seconds = time.perf_counter() - start
        sampled = sum(rec["draws"] for rec in stats.get("samples", []))
        rows.append({"graph": name, "n": g.n_live, "m": g.m_live, "k": k,
                     "mode": "rand", "seconds": f"{seconds:.3f}",
                     "sampled_edges": sampled})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["graph", "n", "m", "k", "mode",
                                             "seconds", "sampled_edges"])
    writer.writeheader()
    writer.writerows(rows)
    _write_text(args.out, buf.getvalue())
    return 0


def build_parser():
    top = argparse.ArgumentParser(
        prog="kecc",
        description="edge-connectivity toolkit for directed multigraphs")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("model", choices=MODELS)
    p.add_argument("--out", default="-")
    p.add_argument("--seed", type=int, default=0)
    for name in ("n", "k", "p", "q", "blocks", "size", "extra"):
        p.add_argument(f"--{name}", type=int, default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("lambda", help="bounded edge connectivity of a pair")
    p.add_argument("graph")
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--cap", type=int, default=8)
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("mset", help="minimal k-out set of v avoiding s")
    p.add_argument("graph")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta-budget", type=int, default=None,
                   help="volume budget (default: edge count)")
    p.add_argument("--delta", type=float, default=0.25,
                   help="failure probability in rand mode")
    p.add_argument("--mode", choices=("det", "rand"), default="det")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mset)

    p = sub.add_parser("decompose",
                       help="split into pieces with (k+1)-connected ordinary "
                            "vertices")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--mode", choices=("det", "rand"), default="det")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("components",
                       help="(k+2)-edge-connected components of a "
                            "k-edge-connected graph")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--mode", choices=("det", "rand", "exact"), default="rand")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--s-override", type=int, default=None,
                   help="1-based id of the live vertex that roots the "
                        "decomposition (default: the smallest id); each "
                        "piece is partitioned from its ordinary vertex of "
                        "largest min(in, out)-degree")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("oracle", help="brute-force c-connected components")
    p.add_argument("graph")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="compare two partition files on their "
                                      "ordinary vertices")
    p.add_argument("got")
    p.add_argument("truth")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="run a benchmark suite, emit CSV")
    p.add_argument("--suite", choices=sorted(BENCH_SUITES), default="smoke")
    p.add_argument("--out", default="-")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.25)
    p.set_defaults(func=_cmd_bench)
    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        if getattr(args, "delta_budget", "skip") is None:
            args.delta_budget = max(1, _read_graph(args.graph).m_live)
        return args.func(args)
    except DecompositionError as exc:
        print(f"decomposition failure: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
