"""File formats: a DIMACS-style graph format and a JSON partition schema.

Graph files use 1-based vertex ids::

    p kec <n> <m>      header; m is the multiplicity-expanded edge count
    c ...              comment
    a <u> <v> <mult>   arcs
    o <u>              marks an ordinary vertex (no o-lines: all ordinary)

Vertex ids are 0-based in memory; the parser and writer own the boundary.
"""

from __future__ import annotations

import json

from .digraph import from_arcs
from .partitions import Partition

FORMAT_NAME = "kecc-partition-v1"


class GraphFormatError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_graph(text):
    """Parse the arc-list format into a Digraph."""
    n = m = None
    arcs = []
    marks = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "p":
            if n is not None:
                raise GraphFormatError(line_no, "duplicate header")
            if len(fields) != 4 or fields[1] != "kec":
                raise GraphFormatError(line_no, "header must be 'p kec <n> <m>'")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise GraphFormatError(line_no, "non-integer header fields")
            if n < 0 or m < 0:
                raise GraphFormatError(line_no, "negative header fields")
        elif tag == "a":
            if n is None:
                raise GraphFormatError(line_no, "arc before header")
            if len(fields) not in (3, 4):
                raise GraphFormatError(line_no, "arc needs 'a <u> <v> [mult]'")
            try:
                u, v = int(fields[1]), int(fields[2])
                mult = int(fields[3]) if len(fields) == 4 else 1
            except ValueError:
                raise GraphFormatError(line_no, "non-integer arc fields")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(line_no, f"vertex id out of range 1..{n}")
            if u == v:
                raise GraphFormatError(line_no, "self-loop rejected")
            if mult < 1:
                raise GraphFormatError(line_no, "multiplicity must be >= 1")
            arcs.append((u - 1, v - 1, mult))
        elif tag == "o":
            if n is None:
                raise GraphFormatError(line_no, "mark before header")
            try:
                u = int(fields[1])
            except (ValueError, IndexError):
                raise GraphFormatError(line_no, "mark needs 'o <u>'")
            if not 1 <= u <= n:
                raise GraphFormatError(line_no, f"vertex id out of range 1..{n}")
            marks.append(u - 1)
        else:
            raise GraphFormatError(line_no, f"unknown line tag {tag!r}")
    if n is None:
        raise GraphFormatError(1, "missing 'p kec' header")
    total = sum(mult for _u, _v, mult in arcs)
    if total != m:
        raise GraphFormatError(1, f"header claims m={m}, arcs sum to {total}")
    return from_arcs(n, arcs, marks or None)


def write_graph(g, comment=None):
    """Serialize a compact graph; parse(write(g)) == g up to edge order."""
    if g.n_live != g.n_slots() or g.m_live != g.m_slots():
        raise ValueError("writer needs a compact graph (materialize it first)")
    counts = {}
    for v in range(g.n_slots()):
        for e in g.out_edges(v):
            key = (v, g.e_head[e])
            counts[key] = counts.get(key, 0) + 1
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p kec {g.n_slots()} {g.m_live}")
    for (u, v), mult in sorted(counts.items()):
        lines.append(f"a {u + 1} {v + 1} {mult}")
    ordinary = g.ordinary_vertices()
    if len(ordinary) != g.n_live:
        for u in ordinary:
            lines.append(f"o {u + 1}")
    return "\n".join(lines) + "\n"


def partition_to_json(partition, ordinary, k=None, mode=None, seed=None,
                      delta=None):
    """Canonical JSON for a partition: blocks sorted by smallest member,
    ids 1-based."""
    blocks = sorted([sorted(v + 1 for v in block)
                     for block in partition.blocks()])
    doc = {
        "format": FORMAT_NAME,
        "n": len(partition.universe),
        "k": k,
        "mode": mode,
        "seed": seed,
        "delta": delta,
        "blocks": blocks,
        "ordinary": sorted(v + 1 for v in ordinary),
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def partition_from_json(text):
    """Returns (Partition over 0-based ids, ordinary id list, metadata).

    Raises ValueError, naming the cause, for a document that is not a
    partition: not an object, another format, blocks or ordinary missing or
    not lists of ids, or an ordinary vertex in no block."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("partition document must be a JSON object, got "
                         f"{type(doc).__name__}")
    if doc.get("format") != FORMAT_NAME:
        raise ValueError(f"unknown partition format {doc.get('format')!r}")

    def ids(value, what):
        if not (isinstance(value, list)
                and all(type(v) is int for v in value)):
            raise ValueError(f"{what} must be a list of vertex ids")
        return [v - 1 for v in value]

    if not isinstance(doc.get("blocks"), list):
        raise ValueError("partition document needs a 'blocks' list")
    blocks = [ids(block, "each block") for block in doc["blocks"]]
    ordinary = ids(doc.get("ordinary"), "'ordinary'")
    universe = sorted(v for block in blocks for v in block)
    part = Partition.from_blocks(universe, blocks)
    stray = sorted(set(ordinary) - set(universe))
    if stray:
        raise ValueError(f"ordinary vertex {stray[0] + 1} is in no block")
    return part, ordinary, doc
