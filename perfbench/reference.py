"""Reference (k+2)-edge-connected components for checking benchmark outputs.

Same definition and pivot grouping as ``kecc.oracle.ecc_components``, but
built once over flat arrays instead of a fresh capacity dict per flow, and
with a degree filter: a vertex whose in- or out-degree is below c is
c-connected to nobody.  That makes the truth for an n=1000 workload graph
take seconds instead of the oracle's half minute.  It reads the graph only
through ``vertices``/``edges``/``ends`` and shares no code with the flow
layer under test; ``selftest.py`` checks it against the oracle.
"""

from __future__ import annotations


class Network:
    """Unit-capacity residual network: arc a and its reverse a ^ 1."""

    def __init__(self, g):
        self.verts = sorted(g.vertices())
        index = {v: i for i, v in enumerate(self.verts)}
        n = len(self.verts)
        self.head = []
        self.adj = [[] for _ in range(n)]
        self.out_deg = [0] * n
        self.in_deg = [0] * n
        for e in g.edges():
            t, h = g.ends(e)
            if t == h:
                continue
            ti, hi = index[t], index[h]
            a = len(self.head)
            self.head += [hi, ti]
            self.adj[ti].append(a)
            self.adj[hi].append(a + 1)
            self.out_deg[ti] += 1
            self.in_deg[hi] += 1
        self.cap = bytearray([1, 0]) * (len(self.head) // 2)

    def _augment(self, s, t, touched):
        """Push one unit along a shortest residual s-t path; False if none."""
        cap, head, adj = self.cap, self.head, self.adj
        par = [-1] * len(adj)
        par[s] = -2
        queue = [s]
        for x in queue:
            for a in adj[x]:
                y = head[a]
                if par[y] == -1 and cap[a]:
                    par[y] = a
                    if y == t:
                        while y != s:
                            a = par[y]
                            cap[a] -= 1
                            cap[a ^ 1] += 1
                            touched.append(a)
                            y = head[a ^ 1]
                        return True
                    queue.append(y)
        return False

    def connected(self, s, t, c):
        """lambda(s, t) >= c, for vertex indices into ``verts``; the residual
        is restored before returning."""
        touched = []
        try:
            return all(self._augment(s, t, touched) for _ in range(c))
        finally:
            cap = self.cap
            for a in reversed(touched):
                cap[a] += 1
                cap[a ^ 1] -= 1


def ecc_components(g, c):
    """Blocks (sorted lists of vertex ids) of mutual edge connectivity >= c.

    Before the pivot loop, one cycle of flows through the vertices that pass
    the degree filter tests whether they all form one block: if each reaches
    the next with connectivity >= c, every pair does, by transitivity.
    """
    net = Network(g)
    n = len(net.verts)
    blocks = [[i] for i in range(n)
              if net.out_deg[i] < c or net.in_deg[i] < c]
    unassigned = [i for i in range(n)
                  if net.out_deg[i] >= c and net.in_deg[i] >= c]
    if len(unassigned) > 1 and all(
            net.connected(u, v, c)
            for u, v in zip(unassigned, unassigned[1:] + unassigned[:1])):
        blocks.append(unassigned)
        unassigned = []
    while unassigned:
        pivot = unassigned[0]
        block = [pivot]
        rest = []
        for v in unassigned[1:]:
            if net.connected(pivot, v, c) and net.connected(v, pivot, c):
                block.append(v)
            else:
                rest.append(v)
        blocks.append(block)
        unassigned = rest
    return sorted(sorted(net.verts[i] for i in b) for b in blocks)
