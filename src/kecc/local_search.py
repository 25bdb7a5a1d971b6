"""Local searches for minimal out-sets around a start vertex, avoiding a
fixed root: a deterministic path-collecting DFS variant and a randomized
path-sampling variant, plus probability amplification.

All searches operate on a private reversal overlay; the base graph is never
mutated.  A Found result is always exactly the unique inclusion-wise minimal
out-set of the requested size containing the start vertex and avoiding the
root (soundness is unconditional); Empty only means the search gave up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .digraph import GraphError, ReversalOverlay


class BudgetExceeded(RuntimeError):
    pass


class SearchBudget:
    """Explored-edge counter with a hard limit."""

    __slots__ = ("explored", "limit")

    def __init__(self, limit):
        self.explored = 0
        self.limit = limit

    def charge(self, n=1):
        if self.explored + n > self.limit:
            raise BudgetExceeded(f"budget {self.limit} exceeded")
        self.explored += n


@dataclass(frozen=True)
class MSetResult:
    """Outcome of a minimal-out-set query: Found(members) or Empty."""

    members: frozenset | None

    @property
    def found(self):
        return self.members is not None


EMPTY = MSetResult(None)


def _check_ends(g, v, s):
    """Reject a start vertex or root that is not a distinct live vertex."""
    if v == s:
        raise GraphError("start vertex and root must differ")
    if not (g.is_live(v) and g.is_live(s)):
        raise GraphError(f"start vertex {v} and root {s} must be live")


def find_out_paths(ov, v, s, k, delta):
    """Collect up to 2k tree paths from v, one of which must end outside any
    k-out set of volume <= delta separating v from s.

    A DFS from v explores delta+1 edges, then pauses; each of 2k resumptions
    explores delta+1 more and records the tree path to the paused vertex, or
    to the shallowest ancestor the resumed search backtracked to.  Discovery
    of s short-circuits everything: the single path to s is returned (it ends
    outside every set avoiding s).  Total exploration <= (2k+1)(delta+1).
    """
    _check_ends(ov.g, v, s)
    if k < 1 or delta < 1:
        raise GraphError("need k >= 1 and delta >= 1")
    budget = SearchBudget((2 * k + 1) * (delta + 1))
    # frames: (adjacency iterator, incoming tree edge); adjacency is read
    # one entry per charged edge, never ahead of the budget
    stack = [(ov.succ(v), -1)]
    visited = {v}
    collected = []
    seg_left = delta + 1
    rounds_left = 2 * k
    in_round = False
    pause_depth = min_depth = 1
    while True:
        if not stack:
            # nothing left to explore; later rounds could not add anything
            return collected
        entry = next(stack[-1][0], None)
        if entry is None:
            stack.pop()
            if len(stack) < min_depth:
                min_depth = len(stack)
            continue
        budget.charge(1)
        seg_left -= 1
        e, y = entry
        if y == s:
            return [[f[1] for f in stack[1:]] + [e]]
        if y not in visited:
            visited.add(y)
            stack.append((ov.succ(y), e))
        if seg_left == 0:
            if in_round:
                z_idx = min_depth - 1 if min_depth < pause_depth else pause_depth - 1
                collected.append([stack[j][1] for j in range(1, z_idx + 1)])
                rounds_left -= 1
            if rounds_left == 0:
                return collected
            in_round = True
            pause_depth = min_depth = len(stack)
            seg_left = delta + 1


def _bounded_reach(ov, v, s, delta):
    """Visited set of a traversal from v with budget delta+1, or None if s
    was discovered or more than delta edges were needed."""
    queue, _tree, hit, count = ov.bounded_bfs(v, s, delta + 1)
    return None if hit or count > delta else set(queue)


def local_search_mset(g, v, s, k, delta):
    """Deterministic search for the minimal k-out set containing v, not s.

    Requires lambda(v, s) >= k.  Found(S) is exact; Empty means the set does
    not exist or its volume exceeds delta.  Recursion: collect candidate
    paths, reverse one, recurse a level down; at level zero a plain bounded
    exploration either exhibits the set or fails.
    """
    _check_ends(g, v, s)
    members = _search_level(ReversalOverlay(g), v, s, k, delta)
    if members is None:
        return EMPTY
    return MSetResult(frozenset(members))


def _search_level(ov, v, s, level, delta):
    if level == 0:
        return _bounded_reach(ov, v, s, delta)
    for path in find_out_paths(ov, v, s, level, delta):
        mark = ov.mark()
        ov.reverse_trusted(path)
        got = _search_level(ov, v, s, level - 1, delta)
        ov.rewind(mark)
        if got is not None:
            return got
    return None


def randomized_local_search_mset(g, v, s, k, delta, rng):
    """Randomized search for the minimal k-out set containing v, not s.

    k rounds of bounded BFS, each reversing either the discovered path to s
    or the tree path to the tail of one explored edge sampled uniformly; a
    final exploration with budget delta+1 either exhibits the set or gives
    up.  When lambda(v, s) = k and the set's volume is at most delta, it is
    found with probability at least 1/2; any Found output is exact.
    """
    res, _used = _randomized_search(g, v, s, k, delta, rng)
    return res


def _randomized_search(g, v, s, k, delta, rng):
    _check_ends(g, v, s)
    ov = ReversalOverlay(g)
    used_rng = False
    for _ in range(k):
        eids = []
        _queue, tree, hit, _count = ov.bounded_bfs(v, s, 2 * k * delta, eids)
        if hit:
            x = s
        elif eids:
            used_rng = True
            x = ov.tail(eids[rng.randrange(len(eids))])
        else:
            return EMPTY, used_rng
        ov.reverse_trusted(ov.tree_path(tree, v, x))
    members = _bounded_reach(ov, v, s, delta)
    if members is None:
        return EMPTY, used_rng
    return MSetResult(frozenset(members)), used_rng


def amplified_mset(g, v, s, k, delta, fail_prob, rng):
    """Repeat the randomized search ceil(log2(1/fail_prob)) times and return
    the first Found, else Empty.

    A repetition that never consumed randomness is deterministic, so further
    repetitions would return the same result and are skipped.
    """
    if not 0 < fail_prob < 1:
        raise GraphError("fail_prob must be in (0, 1)")
    reps = max(1, math.ceil(math.log2(1 / fail_prob)))
    for _ in range(reps):
        res, used_rng = _randomized_search(g, v, s, k, delta, rng)
        if res.found or not used_rng:
            return res
    return EMPTY
