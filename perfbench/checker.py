"""Independent checks of CLI outputs and of the benchmark's own labels.

Nothing here calls into hypershrink: a shrinking is checked with this
module's own union-find, and check answers are compared against labels
that the instance builder certifies by construction.
"""

import json


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def spans_tree(n: int, pairs) -> bool:
    """True when the pairs are n-1 acyclic edges on 0..n-1, so they span."""
    pairs = list(pairs)
    if len(pairs) != n - 1:
        return False
    uf = UnionFind(n)
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n) or not uf.union(u, v):
            return False
    return True


def degrees(n: int, edges) -> list:
    d = [0] * n
    for e in edges:
        for v in e:
            d[v] += 1
    return d


def is_valid(n: int, edges) -> bool:
    """Each edge strictly sorted, of size >= 2, in range; no repeats."""
    seen = set()
    for e in edges:
        if len(e) < 2 or list(e) != sorted(set(e)) or e[0] < 0 or e[-1] >= n:
            return False
        if tuple(e) in seen:
            return False
        seen.add(tuple(e))
    return True


def check_shrink(n: int, edges, stdout: str):
    """Reason the shrink output is wrong, or None when it is a shrinking.

    The rank k of ``edges`` is the CLI's default degree bound parameter.
    """
    try:
        data = json.loads(stdout)
        tree = [tuple(pair) for pair in data["tree"]]
        assignment = list(data["assignment"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"output does not decode: {exc!r}"
    if not all(len(pair) == 2 and all(isinstance(x, int) for x in pair) for pair in tree):
        return "tree edges are not integer pairs"
    if not spans_tree(n, tree):
        return "tree edges do not form a spanning tree"
    if len(assignment) != len(edges) or sorted(assignment) != list(range(len(tree))):
        return "assignment is not a bijection onto the tree edges"
    for i, e in enumerate(edges):
        if not set(tree[assignment[i]]) <= set(e):
            return f"pair {tree[assignment[i]]} lies outside hyperedge {i}"
    k = max(len(e) for e in edges)
    hyper = degrees(n, edges)
    tree_deg = degrees(n, tree)
    for v in range(n):
        if tree_deg[v] < max(1, hyper[v] // k):
            return f"vertex {v}: d_T={tree_deg[v]} < max(1, floor({hyper[v]}/{k}))"
    return None
