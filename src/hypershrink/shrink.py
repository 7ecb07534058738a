"""Shrinking hypertrees to spanning trees with a degree guarantee.

Replacing each hyperedge by one pair of its vertices is a *shrinking*;
for a hypertree of rank k the pipeline here produces a spanning tree T
with d_T(v) >= max(1, floor(d_H(v)/k)) at every vertex: orient the
hypergraph so indegrees dominate floor(d_H/k), take a rainbow spanning
tree of the star expansion (every hyperarc a star centred at its head,
read off the hyperarcs and built only if exchange-graph augmentation
runs), and read the hyperedge-to-tree-edge bijection off the colours.
Off hubs the orientation starts from the 0/1 heads that recognise
hypertrees, along which the rainbow seed searches, so the seed spans.
"""

import json
from itertools import chain, compress, count, repeat
from operator import contains, itemgetter, lt, mul

from .core import Hypergraph, InternalError, _degree_guarantee, _degrees, _require_valid, _Value
from .core import _exact_int_tuples, _exact_ints
from .orientation import _hub_like, _tight_heads, is_hypertree, orient_floor
from .rainbow import maximum_rainbow_forest


class NotAHypertreeError(Exception):
    """The input admits no shrinking to a spanning tree.

    ``reason`` records which check failed: "edge-count" when |E| != n-1,
    "no-rainbow-tree" when the star expansion has no rainbow spanning tree,
    which :func:`~hypershrink.orientation.is_hypertree` has certified.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class Shrinking(_Value):
    """A spanning tree plus the bijection hyperedge -> tree edge.

    ``tree`` lists the n-1 edges in lexicographic order; ``assignment[i]``
    is the index of the tree edge chosen from hyperedge i.  The
    constructor only normalises shapes; use :func:`verify_shrinking` for
    the invariants, so that defective candidates can be inspected.
    """

    __match_args__ = ("tree", "assignment")

    def __init__(self, tree: tuple = (), assignment: tuple = ()):
        tree = tuple(tree)
        if _exact_int_tuples(tree, 2) is None:
            tree = tuple([_exact_ints((u, v)) for u, v in tree])
        self.__dict__.update(tree=tree, assignment=_exact_ints(assignment))

    @classmethod
    def from_pairs(cls, pairs) -> "Shrinking":
        """Build from one chosen pair per hyperedge (pairs must be distinct)."""
        normalised = [(u, v) if u < v else (v, u) for u, v in pairs]
        tree = tuple(sorted(normalised))
        if len(set(tree)) != len(tree):
            raise ValueError("chosen pairs are not distinct")
        index = {pair: j for j, pair in enumerate(tree)}
        return cls(tree, tuple(index[p] for p in normalised))

    def pair_for(self, i: int) -> tuple:
        """The tree edge assigned to hyperedge i; a hyperedge outside the
        assignment's index range, or an entry outside the tree's, raises
        IndexError rather than index from the end."""
        if not 0 <= i < len(self.assignment):
            raise IndexError(f"hyperedge {i} is outside [0, {len(self.assignment)})")
        j = self.assignment[i]
        if not 0 <= j < len(self.tree):
            raise IndexError(f"hyperedge {i} has assignment entry {j}, outside [0, {len(self.tree)})")
        return self.tree[j]

    def tree_degrees(self, n: int) -> list:
        """Degree in the tree of every vertex 0..n-1 (a fresh list);
        endpoints outside that range are not counted.  Computed once per
        n and remembered, as the value is immutable; a tree that
        :func:`verify_shrinking` accepts has its counts for n remembered
        there, by the spanning-tree check that reads every endpoint."""
        memo = self.__dict__.get("_tree_degrees")
        if memo is None or memo[0] != n:
            d = [0] * n
            for v in chain.from_iterable(self.tree):
                if 0 <= v < n:
                    d[v] += 1
            memo = self.__dict__["_tree_degrees"] = (n, d)
        return memo[1].copy()


def shrink_hypertree(hypergraph: Hypergraph, k: int = None) -> Shrinking:
    """Shrink a hypertree to a spanning tree meeting the degree bound.

    ``k`` defaults to the rank; a larger k weakens the bound but is
    accepted for experiments.  A hypergraph that is not simple is refused
    first, exactly as :func:`~hypershrink.orientation.is_hypertree`
    refuses it.  Raises :class:`NotAHypertreeError` where and only where
    ``is_hypertree`` answers False: on |E| != n-1, then off hubs on the
    tight heads' violator, before ``k`` is read or any orientation built,
    then on a rainbow forest short of n-1 edges.  A hypertree always has
    a rainbow tree (the paper's rainbow criterion), so a short forest on
    one raises :class:`~hypershrink.core.InternalError`.  Each stage
    trusts the one before it; :func:`verify_shrinking` checks the result.
    """
    _require_valid(hypergraph)
    n, m = hypergraph.n, hypergraph.num_edges
    if m != n - 1:
        count = f"on {n} vertices has {n - 1} hyperedges, got {m}" if n else "has at least one vertex"
        raise NotAHypertreeError("edge-count", f"a hypertree {count}")
    refused = not _hub_like(hypergraph) and _tight_heads(hypergraph)[1] is not None
    tree = () if refused else maximum_rainbow_forest(orient_floor(hypergraph, k))
    if len(tree) < n - 1:
        if not refused and is_hypertree(hypergraph):
            raise InternalError(f"a rainbow forest of {len(tree)} edges on a hypertree of {n} vertices")
        raise NotAHypertreeError(
            "no-rainbow-tree", "the star expansion has no rainbow spanning tree"
        )
    # sorted triples, each colour once: hyperedge c gets colour c's position.
    # Their members are the base's exact ints, so nothing needs normalising
    assignment = [0] * m
    for j, (_, _, c) in enumerate(tree):
        assignment[c] = j
    return Shrinking._trusted(tuple([(u, v) for u, v, _ in tree]), tuple(assignment))


class VerificationCheck(_Value):
    """One named check of :func:`verify_shrinking` and whether it passed."""

    __match_args__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.__dict__.update(name=name, passed=passed, detail=detail)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status}" + (f" ({self.detail})" if self.detail else "")


class VerificationReport(_Value):
    """The checks of :func:`verify_shrinking` in order; true when all passed."""

    __match_args__ = ("checks",)

    def __init__(self, checks: tuple = ()):
        self.__dict__.update(checks=checks)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __bool__(self) -> bool:
        return self.all_passed

    def __iter__(self):
        return iter(self.checks)

    def __getitem__(self, name: str) -> VerificationCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def verify_shrinking(hypergraph: Hypergraph, shrinking: Shrinking, k: int = None) -> VerificationReport:
    """Re-check every promise of a shrinking, reporting per-item pass/fail.

    Checks the tree shape, the pair-containment and bijection structure,
    the per-vertex bound d_T(v) >= max(1, floor(d_H(v)/k)), its halved
    consequence d_T(v) >= d_H(v)/(2k), and for rank-3 inputs the weaker
    d_T(v) >= d_H(v)/100.
    """
    k, bound = _degree_guarantee(hypergraph, k)
    n, m = hypergraph.n, hypergraph.num_edges
    checks = []

    tree = shrinking.tree
    tree_ok = len(tree) == n - 1
    detail = "" if tree_ok else f"{len(tree)} edges for {n} vertices"
    if tree_ok:
        parent = list(range(n))
        degree = [0] * n
        for u, v in tree:
            if not (0 <= u < n and 0 <= v < n and u != v):
                tree_ok, detail = False, f"bad edge ({u}, {v})"
                break
            degree[u] += 1
            degree[v] += 1
            a, b = u, v
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b:
                tree_ok, detail = False, f"cycle closed by ({u}, {v})"
                break
            parent[b] = a  # as UnionFind.union links: v's root under u's
        if tree_ok:  # every endpoint counted, all in range: tree_degrees(n)
            shrinking.__dict__["_tree_degrees"] = (n, degree)
    checks.append(VerificationCheck("spanning-tree", tree_ok, detail))

    assignment, edges = shrinking.assignment, hypergraph.edges
    # the range test comes first, so that no entry indexes from the end
    in_range = min(assignment, default=0) >= 0 and max(assignment, default=-1) < len(tree)
    contained = in_range
    if contained:
        ends = list(map(tree.__getitem__, assignment))
        contained = all(map(contains, edges, map(itemgetter(0), ends)))
        contained = contained and all(map(contains, edges, map(itemgetter(1), ends)))
    bad = [] if contained else [
        i
        for i, (j, e) in enumerate(zip(assignment, edges))
        if not (0 <= j < len(tree) and tree[j][0] in e and tree[j][1] in e)
    ]
    problems = [f"hyperedges {bad} do not contain their tree edge"] if bad else []
    if len(assignment) != m:
        problems.append(f"{len(assignment)} assignment entries for {m} hyperedges")
    checks.append(VerificationCheck("containment", not problems, "; ".join(problems)))

    # a permutation of range(m): m entries, each in range, none repeated
    bijective = in_range and len(assignment) == m == len(tree) and len(set(assignment)) == m
    checks.append(VerificationCheck("bijection", bijective))

    hyper_deg = _degrees(hypergraph)  # read only
    tree_deg = degree if tree_ok else shrinking.tree_degrees(n)  # read only
    if n == 1:
        checks.append(VerificationCheck("degree-floor-bound", True, "single vertex"))
        checks.append(VerificationCheck("halving-corollary", True, "single vertex"))
        bounds = []
    else:
        # the vertices below each bound, ascending
        floor_low = list(compress(count(), map(lt, tree_deg, bound)))
        half_low = list(compress(count(), map(lt, map(mul, tree_deg, repeat(2 * k)), hyper_deg)))
        bounds = [
            ("degree-floor-bound", floor_low, f"max(1, floor(d/{k}))"),
            ("halving-corollary", half_low, f"d/(2*{k})"),
        ]
    if hypergraph.rank() == 3:
        hundredth_low = list(compress(count(), map(lt, map(mul, tree_deg, repeat(100)), hyper_deg)))
        bounds.append(("hundredth-bound", hundredth_low, "d/100"))
    for name, low, bound in bounds:
        detail = f"vertices {low} fall below {bound}" if low else ""
        checks.append(VerificationCheck(name, not low, detail))
    return VerificationReport(tuple(checks))


# Items per encoder call.  Before CPython 3.12 the C encoder keeps one
# string per number until it joins the whole text, about 17 times the
# text's size; encoding a long array slice by slice bounds that transient
# to one slice.
_SLICE = 1024
# ints in tuples and lists: no cycle to find
_encode = json.JSONEncoder(check_circular=False).encode


def _add_array(parts: list, items) -> None:
    """Append pieces that join to ``json.dumps(items)``, one encoder call
    per slice of at most ``_SLICE`` items."""
    parts.append("[")
    for start in range(0, len(items), _SLICE):
        if start:
            parts.append(", ")
        parts.append(_encode(items[start : start + _SLICE])[1:-1])
    parts.append("]")


def _add_counts(parts: list, counts: list) -> None:
    """Append pieces that join to ``json.dumps(counts)`` for a list of
    exact ints with few distinct values: one string per distinct value,
    joined at most ``_SLICE`` items at a time."""
    text = {c: str(c) for c in set(counts)}.__getitem__
    parts.append("[")
    for start in range(0, len(counts), _SLICE):
        if start:
            parts.append(", ")
        parts.append(", ".join(map(text, counts[start : start + _SLICE])))
    parts.append("]")


def shrinking_to_json(hypergraph: Hypergraph, shrinking: Shrinking, k: int = None) -> str:
    """Serialise a shrinking with its degree data and per-vertex bound.

    The text is that of one ``json.dumps`` of ``{"tree", "assignment",
    "degrees": {"hyper", "tree"}, "bound"}``, encoded array by array.
    ``tree`` and ``assignment``, mostly distinct values, go through the
    encoder; the three count arrays, few distinct values each, are joined
    from one string per value (:func:`_add_counts`)."""
    _, bound = _degree_guarantee(hypergraph, k)
    parts = ['{"tree": ']
    _add_array(parts, shrinking.tree)
    parts.append(', "assignment": ')
    _add_array(parts, shrinking.assignment)
    parts.append(', "degrees": {"hyper": ')
    _add_counts(parts, _degrees(hypergraph))
    parts.append(', "tree": ')
    _add_counts(parts, shrinking.tree_degrees(hypergraph.n))
    parts.append('}, "bound": ')
    _add_counts(parts, bound)
    parts.append("}")
    return "".join(parts)
