"""Hypergraph data model: validation, degree queries, and file formats.

Vertices are dense integers ``0..n-1``.  Hyperedges are tuples of vertex
ids, stored strictly sorted; the position of a hyperedge in the edge list
is its stable identity (used as the colour id downstream).  All values are
immutable after construction and safe to share between threads.
"""

import json
import re
from itertools import chain
from operator import contains, itemgetter, lt


class FormatError(ValueError):
    """Raised when a hypergraph file cannot be parsed."""


class LimitExceededError(RuntimeError):
    """Raised when an exhaustive routine would exceed its safety limit."""


class InternalError(RuntimeError):
    """Raised when an invariant the algorithms guarantee is found broken,
    which means the implementation, not the input, is at fault."""


def _exact_int_tuples(rows: tuple, width: int = None):
    """The members of ``rows`` as one flat list, in order, when every row
    is a tuple of exact ``int`` (not ``bool`` or another int-like), each
    of length ``width`` if given; else None.

    Whole-column C-level passes decide, so constructors can keep such
    rows as they are and rebuild any other input with :func:`_exact_int`.
    """
    if set(map(type, rows)) <= {tuple} and (width is None or set(map(len, rows)) <= {width}):
        flat = list(chain.from_iterable(rows))
        if set(map(type, flat)) <= {int}:
            return flat
    return None


def _exact_int(x) -> int:
    """``int(x)``, refusing with ValueError a value it would change, such
    as ``1.7`` or ``"2"``; bools and other int-likes normalise."""
    i = int(x)
    if i != x:
        raise ValueError(f"{x!r} is not an integer")
    return i


def _exact_ints(values) -> tuple:
    """``values`` as a tuple of exact ``int``, kept as it is when it is one,
    else rebuilt with :func:`_exact_int`."""
    values = tuple(values)
    return values if set(map(type, values)) <= {int} else tuple(map(_exact_int, values))


def _vertex(v, n: int) -> int:
    """``v`` read by :func:`_exact_int` as a vertex id, refused with
    ValueError outside [0, n)."""
    v = _exact_int(v)
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range [0, {n})")
    return v


class _Value:
    """Base of the immutable value classes.

    ``__match_args__`` names the fields, in constructor order; equality
    (within one class), the hash and the repr read them, and positional
    ``match`` patterns bind them.  Constructors store the fields through
    ``__dict__``, where constructors and methods also keep their memos,
    which stay out of equality, hash and repr; every other write raises
    AttributeError.
    """

    __match_args__ = ()

    @classmethod
    def _trusted(cls, *fields, **memos):
        """The value of ``fields`` (in ``__match_args__`` order) and ``memos``,
        kept as they are: the one way past the constructor's checks."""
        value = cls.__new__(cls)
        value.__dict__.update(zip(cls.__match_args__, fields), **memos)
        return value

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__match_args__, self._astuple()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Hypergraph(_Value):
    """A hypergraph on vertices ``0..n-1`` with an ordered list of hyperedges.

    The constructor normalises edges to tuples but does not enforce the
    simplicity invariants; use :func:`validate` to obtain a violation
    report.  :meth:`degrees`, which indexes by vertex id, refuses a
    hypergraph :func:`validate` rejects.  The value is immutable, so
    :meth:`degrees`, :meth:`rank` and the :func:`validate` report are
    computed once and remembered.  The value also keeps every member in
    one flat list, in edge order, built by the constructor's exact-int
    check or :func:`hypergraph_from_json`'s type check; :func:`validate`
    and :meth:`degrees` read that list instead of walking the edges
    again.  Like every memo, it is read only.
    """

    __match_args__ = ("n", "edges")

    def __init__(self, n: int, edges: tuple = ()):
        n = _exact_int(n)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edges = tuple(edges)
        members = _exact_int_tuples(edges)
        if members is None:
            edges = tuple(map(_exact_ints, edges))
            members = list(chain.from_iterable(edges))
        self.__dict__.update(n=n, edges=edges, _members=members)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list:
        """Degree of every vertex, indexed by vertex id (a fresh copy of
        the list :func:`_degrees` remembers)."""
        return _degrees(self).copy()

    def rank(self) -> int:
        """Maximum hyperedge size; 0 for an edgeless hypergraph."""
        r = self.__dict__.get("_rank")
        if r is None:
            r = max(map(len, self.edges), default=0)
            object.__setattr__(self, "_rank", r)
        return r

    def incident_edge_count(self, vertices) -> int:
        """Number of hyperedges meeting the given set F of vertices in
        [0, n) (e*(F)); each id is read by :func:`_vertex`."""
        n = self.n
        fset = {_vertex(v, n) for v in vertices}
        return sum(1 for e in self.edges if not fset.isdisjoint(e))


class DirectedHypergraph(_Value):
    """A hypergraph whose every hyperedge carries a designated head vertex.

    ``heads[i]`` is the head of ``base.edges[i]``; the remaining vertices
    of the hyperedge are its tails.
    """

    __match_args__ = ("base", "heads")

    def __init__(self, base: Hypergraph, heads: tuple = ()):
        heads = _exact_ints(heads)
        if len(heads) != len(base.edges):
            raise ValueError("one head per hyperedge required")
        if not all(map(contains, base.edges, heads)):
            for i, (e, h) in enumerate(zip(base.edges, heads)):
                if h not in e:
                    raise ValueError(f"head {h} not a member of hyperedge {i}")
        self.__dict__.update(base=base, heads=heads)

    def indegree(self, v: int) -> int:
        """Number of hyperarcs whose head is ``v``, a vertex of the base."""
        return self.heads.count(_vertex(v, self.base.n))

    def indegrees(self) -> list:
        _require_valid(self.base)  # the heads index the counts
        d = [0] * self.base.n
        for h in self.heads:
            d[h] += 1
        return d


class DemandFunction(_Value):
    """Per-vertex non-negative integer demands."""

    __match_args__ = ("values",)

    def __init__(self, values: tuple = ()):
        values = _exact_ints(values)
        if min(values, default=0) < 0:
            raise ValueError("demands must be non-negative")
        self.__dict__.update(values=values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, v: int) -> int:
        """f(v) for a vertex v in [0, n)."""
        return self.values[_vertex(v, len(self.values))]

    def __iter__(self):
        return iter(self.values)

    def total(self) -> int:
        return sum(self.values)

    def sum_over(self, vertices) -> int:
        """f(F): the sum of demands over a set of vertices in [0, n)."""
        values, n = self.values, len(self.values)
        return sum([values[_vertex(v, n)] for v in vertices])


class Violation(_Value):
    """One problem found by :func:`validate`; ``kind`` is "loop",
    "duplicate", "vertex-range" or "unsorted"."""

    __match_args__ = ("kind", "edge_index", "detail")

    def __init__(self, kind: str, edge_index: int, detail: str):
        self.__dict__.update(kind=kind, edge_index=edge_index, detail=detail)

    def __str__(self) -> str:
        return f"{self.kind} at edge {self.edge_index}: {self.detail}"


class ValidationReport(_Value):
    """The violations :func:`validate` found, in edge order; true when none."""

    __match_args__ = ("violations",)

    def __init__(self, violations: tuple = ()):
        self.__dict__.update(violations=violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def __iter__(self):
        return iter(self.violations)

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def validate(hypergraph: Hypergraph) -> ValidationReport:
    """Check the simplicity invariants, returning violations as data.

    Reported kinds: ``loop`` (fewer than two distinct vertices),
    ``duplicate`` (an earlier hyperedge has the same vertex set),
    ``vertex-range`` (id outside ``[0, n)``) and ``unsorted`` (edge not
    strictly increasing).  The report is empty exactly when the input is
    a valid simple hypergraph; it is remembered on the value.
    """
    if "_report" in hypergraph.__dict__:
        return hypergraph._report
    n, edges = hypergraph.n, hypergraph.edges
    # Whole-column passes decide; the per-edge scan only names violations.
    valid = min(map(len, edges), default=2) >= 2
    if valid:
        # Every edge is strictly sorted iff the ascending adjacent pairs of
        # flat, less those straddling two edges, number len(flat) - len(edges);
        # then each edge's first and last members are its least and greatest
        flat = hypergraph._members
        firsts, lasts = list(map(itemgetter(0), edges)), list(map(itemgetter(-1), edges))
        valid = (
            sum(map(lt, flat, flat[1:])) - sum(map(lt, lasts, firsts[1:]))
            == len(flat) - len(edges)
            and min(firsts, default=0) >= 0
            and max(lasts, default=-1) < n
            and len(set(edges)) == len(edges)
        )
    problems = []
    seen = {}
    for i, e in enumerate(() if valid else edges):
        # the distinct vertices in order: their ends are the least and the
        # greatest vertex, and the tuple names the vertex set
        distinct = tuple(sorted(set(e)))
        if len(distinct) < 2:
            problems.append(Violation("loop", i, f"edge {list(e)} has size {len(distinct)}"))
        if distinct and (distinct[0] < 0 or distinct[-1] >= n):
            problems.append(Violation("vertex-range", i, f"edge {list(e)} leaves [0, {n})"))
        if e != distinct:
            problems.append(Violation("unsorted", i, f"edge {list(e)} is not strictly sorted"))
        if distinct in seen:
            problems.append(
                Violation("duplicate", i, f"edge {list(e)} repeats edge {seen[distinct]}")
            )
        else:
            seen[distinct] = i
    report = ValidationReport(tuple(problems))
    object.__setattr__(hypergraph, "_report", report)
    return report


def _require_valid(hypergraph: Hypergraph) -> None:
    """Raise ``ValueError("invalid hypergraph: <report>")`` unless :func:`validate` accepts it."""
    if not (report := validate(hypergraph)).ok:
        raise ValueError(f"invalid hypergraph: {report}")


def _degrees(hypergraph: Hypergraph) -> list:
    """The degree of every vertex of a valid hypergraph, counted once from
    the member list and remembered on it: the list itself, so read only;
    the package's own readers take it here rather than copy it through
    :meth:`Hypergraph.degrees`."""
    d = hypergraph.__dict__.get("_degrees")
    if d is None:
        _require_valid(hypergraph)  # the members index the counts
        d = [0] * hypergraph.n
        for v in hypergraph._members:
            d[v] += 1
        object.__setattr__(hypergraph, "_degrees", d)
    return d


def _degree_guarantee(hypergraph: Hypergraph, k=None) -> tuple:
    """``(k, bound)`` on a valid hypergraph: k defaults to the rank (1 if
    edgeless), else must be an exact positive integer (``3.0`` reads as 3,
    ``3.5`` and ``"3"`` are refused by :func:`_exact_int`); ``bound[v]`` =
    max(1, floor(d_H(v)/k)), the tree degree promised to v, or 0 when
    n <= 1.  The list is kept for the last k and is read only."""
    _require_valid(hypergraph)
    if k is None:
        k = max(hypergraph.rank(), 1)
    elif (k := _exact_int(k)) < 1:
        raise ValueError("k must be positive")
    memo = hypergraph.__dict__.get("_bound")
    if memo is None or memo[0] != k:
        degrees = _degrees(hypergraph)
        least = 1 if hypergraph.n > 1 else 0  # a tree on one vertex has no edge
        per_degree = {d: max(least, d // k) for d in set(degrees)}
        memo = (k, list(map(per_degree.__getitem__, degrees)))
        object.__setattr__(hypergraph, "_bound", memo)
    return k, memo[1]


# ---------------------------------------------------------------------------
# File formats.  JSON: {"n": <int>, "edges": [[v, ...], ...]}.
# Text: first line "n m", then m lines of space-separated ASCII decimal ids.
# Parsers sort the edges only if validate() finds one not strictly sorted;
# other semantic checks are left to validate(), whose report is remembered.
# ---------------------------------------------------------------------------

# Largest vertex count the parsers accept.  The pipeline allocates
# per-vertex lists before it looks at the edges, so a short file naming a
# huge n is refused as bad input rather than allowed to exhaust memory.
MAX_VERTICES = 10_000_000


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise FormatError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise FormatError(f"vertex count {n} exceeds the limit {MAX_VERTICES}")


def hypergraph_to_json(hypergraph: Hypergraph) -> str:
    return json.dumps({"n": hypergraph.n, "edges": hypergraph.edges})


def _parse_json(text: str):
    """``json.loads`` with every refusal of the parser as a FormatError:
    malformed text, an integer beyond the interpreter's digit limit, and
    nesting deeper than the recursion limit."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise FormatError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc


def hypergraph_from_json(text: str) -> Hypergraph:
    data = _parse_json(text)
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise FormatError('expected an object with "n" and "edges"')
    n, edges = data["n"], data["edges"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise FormatError('"n" must be an integer')
    if not isinstance(edges, list):
        raise FormatError('"edges" must be a list')
    _check_vertex_count(n)
    # json.loads makes exactly int for integers (bool for true/false), so
    # rows whose members are all of type int are exact-int rows, which the
    # constructor would keep as they are: the value is built past it, with
    # the flat list the type pass read.  Otherwise the scan names the first
    # bad edge
    if set(map(type, edges)) <= {list}:
        rows = tuple(map(tuple, edges))
        members = list(chain.from_iterable(rows))
        if set(map(type, members)) <= {int}:
            return _sorted_if_refused(Hypergraph._trusted(n, rows, _members=members))
    i = next(i for i, e in enumerate(edges) if type(e) is not list or not all(type(v) is int for v in e))
    raise FormatError(f"edge {i} must be a list of integers")


def _sorted_if_refused(hypergraph: Hypergraph) -> Hypergraph:
    """``hypergraph``, or its edges each sorted if validate finds one unsorted."""
    if all(v.kind != "unsorted" for v in validate(hypergraph)):
        return hypergraph  # every edge is strictly sorted already
    return Hypergraph(hypergraph.n, tuple([tuple(sorted(e)) for e in hypergraph.edges]))


def hypergraph_to_text(hypergraph: Hypergraph) -> str:
    lines = [f"{hypergraph.n} {hypergraph.num_edges}"]
    lines.extend(" ".join(str(v) for v in e) for e in hypergraph.edges)
    return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str) -> Hypergraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError('first line must be "n m"')
    try:
        n, m = map(_decimal, head)
    except ValueError as exc:
        raise FormatError(f"bad header: {exc}") from exc
    _check_vertex_count(n)
    if m < 0:
        raise FormatError("bad header: edge count must be non-negative")
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for i, ln in enumerate(lines[1:]):
        try:
            edges.append(tuple(map(_decimal, ln.split())))
        except ValueError as exc:
            raise FormatError(f"edge line {i}: {exc}") from exc
    return _sorted_if_refused(Hypergraph(n, tuple(edges)))


def _decimal(token: str) -> int:
    """``int(token)`` for ASCII ``-?[0-9]+``; refuses ``+1``, ``1_0``, non-ASCII digits."""
    if re.fullmatch("-?[0-9]+", token) is None:
        raise ValueError(f"{token!r} is not a decimal integer")
    return int(token)


def demands_from_json(text: str, n: int) -> DemandFunction:
    """Parse a demand file: a JSON array of n non-negative integers."""
    data = _parse_json(text)
    if not isinstance(data, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in data
    ):
        raise FormatError("expected a JSON array of integers")
    if len(data) != n:
        raise FormatError(f"expected {n} demand entries, found {len(data)}")
    if any(x < 0 for x in data):
        raise FormatError("demands must be non-negative")
    return DemandFunction(tuple(data))
