"""In-memory spans around the package's public functions.

The traced run replaces each hooked function at every ``hypershrink.*``
module attribute that binds it, which is the name its callers look it up
through (``hypershrink.shrink.orient_floor``,
``hypershrink.rainbow.maximum_rainbow_forest``, ...).  The package source
is never edited.  A hooked name that no longer exists is skipped, and a
layer whose functions are never called is reported as not observed, so
later rewrites of the package cannot break the traced run.
"""

import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# Durations are CPU time of the calling thread.  The package runs in that
# one thread, so on an unshared machine this is its wall time; on a shared
# virtual machine it leaves out the time the host runs other guests, which
# made wall-time medians of identical runs differ by up to 30%.
clock = time.thread_time

# CPU time still drifts with the host's speed (clock frequency, neighbours
# on the same core): on one shared 2-vCPU machine the median shrink-hub
# operation took 178-284 ms in consecutive 30 s windows.  A fixed kernel
# run next to every operation drifts the same way, so reported times are
# scaled by REFERENCE_KERNEL_S / (the kernel's CPU time next to them).
REFERENCE_KERNEL_S = 0.0025

# The kernel's second part walks this table, about 9 MB with its ints:
# beyond the per-core caches, as the package's larger instances are.
_LARGE = list(range(1 << 18))


def _union_find(parent, steps) -> float:
    """CPU seconds of ``steps`` seeded unions in ``parent``, which is left
    as it was."""
    size = len(parent)
    x = 12345
    linked = []
    start = clock()
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a, b = x % size, (x >> 12) % size
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[a] = b
            linked.append(a)
    seconds = clock() - start
    for a in linked:
        parent[a] = a
    return seconds


def kernel_seconds() -> float:
    """CPU seconds of a fixed interpreter-bound job: the geometric mean of
    union-find in a small, cache-resident table and in _LARGE.  Neighbours
    that compete for the core slow the first more, neighbours that compete
    for the shared cache the second.  On a shared 2-vCPU machine, scaling
    by the mean cut the spread (IQR / median) of 100-operation shrink-hub
    medians from 0.07 with the first part alone to 0.04.  Both parts
    allocate next to nothing, so the kernel leaves the garbage collector
    of the measured program alone."""
    small = _union_find(list(range(4096)), 5000)
    large = _union_find(_LARGE, 4000)
    return (small * large) ** 0.5

# (layer, function name).  A layer may own several functions: both
# hypergraph expansions are the "rainbow.expand" layer.
HOOKS = (
    ("cli", "main"),
    ("core.parse", "hypergraph_from_json"),
    ("core.validate", "validate"),
    ("shrink", "shrink_hypertree"),
    ("shrink.verify", "verify_shrinking"),
    ("shrink.serialise", "shrinking_to_json"),
    ("orientation.orient", "orient_floor"),
    ("rainbow.expand", "star_graph"),
    ("rainbow.expand", "clique_graph"),
    ("rainbow.tree", "rainbow_spanning_tree"),
    ("rainbow.forest", "maximum_rainbow_forest"),
    ("recognition", "is_hypertree"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _ in HOOKS))

# counters read off a hooked function's result, outside its span
RESULT_COUNTERS = {"rainbow.expand": ("rainbow.expand_edges", lambda g: len(g.edges))}


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # sid of the enclosing span, -1 at the root
    op: int


class Tracer:
    """Records one span per call of a hooked function while installed."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)  # (op, counter name) -> total
        self.op = -1
        self._stack = []
        self._saved = []

    def _wrap(self, layer, fn):
        counter = RESULT_COUNTERS.get(layer)

        def hooked(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[sid] = Span(sid, layer, start, end, parent, self.op)
            if counter is not None:
                self.counters[(self.op, counter[0])] += counter[1](return_value)
            return return_value

        hooked.__wrapped__ = fn
        return hooked

    def install(self, modules=None):
        """Hook every binding of a HOOKS function in ``modules``.

        ``modules`` defaults to the loaded ``hypershrink.*`` submodules.
        Returns the hooked (module, attribute) names.
        """
        if modules is None:
            modules = [
                mod for name, mod in sorted(sys.modules.items())
                if name.startswith("hypershrink.") and mod is not None
            ]
        for module in modules:
            for layer, attr in HOOKS:
                fn = getattr(module, attr, None)
                if callable(fn):
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(layer, fn))
        return [(m.__name__, attr) for m, attr, _ in self._saved]

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """sid -> span duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    result = {}
    for s in spans:
        inside = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.sid]
            if c.end > s.start and c.start < s.end
        ]
        result[s.sid] = (s.end - s.start) - covered_length(inside)
    return result


def per_op_layers(spans) -> dict:
    """op -> {layer: summed self seconds, "op": duration of the root spans}."""
    selfs = self_times(spans)
    ops = defaultdict(lambda: defaultdict(float))
    for s in spans:
        ops[s.op][s.name] += selfs[s.sid]
        if s.parent < 0:
            ops[s.op]["op"] += s.end - s.start
    return ops
