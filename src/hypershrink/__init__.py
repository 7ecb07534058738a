"""Shrink hypertrees to spanning trees with per-vertex degree guarantees.

A hypertree is a hypergraph in which every vertex subset X contains at
most |X|-1 hyperedges, with equality at the full vertex set; equivalently
one that can be shrunk to a spanning tree by picking a pair of vertices
from each hyperedge.  This package builds such a shrinking so that every
vertex keeps tree degree at least max(1, floor(d/k)) where d is its
hypergraph degree and k the rank, via two engines: demand-constrained
orientation (Hall's theorem) and rainbow spanning tree extraction
(graphic and partition matroid intersection).

Importing the package loads the recognition stage alone (``core`` and
``orientation``).  The names of ``rainbow`` and ``shrink``, which only a
shrinking needs, of the seeded generators in ``gen``, and of the
exhaustive ``oracles`` and the ``dot`` writers resolve on first access,
as do those submodule names.
"""

from .core import (
    DemandFunction,
    DirectedHypergraph,
    FormatError,
    Hypergraph,
    InternalError,
    LimitExceededError,
    ValidationReport,
    Violation,
    demands_from_json,
    hypergraph_from_json,
    hypergraph_from_text,
    hypergraph_to_json,
    hypergraph_to_text,
    validate,
)
from .orientation import (
    OrientationResult,
    floor_demand,
    is_hypertree,
    orient_floor,
    orient_with_demands,
)

__version__ = "1.0.0"

# Name -> the submodule that defines it, each submodule's own name
# included.  The stage-two modules (rainbow, shrink), the generators (gen)
# and the off-path ones (oracles, dot) are imported on the first access of
# one of their names (PEP 562), so `import hypershrink` and the CLI start
# without them.
_LAZY = {
    name: module
    for module, names in {
        "rainbow": ("ColouredGraph", "RainbowTree", "maximum_rainbow_forest",
                    "rainbow_spanning_tree", "star_graph"),
        "shrink": ("NotAHypertreeError", "Shrinking", "VerificationCheck",
                   "VerificationReport", "shrink_hypertree", "shrinking_to_json",
                   "verify_shrinking"),
        "gen": ("SplitMix64", "adversarial_star", "random_hypertree", "random_tree"),
        "oracles": ("BruteforceResult", "brute_force_shrink", "check_rainbow_condition",
                    "is_hypertree_bruteforce"),
        "dot": ("coloured_graph_to_dot", "rainbow_tree_to_dot", "shrinking_to_dot"),
    }.items()
    for name in (module, *names)
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "BruteforceResult",
    "ColouredGraph",
    "DemandFunction",
    "DirectedHypergraph",
    "FormatError",
    "Hypergraph",
    "InternalError",
    "LimitExceededError",
    "NotAHypertreeError",
    "OrientationResult",
    "RainbowTree",
    "Shrinking",
    "SplitMix64",
    "ValidationReport",
    "VerificationCheck",
    "VerificationReport",
    "Violation",
    "adversarial_star",
    "brute_force_shrink",
    "check_rainbow_condition",
    "coloured_graph_to_dot",
    "demands_from_json",
    "floor_demand",
    "hypergraph_from_json",
    "hypergraph_from_text",
    "hypergraph_to_json",
    "hypergraph_to_text",
    "is_hypertree",
    "is_hypertree_bruteforce",
    "maximum_rainbow_forest",
    "orient_floor",
    "orient_with_demands",
    "rainbow_spanning_tree",
    "rainbow_tree_to_dot",
    "random_hypertree",
    "random_tree",
    "shrink_hypertree",
    "shrinking_to_dot",
    "shrinking_to_json",
    "star_graph",
    "validate",
    "verify_shrinking",
]
