"""Shrink hypertrees to spanning trees with per-vertex degree guarantees.

A hypertree is a hypergraph in which every vertex subset X contains at
most |X|-1 hyperedges, with equality at the full vertex set; equivalently
one that can be shrunk to a spanning tree by picking a pair of vertices
from each hyperedge.  This package builds such a shrinking so that every
vertex keeps tree degree at least max(1, floor(d/k)) where d is its
hypergraph degree and k the rank, via two engines: demand-constrained
orientation (Hall's theorem) and rainbow spanning tree extraction
(graphic and partition matroid intersection).
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
from .gen import SplitMix64, adversarial_star, random_hypertree, random_tree
from .orientation import (
    OrientationResult,
    floor_demand,
    is_hypertree,
    orient_floor,
    orient_with_demands,
)
from .rainbow import (
    ColouredGraph,
    RainbowTree,
    maximum_rainbow_forest,
    rainbow_spanning_tree,
    star_graph,
)
from .shrink import (
    NotAHypertreeError,
    Shrinking,
    VerificationCheck,
    VerificationReport,
    shrink_hypertree,
    shrinking_to_json,
    verify_shrinking,
)

__version__ = "1.0.0"

# Public name -> the module off the shrink/check path that defines it.
# Each module is imported on the first access of one of its names
# (PEP 562), so `import hypershrink` and the CLI start without them.
_OFF_PATH = {
    "BruteforceResult": "oracles",
    "brute_force_shrink": "oracles",
    "check_rainbow_condition": "oracles",
    "is_hypertree_bruteforce": "oracles",
    "coloured_graph_to_dot": "dot",
    "rainbow_tree_to_dot": "dot",
    "shrinking_to_dot": "dot",
}


def __getattr__(name):
    if name not in _OFF_PATH:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_OFF_PATH[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_OFF_PATH))

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
