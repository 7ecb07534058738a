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
from .dot import coloured_graph_to_dot, rainbow_tree_to_dot, shrinking_to_dot
from .gen import SplitMix64, adversarial_star, random_hypertree, random_tree
from .oracles import (
    BruteforceResult,
    brute_force_shrink,
    check_rainbow_condition,
    is_hypertree_bruteforce,
)
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
