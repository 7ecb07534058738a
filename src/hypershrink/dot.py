"""DOT export for visual inspection.

Nothing here is on the ``shrink``/``check`` path: ``hypershrink shrink
--out dot`` writes :func:`shrinking_to_dot` of a shrinking already built
and verified.  Edges take their colour from :data:`PALETTE` by colour id
(hyperedge index in a shrinking).
"""

from itertools import combinations

from .core import Hypergraph, _require_valid
from .rainbow import ColouredGraph, RainbowTree
from .shrink import Shrinking


PALETTE = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080",
    "#9a6324", "#800000", "#808000", "#000075", "#a9a9a9",
)


def _dot_edge(u: int, v: int, colour: int, extra: str = "") -> str:
    paint = PALETTE[colour % len(PALETTE)]
    return f'  {u} -- {v} [label="{colour}", color="{paint}"{extra}];'


def _dot_document(name: str, n: int, edge_lines) -> str:
    """An undirected DOT graph: vertices 0..n-1, then the given edge lines."""
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(n))
    lines.extend(edge_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def coloured_graph_to_dot(graph: ColouredGraph, name: str = "coloured") -> str:
    return _dot_document(
        name, graph.n, (_dot_edge(u, v, c) for u, v, c in graph.edges)
    )


def rainbow_tree_to_dot(tree: RainbowTree, name: str = "rainbow_tree") -> str:
    return _dot_document(
        name, tree.n, (_dot_edge(u, v, c, ", penwidth=2") for u, v, c in tree.edges)
    )


def shrinking_to_dot(hypergraph: Hypergraph, shrinking: Shrinking) -> str:
    """Overlay the tree (bold, coloured by hyperedge) on the clique
    expansion (gray) for visual inspection.  A tree pair is matched
    whichever way round it is written; an assignment entry outside the
    tree's index range bolds no edge."""
    _require_valid(hypergraph)
    tree = shrinking.tree
    chosen = {
        (tuple(sorted(tree[j])), i)
        for i, j in enumerate(shrinking.assignment[: hypergraph.num_edges])
        if 0 <= j < len(tree)
    }
    edge_lines = []
    for i, e in enumerate(hypergraph.edges):
        for a, b in combinations(e, 2):
            if ((a, b), i) in chosen:
                edge_lines.append(_dot_edge(a, b, i, ", penwidth=2"))
            else:
                edge_lines.append(f'  {a} -- {b} [color="gray", style=dashed];')
    return _dot_document("shrinking", hypergraph.n, edge_lines)
