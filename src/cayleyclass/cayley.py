"""Edge-labeled Cayley graphs: construction, undirected view, DOT export.

The directed Cayley graph of (G, S) has an edge g -> s*g labeled s for
every group element g and every distinct label s in the sequence
(labels are the underlying set of the sequence, in first-occurrence
order).  Each label's edge set is a permutation of the vertices, so a
label subgraph is a disjoint union of directed cycles whose common
length is the label's element order.  One graph type serves both
senses: ``succ`` holds the rows v -> s*v and ``pred`` the rows
v -> s^-1*v, so the undirected neighbours of v under s are the pair
{s*v, s^-1*v}.  The rows are ``FiniteGroup.row``, shared with the
group's table when it has one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .groups import FiniteGroup, element_order

_EDGE_STYLES = ("solid", "dashed", "dotted", "bold")


@dataclass(frozen=True)
class CayleyGraph:
    vertex_count: int
    labels: tuple[int, ...]
    label_names: tuple[str, ...]
    label_orders: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]
    pred: tuple[tuple[int, ...], ...]
    vertex_names: tuple[str, ...]
    basepoint: int
    provenance: str

    @cached_property
    def connected(self) -> bool:
        """``is_connected(self)``, walked on first use and kept."""
        return is_connected(self)


def build(group: FiniteGroup, sequence: Iterable[int]) -> CayleyGraph:
    """Cayley graph of the group with respect to the sequence.

    Duplicate sequence entries collapse to a single label.
    """
    elements = tuple(sequence)
    labels: list[int] = []
    for s in elements:
        if not 0 <= s < group.order:
            raise ValueError(f"element id {s} out of range for {group.descriptor}")
        if s not in labels:
            labels.append(s)
    return CayleyGraph(
        vertex_count=group.order,
        labels=tuple(labels),
        label_names=tuple(group.names[s] for s in labels),
        label_orders=tuple(element_order(group, s) for s in labels),
        succ=tuple(group.row(s) for s in labels),
        pred=tuple(group.row(group.inv(s)) for s in labels),
        vertex_names=group.names,
        basepoint=group.identity,
        provenance=f"{group.descriptor};{','.join(group.names[s] for s in elements)}",
    )


def is_connected(graph: CayleyGraph) -> bool:
    """Reachability from the basepoint along labeled edges.

    Directed and undirected reachability coincide: each label subgraph
    is a union of cycles, so following out-edges alone suffices.
    """
    if graph.vertex_count == 0:
        return True
    seen = [False] * graph.vertex_count
    seen[graph.basepoint] = True
    stack = [graph.basepoint]
    count = 1
    while stack:
        v = stack.pop()
        for row in graph.succ:
            w = row[v]
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == graph.vertex_count


def undirected_view(graph: CayleyGraph) -> tuple[tuple[int, int, int], ...]:
    """The edges with directions forgotten: sorted (min, max, label index)
    triples.  Parallel edges with distinct labels are kept, the two
    directed edges of an order-2 label become one, and loops stay loops.
    """
    return tuple(sorted({(min(v, w), max(v, w), k)
                         for k, row in enumerate(graph.succ) for v, w in enumerate(row)}))


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(graph: CayleyGraph, name: str = "cayley", undirected: bool = False) -> str:
    """Deterministic DOT text; label k is drawn with the k-th line style.

    A digraph, or with undirected=True the graph of ``undirected_view``.
    """
    keyword, arrow = ("graph", "--") if undirected else ("digraph", "->")
    lines = [f"{keyword} {name} {{"]
    lines.append(f"  // {graph.provenance}")
    for k, label_name in enumerate(graph.label_names):
        style = _EDGE_STYLES[k % len(_EDGE_STYLES)]
        lines.append(f"  // label {label_name}: {style}")
    for v in range(graph.vertex_count):
        lines.append(f"  n{v} [label={_quote(graph.vertex_names[v])}];")
    if undirected:
        edges = sorted(undirected_view(graph), key=lambda e: (e[2], e[0], e[1]))
    else:
        edges = [(v, w, k) for k, row in enumerate(graph.succ) for v, w in enumerate(row)]
    for v, w, k in edges:
        lines.append(f"  n{v} {arrow} n{w} [style={_EDGE_STYLES[k % len(_EDGE_STYLES)]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
