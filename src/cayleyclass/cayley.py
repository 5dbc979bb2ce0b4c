"""Edge-labeled Cayley graphs: construction, undirected view, DOT export.

The directed Cayley graph of (G, S) has an edge g -> s*g labeled s for
every group element g and every distinct label s in the sequence
(labels are the underlying set of the sequence, in first-occurrence
order).  Each label's edge set is a permutation of the vertices, so a
label subgraph is a disjoint union of directed cycles whose common
length is the label's element order.  The rows are ``groups.left_row``,
shared with the group's table when it has one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .groups import FiniteGroup, GeneratingSequence, element_order, left_row

_EDGE_STYLES = ("solid", "dashed", "dotted", "bold")


@dataclass(frozen=True)
class CayleyGraph:
    vertex_count: int
    labels: tuple[int, ...]
    label_names: tuple[str, ...]
    label_orders: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]
    vertex_names: tuple[str, ...]
    basepoint: int
    provenance: str


@dataclass(frozen=True)
class UndirectedLabeledGraph:
    """Direction-forgetting view of a Cayley graph.

    For an order-2 label the directed pair g <-> s*g collapses to one
    undirected edge; for higher-order labels every directed edge yields
    one undirected edge.  Edges are canonical (min, max, label-index)
    triples; loops (label e) are retained as loops.  ``pred`` inverts
    each ``succ`` row: pred[k][v] = s_k^-1 * v.
    """

    vertex_count: int
    labels: tuple[int, ...]
    label_names: tuple[str, ...]
    label_orders: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]
    pred: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, int], ...]
    vertex_names: tuple[str, ...]
    basepoint: int
    provenance: str


def build(group: FiniteGroup, sequence: Union[GeneratingSequence, Iterable[int]]) -> CayleyGraph:
    """Cayley graph of the group with respect to the sequence.

    Duplicate sequence entries collapse to a single label.
    """
    if isinstance(sequence, GeneratingSequence):
        elements = sequence.elements
    else:
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
        succ=tuple(left_row(group, s) for s in labels),
        vertex_names=group.names,
        basepoint=group.identity,
        provenance=f"{group.descriptor};{','.join(group.names[s] for s in elements)}",
    )


def is_connected(graph: Union[CayleyGraph, UndirectedLabeledGraph]) -> bool:
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


def undirected_view(graph: CayleyGraph) -> UndirectedLabeledGraph:
    """Forget edge directions, keeping labels.

    Parallel undirected edges with distinct labels are retained; the
    two directed edges of an order-2 label become one undirected edge.
    """
    edges = set()
    pred = []
    for k, row in enumerate(graph.succ):
        inverse = [0] * graph.vertex_count
        for v, w in enumerate(row):
            edges.add((v, w, k) if v <= w else (w, v, k))
            inverse[w] = v
        pred.append(tuple(inverse))
    return UndirectedLabeledGraph(
        vertex_count=graph.vertex_count,
        labels=graph.labels,
        label_names=graph.label_names,
        label_orders=graph.label_orders,
        succ=graph.succ,
        pred=tuple(pred),
        edges=tuple(sorted(edges)),
        vertex_names=graph.vertex_names,
        basepoint=graph.basepoint,
        provenance=graph.provenance,
    )


def label_cycles(graph: CayleyGraph, label_index: int) -> list[list[int]]:
    """Directed cycles of one label's permutation, lowest vertex first."""
    row = graph.succ[label_index]
    seen = [False] * graph.vertex_count
    cycles = []
    for start in range(graph.vertex_count):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        cursor = row[start]
        while cursor != start:
            cycle.append(cursor)
            seen[cursor] = True
            cursor = row[cursor]
        cycles.append(cycle)
    return cycles


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(
    graph: Union[CayleyGraph, UndirectedLabeledGraph],
    name: str = "cayley",
    undirected: bool = False,
) -> str:
    """Deterministic DOT text; label k is drawn with the k-th line style.

    A CayleyGraph yields a digraph; pass undirected=True (or an
    UndirectedLabeledGraph) for the direction-forgetting graph.
    """
    if isinstance(graph, UndirectedLabeledGraph):
        undirected = True
    keyword, arrow = ("graph", "--") if undirected else ("digraph", "->")
    lines = [f"{keyword} {name} {{"]
    lines.append(f"  // {graph.provenance}")
    for k, label_name in enumerate(graph.label_names):
        style = _EDGE_STYLES[k % len(_EDGE_STYLES)]
        lines.append(f"  // label {label_name}: {style}")
    for v in range(graph.vertex_count):
        lines.append(f"  n{v} [label={_quote(graph.vertex_names[v])}];")
    if undirected:
        if isinstance(graph, CayleyGraph):
            graph = undirected_view(graph)
        for v, w, k in sorted(graph.edges, key=lambda e: (e[2], e[0], e[1])):
            style = _EDGE_STYLES[k % len(_EDGE_STYLES)]
            lines.append(f"  n{v} {arrow} n{w} [style={style}];")
    else:
        for k, row in enumerate(graph.succ):
            style = _EDGE_STYLES[k % len(_EDGE_STYLES)]
            for v, w in enumerate(row):
                lines.append(f"  n{v} {arrow} n{w} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def edge_count(graph: Union[CayleyGraph, UndirectedLabeledGraph]) -> int:
    if isinstance(graph, UndirectedLabeledGraph):
        return len(graph.edges)
    return graph.vertex_count * len(graph.labels)
