"""Equivalence of Cayley graphs up to edge relabeling.

Two labeled digraphs are equivalent when some vertex bijection f and
label bijection sigma send every edge g -(s)-> h to
f(g) -(sigma(s))-> f(h).  The fast algorithms fix f(basepoint):
connected Cayley graphs are vertex-transitive with trivial stabilizer
(right multiplications are label-preserving automorphisms), so any
isomorphism composes with an automorphism of the target into one fixing
the basepoint, and a basepoint-fixing isomorphism is forced edge by
edge.  That normalization is the correctness crux; the brute-force
oracle below does not rely on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .cayley import CayleyGraph, UndirectedLabeledGraph, is_connected

BRUTE_FORCE_LIMIT = 16

Graph = Union[CayleyGraph, UndirectedLabeledGraph]


@dataclass(frozen=True)
class IsoWitness:
    """Vertex bijection plus label bijection (as label-index map)."""

    vertex_map: tuple[int, ...]
    label_map: tuple[int, ...]

    def to_json(self, source: Graph, target: Graph) -> dict:
        return {
            "vertex_map": list(self.vertex_map),
            "label_map": [
                [source.label_names[k], target.label_names[self.label_map[k]]]
                for k in range(len(self.label_map))
            ],
        }


def validate_witness(g1: Graph, g2: Graph, witness: IsoWitness) -> bool:
    """Edge-by-edge check of the witness invariant."""
    n = g1.vertex_count
    f = witness.vertex_map
    sigma = witness.label_map
    if g2.vertex_count != n or len(f) != n or len(set(f)) != n:
        return False
    if len(sigma) != len(g1.labels) or sorted(sigma) != list(range(len(g2.labels))):
        return False
    for k in range(len(g1.labels)):
        row1 = g1.succ[k]
        row2 = g2.succ[sigma[k]]
        for v in range(n):
            if f[row1[v]] != row2[f[v]]:
                return False
    return True


def _checked(g1: Graph, g2: Graph, witness: IsoWitness, caller: str) -> IsoWitness:
    """Return the witness after validating it edge by edge; an explicit
    raise, so the check also runs under ``python -O``."""
    if not validate_witness(g1, g2, witness):
        raise AssertionError(f"{caller} produced an invalid witness")
    return witness


def _require_connected(graph: Graph, caller: str) -> None:
    if not is_connected(graph):
        raise ValueError(f"{caller} requires a connected graph: {graph.provenance}")


def _label_bijections(g1: Graph, g2: Graph, order_compatible: bool):
    """Label bijections in lexicographic order, optionally restricted to
    order-compatible ones (element orders are an isomorphism invariant)."""
    k = len(g1.labels)
    for perm in itertools.permutations(range(k)):
        if order_compatible:
            if any(g1.label_orders[i] != g2.label_orders[perm[i]] for i in range(k)):
                continue
        yield perm


def _propagate(g1: Graph, g2: Graph, sigma, start: int) -> Optional[tuple[int, ...]]:
    """Force a vertex map from f(basepoint)=start along out-edges.

    Any isomorphism with label map sigma satisfies f(s*g) = sigma(s)*f(g),
    so it is determined by the basepoint image; a conflict or collision
    proves no such isomorphism exists.  Every edge is checked once.
    """
    n = g1.vertex_count
    f = [-1] * n
    used = [False] * n
    f[g1.basepoint] = start
    used[start] = True
    queue = [g1.basepoint]
    head = 0
    succ1, succ2 = g1.succ, g2.succ
    while head < len(queue):
        v = queue[head]
        head += 1
        fv = f[v]
        for k in range(len(sigma)):
            w = succ1[k][v]
            target = succ2[sigma[k]][fv]
            fw = f[w]
            if fw == -1:
                if used[target]:
                    return None
                f[w] = target
                used[target] = True
                queue.append(w)
            elif fw != target:
                return None
    if head != n:
        # unreachable vertices: disconnected input, caller should have checked
        return None
    return tuple(f)


def directed_iso(g1: CayleyGraph, g2: CayleyGraph) -> Optional[IsoWitness]:
    """First witness (in deterministic sigma order) or None.

    Requires connected inputs; vertex or label count mismatch gives None.
    """
    _require_connected(g1, "directed_iso")
    _require_connected(g2, "directed_iso")
    if g1.vertex_count != g2.vertex_count or len(g1.labels) != len(g2.labels):
        return None
    for sigma in _label_bijections(g1, g2, order_compatible=True):
        f = _propagate(g1, g2, sigma, g2.basepoint)
        if f is not None:
            return _checked(g1, g2, IsoWitness(f, tuple(sigma)), "directed_iso")
    return None


def brute_force_iso(
    g1: CayleyGraph, g2: CayleyGraph, limit: int = BRUTE_FORCE_LIMIT
) -> Optional[IsoWitness]:
    """Exhaustive oracle: tries every label bijection and every basepoint
    image, with no order pruning and no appeal to vertex transitivity.
    Guarded to at most 16 vertices unless the limit is raised explicitly."""
    if max(g1.vertex_count, g2.vertex_count) > limit:
        raise ValueError(
            f"brute_force_iso refuses graphs larger than {limit} vertices"
        )
    if g1.vertex_count != g2.vertex_count or len(g1.labels) != len(g2.labels):
        return None
    _require_connected(g1, "brute_force_iso")
    _require_connected(g2, "brute_force_iso")
    for sigma in _label_bijections(g1, g2, order_compatible=False):
        for start in range(g2.vertex_count):
            f = _propagate(g1, g2, sigma, start)
            if f is not None:
                return _checked(g1, g2, IsoWitness(f, tuple(sigma)), "brute_force_iso")
    return None


def automorphisms(graph: CayleyGraph) -> list[IsoWitness]:
    """All label-preserving automorphisms; equals the group order for a
    connected Cayley graph (one per basepoint image, by regularity)."""
    _require_connected(graph, "automorphisms")
    identity_sigma = tuple(range(len(graph.labels)))
    found = []
    for start in range(graph.vertex_count):
        f = _propagate(graph, graph, identity_sigma, start)
        if f is not None:
            found.append(_checked(graph, graph, IsoWitness(f, identity_sigma), "automorphisms"))
    return found


# ---------------------------------------------------------------------------
# undirected matching


def undirected_iso(
    u1: UndirectedLabeledGraph, u2: UndirectedLabeledGraph
) -> Optional[IsoWitness]:
    """Witness of undirected labeled isomorphism, or None.

    Backtracking with constraint propagation from f(basepoint) =
    basepoint: for an assigned vertex g and label s, the unordered
    neighbor pair {s*g, s^-1*g} must map onto the sigma(s)-pair of
    f(g); an unresolved pair branches two ways.  Basepoint fixing is
    justified as in the directed case (right multiplications remain
    automorphisms of the undirected view).
    """
    _require_connected(u1, "undirected_iso")
    _require_connected(u2, "undirected_iso")
    if u1.vertex_count != u2.vertex_count or len(u1.labels) != len(u2.labels):
        return None
    n = u1.vertex_count
    for sigma in _label_bijections(u1, u2, order_compatible=True):
        f = [-1] * n
        used = [False] * n
        f[u1.basepoint] = u2.basepoint
        used[u2.basepoint] = True
        result = _undirected_search(u1, u2, sigma, f, used, [u1.basepoint])
        if result is not None:
            witness = IsoWitness(result, tuple(sigma))
            if _validate_undirected(u1, u2, witness):
                return witness
            raise AssertionError("undirected search produced an invalid witness")
    return None


def _undirected_search(u1, u2, sigma, f, used, pending) -> Optional[tuple[int, ...]]:
    succ1, pred1, succ2, pred2 = u1.succ, u1.pred, u2.succ, u2.pred
    while pending:
        v = pending.pop()
        fv = f[v]
        for k in range(len(sigma)):
            k2 = sigma[k]
            a, b = succ1[k][v], pred1[k][v]
            c, d = succ2[k2][fv], pred2[k2][fv]
            if a == b:
                # order <= 2 label: a single undirected neighbor
                if c != d:
                    return None
                if f[a] == -1:
                    if used[c]:
                        return None
                    f[a] = c
                    used[c] = True
                    pending.append(a)
                elif f[a] != c:
                    return None
                continue
            if c == d:
                return None
            fa, fb = f[a], f[b]
            if fa != -1 and fb != -1:
                if {fa, fb} != {c, d}:
                    return None
            elif fa != -1:
                target = d if fa == c else (c if fa == d else None)
                if target is None or used[target]:
                    return None
                f[b] = target
                used[target] = True
                pending.append(b)
            elif fb != -1:
                target = d if fb == c else (c if fb == d else None)
                if target is None or used[target]:
                    return None
                f[a] = target
                used[target] = True
                pending.append(a)
            else:
                # unresolved pair: branch, smaller source to smaller target first
                lo, hi = (a, b) if a < b else (b, a)
                c_lo, c_hi = (c, d) if c < d else (d, c)
                for t_lo, t_hi in ((c_lo, c_hi), (c_hi, c_lo)):
                    if used[t_lo] or used[t_hi]:
                        continue
                    f2 = list(f)
                    used2 = list(used)
                    f2[lo] = t_lo
                    f2[hi] = t_hi
                    used2[t_lo] = True
                    used2[t_hi] = True
                    result = _undirected_search(
                        u1, u2, sigma, f2, used2, pending + [lo, hi, v]
                    )
                    if result is not None:
                        return result
                return None
    if -1 in f:
        return None
    return tuple(f)


def _validate_undirected(u1, u2, witness: IsoWitness) -> bool:
    f = witness.vertex_map
    sigma = witness.label_map
    if len(set(f)) != u1.vertex_count or u1.vertex_count != u2.vertex_count:
        return False
    mapped = set()
    for v, w, k in u1.edges:
        a, b = f[v], f[w]
        mapped.add((a, b, sigma[k]) if a <= b else ((b, a, sigma[k])))
    return mapped == set(u2.edges)
