"""The undirected matcher as it stood before it propagated to a fixpoint,
and an exhaustive undirected oracle: the references that
``iso.undirected_iso`` is checked against.

``undirected_iso`` below is a depth-first search that pops its pending
vertices last-in first-out and branches at the first pair of neighbours
with neither end mapped.  ``exhaustive_undirected_iso`` shares no search
code with either matcher: it maps vertices one at a time, tries every
label bijection and every image of the basepoint, and checks each new
vertex only against the vertices mapped before it.
"""

from __future__ import annotations

import itertools
from typing import Optional

from brute_force_oracle import BRUTE_FORCE_LIMIT
from cayleyclass.cayley import CayleyGraph
from cayleyclass.iso import (
    IsoWitness,
    _label_bijections,
    _require_connected,
    _validate_undirected,
)


def undirected_iso(g1: CayleyGraph, g2: CayleyGraph) -> Optional[IsoWitness]:
    """Witness of undirected labeled isomorphism, or None.

    Backtracking with constraint propagation from f(basepoint) =
    basepoint: for an assigned vertex g and label s, the unordered
    neighbor pair {s*g, s^-1*g} must map onto the sigma(s)-pair of
    f(g); an unresolved pair branches two ways.  Basepoint fixing is
    justified as in the directed case (right multiplications remain
    automorphisms of the undirected view).
    """
    _require_connected(g1, "undirected_iso")
    _require_connected(g2, "undirected_iso")
    if g1.vertex_count != g2.vertex_count or len(g1.labels) != len(g2.labels):
        return None
    n = g1.vertex_count
    for sigma in _label_bijections(g1, g2):
        f = [-1] * n
        used = [False] * n
        f[g1.basepoint] = g2.basepoint
        used[g2.basepoint] = True
        result = _undirected_search(g1, g2, sigma, f, used, [g1.basepoint])
        if result is not None:
            witness = IsoWitness(result, tuple(sigma))
            if _validate_undirected(g1, g2, witness):
                return witness
            raise AssertionError("undirected search produced an invalid witness")
    return None


def _undirected_search(g1, g2, sigma, f, used, pending) -> Optional[tuple[int, ...]]:
    succ1, pred1, succ2, pred2 = g1.succ, g1.pred, g2.succ, g2.pred
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
                        g1, g2, sigma, f2, used2, pending + [lo, hi, v]
                    )
                    if result is not None:
                        return result
                return None
    if -1 in f:
        return None
    return tuple(f)


def exhaustive_undirected_iso(
    g1: CayleyGraph, g2: CayleyGraph, limit: int = BRUTE_FORCE_LIMIT
) -> Optional[IsoWitness]:
    """Witness of undirected labeled isomorphism, or None, by exhaustion.

    For every label bijection sigma and every image of the basepoint,
    the vertices of g1 are mapped one at a time in breadth-first order.
    Each later vertex v, reached from u by label s, is tried at both
    neighbours of f(u) under sigma(s), since any other image breaks that
    edge.  A choice is kept when it is unused and, for each label s, the
    mapped neighbours {s*v, s^-1*v} land in {sigma(s)*f(v),
    sigma(s)^-1*f(v)} and the mapped preimages of that pair lie in
    {s*v, s^-1*v}.  Nothing is inferred ahead of the vertex being
    placed, label orders are not compared and the basepoint is not
    fixed.  Guarded to at most 16 vertices unless the limit is raised
    explicitly.
    """
    if max(g1.vertex_count, g2.vertex_count) > limit:
        raise ValueError(f"exhaustive_undirected_iso refuses graphs larger than {limit} vertices")
    if g1.vertex_count != g2.vertex_count or len(g1.labels) != len(g2.labels):
        return None
    _require_connected(g1, "exhaustive_undirected_iso")
    _require_connected(g2, "exhaustive_undirected_iso")
    n = g1.vertex_count
    # breadth-first order of g1, each vertex after the first with the
    # mapped vertex and label it was reached by
    order, reached = [g1.basepoint], {g1.basepoint: None}
    for v in order:
        for k in range(len(g1.labels)):
            for w in (g1.succ[k][v], g1.pred[k][v]):
                if w not in reached:
                    reached[w] = (v, k)
                    order.append(w)
    for sigma in itertools.permutations(range(len(g1.labels))):
        pairs = [(g1.succ[k], g1.pred[k], g2.succ[k2], g2.pred[k2]) for k, k2 in enumerate(sigma)]
        f, finv = [-1] * n, [-1] * n

        def fits(v, w):
            for s1, p1, s2, p2 in pairs:
                ends1, ends2 = (s1[v], p1[v]), (s2[w], p2[w])
                if any(f[u] != -1 and f[u] not in ends2 for u in ends1):
                    return False
                if any(finv[x] != -1 and finv[x] not in ends1 for x in ends2):
                    return False
            return True

        def place(depth):
            if depth == n:
                return True
            v = order[depth]
            if depth == 0:
                candidates = range(n)
            else:
                # f(v) is a neighbour of f(u) under sigma(k): the others fail fits
                u, k = reached[v]
                candidates = {pairs[k][2][f[u]], pairs[k][3][f[u]]}
            for w in candidates:
                if finv[w] == -1 and fits(v, w):
                    f[v], finv[w] = w, v
                    if place(depth + 1):
                        return True
                    f[v], finv[w] = -1, -1
            return False

        if place(0):
            witness = IsoWitness(tuple(f), tuple(sigma))
            if not _validate_undirected(g1, g2, witness):
                raise AssertionError("exhaustive_undirected_iso produced an invalid witness")
            return witness
    return None
