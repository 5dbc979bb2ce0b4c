"""Equivalence of Cayley graphs up to edge relabeling.

Two labeled digraphs are equivalent when some vertex bijection f and
label bijection sigma send every edge g -(s)-> h to
f(g) -(sigma(s))-> f(h).  The fast algorithms fix f(basepoint):
connected Cayley graphs are vertex-transitive with trivial stabilizer
(right multiplications are label-preserving automorphisms), so any
isomorphism composes with an automorphism of the target into one fixing
the basepoint, and a basepoint-fixing isomorphism is forced edge by
edge (``groups.forced_map``).  That normalization is the correctness
crux.

The undirected matcher takes the same ``CayleyGraph``s and reads both
rows of a label, ``succ`` (v -> s*v) and ``pred`` (v -> s^-1*v).  With
directions forgotten, f(basepoint) no longer forces the map: each
neighbour pair {s*v, s^-1*v} may go to its image pair either way round.
The search propagates breadth-first to a fixpoint, holding the pairs
with neither end mapped open, and branches on an open pair only when
propagation has nothing left to settle, so a wrong choice is refuted
close to where it was made.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .cayley import CayleyGraph
from .groups import forced_map


@dataclass(frozen=True)
class IsoWitness:
    """Vertex bijection plus label bijection (as label-index map)."""

    vertex_map: tuple[int, ...]
    label_map: tuple[int, ...]


def _bijective(g1: CayleyGraph, g2: CayleyGraph, witness: IsoWitness) -> bool:
    """Whether the witness maps the vertices and the labels of g1
    one-to-one onto those of g2."""
    n = g1.vertex_count
    return (g2.vertex_count == n and sorted(witness.vertex_map) == list(range(n))
            and len(witness.label_map) == len(g1.labels)
            and sorted(witness.label_map) == list(range(len(g2.labels))))


def validate_witness(g1: CayleyGraph, g2: CayleyGraph, witness: IsoWitness) -> bool:
    """Edge-by-edge check of the witness invariant."""
    if not _bijective(g1, g2, witness):
        return False
    f = witness.vertex_map
    for k, k2 in enumerate(witness.label_map):
        row1, row2 = g1.succ[k], g2.succ[k2]
        for v in range(g1.vertex_count):
            if f[row1[v]] != row2[f[v]]:
                return False
    return True


def _checked(g1: CayleyGraph, g2: CayleyGraph, witness: IsoWitness, caller: str) -> IsoWitness:
    """Return the witness after validating it edge by edge; an explicit
    raise, so the check also runs under ``python -O``."""
    if not validate_witness(g1, g2, witness):
        raise AssertionError(f"{caller} produced an invalid witness")
    return witness


def _require_connected(graph: CayleyGraph, caller: str) -> None:
    if not graph.connected:
        raise ValueError(f"{caller} requires a connected graph: {graph.provenance}")


def _label_bijections(g1: CayleyGraph, g2: CayleyGraph):
    """The order-compatible label bijections in lexicographic order
    (element orders are an isomorphism invariant)."""
    k = len(g1.labels)
    for perm in itertools.permutations(range(k)):
        if all(g1.label_orders[i] == g2.label_orders[perm[i]] for i in range(k)):
            yield perm


def directed_iso(g1: CayleyGraph, g2: CayleyGraph) -> Optional[IsoWitness]:
    """First witness (in deterministic sigma order) or None.

    Requires connected inputs; vertex or label count mismatch gives None.
    """
    _require_connected(g1, "directed_iso")
    _require_connected(g2, "directed_iso")
    if g1.vertex_count != g2.vertex_count or len(g1.labels) != len(g2.labels):
        return None
    for sigma in _label_bijections(g1, g2):
        f = forced_map(g1.vertex_count, g1.succ, g2.succ, sigma, g1.basepoint, g2.basepoint)
        if f is not None:
            return _checked(g1, g2, IsoWitness(f, tuple(sigma)), "directed_iso")
    return None


# ---------------------------------------------------------------------------
# undirected matching


def undirected_iso(g1: CayleyGraph, g2: CayleyGraph) -> Optional[IsoWitness]:
    """Witness of undirected labeled isomorphism, or None.

    Backtracking with constraint propagation from f(basepoint) =
    basepoint, once per order-compatible label bijection sigma: for a
    mapped vertex v and label s, the unordered neighbour pair
    {s*v, s^-1*v} must map onto the sigma(s)-pair of f(v).  The pairs
    are settled breadth-first from the basepoint, and a pair with
    neither end mapped is held open while propagation goes on; the
    search branches two ways on an open pair only at a fixpoint, where
    no open pair has had an end mapped since it was opened (refine
    before individualizing, as in B. D. McKay and A. Piperno, "Practical
    graph isomorphism, II", J. Symb. Comput. 60, 2014).  Basepoint
    fixing is justified as in the directed case (right multiplications
    remain automorphisms of the undirected view).
    """
    _require_connected(g1, "undirected_iso")
    _require_connected(g2, "undirected_iso")
    if g1.vertex_count != g2.vertex_count or len(g1.labels) != len(g2.labels):
        return None
    n = g1.vertex_count
    for sigma in _label_bijections(g1, g2):
        rows = [(g1.succ[k], g1.pred[k], g2.succ[k2], g2.pred[k2]) for k, k2 in enumerate(sigma)]
        f = [-1] * n
        used = [False] * n
        f[g1.basepoint] = g2.basepoint
        used[g2.basepoint] = True
        result = _undirected_search(rows, f, used, [g1.basepoint], [])
        if result is not None:
            witness = IsoWitness(result, tuple(sigma))
            if _validate_undirected(g1, g2, witness):
                return witness
            raise AssertionError("undirected search produced an invalid witness")
    return None


def _undirected_search(rows, f, used, pending, open_pairs) -> Optional[tuple[int, ...]]:
    """Extend the partial map f, whose image ``used`` marks, from the
    mapped vertices in pending; the whole map, or None.

    rows holds, per label s and its image t = sigma(s), the rows
    v -> s*v, v -> s^-1*v, w -> t*w and w -> t^-1*w, so a vertex v
    mapped to w asks, per label, that {f(s*v), f(s^-1*v)} be
    {t*w, t^-1*w}: the pair (s*v, s^-1*v, t*w, t^-1*w).  Pending
    vertices are taken first-in first-out, so the vertices mapped from
    one vertex come after those mapped before it.  A pair with one end
    mapped maps the other, and so does a pair of one vertex (a label of
    order at most 2, whose image then has one vertex too, because sigma
    keeps label orders).  A pair with neither end mapped is held open
    as (v, *pair), unless an image in it belongs to another vertex.
    When pending runs out, the vertex of each open pair that has had an
    end mapped or an image used since it was opened is taken again, and
    its open pairs with it.  Only when no open pair has, the search
    branches two ways on the first one and hands the others to each
    branch.
    """
    while True:
        for v in pending:
            w = f[v]
            for s1, p1, s2, p2 in rows:
                a, b, c, d = s1[v], p1[v], s2[w], p2[w]
                fa, fb = f[a], f[b]
                if fa == -1:
                    if fb == -1:
                        if a != b:
                            if used[c] or used[d]:
                                return None
                            open_pairs.append((v, a, b, c, d))
                            continue
                        x, y = a, c
                    else:
                        x, y = a, d if fb == c else c if fb == d else -1
                elif fb == -1:
                    x, y = b, d if fa == c else c if fa == d else -1
                elif fa == c and fb == d or fa == d and fb == c:
                    continue
                else:
                    return None
                if y == -1 or used[y]:
                    return None
                f[x] = y
                used[y] = True
                pending.append(x)
        again = dict.fromkeys(v for v, a, b, c, d in open_pairs
                              if f[a] != -1 or f[b] != -1 or used[c] or used[d])
        if not again:
            break
        open_pairs = [pair for pair in open_pairs if pair[0] not in again]
        pending = list(again)
    if open_pairs:
        _, a, b, c, d = open_pairs[0]
        for t_a, t_b in ((c, d), (d, c)):
            f2 = list(f)
            used2 = list(used)
            f2[a], f2[b] = t_a, t_b
            used2[c] = used2[d] = True
            result = _undirected_search(rows, f2, used2, [a, b], open_pairs[1:])
            if result is not None:
                return result
        return None
    if -1 in f:
        return None
    return tuple(f)


def _validate_undirected(g1: CayleyGraph, g2: CayleyGraph, witness: IsoWitness) -> bool:
    """Row-by-row check of the undirected witness invariant: for each
    label s, t = sigma(s), and vertex v, {f(s*v), f(s^-1*v)} equals
    {t*f(v), t^-1*f(v)}.  With f and sigma bijections this maps the
    undirected edges of each label onto those of its image."""
    if not _bijective(g1, g2, witness):
        return False
    f = witness.vertex_map
    for k, k2 in enumerate(witness.label_map):
        succ1, pred1, succ2, pred2 = g1.succ[k], g1.pred[k], g2.succ[k2], g2.pred[k2]
        for v in range(g1.vertex_count):
            if {f[succ1[v]], f[pred1[v]]} != {succ2[f[v]], pred2[f[v]]}:
                return False
    return True
