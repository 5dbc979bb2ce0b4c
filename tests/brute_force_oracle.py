"""An exhaustive directed oracle and the label-preserving automorphisms of
a Cayley graph: the references that ``iso.directed_iso`` is checked
against.

``brute_force_iso`` tries every label bijection, with no order pruning,
and every image of the basepoint, with no appeal to vertex
transitivity.  ``automorphisms`` forces a map from every image of the
basepoint under the identity label bijection.
"""

from __future__ import annotations

import itertools
from typing import Optional

from cayleyclass.cayley import CayleyGraph
from cayleyclass.groups import forced_map
from cayleyclass.iso import IsoWitness, _checked, _require_connected

BRUTE_FORCE_LIMIT = 16


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
    for sigma in itertools.permutations(range(len(g1.labels))):
        for start in range(g2.vertex_count):
            f = forced_map(g1.vertex_count, g1.succ, g2.succ, sigma, g1.basepoint, start)
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
        f = forced_map(graph.vertex_count, graph.succ, graph.succ, identity_sigma,
                       graph.basepoint, start)
        if f is not None:
            found.append(_checked(graph, graph, IsoWitness(f, identity_sigma), "automorphisms"))
    return found
