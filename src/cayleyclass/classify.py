"""Enumerate generating sequences and partition them into equivalence
classes under directed or undirected Cayley-graph isomorphism.

The classes rest on one fact: a basepoint-fixing, label-permuting
isomorphism of connected Cayley graphs is a group automorphism.  So two
sequences are directed-equivalent exactly when an automorphism maps the
set of one onto the set of the other, and the directed classes are the
Aut(G)-orbits of the generating k-sets.  Each class is represented by
its lexicographically least set.

The k-sets are walked in lexicographic order down a tree of pointwise
stabilizers of Aut(G) (``groups.StabilizerNode``, after C. Sims, 1970,
and S. Linton, "Finding the smallest image of a set", ISSAC 2004): a
set is a leaf when each element is the least of its orbit under the
automorphisms that fix the elements before it, and every least set of
an orbit is a leaf.  A leaf is kept when it generates (minimally, in
minimal mode) and is its own least image, computed down the same tree.
Aut(G) moves generating tuples freely, so a class holds |Aut(G)|
sequences for each Aut(G)-orbit among the k! orderings of its set, and
the orderings that share the least image of the set number |set
stabilizer|.

The generation test comes first, at the leaves too, and it is shared
down the tree.  At a leaf it is the costlier test, and the least-image
test after it rejects most of the leaves that generate: on S6 at length
3, minimal, 108,445 leaf closures prove generation and 3,209 sets lead a
class.  The walk is depth-first, and each node on the current path
holds <prefix>, the subgroup its elements generate (in minimal mode also
the subgroup of each prefix without one of its elements), so at most
k*k subgroups of at most |G| elements are held.
A leaf (prefix, x) fails at once when x lies in <prefix>; otherwise
<prefix> is extended by x coset by coset (``groups.extend_subgroup``,
Dimino's method), each new coset a generator's row applied to an earlier
coset, until it is known to be the group or not.  In minimal
mode a node whose prefix generates the group, or has an element in the
subgroup of the others, is pruned: no leaf below it is minimal, and its
children are never built.  In the other mode every leaf below a prefix
that generates qualifies without a test.

The walk starts at the first k-set, (0, ..., k-1).  Each node of the
tree holds its group as a stabilizer chain along the generating tuple
``base``: at most r <= log2|G| levels, each an orbit of at most |G|
points with its Schreier vector.  ``groups.group_automorphisms`` returns
the root, Aut(G), which is kept on the group with the children built
under it.  A child is built by Schreier-Sims with its known order,
|H| / |orbit|, sifting each Schreier generator through the chain built
so far by its images of base, so a node stores O(r*|G|) points however
large its group (GL(5, 2) for (C2)^5, say).  MAX_SETS bounds the
C(order, k) sets that the walk may visit.

In undirected mode a label s and its inverse give the same edges, and
the same walk settles each class at its leaf.  An automorphism maps
inverses to inverses, so the sets that label inversion joins to a
leaf's orbit are the Aut(G)-orbits of the sets made by inverting one or
more of its labels (those whose inverse is neither the label itself nor
another element of the set).  A kept leaf takes the least image of each
of them, with the leaf as bound: if one is less, a lesser set leads the
joined class and the leaf is skipped; otherwise the distinct images give
the orbits and the size.  That join is sound but may not be complete: a
colour-permuting isomorphism of undirected Cayley graphs need not come
from an automorphism.  So each new class is still compared with
``undirected_iso`` against the earlier ones of equal order multiset.
"""
from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import Optional

from . import cayley, iso
from .groups import (
    FiniteGroup,
    GeneratingSequence,
    OrderMultiset,
    StabilizerNode,
    extend_subgroup,
    group_automorphisms,
    is_generating,
    is_minimal_generating,
    order_multiset,
)

MAX_LENGTH = 4
MAX_SETS = 1_000_000
DEFAULT_MAX_ORDER = 512


@dataclass(frozen=True)
class SequenceClass:
    representative: GeneratingSequence
    representative_names: tuple[str, ...]
    order_multiset: OrderMultiset
    size: int


@dataclass(frozen=True)
class ClassificationReport:
    group: str
    length: int
    mode: str
    minimal_only: bool
    classes: tuple[SequenceClass, ...]
    total: int
    wall_time_seconds: float

    def to_json_dict(self) -> dict:
        # wall time is excluded: reports must be byte-identical across runs
        return {
            "group": self.group,
            "length": self.length,
            "mode": self.mode,
            "minimal_only": self.minimal_only,
            "classes": [
                {
                    "representative": list(c.representative_names),
                    "order_multiset": c.order_multiset.to_json(),
                    "size": c.size,
                }
                for c in self.classes
            ],
            "total": self.total,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _check_guards(group: FiniteGroup, length: int, max_order: int) -> None:
    if not 1 <= length <= MAX_LENGTH:
        raise ValueError(f"sequence length must be in 1..{MAX_LENGTH}, got {length}")
    if group.order > max_order:
        raise ValueError(
            f"group order {group.order} exceeds the classification guard "
            f"({max_order}); raise max_order to override"
        )
    if math.comb(group.order, length) > MAX_SETS:
        raise ValueError(
            f"C({group.order}, {length}) element sets exceed the classification guard ({MAX_SETS})"
        )


def enumerate_generating_sequences(
    group: FiniteGroup,
    length: int,
    minimal_only: bool = False,
    max_order: int = DEFAULT_MAX_ORDER,
) -> list[GeneratingSequence]:
    """All ordered tuples of pairwise-distinct elements that generate the
    group, optionally restricted to minimal ones, in deterministic
    (lexicographic id) order.

    Tuples with repeated entries are excluded: they are never minimal
    and their labels would collapse in the Cayley graph.
    """
    _check_guards(group, length, max_order)
    group.ensure_table()
    qualifies = is_minimal_generating if minimal_only else is_generating
    tuples = sorted(
        tup
        for subset in itertools.combinations(group.elements(), length)
        if qualifies(group, subset)
        for tup in itertools.permutations(subset)
    )
    return [GeneratingSequence(tup, group.descriptor) for tup in tuples]


def classify(
    group: FiniteGroup,
    length: int,
    mode: str = "directed",
    minimal_only: bool = False,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
) -> ClassificationReport:
    """Partition generating sequences into equivalence classes.

    mode is "directed" (edge-labeled digraph isomorphism) or
    "undirected" (direction-forgetting view).  The classes are walked
    down ``group_automorphisms(group)``, Aut(G), which is built on the
    group's first classification and kept on the group, so later
    classifications of the same group object, and any caller that asks
    for Aut(G) after, share that one root.
    """
    if mode not in ("directed", "undirected"):
        raise ValueError(f"mode must be 'directed' or 'undirected', got {mode!r}")
    start = time.perf_counter()
    _check_guards(group, length, max_order)
    # Aut(G) materialises the table too
    root = group_automorphisms(group)
    # records: [representative, order multiset, size, Cayley graph]
    records: list[list] = []
    per_set = math.factorial(length)
    for subset in _qualifying_leaves(group, root, length, minimal_only):
        found = root.least_image(subset, bound=subset)
        if found is None:
            continue
        counts = [found[1]]
        graph = None
        if mode == "undirected":
            counts = _inverted_orbits(group, root, subset, found[1])
            if counts is None:
                continue
            graph = cayley.build(group, subset)
        # Aut(G) moves generating tuples freely: a class holds |Aut(G)|
        # sequences per Aut(G)-orbit among the k! orderings of each of
        # its sets, and `count` orderings share an orbit
        size = sum(root.order * per_set // count for count in counts)
        multiset = order_multiset(group, subset)
        if graph is not None:
            match = next(
                (r for r in records
                 if r[1] == multiset and iso.undirected_iso(graph, r[3]) is not None),
                None,
            )
            if match is not None:
                match[2] += size
                continue
        records.append([subset, multiset, size, graph])

    records.sort(key=lambda r: ([-v for v in r[1].values], r[0]))
    classes = tuple(
        SequenceClass(
            representative=GeneratingSequence(rep, group.descriptor),
            representative_names=tuple(group.names[g] for g in rep),
            order_multiset=multiset,
            size=size,
        )
        for rep, multiset, size, _ in records
    )
    return ClassificationReport(
        group=group.descriptor,
        length=length,
        mode=mode,
        minimal_only=minimal_only,
        classes=classes,
        total=sum(c.size for c in classes),
        wall_time_seconds=time.perf_counter() - start,
    )


def _qualifying_leaves(group: FiniteGroup, root: StabilizerNode, length: int,
                      minimal_only: bool):
    """The leaves of the given length below root that generate the group
    (minimally, with minimal_only), in lexicographic order.

    Each node on the path walked holds its spans (``_grow``), so a
    subgroup is built once for all the leaves below it, and a child that
    no leaf below qualifies is neither built nor walked.
    """
    order = group.order

    def walk(node, prefix, spans, first):
        least, last = node.least, len(prefix) + 1 == length
        for m in range(first, order - (length - len(prefix) - 1)):
            if least[m] == m:
                grown = _grow(group, prefix, spans, m, minimal_only, last)
                if grown is None:
                    continue
                if last:
                    yield prefix + (m,)
                else:
                    yield from walk(node.child(m), prefix + (m,), grown, m + 1)

    yield from walk(root, (), ({group.identity},), 0)
    # walk refers to itself through its closure, which holds the group:
    # drop that cycle, so the group is freed by reference counting
    del walk


def _grow(group: FiniteGroup, prefix: tuple[int, ...], spans: tuple, m: int,
          minimal_only: bool, last: bool) -> Optional[tuple]:
    """The spans held for prefix + (m,), built from those of prefix; None
    when no leaf at or below prefix + (m,) qualifies.

    ``spans[-1]`` is <prefix>, and in minimal mode ``spans[i]`` is
    <prefix without its i-th element>.  A set is minimal generating when
    it generates and none of its elements lies in the span of the
    others; every proper subset of such a set is then such a set, except
    that it does not generate.  So in minimal mode m must lie outside
    <prefix>, each element of prefix outside the span of the others and
    m, and <prefix, m> must be the group at a leaf and not above it.  In
    the other mode a leaf must generate, and below a prefix that
    generates every leaf does without building a subgroup.
    """
    if minimal_only and m in spans[-1]:
        return None
    grown = extend_subgroup(group, spans[-1], prefix, m)
    generates = len(grown) == group.order
    if generates != last and (last or minimal_only):
        return None
    if not minimal_only:
        return (grown,)
    others = []
    for i, p in enumerate(prefix):
        others.append(extend_subgroup(group, spans[i], prefix[:i] + prefix[i + 1:], m))
        if p in others[-1]:
            return None
    return (*others, spans[-1], grown)


def _inverted_orbits(group: FiniteGroup, root: StabilizerNode, subset: tuple[int, ...],
                     count: int):
    """The orderings counts of ``least_image``, one per Aut(G)-orbit
    that label inversion joins to the orbit of subset (whose own count
    is given), or None when one of those orbits has a lesser least set.

    A k-set has at most 2^k - 1 sets made by inverting labels whose
    inverse is neither the label itself nor another element of the set.
    """
    labels = [i for i, g in enumerate(subset) if group.inv(g) != g and group.inv(g) not in subset]
    images = {subset: count}
    for r in range(1, len(labels) + 1):
        for chosen in itertools.combinations(labels, r):
            flipped = tuple(group.inv(g) if i in chosen else g for i, g in enumerate(subset))
            found = root.least_image(flipped, bound=subset)
            if found is None:
                return None
            images[found[0]] = found[1]
    return list(images.values())


def classify_summary_equal(report: ClassificationReport, expected) -> bool:
    """Compare class count and the multiset-with-multiplicity profile.

    ``expected`` is another report or an iterable of order multisets
    (each an OrderMultiset or an iterable of ints).
    """
    if isinstance(expected, ClassificationReport):
        expected_values = [c.order_multiset.values for c in expected.classes]
    else:
        expected_values = [
            ms.values if isinstance(ms, OrderMultiset) else tuple(sorted(ms, reverse=True))
            for ms in expected
        ]
    observed = sorted(c.order_multiset.values for c in report.classes)
    return observed == sorted(expected_values)
