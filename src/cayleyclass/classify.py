"""Enumerate generating sequences and partition them into equivalence
classes under directed or undirected Cayley-graph isomorphism.

The classes rest on one fact: a basepoint-fixing, label-permuting
isomorphism of connected Cayley graphs is a group automorphism.  So two
sequences are directed-equivalent exactly when an automorphism maps the
set of one onto the set of the other, and the directed classes are the
Aut(G)-orbits of the generating k-sets; each holds k! * |orbit|
sequences.  The k-sets are walked in lexicographic order.  A set not
yet seen is tested for generation (and minimality), which automorphisms
preserve, and its orbit (``groups.set_orbit``) is taken under
generators of Aut(G) and marked seen; so each orbit is tested once and
its first set is the lexicographically least sequence of its class.
Seen sets are kept, so the C(order, k) walked are bounded by MAX_SETS.

In undirected mode a label s and its inverse give the same edges, so
the orbits are taken under automorphisms and single-label inversion
together.  That pre-collapse is sound but may not be complete: a
colour-permuting isomorphism of undirected Cayley graphs need not come
from an automorphism.  Orbit representatives with equal order
multisets are therefore still compared pairwise with ``undirected_iso``.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass

from . import cayley, iso
from .groups import (
    FiniteGroup,
    GeneratingSequence,
    OrderMultiset,
    group_automorphisms,
    is_generating,
    is_minimal_generating,
    order_multiset,
    set_orbit,
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
    "undirected" (direction-forgetting view).
    """
    if mode not in ("directed", "undirected"):
        raise ValueError(f"mode must be 'directed' or 'undirected', got {mode!r}")
    start = time.perf_counter()
    _check_guards(group, length, max_order)
    group.ensure_table()
    qualifies = is_minimal_generating if minimal_only else is_generating
    inverse = [group.inv(g) for g in group.elements()] if mode == "undirected" else None
    maps = None
    seen: set[tuple[int, ...]] = set()
    orbits: list[tuple[tuple[int, ...], int]] = []
    for subset in itertools.combinations(group.elements(), length):
        if subset in seen:
            continue
        qualified = qualifies(group, subset)
        if maps is None:
            if not qualified:
                continue
            # only once some set qualifies: Aut(G) can be large where none does
            maps = group_automorphisms(group).generators
        # generation and minimality are Aut(G)-invariant: one test per orbit
        orbit = set_orbit(subset, maps, inverse)
        seen.update(orbit)
        if qualified:
            orbits.append((subset, len(orbit)))

    per_set = math.factorial(length)
    # records: [representative, order multiset, size, undirected view]
    records: list[list] = []
    for subset, count in orbits:
        multiset = order_multiset(group, subset)
        graph = None
        if mode == "undirected":
            graph = cayley.undirected_view(cayley.build(group, subset))
            match = next(
                (r for r in records
                 if r[1] == multiset and iso.undirected_iso(graph, r[3]) is not None),
                None,
            )
            if match is not None:
                match[2] += per_set * count
                continue
        records.append([subset, multiset, per_set * count, graph])

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
