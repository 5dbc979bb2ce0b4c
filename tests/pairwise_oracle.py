"""Reference classifier for tests: the pairwise isomorphism loop.

Every ordered generating tuple is compared with ``directed_iso`` or
``undirected_iso`` against the class representatives of its order
multiset bucket; the first tuple of a class is its representative.  It
shares no code with the Aut(G)-orbit path of ``classify`` beyond the
report types, the generation tests and the graph and isomorphism
layers.
"""

import itertools

from cayleyclass import cayley, iso
from cayleyclass.classify import ClassificationReport, SequenceClass
from cayleyclass.groups import (
    GeneratingSequence,
    is_generating,
    is_minimal_generating,
    order_multiset,
    parse_sequence,
)


def pairwise_classify(group, length, mode="directed", minimal_only=False):
    qualifies = is_minimal_generating if minimal_only else is_generating
    sequences = [
        tup for tup in itertools.permutations(group.elements(), length) if qualifies(group, tup)
    ]
    compare = iso.directed_iso if mode == "directed" else iso.undirected_iso
    # buckets: order multiset -> list of [representative, graph, size, first index]
    buckets = {}
    for index, tup in enumerate(sequences):
        graph = cayley.build(group, tup)
        bucket = buckets.setdefault(order_multiset(group, tup), [])
        for record in bucket:
            if compare(graph, record[1]) is not None:
                record[2] += 1
                break
        else:
            bucket.append([tup, graph, 1, index])
    records = [record for bucket in buckets.values() for record in bucket]
    records.sort(key=lambda r: ([-v for v in order_multiset(group, r[0]).values], r[3]))
    classes = tuple(
        SequenceClass(
            representative=GeneratingSequence(rep, group.descriptor),
            representative_names=tuple(group.names[g] for g in rep),
            order_multiset=order_multiset(group, rep),
            size=size,
        )
        for rep, _, size, _ in records
    )
    return ClassificationReport(
        group=group.descriptor,
        length=length,
        mode=mode,
        minimal_only=minimal_only,
        classes=classes,
        total=len(sequences),
        wall_time_seconds=0.0,
    )


def pairwise_representative_classes(group, report, texts):
    """Index of the report class whose representative ``directed_iso``
    matches each sequence, or -1: the placement that the forced-map
    lookup of ``verify_theorem`` must reproduce."""
    class_graphs = [cayley.build(group, c.representative.elements) for c in report.classes]
    placed = []
    for text in texts:
        graph = cayley.build(group, parse_sequence(group, text))
        placed.append(next(
            (idx for idx, class_graph in enumerate(class_graphs)
             if iso.directed_iso(graph, class_graph) is not None),
            -1,
        ))
    return tuple(placed)
