import functools
import gc
import importlib
import itertools
import json
import math
import sys
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import cayleyclass as cc
from cayleyclass.classify import (
    MAX_SETS,
    classify,
    classify_summary_equal,
    enumerate_generating_sequences,
)
from cayleyclass import cayley, groups
from cayleyclass.groups import OrderMultiset
from conftest import all_automorphisms, builtin_groups
from pairwise_oracle import pairwise_classify

# the package re-exports the function classify under the module's name
classify_module = importlib.import_module("cayleyclass.classify")


def ms(*values):
    return OrderMultiset.of(values)


def test_enumeration_count_against_closure_oracle():
    G = cc.dicyclic(3)
    # independent oracle: count ordered distinct pairs whose closure is everything
    expected = sum(
        1
        for g, h in itertools.permutations(range(G.order), 2)
        if len(cc.closure(G, (g, h))) == G.order
    )
    seqs = enumerate_generating_sequences(G, 2)
    assert len(seqs) == expected
    assert len(seqs) == 72  # frozen regression value from the oracle


def test_enumeration_is_deterministic_and_sorted():
    G = cc.dicyclic(3)
    seqs = enumerate_generating_sequences(G, 2)
    assert seqs == enumerate_generating_sequences(G, 2)
    assert [s.elements for s in seqs] == sorted(s.elements for s in seqs)
    assert all(len(set(s.elements)) == 2 for s in seqs)


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_generating_sequences(cc.cyclic(6), 5)
    with pytest.raises(ValueError):
        enumerate_generating_sequences(cc.cyclic(6), 0)
    with pytest.raises(ValueError):
        enumerate_generating_sequences(cc.dicyclic(3), 2, max_order=8)


def test_length_one_minimal_iff_cyclic():
    for group, expect in [(cc.cyclic(6), True), (cc.dicyclic(3), False),
                          (cc.cyclic(2), True), (cc.dihedral(4), False)]:
        seqs = enumerate_generating_sequences(group, 1, minimal_only=True)
        assert bool(seqs) == expect


def test_classify_dc12_directed():
    report = classify(cc.dicyclic(3), 2, "directed", minimal_only=True)
    profile = [(c.order_multiset, c.size) for c in report.classes]
    assert profile == [(ms(6, 4), 24), (ms(4, 4), 12), (ms(4, 4), 12), (ms(3, 4), 24)]
    assert report.total == 72
    assert report.classes[0].representative_names == ("a", "x")


def test_classify_dc16_directed():
    report = classify(cc.dicyclic(4), 2, "directed", minimal_only=True)
    assert [(c.order_multiset, c.size) for c in report.classes] == [
        (ms(8, 4), 64),
        (ms(4, 4), 32),
    ]


def test_classify_dc12_undirected():
    report = classify(cc.dicyclic(3), 2, "undirected", minimal_only=True)
    assert [(c.order_multiset, c.size) for c in report.classes] == [
        (ms(6, 4), 24),
        (ms(4, 4), 24),
        (ms(3, 4), 24),
    ]


def test_classify_odd_n_undirected_merges_to_three():
    for n in (3, 5):
        report = classify(cc.dicyclic(n), 2, "undirected", minimal_only=True)
        assert len(report.classes) == 3
        four_four = [c for c in report.classes if c.order_multiset == ms(4, 4)]
        assert len(four_four) == 1


def test_classify_sigma3():
    S3 = cc.from_permutations(3, ["(1,2,3)", "(1,2)"])
    report = classify(S3, 2, "directed", minimal_only=True)
    assert sorted(c.order_multiset.values for c in report.classes) == [(2, 2), (3, 2)]


def test_classify_reports_pair_reversal_in_same_class():
    G = cc.dicyclic(3)
    report = classify(G, 2, "directed", minimal_only=True)
    graphs = [cc.build(G, c.representative.elements) for c in report.classes]
    for seq in enumerate_generating_sequences(G, 2, minimal_only=True)[:12]:
        fwd = cc.build(G, seq.elements)
        rev = cc.build(G, seq.elements[::-1])
        hits_fwd = [i for i, g in enumerate(graphs) if cc.directed_iso(fwd, g)]
        hits_rev = [i for i, g in enumerate(graphs) if cc.directed_iso(rev, g)]
        assert hits_fwd == hits_rev and len(hits_fwd) == 1


def test_jobs_and_orbit_collapse_do_not_change_reports():
    G = cc.dicyclic(3)
    base = classify(G, 2, "directed", minimal_only=True)
    assert base.to_json() == pairwise_classify(G, 2, "directed", minimal_only=True).to_json()
    undirected = classify(G, 2, "undirected", minimal_only=True)
    assert undirected.to_json() == pairwise_classify(G, 2, "undirected", minimal_only=True).to_json()


@pytest.mark.parametrize("group", builtin_groups(24), ids=lambda g: g.descriptor)
def test_classify_matches_pairwise_oracle(group):
    lengths = (1, 2, 3) if group.order <= 16 else (1, 2)
    if group.order <= 8:
        lengths += (classify_module.MAX_LENGTH,)
    for length in lengths:
        for mode in ("directed", "undirected"):
            for minimal_only in (False, True):
                got = classify(group, length, mode, minimal_only).to_json()
                assert got == pairwise_classify(group, length, mode, minimal_only).to_json(), (
                    length, mode, minimal_only)


# Length 4 is where a k-set has up to 15 sets made by inverting labels,
# so undirected classes join more than two directed ones.
@pytest.mark.parametrize("descriptor", ["perm:4:(1,2,3);(2,4,3)", "cyclic:8"])
@pytest.mark.parametrize("minimal_only", [False, True])
def test_length_four_undirected_classes_match_pairwise_oracle(descriptor, minimal_only):
    group = cc.from_descriptor(descriptor)
    got = classify(group, 4, "undirected", minimal_only).to_json()
    assert got == pairwise_classify(group, 4, "undirected", minimal_only).to_json()


@st.composite
def permutation_groups(draw):
    """A group on at most 5 points from 1-3 random permutations.  The
    generator order numbers the elements, so it moves the orbit minima
    that the walk's leads are checked against."""
    degree = draw(st.integers(1, 5))
    gens = draw(st.lists(st.permutations(range(1, degree + 1)), min_size=1, max_size=3))
    return cc.from_permutations(degree, gens)


# The oracle compares every ordered sequence: on S5 at length 2 it takes
# 5 s directed and over a minute undirected, so S5 stops at length 1.
@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_classify_matches_pairwise_oracle_on_random_permutation_groups(data):
    group = data.draw(permutation_groups(), label="group")
    lengths = (1, 2, 3) if group.order <= 24 else (1, 2) if group.order <= 60 else (1,)
    length = data.draw(st.sampled_from(lengths), label="length")
    mode = data.draw(st.sampled_from(("directed", "undirected")), label="mode")
    minimal_only = data.draw(st.booleans(), label="minimal_only")
    got = classify(group, length, mode, minimal_only).to_json()
    assert got == pairwise_classify(group, length, mode, minimal_only).to_json()


@pytest.mark.parametrize("group", builtin_groups(24), ids=lambda g: g.descriptor)
def test_directed_class_count_is_burnside_count(group):
    # Cauchy-Frobenius: orbits of Aut(G) on the generating k-sets number
    # (1/|Aut|) * sum over automorphisms of the sets each one fixes
    auts = all_automorphisms(group)
    lengths = (1, 2, 3) if group.order <= 16 else (1, 2)
    for length in lengths:
        for minimal_only in (False, True):
            qualifies = cc.is_minimal_generating if minimal_only else cc.is_generating
            sets = [frozenset(c) for c in itertools.combinations(group.elements(), length)
                    if qualifies(group, c)]
            fixed = sum(1 for m in auts for s in sets if frozenset(m[g] for g in s) == s)
            assert fixed % len(auts) == 0
            report = classify(group, length, "directed", minimal_only)
            assert len(report.classes) == fixed // len(auts), (length, minimal_only)


def test_tree_nodes_stay_small_where_no_set_qualifies(monkeypatch):
    # Aut((C2)^5) = GL(5, 2) has 9,999,360 elements and no 4-set
    # generates; the stabilizer of one nonzero vector has 322,560, and a
    # node holds only its chain: r levels of at most |G| points
    nodes = []
    init = groups.StabilizerNode.__init__

    def recorded(self, base):
        init(self, base)
        nodes.append(self)

    monkeypatch.setattr(groups.StabilizerNode, "__init__", recorded)
    for mode in ("directed", "undirected"):
        # a group keeps its Aut(G) tree: a new group builds the tree again
        G = cc.from_descriptor("product:cyclic:2," * 4 + "cyclic:2")
        assert G.order == 32
        nodes.clear()
        report = classify(G, 4, mode)
        assert report.classes == () and report.total == 0
        assert nodes[0].order == 9_999_360 and 322_560 in {node.order for node in nodes}
        for node in nodes:
            assert sum(map(len, node.levels)) <= len(node.base) * G.order


def walked_sets(group, length):
    """The sets that classify visits, by brute force over every
    automorphism: the leaves of the stabilizer tree from (0, ..., k-1),
    sets whose every element is the least of its orbit under the
    automorphisms fixing the elements before it."""
    auts = all_automorphisms(group)

    def is_leaf(subset):
        return all(
            min(m[subset[j]] for m in auts if all(m[p] == p for p in subset[:j])) == subset[j]
            for j in range(length)
        )

    return sum(1 for s in itertools.combinations(group.elements(), length) if is_leaf(s))


def test_generation_tests_stay_within_the_tree_leaves(monkeypatch):
    # the per-leaf test is _grow at the last element of a set; the nodes
    # above hold the spans that it extends
    calls = []
    grow = classify_module._grow

    def counted(group, prefix, spans, m, minimal_only, last):
        if last:
            calls.append(prefix + (m,))
        return grow(group, prefix, spans, m, minimal_only, last)

    monkeypatch.setattr(classify_module, "_grow", counted)
    S4 = cc.from_descriptor("perm:4:(1,2);(1,2,3,4)")
    for group, length in [(cc.dicyclic(8), 2), (S4, 3)]:
        leaves = walked_sets(group, length)
        for minimal_only in (False, True):
            calls.clear()
            report = classify(group, length, "directed", minimal_only)
            assert report.classes
            # a leaf costs at most one test, and 1 + k for minimality
            bound = (1 + length) * leaves if minimal_only else leaves
            assert 0 < len(calls) <= bound, (group.descriptor, minimal_only, len(calls), leaves)


def test_each_graph_is_walked_for_connectivity_at_most_once(monkeypatch):
    # classify builds a graph per kept undirected leaf and compares it
    # with earlier ones; the graph keeps its connectivity once walked
    walks, builds = [], []
    walk, build = cayley.is_connected, cayley.build

    def counted_walk(graph):
        walks.append(graph)
        return walk(graph)

    def counted_build(group, sequence):
        builds.append(sequence)
        return build(group, sequence)

    # every binding of the walk inside the package counts
    for name, module in list(sys.modules.items()):
        if name.startswith("cayleyclass.") and vars(module).get("is_connected") is walk:
            monkeypatch.setattr(module, "is_connected", counted_walk)
    monkeypatch.setattr(cayley, "build", counted_build)
    classify(cc.dihedral(10), 3, "undirected", minimal_only=False)
    assert len(builds) == 21
    assert 0 < len(walks) <= len(builds)
    assert len({id(graph) for graph in walks}) == len(walks)


def tree_leaves(root, degree, length):
    """The leaves of the given length below root, by their definition:
    sets whose every element is the least of its orbit under the node of
    the elements before it."""
    def node_at(prefix):
        return functools.reduce(lambda node, r: node.child(r), prefix, root)

    return [s for s in itertools.combinations(range(degree), length)
            if all(node_at(s[:j]).least[s[j]] == s[j] for j in range(length))]


@pytest.mark.parametrize("group", builtin_groups(24), ids=lambda g: g.descriptor)
def test_held_spans_agree_with_the_closure_tests_on_every_leaf(group):
    # the walk tests a leaf against the subgroups held down its path and
    # skips the subtrees it prunes; is_generating and is_minimal_generating
    # close every set from scratch
    root = cc.group_automorphisms(group)
    for length in (1, 2, 3):
        leaves = tree_leaves(root, group.order, length)
        for minimal_only in (False, True):
            qualifies = cc.is_minimal_generating if minimal_only else cc.is_generating
            walked = list(classify_module._qualifying_leaves(group, root, length, minimal_only))
            assert walked == [s for s in leaves if qualifies(group, s)], (length, minimal_only)


# Directed, minimal, length 3, n <= 30: past two generators the class
# count is not bounded in n (0 for prime powers, 6 for n = 2p, ...)
@pytest.mark.parametrize("n, count", [
    (6, 6), (10, 6), (12, 10), (20, 10), (15, 12), (18, 14), (30, 48),
    (8, 0), (9, 0), (16, 0), (25, 0), (27, 0),
])
def test_dicyclic_length_three_minimal_class_counts(n, count):
    report = classify(cc.dicyclic(n), 3, "directed", minimal_only=True)
    assert len(report.classes) == count


# Undirected, minimal, length 3: inverting labels and colour-permuting
# isomorphisms that no automorphism gives join directed classes
@pytest.mark.parametrize("n, count", [
    (6, 3), (10, 3), (12, 8), (15, 8), (18, 8), (20, 8), (21, 8), (24, 12),
])
def test_dicyclic_length_three_minimal_undirected_class_counts(n, count):
    report = classify(cc.dicyclic(n), 3, "undirected", minimal_only=True)
    assert len(report.classes) == count


# S5 is Aut(A5): both groups have 120 automorphisms
@pytest.mark.parametrize("descriptor", ["perm:5:(1,2);(1,2,3,4,5)", "perm:5:(1,2,3);(1,2,3,4,5)"])
def test_order_120_directed_classes_against_burnside_and_enumeration(descriptor):
    group = cc.from_descriptor(descriptor)
    auts = all_automorphisms(group)
    assert len(auts) == 120
    for minimal_only in (False, True):
        qualifies = cc.is_minimal_generating if minimal_only else cc.is_generating
        sets = [s for s in itertools.combinations(group.elements(), 2) if qualifies(group, s)]
        # a fixed set {g, h} is fixed pointwise or swapped by the map
        fixed = sum(
            1 for m in auts for g, h in sets
            if (m[g] == g and m[h] == h) or (m[g] == h and m[h] == g)
        )
        report = classify(group, 2, "directed", minimal_only)
        assert len(report.classes) * len(auts) == fixed, minimal_only
        sequences = enumerate_generating_sequences(group, 2, minimal_only)
        assert sum(c.size for c in report.classes) == len(sequences) == report.total


def test_classify_rejects_bad_mode_and_jobs():
    with pytest.raises(ValueError):
        classify(cc.cyclic(6), 2, "sideways")


def test_set_budget_guard_refuses_before_any_work():
    # C(512, 3) = 22,238,720 and C(512, 4) sets exceed MAX_SETS; C(512, 2) does not
    G = cc.dicyclic(128)
    assert math.comb(G.order, 2) <= MAX_SETS < math.comb(G.order, 3)
    for length in (3, 4):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="guard"):
            classify(G, length)
        with pytest.raises(ValueError, match="guard"):
            enumerate_generating_sequences(G, length)
        assert time.perf_counter() - start < 1.0


def test_burnside_length_three():
    assert enumerate_generating_sequences(cc.dicyclic(4), 3, minimal_only=True) == []
    assert enumerate_generating_sequences(cc.dicyclic(8), 3, minimal_only=True) == []
    report = classify(cc.dicyclic(6), 3, "directed", minimal_only=True)
    assert len(report.classes) >= 6


def test_member_counts_partition_the_sequences():
    for group, length in [(cc.dicyclic(3), 2), (cc.dihedral(4), 2)]:
        report = classify(group, length, "directed", minimal_only=True)
        total = len(enumerate_generating_sequences(group, length, minimal_only=True))
        assert sum(c.size for c in report.classes) == total == report.total


def test_json_schema_and_key_order():
    report = classify(cc.dicyclic(3), 2, "directed", minimal_only=True)
    data = json.loads(report.to_json())
    assert list(data) == ["group", "length", "mode", "minimal_only", "classes", "total"]
    assert list(data["classes"][0]) == ["representative", "order_multiset", "size"]
    assert data["group"] == "dicyclic:3"
    assert data["classes"][0]["representative"] == ["a", "x"]
    assert data["classes"][0]["order_multiset"] == [6, 4]
    # wall time is measured but never serialized
    assert report.wall_time_seconds >= 0
    assert "wall" not in report.to_json()


def test_classify_summary_equal():
    report = classify(cc.dicyclic(3), 2, "directed", minimal_only=True)
    assert classify_summary_equal(report, [(6, 4), (4, 4), (4, 4), (3, 4)])
    assert classify_summary_equal(report, [ms(4, 4), ms(4, 4), ms(6, 4), ms(3, 4)])
    assert not classify_summary_equal(report, [(8, 4), (4, 4)])
    assert classify_summary_equal(report, report)
    empty1 = classify(cc.dicyclic(4), 3, "directed", minimal_only=True)
    assert classify_summary_equal(empty1, [])


def test_dicyclic_128_at_the_order_guard():
    # order 512 is the default guard; the pairwise path took minutes here
    report = classify(cc.dicyclic(128), 2, "directed", minimal_only=True)
    assert [(c.order_multiset, c.size) for c in report.classes] == [
        (ms(256, 4), 65536),
        (ms(4, 4), 32768),
    ]
    assert report.total == 6 * 128 * 128


def test_a_group_keeps_one_automorphism_root():
    group = cc.dicyclic(3)
    root = cc.group_automorphisms(group)
    assert cc.group_automorphisms(group) is root
    classify(group, 2, "directed", minimal_only=True)
    assert cc.group_automorphisms(group) is root
    # another object of the same group has its own root
    assert cc.group_automorphisms(cc.dicyclic(3)) is not root


SHARED_ROOT_DESCRIPTORS = (
    "dicyclic:12",
    "perm:4:(1,2);(1,2,3,4)",
    "perm:5:(1,2,3);(1,2,3,4,5)",
    "product:product:cyclic:2,cyclic:2,cyclic:4",
    "dihedral:10",
)


@pytest.mark.parametrize("descriptor", SHARED_ROOT_DESCRIPTORS)
def test_classifying_one_group_again_matches_a_fresh_group(descriptor):
    # every call after the first walks the tree its predecessors grew on
    # the shared root; each report must be that of a fresh group
    group = cc.from_descriptor(descriptor)
    for length in (2, 3):
        for mode in ("directed", "undirected"):
            for minimal_only in (False, True):
                fresh = classify(cc.from_descriptor(descriptor), length, mode, minimal_only)
                again = classify(group, length, mode, minimal_only)
                assert again.to_json() == fresh.to_json(), (length, mode, minimal_only)


def test_a_classified_group_is_freed_without_the_cycle_collector():
    # the table, rows and tree of a group go when its last reference does,
    # not at the next full collection: no reference cycle holds the group
    gc.disable()
    try:
        for mode in ("directed", "undirected"):
            group = cc.dicyclic(6)
            freed = weakref.ref(group)
            classify(group, 2, mode, minimal_only=True)
            del group
            assert freed() is None, mode
    finally:
        gc.enable()
