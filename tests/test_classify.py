import itertools
import json

import pytest

import cayleyclass as cc
from cayleyclass.classify import classify, classify_summary_equal, enumerate_generating_sequences
from cayleyclass.groups import OrderMultiset
from conftest import all_automorphisms, builtin_groups
from pairwise_oracle import pairwise_classify


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
    assert classify(G, 2, "directed", minimal_only=True, jobs=3).to_json() == base.to_json()
    assert base.to_json() == pairwise_classify(G, 2, "directed", minimal_only=True).to_json()
    undirected = classify(G, 2, "undirected", minimal_only=True)
    assert undirected.to_json() == pairwise_classify(G, 2, "undirected", minimal_only=True).to_json()


@pytest.mark.parametrize("group", builtin_groups(24), ids=lambda g: g.descriptor)
def test_classify_matches_pairwise_oracle(group):
    lengths = (1, 2, 3) if group.order <= 16 else (1, 2)
    for length in lengths:
        for mode in ("directed", "undirected"):
            for minimal_only in (False, True):
                got = classify(group, length, mode, minimal_only).to_json()
                assert got == pairwise_classify(group, length, mode, minimal_only).to_json(), (
                    length, mode, minimal_only)


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


def test_classify_rejects_bad_mode_and_jobs():
    with pytest.raises(ValueError):
        classify(cc.cyclic(6), 2, "sideways")
    with pytest.raises(ValueError):
        classify(cc.cyclic(6), 2, jobs=0)


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
