import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cayleyclass as cc
from cayleyclass import iso
from conftest import builtin_groups


def graph_of(group, text):
    return cc.build(group, cc.parse_sequence(group, text))


def ugraph_of(group, text):
    return cc.undirected_view(graph_of(group, text))


def compose(w1, w2):
    # apply w1 then w2
    return iso.IsoWitness(
        tuple(w2.vertex_map[v] for v in w1.vertex_map),
        tuple(w2.label_map[k] for k in w1.label_map),
    )


def invert(w):
    n, k = len(w.vertex_map), len(w.label_map)
    vm = [0] * n
    lm = [0] * k
    for i, v in enumerate(w.vertex_map):
        vm[v] = i
    for i, l in enumerate(w.label_map):
        lm[l] = i
    return iso.IsoWitness(tuple(vm), tuple(lm))


def test_directed_iso_parity_examples():
    G = cc.dicyclic(3)
    # differences 1 and 1 mod 2: equivalent
    assert iso.directed_iso(graph_of(G, "a^2*x,a*x"), graph_of(G, "a*x,x")) is not None
    # differences 1 vs 2 mod 2: not equivalent
    assert iso.directed_iso(graph_of(G, "a*x,x"), graph_of(G, "a^2*x,x")) is None


def test_identity_witness():
    g = graph_of(cc.dicyclic(3), "a,x")
    w = iso.directed_iso(g, g)
    assert w.vertex_map == tuple(range(12))
    assert w.label_map == (0, 1)


def test_witness_is_deterministic():
    G = cc.dicyclic(5)
    g1, g2 = graph_of(G, "a^2*x,a*x"), graph_of(G, "a*x,x")
    assert iso.directed_iso(g1, g2) == iso.directed_iso(g1, g2)


def test_witness_preserves_label_orders():
    G = cc.dicyclic(3)
    pairs = [("a,x", "a^5,a^2*x"), ("a^2,x", "a^4,a*x"), ("a*x,x", "x,a^5*x")]
    for t1, t2 in pairs:
        g1, g2 = graph_of(G, t1), graph_of(G, t2)
        w = iso.directed_iso(g1, g2)
        assert w is not None
        for k in range(len(g1.labels)):
            assert g1.label_orders[k] == g2.label_orders[w.label_map[k]]


def test_equivalence_relation_properties():
    G = cc.dicyclic(3)
    g1 = graph_of(G, "a*x,x")
    g2 = graph_of(G, "x,a^5*x")
    g3 = graph_of(G, "a^2*x,a*x")
    w12 = iso.directed_iso(g1, g2)
    w23 = iso.directed_iso(g2, g3)
    assert w12 is not None and w23 is not None
    assert iso.validate_witness(g2, g1, invert(w12))
    assert iso.validate_witness(g1, g3, compose(w12, w23))


def test_directed_witness_implies_undirected():
    G = cc.dicyclic(3)
    for t1, t2 in [("a,x", "a^5,a^2*x"), ("a*x,x", "x,a^5*x")]:
        g1, g2 = graph_of(G, t1), graph_of(G, t2)
        w = iso.directed_iso(g1, g2)
        assert w is not None
        u1, u2 = cc.undirected_view(g1), cc.undirected_view(g2)
        assert iso._validate_undirected(u1, u2, w)


def test_undirected_merges_parity_classes():
    G = cc.dicyclic(3)
    assert iso.undirected_iso(ugraph_of(G, "a*x,x"), ugraph_of(G, "a^2*x,x")) is not None
    # distinct multisets still distinguish
    assert iso.undirected_iso(ugraph_of(G, "a,x"), ugraph_of(G, "a^2,x")) is None


def test_a4_directed_vs_undirected():
    A4 = cc.from_permutations(4, ["(1,2,3)", "(2,4,3)"])
    g1 = graph_of(A4, "(1,2,3),(2,4,3)")
    g2 = graph_of(A4, "(1,2,3),(2,3,4)")
    assert iso.directed_iso(g1, g2) is None
    w = iso.undirected_iso(cc.undirected_view(g1), cc.undirected_view(g2))
    assert w is not None


def test_undirected_identity_witness():
    u = ugraph_of(cc.dicyclic(3), "a,x")
    w = iso.undirected_iso(u, u)
    assert w is not None and iso._validate_undirected(u, u, w)


def test_undirected_with_order2_labels():
    D = cc.dihedral(5)
    u1 = ugraph_of(D, "x,a*x")
    u2 = ugraph_of(D, "x,a^2*x")
    assert iso.undirected_iso(u1, u2) is not None


def test_count_mismatches_give_none():
    g6 = graph_of(cc.cyclic(6), "g")
    g8 = graph_of(cc.cyclic(8), "g")
    assert iso.directed_iso(g6, g8) is None
    assert iso.brute_force_iso(g6, g8) is None
    g1 = graph_of(cc.dicyclic(3), "a,x")
    g2 = graph_of(cc.dicyclic(3), "a")  # one label vs two, disconnected anyway
    assert iso.directed_iso(g1, graph_of(cc.dicyclic(3), "a,x,a*x")) is None


def test_disconnected_inputs_rejected():
    G = cc.dicyclic(3)
    disconnected = cc.build(G, (cc.parse_element(G, "x"),))
    connected = graph_of(G, "a,x")
    with pytest.raises(ValueError):
        iso.directed_iso(disconnected, disconnected)
    with pytest.raises(ValueError):
        iso.undirected_iso(cc.undirected_view(disconnected), cc.undirected_view(connected))
    with pytest.raises(ValueError):
        iso.automorphisms(disconnected)


def test_brute_force_guard():
    C = cc.cyclic(17)
    g = graph_of(C, "g")
    with pytest.raises(ValueError):
        iso.brute_force_iso(g, g)


def test_automorphism_counts():
    for group, text in [(cc.dicyclic(3), "a,x"), (cc.cyclic(5), "g"),
                        (cc.dicyclic(2), "a*x,x")]:
        graph = graph_of(group, text)
        auts = iso.automorphisms(graph)
        assert len(auts) == group.order
        for w in auts:
            assert iso.validate_witness(graph, graph, w)


def test_brute_force_agrees_on_small_groups():
    for group in (cc.dicyclic(2), cc.dihedral(3), cc.cyclic(8)):
        seqs = cc.enumerate_generating_sequences(group, 2)
        graphs = [cc.build(group, s) for s in seqs]
        for i in range(len(graphs)):
            for j in range(i, len(graphs)):
                fast = iso.directed_iso(graphs[i], graphs[j])
                slow = iso.brute_force_iso(graphs[i], graphs[j])
                assert (fast is None) == (slow is None)
                if slow is not None:
                    assert iso.validate_witness(graphs[i], graphs[j], slow)


def test_brute_force_agrees_on_random_pairs_up_to_order_24():
    import random

    rng = random.Random(20240809)
    pool = []
    for group in builtin_groups(24, min_order=17):
        seqs = cc.enumerate_generating_sequences(group, 2)
        graphs = [cc.build(group, s) for s in seqs]
        pool.append(graphs)
    checked = 0
    while checked < 500:
        graphs = rng.choice(pool)
        g1, g2 = rng.choice(graphs), rng.choice(graphs)
        fast = iso.directed_iso(g1, g2)
        slow = iso.brute_force_iso(g1, g2, limit=24)
        assert (fast is None) == (slow is None)
        checked += 1


def test_witness_json():
    G = cc.dicyclic(3)
    g1, g2 = graph_of(G, "a,x"), graph_of(G, "a^5,a^2*x")
    w = iso.directed_iso(g1, g2)
    data = w.to_json(g1, g2)
    assert sorted(data) == ["label_map", "vertex_map"]
    assert data["label_map"] == [["a", "a^5"], ["x", "a^2*x"]]
    assert sorted(data["vertex_map"]) == list(range(12))


def test_witness_check_survives_python_O():
    # the witness check is an explicit raise, not an assert that -O strips
    code = textwrap.dedent("""
        import sys
        import cayleyclass as cc
        from cayleyclass import iso

        iso.validate_witness = lambda *args: False
        G = cc.dicyclic(3)
        graph = cc.build(G, cc.parse_sequence(G, "a,x"))
        try:
            iso.directed_iso(graph, graph)
        except AssertionError as exc:
            print(f"optimize={sys.flags.optimize} raised: {exc}")
    """)
    src = str(Path(cc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "optimize=1 raised: directed_iso produced an invalid witness"
