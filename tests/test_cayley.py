import itertools

import pytest

import cayleyclass as cc
from cayleyclass import cayley, iso
from conftest import all_automorphisms, builtin_groups


def elem(group, text):
    return cc.parse_element(group, text)


def graph_of(group, text):
    return cc.build(group, cc.parse_sequence(group, text))


def test_build_figure_graphs():
    G = cc.dicyclic(3)
    for text in ("a*x,x", "a^2,x"):
        graph = graph_of(G, text)
        assert graph.vertex_count == 12
        assert len(graph.labels) == 2
        assert sum(map(len, graph.succ)) == 24


def test_duplicate_labels_collapse():
    G = cc.dicyclic(3)
    graph = cc.build(G, (elem(G, "x"), elem(G, "x")))
    assert len(graph.labels) == 1


def test_identity_label_gives_loops():
    G = cc.cyclic(4)
    graph = cc.build(G, (G.identity,))
    assert all(graph.succ[0][v] == v for v in range(4))


def test_label_subgraphs_are_uniform_cycles():
    cases = [
        (cc.dicyclic(3), "a*x,x"),
        (cc.dicyclic(3), "a^2,x"),
        (cc.from_permutations(4, ["(1,2)", "(1,2,3,4)"]), "(1,2),(1,2,3,4),(1,3)"),
    ]
    for group, text in cases:
        graph = graph_of(group, text)
        for k, label in enumerate(graph.labels):
            order = cc.element_order(group, label)
            cycles = cayley.label_cycles(graph, k)
            assert all(len(c) == order for c in cycles)
            assert len(cycles) == group.order // order
            assert graph.label_orders[k] == order


def test_connected_iff_generating_exhaustive():
    small = [cc.cyclic(8), cc.dihedral(5), cc.dicyclic(3),
             cc.from_descriptor("product:cyclic:3,product:cyclic:2,cyclic:2")]
    for group in small:
        for length in (1, 2, 3):
            for tup in itertools.permutations(range(group.order), length):
                graph = cc.build(group, tup)
                assert cayley.is_connected(graph) == cc.is_generating(group, tup)
    medium = cc.dicyclic(6)  # order 24, all triples
    for tup in itertools.permutations(range(medium.order), 3):
        assert cayley.is_connected(cc.build(medium, tup)) == cc.is_generating(medium, tup)
    big = cc.dicyclic(12)  # order 48, all pairs
    for tup in itertools.permutations(range(big.order), 2):
        assert cayley.is_connected(cc.build(big, tup)) == cc.is_generating(big, tup)


def test_vertex_transitive_regularity():
    for group, text in [(cc.dicyclic(3), "a,x"), (cc.cyclic(5), "g"),
                        (cc.dicyclic(6), "a^2,a^3,x")]:
        graph = graph_of(group, text)
        assert len(iso.automorphisms(graph)) == group.order


def test_group_automorphism_induces_cayley_isomorphism():
    for n in range(2, 7):
        group = cc.dicyclic(n)
        seq_texts = ["a,x", "a*x,x"]
        if n % 2 == 1:
            seq_texts += ["a^2*x,x", "a^2,x"]
        for m in all_automorphisms(group):
            for text in seq_texts:
                seq = cc.parse_sequence(group, text)
                mapped = tuple(m[g] for g in seq.elements)
                witness = iso.directed_iso(cc.build(group, seq), cc.build(group, mapped))
                assert witness is not None


def test_undirected_view_edge_counts():
    # order > 2 labels: one undirected edge per directed edge
    edges = cc.undirected_view(graph_of(cc.dicyclic(3), "a*x,x"))
    assert len(edges) == 24
    # order-2 labels: directed pairs collapse, |G|/2 edges per label
    D = cc.dihedral(3)
    edges = cc.undirected_view(cc.build(D, (elem(D, "x"), elem(D, "a*x"))))
    assert len(edges) == 6
    per_label = [sum(1 for e in edges if e[2] == k) for k in range(2)]
    assert per_label == [3, 3]
    # loops retained as loops
    C = cc.cyclic(3)
    edges = cc.undirected_view(cc.build(C, (C.identity,)))
    assert len(edges) == 3
    assert all(v == w for v, w, _ in edges)


def test_undirected_pred_inverts_succ():
    for group in builtin_groups(24):
        graph = cc.build(group, tuple(group.elements()))
        for k, s in enumerate(graph.labels):
            assert graph.pred[k] == tuple(group.mul(group.inv(s), v) for v in group.elements())


def test_build_rows_do_not_depend_on_the_table():
    for group in builtin_groups(24):
        before = cc.build(group, tuple(group.elements()))
        group.ensure_table()
        after = cc.build(group, tuple(group.elements()))
        assert (after.succ, after.pred) == (before.succ, before.pred)
        # with a table, graphs share its rows instead of copying them
        again = cc.build(group, tuple(group.elements()))
        assert all(row is other for row, other in zip(after.succ + after.pred,
                                                      again.succ + again.pred))


def test_single_vertex_graph():
    C1 = cc.cyclic(1)
    graph = cc.build(C1, ())
    assert graph.vertex_count == 1 and graph.labels == ()
    assert cayley.is_connected(graph)
    assert cc.undirected_view(graph) == ()
    dot = cayley.to_dot(graph)
    assert 'n0 [label="e"];' in dot


def test_dot_output_structure():
    G = cc.dicyclic(3)
    graph = graph_of(G, "a*x,x")
    dot = cayley.to_dot(graph)
    assert dot == cayley.to_dot(graph)  # deterministic
    lines = dot.splitlines()
    assert lines[0] == "digraph cayley {"
    assert lines[-1] == "}"
    assert sum(1 for l in lines if "[label=" in l) == 12
    assert sum(1 for l in lines if "->" in l and "style=solid" in l) == 12
    assert sum(1 for l in lines if "->" in l and "style=dashed" in l) == 12
    assert "// label a*x: solid" in dot
    assert "// label x: dashed" in dot


def test_dot_styles_cycle_beyond_two_labels():
    G = cc.dicyclic(6)
    dot = cayley.to_dot(graph_of(G, "a^2,a^3,x"))
    for style in ("solid", "dashed", "dotted"):
        assert f"style={style}" in dot


def test_dot_undirected():
    G = cc.dicyclic(3)
    dot = cayley.to_dot(graph_of(G, "a*x,x"), undirected=True)
    assert dot.startswith("graph cayley {")
    assert "--" in dot and "->" not in dot
    assert sum(1 for l in dot.splitlines() if "--" in l) == 24


def test_build_rejects_bad_elements():
    G = cc.cyclic(3)
    with pytest.raises(ValueError):
        cc.build(G, (7,))
