import importlib

import pytest

import cayleyclass as cc
from cayleyclass import dicyclic_theory as theory, groups
from cayleyclass.groups import OrderMultiset
from pairwise_oracle import pairwise_representative_classes

# the package re-exports the function classify under the module's name
classify_module = importlib.import_module("cayleyclass.classify")


def ms(*values):
    return OrderMultiset.of(values)


def test_generates_pair_xx_examples():
    assert theory.generates_pair_xx(3, 1, 0)
    assert not theory.generates_pair_xx(3, 3, 0)
    for n in range(2, 8):
        assert not theory.generates_pair_xx(n, 5, 5)


def test_generates_pair_ax_examples():
    assert theory.generates_pair_ax(3, 2, 0)
    assert theory.generates_pair_ax(3, 2, 4)
    assert not theory.generates_pair_ax(4, 2, 1)
    assert not theory.generates_pair_ax(5, 0, 3)


def test_same_class_xx_examples():
    assert theory.same_class_xx(4, 1, 0, 3, 0)  # even n: single class
    assert theory.same_class_xx(3, 1, 0, 2, 1)
    assert not theory.same_class_xx(3, 1, 0, 2, 0)
    with pytest.raises(ValueError):
        theory.same_class_xx(3, 3, 0, 1, 0)  # non-generating input


def test_same_class_xx_against_directed_iso():
    for n in (3, 5):
        G = cc.dicyclic(n)
        two_n = 2 * n
        pairs = [
            (k, m)
            for k in range(two_n)
            for m in range(two_n)
            if theory.generates_pair_xx(n, k, m)
        ]
        graphs = {p: cc.build(G, (two_n + p[0], two_n + p[1])) for p in pairs}
        for i, p1 in enumerate(pairs):
            for p2 in pairs[i::3]:  # exhaustive cross-validation runs in acceptance
                predicted = theory.same_class_xx(n, *p1, *p2)
                observed = cc.directed_iso(graphs[p1], graphs[p2]) is not None
                assert predicted == observed


def test_order_constraint_ax():
    assert theory.order_constraint_ax(3, 2) == 3
    assert theory.order_constraint_ax(3, 1) == 6
    assert theory.order_constraint_ax(4, 2) is None
    for n in range(2, 9):
        G = cc.dicyclic(n)
        two_n = 2 * n
        for k in range(two_n):
            constraint = theory.order_constraint_ax(n, k)
            generating = any(
                cc.is_generating(G, (k, two_n + m)) for m in range(two_n)
            )
            if constraint is None:
                assert not generating
            else:
                assert generating and cc.element_order(G, k) == constraint


def test_predicted_classification():
    p4 = theory.predicted_classification(4)
    assert p4.class_count == 2
    assert p4.multisets == (ms(8, 4), ms(4, 4))
    p3 = theory.predicted_classification(3)
    assert p3.class_count == 4
    assert p3.multisets == (ms(6, 4), ms(4, 4), ms(4, 4), ms(3, 4))
    assert p3.representatives == ("a,x", "a*x,x", "a^2*x,x", "a^2,x")
    p2 = theory.predicted_classification(2)
    assert p2.class_count == 2
    assert p2.multisets == (ms(4, 4), ms(4, 4))
    p5 = theory.predicted_classification(5)
    assert p5.multisets == (ms(10, 4), ms(4, 4), ms(4, 4), ms(5, 4))


def test_morphism_pair_data():
    pair = theory.morphism_pair(3, 1)
    assert pair.phi == {"a": "u^3*v", "x": "v"}
    assert pair.psi == {"u": "a*x", "v": "x"}
    pair0 = theory.morphism_pair(3, 0)
    assert pair0.psi["u"] == "a^2*x"
    pair_n = theory.morphism_pair(3, 3)
    assert pair_n.phi == {"a": "b^2*y^2", "x": "y"}  # q = (3+1)/2 = 2
    assert pair_n.psi == {"b": "a^2", "y": "x"}
    with pytest.raises(ValueError):
        theory.morphism_pair(4, 0)
    with pytest.raises(ValueError):
        theory.morphism_pair(4, 4)
    with pytest.raises(ValueError):
        theory.morphism_pair(3, 5)


def test_check_morphism_variant():
    assert theory.check_morphism_variant(2, 1)
    assert theory.check_morphism_variant(3, 3)


def test_applicable_variants():
    assert theory.applicable_variants(4) == [1]
    assert theory.applicable_variants(5) == [0, 1, 5]


def test_verify_theorem_passes_for_3_to_8():
    for n in range(3, 9):
        result = theory.verify_theorem(n)
        assert result.passed, result.to_json_dict()
        expected = 2 if n % 2 == 0 else 4
        assert len(result.report.classes) == expected
        assert result.representatives_distinct
        assert all(result.morphisms_checked.values())


def test_verify_theorem_n2_reports_the_single_class():
    # At n=2 the predicted two classes coincide: a -> a*x, x -> x is an
    # automorphism of the quaternion group, so the pairs (a,x) and (a*x,x)
    # have isomorphic labeled Cayley graphs.  The verifier reports the
    # discrepancy rather than hiding it.
    result = theory.verify_theorem(2)
    assert not result.passed
    assert len(result.report.classes) == 1
    assert result.report.classes[0].size == 24
    assert result.predicted.class_count == 2
    assert result.representative_classes == (0, 0)
    assert all(result.morphisms_checked.values())  # morphisms are still valid
    data = result.to_json_dict()
    assert data["pass"] is False
    assert data["observed"]["class_count"] == 1


def test_representative_classes_match_pairwise_placement():
    for n in range(2, 9):
        result = theory.verify_theorem(n)
        expected = pairwise_representative_classes(
            cc.dicyclic(n), result.report, result.predicted.representatives)
        assert result.representative_classes == expected, n


def test_verify_theorem_builds_aut_once_per_n(monkeypatch):
    # classify and the placement of the predicted representatives share
    # one root; a second group_automorphisms would be counted here
    calls = []
    group_automorphisms = cc.group_automorphisms

    def counted(group):
        calls.append(group.descriptor)
        return group_automorphisms(group)

    for module in (groups, classify_module, theory):
        monkeypatch.setattr(module, "group_automorphisms", counted)
    for n in range(theory.MIN_N, theory.MAX_N + 1):
        calls.clear()
        theory.verify_theorem(n)
        assert calls == [f"dicyclic:{n}"], n


def test_verify_theorem_guards():
    with pytest.raises(ValueError):
        theory.verify_theorem(1)
    with pytest.raises(ValueError):
        theory.verify_theorem(13)  # MAX_N = 12, the range the CLI accepts
    assert theory.verify_theorem(9).passed


def test_verify_theorem_json_shape():
    data = theory.verify_theorem(3).to_json_dict()
    assert list(data) == ["n", "predicted", "observed", "morphisms_checked", "pass"]
    assert data["morphisms_checked"] == {"0": True, "1": True, "n": True}
    assert data["observed"]["order_multisets"] == [[6, 4], [4, 4], [4, 4], [4, 3]]


def test_classical_presentation_guard():
    with pytest.raises(ValueError):
        theory.classical_presentation(1)
    for fn in (theory.generates_pair_xx, theory.generates_pair_ax):
        with pytest.raises(ValueError):
            fn(1, 0, 0)
    with pytest.raises(ValueError):
        theory.order_constraint_ax(1, 1)
    with pytest.raises(ValueError):
        theory.predicted_classification(1)
