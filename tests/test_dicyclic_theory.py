import importlib
import itertools

import pytest

import cayleyclass as cc
from cayleyclass import cli, dicyclic_theory as theory, groups, presentations, words
from cayleyclass.groups import OrderMultiset
from conftest import classical_presentation
from morphism_oracle import oracle_mutual_inverse
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
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="requires n >= 2"):
            theory.applicable_variants(n)


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


def test_verify_theorem_builds_the_group_and_aut_once_per_n(monkeypatch):
    # classify and the placement of the predicted representatives share
    # the one root kept on the group, and every morphism variant is
    # checked against the group verify_theorem built; a second root or
    # dicyclic would be counted here
    calls, roots, built = [], [], []
    group_automorphisms, dicyclic = cc.group_automorphisms, theory.dicyclic

    def counted(group):
        calls.append(group.descriptor)
        roots.append(group_automorphisms(group))
        return roots[-1]

    def counted_build(n):
        built.append(n)
        return dicyclic(n)

    for module in (groups, classify_module, theory):
        monkeypatch.setattr(module, "group_automorphisms", counted)
    monkeypatch.setattr(theory, "dicyclic", counted_build)
    for n in range(theory.MIN_N, theory.MAX_N + 1):
        calls.clear()
        roots.clear()
        built.clear()
        theory.verify_theorem(n)
        assert set(calls) == {f"dicyclic:{n}"} and built == [n], n
        assert len({id(root) for root in roots}) == 1, n


def test_verify_theorem_parses_each_word_once(monkeypatch):
    # every parse lexes its text once, through words._lex (words.tokenize
    # too); the lexings of verify_theorem(n) are those of its parts, each
    # word of a morphism pair counted once
    lexed = []
    lex = words._lex

    def counting(text, offset):
        lexed.append(text)
        return lex(text, offset)

    monkeypatch.setattr(words, "_lex", counting)

    def lexings(run):
        lexed.clear()
        run()
        return len(lexed)

    n = 5
    group = cc.dicyclic(n)
    expected = lexings(lambda: [cc.parse_sequence(group, text)
                                for text in theory.predicted_classification(n).representatives])
    for variant in theory.applicable_variants(n):
        presentation = theory.pi_presentation(n, variant)
        pair = theory.morphism_pair(n, variant)
        assert lexings(lambda: cc.verify_mutual_inverse(
            group, presentation, pair.phi, pair.psi)) == len(pair.phi) + len(pair.psi)
        expected += lexings(lambda: theory.pi_presentation(n, variant))
        expected += len(pair.phi) + len(pair.psi)
    assert lexings(lambda: theory.verify_theorem(n)) == expected == 32


@pytest.mark.parametrize("n", [3, 4])
def test_morphism_checks_enumerate_one_table_per_variant_and_realize_none(monkeypatch, capsys, n):
    # verify_theorem and check-morphisms prove each pair in G from one
    # coset table of the variant's presentation, over <phi(a)>, which
    # has index 2; no group is built for it
    tables = []
    coset_table = presentations.coset_table

    def counting(presentation, *args, **kwargs):
        closed = coset_table(presentation, *args, **kwargs)
        names = presentation.generator_names
        subgroup = [word.text(names) for word in kwargs.get("subgroup", ())]
        tables.append((presentation.text(), subgroup, closed.order))
        return closed

    def refuse(*args, **kwargs):
        raise AssertionError("a group was realized from a presentation")

    monkeypatch.setattr(presentations, "coset_table", counting)
    monkeypatch.setattr(presentations, "todd_coxeter", refuse)
    monkeypatch.setattr(presentations, "FiniteGroup", refuse)
    variants = theory.applicable_variants(n)
    expected = []
    for variant in variants:
        presentation = theory.pi_presentation(n, variant)
        phi_a = presentations.Word(tuple(words.ast_to_letters(
            words.parse_word_ast(theory.morphism_pair(n, variant).phi["a"]),
            {name: i for i, name in enumerate(presentation.generator_names)})))
        expected.append((presentation.text(), [phi_a.text(presentation.generator_names)], 2))
    assert theory.verify_theorem(n).morphisms_checked == dict.fromkeys(variants, True)
    assert tables == expected
    for variant, table in zip(variants, expected):
        tables.clear()
        label = theory.variant_label(variant)
        assert cli.main(["check-morphisms", "--n", str(n), "--variant", label]) == 0
        assert capsys.readouterr().out == f"n={n} variant={label}: PASS\n"
        assert tables == [table]


@pytest.mark.parametrize("n", range(2, 65))
def test_order_over_phi_a_is_the_trivial_table_order(n):
    # [<P>:<phi(a)>] * |<phi(a)>^ab| against the order of the trivial
    # subgroup's table, for every variant
    for variant in theory.applicable_variants(n):
        presentation = theory.pi_presentation(n, variant)
        gen_index = {name: i for i, name in enumerate(presentation.generator_names)}
        phi_a = presentations.Word(tuple(words.ast_to_letters(
            words.parse_word_ast(theory.morphism_pair(n, variant).phi["a"]), gen_index)))
        closed = presentations.coset_table(presentation, 16 * 4 * n, subgroup=[phi_a])
        order = closed.order * presentations._abelianized_order(
            closed, presentation.relators, phi_a)
        assert closed.order == 2, (n, variant)
        assert order == presentations.coset_table(presentation).order == 4 * n, (n, variant)


@pytest.mark.parametrize("n,variant", [(n, v) for n in range(2, 7)
                                       for v in theory.applicable_variants(n)])
def test_verify_mutual_inverse_agrees_with_the_oracle(n, variant):
    # the variant's pair, its phi with every psi into G x G, and its psi
    # with every phi into pairs of the realized group's element names
    group, presentation = cc.dicyclic(n), theory.pi_presentation(n, variant)
    classical = classical_presentation(n)
    realized = cc.todd_coxeter(presentation, max_cosets=16 * 4 * n)
    pair = theory.morphism_pair(n, variant)
    p_names, g_names = presentation.generator_names, [name for name, _ in group.generators]
    cases = [(pair.phi, pair.psi)]
    cases += [(pair.phi, dict(zip(p_names, images)))
              for images in itertools.product(group.names, repeat=len(p_names))]
    cases += [(dict(zip(g_names, images)), pair.psi)
              for images in itertools.product(realized.names, repeat=len(g_names))]
    verdicts = set()
    for phi, psi in cases:
        verdict = cc.verify_mutual_inverse(group, presentation, phi, psi)
        assert verdict == oracle_mutual_inverse(group, presentation, phi, psi, classical,
                                                realized), (phi, psi)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_verify_theorem_guards():
    with pytest.raises(ValueError):
        theory.verify_theorem(1)
    with pytest.raises(ValueError):
        theory.verify_theorem(129)  # MAX_N = 128, the range the CLI accepts
    assert theory.verify_theorem(9).passed


@pytest.mark.parametrize("n", [13, 31, 64, 127, 128])
def test_verify_theorem_passes_up_to_max_n(n):
    result = theory.verify_theorem(n)
    assert result.passed, result.to_json_dict()
    assert len(result.report.classes) == (2 if n % 2 == 0 else 4)
    assert result.morphisms_checked == dict.fromkeys(theory.applicable_variants(n), True)


def test_verify_theorem_json_shape():
    data = theory.verify_theorem(3).to_json_dict()
    assert list(data) == ["n", "predicted", "observed", "morphisms_checked", "pass"]
    assert data["morphisms_checked"] == {"0": True, "1": True, "n": True}
    assert data["observed"]["order_multisets"] == [[6, 4], [4, 4], [4, 4], [4, 3]]


def test_classical_presentation_guard():
    with pytest.raises(ValueError):
        classical_presentation(1)
    for fn in (theory.generates_pair_xx, theory.generates_pair_ax):
        with pytest.raises(ValueError):
            fn(1, 0, 0)
    with pytest.raises(ValueError):
        theory.order_constraint_ax(1, 1)
    with pytest.raises(ValueError):
        theory.predicted_classification(1)
