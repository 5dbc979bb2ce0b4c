import math

import pytest

import cayleyclass as cc
from cayleyclass import groups
from cayleyclass.words import ParseError
from conftest import all_automorphisms, builtin_groups


def elem(group, text):
    return cc.parse_element(group, text)


# ---------------------------------------------------------------------------
# axioms


@pytest.mark.parametrize("group", builtin_groups(24), ids=lambda g: g.descriptor)
def test_axioms_small(group):
    group.validate()


def test_axioms_medium_exhaustive():
    for group in (cc.dicyclic(24), cc.dihedral(48), cc.cyclic(200)):
        assert group.order <= 200
        group.validate()


def test_axioms_sampled_above_200():
    cc.cyclic(250).validate()


# ---------------------------------------------------------------------------
# dicyclic


def test_dicyclic_orders_and_structure():
    for n in range(2, 9):
        G = cc.dicyclic(n)
        assert G.order == 4 * n
        a, x = elem(G, "a"), elem(G, "x")
        assert cc.element_order(G, a) == 2 * n
        # x^2 = a^n and x^-1 a x = a^-1
        assert G.mul(x, x) == G.pow(a, n)
        assert G.mul(G.mul(G.inv(x), a), x) == G.inv(a)
        # exactly 2n elements in the cyclic part <a>
        apart = cc.closure(G, [a])
        assert len(apart) == 2 * n
        # every element outside <a> has order 4
        for g in G.elements():
            if g not in apart:
                assert cc.element_order(G, g) == 4


def test_dicyclic_multiplication_examples():
    G = cc.dicyclic(3)
    assert G.mul(elem(G, "a*x"), elem(G, "a^2*x")) == elem(G, "a^2")
    assert G.inv(elem(G, "a*x")) == elem(G, "a^4*x")


def test_dicyclic_2_is_quaternion():
    Q8 = cc.dicyclic(2)
    assert Q8.order == 8
    orders = sorted(cc.element_order(Q8, g) for g in Q8.elements())
    assert orders == [1, 2] + [4] * 6


def test_dicyclic_parameter_guard():
    with pytest.raises(ValueError):
        cc.dicyclic(1)


def test_dicyclic_automorphism_maps_are_automorphisms():
    G = cc.dicyclic(3)
    maps = all_automorphisms(G)
    assert len(maps) == 6 * 2  # 2n * phi(2n) with n=3
    for m in maps:
        assert sorted(m) == list(G.elements())
        for p in G.elements():
            for q in G.elements():
                assert m[G.mul(p, q)] == G.mul(m[p], m[q])


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_automorphism_group_orders():
    cases = [(cc.dicyclic(2), 24)]
    cases += [(cc.dicyclic(n), 2 * n * _phi(2 * n)) for n in range(3, 13)]
    cases += [(cc.dihedral(n), n * _phi(n)) for n in range(3, 25)]
    cases += [(cc.cyclic(n), _phi(n)) for n in range(1, 49)]
    cases += [
        (cc.from_permutations(4, ["(1,2)", "(1,2,3,4)"]), 24),
        (cc.from_permutations(5, ["(1,2)", "(1,2,3,4,5)"]), 120),
        (cc.from_permutations(5, ["(1,2,3)", "(1,2,3,4,5)"]), 120),
    ]
    for group, expected in cases:
        assert cc.group_automorphisms(group).order == expected, group.descriptor


@pytest.mark.parametrize("group", builtin_groups(16), ids=lambda g: g.descriptor)
def test_automorphism_generators_close_to_the_group_order(group):
    auts = cc.group_automorphisms(group)
    assert len(all_automorphisms(group)) == auts.order
    # each held map at least doubles the subgroup: at most log2 |Aut| maps
    assert 2 ** len(auts.generators) <= auts.order
    for m in auts.generators:
        assert sorted(m) == list(group.elements())
        for p in group.elements():
            for q in group.elements():
                assert m[group.mul(p, q)] == group.mul(m[p], m[q])


# ---------------------------------------------------------------------------
# dihedral


def test_dihedral_basics():
    G = cc.dihedral(3)
    assert G.order == 6
    a, x = elem(G, "a"), elem(G, "x")
    assert G.pow(a, 3) == G.identity
    assert G.mul(x, x) == G.identity
    assert G.mul(G.mul(x, a), x) == G.inv(a)
    with pytest.raises(ValueError):
        cc.dihedral(2)


def test_dihedral_matches_permutation_closure():
    # oracle: a -> (1,2,3), x -> (1,2) extends to a bijective homomorphism
    D = cc.dihedral(3)
    P = cc.from_permutations(3, ["(1,2,3)", "(1,2)"])
    assert P.order == D.order
    pa, px = elem(P, "(1,2,3)"), elem(P, "(1,2)")
    image = {}
    for i in range(3):
        for j in range(2):
            src = D.mul(D.pow(elem(D, "a"), i), D.pow(elem(D, "x"), j))
            image[src] = P.mul(P.pow(pa, i), P.pow(px, j))
    assert sorted(image.values()) == list(P.elements())
    for p in D.elements():
        for q in D.elements():
            assert image[D.mul(p, q)] == P.mul(image[p], image[q])


# ---------------------------------------------------------------------------
# cyclic and products


def test_cyclic_and_product_orders():
    assert cc.cyclic(1).order == 1
    G = cc.direct_product(cc.cyclic(3), cc.direct_product(cc.cyclic(2), cc.cyclic(2)))
    assert G.order == 12
    assert [name for name, _ in G.generators] == ["g", "g1", "g2"]
    assert cc.element_order(G, elem(G, "g*g1")) == 6
    with pytest.raises(ValueError):
        cc.cyclic(0)


def test_product_of_two_permutation_groups_rejected():
    S3 = cc.from_permutations(3, ["(1,2,3)", "(1,2)"])
    with pytest.raises(ValueError):
        cc.direct_product(S3, S3)


def test_product_with_one_permutation_factor():
    S3 = cc.from_permutations(3, ["(1,2,3)", "(1,2)"])
    G = cc.direct_product(S3, cc.cyclic(2))
    assert G.order == 12
    g = elem(G, "(1,2,3)*g")
    assert cc.element_order(G, g) == 6
    for h in G.elements():
        assert cc.parse_element(G, G.names[h]) == h


# ---------------------------------------------------------------------------
# permutation closure


def test_permutation_closures():
    assert cc.from_permutations(4, ["(1,2,3)", "(2,4,3)"]).order == 12
    assert cc.from_permutations(4, ["(1,2)", "(1,2,3,4)"]).order == 24
    assert cc.from_permutations(3, [(1, 2, 3)]).order == 1


def test_permutation_closure_cap():
    with pytest.raises(groups.ClosureLimitError):
        cc.from_permutations(4, ["(1,2)", "(1,2,3,4)"], closure_cap=10)


def test_permutation_generator_validation():
    with pytest.raises(ValueError):
        cc.from_permutations(3, [(1, 1, 2)])
    with pytest.raises(ValueError):
        cc.from_permutations(3, ["(1,5)"])


def test_cycle_name_resolution():
    A4 = cc.from_permutations(4, ["(1,2,3)", "(2,4,3)"])
    canonical = elem(A4, "(1,2,3)")
    assert elem(A4, "(2,3,1)") == canonical  # non-canonical rotation
    assert elem(A4, "(1,2)(3,4)") == elem(A4, "(1,2)(3,4)")
    with pytest.raises(ParseError):
        elem(A4, "(1,2)")  # odd permutation, not in A4


# ---------------------------------------------------------------------------
# element orders, closure, generation


def test_element_order_examples():
    G = cc.dicyclic(3)
    assert cc.element_order(G, elem(G, "a")) == 6
    for k in range(6):
        assert cc.element_order(G, elem(G, f"a^{k}*x")) == 4
    assert cc.element_order(G, G.identity) == 1


def test_closure_idempotent_and_monotone():
    G = cc.dicyclic(3)
    for seed in ([elem(G, "a^2")], [elem(G, "x")], [elem(G, "a*x"), elem(G, "a^2")]):
        first = cc.closure(G, seed)
        assert set(seed) <= first
        assert cc.closure(G, first) == first


def test_generating_examples():
    G = cc.dicyclic(3)
    assert cc.is_generating(G, (elem(G, "a*x"), elem(G, "a^2*x")))  # gcd(3,-1)=1
    assert not cc.is_generating(G, (elem(G, "x"), elem(G, "a^3*x")))  # gcd(3,-3)=3
    assert cc.is_generating(G, (elem(G, "a^2"), elem(G, "x")))  # n odd
    # duplicates close to a cyclic subgroup
    assert not cc.is_generating(G, (elem(G, "a"), elem(G, "a")))
    C = cc.cyclic(5)
    assert cc.is_generating(C, (elem(C, "g"), elem(C, "g")))


def test_minimal_generating():
    G = cc.dicyclic(3)
    assert cc.is_minimal_generating(G, (elem(G, "a"), elem(G, "x")))
    assert not cc.is_minimal_generating(G, (elem(G, "a"), elem(G, "x"), elem(G, "a*x")))
    C6 = cc.cyclic(6)
    assert cc.is_minimal_generating(C6, (elem(C6, "g"),))
    # the trivial group has no minimal sequences: the empty one generates
    C1 = cc.cyclic(1)
    assert cc.is_generating(C1, (0,))
    assert not cc.is_minimal_generating(C1, (0,))


def test_xx_and_ax_generation_criteria_exhaustive():
    for n in range(2, 13):
        G = cc.dicyclic(n)
        two_n = 2 * n
        for k in range(two_n):
            assert cc.is_generating(G, (k, two_n)) == (math.gcd(n, k) == 1)
            for m in range(two_n):
                expected = math.gcd(n, k - m) == 1
                assert cc.is_generating(G, (two_n + k, two_n + m)) == expected


def test_mixed_pair_order_constraint():
    # a generating pair (b, y) with b in <a> forces Ord(b) = 2n, or odd n and Ord(b) = n
    for n in range(2, 7):
        G = cc.dicyclic(n)
        two_n = 2 * n
        for b in range(two_n):
            for y in range(two_n, 4 * n):
                if cc.is_generating(G, (b, y)):
                    order = cc.element_order(G, b)
                    assert order == 2 * n or (n % 2 == 1 and order == n)


# ---------------------------------------------------------------------------
# order multisets


def test_element_orders_divide_group_order():
    for group in builtin_groups(24):
        for g in group.elements():
            assert group.order % cc.element_order(group, g) == 0


def test_order_multiset_examples():
    G = cc.dicyclic(3)
    assert cc.order_multiset(G, (elem(G, "a"), elem(G, "x"))) == cc.OrderMultiset.of((6, 4))
    assert cc.order_multiset(G, (elem(G, "a^2"), elem(G, "x"))) == cc.OrderMultiset.of((3, 4))
    assert cc.order_multiset(G, (elem(G, "a*x"), elem(G, "x"))) == cc.OrderMultiset.of((4, 4))
    # position-independent
    assert cc.order_multiset(G, (elem(G, "x"), elem(G, "a"))) == cc.OrderMultiset.of((6, 4))
    assert str(cc.OrderMultiset.of((4, 6))) == "{{6,4}}"


# ---------------------------------------------------------------------------
# names, descriptors, sequences


@pytest.mark.parametrize("group", builtin_groups(24), ids=lambda g: g.descriptor)
def test_element_names_round_trip(group):
    for g in group.elements():
        assert cc.parse_element(group, group.names[g]) == g


@pytest.mark.parametrize("group", builtin_groups(24), ids=lambda g: g.descriptor)
def test_descriptor_round_trip(group):
    rebuilt = cc.from_descriptor(group.descriptor)
    assert rebuilt.order == group.order
    assert rebuilt.names == group.names
    assert rebuilt.descriptor == group.descriptor


def test_sequence_round_trip():
    G = cc.dicyclic(3)
    seq = cc.parse_sequence(G, "a*x,x")
    assert seq.group == G.descriptor
    assert groups.sequence_text(G, seq.elements) == "a*x,x"
    A4 = cc.from_permutations(4, ["(1,2,3)", "(2,4,3)"])
    seq = cc.parse_sequence(A4, "(1,2,3),(2,4,3)")
    assert groups.sequence_text(A4, seq.elements) == "(1,2,3),(2,4,3)"
    with pytest.raises(ParseError):
        cc.parse_sequence(G, "a,,x")


def test_perm_descriptor_comma_separator():
    # commas also separate permutation generators (a descriptor never
    # starts with a parenthesis, so this stays unambiguous in products)
    assert cc.from_descriptor("perm:4:(1,2),(1,2,3,4)").order == 24
    assert cc.from_descriptor("product:perm:3:(1,2,3);(1,2),cyclic:2").order == 12


def test_bad_descriptors():
    for text in ("octahedral:3", "dicyclic:", "product:cyclic:2", "perm:3:", "cyclic:2junk"):
        with pytest.raises(ValueError):
            cc.from_descriptor(text)
