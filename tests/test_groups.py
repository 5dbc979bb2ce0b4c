import functools
import importlib
import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cayleyclass as cc
from cayleyclass import groups
from cayleyclass.presentations import parse_presentation, todd_coxeter
from cayleyclass.words import ParseError
from conftest import all_automorphisms, builtin_groups
from orbit_oracle import orbit_minima, set_orbit

# the package re-exports the function classify under the module's name
classify_module = importlib.import_module("cayleyclass.classify")


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
# multiplication tables

PSL27 = "<a,b | a^2, b^3, (a*b)^7, (a^-1*b^-1*a*b)^4>"


@pytest.mark.parametrize(
    "group",
    builtin_groups(64) + [todd_coxeter(parse_presentation(PSL27), expected_order=168)],
    ids=lambda g: g.descriptor,
)
def test_table_matches_the_family_multiplication(group):
    order = group.order
    expected = [tuple(group._mul_fn(a, b) for b in range(order)) for a in range(order)]
    expected_inv = tuple(group._inv_fn(a) for a in range(order))
    group.ensure_table()
    assert group._table == expected
    assert group._inv_table == expected_inv


def test_table_refuses_generators_that_do_not_generate():
    # an explicit raise, not an assert that -O strips; the group stays usable
    code = textwrap.dedent("""
        import sys
        import cayleyclass as cc

        group = cc.FiniteGroup(  # cyclic of order 4, handed only g^2
            4, lambda a, b: (a + b) % 4, lambda a: (-a) % 4, ["e", "g", "g^2", "g^3"],
            "cyclic:4 by g^2", [("g^2", 2)],
        )
        try:
            group.ensure_table()
        except ValueError as exc:
            print(f"optimize={sys.flags.optimize} raised: {exc}")
        print(group._table is None, group.mul(1, 2))
    """)
    src = str(Path(cc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "optimize=1 raised: the generators of cyclic:4 by g^2 reach 2 of 4 elements",
        "True 3",
    ]


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


def check_automorphism_group_order(group, expected):
    auts = cc.group_automorphisms(group)
    assert auts.order == expected, group.descriptor
    assert cc.is_generating(group, auts.base), group.descriptor
    # each held map at least doubles the group held
    assert 2 ** len(auts.generators) <= auts.order, group.descriptor


def elementary_abelian(p, rank):
    return cc.from_descriptor(f"product:cyclic:{p}," * (rank - 1) + f"cyclic:{p}")


@pytest.mark.parametrize("rank", range(2, 8))
def test_automorphism_group_order_of_elementary_abelian_2_groups(rank):
    # Aut((C2)^k) = GL(k, 2); (C2)^7 has about 1.6 * 10^14 automorphisms
    expected = math.prod(2 ** rank - 2 ** i for i in range(rank))
    check_automorphism_group_order(elementary_abelian(2, rank), expected)


@pytest.mark.parametrize("descriptor, expected", [
    ("product:cyclic:3,product:cyclic:3,cyclic:3", 11_232),  # GL(3, 3)
    ("product:cyclic:4,cyclic:4", 96),
    ("product:dicyclic:2,cyclic:2", 192),  # Q8 x C2
    ("product:perm:4:(1,2);(1,2,3,4),cyclic:2", 48),  # S4 x C2
    ("perm:6:(1,2);(1,2,3,4,5,6)", 1_440),  # S6 and its outer automorphism
    # Q8 x Q8: 2! |Aut Q8|^2 |Hom(Q8, Z(Q8))|^2 (J. N. S. Bidwell, 2008)
    ("product:dicyclic:2,dicyclic:2", 18_432),
])
def test_automorphism_group_orders_past_order_16(descriptor, expected):
    check_automorphism_group_order(cc.from_descriptor(descriptor), expected)


def test_automorphism_group_orders_of_dicyclic_and_dihedral_families():
    for n in range(3, 129):
        check_automorphism_group_order(cc.dicyclic(n), 2 * n * _phi(2 * n))
    for n in range(3, 257):
        check_automorphism_group_order(cc.dihedral(n), n * _phi(n))


@pytest.mark.parametrize("group", builtin_groups(16), ids=lambda g: g.descriptor)
def test_automorphism_generators_close_to_the_group_order(group):
    auts = cc.group_automorphisms(group)
    assert len(all_automorphisms(group)) == auts.order
    # an automorphism is fixed by its images of base
    assert cc.is_generating(group, auts.base)
    # each held map at least doubles the subgroup: at most log2 |Aut| maps
    assert 2 ** len(auts.generators) <= auts.order
    for m in auts.generators:
        assert sorted(m) == list(group.elements())
        for p in group.elements():
            for q in group.elements():
                assert m[group.mul(p, q)] == group.mul(m[p], m[q])


@pytest.mark.parametrize("group", builtin_groups(16), ids=lambda g: g.descriptor)
def test_orbit_minima_match_every_automorphism(group):
    auts = all_automorphisms(group)
    maps = cc.group_automorphisms(group).generators
    inverse = [group.inv(g) for g in group.elements()]
    assert orbit_minima(group.order, maps) == [
        min(m[g] for m in auts) for g in group.elements()]
    assert orbit_minima(group.order, maps, inverse) == [
        min(min(m[g], inverse[m[g]]) for m in auts) for g in group.elements()]


def node_at(root, prefix):
    return functools.reduce(lambda node, r: node.child(r), prefix, root)


def tree_prefixes(root, degree):
    """The prefixes of length at most 2 down the tree from root: each entry an
    orbit minimum of its parent's node, in any order."""
    ones = [(r,) for r in range(degree) if root.least[r] == r]
    twos = [(r, s) for (r,) in ones for s in range(degree)
            if s != r and root.child(r).least[s] == s]
    return [()] + ones + twos


@pytest.mark.parametrize("group", builtin_groups(16), ids=lambda g: g.descriptor)
def test_stabilizer_nodes_match_every_automorphism(group):
    auts = all_automorphisms(group)
    root = cc.group_automorphisms(group)
    for prefix in tree_prefixes(root, group.order):
        fixing = [m for m in auts if all(m[p] == p for p in prefix)]
        node = node_at(root, prefix)
        assert node.order == len(fixing), prefix
        assert node.least == [min(m[g] for m in fixing) for g in group.elements()], prefix
        # the Schreier vector carries each point to its minimum by an
        # automorphism that fixes the prefix
        for g in group.elements():
            carried = tuple(node.carry(g, group.elements()))
            assert carried[g] == node.least[g] and carried in fixing, (prefix, g)
        # the chain: level i holds the images of b_i under the
        # automorphisms fixing the prefix and b_0, ..., b_{i-1}, and its
        # orbit sizes multiply to |H|
        assert math.prod(len(level) for level in node.levels) == node.order, prefix
        for i, level in enumerate(node.levels):
            below = [m for m in fixing if all(m[b] == b for b in node.base[:i])]
            assert level.keys() == {m[node.base[i]] for m in below}, (prefix, i)


def gl2_stabilizer_order(rank, fixed):
    """The automorphisms of (C2)^rank fixing `fixed` independent vectors:
    the images of the other basis vectors, each outside the span so far."""
    return math.prod(2 ** rank - 2 ** i for i in range(fixed, rank))


@pytest.mark.parametrize("rank", [4, 5])
def test_stabilizer_node_orders_of_elementary_abelian_2_groups(rank):
    G = elementary_abelian(2, rank)
    root = cc.group_automorphisms(G)
    # ids are coordinate bit strings, so 1, 2, 4, ... are independent, and
    # each is the least element outside the span of the ones before it
    basis = [2 ** i for i in range(rank)]
    for fixed in range(rank + 1):
        node = node_at(root, basis[:fixed])
        assert node.order == gl2_stabilizer_order(rank, fixed), fixed
        assert node.order == math.prod(len(level) for level in node.levels)
    assert gl2_stabilizer_order(5, 1) == 322_560
    # a vector in the span of the prefix is fixed: its stabilizer is the node
    assert node_at(root, [1, 2, 3]).order == gl2_stabilizer_order(rank, 2)


def test_chain_completes_from_generators_alone():
    # along base reversed, the generators of Aut(G) are no strong
    # generating set; the Schreier generators of the chain's own levels
    # must complete it
    completed = 0
    for group in builtin_groups(16):
        auts = cc.group_automorphisms(group)
        base = auts.base[::-1]
        chain = groups.StabilizerNode(base)
        for m in auts.generators:
            chain.absorb([m[b] for b in base], [m])
        completed += chain.order < auts.order
        chain.complete(auts.order)
        every = all_automorphisms(group)
        for i, level in enumerate(chain.levels):
            fixing = [m for m in every if all(m[b] == b for b in base[:i])]
            assert level.keys() == {m[base[i]] for m in fixing}, (group.descriptor, i)
        with pytest.raises(RuntimeError):
            chain.complete(2 * auts.order)
    assert completed >= 5


@pytest.mark.parametrize("group", builtin_groups(24) + [
    cc.from_descriptor("perm:7:(1,2);(1,2,3,4,5,6,7)")], ids=lambda g: g.descriptor)
def test_element_orders_from_powers(group):
    assert groups.element_orders(group) == [
        cc.element_order(group, g) for g in group.elements()]


@pytest.mark.parametrize("group", builtin_groups(16), ids=lambda g: g.descriptor)
def test_least_images_match_set_orbits(group):
    root = cc.group_automorphisms(group)
    for length in (1, 2, 3):
        for subset in itertools.islice(itertools.combinations(group.elements(), length), 0, None, 7):
            orbit = set_orbit(subset, root.generators)
            image, orderings = root.least_image(subset)
            assert image == min(orbit), subset
            if cc.is_generating(group, subset):
                # Aut(G) moves generating tuples freely: the orderings
                # that share the least image number |set stabilizer|
                assert orderings * len(orbit) == root.order, subset
            found = root.least_image(subset, bound=subset)
            assert found == ((image, orderings) if image == subset else None), subset


@pytest.mark.parametrize("group", builtin_groups(12), ids=lambda g: g.descriptor)
def test_least_image_bound_is_lexicographic(group):
    # an image whose entry passes the bound's is above it, whatever follows
    root = cc.group_automorphisms(group)
    pairs = list(itertools.combinations(group.elements(), 2))
    for points in pairs:
        found = root.least_image(points)
        for bound in pairs:
            expected = None if found[0] < bound else found
            assert root.least_image(points, bound=bound) == expected, (points, bound)


def test_stabilizer_tree_leaves_are_the_walk_of_increasing_minima():
    S4 = cc.from_descriptor("perm:4:(1,2);(1,2,3,4)")
    root = cc.group_automorphisms(S4)
    expected = [
        s for s in itertools.combinations(S4.elements(), 3)
        if all(node_at(root, s[:j]).least[s[j]] == s[j] for j in range(3))
    ]
    # every least set of an orbit is a leaf
    assert {min(set_orbit(s, cc.group_automorphisms(S4).generators))
            for s in itertools.combinations(S4.elements(), 3)} <= set(expected)
    # classify walks them in that order, keeping those that generate
    walked = list(classify_module._qualifying_leaves(S4, root, 3, False))
    assert walked == [s for s in expected if cc.is_generating(S4, s)]


def test_child_refuses_a_point_that_is_not_its_orbit_minimum():
    # in dicyclic:3, a^4 lies in the orbit of a^2: its stabilizer has
    # order 6, which child(2) gives, not the root's 12
    root = cc.group_automorphisms(cc.dicyclic(3))
    assert root.least[4] == 2 and root.order == 12 and root.child(2).order == 6
    with pytest.raises(ValueError, match="least point"):
        root.child(4)
    # a fixed point is its own minimum: its stabilizer is the node
    assert root.least[0] == 0 and root.child(0) is root


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
