import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

import cayleyclass as cc
from cayleyclass import presentations
from cayleyclass.dicyclic_theory import applicable_variants, classical_presentation
from cayleyclass.presentations import CosetLimitExceeded, parse_presentation, todd_coxeter
from cayleyclass.words import ParseError
from conftest import coxeter_sn
import coset_oracle
from coset_oracle import oracle_enumerate


def test_parse_basic():
    P = parse_presentation("<u,v | u^2=v^2, u^4, u^2*(u^3*v)^3>")
    assert P.generator_names == ("u", "v")
    assert len(P.relators) == 3
    # u^2=v^2 stored as u^2*v^-2
    assert P.relators[0].syllables == ((0, 2), (1, -2))
    # exponents expanded before tracing: u^2*(u^3*v)^3 flattens and reduces cyclically
    assert P.relators[2].syllables == ((0, 5), (1, 1), (0, 3), (1, 1), (0, 3), (1, 1))


def test_parse_single_generator():
    P = parse_presentation("<g | g^5>")
    assert P.generator_names == ("g",)
    assert len(P.relators) == 1


def test_parse_empty_relator_list():
    P = parse_presentation("<u,v |>")
    assert P.relators == ()


def test_relators_normalized():
    P = parse_presentation("<u,v | v*u^2*v^-1, u*u^-1>")
    assert P.relators[0].syllables == ((0, 2),)  # cyclic reduction strips v ... v^-1
    assert P.relators[1].syllables == ()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_presentation("u,v | u^2")
    with pytest.raises(ParseError):
        parse_presentation("<u,v  u^2>")
    with pytest.raises(ParseError) as err:
        parse_presentation("<u,v | u^2=w^2>")
    assert "w" in str(err.value)
    with pytest.raises(ParseError):
        parse_presentation("<u,v | u^2=v^2=e>")  # chained '='
    with pytest.raises(ParseError):
        parse_presentation("<u,u | u^2>")
    with pytest.raises(ParseError):
        parse_presentation("<e | e^2>")
    with pytest.raises(ParseError):
        parse_presentation("<u,v | u^2, , v^2>")


def test_identity_in_relations():
    P = parse_presentation("<g | g^3=e>")
    assert P.relators[0].syllables == ((0, 3),)


def test_text_round_trip():
    for text in ("<u,v | u^2=v^2, u^4, u^2*(u^3*v)^3>", "<b,y | b^3, y^4, y^-1*b*y=b^-1>"):
        P = parse_presentation(text)
        again = parse_presentation(P.text())
        assert again.generator_names == P.generator_names
        assert again.relators == P.relators


def test_pi_presentation_texts():
    assert pi_text(3, 1) == "<u,v | u^2=v^2, u^4, u^2*(u^3*v)^3>"
    assert pi_text(3, 0) == "<u,v | u^2=v^2, u^4, u^2*(u*v)^3>"
    assert pi_text(3, 3) == "<b,y | b^3, y^4, y^-1*b*y=b^-1>"


def pi_text(n, variant):
    return cc.pi_presentation(n, variant).descriptor


def test_pi_presentation_parity_guards():
    with pytest.raises(ValueError):
        cc.pi_presentation(4, 0)
    with pytest.raises(ValueError):
        cc.pi_presentation(4, 4)
    with pytest.raises(ValueError):
        cc.pi_presentation(3, 2)
    with pytest.raises(ValueError):
        cc.pi_presentation(1, 1)


# ---------------------------------------------------------------------------
# Todd-Coxeter


def test_enumeration_orders():
    assert todd_coxeter(parse_presentation("<g | g^5>")).order == 5
    assert todd_coxeter(cc.pi_presentation(3, 1), expected_order=12).order == 12
    assert todd_coxeter(parse_presentation("<b,y | b^3, y^4, y^-1*b*y=b^-1>")).order == 12
    assert todd_coxeter(parse_presentation("<u,v | u^2, v^2, (u*v)^3>")).order == 6


def test_enumeration_with_coincidences():
    assert todd_coxeter(parse_presentation("<g | g^6, g^4>")).order == 2
    assert todd_coxeter(parse_presentation("<u,v | u, v>")).order == 1
    assert todd_coxeter(parse_presentation("<g | g^2=g>")).order == 1
    assert todd_coxeter(parse_presentation("<u,v | u^2, v^2, (u*v)^2, u*v>")).order == 2


def test_enumeration_exceeded_is_retryable():
    free = parse_presentation("<u,v |>")
    with pytest.raises(CosetLimitExceeded):
        todd_coxeter(free, max_cosets=100)
    with pytest.raises(CosetLimitExceeded):
        todd_coxeter(free, expected_order=4)  # cap = 16 * expected


def test_enumerated_group_passes_axioms():
    for text in ("<u,v | u^2=v^2, u^4, u^2*(u^3*v)^3>",
                 "<b,y | b^3, y^4, y^-1*b*y=b^-1>",
                 "<g | g^6, g^4>"):
        group = todd_coxeter(parse_presentation(text))
        group.validate()
        for g in group.elements():
            assert cc.parse_element(group, group.names[g]) == g


def test_classical_presentations_match_concrete_orders():
    from cayleyclass.dicyclic_theory import classical_presentation

    for n in range(2, 9):
        assert todd_coxeter(classical_presentation(n)).order == 4 * n
    for n in range(3, 9):
        P = parse_presentation(f"<a,x | a^{n}, x^2, x^-1*a*x=a^-1>")
        assert todd_coxeter(P).order == 2 * n


def oracle_cases():
    cases = [parse_presentation(coxeter_sn(n)) for n in range(4, 8)]
    cases += [cc.pi_presentation(n, v) for n in range(2, 13) for v in applicable_variants(n)]
    cases += [classical_presentation(n) for n in range(2, 13)]
    cases += [
        parse_presentation(text)
        for text in (
            "<a,b | a^2, b^3, (a*b)^7, (a^-1*b^-1*a*b)^4>",  # PSL(2,7)
            "<a,x | a^512, x^2=a^256, x^-1*a*x=a^-1>",
            "<g | g^-2, g^3>",
            "<a | a^2, a^2>",
            "<a,b | a^2, b^2, a=b>",
            "<a,b | a^-2, b^3, (a*b)^2>",
            "<g | g^2=g>",
        )
    ]
    return cases


@pytest.mark.parametrize("presentation", oracle_cases(), ids=lambda p: p.descriptor)
def test_enumeration_matches_two_column_oracle(presentation):
    names, action = oracle_enumerate(presentation)
    group = todd_coxeter(presentation)
    assert group.order == len(names)
    assert sorted(group.names) == sorted(names)
    by_name = {name: x for x, name in enumerate(group.names)}
    for gen, images in action.items():
        g = group.named_elements[gen]
        for c, name in enumerate(names):
            assert group.names[group.mul(by_name[name], g)] == names[images[c]], (name, gen)


def assert_matches_one_column_oracle(presentation, max_cosets=65536):
    # skipped scans define nothing, so the cosets, their numbers, the
    # names and the coset cap are those of the loop that skips no scan
    try:
        names, action = oracle_enumerate(presentation, max_cosets, share_involutions=True)
    except CosetLimitExceeded:
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter(presentation, max_cosets=max_cosets)
        return
    group = todd_coxeter(presentation, max_cosets=max_cosets)
    assert list(group.names) == names
    assert list(group.generators) == [(name, images[0]) for name, images in action.items()]


@pytest.mark.parametrize("presentation", oracle_cases(), ids=lambda p: p.descriptor)
def test_enumeration_matches_one_column_oracle(presentation):
    assert_matches_one_column_oracle(presentation)


@st.composite
def small_presentations(draw):
    """Presentations on 1-3 generators from powers, squares, powers of
    two-letter products and commutator powers; each generator gets a
    power or a square first, so that many of them are finite."""
    names = "abc"[: draw(st.integers(1, 3))]
    gen = st.sampled_from(names)
    sign = st.sampled_from(("", "^-1"))
    power = st.builds("{}{}".format, st.sampled_from(("", "-")), st.integers(2, 9))
    own = [draw(st.one_of(st.builds(f"{g}^{{}}".format, power), st.just(f"{g}^2"))) for g in names]
    relator = st.one_of(
        st.builds("{}^{}".format, gen, power),
        st.builds("{}^2".format, gen),
        st.builds("({}{}*{}{})^{}".format, gen, sign, gen, sign, st.integers(2, 7)),
        st.builds("({0}^-1*{1}^-1*{0}*{1})^{2}".format, gen, gen, st.integers(1, 4)),
    )
    relators = own + draw(st.lists(relator, max_size=3))
    return parse_presentation(f"<{','.join(names)} | {', '.join(relators)}>")


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(small_presentations())
def test_enumeration_matches_one_column_oracle_on_random_presentations(presentation):
    assert_matches_one_column_oracle(presentation, max_cosets=2000)


def counted_scans(monkeypatch, module):
    """The cosets at which module's enumeration scans, one per scan."""
    scans = []
    scan_and_fill = module._Enumeration.scan_and_fill
    monkeypatch.setattr(
        module._Enumeration,
        "scan_and_fill",
        lambda enum, alpha, cols: scans.append(alpha) or scan_and_fill(enum, alpha, cols),
    )
    return scans


def test_symmetric_relators_skip_most_scans(monkeypatch):
    scans = counted_scans(monkeypatch, presentations)
    oracle_scans = counted_scans(monkeypatch, coset_oracle)
    P = parse_presentation(coxeter_sn(7))
    assert todd_coxeter(P).order == 5040
    oracle_enumerate(P, share_involutions=True)
    # 17,088 of the one-column loop's 75,600 scans are left
    assert 4 * len(scans) < len(oracle_scans)


@pytest.mark.parametrize(
    "cols, inv, expected",
    [
        ([0, 1] * 3, [0, 1], {0, 1}),  # (s*t)^3 over involution columns
        ([0] * 512, [1, 0], {0, 1}),  # a^512: a and a^-1
        ([0, 2, 0, 1] * 4, [0, 2, 1], {0}),  # (a^-1*b^-1*a*b)^4 with a^2
        ([1, 3, 0, 2] * 4, [1, 0, 3, 2], set()),  # the same, a no involution
        ([3, 0, 2, 0], [1, 0, 3, 2], set()),  # x^-1*a*x*a
        ([0, 2] * 3, [1, 0, 3, 2], set()),  # (a*b)^3
    ],
)
def test_symmetry_columns(cols, inv, expected):
    assert presentations._symmetry_columns(cols, inv) == expected


def test_symmetry_columns_match_rotations():
    rng = random.Random(7)
    found = 0
    for _ in range(2000):
        # columns 0 and 1 are an involution's and a generator's own, 2 its inverse
        inv = [0, 2, 1]
        root = [rng.randrange(3) for _ in range(rng.randint(1, 3))]
        cols = root * rng.randint(1, 4)
        inverse = [inv[c] for c in reversed(cols)]
        expected = set()
        if cols[1:] + cols[:1] in (cols, inverse):
            expected.add(cols[0])
        if cols[-1:] + cols[:-1] in (cols, inverse):
            expected.add(inv[cols[-1]])
        assert presentations._symmetry_columns(cols, inv) == expected, cols
        found += bool(expected)
    assert found > 200


def test_relator_trace_matches_letter_by_letter():
    rng = random.Random(2024)
    nontrivial = 0
    for _ in range(200):
        degree = rng.randint(1, 12)
        table = []
        for _ in range(2):
            perm = rng.sample(range(degree), degree)
            table += [perm, sorted(range(degree), key=perm.__getitem__)]
        # a drawn word, or a power of one: a word like x*y*x has period 2
        # and is no power
        root = [rng.randrange(4) for _ in range(rng.randint(1, 6))]
        letters = root * rng.choice((1, rng.randint(2, 40)))
        expected = [functools.reduce(lambda c, x: table[x][c], letters, c) for c in range(degree)]
        got = presentations._relator_trace(table, letters)
        assert got == expected, letters
        nontrivial += got != list(range(degree))
    assert nontrivial > 100  # most traces are not the identity


@pytest.mark.parametrize("square", ["{}^2", "{}^-2", "{}^2=e"])
def test_involutions_share_a_column(square):
    # the two-column enumeration defines 12,145 cosets for S7
    P = parse_presentation(coxeter_sn(7, square))
    assert todd_coxeter(P, max_cosets=8000).order == 5040


def test_shared_column_that_is_no_involution_is_refused(monkeypatch):
    # s^2 gives s one shared column (column 0), and no scan touches it;
    # an enumeration handed a closed table where that column is a 3-cycle
    # (and t is trivial) must still be refused, by the inverse check,
    # since the s^2 relator is not traced
    class ThreeCycle(presentations._Enumeration):
        def __init__(self, inv, max_cosets):
            super().__init__(inv, max_cosets)
            self.table = [[(c + 1) % 3] + [c] * (self.ncols - 1) for c in range(3)]
            self.p = [0, 1, 2]

    monkeypatch.setattr(presentations, "_Enumeration", ThreeCycle)
    for text in ("<s | s^2>", "<s | s^-2>", "<s,t | t*s^2*t^-1, t>"):
        with pytest.raises(RuntimeError, match="inverses"):
            todd_coxeter(parse_presentation(text))


def test_expected_order_below_one_is_refused():
    P = parse_presentation("<g | g^5>")
    for bad in (0, -2):
        with pytest.raises(ValueError, match="expected_order"):
            todd_coxeter(P, expected_order=bad)
    assert todd_coxeter(P, expected_order=1, max_cosets=10).order == 5


# ---------------------------------------------------------------------------
# morphism checks


def test_check_homomorphism_examples():
    G = cc.dicyclic(3)
    P1 = cc.pi_presentation(3, 1)
    ax, x = cc.parse_element(G, "a*x"), cc.parse_element(G, "x")
    a = cc.parse_element(G, "a")
    assert cc.check_homomorphism(P1, G, {"u": ax, "v": x})
    assert not cc.check_homomorphism(P1, G, {"u": a, "v": x})  # u^4=e fails: Ord(a)=6
    Pn = cc.pi_presentation(3, 3)
    a2 = cc.parse_element(G, "a^2")
    assert cc.check_homomorphism(Pn, G, {"b": a2, "y": x})
    with pytest.raises(ValueError):
        cc.check_homomorphism(P1, G, {"u": ax})


def test_verify_mutual_inverse_examples():
    from cayleyclass.dicyclic_theory import classical_presentation, morphism_pair

    G = cc.dicyclic(3)
    for variant in (1, 0, 3):
        pair = morphism_pair(3, variant)
        assert cc.verify_mutual_inverse(
            G,
            cc.pi_presentation(3, variant),
            pair.phi,
            pair.psi,
            group_presentation=classical_presentation(3),
        )


def test_verify_mutual_inverse_rejects_wrong_maps():
    from cayleyclass.dicyclic_theory import classical_presentation

    G = cc.dicyclic(3)
    P = cc.pi_presentation(3, 1)
    # psi(u)=a is not even a homomorphism (u^4 relator fails)
    assert not cc.verify_mutual_inverse(
        G, P, {"a": "u^3*v", "x": "v"}, {"u": "a", "v": "x"},
        group_presentation=classical_presentation(3),
    )
    # valid homomorphisms that are not mutually inverse: psi maps onto <x> only
    assert not cc.verify_mutual_inverse(
        G, P, {"a": "u^3*v", "x": "v"}, {"u": "x", "v": "x"},
        group_presentation=classical_presentation(3),
    )
