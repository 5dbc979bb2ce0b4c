import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

import cayleyclass as cc
from cayleyclass import cli, presentations, words
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
    assert P.relators[0].letters == (0, 0, 3, 3)
    # exponents expanded before tracing: u^2*(u^3*v)^3 flattens and reduces cyclically
    assert P.relators[2].letters == (0,) * 5 + (2,) + (0,) * 3 + (2,) + (0,) * 3 + (2,)


def test_parse_single_generator():
    P = parse_presentation("<g | g^5>")
    assert P.generator_names == ("g",)
    assert len(P.relators) == 1


def test_parse_empty_relator_list():
    P = parse_presentation("<u,v |>")
    assert P.relators == ()


def test_relators_normalized():
    P = parse_presentation("<u,v | v*u^2*v^-1, u*u^-1>")
    assert P.relators[0].letters == (0, 0)  # cyclic reduction strips v ... v^-1
    assert P.relators[1].letters == ()


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
    assert P.relators[0].letters == (0, 0, 0)


def test_text_round_trip():
    for text in ("<u,v | u^2=v^2, u^4, u^2*(u^3*v)^3>", "<b,y | b^3, y^4, y^-1*b*y=b^-1>"):
        P = parse_presentation(text)
        again = parse_presentation(P.text())
        assert again.generator_names == P.generator_names
        assert again.relators == P.relators


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 3), st.lists(st.lists(st.integers(0, 5), max_size=12), max_size=4))
def test_text_round_trip_of_random_relators(ngens, letter_lists):
    # letters 2g and 2g+1 on the first ngens generators, each relator
    # cyclically reduced as the parser leaves it
    relators = tuple(
        presentations.Word(tuple(words.cyclically_reduce([x % (2 * ngens) for x in w])))
        for w in letter_lists
    )
    P = presentations.Presentation(("a", "b", "c")[:ngens], relators, "")
    again = parse_presentation(P.text())
    assert [r.letters for r in again.relators] == [r.letters for r in relators]


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
            # no scanned relator starts with b or ends with b^-1, so b's
            # column is filled after the scans
            "<a,b | a^6, b^2, a*b*a>",
            "<a,b | a^4, b^2, a*b*a>",
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


def counted_scans(monkeypatch):
    """The cosets at which the enumeration scans, one per relator scanned."""
    scans = []
    scan_coset = presentations._Enumeration.scan_coset

    def counted(enum, alpha, todo):
        # a relator counts as it is taken from todo, so a scan that merges
        # alpha away ends the count too
        def each():
            for relator in todo:
                scans.append(alpha)
                yield relator

        return scan_coset(enum, alpha, each())

    monkeypatch.setattr(presentations._Enumeration, "scan_coset", counted)
    return scans


def counted_oracle_scans(monkeypatch):
    """The cosets at which the one-column oracle scans, one per scan."""
    scans = []
    scan_and_fill = coset_oracle._Enumeration.scan_and_fill
    monkeypatch.setattr(
        coset_oracle._Enumeration,
        "scan_and_fill",
        lambda enum, alpha, cols: scans.append(alpha) or scan_and_fill(enum, alpha, cols),
    )
    return scans


def test_symmetric_relators_skip_most_scans(monkeypatch):
    scans = counted_scans(monkeypatch)
    oracle_scans = counted_oracle_scans(monkeypatch)
    P = parse_presentation(coxeter_sn(7))
    assert todd_coxeter(P).order == 5040
    oracle_enumerate(P, share_involutions=True)
    # 17,088 of the one-column loop's 75,600 scans are left
    assert 4 * len(scans) < len(oracle_scans)


@pytest.mark.parametrize("text, defined, scanned", [
    (coxeter_sn(6), 825, 1589),
    (coxeter_sn(7), 6411, 17088),
    (coxeter_sn(8), 55119, 193968),
    ("<a,x | a^512, x^2=a^256, x^-1*a*x=a^-1>", 1024, 2051),
    # b's column is filled after the scans: one coset each
    ("<a,b | a^6, b^2, a*b*a>", 7, 4),
    ("<a,b | a^4, b^2, a*b*a>", 5, 5),
])
def test_enumeration_counts(monkeypatch, text, defined, scanned):
    # the cosets defined, and the relators scanned, each counted as
    # scan_coset takes it
    scans = counted_scans(monkeypatch)
    assert presentations.coset_table(parse_presentation(text)).defined == defined
    assert len(scans) == scanned


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
    # words of long runs, each traced as a power of its letter's column
    for _ in range(60):
        degree = rng.randint(1, 12)
        table = []
        for _ in range(2):
            perm = rng.sample(range(degree), degree)
            table += [perm, sorted(range(degree), key=perm.__getitem__)]
        runs = [[rng.randrange(4)] * rng.randint(1, 300) for _ in range(rng.randint(1, 4))]
        root = [x for run in runs for x in run]
        letters = root * rng.choice((1, rng.randint(2, 5)))
        expected = [functools.reduce(lambda c, x: table[x][c], letters, c) for c in range(degree)]
        assert presentations._relator_trace(table, letters) == expected, letters


@pytest.mark.parametrize("square", ["{}^2", "{}^-2", "{}^2=e"])
def test_involutions_share_a_column(square):
    # the two-column enumeration defines 12,145 cosets for S7
    P = parse_presentation(coxeter_sn(7, square))
    assert todd_coxeter(P, max_cosets=8000).order == 5040


def hand_closed_table(monkeypatch, columns):
    """Make the enumeration end at the given closed columns, each coset
    live, without a scan changing them."""
    class Handed(presentations._Enumeration):
        def __init__(self, inv, max_cosets):
            super().__init__(inv, max_cosets)
            # filled in place: the enumeration scans through these lists
            for column, entries in zip(self.columns, columns):
                column[:] = entries
            self.p = list(range(len(columns[0])))

        def scan_coset(self, alpha, todo):
            return True

    monkeypatch.setattr(presentations, "_Enumeration", Handed)


def test_shared_column_that_is_no_involution_is_refused(monkeypatch):
    # s^2 gives s one shared column (column 0), and no scan touches it;
    # an enumeration handed a closed table where that column is a 3-cycle
    # (and t is trivial) must still be refused, by the inverse check,
    # since the s^2 relator is not traced
    hand_closed_table(monkeypatch, [[1, 2, 0], [0, 1, 2], [0, 1, 2]])
    for text in ("<s | s^2>", "<s | s^-2>", "<s,t | t*s^2*t^-1, t>"):
        with pytest.raises(RuntimeError, match="inverses"):
            todd_coxeter(parse_presentation(text))


# the library's group and the CLI's order both stop at a refused table
BOTH_PATHS = pytest.mark.parametrize("realize", [
    todd_coxeter,
    lambda P: cli.main(["check-presentation", P.descriptor]),
], ids=["todd_coxeter", "check-presentation"])


@BOTH_PATHS
def test_closed_table_that_breaks_a_relator_is_refused(monkeypatch, realize):
    # g and g^-1 swap two cosets: mutually inverse columns, but g^3 = g
    hand_closed_table(monkeypatch, [[1, 0], [1, 0]])
    with pytest.raises(RuntimeError, match="fails a relator trace"):
        realize(parse_presentation("<g | g^3>"))


@BOTH_PATHS
def test_closed_table_with_an_undefined_entry_is_refused(monkeypatch, realize):
    # g^3 starts with g and ends with it, so the enumeration fills no
    # column after the scans, and the entries left undefined stay so
    hand_closed_table(monkeypatch, [[1, None], [None, 0]])
    with pytest.raises(RuntimeError, match="undefined entry"):
        realize(parse_presentation("<g | g^3>"))


@BOTH_PATHS
def test_closed_table_that_is_not_transitive_is_refused(monkeypatch, realize):
    # the involution g fixes both cosets: g^2 holds, and coset 1 is out
    # of reach from coset 0
    hand_closed_table(monkeypatch, [[0, 1]])
    with pytest.raises(RuntimeError, match="not transitive"):
        realize(parse_presentation("<g | g^2>"))


def test_subgroup_word_that_moves_coset_0_is_refused(monkeypatch):
    # g is a 3-cycle: mutually inverse columns, g^3 traced home at every
    # coset and a transitive table, but g is the subgroup's generator
    # and moves coset 0; the trivial subgroup takes the same table
    hand_closed_table(monkeypatch, [[1, 2, 0], [2, 0, 1]])
    P = parse_presentation("<g | g^3>")
    assert presentations.coset_table(P).order == 3
    with pytest.raises(RuntimeError, match="does not fix coset 0"):
        presentations.coset_table(P, subgroup=presentations.Word((0,)))
    # a failed check raises; it does not fall back to the trivial subgroup
    with pytest.raises(RuntimeError, match="does not fix coset 0"):
        cli.main(["check-presentation", P.descriptor])


def test_expected_order_below_one_is_refused():
    P = parse_presentation("<g | g^5>")
    for bad in (0, -2):
        with pytest.raises(ValueError, match="expected_order"):
            todd_coxeter(P, expected_order=bad)
    assert todd_coxeter(P, expected_order=1, max_cosets=10).order == 5


# ---------------------------------------------------------------------------
# the order over a cyclic subgroup


def traced_tables(monkeypatch):
    """The (subgroup word, cap) of each coset_table call that group_order
    makes, with the word None over the trivial subgroup."""
    calls = []
    coset_table = presentations.coset_table

    def traced(presentation, max_cosets=None, expected_order=None, subgroup=None):
        calls.append((subgroup, max_cosets))
        return coset_table(presentation, max_cosets, expected_order, subgroup)

    monkeypatch.setattr(presentations, "coset_table", traced)
    return calls


@pytest.mark.parametrize("letters, expected", [
    ([0], (1, 1)),
    ([0] * 512, (1, 512)),
    ([0, 2] * 3, (2, 3)),
    ([0, 2, 0], (3, 1)),  # x*y*x has period 2 and is no power
    ([1, 3, 0, 2] * 4, (4, 4)),
])
def test_root(letters, expected):
    assert presentations._root(letters) == expected


@pytest.mark.parametrize("text, u, m", [
    (coxeter_sn(8), "s1*s2", 3),
    ("<a,b | a^2, b^3, (a*b)^7, (a^-1*b^-1*a*b)^4>", "a*b", 7),
    ("<a,x | a^512, x^2=a^256, x^-1*a*x=a^-1>", "a", 512),
    ("<g | g^-2, g^3>", "g", 3),
    ("<a,b | a^-2, b^2, (a*b)^2>", "a^-1", 2),  # the first of three squares
    ("<a,b | a*b*a, b*a*b>", None, None),
    ("<u,v |>", None, None),
])
def test_cyclic_subgroup_is_the_root_of_the_largest_power(text, u, m):
    P = parse_presentation(text)
    found = presentations._cyclic_subgroup(P)
    if u is None:
        assert found is None
    else:
        assert (found[0].text(P.generator_names), found[1]) == (u, m)


@pytest.mark.parametrize("text, index, defined", [
    (coxeter_sn(6), 240, 271),
    (coxeter_sn(7), 1680, 2132),
    # a third of the 55,119 cosets of the trivial subgroup
    (coxeter_sn(8), 13440, 18320),
    ("<a,b | a^2, b^3, (a*b)^7, (a^-1*b^-1*a*b)^4>", 24, 42),
])
def test_order_over_the_cyclic_subgroup(monkeypatch, text, index, defined):
    P = parse_presentation(text)
    u, m = presentations._cyclic_subgroup(P)
    closed = presentations.coset_table(P, subgroup=u)
    assert (closed.order, closed.defined) == (index, defined)
    calls = traced_tables(monkeypatch)
    assert presentations.group_order(P) == index * m
    assert calls == [(u, None)]  # no fallback


@pytest.mark.parametrize("presentation", oracle_cases(), ids=lambda p: p.descriptor)
def test_group_order_agrees_with_the_trivial_subgroup(presentation):
    assert presentations.group_order(presentation) == presentations.coset_table(presentation).order


def assert_group_order_agrees(presentation, max_cosets):
    # where the trivial subgroup's table exceeds the cap, the route over a
    # cyclic subgroup may still finish, but has nothing to agree with
    try:
        expected = presentations.coset_table(presentation, max_cosets).order
    except CosetLimitExceeded:
        return
    assert presentations.group_order(presentation, max_cosets) == expected


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(small_presentations())
def test_group_order_agrees_with_the_trivial_subgroup_on_random_presentations(presentation):
    assert_group_order_agrees(presentation, max_cosets=2000)


@st.composite
def coxeter_quotients(draw):
    """Coxeter presentations on 2-4 involutions, each pair's product of
    order 2-6, with the product of all of them raised to a power 2-6 on
    3-4 generators; small_presentations gives few orders that the route
    over a cyclic subgroup decides, these give both routes."""
    names = [f"s{i}" for i in range(1, draw(st.integers(2, 4)) + 1)]
    relators = [f"{s}^2" for s in names]
    relators += [f"({s}*{t})^{draw(st.integers(2, 6))}"
                 for i, s in enumerate(names) for t in names[i + 1:]]
    if len(names) > 2:
        relators.append(f"({'*'.join(names)})^{draw(st.integers(2, 6))}")
    return parse_presentation(f"<{','.join(names)} | {', '.join(relators)}>")


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(coxeter_quotients())
def test_group_order_agrees_with_the_trivial_subgroup_on_coxeter_quotients(presentation):
    assert_group_order_agrees(presentation, max_cosets=2000)


@pytest.mark.parametrize("text, order", [
    ("<g | g^6, g^4>", 2),  # <g> is the whole group, and g's order is 2
    ("<a,x | a^512, x^2=a^256, x^-1*a*x=a^-1>", 1024),  # <a> is normal
    ("<a,b | a^6, b^4, a^-1*b^-1*a*b>", 24),  # abelian: <a> is normal
    # b has order 2, not 4: it swaps two of the three cosets of <b>
    ("<a,b | a^3, b^4, b^2, (a*b)^2>", 6),
])
def test_group_order_falls_back_when_u_acts_with_a_smaller_order(monkeypatch, capsys, text,
                                                                  order):
    calls = traced_tables(monkeypatch)
    assert cli.main(["check-presentation", text]) == 0
    assert capsys.readouterr().out == f"order {order}\n"
    assert [subgroup is None for subgroup, _ in calls] == [False, True]


def test_subgroup_enumeration_past_the_cap_falls_back_under_the_same_cap(monkeypatch, capsys):
    # over <a*b^-1> the enumeration defines 5 cosets, over the trivial
    # subgroup 4
    text = "<a,b | (a^-1*b)^2, a, (a*b^-1)^6>"
    calls = traced_tables(monkeypatch)
    assert cli.main(["check-presentation", text, "--max-cosets", "4"]) == 0
    assert capsys.readouterr().out == "order 2\n"
    assert [(subgroup is None, cap) for subgroup, cap in calls] == [(False, 4), (True, 4)]
    # an infinite group exceeds the cap on both routes
    calls.clear()
    assert cli.main(["check-presentation", "<a,b | a^3>", "--max-cosets", "50"]) == 1
    assert capsys.readouterr().out == "EXCEEDED: coset enumeration exceeded 50 cosets\n"
    assert [(subgroup is None, cap) for subgroup, cap in calls] == [(False, 50), (True, 50)]


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


def test_verify_mutual_inverse_needs_the_group_presentation():
    # phi is always checked against G's relators, so G's presentation is
    # a required keyword
    from cayleyclass.dicyclic_theory import morphism_pair

    pair = morphism_pair(3, 1)
    with pytest.raises(TypeError, match="group_presentation"):
        cc.verify_mutual_inverse(cc.dicyclic(3), cc.pi_presentation(3, 1), pair.phi, pair.psi)


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
