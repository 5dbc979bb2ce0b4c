import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cayleyclass as cc
from cayleyclass import cli, presentations, words
from cayleyclass.dicyclic_theory import applicable_variants
from cayleyclass.groups import StabilizerNode
from cayleyclass.presentations import CosetLimitExceeded, parse_presentation, todd_coxeter
from cayleyclass.words import ParseError
from conftest import classical_presentation, coxeter_sn, validate
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


def test_relator_past_the_letter_bound_is_refused_at_its_relation():
    # each side holds 2^20 letters, the relator w1*w2^-1 twice that
    half = words.MAX_WORD_LETTERS
    with pytest.raises(ParseError, match="relator expands past 1048576 letters") as err:
        parse_presentation(f"<a | a^2,  a^{half}=a^-{half}>")
    assert err.value.position == 11
    P = parse_presentation(f"<a | a^{half // 2}=a^-{half // 2}>")
    assert P.relators[0].letters == (0,) * half


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
    assert todd_coxeter(cc.pi_presentation(3, 1), max_cosets=16 * 12).order == 12
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


def test_enumerated_group_passes_axioms():
    for text in ("<u,v | u^2=v^2, u^4, u^2*(u^3*v)^3>",
                 "<b,y | b^3, y^4, y^-1*b*y=b^-1>",
                 "<g | g^6, g^4>"):
        group = todd_coxeter(parse_presentation(text))
        validate(group)
        for g in group.elements():
            assert cc.parse_element(group, group.names[g]) == g


def test_classical_presentations_match_concrete_orders():
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
    # the enumeration scans as the one-column loop does, so the cosets,
    # their numbers, the names and the coset cap are the loop's
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


@pytest.mark.parametrize("presentation", oracle_cases(), ids=lambda p: p.descriptor)
def test_enumeration_scans_where_the_one_column_oracle_scans(monkeypatch, presentation):
    scans = counted_scans(monkeypatch)
    oracle_scans = counted_oracle_scans(monkeypatch)
    todd_coxeter(presentation)
    oracle_enumerate(presentation, share_involutions=True)
    assert scans == oracle_scans


@pytest.mark.parametrize("text, defined, scanned", [
    (coxeter_sn(6), 825, 7200),
    (coxeter_sn(7), 6411, 75600),
    (coxeter_sn(8), 55119, 846720),
    ("<a,x | a^512, x^2=a^256, x^-1*a*x=a^-1>", 1024, 3072),
    # b's column is filled after the scans: one coset each
    ("<a,b | a^6, b^2, a*b*a>", 7, 6),
    ("<a,b | a^4, b^2, a*b*a>", 5, 8),
])
def test_enumeration_counts(monkeypatch, text, defined, scanned):
    # the cosets defined, and the relators scanned, each counted as
    # scan_coset takes it
    scans = counted_scans(monkeypatch)
    assert presentations.coset_table(parse_presentation(text)).defined == defined
    assert len(scans) == scanned


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
    # g is a 3-cycle and h fixes every coset: mutually inverse columns,
    # every relator traced home at every coset and a transitive table,
    # but a subgroup with g among its words moves coset 0; the trivial
    # subgroup and <h> take the same table, and so does check-presentation
    # over <g>, the generators but the last
    hand_closed_table(monkeypatch, [[1, 2, 0], [2, 0, 1], [0, 1, 2], [0, 1, 2]])
    P = parse_presentation("<g,h | g^3, h>")
    g, h = presentations.Word((0,)), presentations.Word((2,))
    assert presentations.coset_table(P).order == 3
    assert presentations.coset_table(P, subgroup=[h]).order == 3
    for subgroup in ([g], [h, g]):
        with pytest.raises(RuntimeError, match="does not fix coset 0"):
            presentations.coset_table(P, subgroup=subgroup)
    # a failed check raises; it does not fall back to the trivial subgroup
    with pytest.raises(RuntimeError, match="does not fix coset 0"):
        cli.main(["check-presentation", P.descriptor])


# ---------------------------------------------------------------------------
# the order over all generators but the last


def traced_tables(monkeypatch):
    """(generators, subgroup words, cap) of each coset_table call that
    group_order makes: the number of generators of the presentation
    enumerated, the number of words generating the subgroup (0 for the
    trivial one) and max_cosets."""
    calls = []
    coset_table = presentations.coset_table

    def traced(presentation, max_cosets=None, subgroup=()):
        calls.append((len(presentation.generator_names), len(subgroup), max_cosets))
        return coset_table(presentation, max_cosets, subgroup)

    monkeypatch.setattr(presentations, "coset_table", traced)
    return calls


def kept_tables(monkeypatch):
    """Every table that group_order's coset_table calls return, in order."""
    tables = []
    coset_table = presentations.coset_table

    def kept(*args):
        tables.append(coset_table(*args))
        return tables[-1]

    monkeypatch.setattr(presentations, "coset_table", kept)
    return tables


@pytest.mark.parametrize("letters, expected", [
    ([0], (1, 1)),
    ([0] * 512, (1, 512)),
    ([0, 2] * 3, (2, 3)),
    ([0, 2, 0], (3, 1)),  # x*y*x has period 2 and is no power
    ([1, 3, 0, 2] * 4, (4, 4)),
])
def test_root(letters, expected):
    assert presentations._root(letters) == expected


@pytest.mark.parametrize("text, leading", [
    (coxeter_sn(4), "<s1,s2 | s1^2, s2^2, s1*s2*s1*s2*s1*s2>"),
    ("<a,b | a^2, b^3, (a*b)^7, (a^-1*b^-1*a*b)^4>", "<a | a^2>"),
    ("<a,x | a^512, x^2=a^256, x^-1*a*x=a^-1>", "<a | a^512>"),
    # a relator with the last generator's inverse is dropped too
    ("<a,b,c | a^2, c^-3, (a*b)^2, (a*c^-1)^5, b^4>", "<a,b | a^2, a*b*a*b, b^4>"),
    ("<a,b | a*b*a, b*a*b>", "<a | >"),
    ("<u,v |>", "<u | >"),
])
def test_leading_presentation_keeps_the_relators_in_the_first_generators(text, leading):
    P = presentations._leading(parse_presentation(text))
    assert (P.text(), P.descriptor) == (leading, "")


def generators_but_the_last(P):
    return [presentations.Word((2 * g,)) for g in range(len(P.generator_names) - 1)]


# P' = S_m, with m - 1 generators, is enumerated under min(cap, 16 m!)
DOWN_TO_S3 = [(4, 3, 1920), (3, 2, 384), (2, 1, 96), (2, 0, 96)]


@pytest.mark.parametrize("n, index, defined, calls, total", [
    # the trivial subgroups' tables define 271, 2,132 and 18,320 cosets
    (6, 6, 6, [(5, 4, None)] + DOWN_TO_S3, 24),
    (7, 7, 7, [(6, 5, None), (5, 4, 11520)] + DOWN_TO_S3, 31),
    (8, 8, 8, [(7, 6, None), (6, 5, 65536), (5, 4, 11520)] + DOWN_TO_S3, 39),
])
def test_order_over_all_generators_but_the_last(monkeypatch, n, index, defined, calls, total):
    # S_n over S_{n-1}: n cosets, and the order of P' = S_{n-1} from the
    # same route one generator down, down to S3, whose 3 cosets over <s1>
    # exceed 2! and leave it to the trivial subgroup
    P = parse_presentation(coxeter_sn(n))
    closed = presentations.coset_table(P, subgroup=generators_but_the_last(P))
    assert (closed.order, closed.defined) == (index, defined)
    made = traced_tables(monkeypatch)
    tables = kept_tables(monkeypatch)
    assert presentations.group_order(P) == math.factorial(n)
    assert (made, sum(t.defined for t in tables)) == (calls, total)


@pytest.mark.parametrize("presentation", oracle_cases(), ids=lambda p: p.descriptor)
def test_group_order_agrees_with_the_trivial_subgroup(monkeypatch, presentation):
    expected = presentations.coset_table(presentation).order
    calls = traced_tables(monkeypatch)
    assert presentations.group_order(presentation, 65536) == expected
    # at most two tables per generator, each under the caller's cap
    assert 1 <= len(calls) <= 2 * len(presentation.generator_names)
    assert calls[0][2] == 65536 and all(cap <= 65536 for _, _, cap in calls)


def assert_group_order_agrees(presentation, max_cosets):
    # where the trivial subgroup's table exceeds the cap, the route over
    # all generators but the last may still finish, but has nothing to
    # agree with
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
    over all generators but the last proves, these give both routes."""
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


def sifted(monkeypatch):
    """The (degree, target) of each Schreier-Sims run."""
    runs = []

    class Traced(StabilizerNode):
        def reaches(self, order, elements=()):
            runs.append((len(self.base), order))
            return super().reaches(order, elements)

    monkeypatch.setattr(presentations, "StabilizerNode", Traced)
    return runs


@pytest.mark.parametrize("text, order, runs", [
    # <a> has index 2 and P' = <a | a^6> bounds it by 6 > 1!: the cosets'
    # permutations make at most 2 elements, short of 2*6 = 12, so the
    # chain is not run and the trivial subgroup's table gives 6
    ("<a,b | a^6, b^2, b*a*b^-1=a^2>", 6, []),
    # S4 with a = (1 2 3 4): <a> has index 6 and P' = <a | a^8> bounds
    # it by 8, but two generators take no chain: Reidemeister-Schreier
    # reads |<a>| = 4 off the table over <a>
    ("<a,b | a^8, b^2, (a*b)^3, a^4=b^2>", 24, []),
    # S4 x Z2, b central: <a,b> has index 6 and P' = Z8 x Z2 bounds it
    # by 16 <= 5!, but <a,b> = Z4 x Z2 and b acts trivially on the
    # cosets: the chain closes at 24, short of 6*16 = 96
    ("<a,b,c | a^8, b^2, a*b=b*a, c^2, (a*c)^3, a^4=c^2, b*c=c*b>", 48, [(6, 96)]),
])
def test_order_is_not_the_bound_when_the_chain_falls_short(monkeypatch, capsys, text, order,
                                                           runs):
    made = sifted(monkeypatch)
    assert cli.main(["check-presentation", text]) == 0
    assert capsys.readouterr().out == f"order {order}\n"
    assert made == runs


def test_no_schreier_sims_when_the_index_exceeds_the_bound(monkeypatch):
    # [G:<a>] = 250 > 4 = |<a | a^4>|, under a cap that 250^3 is within
    runs = sifted(monkeypatch)
    calls = traced_tables(monkeypatch)
    P = parse_presentation("<a,b | a^4, b^250, a^-1*b*a=b^-1>")
    assert presentations.group_order(P, 10**8) == 1000
    assert (runs, calls) == ([], [(2, 1, 10**8), (2, 0, 10**8)])
    # S4 over S3: 4 <= 6 <= 3!, and the chain reaches 24
    assert presentations.group_order(parse_presentation(coxeter_sn(4))) == 24
    assert runs == [(4, 24)]


def test_no_schreier_sims_when_the_index_cubed_exceeds_the_cap(monkeypatch, capsys):
    # Z100 x Z100 over <a>: 100 cosets, within the cap, and 100 <= b = 100,
    # but 100^3 > 5000, so no chain is built and the trivial subgroup's
    # table of 10,000 cosets exceeds the cap as it would alone
    runs = sifted(monkeypatch)
    calls = traced_tables(monkeypatch)
    text = "<a,b | a^-1*b^-1*a*b, b^100, a^100>"
    assert cli.main(["check-presentation", text, "--max-cosets", "5000"]) == 1
    assert capsys.readouterr().out == "EXCEEDED: coset enumeration exceeded 5000 cosets\n"
    assert (runs, calls) == ([], [(2, 1, 5000), (2, 0, 5000)])


@pytest.mark.parametrize("text, cap, order, calls", [
    ("<g | g^6, g^4>", None, 2, [(1, 0)]),  # one generator: no route
    # P' = <a | > is infinite: the route is skipped with no enumeration
    ("<a,b | b^2, (a*b)^2, a^5*b*a^-5*b>", None, 20, [(2, 0)]),
    ("<a,b | a*b*a, b*a*b>", None, 3, [(2, 0)]),
    # [G:<a>] = 84 > 2: the guard fails
    ("<a,b | a^2, b^3, (a*b)^7, (a^-1*b^-1*a*b)^4>", None, 168, [(2, 1), (2, 0)]),
    # a = e: the 2 cosets of <a> exceed b = 1, each table within the
    # cap of 4
    ("<a,b | (a^-1*b)^2, a, (a*b^-1)^6>", 4, 2, [(2, 1), (2, 0)]),
    # S4/V4 is S3 = <a,b>: one coset, and P' is not enumerated
    ("<a,b,c | a^2, b^2, c^2, (a*b)^3, (b*c)^3, (a*c)^2, (a*b*c)^2>", None, 6,
     [(3, 2), (3, 0)]),
])
def test_group_order_falls_back_to_the_trivial_subgroup(monkeypatch, capsys, text, cap, order,
                                                        calls):
    made = traced_tables(monkeypatch)
    args = [] if cap is None else ["--max-cosets", str(cap)]
    assert cli.main(["check-presentation", text, *args]) == 0
    assert capsys.readouterr().out == f"order {order}\n"
    assert [(k, words) for k, words, _ in made] == calls


@pytest.mark.parametrize("text, order, defined", [
    # <a> is normal of index 2, so it acts trivially on its cosets and
    # no chain could prove |<a>| = 512; the relators do
    ("<a,x | a^512, x^2=a^256, x^-1*a*x=a^-1>", 1024, 2),
    # abelian: the cosets' permutations make a group of order 4
    ("<a,b | a^6, b^4, a^-1*b^-1*a*b>", 24, 14),
    # b has order 2, not 4: [G:<a>] = 2
    ("<a,b | a^3, b^4, b^2, (a*b)^2>", 6, 2),
    # <a> = G: one coset, and |G| = |G^ab|
    ("<a,b | a^6, b=a^2>", 6, 1),
])
def test_two_generator_order_by_reidemeister_schreier(monkeypatch, capsys, text, order, defined):
    made = traced_tables(monkeypatch)
    tables = kept_tables(monkeypatch)
    assert cli.main(["check-presentation", text]) == 0
    assert capsys.readouterr().out == f"order {order}\n"
    assert ([(k, words) for k, words, _ in made], [t.defined for t in tables]) == ([(2, 1)],
                                                                                 [defined])


@pytest.mark.parametrize("text, defined", [
    (coxeter_sn(8), [8, 7, 6, 5, 4, 3, 6]),  # S8 over S7, ..., S3 over <s1>, S3
    ("<a,x | a^512, x^2=a^256, x^-1*a*x=a^-1>", [2]),
    # n = 84 > b = 2: the table over <a> is wasted
    ("<a,b | a^2, b^3, (a*b)^7, (a^-1*b^-1*a*b)^4>", [130, 268]),
])
def test_benchmark_presentations_define_pinned_cosets(monkeypatch, text, defined):
    # the check-presentation jobs of the theorem-presentations workload:
    # the cosets each table of group_order defines
    tables = kept_tables(monkeypatch)
    presentations.group_order(parse_presentation(text))
    assert [t.defined for t in tables] == defined


@pytest.mark.parametrize("n", range(2, 65))
def test_classical_presentation_order_takes_one_table(monkeypatch, n):
    # <a> has index 2 in Dic_n and a^2n bounds it by 2n
    calls = traced_tables(monkeypatch)
    assert presentations.group_order(classical_presentation(n)) == 4 * n
    assert [(k, words) for k, words, _ in calls] == [(2, 1)]


def test_reidemeister_schreier_needs_the_square_relators():
    # D4 over <a>: 2 cosets <= b = 4, so the route serves; without b^2,
    # which coset_table neither scans nor traces, the relations present
    # a larger group, which the loop (0, a) no longer generates
    P = parse_presentation("<a,b | a^4, b^2, (a*b)^2>")
    closed = presentations.coset_table(P, subgroup=[presentations.Word((0,))])
    assert presentations._abelianized_order(closed, P.relators, presentations.Word((0,))) == 4
    assert presentations.group_order(P) == 8
    with pytest.raises(RuntimeError, match="does not generate"):
        presentations._abelianized_order(closed, [r for r in P.relators if r.letters != (2, 2)],
                                         presentations.Word((0,)))


def minors_gcd(rows, rank):
    """The gcd of the rank x rank minors of the rows as a matrix, each
    by an exact determinant over the rationals: the index in Z^rank of
    the lattice the rows span, 0 when it has a lower rank."""
    matrix = [[row.get(c, 0) for c in range(rank)] for row in rows]
    index = 0
    for chosen in itertools.combinations(matrix, rank):
        m = [[Fraction(x) for x in row] for row in chosen]
        det = Fraction(1)
        for i in range(rank):
            pivot = next((r for r in range(i, rank) if m[r][i]), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != i:
                m[i], m[pivot] = m[pivot], m[i]
                det = -det
            det *= m[i][i]
            for r in range(i + 1, rank):
                f = m[r][i] / m[i][i]
                m[r] = [x - f * y for x, y in zip(m[r], m[i])]
        index = math.gcd(index, int(det))
    return index


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 4).flatmap(lambda rank: st.tuples(st.just(rank), st.lists(
    st.lists(st.integers(-6, 6), min_size=rank, max_size=rank), max_size=6))))
def test_lattice_index_is_the_gcd_of_the_maximal_minors(case):
    rank, matrix = case
    rows = [{c: x for c, x in enumerate(row) if x} for row in matrix]
    assert presentations._lattice_index(rows, rank) == minors_gcd(rows, rank)


def test_subgroup_enumeration_past_the_cap_falls_back_under_the_same_cap(monkeypatch, capsys):
    # A4 x Z4 over <a,b> = A4: 4 cosets, but P' = <a,b | a^2, b^3> is
    # infinite, so both of its enumerations exceed the cap of 16 * 3!
    # for the largest order that could serve, and the route is skipped
    text = "<a,b,c | a^2, b^3, c^4, (a*b)^3*c^4, a*c=c*a, b*c=c*b>"
    calls = traced_tables(monkeypatch)
    assert cli.main(["check-presentation", text, "--max-cosets", "200"]) == 0
    assert capsys.readouterr().out == "order 48\n"
    assert calls == [(3, 2, 200), (2, 1, 96), (2, 0, 96), (3, 0, 200)]
    # <a,b> = G = S3: one coset, and P' is not enumerated
    calls.clear()
    text = "<a,b,c | a^2, b^3, c=a*b, c^2>"
    assert cli.main(["check-presentation", text, "--max-cosets", "50"]) == 0
    assert capsys.readouterr().out == "order 6\n"
    assert calls == [(3, 2, 50), (3, 0, 50)]
    # an infinite group exceeds the cap on both routes
    calls.clear()
    assert cli.main(["check-presentation", "<a,b | a^3>", "--max-cosets", "50"]) == 1
    assert capsys.readouterr().out == "EXCEEDED: coset enumeration exceeded 50 cosets\n"
    assert calls == [(2, 1, 50), (2, 0, 50)]


def closure_order(perms, degree):
    """The order of the group the permutations generate, by a
    breadth-first closure from the identity."""
    seen = {tuple(range(degree))}
    queue = list(seen)
    for g in queue:
        for s in perms:
            h = tuple(s[x] for x in g)
            if h not in seen:
                seen.add(h)
                queue.append(h)
    return len(seen)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 7).flatmap(
    lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3)))
def test_schreier_sims_reaches_the_closure_order_and_no_further(perms):
    order = closure_order(perms, len(perms[0]))
    for target, reached in ((order, True), (order + 1, False)):
        node = StabilizerNode(range(len(perms[0])))
        assert node.reaches(target, ((p, [p]) for p in perms)) is reached


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
    from cayleyclass.dicyclic_theory import morphism_pair

    G = cc.dicyclic(3)
    for variant in (1, 0, 3):
        pair = morphism_pair(3, variant)
        assert cc.verify_mutual_inverse(G, cc.pi_presentation(3, variant), pair.phi, pair.psi)


def test_verify_mutual_inverse_needs_equal_orders():
    # psi is an onto morphism and psi(phi(g)) = g for both generators of
    # G, yet b^6 makes <P> of order 24, twice |G|: only the order decides
    G = cc.dicyclic(3)
    P = parse_presentation("<b,y | b^6, y^4, y^-1*b*y=b^-1>")
    phi, psi = {"a": "b^2*y^2", "x": "y"}, {"b": "a^2", "y": "x"}
    assert presentations.coset_table(P, 16 * G.order).order == 24
    images = {name: cc.parse_element(G, word) for name, word in psi.items()}
    assert cc.check_homomorphism(P, G, images)
    assert all(presentations._evaluate_with(G, words.parse_word_ast(phi[name]), images) == g
               for name, g in G.generators)
    assert not cc.verify_mutual_inverse(G, P, phi, psi)


def test_verify_mutual_inverse_enumerates_only_maps_that_pass_in_g(monkeypatch):
    # <P> is infinite, so its table over <u^3*v> passes any cap; maps
    # that fail in G are refused before it is enumerated
    G = cc.dicyclic(3)
    P = parse_presentation("<u,v | u^2=v^2>")
    calls = []
    coset_table = presentations.coset_table

    def counting(*args, **kwargs):
        calls.append(kwargs["subgroup"])
        return coset_table(*args, **kwargs)

    monkeypatch.setattr(presentations, "coset_table", counting)
    phi, psi = {"a": "u^3*v", "x": "v"}, {"u": "a*x", "v": "x"}
    assert not cc.verify_mutual_inverse(G, P, {"a": "e", "x": "v"}, psi)
    assert not cc.verify_mutual_inverse(G, P, phi, {"u": "x", "v": "x"})
    assert calls == []
    with pytest.raises(CosetLimitExceeded):
        cc.verify_mutual_inverse(G, P, phi, psi)
    assert calls == [[presentations.Word((0, 0, 0, 2))]]


def test_verify_mutual_inverse_rejects_wrong_maps():
    G = cc.dicyclic(3)
    P = cc.pi_presentation(3, 1)
    # psi(u)=a is not even a homomorphism (u^4 relator fails)
    assert not cc.verify_mutual_inverse(G, P, {"a": "u^3*v", "x": "v"}, {"u": "a", "v": "x"})
    # valid homomorphisms that are not mutually inverse: psi maps onto <x> only
    assert not cc.verify_mutual_inverse(G, P, {"a": "u^3*v", "x": "v"}, {"u": "x", "v": "x"})
    # a map that misses a generator is refused by name
    with pytest.raises(ValueError, match=r"phi missing generators: \['x'\]"):
        cc.verify_mutual_inverse(G, P, {"a": "v*u"}, {"u": "a^3*x", "v": "x"})
    with pytest.raises(ValueError, match=r"psi missing generators: \['u'\]"):
        cc.verify_mutual_inverse(G, P, {"a": "u^3*v", "x": "v"}, {"v": "x"})
