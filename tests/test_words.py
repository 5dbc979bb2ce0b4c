import string

import pytest
from hypothesis import example, given, settings, strategies as st

from cayleyclass import words
from cayleyclass.words import ParseError
from lexer_oracle import oracle_tokenize


def test_tokenize_expression():
    kinds = [t.kind for t in words.tokenize("a^2*x")]
    assert kinds == ["NAME", "CARET", "INT", "STAR", "NAME"]


def test_cycle_chain_is_one_token():
    tokens = words.tokenize("(1,2)(3,4)")
    assert [t.kind for t in tokens] == ["CYCLES"]
    assert tokens[0].text == "(1,2)(3,4)"


def test_cycle_token_allows_spaces():
    tokens = words.tokenize("( 1, 2 )")
    assert [t.kind for t in tokens] == ["CYCLES"]


def test_grouping_paren_vs_cycle():
    tokens = words.tokenize("(u*v)^2")
    assert [t.kind for t in tokens] == ["LPAREN", "NAME", "STAR", "NAME", "RPAREN", "CARET", "INT"]


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        words.tokenize("a$b")
    assert err.value.position == 1
    with pytest.raises(ParseError) as err:
        words.parse_word_ast("a^")
    assert "exponent" in str(err.value)
    with pytest.raises(ParseError):
        words.parse_word_ast("a b")
    with pytest.raises(ParseError):
        words.parse_word_ast("")
    with pytest.raises(ParseError):
        words.tokenize("(1,2")
    with pytest.raises(ParseError):
        words.parse_word_ast("(u*v")


def outcome(lexer, text, offset):
    """The lexer's (kind, text, pos) triples, or its error message."""
    try:
        return lexer(text, offset)
    except ParseError as exc:
        return str(exc)


def triples(text, offset):
    return [(t.kind, t.text, t.pos) for t in words.tokenize(text, offset)]


# letters, digits and the other characters drawn about equally often, so
# that cycles, chains of cycles and broken cycles all come up
ASCII_WORDS = st.text(alphabet=st.one_of(st.sampled_from(string.ascii_letters + "_"),
                                         st.sampled_from(string.digits),
                                         st.sampled_from("()*^-, ")), max_size=24)


@settings(max_examples=400, deadline=None)
@given(ASCII_WORDS, st.integers(0, 5))
@example("(1,2) (3,4)(5, 6)x", 0)
@example("(1,2)(3,a)", 0)
@example("(1,2) (3", 2)
@example("( ,1)", 0)
def test_tokenize_matches_the_character_loop(text, offset):
    assert outcome(triples, text, offset) == outcome(oracle_tokenize, text, offset)


def test_int_is_the_digits_int_reads():
    # '²' is a digit to str.isdigit but not to int(); '٣' is one to both
    with pytest.raises(ParseError) as err:
        words.parse_word_ast("a^²")
    assert err.value.position == 2
    assert words.parse_word_ast("a^٣*x") == words.parse_word_ast("a^3*x")


def test_offset_shifts_positions():
    with pytest.raises(ParseError) as err:
        words.parse_word_ast("a$", offset=10)
    assert err.value.position == 11


def _letters(text, gens):
    index = {name: i for i, name in enumerate(gens)}
    return words.ast_to_letters(words.parse_word_ast(text), index)


def test_word_past_the_letter_bound_is_refused_at_its_exponent(monkeypatch):
    # the check comes before the letters are built, so a power of
    # 1025 * 1024 letters allocates only its base
    with pytest.raises(ParseError, match="past 1048576 letters") as err:
        _letters("(u^1024)^1025", "u")
    assert err.value.position == 9
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", 8)
    assert len(_letters("u^8", "u")) == 8
    assert len(_letters("(u*v^-1)^4", "uv")) == 8
    for text, position in [("u^9", 2), ("u^-9", 3), ("(u^2)^5", 6), ("u^4*v^-5", 7),
                           ("(u^3*v)^3*u", 8), ("((u*v)^2)^3", 10)]:
        with pytest.raises(ParseError) as err:
            _letters(text, "uv")
        assert err.value.position == position, text


def test_exponent_past_the_letter_bound_is_refused_before_it_is_read():
    # 5,000 digits pass Python's int() limit of 4,300; leading zeros
    # count for nothing
    for text, position in [("u^" + "9" * 5000, 2), ("u*v^-" + "1" * 8, 5)]:
        with pytest.raises(ParseError, match="past 1048576 letters") as err:
            words.parse_word_ast(text)
        assert err.value.position == position
    assert _letters("u^" + "0" * 5000 + "3", "u") == [0, 0, 0]
    assert _letters("u^1048576", "u") == [0] * 1048576


def test_letters_expansion():
    assert _letters("u^2*v", "uv") == [0, 0, 2]
    assert _letters("u^-2", "uv") == [1, 1]
    assert _letters("(u^3*v)^2", "uv") == [0, 0, 0, 2, 0, 0, 0, 2]
    assert _letters("e", "uv") == []


def test_letters_unknown_generator():
    with pytest.raises(ParseError) as err:
        _letters("u*w", "uv")
    assert "w" in str(err.value)


def test_cycles_rejected_in_generator_words():
    with pytest.raises(ParseError):
        _letters("(1,2)", "uv")


def test_reduction():
    raw = _letters("u*v*v^-1*u^-1*v", "uv")
    assert words.free_reduce(raw) == [2]
    assert words.cyclically_reduce(_letters("v*u^2*v^-1", "uv")) == [0, 0]
    assert words.cyclically_reduce(_letters("u*u^-1", "uv")) == []


def test_word_text():
    letters = _letters("u^2*v^-3*u", "uv")
    assert letters == [0, 0, 3, 3, 3, 0]
    assert words.word_text(letters, ["u", "v"]) == "u^2*v^-3*u"
    assert words.word_text((), ["u", "v"]) == "e"


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(0, 5), max_size=16))
def test_reductions_and_inversion(w):
    # letters on up to 3 generators: 2g for generator g, 2g+1 for its inverse
    reduced = words.cyclically_reduce(w)
    assert words.cyclically_reduce(reduced) == reduced
    assert words.invert_letters(words.invert_letters(w)) == w
    assert words.free_reduce(w + words.invert_letters(w)) == []


def test_evaluate_integers():
    # additive model: mul is +, inv is -, identity 0
    ast = words.parse_word_ast("p^3*(q*p)^-1")
    value = words.evaluate(
        ast,
        mul=lambda a, b: a + b,
        identity=0,
        inv=lambda a: -a,
        resolve={"p": 1, "q": 10}.get,
    )
    assert value == 3 - 11


def test_split_top_level():
    assert words.split_top_level("a*x,x", ",") == [("a*x", 0), ("x", 4)]
    parts = words.split_top_level("(1,2,3),(2,4,3)", ",")
    assert [p for p, _ in parts] == ["(1,2,3)", "(2,4,3)"]
    with pytest.raises(ParseError):
        words.split_top_level("(a,b", ",")
    with pytest.raises(ParseError):
        words.split_top_level("a)b", ",")
