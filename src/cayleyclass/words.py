r"""Parsing of element expressions and presentation words.

One grammar serves both group-element expressions (``a^2*x``,
``(1,2)(3,4)``) and the relator words of presentations
(``u^2*(u^3*v)^3``)::

    word   := factor ('*' factor)*
    factor := atom ('^' ['-'] INT)?
    atom   := NAME | CYCLES | '(' word ')'

The tokens are the patterns below, and every parser of the package
scans with them:

    NAME   := [A-Za-z_][A-Za-z0-9_]*     (ASCII only)
    INT    := \d+                        (the digits int() reads)
    CYCLE  := '(' \s* \d [\d,\s]* ')'
    CYCLES := CYCLE (\s* CYCLE)*

So an opening ``(`` starts a cycle token exactly when the next non-space
character is a digit, otherwise it groups a subword.  Spaces between
tokens are skipped.  The name ``e`` is reserved for the identity.  An
exponent with more significant digits than ``MAX_WORD_LETTERS`` has
exceeds that bound, and is refused before ``int()`` reads it.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Mapping, NamedTuple, Sequence

IDENTITY_NAME = "e"
SYLLABLE_SEPARATOR = "*"
# the most letters a presentation word may expand to
MAX_WORD_LETTERS = 1 << 20

NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
INT = re.compile(r"\d+")
CYCLE = re.compile(r"\(\s*\d[\d,\s]*\)")
CYCLES = re.compile(rf"{CYCLE.pattern}(?:\s*{CYCLE.pattern})*")

# a '(' that opens no cycle list is a grouping parenthesis
_TOKEN = re.compile(
    rf"\s*(?:(?P<NAME>{NAME.pattern})|(?P<INT>{INT.pattern})|(?P<STAR>\*)|(?P<CARET>\^)"
    rf"|(?P<CYCLES>{CYCLES.pattern})|(?P<LPAREN>\((?!\s*\d))|(?P<RPAREN>\))|(?P<MINUS>-))"
)
_CYCLE_BODY = re.compile(r"[\d,\s]*")


class ParseError(ValueError):
    """Syntax error with the offending position in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Token(NamedTuple):
    kind: str
    text: str
    pos: int


def tokenize(text: str, offset: int = 0) -> list[Token]:
    """Lex a word into NAME/CYCLES/INT/symbol tokens (positions absolute)."""
    return [Token(*token) for token in _lex(text, offset)]


def _lex(text: str, offset: int) -> list[tuple[str, str, int]]:
    """The tokens as plain (kind, text, pos) tuples, which the parser
    reads: a tuple is several times cheaper to make than a Token."""
    tokens = []
    pos, end = 0, len(text)
    while pos < end:
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise _lex_error(text, pos, offset)
            break
        kind = match.lastgroup
        tokens.append((kind, match[kind], offset + match.start(kind)))
        pos = match.end()
    return tokens


def _lex_error(text: str, pos: int, offset: int) -> ParseError:
    """The error at the first non-space character from pos, where no
    token matches: a cycle list that breaks, or a stray character."""
    pos = len(text) - len(text[pos:].lstrip())
    if text[pos] != "(":
        return ParseError(f"unexpected character {text[pos]!r}", offset + pos)
    # a digit follows this '(', so only a character outside [\d,\s] or
    # the end of the text can stop the list before its ')'
    end = _CYCLE_BODY.match(text, pos + 1).end()
    if end == len(text):
        return ParseError("unterminated cycle", offset + pos)
    return ParseError(f"invalid character {text[end]!r} in cycle", offset + end)


# AST nodes: ("name", text, pos) | ("cycles", text, pos) | ("word", factors)
# where factors is a list of (node, exponent, pos), pos being where the
# exponent's integer starts, or the atom's position when it has none.


def parse_word_ast(text: str, offset: int = 0):
    tokens = _lex(text, offset)
    if not tokens:
        raise ParseError("empty word", offset)
    ast, k = _parse_word(tokens, 0)
    if k != len(tokens):
        _, token, pos = tokens[k]
        raise ParseError(f"unexpected {token!r}", pos)
    return ast


def _parse_word(tokens: list[tuple[str, str, int]], k: int):
    factors = []
    node, k = _parse_factor(tokens, k)
    factors.append(node)
    while k < len(tokens) and tokens[k][0] == "STAR":
        node, k = _parse_factor(tokens, k + 1)
        factors.append(node)
    return ("word", factors), k


def _parse_factor(tokens: list[tuple[str, str, int]], k: int):
    if k >= len(tokens):
        _, token, pos = tokens[-1]
        raise ParseError("unexpected end of word", pos + len(token))
    kind, token, pos = tokens[k]
    if kind == "NAME":
        atom = ("name", token, pos)
        k += 1
    elif kind == "CYCLES":
        atom = ("cycles", token, pos)
        k += 1
    elif kind == "LPAREN":
        atom, k = _parse_word(tokens, k + 1)
        if k >= len(tokens) or tokens[k][0] != "RPAREN":
            raise ParseError("expected ')'", pos)
        k += 1
    else:
        raise ParseError(f"unexpected {token!r}", pos)
    exponent = 1
    if k < len(tokens) and tokens[k][0] == "CARET":
        k += 1
        sign = 1
        if k < len(tokens) and tokens[k][0] == "MINUS":
            sign = -1
            k += 1
        if k >= len(tokens) or tokens[k][0] != "INT":
            where = tokens[k][2] if k < len(tokens) else tokens[-1][2] + 1
            raise ParseError("expected integer exponent", where)
        _, digits, pos = tokens[k]
        # more significant digits than the bound has make an exponent past
        # it, refused before int() reads them
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(MAX_WORD_LETTERS)):
            raise ParseError(f"word expands past {MAX_WORD_LETTERS} letters", pos)
        exponent = sign * int(digits)
        k += 1
    return (atom, exponent, pos), k


def evaluate(ast, *, mul, identity, inv, resolve: Callable[[str], object]):
    """Evaluate a word AST in a group given by mul/identity/inv.

    ``resolve`` maps a base name (or cycle token) to an element, or None
    when unknown; the reserved name ``e`` falls back to the identity.
    """
    kind = ast[0]
    if kind != "word":
        raise ValueError(f"not a word AST: {kind}")
    value = identity
    for node, exponent, pos in ast[1]:
        base = _evaluate_atom(node, mul=mul, identity=identity, inv=inv, resolve=resolve)
        value = mul(value, power(base, exponent, mul, identity, inv))
    return value


def _evaluate_atom(node, *, mul, identity, inv, resolve):
    kind = node[0]
    if kind == "word":
        return evaluate(node, mul=mul, identity=identity, inv=inv, resolve=resolve)
    text, pos = node[1], node[2]
    value = resolve(text)
    if value is None:
        if text == IDENTITY_NAME:
            return identity
        raise ParseError(f"unknown name {text!r}", pos)
    return value


def power(value, exponent: int, mul, identity, inv):
    """value to the exponent by squaring; a negative exponent inverts."""
    if exponent < 0:
        value = inv(value)
        exponent = -exponent
    result = identity
    while exponent:
        if exponent & 1:
            result = mul(result, value)
        value = mul(value, value)
        exponent >>= 1
    return result


def ast_to_letters(ast, generator_index: Mapping[str, int]) -> list[int]:
    """Flatten a word AST to letters: 2g for generator g and 2g+1 for its
    inverse, so ``x ^ 1`` inverts a letter.

    Cycle tokens are rejected: presentation words are over declared
    generator names only.  The reserved name ``e`` is the empty word.
    A word that would expand past ``MAX_WORD_LETTERS`` letters is
    refused at the exponent that takes it there, before its letters are
    built, nested powers included.
    """
    kind = ast[0]
    if kind != "word":
        raise ValueError(f"not a word AST: {kind}")
    letters: list[int] = []
    for node, exponent, pos in ast[1]:
        base = _atom_letters(node, generator_index)
        if exponent < 0:
            base = invert_letters(base)
            exponent = -exponent
        if len(letters) + len(base) * exponent > MAX_WORD_LETTERS:
            raise ParseError(f"word expands past {MAX_WORD_LETTERS} letters", pos)
        letters.extend(base * exponent)
    return letters


def _atom_letters(node, generator_index: Mapping[str, int]) -> list[int]:
    kind = node[0]
    if kind == "word":
        return ast_to_letters(node, generator_index)
    text, pos = node[1], node[2]
    if kind == "cycles":
        raise ParseError("cycle notation is not a generator name", pos)
    if text in generator_index:
        return [2 * generator_index[text]]
    if text == IDENTITY_NAME:
        return []
    raise ParseError(f"unknown generator {text!r}", pos)


def invert_letters(letters: Sequence[int]) -> list[int]:
    return [x ^ 1 for x in reversed(letters)]


def free_reduce(letters: Sequence[int]) -> list[int]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return out


def cyclically_reduce(letters: Sequence[int]) -> list[int]:
    out = free_reduce(letters)
    while len(out) >= 2 and out[0] == out[-1] ^ 1:
        out = out[1:-1]
    return out


def power_text(name: str, exp: int) -> str:
    """One power: ``name`` for exponent 1, else ``name^exp``."""
    return name if exp == 1 else f"{name}^{exp}"


def word_text(letters: Sequence[int], names: Sequence[str]) -> str:
    """A freely reduced word spelled with each run of one letter as a
    power of its generator, ``u^2*v^-3*u``; the empty word is ``e``."""
    if not letters:
        return IDENTITY_NAME
    return SYLLABLE_SEPARATOR.join(
        power_text(names[x >> 1], len(list(run)) * (-1 if x & 1 else 1))
        for x, run in itertools.groupby(letters)
    )


def split_top_level(text: str, sep: str, offset: int = 0) -> list[tuple[str, int]]:
    """Split on ``sep`` outside parentheses; returns (part, offset) pairs."""
    parts: list[tuple[str, int]] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", offset + i)
        elif ch == sep and depth == 0:
            parts.append((text[start:i], offset + start))
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced '('", offset + len(text))
    parts.append((text[start:], offset + start))
    return parts
