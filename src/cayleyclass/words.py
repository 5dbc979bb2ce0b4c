"""Parsing of element expressions and presentation words.

One grammar serves both group-element expressions (``a^2*x``,
``(1,2)(3,4)``) and the relator words of presentations
(``u^2*(u^3*v)^3``)::

    word   := factor ('*' factor)*
    factor := atom ('^' ['-'] INT)?
    atom   := NAME | CYCLES | '(' word ')'

NAME is an identifier; CYCLES is permutation cycle notation, one or more
parenthesised integer lists such as ``(1,2,3)`` or ``(1,2)(3,4)``.  An
opening ``(`` starts a cycle token exactly when the next non-space
character is a digit, otherwise it groups a subword.  The name ``e`` is
reserved for the identity.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

IDENTITY_NAME = "e"
SYLLABLE_SEPARATOR = "*"

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789")


class ParseError(ValueError):
    """Syntax error with the offending position in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r}, {self.pos})"


def tokenize(text: str, offset: int = 0) -> list[Token]:
    """Lex a word into NAME/CYCLES/INT/symbol tokens (positions absolute)."""
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        pos = offset + i
        if ch in _NAME_START:
            j = i + 1
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(Token("NAME", text[i:j], pos))
            i = j
        elif ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], pos))
            i = j
        elif ch == "(":
            k = i + 1
            while k < n and text[k].isspace():
                k += 1
            if k < n and text[k].isdigit():
                j = _scan_cycles(text, i, offset)
                tokens.append(Token("CYCLES", text[i:j], pos))
                i = j
            else:
                tokens.append(Token("LPAREN", ch, pos))
                i += 1
        elif ch == ")":
            tokens.append(Token("RPAREN", ch, pos))
            i += 1
        elif ch == "*":
            tokens.append(Token("STAR", ch, pos))
            i += 1
        elif ch == "^":
            tokens.append(Token("CARET", ch, pos))
            i += 1
        elif ch == "-":
            tokens.append(Token("MINUS", ch, pos))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    return tokens


def _scan_cycles(text: str, i: int, offset: int) -> int:
    """Scan one cycle-notation token starting at ``text[i] == '('``."""
    n = len(text)
    while True:
        if i >= n or text[i] != "(":
            break
        j = i + 1
        saw_digit = False
        while j < n and text[j] != ")":
            c = text[j]
            if c.isdigit():
                saw_digit = True
            elif c != "," and not c.isspace():
                raise ParseError(f"invalid character {c!r} in cycle", offset + j)
            j += 1
        if j >= n:
            raise ParseError("unterminated cycle", offset + i)
        if not saw_digit:
            raise ParseError("empty cycle", offset + i)
        i = j + 1
        # chained cycles like (1,2)(3,4) form a single token
        k = i
        while k < n and text[k].isspace():
            k += 1
        if k < n and text[k] == "(" and k + 1 < n and _next_nonspace_is_digit(text, k + 1):
            i = k
            continue
        break
    return i


def _next_nonspace_is_digit(text: str, i: int) -> bool:
    while i < len(text) and text[i].isspace():
        i += 1
    return i < len(text) and text[i].isdigit()


# AST nodes: ("name", text, pos) | ("cycles", text, pos) | ("word", factors)
# where factors is a list of (node, exponent, pos).


def parse_word_ast(text: str, offset: int = 0):
    tokens = tokenize(text, offset)
    if not tokens:
        raise ParseError("empty word", offset)
    ast, k = _parse_word(tokens, 0)
    if k != len(tokens):
        tok = tokens[k]
        raise ParseError(f"unexpected {tok.text!r}", tok.pos)
    return ast


def _parse_word(tokens: list[Token], k: int):
    factors = []
    node, k = _parse_factor(tokens, k)
    factors.append(node)
    while k < len(tokens) and tokens[k].kind == "STAR":
        node, k = _parse_factor(tokens, k + 1)
        factors.append(node)
    return ("word", factors), k


def _parse_factor(tokens: list[Token], k: int):
    if k >= len(tokens):
        last = tokens[-1]
        raise ParseError("unexpected end of word", last.pos + len(last.text))
    tok = tokens[k]
    if tok.kind == "NAME":
        atom = ("name", tok.text, tok.pos)
        k += 1
    elif tok.kind == "CYCLES":
        atom = ("cycles", tok.text, tok.pos)
        k += 1
    elif tok.kind == "LPAREN":
        atom, k = _parse_word(tokens, k + 1)
        if k >= len(tokens) or tokens[k].kind != "RPAREN":
            raise ParseError("expected ')'", tok.pos)
        k += 1
    else:
        raise ParseError(f"unexpected {tok.text!r}", tok.pos)
    exponent = 1
    pos = tok.pos
    if k < len(tokens) and tokens[k].kind == "CARET":
        k += 1
        sign = 1
        if k < len(tokens) and tokens[k].kind == "MINUS":
            sign = -1
            k += 1
        if k >= len(tokens) or tokens[k].kind != "INT":
            where = tokens[k].pos if k < len(tokens) else tokens[-1].pos + 1
            raise ParseError("expected integer exponent", where)
        exponent = sign * int(tokens[k].text)
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
        value = mul(value, _power(base, exponent, mul, identity, inv))
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


def _power(value, exponent: int, mul, identity, inv):
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


def ast_to_letters(ast, generator_index: Mapping[str, int]) -> list[tuple[int, int]]:
    """Flatten a word AST to (generator index, +-1) letters.

    Cycle tokens are rejected: presentation words are over declared
    generator names only.  The reserved name ``e`` is the empty word.
    """
    kind = ast[0]
    if kind != "word":
        raise ValueError(f"not a word AST: {kind}")
    letters: list[tuple[int, int]] = []
    for node, exponent, pos in ast[1]:
        base = _atom_letters(node, generator_index)
        if exponent < 0:
            base = invert_letters(base)
            exponent = -exponent
        letters.extend(base * exponent)
    return letters


def _atom_letters(node, generator_index: Mapping[str, int]) -> list[tuple[int, int]]:
    kind = node[0]
    if kind == "word":
        return ast_to_letters(node, generator_index)
    text, pos = node[1], node[2]
    if kind == "cycles":
        raise ParseError("cycle notation is not a generator name", pos)
    if text in generator_index:
        return [(generator_index[text], 1)]
    if text == IDENTITY_NAME:
        return []
    raise ParseError(f"unknown generator {text!r}", pos)


def invert_letters(letters: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(g, -s) for g, s in reversed(letters)]


def free_reduce(letters: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for letter in letters:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return out


def cyclically_reduce(letters: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    out = free_reduce(letters)
    while len(out) >= 2 and out[0][0] == out[-1][0] and out[0][1] == -out[-1][1]:
        out = out[1:-1]
    return out


def letters_to_syllables(letters: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Collapse a letter sequence into (generator, exponent) syllables."""
    syllables: list[tuple[int, int]] = []
    for g, s in letters:
        if syllables and syllables[-1][0] == g:
            merged = syllables[-1][1] + s
            if merged == 0:
                syllables.pop()
            else:
                syllables[-1] = (g, merged)
        else:
            syllables.append((g, s))
    return tuple(syllables)


def syllables_to_letters(syllables: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    letters: list[tuple[int, int]] = []
    for g, exp in syllables:
        sign = 1 if exp > 0 else -1
        letters.extend([(g, sign)] * abs(exp))
    return letters


def power_text(name: str, exp: int) -> str:
    """One syllable: ``name`` for exponent 1, else ``name^exp``."""
    return name if exp == 1 else f"{name}^{exp}"


def syllables_text(syllables: Sequence[tuple[int, int]], names: Sequence[str]) -> str:
    if not syllables:
        return IDENTITY_NAME
    return SYLLABLE_SEPARATOR.join(power_text(names[g], exp) for g, exp in syllables)


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
