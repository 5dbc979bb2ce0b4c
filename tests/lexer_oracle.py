"""Reference lexer for tests: the character loop that ``words.tokenize``
replaced.

``oracle_tokenize`` walks the text one character at a time and returns
(kind, text, pos) triples with absolute positions, or raises
``ParseError`` at the first character no token can take.  An opening
``(`` starts a cycle token when the next non-space character is a digit;
chained cycles such as ``(1,2) (3,4)`` form one token.  Digits are the
characters ``str.isdigit`` accepts, a superset of what ``int()`` reads,
so compare it with ``tokenize`` on ASCII text only.  It shares nothing
with ``words`` beyond ``ParseError``.
"""

from cayleyclass.words import ParseError

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789")
_SYMBOLS = {")": "RPAREN", "*": "STAR", "^": "CARET", "-": "MINUS"}


def oracle_tokenize(text, offset=0):
    tokens = []
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
            tokens.append(("NAME", text[i:j], pos))
            i = j
        elif ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], pos))
            i = j
        elif ch == "(":
            if _next_nonspace_is_digit(text, i + 1):
                j = _scan_cycles(text, i, offset)
                tokens.append(("CYCLES", text[i:j], pos))
                i = j
            else:
                tokens.append(("LPAREN", ch, pos))
                i += 1
        elif ch in _SYMBOLS:
            tokens.append((_SYMBOLS[ch], ch, pos))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    return tokens


def _scan_cycles(text, i, offset):
    """End of the cycle token that starts at ``text[i] == '('``."""
    n = len(text)
    while True:
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
        k = i
        while k < n and text[k].isspace():
            k += 1
        if k < n and text[k] == "(" and _next_nonspace_is_digit(text, k + 1):
            i = k
            continue
        return i


def _next_nonspace_is_digit(text, i):
    while i < len(text) and text[i].isspace():
        i += 1
    return i < len(text) and text[i].isdigit()
