"""Group presentations: parsing, Todd-Coxeter coset enumeration over the
trivial subgroup, and homomorphism / mutual-inverse verification.

The enumeration is the HLT (relator-tracing) strategy with immediate
coincidence processing via union-find on cosets; scan order is
deterministic (cosets ascending, relators in declaration order), so a
given presentation always yields the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from . import words
from .groups import FiniteGroup
from .words import ParseError

DEFAULT_MAX_COSETS = 65536
EXPECTED_ORDER_FACTOR = 16


class CosetLimitExceeded(Exception):
    """Enumeration grew past max_cosets; retry with a larger cap."""

    def __init__(self, max_cosets: int):
        super().__init__(f"coset enumeration exceeded {max_cosets} cosets")
        self.max_cosets = max_cosets


@dataclass(frozen=True)
class Word:
    """Word in the generators, as (generator index, exponent) syllables."""

    syllables: tuple[tuple[int, int], ...]

    def letters(self) -> list[tuple[int, int]]:
        return words.syllables_to_letters(self.syllables)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def text(self, names: Sequence[str]) -> str:
        return words.syllables_text(self.syllables, names)


@dataclass(frozen=True)
class Presentation:
    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]
    descriptor: str

    def text(self) -> str:
        """Normalized presentation text; parse(text()) round-trips."""
        rels = ", ".join(r.text(self.generator_names) for r in self.relators)
        return f"<{','.join(self.generator_names)} | {rels}>"


def parse_presentation(text: str) -> Presentation:
    """Parse ``<names | relation, relation, ...>`` presentation text.

    A relation is a word, or ``w1=w2`` which is stored as the relator
    w1*w2^-1.  Relators are normalized: exponents expanded, freely and
    cyclically reduced.
    """
    stripped = text.strip()
    if not stripped.startswith("<") or not stripped.endswith(">"):
        raise ParseError("presentation must be enclosed in <...>", 0)
    open_pos = text.index("<")
    close_pos = text.rindex(">")
    body = text[open_pos + 1 : close_pos]
    bar = body.find("|")
    if bar < 0:
        raise ParseError("presentation needs a '|' between generators and relators", close_pos)
    names_part = body[:bar]
    names: list[str] = []
    for part, offset in words.split_top_level(names_part, ",", open_pos + 1):
        name = part.strip()
        if not name:
            raise ParseError("empty generator name", offset)
        if not all(c in words._NAME_CHARS for c in name) or name[0] not in words._NAME_START:
            raise ParseError(f"invalid generator name {name!r}", offset)
        if name == words.IDENTITY_NAME:
            raise ParseError("'e' is reserved for the identity", offset)
        if name in names:
            raise ParseError(f"duplicate generator name {name!r}", offset)
        names.append(name)
    gen_index = {name: i for i, name in enumerate(names)}

    relators: list[Word] = []
    rel_offset = open_pos + 1 + bar + 1
    parts = words.split_top_level(body[bar + 1 :], ",", rel_offset)
    if len(parts) == 1 and not parts[0][0].strip():
        parts = []  # explicitly empty relator list
    for part, offset in parts:
        if not part.strip():
            raise ParseError("empty relation", offset)
        sides = words.split_top_level(part, "=", offset)
        if len(sides) > 2:
            raise ParseError("chained '=' is not supported; split the relation", sides[2][1])
        left_text, left_off = sides[0]
        letters = words.ast_to_letters(words.parse_word_ast(left_text, left_off), gen_index)
        if len(sides) == 2:
            right_text, right_off = sides[1]
            rhs = words.ast_to_letters(words.parse_word_ast(right_text, right_off), gen_index)
            letters = letters + words.invert_letters(rhs)
        reduced = words.cyclically_reduce(letters)
        relators.append(Word(words.letters_to_syllables(reduced)))
    return Presentation(tuple(names), tuple(relators), text.strip())


def pi_presentation(n: int, variant: int) -> Presentation:
    """The two-generator presentations attached to the dicyclic group of
    order 4n: variant 1 for every n, variants 0 and n for odd n only."""
    if n < 2:
        raise ValueError(f"requires n >= 2, got {n}")
    if variant == 1:
        text = f"<u,v | u^2=v^2, u^4, u^2*(u^3*v)^{n}>"
    elif variant == 0:
        if n % 2 == 0:
            raise ValueError("variant 0 requires odd n")
        text = f"<u,v | u^2=v^2, u^4, u^2*(u*v)^{n}>"
    elif variant == n:
        if n % 2 == 0:
            raise ValueError("variant n requires odd n")
        text = f"<b,y | b^{n}, y^4, y^-1*b*y=b^-1>"
    else:
        raise ValueError(f"variant must be 0, 1 or n={n}, got {variant}")
    return parse_presentation(text)


# ---------------------------------------------------------------------------
# Todd-Coxeter


class _Enumeration:
    """HLT coset enumeration state over the trivial subgroup."""

    def __init__(self, ngens: int, max_cosets: int):
        self.ncols = 2 * ngens  # column 2i is generator i, 2i+1 its inverse
        self.max_cosets = max_cosets
        self.table: list[list[Optional[int]]] = [[None] * self.ncols]
        self.p = [0]  # union-find, p[i] <= i

    def rep(self, k: int) -> int:
        root = k
        while self.p[root] != root:
            root = self.p[root]
        while self.p[k] != root:
            self.p[k], k = root, self.p[k]
        return root

    def define(self, alpha: int, col: int) -> None:
        if len(self.table) >= self.max_cosets:
            raise CosetLimitExceeded(self.max_cosets)
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.table[alpha][col] = beta
        self.table[beta][col ^ 1] = alpha

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        self.p[hi] = lo
        queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        queue: list[int] = []
        self._merge(a, b, queue)
        head = 0
        while head < len(queue):
            gamma = queue[head]
            head += 1
            row = self.table[gamma]
            for col in range(self.ncols):
                delta = row[col]
                if delta is None:
                    continue
                # detach the mirror entry, then re-route through representatives
                self.table[delta][col ^ 1] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                existing = self.table[mu][col]
                if existing is not None:
                    self._merge(nu, existing, queue)
                elif self.table[nu][col ^ 1] is not None:
                    self._merge(mu, self.table[nu][col ^ 1], queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][col ^ 1] = mu

    def scan_and_fill(self, alpha: int, word_cols: Sequence[int]) -> None:
        f, i = alpha, 0
        b, j = alpha, len(word_cols) - 1
        while True:
            table = self.table
            while i <= j and table[f][word_cols[i]] is not None:
                f = table[f][word_cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and table[b][word_cols[j] ^ 1] is not None:
                b = table[b][word_cols[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                # deduction closes the scan
                table[f][word_cols[i]] = b
                table[b][word_cols[i] ^ 1] = f
                return
            self.define(f, word_cols[i])


def _relator_columns(relator: Word) -> list[int]:
    return [2 * g if s > 0 else 2 * g + 1 for g, s in relator.letters()]


def todd_coxeter(
    presentation: Presentation,
    max_cosets: Optional[int] = None,
    expected_order: Optional[int] = None,
) -> FiniteGroup:
    """Realize a finite presentation as a concrete group.

    Elements are the live cosets of the trivial subgroup; element names
    are shortest positive words from the identity coset, so generator
    images are available by name.  Raises CosetLimitExceeded if the
    table grows past max_cosets (default 16x the expected order when
    given, else 65536) -- a retryable signal, not a failure.
    """
    if max_cosets is None:
        max_cosets = (
            EXPECTED_ORDER_FACTOR * expected_order if expected_order else DEFAULT_MAX_COSETS
        )
    if max_cosets < 1:
        raise ValueError(f"max_cosets must be >= 1, got {max_cosets}")
    ngens = len(presentation.generator_names)
    relator_cols = [_relator_columns(r) for r in presentation.relators if r.syllables]
    enum = _Enumeration(ngens, max_cosets)
    alpha = 0
    while alpha < len(enum.table):
        if enum.p[alpha] == alpha:
            for cols in relator_cols:
                enum.scan_and_fill(alpha, cols)
                if enum.p[alpha] != alpha:
                    break
            if enum.p[alpha] == alpha:
                for col in range(enum.ncols):
                    if enum.table[alpha][col] is None:
                        enum.define(alpha, col)
        alpha += 1

    live = [k for k in range(len(enum.table)) if enum.p[k] == k]
    renumber = {old: new for new, old in enumerate(live)}
    ncols = enum.ncols
    table = [
        [renumber[enum.rep(enum.table[old][col])] for col in range(ncols)] for old in live
    ]
    order = len(live)
    # closed-table sanity: well-defined inverses and relators tracing home
    for c in range(order):
        for col in range(ncols):
            if table[table[c][col]][col ^ 1] != c:
                raise RuntimeError("coset table is not closed under inverses")
    for cols in relator_cols:
        for c in range(order):
            cursor = c
            for col in cols:
                cursor = table[cursor][col]
            if cursor != c:
                raise RuntimeError("closed coset table fails a relator trace")

    # breadth-first words over positive generator columns name the cosets
    parent_word: list[Optional[tuple[int, ...]]] = [None] * order
    parent_word[0] = ()
    queue = [0]
    head = 0
    while head < len(queue):
        c = queue[head]
        head += 1
        for g in range(ngens):
            d = table[c][2 * g]
            if parent_word[d] is None:
                parent_word[d] = parent_word[c] + (g,)
                queue.append(d)
    if any(w is None for w in parent_word):
        raise RuntimeError("coset table is not transitive on live cosets")
    coset_words: list[tuple[int, ...]] = parent_word  # type: ignore[assignment]

    def mul(a: int, b: int) -> int:
        cursor = a
        for g in coset_words[b]:
            cursor = table[cursor][2 * g]
        return cursor

    def inv(a: int) -> int:
        cursor = 0
        for g in reversed(coset_words[a]):
            cursor = table[cursor][2 * g + 1]
        return cursor

    names = [
        words.syllables_text(
            words.letters_to_syllables([(g, 1) for g in w]), presentation.generator_names
        )
        for w in coset_words
    ]
    generators = [
        (name, table[0][2 * g]) for g, name in enumerate(presentation.generator_names)
    ]
    seen: dict[str, int] = {}
    for name, g in generators:
        seen.setdefault(name, g)
    return FiniteGroup(
        order,
        mul,
        inv,
        names,
        f"coset:{presentation.text()}",
        list(seen.items()),
    )


# ---------------------------------------------------------------------------
# homomorphism checks


def check_homomorphism(
    presentation: Presentation, group: FiniteGroup, assignment: Mapping[str, int]
) -> bool:
    """True iff every relator evaluates to the identity under the
    generator assignment (so the assignment extends to a morphism)."""
    missing = [n for n in presentation.generator_names if n not in assignment]
    if missing:
        raise ValueError(f"assignment missing generators: {missing}")
    for relator in presentation.relators:
        value = group.identity
        for g, s in relator.letters():
            image = assignment[presentation.generator_names[g]]
            value = group.mul(value, image if s > 0 else group.inv(image))
        if value != group.identity:
            return False
    return True


def _evaluate_with(group: FiniteGroup, text: str, mapping: Mapping[str, int]) -> int:
    ast = words.parse_word_ast(text)
    return words.evaluate(
        ast,
        mul=group.mul,
        identity=group.identity,
        inv=group.inv,
        resolve=mapping.get,
    )


def verify_mutual_inverse(
    group: FiniteGroup,
    presentation: Presentation,
    phi: Mapping[str, str],
    psi: Mapping[str, str],
    *,
    group_presentation: Optional[Presentation] = None,
    realized: Optional[FiniteGroup] = None,
    max_cosets: Optional[int] = None,
) -> bool:
    """Certify that phi: G -> <P> and psi: <P> -> G are mutually inverse.

    phi maps G's generator names to words in P's generators; psi maps
    P's generator names to words in G's generators.  The presentation
    is realized via todd_coxeter (pass ``realized`` to reuse an
    enumeration).  Both maps must be relation-preserving: psi against
    P's relators in G, and phi against ``group_presentation`` (when
    given) in the realized group.  On success the two orders are
    asserted equal.
    """
    ph = realized or todd_coxeter(
        presentation, max_cosets=max_cosets, expected_order=group.order
    )
    psi_assignment = {name: _evaluate_with(group, psi[name], group.named_elements)
                      for name in presentation.generator_names}
    if not check_homomorphism(presentation, group, psi_assignment):
        return False
    phi_assignment = {name: _evaluate_with(ph, phi[name], ph.named_elements)
                      for name in (n for n, _ in group.generators)}
    if group_presentation is not None:
        if list(group_presentation.generator_names) != [n for n, _ in group.generators]:
            raise ValueError("group presentation generators do not match the group's")
        if not check_homomorphism(group_presentation, ph, phi_assignment):
            return False
    # psi(phi(g)) = g for G's generators, evaluated in G
    for name, g in group.generators:
        if _evaluate_with(group, phi[name], psi_assignment) != g:
            return False
    # phi(psi(p)) = p for P's generators, evaluated in the realized group
    for name in presentation.generator_names:
        if _evaluate_with(ph, psi[name], phi_assignment) != ph.named_elements[name]:
            return False
    if group.order != ph.order:
        raise AssertionError("mutually inverse morphisms forced equal orders")
    return True
