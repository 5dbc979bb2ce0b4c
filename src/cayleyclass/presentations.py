"""Group presentations: parsing, Todd-Coxeter coset enumeration over the
trivial subgroup, and homomorphism / mutual-inverse verification.

The enumeration is the HLT (relator-tracing) strategy with immediate
coincidence processing via union-find on cosets; scan order is
deterministic (cosets ascending, relators in declaration order), so a
given presentation always yields the same table.  An involution (a
generator with a g^2 or g^-2 relator) has one column for g and g^-1.
A relator is not scanned at a coset one step away from a smaller live
coset when that step is a letter by which a one-letter rotation of the
relator or its inverse is again the relator or its inverse (both
letters of (s*t)^m over involutions, a and a^-1 in a^m): the smaller
coset was scanned completely, so the relator already holds on a defined
path and the scan would change nothing.  For the Coxeter presentation
of S8 that leaves 193,968 of 846,720 scans, with the same cosets
defined.  ``max_cosets`` counts every coset defined, including merged
ones.
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
    """HLT coset enumeration state over the trivial subgroup.

    ``inv[col]`` is the column of the inverse letter of column ``col``;
    an involution's one column is its own inverse.
    """

    def __init__(self, inv: list[int], max_cosets: int):
        self.inv = inv
        self.ncols = len(inv)
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
        self.table[beta][self.inv[col]] = alpha

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        self.p[hi] = lo
        queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        table, inv = self.table, self.inv
        queue: list[int] = []
        self._merge(a, b, queue)
        head = 0
        while head < len(queue):
            gamma = queue[head]
            head += 1
            row = table[gamma]
            for col in range(self.ncols):
                delta = row[col]
                if delta is None:
                    continue
                # detach the mirror entry, then re-route through representatives
                back = inv[col]
                table[delta][back] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                existing = table[mu][col]
                if existing is not None:
                    self._merge(nu, existing, queue)
                elif table[nu][back] is not None:
                    self._merge(mu, table[nu][back], queue)
                else:
                    table[mu][col] = nu
                    table[nu][back] = mu

    def scan_and_fill(self, alpha: int, word_cols: Sequence[int]) -> None:
        table, inv = self.table, self.inv
        f, i = alpha, 0
        b, j = alpha, len(word_cols) - 1
        while True:
            while i <= j and table[f][word_cols[i]] is not None:
                f = table[f][word_cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and table[b][inv[word_cols[j]]] is not None:
                b = table[b][inv[word_cols[j]]]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                # deduction closes the scan
                table[f][word_cols[i]] = b
                table[b][inv[word_cols[i]]] = f
                return
            self.define(f, word_cols[i])


def _letter_indices(letters: Sequence[tuple[int, int]]) -> list[int]:
    """Letter indices of a word: 2g for generator g, 2g+1 for its inverse."""
    return [2 * g if s > 0 else 2 * g + 1 for g, s in letters]


def _involution(letters: Sequence[tuple[int, int]]) -> Optional[int]:
    """The generator g if the word cyclically reduces to g^2 or g^-2."""
    reduced = words.cyclically_reduce(letters)
    if len(reduced) == 2 and reduced[0] == reduced[1]:
        return reduced[0][0]
    return None


def _symmetry_columns(cols: Sequence[int], inv: Sequence[int]) -> set[int]:
    """Columns x such that the relator w (as columns) holds at a coset
    whenever it holds at the coset one x-step away.

    w = c_0..c_{L-1} holds at a coset iff its rotation c_1..c_{L-1}c_0
    holds one c_0-step on, and iff c_{L-1}c_0..c_{L-2} holds one
    inverse-c_{L-1}-step on; w holds wherever w^-1 does.  So c_0
    qualifies when that rotation is w or w^-1, and so does the inverse
    of c_{L-1} for the other rotation: both letters of (s*t)^m over
    involution columns, a and a^-1 in a^m.
    """
    n = len(cols)
    if cols.count(cols[0]) == n:  # every rotation of w is w
        return {cols[0], inv[cols[0]]}
    # otherwise a rotation can only be w^-1, which starts with inv(c_{L-1})
    head = inv[cols[-1]]
    if head != cols[1] and head != cols[-1]:
        return set()
    cols = list(cols)
    inverse = [inv[c] for c in reversed(cols)]
    found = set()
    if cols[1:] + cols[:1] == inverse:
        found.add(cols[0])
    if cols[-1:] + cols[:-1] == inverse:
        found.add(head)
    return found


def _relator_trace(table: Sequence[list[int]], letters: Sequence[int]) -> list[int]:
    """The map c -> c*w of a closed column-major table, for the relator w
    given by letter indices (``table[x][c]`` is c times letter x).

    w = u^m with u its shortest root is traced as u once, and that map
    is raised to the m-th power by squaring: a^512 takes 9 column maps
    instead of 511.
    """
    # the least rotation that maps a word onto itself is its root's length
    spelled = "".join(map(chr, letters))
    root = (spelled + spelled).find(spelled, 1)
    cursor = table[letters[0]]
    for x in letters[1:root]:
        cursor = list(map(table[x].__getitem__, cursor))
    power = None
    m = len(letters) // root
    while True:
        if m & 1:
            power = cursor if power is None else list(map(cursor.__getitem__, power))
        m >>= 1
        if not m:
            return power
        cursor = list(map(cursor.__getitem__, cursor))


def todd_coxeter(
    presentation: Presentation,
    max_cosets: Optional[int] = None,
    expected_order: Optional[int] = None,
) -> FiniteGroup:
    """Realize a finite presentation as a concrete group.

    Elements are the live cosets of the trivial subgroup; element names
    are shortest positive words from the identity coset, so generator
    images are available by name.  A generator with a relator that
    cyclically reduces to g^2 or g^-2 gets one table column for g and
    g^-1, and that relator is neither scanned nor traced.  Scans
    that a relator's own symmetry already closes are skipped (see the
    module docstring); they would define and deduce nothing, so the
    table and the point where max_cosets trips are those of scanning
    every relator at every coset.  The closed table's columns are
    checked to be mutually inverse, which for an involution's shared
    column is g^2 = e, and every other relator is traced, as a power of
    its shortest root.
    Element indices follow the order in which the live cosets were
    defined, so they depend on the table's columns: an involution's
    shared column numbers the elements differently from a two-column
    enumeration.  Names and the action of each generator on them do not
    depend on it; the identity is always element 0.  Raises
    CosetLimitExceeded once max_cosets cosets have been defined, live
    or not (default 16x the expected order when given, else 65536) --
    a retryable signal, not a failure.
    """
    if expected_order is not None and expected_order < 1:
        raise ValueError(f"expected_order must be >= 1, got {expected_order}")
    if max_cosets is None:
        max_cosets = (
            EXPECTED_ORDER_FACTOR * expected_order if expected_order else DEFAULT_MAX_COSETS
        )
    if max_cosets < 1:
        raise ValueError(f"max_cosets must be >= 1, got {max_cosets}")
    ngens = len(presentation.generator_names)
    relators = [r.letters() for r in presentation.relators if r.syllables]
    squares = [_involution(letters) for letters in relators]
    letter_col: list[int] = []  # letter index -> enumeration column
    inv: list[int] = []
    for g in range(ngens):
        col = len(inv)
        if g in squares:
            letter_col += [col, col]
            inv.append(col)
        else:
            letter_col += [col, col + 1]
            inv += [col + 1, col]
    relator_letters = [_letter_indices(letters) for letters in relators]
    scan_cols = [
        [letter_col[x] for x in letters]
        for letters, square in zip(relator_letters, squares)
        if square is None  # a g^2 relator holds by construction
    ]
    # covers[col]: the relators (indices into scan_cols) that hold at a
    # coset as soon as they hold at the coset one col-step away
    covers: dict[int, set[int]] = {}
    for r, cols in enumerate(scan_cols):
        for col in _symmetry_columns(cols, inv):
            covers.setdefault(col, set()).add(r)
    covering = [(col, 1 << k) for k, col in enumerate(covers)]
    # a coset's key has the bit of each covering column that steps down
    # to a smaller coset; keys below 256 are cached ints, so the loop
    # allocates nothing per coset
    pending: dict[int, list[list[int]]] = {}  # key -> relators to scan
    enum = _Enumeration(inv, max_cosets)
    table, p = enum.table, enum.p
    scan, define = enum.scan_and_fill, enum.define
    alpha = 0
    while alpha < len(table):
        if p[alpha] == alpha:
            # a relator covered by a step to a smaller coset (live, as every
            # entry of a live row is), which was scanned completely, holds
            # at alpha on a defined path: skip it
            row = table[alpha]
            key = 0
            for col, bit in covering:
                delta = row[col]
                if delta is not None and delta < alpha:
                    key |= bit
            todo = pending.get(key)
            if todo is None:
                skip = set().union(*(covers[col] for col, bit in covering if key & bit))
                todo = pending[key] = [
                    cols for r, cols in enumerate(scan_cols) if r not in skip
                ]
            for cols in todo:
                scan(alpha, cols)
                if p[alpha] != alpha:
                    break
            else:
                for col in range(enum.ncols):
                    if row[col] is None:
                        define(alpha, col)
        alpha += 1

    live: list[int] = []
    renumber: list[int] = []  # a dead coset takes its representative's number
    for k, parent in enumerate(p):
        if parent == k:
            renumber.append(len(live))
            live.append(k)
        else:
            renumber.append(renumber[parent])
    order = len(live)
    columns = [
        list(map(renumber.__getitem__, column))
        for column in zip(*(table[k] for k in live))
    ]
    # free the enumeration before the column-wise checks build their lists
    del enum, table, p, scan, define, row, live, renumber
    # column-major closed table by letter index; an involution's two
    # letters share one list
    table = [columns[col] for col in letter_col]
    # closed-table sanity: well-defined inverses and every relator tracing home
    identity = list(range(order))
    for col, column in enumerate(columns):
        if list(map(columns[inv[col]].__getitem__, column)) != identity:
            raise RuntimeError("coset table is not closed under inverses")
    for letters, square in zip(relator_letters, squares):
        # a g^2 relator, up to conjugation, holds once g's shared column
        # passed the inverse check, which maps it through itself
        if square is None and _relator_trace(table, letters) != identity:
            raise RuntimeError("closed coset table fails a relator trace")

    # breadth-first words over positive generator columns name the cosets;
    # a name extends its parent's, spelled as words.syllables_text spells
    # the whole word: the last syllable's exponent grows by one, or a new
    # syllable follows; cut[c] is where c's last syllable starts
    gen_names = presentation.generator_names
    coset_words: list[Optional[tuple[int, ...]]] = [None] * order
    coset_words[0] = ()
    names = [words.IDENTITY_NAME] * order
    exps = [0] * order
    cut = [0] * order
    queue = [0]
    for c in queue:
        word = coset_words[c]
        last = word[-1] if word else -1
        for g in range(ngens):
            d = table[2 * g][c]
            if coset_words[d] is None:
                coset_words[d] = word + (g,)
                if g == last:
                    head, e = names[c][: cut[c]], exps[c] + 1
                else:
                    head, e = (names[c] + words.SYLLABLE_SEPARATOR if c else ""), 1
                cut[d], exps[d] = len(head), e
                names[d] = head + words.power_text(gen_names[g], e)
                queue.append(d)
    if len(queue) != order:
        raise RuntimeError("coset table is not transitive on live cosets")

    def mul(a: int, b: int) -> int:
        cursor = a
        for g in coset_words[b]:  # type: ignore[union-attr]
            cursor = table[2 * g][cursor]
        return cursor

    def inv_element(a: int) -> int:
        cursor = 0
        for g in reversed(coset_words[a]):  # type: ignore[arg-type]
            cursor = table[2 * g + 1][cursor]
        return cursor

    generators = [(name, table[2 * g][0]) for g, name in enumerate(gen_names)]
    seen: dict[str, int] = {}
    for name, g in generators:
        seen.setdefault(name, g)
    return FiniteGroup(
        order,
        mul,
        inv_element,
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
    ph = realized or todd_coxeter(presentation, expected_order=group.order)
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
