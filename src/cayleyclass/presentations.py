"""Group presentations: parsing, Todd-Coxeter coset enumeration, and
homomorphism / mutual-inverse verification.

The enumeration is the HLT (relator-tracing) strategy with immediate
coincidence processing via union-find on cosets; scan order is
deterministic (cosets ascending, relators in declaration order), so a
given presentation always yields the same table.  Each live coset is
scanned against every relator, as in the reference loop of Holt, Eick
and O'Brien (Handbook of Computational Group Theory, 2005, ch. 5).  An
involution (a generator with a g^2 or g^-2 relator) has one column for
g and g^-1.  ``max_cosets`` is the one bound on an enumeration: it
counts every coset defined, including merged ones, and None means
65536.  A caller that knows the order to expect derives a cap from it,
``EXPECTED_ORDER_FACTOR`` times that order: check-presentation for
``--expect`` and ``verify_mutual_inverse`` for the concrete group.

The table is held column by column, one list per column, and each
relator is scanned through prebuilt lists of its letters' columns and
of their inverses', so a scan step reads its entry from a column list
with no letter-to-column or inverse lookup.  A live coset's relators
are scanned in one call, and its undefined entries are then looked for
only in the columns that no relator starts with and that invert no
relator's last letter: a completed scan at a coset that stays alive
defines those two entries, so the other columns are defined already
(S8, a^512 and PSL(2,7) look in none).  The closed table keeps each
column's live entries, renumbered, one column at a time, and a relator
is traced one run of a letter at a time, each power by repeated
squaring.
Two layers sit on it: ``coset_table`` enumerates and checks the closed
table (mutually inverse columns, every relator traced, every coset
reached from coset 0, and each subgroup word, if any, fixing coset 0),
and ``todd_coxeter`` builds a ``FiniteGroup`` on the cosets of the
trivial subgroup, each named ``words.word_text`` of its path from
coset 0 along the table's breadth-first walk, so element names are
spelled by ``words`` alone.
``verify_mutual_inverse`` needs only the order: it proves a morphism
pair in the concrete group and builds no group for the presentation,
and reads the order off one table over <phi(g)>, g the group's first
generator, as ``group_order`` does over <s_1> below.

``group_order``, which check-presentation prints, enumerates over
H = <s_1, ..., s_{k-1}>, all generators but the last, where a proof of
|H| serves (D. F. Holt, B. Eick and E. A. O'Brien, Handbook of
Computational Group Theory, 2005).  H is a quotient of P', the first
k-1 generators with the relators in them alone, so |H| <= b = |P'|,
and the table gives n = [G:H].  For two generators H is cyclic and b
is the gcd of the exponent sums; when n <= b and n^3 is within the
cap, Reidemeister-Schreier on the table presents H, and |H| = |H^ab|
is the index of the lattice its relations span.  For more, b is
``group_order(P')``, and Schreier-Sims on the generators' permutations
of the n cosets reaching n*b proves |G| = n*b (C. C. Sims, 1970); it
is run only when n <= b and n^3 is within the cap, and P' is
enumerated under at most ``EXPECTED_ORDER_FACTOR`` * (n-1)! cosets,
(n-1)! being the most that can serve, since the cosets' permutations
make at most n! elements.  For
the Coxeter presentation of S8 that makes 7 tables (S_m over S_{m-1}
for m = 8, ..., 4, then S3 over <s1> and over the trivial subgroup),
which define 39 cosets in all against 55,119 over the trivial
subgroup; a dicyclic presentation <a,x | a^2n, x^2=a^n, x^-1*a*x=a^-1>
makes one table of 2 cosets.  The trivial subgroup's table decides in
every other case; a failed check raises and never falls back.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from . import words
from .groups import FiniteGroup, StabilizerNode
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
    """Word in the generators, as its letters: 2g for generator g and
    2g+1 for its inverse, the index of ``CosetTable.columns``."""

    letters: tuple[int, ...]

    def text(self, names: Sequence[str]) -> str:
        return words.word_text(self.letters, names)


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
    cyclically reduced.  A relator that would expand past
    ``words.MAX_WORD_LETTERS`` letters, either side alone or both
    joined, is refused with a ParseError.
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
        if not words.NAME.fullmatch(name):
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
            # the relator w1*w2^-1, not each side, is bounded
            if len(letters) + len(rhs) > words.MAX_WORD_LETTERS:
                raise ParseError(f"relator expands past {words.MAX_WORD_LETTERS} letters",
                                 offset + len(part) - len(part.lstrip()))
            letters = letters + words.invert_letters(rhs)
        relators.append(Word(tuple(words.cyclically_reduce(letters))))
    return Presentation(tuple(names), tuple(relators), text.strip())


# ---------------------------------------------------------------------------
# Todd-Coxeter


class _Enumeration:
    """HLT coset enumeration state, held column by column:
    ``columns[col][c]`` is coset c times the letter of column ``col``,
    or None while undefined; the cosets defined are those of the
    union-find list ``p``, and the columns may be longer.

    ``inv[col]`` is the column of the inverse letter of column ``col``,
    and ``pairs`` holds each column beside that one; an involution's
    one column is its own inverse.
    """

    def __init__(self, inv: list[int], max_cosets: int):
        self.max_cosets = max_cosets
        self.columns: list[list[Optional[int]]] = [[None] for _ in inv]
        self.pairs = [(column, self.columns[back]) for column, back in zip(self.columns, inv)]
        self.p = [0]  # union-find, p[i] <= i

    def rep(self, k: int) -> int:
        root = k
        while self.p[root] != root:
            root = self.p[root]
        while self.p[k] != root:
            self.p[k], k = root, self.p[k]
        return root

    def define(self, alpha: int, column: list, back: list) -> None:
        """A new coset beta = alpha * x, where column is x's and back is
        the column of x^-1."""
        beta = len(self.p)
        if beta >= self.max_cosets:
            raise CosetLimitExceeded(self.max_cosets)
        if beta == len(column):
            # every column doubles when full, so a definition appends to p only
            for each in self.columns:
                each.extend([None] * beta)
        self.p.append(beta)
        column[alpha] = beta
        back[beta] = alpha

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
            for column, back in self.pairs:
                delta = column[gamma]
                if delta is None:
                    continue
                # detach the mirror entry, then re-route through representatives
                back[delta] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                existing = column[mu]
                if existing is not None:
                    self._merge(nu, existing, queue)
                elif back[nu] is not None:
                    self._merge(mu, back[nu], queue)
                else:
                    column[mu] = nu
                    back[nu] = mu

    def scan_coset(self, alpha: int, todo: Iterable[tuple[list, list, int]]) -> bool:
        """Scan the relators of todo at alpha in their order, each given
        as the columns of its letters (forward), the columns of their
        inverses (backward) and its last position, until one of them
        merges alpha away; whether alpha still lives."""
        p = self.p
        for forward, backward, last in todo:
            f, i = alpha, 0
            b, j = alpha, last
            while True:
                while i <= j and (step := forward[i][f]) is not None:
                    f = step
                    i += 1
                if i > j:
                    if f != b:
                        self.coincidence(f, b)
                    break
                while j >= i and (step := backward[j][b]) is not None:
                    b = step
                    j -= 1
                if j < i:
                    self.coincidence(f, b)
                    break
                if j == i:
                    # deduction closes the scan
                    forward[i][f] = b
                    backward[i][b] = f
                    break
                self.define(f, forward[i], backward[i])
            if p[alpha] != alpha:
                return False
        return True


def _involution(letters: Sequence[int]) -> Optional[int]:
    """The generator g if the cyclically reduced relator is g^2 or g^-2."""
    if len(letters) == 2 and letters[0] == letters[1]:
        return letters[0] >> 1
    return None


def _power(cursor: list[int], m: int, power: Optional[list[int]] = None) -> list[int]:
    """The map power (the identity when None) followed by cursor m >= 1
    times, by squaring."""
    while True:
        if m & 1:
            power = cursor if power is None else [cursor[c] for c in power]
        m >>= 1
        if not m:
            return power
        cursor = [cursor[c] for c in cursor]


def _root(letters: Sequence[int]) -> tuple[int, int]:
    """The length of the shortest root u of a nonempty word w = u^m,
    given by letter indices, and the exponent m."""
    # the least rotation that maps a word onto itself is its root's length
    spelled = "".join(map(chr, letters))
    root = (spelled + spelled).find(spelled, 1)
    return root, len(letters) // root


def _relator_trace(table: Sequence[list[int]], letters: Sequence[int]) -> list[int]:
    """The map c -> c*w of a closed column-major table, for the relator w
    given by letter indices (``table[x][c]`` is c times letter x).

    w = u^m with u its shortest root is traced as u once, and that map
    is raised to the m-th power by squaring: a^512 takes 9 column maps
    instead of 511.  Each run x^e in u is a power of x's column, taken
    by squaring too: x^2*a^-256 takes 10 column maps instead of 257.
    """
    root, m = _root(letters)
    cursor = None
    for x, run in itertools.groupby(letters[:root]):
        cursor = _power(table[x], len(list(run)), cursor)
    return _power(cursor, m)


def _enumerate(
    inv: list[int],
    scan_cols: Sequence[list[int]],
    max_cosets: int,
    subgroup_cols: Sequence[Sequence[int]] = (),
) -> tuple[list[list[Optional[int]]], list[int]]:
    """Run the HLT enumeration to its end: the enumeration columns and
    the union-find parents of every coset defined.

    Each subgroup word in ``subgroup_cols`` (as columns; none for the
    trivial subgroup) is scanned once at coset 0 first.  Then every
    relator in ``scan_cols`` (as columns) is scanned at each live coset
    in ascending order, in their order, and the coset's undefined
    entries are defined after its scans.  Only the columns that no
    relator starts with and that invert no relator's last letter can
    still be undefined there: a completed scan at a coset that outlived
    its scans leaves the relator on a defined path, and that path
    defines the coset's entries for its first letter and for the inverse
    of its last.
    """
    enum = _Enumeration(inv, max_cosets)
    columns, p = enum.columns, enum.p
    # each relator as the lists of its letters' columns and of their
    # inverses', and its last position, so that a scan step needs no
    # letter-to-column or inverse lookup
    def scanned(cols):
        return [columns[c] for c in cols], [columns[inv[c]] for c in cols], len(cols) - 1

    relators = [scanned(cols) for cols in scan_cols]
    if subgroup_cols:
        enum.scan_coset(0, [scanned(cols) for cols in subgroup_cols])
    ends = {cols[0] for cols in scan_cols} | {inv[cols[-1]] for cols in scan_cols}
    fill = [pair for col, pair in enumerate(enum.pairs) if col not in ends]
    alpha = 0
    while alpha < len(p):
        if p[alpha] == alpha and enum.scan_coset(alpha, relators):
            for column, back in fill:
                if column[alpha] is None:
                    enum.define(alpha, column, back)
        alpha += 1
    return columns, p


@dataclass(frozen=True)
class CosetTable:
    """The closed coset table of a presentation over a subgroup (the
    trivial one unless subgroup words are given), checked: its columns
    are mutually inverse, every relator traces home at every coset, a
    breadth-first walk over the generators reaches every coset from
    coset 0, and each subgroup word fixes coset 0.

    ``columns[x][c]`` is coset c times letter x, where letter 2g is
    generator g and 2g+1 its inverse; an involution's two letters share
    one list.  ``last[c]`` is the generator of the step by which the
    walk first reached c (-1 at coset 0).  ``defined`` counts the
    cosets the enumeration defined, live or merged.  ``order`` counts
    the live cosets: the group order over the trivial subgroup, the
    subgroup's index over another.
    """

    columns: list[list[int]]
    last: list[int]
    defined: int

    @property
    def order(self) -> int:
        return len(self.last)


def _cap(max_cosets: Optional[int]) -> int:
    """The one cap on an enumeration: max_cosets, or 65536 for None;
    a cap below 1 raises ValueError."""
    if max_cosets is None:
        return DEFAULT_MAX_COSETS
    if max_cosets < 1:
        raise ValueError(f"max_cosets must be >= 1, got {max_cosets}")
    return max_cosets


def coset_table(
    presentation: Presentation,
    max_cosets: Optional[int] = None,
    subgroup: Sequence[Word] = (),
) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by the words of
    ``subgroup`` (the trivial subgroup when there are none) and check
    the closed table; ``todd_coxeter`` names the trivial subgroup's
    cosets and makes them a group, and ``group_order`` reads an index
    off the table over all generators but the last.

    Each subgroup word is scanned once at coset 0, in order, before
    every relator is scanned at each live coset; the fill and the
    renumbering hold for any coset table.

    A generator with a relator that cyclically reduces to g^2 or g^-2
    gets one column for g and g^-1, and that relator is neither scanned
    nor traced.  Live cosets are numbered in the order they were
    defined, so the numbers depend on the table's columns: an
    involution's shared column numbers the cosets differently from a
    two-column enumeration.  The closed columns are checked to be
    defined at every live coset and mutually inverse, which for an
    involution's shared column is g^2 = e, every other relator is
    traced, as a power of its shortest root, one run of a letter at a
    time, a breadth-first walk from coset 0 must reach every coset, and
    each subgroup word must lead from coset 0 back to it; a failed check
    raises RuntimeError.  Raises CosetLimitExceeded once max_cosets
    cosets have been defined, live or not (default 65536) -- a
    retryable signal, not a failure.
    """
    max_cosets = _cap(max_cosets)
    ngens = len(presentation.generator_names)
    relators = [r.letters for r in presentation.relators if r.letters]
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
    scan_cols = [
        [letter_col[x] for x in letters]
        for letters, square in zip(relators, squares)
        if square is None  # a g^2 relator holds by construction
    ]
    columns, p = _enumerate(
        inv, scan_cols, max_cosets, [[letter_col[x] for x in word.letters] for word in subgroup]
    )
    defined = len(p)

    renumber: list[int] = []  # a dead coset takes its representative's number
    order = 0
    for k, parent in enumerate(p):
        if parent == k:
            renumber.append(order)
            order += 1
        else:
            renumber.append(renumber[parent])
    alive = list(map(operator.eq, p, range(defined)))
    del p
    # each column keeps its live entries, renumbered, and the enumeration
    # column goes before the next one is built; a live entry still
    # undefined stops the renumbering at renumber[None]
    for col, column in enumerate(columns):
        try:
            columns[col] = [renumber[c] for c in itertools.compress(column, alive)]
        except TypeError:
            raise RuntimeError("coset table has an undefined entry") from None
    # closed-table sanity: well-defined inverses and every relator tracing
    # home; the identity holds the renumbered int objects, so comparing
    # with it mostly compares identities
    identity = list(itertools.compress(renumber, alive))
    for col, column in enumerate(columns):
        back = columns[inv[col]]
        if [back[c] for c in column] != identity:
            raise RuntimeError("coset table is not closed under inverses")
    # column-major closed table by letter index
    table = [columns[col] for col in letter_col]
    for letters, square in zip(relators, squares):
        # a g^2 relator, up to conjugation, holds once g's shared column
        # passed the inverse check, which maps it through itself
        if square is None and _relator_trace(table, letters) != identity:
            raise RuntimeError("closed coset table fails a relator trace")
    # breadth-first over the generators from coset 0; last doubles as
    # the mark of a reached coset
    last: list[Optional[int]] = [-1] + [None] * (order - 1)
    reached = [0]
    steps = list(enumerate(table[::2]))
    for c in reached:
        for g, column in steps:
            d = column[c]
            if last[d] is None:
                last[d] = g
                reached.append(d)
    if len(reached) != order:
        raise RuntimeError("coset table is not transitive on live cosets")
    for word in subgroup:
        if functools.reduce(lambda c, x: table[x][c], word.letters, 0) != 0:
            raise RuntimeError("subgroup word does not fix coset 0")
    return CosetTable(table, last, defined)


def _leading(presentation: Presentation) -> Presentation:
    """P': the generators but the last, with the relators that use them
    alone; it has no source text, so its descriptor is empty."""
    names = presentation.generator_names[:-1]
    kept = tuple(r for r in presentation.relators if all(x < 2 * len(names) for x in r.letters))
    return Presentation(names, kept, "")


def _lattice_index(rows: Iterable[Mapping[int, int]], rank: int) -> int:
    """The index in Z^rank of the lattice the rows span, each row a map
    from coordinates in range(rank) to nonzero integers; 0 when the
    lattice has a lower rank.

    Each step pivots on an entry of 1 or -1, the first found, else on
    one of least absolute value, and subtracts multiples of its row from
    the other rows that hold its coordinate.  A unit pivot clears that
    coordinate at once (a Tietze move: it is a combination of the
    others); a larger one leaves remainders below it, Euclid's algorithm
    on rows, and pivots again.  Once no other row holds the coordinate,
    the pivot row goes and the index takes the pivot's absolute value as
    a factor.
    """
    rows = [dict(row) for row in rows if row]
    index = 1
    while rows:
        units = ((row, col) for row in rows for col, x in row.items() if x in (1, -1))
        pivot, col = next(units, None) or min(((row, col) for row in rows for col in row),
                                              key=lambda entry: abs(entry[0][entry[1]]))
        value, cleared = pivot[col], True
        for row in rows:
            if row is not pivot and col in row:
                q = row[col] // value
                for c, x in pivot.items():
                    y = row.get(c, 0) - q * x
                    if y:
                        row[c] = y
                    else:
                        del row[c]
                cleared = cleared and col not in row
        if cleared:
            index *= abs(value)
            rank -= 1
            pivot.clear()
        rows = [row for row in rows if row]
    return index if rank == 0 else 0


def _abelianized_order(closed: CosetTable, relators: Iterable[Word], word: Word) -> int:
    """|H^ab| for H = <word>, the subgroup the table is over, by
    Reidemeister-Schreier; |H|, since H is cyclic.

    H is generated by one Schreier generator per edge (c, g) of the
    table that is no step of its breadth-first walk; a walk step counts
    as 0, and an inverse letter read at c is minus the generator of the
    edge into c.  Each relator, traced from every coset, is a relation
    among them; the g^2 relators that ``coset_table`` neither scans nor
    traces are relations too, and an involution's two letters read one
    column.  So H^ab is Z^m over the lattice the traced relators span,
    and its order is the lattice's index.  Raises RuntimeError unless
    the loop of ``word`` at coset 0 ends there and generates H^ab, that
    is unless the index is 1 with the loop's row added.
    """
    table, last = closed.columns, closed.last
    count = itertools.count()
    # edge[g][c]: the coordinate of the edge (c, g), None on a walk step
    edge = [[None if last[d] == g else next(count) for d in column]
            for g, column in enumerate(table[::2])]
    rank = next(count)

    def trace(c: int, letters: Sequence[int]) -> tuple[dict[int, int], int]:
        # the Schreier generators read along the path of letters from c,
        # and the coset it ends at
        row: dict[int, int] = {}
        for x in letters:
            if x & 1:
                c = table[x][c]
                e, sign = edge[x >> 1][c], -1
            else:
                e, sign = edge[x >> 1][c], 1
                c = table[x][c]
            if e is not None:
                row[e] = row.get(e, 0) + sign
        return {e: v for e, v in row.items() if v}, c

    rows = [trace(c, relator.letters)[0] for relator in relators for c in range(closed.order)]
    loop, end = trace(0, word.letters)
    if end != 0:
        raise RuntimeError("the subgroup word does not fix coset 0")
    if _lattice_index(rows + [loop], rank) != 1:
        raise RuntimeError("the subgroup word does not generate the abelianized subgroup")
    return _lattice_index(rows, rank)


def group_order(presentation: Presentation, max_cosets: Optional[int] = None) -> int:
    """The order of the group G a presentation defines, from a checked
    coset table over H = <s_1, ..., s_{k-1}>, all generators but the
    last, where a proof of |H| serves, else over the trivial subgroup.

    P' is the first k-1 generators with the relators that use them
    alone, so H is a quotient of P' and |H| <= b = |P'|.  ``coset_table``
    enumerates the n = [G:H] cosets and checks the closed table as it
    checks any, and that each s_i fixes coset 0.

    For two generators H = <s_1> is cyclic, so |H| = |H^ab|, which
    Reidemeister-Schreier reads off the table (``_abelianized_order``)
    and checks: |G| = n*|H^ab|.  b is the gcd of the exponent sums of
    the relators in s_1 alone, and 0, an infinite P', skips the route
    with no enumeration; the route runs when n <= b and
    n^3 <= max_cosets.

    For more generators Schreier-Sims on the generators' permutations
    of the cosets (``StabilizerNode.reaches``) stops once the product of
    its basic orbit sizes reaches n*b.  That product never exceeds the
    order of the permutation group, which is at most both n! and
    |G| = n*|H| <= n*b, so reaching n*b proves |G| = n*b, and can happen
    only when b <= (n-1)!.  b is ``group_order(P')`` under
    min(max_cosets, EXPECTED_ORDER_FACTOR * (n-1)!), a cap derived from
    (n-1)!, the largest |P'| that can serve, so an infinite P' wastes
    little.  Schreier-Sims runs only when 1 < n <= b <= (n-1)! and
    n^3 <= max_cosets, and P' is enumerated
    only when these can hold: each Schreier generator of a level is
    sifted along Schreier paths of up to n steps, each moving n points,
    for up to n points of the level, so the cap bounds the chain however
    large b is.

    In every other case (one generator, a guard that fails, a chain
    short of n*b, or an enumeration of H or P' past its cap)
    ``coset_table`` over the trivial subgroup decides.  ``max_cosets``
    goes to each ``coset_table`` call on G as given (None for 65536)
    and applies to each enumeration on its own, and at most 2k are run;
    a failed check raises RuntimeError and never falls back.
    """
    cap, k, bound = _cap(max_cosets), len(presentation.generator_names), 0
    leading = _leading(presentation)
    if k == 2:  # P' is cyclic of the order of the gcd, 0 when infinite
        bound = math.gcd(*(sum(1 - 2 * (x & 1) for x in r.letters) for r in leading.relators))
    try:
        if k > 2 or bound:
            subgroup = [Word((2 * g,)) for g in range(k - 1)]
            closed = coset_table(presentation, max_cosets, subgroup)
            n = closed.order
            if k == 2:
                if n <= bound and n**3 <= cap:
                    return n * _abelianized_order(closed, presentation.relators, subgroup[0])
            else:
                # |S_n| / n, the largest b that can serve; 0 where no chain may be built
                room = math.factorial(n - 1) if 1 < n and n**3 <= cap else 0
                if n <= room:
                    bound = group_order(leading, min(cap, EXPECTED_ORDER_FACTOR * room))
                perms = ((column, [column]) for column in closed.columns[::2])
                if n <= bound <= room and StabilizerNode(range(n)).reaches(n * bound, perms):
                    return n * bound
    except CosetLimitExceeded:
        pass  # past the cap the route proves nothing
    return coset_table(presentation, max_cosets).order


def todd_coxeter(presentation: Presentation, max_cosets: Optional[int] = None) -> FiniteGroup:
    """Realize a finite presentation as a concrete group.

    Elements are the live cosets of the trivial subgroup, numbered as
    ``coset_table`` numbers them (which also raises what it raises, under
    the same cap); the identity is always element 0.  Each element is
    named ``words.word_text`` of the letters of its path from the
    identity coset along the table's breadth-first walk, a shortest
    positive word, so generator images are available by name.  Names
    and the action of each generator on them do not depend on whether an
    involution has a shared column, while element indices do.
    """
    closed = coset_table(presentation, max_cosets)
    table, last = closed.columns, closed.last

    def path(c: int) -> list[int]:
        # the letters of the walk from coset 0 to c, read back along last
        letters = []
        while c:
            x = 2 * last[c]
            letters.append(x)
            c = table[x + 1][c]
        letters.reverse()
        return letters

    def mul(a: int, b: int) -> int:
        # b's word applied to a
        for x in path(b):
            a = table[x][a]
        return a

    gen_names = presentation.generator_names
    names = [words.word_text(path(c), gen_names) for c in range(closed.order)]
    generators = [(name, table[2 * g][0]) for g, name in enumerate(gen_names)]
    return FiniteGroup(closed.order, mul, names, f"coset:{presentation.text()}", generators)


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
    images = [assignment[name] for name in presentation.generator_names]
    for relator in presentation.relators:
        value = group.identity
        for x in relator.letters:
            image = images[x >> 1]
            value = group.mul(value, group.inv(image) if x & 1 else image)
        if value != group.identity:
            return False
    return True


def _evaluate_with(group: FiniteGroup, ast, mapping: Mapping[str, int]) -> int:
    """The word AST in the group, its names read through mapping."""
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
) -> bool:
    """Certify that phi: G -> <P> and psi: <P> -> G are mutually inverse.

    phi maps G's generator names to words in P's generators; psi maps
    P's generator names to words in G's generators.  The proof is made
    in G, with one order from a checked coset table and no group built
    for P:

    1. psi respects P's relators in G, so it is a morphism <P> -> G;
    2. psi(phi(g)) = g for each generator g of G, evaluated in G, so
       psi is onto;
    3. |<P>| = |G|, so the onto psi is a bijection;
    4. its inverse sends each generator g = psi(phi(g)) to phi(g), so
       phi extends to that inverse morphism: phi respects G's relators
       and phi(psi(p)) = p in <P>.

    |<P>| comes from ``coset_table`` over the cyclic subgroup <w>, with
    w = phi(g) for G's first generator g (any word serves; for the
    dicyclic variants <w> has index 2): |<P>| = [<P>:<w>] * |<w>|, and
    |<w>| = |<w>^ab|, which Reidemeister-Schreier reads off the same
    table (``_abelianized_order``).  An infinite <w> gives 0.

    Equal orders are a premise, so unequal ones, like a failed check,
    give False.  A generator of G missing from phi, or of P from psi,
    raises ValueError.  The table is enumerated last, only for maps that
    pass the checks in G, where psi maps <w> onto <g>: a w that is
    trivial in <P> for a nontrivial g, whose table would be as large as
    the trivial subgroup's, fails before.  It is enumerated under a cap
    of ``EXPECTED_ORDER_FACTOR * group.order`` cosets, so a P past it
    raises ``CosetLimitExceeded``.  Each word of phi and psi is parsed once.
    """
    for label, images, names in (("phi", phi, dict(group.generators)),
                                 ("psi", psi, presentation.generator_names)):
        if missing := [name for name in names if name not in images]:
            raise ValueError(f"{label} missing generators: {missing}")
    psi_assignment = {name: _evaluate_with(group, words.parse_word_ast(psi[name]),
                                           group.named_elements)
                      for name in presentation.generator_names}
    if not check_homomorphism(presentation, group, psi_assignment):
        return False
    phi_asts = [words.parse_word_ast(phi[name]) for name, _ in group.generators]
    for ast, (_, g) in zip(phi_asts, group.generators):
        if _evaluate_with(group, ast, psi_assignment) != g:
            return False
    gen_index = {name: i for i, name in enumerate(presentation.generator_names)}
    # a G with no generators is trivial, and so is <w>
    w = Word(tuple(words.ast_to_letters(phi_asts[0], gen_index)) if phi_asts else ())
    closed = coset_table(presentation, EXPECTED_ORDER_FACTOR * group.order, subgroup=[w])
    return closed.order * _abelianized_order(closed, presentation.relators, w) == group.order
