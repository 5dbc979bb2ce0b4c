"""Concrete finite group models with dense integer element ids.

Every group exposes elements as ids ``0 .. order-1`` with id 0 the
identity; the per-family normal forms (dicyclic exponent pairs,
permutation images, product tuples) are mapped to ids at construction.
A family gives its group law as one multiplication and nothing else:
``FiniteGroup`` derives the rest along one spanning tree of the Cayley
graph of its generators, walked breadth-first from e over the steps
v -> v*g (order * |generators| products).  Along that tree it builds the
multiplication table column by column (``ensure_table``, groups up to
TABLE_LIMIT elements), a row v -> s*v past the table with one lookup per
element (``FiniteGroup.row``), and every inverse, so no family writes
its own.

The module also holds what follows Cayley edges and automorphisms:
``forced_map``, ``group_automorphisms`` and ``StabilizerNode``, the one
type that holds a group of automorphisms: a node of the tree of
pointwise stabilizers of Aut(G) down prefixes of elements.
``group_automorphisms`` returns its root, Aut(G), which is never listed;
the root is built once per group and kept on it.
Each node holds its group as a stabilizer chain along the same
generating tuple, built by Schreier-Sims with known order from
automorphisms given as data (base images and the held maps they
compose), and its orbit minima with a Schreier vector that carries a
point to its minimum.  ``classify`` walks the tree from the root and
takes least set images down it.  ``extend_subgroup`` grows a subgroup
by one element, coset by coset, for the generation tests of that walk:
the coset of g*r is g's row applied to the coset of r, with or without
a table.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from . import words
from .words import ParseError

DEFAULT_CLOSURE_CAP = 10000
TABLE_LIMIT = 4096


class ClosureLimitError(RuntimeError):
    """Raised when a permutation closure exceeds its element cap."""


class FiniteGroup:
    """A finite group on element ids 0..order-1 (identity is 0), given by
    its multiplication ``mul`` and generators that reach every element.

    Everything else follows one spanning tree, built on first use: the
    steps v -> v*g_k for the generators (order * |generators| products),
    walked breadth-first from e as edges (p, k, q) with q = p*g_k.  The
    multiplication table (up to TABLE_LIMIT elements), the rows s*v past
    it, the inverses and the element orders are derived along it and kept
    on the group, and so is Aut(G) (``group_automorphisms``).  So a group
    is not immutable: these caches fill on first use, and nothing else
    changes after construction.
    """

    def __init__(
        self,
        order: int,
        mul: Callable[[int, int], int],
        names: Sequence[str],
        descriptor: str,
        generators: Sequence[tuple[str, int]],
        name_resolver: Optional[Callable[[str], Optional[int]]] = None,
    ):
        if order < 1:
            raise ValueError(f"group order must be positive, got {order}")
        if len(names) != order:
            raise ValueError("names must cover every element id")
        if len(set(names)) != order:
            raise ValueError("element names must be pairwise distinct")
        self.order = order
        self.identity = 0
        self.names = tuple(names)
        self.descriptor = descriptor
        self.generators = tuple(generators)
        self.named_elements: dict[str, int] = {words.IDENTITY_NAME: 0}
        for name, g in generators:
            self.named_elements[name] = g
        self._mul_fn = mul
        self._name_resolver = name_resolver
        self._steps: Optional[list[list[int]]] = None
        self._tree: Optional[list[tuple[int, int, int]]] = None
        self._table: Optional[list[tuple[int, ...]]] = None
        self._inv_table: Optional[tuple[int, ...]] = None
        self._orders: Optional[tuple[int, ...]] = None
        self._automorphisms: Optional[StabilizerNode] = None

    def __repr__(self):
        return f"<FiniteGroup {self.descriptor} order {self.order}>"

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        if self._table is not None:
            return self._table[a][b]
        return self._mul_fn(a, b)

    def inv(self, a: int) -> int:
        """a^-1; every inverse is filled on the first call, along the tree:
        q = p*g_k gives q^-1 = g_k^-1 * p^-1, and g_k^-1 is the v with
        v*g_k = e."""
        if self._inv_table is None:
            steps, tree = self._spanning_tree()
            back = [step.index(0) for step in steps]
            inverse = [0] * self.order
            for p, k, q in tree:
                inverse[q] = self.mul(back[k], inverse[p])
            self._inv_table = tuple(inverse)
        return self._inv_table[a]

    def resolve_name(self, text: str) -> Optional[int]:
        got = self.named_elements.get(text)
        if got is None and self._name_resolver is not None:
            got = self._name_resolver(text)
        return got

    def _spanning_tree(self) -> tuple[list[list[int]], list[tuple[int, int, int]]]:
        """The steps v -> v*g_k and the tree edges (p, k, q), q = p*g_k,
        breadth-first from e.  Raises ValueError when the generators do
        not reach every element."""
        if self._tree is None:
            order = self.order
            steps = [[self._mul_fn(v, g) for v in range(order)] for _, g in self.generators]
            reached = [True] + [False] * (order - 1)
            tree = []
            queue = [0]
            for p in queue:
                for k, step in enumerate(steps):
                    q = step[p]
                    if not reached[q]:
                        reached[q] = True
                        tree.append((p, k, q))
                        queue.append(q)
            if len(queue) != order:
                raise ValueError(
                    f"the generators of {self.descriptor} reach {len(queue)} of {order} elements"
                )
            self._steps, self._tree = steps, tree
        return self._steps, self._tree

    def ensure_table(self) -> None:
        """Materialise the multiplication table (small groups only).

        Its columns follow the spanning tree: column q = p*g is column p
        mapped through v -> v*g, since a*(p*g) = (a*p)*g.  Raises
        ValueError when the generators do not reach every element.
        """
        if self._table is not None or self.order > TABLE_LIMIT:
            return
        steps, tree = self._spanning_tree()
        columns: list[tuple[int, ...]] = [tuple(range(self.order))] * self.order
        for p, k, q in tree:
            columns[q] = tuple(map(steps[k].__getitem__, columns[p]))
        self._table = list(zip(*columns))

    def row(self, s: int) -> tuple[int, ...]:
        """The row v -> s*v: the label-s edges of a Cayley graph.  With a
        table this is the table's own row, not a copy; past it the row
        follows the tree, s*q = (s*p)*g_k, one lookup per element."""
        if self._table is not None:
            return self._table[s]
        steps, tree = self._spanning_tree()
        row = [s] * self.order
        for p, k, q in tree:
            row[q] = steps[k][row[p]]
        return tuple(row)


@dataclass(frozen=True)
class GeneratingSequence:
    """Ordered tuple of group elements, tagged with the owning group."""

    elements: tuple[int, ...]
    group: str

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class OrderMultiset:
    """Multiset of element orders, stored as a descending tuple."""

    values: tuple[int, ...]

    @classmethod
    def of(cls, orders: Iterable[int]) -> "OrderMultiset":
        return cls(tuple(sorted(orders, reverse=True)))

    def __str__(self):
        return "{{" + ",".join(str(v) for v in self.values) + "}}"

    def to_json(self) -> list[int]:
        return list(self.values)


# ---------------------------------------------------------------------------
# group families


def _exponent_names(unit: str, count: int, suffix: str = "") -> list[str]:
    """unit^i*suffix for i in range(count); unit^0 is e, or suffix alone."""
    heads = [words.power_text(unit, i) for i in range(1, count)]
    if not suffix:
        return [words.IDENTITY_NAME] + heads
    return [suffix] + [head + words.SYLLABLE_SEPARATOR + suffix for head in heads]


def dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n: a^(2n)=e, x^2=a^n, x^(-1)ax=a^(-1).

    Element id of a^i x^j is i + 2n*j.  For n a power of two this is the
    generalized quaternion group.
    """
    if n < 2:
        raise ValueError(f"dicyclic requires n >= 2, got {n}")
    two_n = 2 * n

    def mul(p: int, q: int) -> int:
        i, j = p % two_n, p // two_n
        k, l = q % two_n, q // two_n
        if j == 0:
            return (i + k) % two_n + two_n * l
        if l == 0:
            return (i - k) % two_n + two_n
        return (i - k + n) % two_n

    names = _exponent_names("a", two_n) + _exponent_names("a", two_n, suffix="x")
    return FiniteGroup(4 * n, mul, names, f"dicyclic:{n}", [("a", 1), ("x", two_n)])


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: a^n=x^2=e, xax=a^(-1)."""
    if n < 3:
        raise ValueError(f"dihedral requires n >= 3, got {n}")

    def mul(p: int, q: int) -> int:
        i, j = p % n, p // n
        k, l = q % n, q // n
        if j == 0:
            return (i + k) % n + n * l
        return (i - k) % n + n * (1 - l)

    names = _exponent_names("a", n) + _exponent_names("a", n, suffix="x")
    return FiniteGroup(2 * n, mul, names, f"dihedral:{n}", [("a", 1), ("x", n)])


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n (n=1 gives the trivial group)."""
    if n < 1:
        raise ValueError(f"cyclic requires n >= 1, got {n}")
    names = _exponent_names("g", n)
    generators = [("g", 1)] if n > 1 else []
    return FiniteGroup(n, lambda a, b: (a + b) % n, names, f"cyclic:{n}", generators)


def _rename_expression(text: str, mapping: dict[str, str]) -> str:
    """Rewrite the names of an element expression via mapping."""
    return words.NAME.sub(lambda name: mapping.get(name[0], name[0]), text)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with componentwise multiplication.

    Generator names are kept when the factors' names are disjoint and
    renamed positionally (g1, g2, ...) otherwise; element names are the
    factor expressions rewritten accordingly and joined with '*'.
    """
    if g1._name_resolver is not None and g2._name_resolver is not None:
        raise ValueError(
            "direct products of two permutation groups are not supported "
            "(element names would be ambiguous)"
        )
    order2 = g2.order
    order = g1.order * order2

    def mul(a: int, b: int) -> int:
        a1, a2 = divmod(a, order2)
        b1, b2 = divmod(b, order2)
        return g1.mul(a1, b1) * order2 + g2.mul(a2, b2)

    combined = [name for name, _ in g1.generators] + [name for name, _ in g2.generators]
    if len(set(combined)) != len(combined):
        renamed = [f"g{i + 1}" for i in range(len(combined))]
    else:
        renamed = combined
    split = len(g1.generators)
    map1 = {old: new for old, new in zip(combined[:split], renamed[:split]) if old != new}
    map2 = {old: new for old, new in zip(combined[split:], renamed[split:]) if old != new}

    lefts = [""] + [_rename_expression(name, map1) for name in g1.names[1:]]
    rights = [""] + [_rename_expression(name, map2) for name in g2.names[1:]]
    names = [words.SYLLABLE_SEPARATOR.join(filter(None, (left, right))) or words.IDENTITY_NAME
             for left in lefts for right in rights]

    generators = [
        (new, g * order2) for new, (_, g) in zip(renamed[:split], g1.generators)
    ] + [(new, h) for new, (_, h) in zip(renamed[split:], g2.generators)]

    resolver = None
    inner = g1._name_resolver or g2._name_resolver
    if inner is not None:
        embed_left = g1._name_resolver is not None

        def resolver(text: str) -> Optional[int]:
            got = inner(text)
            if got is None:
                return None
            return got * order2 if embed_left else got

    return FiniteGroup(
        order,
        mul,
        names,
        f"product:{g1.descriptor},{g2.descriptor}",
        generators,
        name_resolver=resolver,
    )


# ---------------------------------------------------------------------------
# permutation groups


def perm_from_cycles(degree: int, text: str, offset: int = 0) -> tuple[int, ...]:
    """Parse cycle notation like ``(1,2,3)`` or ``(1,2)(3,4)`` on 1..degree,
    as 0-based images; a syntax error is reported at its position plus
    offset, where text starts in the source.

    Non-disjoint cycles compose left to right as functions (rightmost
    cycle applied first), matching group multiplication.
    """
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    tokens = words.tokenize(text, offset)
    if len(tokens) != 1 or tokens[0].kind != "CYCLES":
        raise ParseError(f"not a permutation in cycle notation: {text!r}", offset)
    perm = tuple(range(degree))
    for cycle_text in words.CYCLE.findall(tokens[0].text):
        cycle = [int(v) for v in cycle_text[1:-1].split(",")]
        for v in cycle:
            if not 1 <= v <= degree:
                raise ValueError(f"cycle entry {v} outside 1..{degree}")
        if len(set(cycle)) != len(cycle):
            raise ValueError(f"repeated entry in cycle {cycle_text}")
        mapping = list(range(degree))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            mapping[a - 1] = b - 1
        perm = _compose(perm, tuple(mapping))
    return perm


def cycles_text(perm: Sequence[int]) -> str:
    """Canonical cycle notation; identity is named ``e``."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        cursor = perm[start]
        while cursor != start:
            cycle.append(cursor)
            seen[cursor] = True
            cursor = perm[cursor]
        parts.append("(" + ",".join(str(v + 1) for v in cycle) + ")")
    return "".join(parts) if parts else words.IDENTITY_NAME


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # apply q first, then p
    return tuple(p[q[i]] for i in range(len(p)))


def from_permutations(
    degree: int,
    generators: Iterable[Sequence[int] | str],
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> FiniteGroup:
    """Group generated by permutations of {1..degree}, via breadth-first
    closure from the identity.  Generators may be cycle-notation strings
    or tuples of 1-based images.  Raises ClosureLimitError past the cap.
    """
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    gen_perms: list[tuple[int, ...]] = []
    for gen in generators:
        if isinstance(gen, str):
            perm = perm_from_cycles(degree, gen)
        else:
            images = tuple(int(v) - 1 for v in gen)
            if len(images) != degree or sorted(images) != list(range(degree)):
                raise ValueError(f"not a bijection on 1..{degree}: {gen!r}")
            perm = images
        gen_perms.append(perm)

    identity = tuple(range(degree))
    perms = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for p in frontier:
            for g in gen_perms:
                q = _compose(p, g)
                if q not in index:
                    if len(perms) >= closure_cap:
                        raise ClosureLimitError(
                            f"permutation closure exceeded cap of {closure_cap}"
                        )
                    index[q] = len(perms)
                    perms.append(q)
                    next_frontier.append(q)
        frontier = next_frontier

    def mul(a: int, b: int) -> int:
        return index[_compose(perms[a], perms[b])]

    names = [cycles_text(p) for p in perms]
    gen_text = ";".join(cycles_text(p) for p in gen_perms)
    descriptor = f"perm:{degree}:{gen_text}"

    def resolver(text: str) -> Optional[int]:
        if not text.startswith("("):
            return None
        try:
            perm = perm_from_cycles(degree, text)
        except (ParseError, ValueError):
            return None
        return index.get(perm)

    # a permutation listed twice is one generator: same name, same id
    generators_named = {cycles_text(p): index[p] for p in gen_perms}
    return FiniteGroup(
        len(perms),
        mul,
        names,
        descriptor,
        list(generators_named.items()),
        name_resolver=resolver,
    )


# ---------------------------------------------------------------------------
# descriptors


def from_descriptor(text: str, max_order: Optional[int] = None) -> FiniteGroup:
    """Build a group from a descriptor string.

    Grammar: ``dicyclic:<n>``, ``dihedral:<n>``, ``cyclic:<n>``,
    ``product:<d1>,<d2>`` (recursively) and
    ``perm:<degree>:<gen>;<gen>...`` with cycle-notation generators,
    where ``<n>`` and ``<degree>`` are ``words.INT``.  A family or
    product of order above max_order raises ValueError before any of its
    elements is built; a permutation group is closed up to max_order
    elements (the closure cap when max_order is None).
    """
    group, end = _parse_descriptor(text, 0, max_order)
    if text[end:].strip():
        raise ValueError(f"trailing text in descriptor: {text[end:]!r}")
    return group


def _guard_order(order: int, descriptor: str, max_order: Optional[int]) -> None:
    if max_order is not None and order > max_order:
        raise ValueError(
            f"group order {order} of {descriptor} exceeds the order guard ({max_order})"
        )


_FAMILIES = {"dicyclic": (dicyclic, 4), "dihedral": (dihedral, 2), "cyclic": (cyclic, 1)}
_HEAD = re.compile(r"(dicyclic|dihedral|cyclic|product|perm):")
_PERM_DEGREE = re.compile(rf"({words.INT.pattern}):")
# a perm generator runs to the next ';' or ',' outside parentheses, and
# words.tokenize reads it; a comma separates generators only before a
# '(', which no descriptor starts with, so it also ends a product factor
_PERM_GENERATOR = re.compile(r"((?:[^;,()]|\([^()]*\))*)(;|,(?=\())?")


def _parse_descriptor(text: str, pos: int, max_order: Optional[int]) -> tuple[FiniteGroup, int]:
    head = _HEAD.match(text, pos)
    if head is None:
        raise ValueError(f"unknown group descriptor at {text[pos:]!r}")
    kind, cursor = head[1], head.end()
    if kind == "product":
        g1, end = _parse_descriptor(text, cursor, max_order)
        if not text.startswith(",", end):
            raise ValueError(f"product descriptor needs two comma-separated factors, "
                             f"got {text[pos:]!r}")
        g2, end = _parse_descriptor(text, end + 1, max_order)
        _guard_order(g1.order * g2.order, text[pos:end], max_order)
        return direct_product(g1, g2), end
    if kind == "perm":
        degree = _PERM_DEGREE.match(text, cursor)
        if degree is None:
            raise ValueError(f"perm descriptor is perm:<degree>:<gen>;<gen>..., "
                             f"got {text[pos:]!r}")
        points = int(degree[1])
        gens, cursor = _parse_perm_generators(text, degree.end())
        # parsed here, so that a broken cycle is reported at its position in text
        images = [[v + 1 for v in perm_from_cycles(points, gen, at)] for gen, at in gens]
        cap = DEFAULT_CLOSURE_CAP if max_order is None else max_order
        try:
            return from_permutations(points, images, cap), cursor
        except ClosureLimitError:
            if max_order is None:
                raise
            raise ValueError(f"group order of {text[pos:cursor]} exceeds the order "
                             f"guard ({max_order})") from None
    n = words.INT.match(text, cursor)
    if n is None:
        raise ValueError(f"expected integer after {text[pos:cursor]!r} in descriptor")
    maker, per_n = _FAMILIES[kind]
    _guard_order(per_n * int(n[0]), text[pos:n.end()], max_order)
    return maker(int(n[0])), n.end()


def _parse_perm_generators(text: str, cursor: int) -> tuple[list[tuple[str, int]], int]:
    """The generators from cursor on, each with its position in text, and
    the position after the last."""
    gens: list[tuple[str, int]] = []
    while True:
        generator = _PERM_GENERATOR.match(text, cursor)
        end = generator.end(1)
        if text.startswith(("(", ")"), end):
            raise ParseError("unbalanced parentheses in perm descriptor", end)
        if not generator[1]:
            raise ParseError("empty generator in perm descriptor", cursor)
        gens.append((generator[1], cursor))
        if generator[2] is None:
            return gens, end
        cursor = generator.end()


# ---------------------------------------------------------------------------
# element expressions and sequences


def parse_element(group: FiniteGroup, text: str, offset: int = 0) -> int:
    """Evaluate an element expression like ``a^2*x`` in the group."""
    ast = words.parse_word_ast(text, offset)
    return words.evaluate(
        ast,
        mul=group.mul,
        identity=group.identity,
        inv=group.inv,
        resolve=group.resolve_name,
    )


def parse_sequence(group: FiniteGroup, text: str) -> GeneratingSequence:
    """Parse a comma-separated sequence of element expressions."""
    elements = []
    for part, offset in words.split_top_level(text, ","):
        if not part.strip():
            raise ParseError("empty sequence entry", offset)
        elements.append(parse_element(group, part, offset))
    return GeneratingSequence(tuple(elements), group.descriptor)


def element_order(group: FiniteGroup, g: int) -> int:
    """Least k >= 1 with g^k = e."""
    return element_orders(group)[g]


def closure(group: FiniteGroup, elements: Iterable[int]) -> frozenset[int]:
    """Subgroup generated by the elements: the identity's orbit under
    their rows, closed breadth-first."""
    orbit = {group.identity: -1}
    _close(orbit, list(enumerate(group.row(s) for s in sorted(set(elements)))), [group.identity])
    return frozenset(orbit)


def extend_subgroup(group: FiniteGroup, subgroup, generators: Sequence[int], x: int):
    """<subgroup, x>, for subgroup = <generators> given as a set holding
    the identity, built as a union of left cosets y*subgroup (Dimino's
    method; see G. Butler, "Fundamental Algorithms for Permutation
    Groups", 1991): the coset of each generator times a known coset
    representative is added until none is new.  The coset of y = g*r is
    g's row applied to the coset of r, since y*h = g*(r*h), so an element
    costs one lookup in a row, not one product per generator.  Returns
    subgroup itself when x lies in it, and group.elements() as soon as
    more than half the group is reached, since no proper subgroup is that
    large.
    """
    if x in subgroup:
        return subgroup
    rows = [group.row(s) for s in (*generators, x)]
    reached = set(subgroup)
    cosets = [(group.identity, subgroup)]  # (r, r*subgroup)
    for r, coset in cosets:
        for row in rows:
            y = row[r]
            if y not in reached:
                image = [row[v] for v in coset]
                reached.update(image)
                if 2 * len(reached) > group.order:
                    return group.elements()
                cosets.append((y, image))
    return reached


def is_generating(group: FiniteGroup, sequence: Iterable[int]) -> bool:
    return len(closure(group, sequence)) == group.order


def is_minimal_generating(group: FiniteGroup, sequence: Sequence[int]) -> bool:
    """Generating, with no proper delete-one subsequence generating."""
    seq = tuple(sequence)
    if not is_generating(group, seq):
        return False
    for i in range(len(seq)):
        if is_generating(group, seq[:i] + seq[i + 1 :]):
            return False
    return True


def order_multiset(group: FiniteGroup, sequence: Iterable[int]) -> OrderMultiset:
    return OrderMultiset.of(element_order(group, g) for g in sequence)


# ---------------------------------------------------------------------------
# Cayley rows, forced maps, orbits and automorphisms


def forced_map(count: int, rows1, rows2, sigma, base: int, start: int,
               whole: bool = True) -> Optional[tuple[int, ...]]:
    """Force a vertex map from f(base) = start along the rows.

    A map sending row k of rows1 to row sigma[k] of rows2 satisfies
    f(rows1[k][g]) = rows2[sigma[k]][f(g)], so the image of base fixes
    it; a conflict, a collision or a vertex unreachable from base proves
    there is none.  Every edge is checked once.  With whole false an
    unreachable vertex is no failure: the map is forced on the vertices
    reached from base and sends the others to -1.
    """
    f = [-1] * count
    used = [False] * count
    f[base] = start
    used[start] = True
    queue = [base]
    for v in queue:
        fv = f[v]
        for k in range(len(sigma)):
            w = rows1[k][v]
            target = rows2[sigma[k]][fv]
            fw = f[w]
            if fw == -1:
                if used[target]:
                    return None
                f[w] = target
                used[target] = True
                queue.append(w)
            elif fw != target:
                return None
    if whole and len(queue) != count:
        return None
    return tuple(f)


def _path(edge, inverses: Sequence[Sequence[int]], p: int) -> list[int]:
    """The generator indices on p's Schreier path, from p back to the
    root of its orbit, where ``edge`` holds -1."""
    path = []
    while edge[p] != -1:
        path.append(edge[p])
        p = inverses[edge[p]][p]
    return path


def _apply(maps: Sequence[Sequence[int]], indices: Iterable[int], values: Iterable[int]) -> list[int]:
    """values under the maps of the given indices, first to last."""
    values = list(values)
    for k in indices:
        m = maps[k]
        values = [m[v] for v in values]
    return values


def _close(orbit: dict[int, int], gens, fresh: list[int]) -> None:
    """Close the dict orbit, point -> index of the generator that reached
    it, under the indexed maps gens, from the points of fresh."""
    for p in fresh:
        for j, g in gens:
            if (q := g[p]) not in orbit:
                orbit[q] = j
                fresh.append(q)


def element_orders(group: FiniteGroup) -> tuple[int, ...]:
    """The order of every element, computed once per group and kept on
    it.  The powers of each element whose order is not yet known are
    walked once, up to e, and g^k gets o / gcd(k, o), o the order of g."""
    if group._orders is None:
        orders = [0] * group.order
        for g in group.elements():
            if not orders[g]:
                powers = [g]
                while powers[-1] != group.identity:
                    powers.append(group.mul(powers[-1], g))
                for k, h in enumerate(powers, 1):
                    orders[h] = len(powers) // math.gcd(k, len(powers))
        group._orders = tuple(orders)
    return group._orders


def group_automorphisms(group: FiniteGroup) -> StabilizerNode:
    """Aut(G), the root of the stabilizer tree, by a stabilizer chain
    along base.  The root is built on the first call and kept on the
    group, so every later call, from ``classify`` or any other caller,
    returns that same root with the children built under it so far.

    base = (b_0, ..., b_{r-1}) is the greedy generating tuple, so b_j lies
    outside <b_0, ..., b_{j-1}>.  An automorphism is fixed by its images
    of base, and it is one exactly when forcing f(b_j*g) = t_j*f(g) from
    f(e) = e along the Cayley graph of base gives a bijection, which
    ``forced_map`` decides.  Level i of the chain is A_i, the
    automorphisms fixing b_0, ..., b_{i-1}; A_r is trivial and
    |A_i| = |A_{i+1}| * |orbit of b_i under A_i|.

    The levels are built from i = r-1 up to 0.  For every candidate t for
    b_i outside the orbit held, whose order and products with b_0, ...,
    b_{i-1} match, the deeper images are searched for one tuple that
    forced_map accepts: each t_j keeps the orders of b_j and of its
    products with the earlier b_k, lies outside <t_0, ..., t_{j-1}>, and
    the map forced on <b_0, ..., b_j> must be injective.  A map found is
    a generator of level i; a failed t fails with its whole orbit under
    the generators held, which fix b_0, ..., b_{i-1} too, so that orbit
    is skipped.  Each generator enlarges the group held, so at most
    log2|Aut(G)| are held, and no set or walk of |Aut(G)| size is made.
    """
    if group._automorphisms is not None:
        return group._automorphisms
    group.ensure_table()
    count = group.order
    orders = element_orders(group)
    # base: repeatedly the highest-order element (lowest id on ties) not
    # yet in the subgroup generated so far
    base: tuple[int, ...] = ()
    while len(reached := closure(group, base)) < count:
        base += (max((g for g in group.elements() if g not in reached), key=orders.__getitem__),)
    product_orders = [[orders[group.mul(p, q)] for q in base] for p in base]
    pools = [[g for g in group.elements() if orders[g] == orders[s]] for s in base]
    row = functools.cache(group.row)
    source = [row(s) for s in base]

    def candidates(images: list[int]):
        """The images t of b_j, j = len(images), outside <images> that keep the orders of
        b_j and b_k*b_j; none when base[:j] -> images is not injective on <base[:j]>."""
        j = len(images)
        rows = [row(t) for t in images]
        inside = forced_map(count, source[:j], rows, range(j), 0, 0, whole=False)
        if inside is None:
            return
        inside = set(inside)  # <images>, with -1 for the rest
        left = list(zip(rows, [products[j] for products in product_orders]))
        for t in pools[j]:
            if t not in inside and all(orders[r[t]] == wanted for r, wanted in left):
                yield t

    def complete(images: list[int]) -> Optional[tuple[int, ...]]:
        """An automorphism sending base[:j] to images, or None."""
        if len(images) == len(base):
            return forced_map(count, source, [row(t) for t in images], range(len(base)), 0, 0)
        for t in candidates(images):
            found = complete(images + [t])
            if found is not None:
                return found
        return None

    auts = StabilizerNode(base)
    for i in reversed(range(len(base))):
        prefix = list(base[:i])
        failed: dict[int, int] = {}
        for t in candidates(prefix):
            if t in auts.levels[i] or t in failed:
                continue
            f = complete(prefix + [t])
            if f is not None:
                auts.add(f, i)
            else:
                failed[t] = -1
                _close(failed, list(enumerate(auts.generators)), [t])
    # complete refers to itself through its closure, which holds the group:
    # drop that cycle, so the group is freed by reference counting
    del complete
    group._automorphisms = auts._walk_orbits(count)
    return group._automorphisms


class StabilizerNode:
    """The pointwise stabilizer H of a prefix of points: a node of the
    tree whose root is Aut(G) and whose children fix one more point, each
    an orbit minimum of H.

    H is held by a stabilizer chain along the generating tuple ``base``
    (C. C. Sims, 1970), on whose images an automorphism is fixed.  The
    generators are element maps (the images of the ids 0..order-1);
    generator k first moves b_{depths[k]}.  Level i maps each point of the
    orbit of b_i under the generators fixing b_0, ..., b_{i-1} to the
    generator that reached it, -1 at b_i: a Schreier vector on at most |G|
    points.  ``order``, the product of the level sizes, is |H| once the
    chain is complete, as ``group_automorphisms`` and ``child`` leave it.

    ``least[p]`` is the least point of p's H-orbit.  Each orbit is
    walked breadth-first from its minimum under the generators, and
    ``edge[p]`` names the generator whose map reached p (-1 at a
    minimum): a Schreier vector, which ``carry`` follows back to move p
    to its minimum.  The stabilizers of one more point are built on
    first use (``child``).

    A sorted k-set whose j-th element is the least of its orbit under
    the stabilizer of the first j-1, at every j, is a leaf of the tree.
    Every lexicographically least set of an Aut(G)-orbit is one: an
    element fixing the first j-1 and moving the j-th lower would move
    the whole set lower.  The least image of a set is found down the
    same nodes (S. Linton, "Finding the smallest image of a set", ISSAC
    2004).
    """

    __slots__ = ("base", "generators", "inverses", "depths", "levels",
                 "least", "edge", "_orbits", "_children")

    def __init__(self, base: Sequence[int]):
        self.base = tuple(base)
        self.generators, self.inverses, self.depths = [], [], []
        self.levels: list[dict[int, int]] = [{b: -1} for b in self.base]
        self._children: dict[int, StabilizerNode] = {}

    @property
    def order(self) -> int:
        """|H|, once the chain is complete."""
        return math.prod(map(len, self.levels))

    def add(self, m: tuple[int, ...], depth: int) -> None:
        """Add the element map m, which first moves b_depth, as a
        generator, and close levels 0..depth under it."""
        k = len(self.generators)
        self.generators.append(m)
        inverse = [0] * len(m)
        for p, q in enumerate(m):
            inverse[q] = p
        self.inverses.append(inverse)
        self.depths.append(depth)
        for i, level in enumerate(self.levels[:depth + 1]):
            fresh = [m[p] for p in level if m[p] not in level]
            level.update(dict.fromkeys(fresh, k))
            _close(level, [(j, g) for j, g in enumerate(self.generators)
                           if self.depths[j] >= i], fresh)

    def absorb(self, images: Sequence[int], maps: Sequence[Sequence[int]]) -> bool:
        """Sift an automorphism, given by its images of base and the held
        maps whose composition (first to last) it is: at each level i,
        carry its image of b_i back to b_i by the inverses on the Schreier
        path.  Unless it strips to the identity, add the residue, composed
        from maps and those inverses, at the first level whose orbit misses
        the image.  Returns whether one was added."""
        stripped: list[int] = []  # the inverses on the paths, first to last
        for depth, level in enumerate(self.levels):
            if images[depth] == self.base[depth]:
                continue  # an empty path
            if images[depth] not in level:
                m = _apply(maps, range(1, len(maps)), maps[0])
                self.add(tuple(_apply(self.inverses, stripped, m)), depth)
                return True
            path = _path(level, self.inverses, images[depth])
            images = _apply(self.inverses, path, images)
            stripped += path
        return False

    def complete(self, order: int, elements: Iterable = ()) -> None:
        """Schreier-Sims with known order (``reaches``); falling short of
        it is an error."""
        if not self.reaches(order, elements):
            raise RuntimeError(f"the chain closes at order {self.order}, not {order}")

    def reaches(self, order: int, elements: Iterable = ()) -> bool:
        """Schreier-Sims: absorb the elements, pairs of base images and
        maps as ``absorb`` takes them, then the Schreier generators
        t_{g(p)}^-1 * g * t_p of each level (as g * t_p, which level i
        strips to them), deepest level first, until the levels reach
        order; whether they do.  Each level's orbit lies in the orbit of
        b_i under the stabilizer of b_0, ..., b_{i-1} in the group the
        elements generate, so the product of the level sizes never
        exceeds its order, and once every Schreier generator sifts the
        chain is complete and the product is that order."""
        def schreier():
            for i in reversed(range(len(self.base))):
                for p in list(self.levels[i]):
                    path = _path(self.levels[i], self.inverses, p)[::-1]
                    for j, depth in enumerate(self.depths):
                        if depth >= i:
                            yield (_apply(self.generators, path + [j], self.base),
                                   [self.generators[k] for k in path + [j]])

        elements = iter(elements)
        while self.order < order:
            if not any(self.absorb(images, maps)
                       for images, maps in itertools.chain(elements, schreier())):
                return False
        return True

    def _walk_orbits(self, degree: int) -> StabilizerNode:
        """Set ``least`` and ``edge`` on the points 0..degree-1 from the
        complete chain's generators; returns the node."""
        self._orbits: dict[int, list[int]] = {}  # minimum -> orbit, unless a fixed point
        least = self.least = [-1] * degree
        edge = self.edge = [-1] * degree
        gens = list(enumerate(self.generators))
        for p in range(degree):
            if least[p] == -1:
                least[p] = p
                orbit = [p]
                for q in orbit:
                    for i, m in gens:
                        t = m[q]
                        if least[t] == -1:
                            least[t], edge[t] = p, i
                            orbit.append(t)
                if len(orbit) > 1:
                    self._orbits[p] = orbit
        return self

    def carry(self, p: int, values: Iterable[int]) -> list[int]:
        """values under an element of H that maps p to least[p]: the
        inverses of the generators on p's Schreier path, last one first,
        walked in one loop with no path list: most carried sets have an
        empty or one-step path."""
        values = list(values)
        edge, inverses = self.edge, self.inverses
        while (k := edge[p]) != -1:
            h = inverses[k]
            p = h[p]
            values = [h[v] for v in values]
        return values

    def child(self, r: int) -> StabilizerNode:
        """The stabilizer of r in H, for r an orbit minimum, of order
        |H| / |orbit of r|.  By Schreier's lemma it is generated by
        t_{m(p)}^-1 * m * t_p over the generators m and the points p of
        r's orbit, t_p the element on p's Schreier path.  Its chain is
        built by Schreier-Sims with that known order: each is sifted, by
        its images of base, through the chain built so far, and added
        when its residue is not the identity.  So a node stores at most r
        levels of at most |G| points, however large H.  The stabilizer of
        a fixed point is H itself.  Raises ValueError when r is not the
        least point of its orbit."""
        if self.least[r] != r:
            raise ValueError(f"{r} is not the least point of its orbit ({self.least[r]} is)")
        if r in self._children:
            return self._children[r]
        orbit = self._orbits.get(r)
        if orbit is None:
            return self  # not kept among the children: no reference cycle
        gens, inverses, edge = self.generators, self.inverses, self.edge
        lifted = {r: self.base}  # t_p(base), down the breadth-first orbit
        for q in orbit[1:]:
            lifted[q] = [gens[edge[q]][v] for v in lifted[inverses[edge[q]][q]]]

        def schreier():
            # t_{m(p)}^-1 * m * t_p, by images of base and as held maps
            for p in orbit:
                forth = [gens[k] for k in reversed(_path(edge, inverses, p))]
                for m in gens:
                    back = _path(edge, inverses, m[p])
                    yield (_apply(inverses, back, [m[v] for v in lifted[p]]),
                           forth + [m] + [inverses[k] for k in back])

        sub = StabilizerNode(self.base)
        sub.complete(self.order // len(orbit), schreier())
        node = self._children[r] = sub._walk_orbits(len(self.least))
        return node

    def least_image(self, points: Sequence[int], bound: Optional[Sequence[int]] = None):
        """The lexicographically least sorted image of the set points under
        H, with the number of orderings of points whose least tuple image
        it is; None as soon as that image is known to be
        lexicographically less than bound.

        The least tuple image of an ordering takes at each step the least
        point of the next entry's orbit under the stabilizer of the image
        so far, moving the rest along.  The least over orderings is
        sorted (its entries may be reordered), so it is the least set
        image.  The orderings are followed together, keeping at each step
        only those whose next entry reaches the least point.  For a
        generating set, which the group moves freely, the count is the
        order of its set stabilizer.
        """
        states = [tuple(points)]
        node = self
        image: list[int] = []
        # tight while the image so far equals bound's prefix: once an
        # entry is greater, the image is greater whatever follows
        tight = bound is not None
        for j in range(len(points)):
            least = node.least
            best = min(least[x] for rest in states for x in rest)
            if tight:
                if best < bound[j]:
                    return None
                tight = best == bound[j]
            states = [tuple(node.carry(x, rest[:i] + rest[i + 1:]))
                      for rest in states for i, x in enumerate(rest) if least[x] == best]
            image.append(best)
            if j + 1 < len(points):
                node = node.child(best)
        return tuple(image), len(states)
