"""Concrete finite group models with dense integer element ids.

Every group exposes elements as ids ``0 .. order-1`` with id 0 the
identity; the per-family normal forms (dicyclic exponent pairs,
permutation images, product tuples) are mapped to ids at construction.
Multiplication is closed-form index arithmetic; a full table is
materialised lazily, only for groups up to TABLE_LIMIT elements, by
``FiniteGroup.ensure_table``.  It builds the table column by column
from right multiplication by the generators, so the family's
multiplication runs order * |generators| times, not order^2.

The module also holds what follows Cayley edges and automorphisms:
``left_row``, ``forced_map``, ``group_automorphisms`` and the orbits of
elements (``orbit_minima``) and of k-sets (``set_orbit``) under them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from . import words
from .words import ParseError

DEFAULT_CLOSURE_CAP = 10000
TABLE_LIMIT = 4096
_ASSOC_EXHAUSTIVE_LIMIT = 200
_ASSOC_SAMPLES = 100_000


class ClosureLimitError(RuntimeError):
    """Raised when a permutation closure exceeds its element cap."""


class FiniteGroup:
    """A finite group on element ids 0..order-1 (identity is 0).

    Instances are immutable after construction and safe for concurrent
    reads; no operation mutates shared state.
    """

    def __init__(
        self,
        order: int,
        mul: Callable[[int, int], int],
        inv: Callable[[int], int],
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
        self._inv_fn = inv
        self._name_resolver = name_resolver
        self._table: Optional[list[tuple[int, ...]]] = None
        self._inv_table: Optional[tuple[int, ...]] = None

    def __repr__(self):
        return f"<FiniteGroup {self.descriptor} order {self.order}>"

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        if self._table is not None:
            return self._table[a][b]
        return self._mul_fn(a, b)

    def inv(self, a: int) -> int:
        if self._inv_table is not None:
            return self._inv_table[a]
        return self._inv_fn(a)

    def pow(self, g: int, k: int) -> int:
        if k < 0:
            g = self.inv(g)
            k = -k
        result = 0
        while k:
            if k & 1:
                result = self.mul(result, g)
            g = self.mul(g, g)
            k >>= 1
        return result

    def name(self, g: int) -> str:
        return self.names[g]

    def resolve_name(self, text: str) -> Optional[int]:
        got = self.named_elements.get(text)
        if got is None and self._name_resolver is not None:
            got = self._name_resolver(text)
        return got

    def ensure_table(self) -> None:
        """Materialise multiplication/inverse tables (small groups only).

        The columns are built breadth-first from the identity along right
        multiplication by each generator g: column p*g is column p mapped
        through R_g = (v -> v*g), since a*(p*g) = (a*p)*g.  So the family's
        ``mul`` runs order * |generators| times, not order^2.  Raises
        ValueError when the generators do not reach every element.
        """
        if self._table is not None or self.order > TABLE_LIMIT:
            return
        mul, order = self._mul_fn, self.order
        steps = [[mul(v, g) for v in range(order)] for _, g in self.generators]
        columns: list[Optional[tuple[int, ...]]] = [None] * order
        columns[0] = tuple(range(order))
        queue = [0]
        for p in queue:
            for step in steps:
                q = step[p]
                if columns[q] is None:
                    columns[q] = tuple(map(step.__getitem__, columns[p]))
                    queue.append(q)
        if len(queue) != order:
            raise ValueError(
                f"the generators of {self.descriptor} reach {len(queue)} of {order} elements"
            )
        self._table = list(zip(*columns))
        self._inv_table = tuple(self._inv_fn(a) for a in range(order))

    def validate(self, seed: int = 0) -> None:
        """Check the group axioms; raises ValueError on any violation.

        Associativity is exhaustive up to order 200 and sampled with
        100k random triples above that.
        """
        n = self.order
        for g in range(n):
            if self.mul(0, g) != g or self.mul(g, 0) != g:
                raise ValueError(f"identity is not neutral for element {g}")
            h = self.inv(g)
            if self.mul(g, h) != 0 or self.mul(h, g) != 0:
                raise ValueError(f"inv({g}) is not a two-sided inverse")
        if len(set(self.names)) != n:
            raise ValueError("element names are not pairwise distinct")
        if n <= _ASSOC_EXHAUSTIVE_LIMIT:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = random.Random(seed)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(_ASSOC_SAMPLES)
            )
        for a, b, c in triples:
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise ValueError(f"multiplication is not associative at {(a, b, c)}")


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
    names = []
    for i in range(count):
        if i == 0:
            head = ""
        elif i == 1:
            head = unit
        else:
            head = f"{unit}^{i}"
        if head and suffix:
            names.append(f"{head}*{suffix}")
        else:
            names.append(head or suffix or words.IDENTITY_NAME)
    return names


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

    def inv(p: int) -> int:
        i, j = p % two_n, p // two_n
        if j == 0:
            return (-i) % two_n
        return (i + n) % two_n + two_n

    names = _exponent_names("a", two_n) + _exponent_names("a", two_n, suffix="x")
    return FiniteGroup(
        4 * n, mul, inv, names, f"dicyclic:{n}", [("a", 1), ("x", two_n)]
    )


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

    def inv(p: int) -> int:
        i, j = p % n, p // n
        if j == 0:
            return (-i) % n
        return p

    names = _exponent_names("a", n) + _exponent_names("a", n, suffix="x")
    return FiniteGroup(2 * n, mul, inv, names, f"dihedral:{n}", [("a", 1), ("x", n)])


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n (n=1 gives the trivial group)."""
    if n < 1:
        raise ValueError(f"cyclic requires n >= 1, got {n}")
    names = _exponent_names("g", n)
    generators = [("g", 1)] if n > 1 else []
    return FiniteGroup(
        n, lambda a, b: (a + b) % n, lambda a: (-a) % n, names, f"cyclic:{n}", generators
    )


_IDENT_CHARS = words._NAME_CHARS


def _rename_expression(text: str, mapping: dict[str, str]) -> str:
    """Rewrite identifier tokens of an element expression via mapping."""
    if not mapping:
        return text
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in words._NAME_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            token = text[i:j]
            out.append(mapping.get(token, token))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


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

    def inv(a: int) -> int:
        a1, a2 = divmod(a, order2)
        return g1.inv(a1) * order2 + g2.inv(a2)

    combined = [name for name, _ in g1.generators] + [name for name, _ in g2.generators]
    if len(set(combined)) != len(combined):
        renamed = [f"g{i + 1}" for i in range(len(combined))]
    else:
        renamed = combined
    split = len(g1.generators)
    map1 = {old: new for old, new in zip(combined[:split], renamed[:split]) if old != new}
    map2 = {old: new for old, new in zip(combined[split:], renamed[split:]) if old != new}

    names = []
    for a1 in range(g1.order):
        left = _rename_expression(g1.names[a1], map1) if a1 else ""
        for a2 in range(order2):
            right = _rename_expression(g2.names[a2], map2) if a2 else ""
            if left and right:
                names.append(f"{left}*{right}")
            else:
                names.append(left or right or words.IDENTITY_NAME)

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
        inv,
        names,
        f"product:{g1.descriptor},{g2.descriptor}",
        generators,
        name_resolver=resolver,
    )


# ---------------------------------------------------------------------------
# permutation groups


def perm_from_cycles(degree: int, text: str) -> tuple[int, ...]:
    """Parse cycle notation like ``(1,2,3)`` or ``(1,2)(3,4)`` on 1..degree.

    Non-disjoint cycles compose left to right as functions (rightmost
    cycle applied first), matching group multiplication.
    """
    tokens = words.tokenize(text)
    if len(tokens) != 1 or tokens[0].kind != "CYCLES":
        raise ParseError(f"not a permutation in cycle notation: {text!r}", 0)
    cycles: list[list[int]] = []
    for chunk in tokens[0].text.replace(" ", "").split(")"):
        if not chunk:
            continue
        entries = [int(v) for v in chunk.lstrip("(").split(",")]
        for v in entries:
            if not 1 <= v <= degree:
                raise ValueError(f"cycle entry {v} outside 1..{degree}")
        if len(set(entries)) != len(entries):
            raise ValueError(f"repeated entry in cycle {chunk + ')'}")
        cycles.append(entries)
    perm = tuple(range(degree))
    for cycle in cycles:
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

    def inv(a: int) -> int:
        p = perms[a]
        out = [0] * degree
        for i, v in enumerate(p):
            out[v] = i
        return index[tuple(out)]

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

    generators_named = [(cycles_text(p), index[p]) for p in gen_perms]
    # drop duplicate generator entries (same permutation listed twice)
    seen_names: dict[str, int] = {}
    for name, g in generators_named:
        seen_names.setdefault(name, g)
    return FiniteGroup(
        len(perms),
        mul,
        inv,
        names,
        descriptor,
        list(seen_names.items()),
        name_resolver=resolver,
    )


# ---------------------------------------------------------------------------
# descriptors


def from_descriptor(text: str) -> FiniteGroup:
    """Build a group from a descriptor string.

    Grammar: ``dicyclic:<n>``, ``dihedral:<n>``, ``cyclic:<n>``,
    ``product:<d1>,<d2>`` (recursively) and
    ``perm:<degree>:<gen>;<gen>...`` with cycle-notation generators.
    """
    group, end = _parse_descriptor(text, 0)
    if text[end:].strip():
        raise ValueError(f"trailing text in descriptor: {text[end:]!r}")
    return group


def _parse_descriptor(text: str, pos: int) -> tuple[FiniteGroup, int]:
    rest = text[pos:]
    for family in ("dicyclic", "dihedral", "cyclic"):
        prefix = family + ":"
        if rest.startswith(prefix):
            start = pos + len(prefix)
            end = start
            while end < len(text) and text[end].isdigit():
                end += 1
            if end == start:
                raise ValueError(f"expected integer after {prefix!r} in descriptor")
            n = int(text[start:end])
            maker = {"dicyclic": dicyclic, "dihedral": dihedral, "cyclic": cyclic}[family]
            return maker(n), end
    if rest.startswith("product:"):
        g1, end = _parse_descriptor(text, pos + len("product:"))
        if end >= len(text) or text[end] != ",":
            raise ValueError("product descriptor needs two comma-separated factors")
        g2, end = _parse_descriptor(text, end + 1)
        return direct_product(g1, g2), end
    if rest.startswith("perm:"):
        start = pos + len("perm:")
        end = start
        while end < len(text) and text[end].isdigit():
            end += 1
        if end == start or end >= len(text) or text[end] != ":":
            raise ValueError("perm descriptor is perm:<degree>:<gen>;<gen>...")
        degree = int(text[start:end])
        cursor = end + 1
        gens: list[str] = []
        while True:
            chunk_end = _scan_cycle_chunk(text, cursor)
            gens.append(text[cursor:chunk_end])
            cursor = chunk_end
            if cursor < len(text) and text[cursor] == ";":
                cursor += 1
                continue
            # a comma also separates generators when a cycle follows; a
            # descriptor never starts with '(', so this is unambiguous
            # inside product descriptors
            if (
                cursor + 1 < len(text)
                and text[cursor] == ","
                and text[cursor + 1] == "("
            ):
                cursor += 1
                continue
            break
        return from_permutations(degree, gens), cursor
    raise ValueError(f"unknown group descriptor at {text[pos:]!r}")


def _scan_cycle_chunk(text: str, pos: int) -> int:
    depth = 0
    i = pos
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in ";,":
            break
        i += 1
    if depth != 0:
        raise ValueError("unbalanced parentheses in perm descriptor")
    if i == pos:
        raise ValueError("empty generator in perm descriptor")
    return i


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


def sequence_text(group: FiniteGroup, elements: Iterable[int]) -> str:
    return ",".join(group.names[g] for g in elements)


def element_order(group: FiniteGroup, g: int) -> int:
    """Least k >= 1 with g^k = e."""
    k = 1
    h = g
    while h != group.identity:
        h = group.mul(h, g)
        k += 1
    return k


def closure(group: FiniteGroup, elements: Iterable[int]) -> frozenset[int]:
    """Subgroup generated by the elements (breadth-first products)."""
    rows = [left_row(group, s) for s in sorted(set(elements))]
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        next_frontier = []
        for u in frontier:
            for row in rows:
                v = row[u]
                if v not in seen:
                    seen.add(v)
                    next_frontier.append(v)
        frontier = next_frontier
    return frozenset(seen)


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


def left_row(group: FiniteGroup, s: int) -> tuple[int, ...]:
    """The row v -> s*v: the label-s edges of a Cayley graph.  With a
    table this is the table's own row, not a copy."""
    if group._table is not None:
        return group._table[s]
    return tuple(group.mul(s, v) for v in range(group.order))


def forced_map(count: int, rows1, rows2, sigma, base: int, start: int) -> Optional[tuple[int, ...]]:
    """Force a vertex map from f(base) = start along the rows.

    A map sending row k of rows1 to row sigma[k] of rows2 satisfies
    f(rows1[k][g]) = rows2[sigma[k]][f(g)], so the image of base fixes
    it; a conflict, a collision or a vertex unreachable from base proves
    there is none.  Every edge is checked once.
    """
    f = [-1] * count
    used = [False] * count
    f[base] = start
    used[start] = True
    queue = [base]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
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
    if head != count:
        return None
    return tuple(f)


def orbit_minima(count: int, maps, inverse=None) -> list[int]:
    """The least element of the orbit of each id 0..count-1 under the
    automorphism maps and, when inverse is given, inversion: the orbits
    of the 1-sets under ``set_orbit``."""
    least = [-1] * count
    for g in range(count):
        if least[g] == -1:  # every smaller id is placed: g leads its orbit
            for (h,) in set_orbit((g,), maps, inverse):
                least[h] = g
    return least


def set_orbit(subset, maps, inverse=None) -> set[tuple[int, ...]]:
    """Sorted k-sets reachable from subset under the automorphism maps
    and, when inverse is given, under inverting one element whose
    inverse is not another element of the set."""
    orbit = {subset}
    stack = [subset]
    while stack:
        current = stack.pop()
        images = [tuple(sorted(m[g] for g in current)) for m in maps]
        if inverse is not None:
            for i, g in enumerate(current):
                h = inverse[g]
                if h != g and h not in current:
                    images.append(tuple(sorted(current[:i] + (h,) + current[i + 1 :])))
        for image in images:
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    return orbit


@dataclass(frozen=True)
class AutomorphismGroup:
    """Aut(G) held by generators only.

    Each generator is an element map: the tuple of images of the ids
    0..order-1.  ``order`` is |Aut(G)|.
    """

    generators: tuple[tuple[int, ...], ...]
    order: int


def _greedy_generators(group: FiniteGroup, orders: Sequence[int]) -> tuple[int, ...]:
    """A generating tuple: repeatedly the highest-order element (lowest id
    on ties) not yet in the subgroup generated so far."""
    gens: list[int] = []
    reached = closure(group, gens)
    while len(reached) < group.order:
        gens.append(max((g for g in group.elements() if g not in reached),
                        key=orders.__getitem__))
        reached = closure(group, gens)
    return tuple(gens)


def group_automorphisms(group: FiniteGroup) -> AutomorphismGroup:
    """Generators and order of Aut(G).

    An automorphism is fixed by the images t of a generating tuple s, so
    Aut(G) acts regularly on those image tuples.  Candidates t keep the
    orders of the s_i and of the products s_i*s_j, and are walked in
    lexicographic order.  A candidate is an automorphism exactly when
    forcing f(s_i*g) = t_i*f(g) from f(e) = e along the Cayley graph of
    s gives a bijection, which ``forced_map`` decides with the
    identity label map.  Candidates already reached from s by the maps
    found so far are skipped, so each accepted map at least doubles the
    subgroup they generate and only about log2|Aut(G)| maps are held.
    """
    group.ensure_table()
    orders = [element_order(group, g) for g in group.elements()]
    base = _greedy_generators(group, orders)
    source = [left_row(group, s) for s in base]
    identity_labels = tuple(range(len(base)))
    product_orders = [[orders[group.mul(p, q)] for q in base] for p in base]
    pools = [[g for g in group.elements() if orders[g] == orders[s]] for s in base]

    def candidates(prefix: list[int]):
        j = len(prefix)
        if j == len(base):
            yield tuple(prefix)
            return
        for t in pools[j]:
            if all(t != prefix[i] and orders[group.mul(prefix[i], t)] == product_orders[i][j]
                   for i in range(j)):
                prefix.append(t)
                yield from candidates(prefix)
                prefix.pop()

    maps: list[tuple[int, ...]] = []
    reached = {base}
    for image in candidates([]):
        if image in reached:
            continue
        target = [left_row(group, t) for t in image]
        f = forced_map(group.order, source, target, identity_labels, 0, 0)
        if f is None:
            continue
        maps.append(f)
        # grow the orbit of base: old points need only the new map
        fresh = [p for p in {tuple(f[g] for g in q) for q in reached} if p not in reached]
        reached.update(fresh)
        while fresh:
            point = fresh.pop()
            for m in maps:
                q = tuple(m[g] for g in point)
                if q not in reached:
                    reached.add(q)
                    fresh.append(q)
    return AutomorphismGroup(tuple(maps), len(reached))
