"""Closed-form generation and equivalence predicates for dicyclic
groups, the two-generator presentation variants with their explicit
morphism pairs, and the end-to-end verifier that confronts the
closed-form predictions with brute-force classification.  Which
variants exist for n, their presentations and their morphism pairs
are decided in one place, ``_variants``.

Conventions: the dicyclic group of order 4n is <a,x | a^(2n)=e,
x^2=a^n, x^(-1)ax=a^(-1)>; elements a^k*x all have order 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .classify import ClassificationReport, classify, classify_summary_equal
from .groups import FiniteGroup, OrderMultiset, dicyclic, group_automorphisms, parse_sequence
from .presentations import Presentation, parse_presentation, verify_mutual_inverse

# the n that verify_theorem (and so `verify-theorem --n-range`) accepts:
# up to 128 the group order 4n stays within classify.DEFAULT_MAX_ORDER and
# C(4n, 2) within classify.MAX_SETS
MIN_N = 2
MAX_N = 128


def _require_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"requires n >= 2, got {n}")


def generates_pair_xx(n: int, k: int, m: int) -> bool:
    """Does (a^k*x, a^m*x) generate the order-4n dicyclic group?"""
    _require_n(n)
    return math.gcd(n, k - m) == 1


def generates_pair_ax(n: int, k: int, m: int) -> bool:
    """Does (a^k, a^m*x) generate?  Depends only on gcd(n, k)."""
    _require_n(n)
    return math.gcd(n, k) == 1


def same_class_xx(n: int, k1: int, m1: int, k2: int, m2: int) -> bool:
    """Are the generating pairs (a^k1*x, a^m1*x) and (a^k2*x, a^m2*x)
    equivalent?  Always for even n; for odd n exactly when the
    exponent differences agree mod 2."""
    if not (generates_pair_xx(n, k1, m1) and generates_pair_xx(n, k2, m2)):
        raise ValueError("same_class_xx requires generating pairs")
    if n % 2 == 0:
        return True
    return (k1 - m1) % 2 == (k2 - m2) % 2


def order_constraint_ax(n: int, k: int) -> Optional[int]:
    """Order of a^k in a generating pair (a^k, a^m*x), or None when no
    such pair generates: 2n when gcd(2n,k)=1, n when gcd(2n,k)=2 and n
    is odd."""
    _require_n(n)
    g = math.gcd(2 * n, k)
    if g == 1:
        return 2 * n
    if g == 2 and n % 2 == 1:
        return n
    return None


@dataclass(frozen=True)
class TheoremPrediction:
    """Predicted class structure of minimal length-2 classification."""

    n: int
    class_count: int
    multisets: tuple[OrderMultiset, ...]
    representatives: tuple[str, ...]


def predicted_classification(n: int) -> TheoremPrediction:
    """Two classes for even n, four for odd n, with representatives
    (a,x); (a*x,x); and for odd n also (a^2*x,x) and (a^2,x)."""
    _require_n(n)
    multisets = [OrderMultiset.of((2 * n, 4)), OrderMultiset.of((4, 4))]
    representatives = ["a,x", "a*x,x"]
    if n % 2 == 1:
        multisets.append(OrderMultiset.of((4, 4)))
        representatives.append("a^2*x,x")
        multisets.append(OrderMultiset.of((n, 4)))
        representatives.append("a^2,x")
    return TheoremPrediction(n, len(multisets), tuple(multisets), tuple(representatives))


@dataclass(frozen=True)
class MorphismPair:
    """Generator assignments phi: classical -> pi and psi: pi -> classical."""

    phi: dict[str, str]
    psi: dict[str, str]


def _variants(n: int) -> dict[int, tuple[str, MorphismPair]]:
    """The presentation variants attached to the dicyclic group of order
    4n, each with its presentation text and its morphism pair: variant 1
    for every n, variants 0 and n for odd n only."""
    _require_n(n)
    variants = {1: (f"<u,v | u^2=v^2, u^4, u^2*(u^3*v)^{n}>",
                    MorphismPair({"a": "u^3*v", "x": "v"}, {"u": "a*x", "v": "x"}))}
    if n % 2 == 1:
        q = (n + 1) // 2
        variants[0] = (f"<u,v | u^2=v^2, u^4, u^2*(u*v)^{n}>",
                       MorphismPair({"a": "v*u", "x": "v"}, {"u": f"a^{n - 1}*x", "v": "x"}))
        variants[n] = (f"<b,y | b^{n}, y^4, y^-1*b*y=b^-1>",
                       MorphismPair({"a": f"b^{q}*y^2", "x": "y"}, {"b": "a^2", "y": "x"}))
    return variants


def _variant(n: int, variant: int) -> tuple[str, MorphismPair]:
    variants = _variants(n)
    if variant in variants:
        return variants[variant]
    if variant in (0, n):
        raise ValueError(f"variant {'0' if variant == 0 else 'n'} requires odd n")
    raise ValueError(f"variant must be 0, 1 or n={n}, got {variant}")


def pi_presentation(n: int, variant: int) -> Presentation:
    """The two-generator presentations attached to the dicyclic group of
    order 4n: variant 1 for every n, variants 0 and n for odd n only."""
    return parse_presentation(_variant(n, variant)[0])


def morphism_pair(n: int, variant: int) -> MorphismPair:
    """The explicit mutually inverse generator assignments per variant.

    Variant 1: phi(a)=u^3*v, phi(x)=v; psi(u)=a*x, psi(v)=x.
    Variant 0 (odd n): phi(a)=v*u, phi(x)=v; psi(u)=a^(n-1)*x, psi(v)=x.
    Variant n (odd n): phi(a)=b^q*y^2 with q=(n+1)/2, phi(x)=y;
    psi(b)=a^2, psi(y)=x.
    """
    return _variant(n, variant)[1]


def applicable_variants(n: int) -> list[int]:
    return sorted(_variants(n))


def variant_label(variant: int) -> str:
    """The variant as reports name it: "0", "1", or "n" for the variant n."""
    return str(variant) if variant in (0, 1) else "n"


def check_morphism_variant(n: int, variant: int, group: Optional[FiniteGroup] = None) -> bool:
    """Verify that the variant's morphism pair is mutually inverse
    between ``group``, ``dicyclic(n)`` (built here when not given), and
    the variant's presentation, whose order, 4n when it passes, comes
    from one checked coset table over <phi(a)>, of index 2, and
    Reidemeister-Schreier on it (``verify_mutual_inverse``)."""
    pair = morphism_pair(n, variant)
    return verify_mutual_inverse(group or dicyclic(n), pi_presentation(n, variant),
                                 pair.phi, pair.psi)


@dataclass(frozen=True)
class TheoremVerification:
    n: int
    predicted: TheoremPrediction
    report: ClassificationReport
    representative_classes: tuple[int, ...]
    representatives_distinct: bool
    morphisms_checked: dict[int, bool]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "predicted": {
                "class_count": self.predicted.class_count,
                "order_multisets": [ms.to_json() for ms in self.predicted.multisets],
                "representatives": list(self.predicted.representatives),
            },
            "observed": {
                "class_count": len(self.report.classes),
                "order_multisets": [c.order_multiset.to_json() for c in self.report.classes],
                "class_sizes": [c.size for c in self.report.classes],
                "representative_classes": list(self.representative_classes),
                "representatives_distinct": self.representatives_distinct,
            },
            "morphisms_checked": {
                variant_label(v): ok
                for v, ok in sorted(self.morphisms_checked.items())
            },
            "pass": self.passed,
        }


def verify_theorem(n: int) -> TheoremVerification:
    """Machine-check the two/four-class theorem for one n.

    Classifies the minimal length-2 generating sequences, compares
    count and multiset profile against the prediction, places every
    predicted representative in a distinct observed class, and runs the
    morphism verification for each applicable presentation variant.
    A representative's class is the one whose representative, the least
    set of its Aut(G)-orbit, is the least image of its set, or -1.
    """
    if not MIN_N <= n <= MAX_N:
        raise ValueError(f"n must be in {MIN_N}..{MAX_N}, got {n}")
    group = dicyclic(n)
    prediction = predicted_classification(n)
    report = classify(group, 2, "directed", minimal_only=True)
    profile_ok = classify_summary_equal(report, prediction.multisets)

    # a class is an Aut(G)-orbit of sets, led by its least set, which is
    # the least image of each of its sets; the root is the one classify
    # built and kept on the group
    root = group_automorphisms(group)
    index = {c.representative.elements: i for i, c in enumerate(report.classes)}
    rep_classes = [index.get(root.least_image(sorted(parse_sequence(group, text).elements))[0], -1)
                   for text in prediction.representatives]
    distinct = -1 not in rep_classes and len(set(rep_classes)) == len(rep_classes)

    morphisms = {v: check_morphism_variant(n, v, group)
                 for v in applicable_variants(n)}
    passed = profile_ok and distinct and all(morphisms.values())
    return TheoremVerification(
        n=n,
        predicted=prediction,
        report=report,
        representative_classes=tuple(rep_classes),
        representatives_distinct=distinct,
        morphisms_checked=morphisms,
        passed=passed,
    )
