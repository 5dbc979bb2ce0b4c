"""Closed-form generation and equivalence predicates for dicyclic
groups, the explicit morphism pairs onto the two-generator
presentations, and the end-to-end verifier that confronts the
closed-form predictions with brute-force classification.

Conventions: the dicyclic group of order 4n is <a,x | a^(2n)=e,
x^2=a^n, x^(-1)ax=a^(-1)>; elements a^k*x all have order 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .classify import ClassificationReport, classify, classify_summary_equal
from .groups import OrderMultiset, dicyclic, group_automorphisms, parse_sequence
from .presentations import (
    Presentation,
    parse_presentation,
    pi_presentation,
    todd_coxeter,
    verify_mutual_inverse,
)

# the n that verify_theorem (and so `verify-theorem --n-range`) accepts
MIN_N = 2
MAX_N = 12


def classical_presentation(n: int) -> Presentation:
    if n < 2:
        raise ValueError(f"requires n >= 2, got {n}")
    return parse_presentation(f"<a,x | a^{2 * n}, x^2=a^{n}, x^-1*a*x=a^-1>")


def generates_pair_xx(n: int, k: int, m: int) -> bool:
    """Does (a^k*x, a^m*x) generate the order-4n dicyclic group?"""
    if n < 2:
        raise ValueError(f"requires n >= 2, got {n}")
    return math.gcd(n, k - m) == 1


def generates_pair_ax(n: int, k: int, m: int) -> bool:
    """Does (a^k, a^m*x) generate?  Depends only on gcd(n, k)."""
    if n < 2:
        raise ValueError(f"requires n >= 2, got {n}")
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
    if n < 2:
        raise ValueError(f"requires n >= 2, got {n}")
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
    if n < 2:
        raise ValueError(f"requires n >= 2, got {n}")
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

    variant: int
    phi: dict[str, str]
    psi: dict[str, str]


def morphism_pair(n: int, variant: int) -> MorphismPair:
    """The explicit mutually inverse generator assignments per variant.

    Variant 1: phi(a)=u^3*v, phi(x)=v; psi(u)=a*x, psi(v)=x.
    Variant 0 (odd n): phi(a)=v*u, phi(x)=v; psi(u)=a^(n-1)*x, psi(v)=x.
    Variant n (odd n): phi(a)=b^q*y^2 with q=(n+1)/2, phi(x)=y;
    psi(b)=a^2, psi(y)=x.
    """
    if n < 2:
        raise ValueError(f"requires n >= 2, got {n}")
    if variant == 1:
        return MorphismPair(1, {"a": "u^3*v", "x": "v"}, {"u": "a*x", "v": "x"})
    if variant == 0:
        if n % 2 == 0:
            raise ValueError("variant 0 requires odd n")
        return MorphismPair(0, {"a": "v*u", "x": "v"}, {"u": f"a^{n - 1}*x", "v": "x"})
    if variant == n:
        if n % 2 == 0:
            raise ValueError("variant n requires odd n")
        q = (n + 1) // 2
        return MorphismPair(n, {"a": f"b^{q}*y^2", "x": "y"}, {"b": "a^2", "y": "x"})
    raise ValueError(f"variant must be 0, 1 or n={n}, got {variant}")


def applicable_variants(n: int) -> list[int]:
    return [1] if n % 2 == 0 else [0, 1, n]


def check_morphism_variant(n: int, variant: int) -> bool:
    """Enumerate the variant's presentation, check its order is 4n, and
    verify the mutually inverse morphism pair."""
    presentation = pi_presentation(n, variant)
    realized = todd_coxeter(presentation, expected_order=4 * n)
    if realized.order != 4 * n:
        return False
    pair = morphism_pair(n, variant)
    return verify_mutual_inverse(
        dicyclic(n),
        presentation,
        pair.phi,
        pair.psi,
        group_presentation=classical_presentation(n),
        realized=realized,
    )


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
                ("n" if v not in (0, 1) else str(v)): ok
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
    root = group_automorphisms(group)
    report = classify(group, 2, "directed", minimal_only=True, automorphisms=root)
    profile_ok = classify_summary_equal(report, prediction.multisets)

    # a class is an Aut(G)-orbit of sets, led by its least set, which is
    # the least image of each of its sets
    index = {c.representative.elements: i for i, c in enumerate(report.classes)}
    rep_classes = [index.get(root.least_image(sorted(parse_sequence(group, text).elements))[0], -1)
                   for text in prediction.representatives]
    distinct = -1 not in rep_classes and len(set(rep_classes)) == len(rep_classes)

    morphisms = {v: check_morphism_variant(n, v) for v in applicable_variants(n)}
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
