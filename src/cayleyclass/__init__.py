"""Classify generating sequences of finite groups by edge-labeled
Cayley graph isomorphism up to edge relabeling.

Importing the package loads the classifier core: ``words``, ``groups``,
``cayley``, ``iso`` and ``classify``.  The names of ``presentations``
and ``dicyclic_theory``, and those modules themselves, load on first
use (PEP 562), so a process that only classifies never compiles them.
"""

import importlib

from .cayley import CayleyGraph, build, is_connected, to_dot, undirected_view
from .classify import (
    ClassificationReport,
    SequenceClass,
    classify,
    classify_summary_equal,
    enumerate_generating_sequences,
)
from .groups import (
    ClosureLimitError,
    FiniteGroup,
    GeneratingSequence,
    OrderMultiset,
    closure,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    element_order,
    from_descriptor,
    from_permutations,
    group_automorphisms,
    is_generating,
    is_minimal_generating,
    order_multiset,
    parse_element,
    parse_sequence,
)
from .iso import IsoWitness, directed_iso, undirected_iso
from .words import ParseError

__version__ = "0.1.0"

# module -> the names the package takes from it on first use
_LAZY = {
    "presentations": (
        "CosetLimitExceeded",
        "Presentation",
        "Word",
        "check_homomorphism",
        "parse_presentation",
        "todd_coxeter",
        "verify_mutual_inverse",
    ),
    "dicyclic_theory": (
        "MorphismPair",
        "TheoremPrediction",
        "TheoremVerification",
        "generates_pair_ax",
        "generates_pair_xx",
        "morphism_pair",
        "order_constraint_ax",
        "pi_presentation",
        "predicted_classification",
        "same_class_xx",
        "verify_theorem",
    ),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    # modules
    "cayley", "groups", "iso", "words", *_LAZY,
    # cayley
    "CayleyGraph", "build", "is_connected", "to_dot", "undirected_view",
    # classify
    "ClassificationReport", "SequenceClass", "classify", "classify_summary_equal",
    "enumerate_generating_sequences",
    # groups
    "ClosureLimitError", "FiniteGroup", "GeneratingSequence", "OrderMultiset", "closure",
    "cyclic", "dicyclic", "dihedral", "direct_product", "element_order", "from_descriptor",
    "from_permutations", "group_automorphisms", "is_generating", "is_minimal_generating",
    "order_multiset", "parse_element", "parse_sequence",
    # iso
    "IsoWitness", "directed_iso", "undirected_iso",
    # words
    "ParseError",
    # presentations and dicyclic_theory, loaded on first use
    *_OWNER,
]


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
