"""Classify generating sequences of finite groups by edge-labeled
Cayley graph isomorphism up to edge relabeling."""

from .cayley import CayleyGraph, build, is_connected, to_dot, undirected_view
from .classify import (
    ClassificationReport,
    SequenceClass,
    classify,
    classify_summary_equal,
    enumerate_generating_sequences,
)
from .dicyclic_theory import (
    MorphismPair,
    TheoremPrediction,
    TheoremVerification,
    generates_pair_ax,
    generates_pair_xx,
    morphism_pair,
    order_constraint_ax,
    predicted_classification,
    same_class_xx,
    verify_theorem,
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
from .iso import IsoWitness, automorphisms, brute_force_iso, directed_iso, undirected_iso
from .presentations import (
    CosetLimitExceeded,
    Presentation,
    Word,
    check_homomorphism,
    parse_presentation,
    pi_presentation,
    todd_coxeter,
    verify_mutual_inverse,
)
from .words import ParseError

__version__ = "0.1.0"
