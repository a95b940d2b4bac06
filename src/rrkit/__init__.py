"""Toolkit for regular filters: the hard/easy dichotomy with verifiable
certificates, covering transducers, and realizability solvers."""

from .automata import (
    EPS,
    AlphabetError,
    Condensation,
    Dfa,
    FormatError,
    Nfa,
    canonical_dfa,
    canonical_nfa,
    complement,
    condense,
    determinize,
    dfa_to_text,
    empty_dfa,
    inclusion_counterexample,
    merge_alphabets,
    nfa_to_text,
    parse_automaton,
    parse_dfa,
    parse_nfa,
    product_intersect,
    regex_to_nfa,
    run,
    run_nfa,
    separating_word,
    shortest_word,
    trim,
    universal_dfa,
    word_from_text,
    word_to_text,
)
from .classify import (
    BoundedExpr,
    CertificateError,
    Classification,
    ClassificationMismatch,
    Easy,
    Hard,
    HardnessWitness,
    bounded_nfa,
    classification_from_text,
    classification_to_text,
    classify,
    expr_to_nfa,
    normalize_witness,
    primitive_root,
    verify_easy,
    verify_witness,
)
from .cover import CoverPlan, cover, cover_gap, plan_cover, surjection_to_star, verify_cover
from .rr import (
    Digraph,
    parse_digraph,
    reachability_gadget,
    reduce_rr,
    solve_rr,
    solve_rr_bounded_detail,
    solve_rr_nfa,
)
from .transducer import (
    Dfst,
    apply,
    compose_dfst,
    dfst_to_text,
    image_nfa,
    parse_dfst,
    preimage_automaton,
)

__version__ = "0.1.0"
