"""Shortest accepted words of DFA intersections.

Builds DFA pairs whose intersection first accepts a word of length exactly
mn-1, checks that bound over size ranges, and exhaustively searches small
automaton tuples to map where the analogous k-way bound fails.
"""

from .automaton import (
    Alphabet,
    AlphabetMismatchError,
    BINARY,
    Dfa,
    InvalidDfaError,
    UNARY,
    Word,
    accepts,
    format_word,
    parse_word,
    run,
    validate,
)
from .constructions import (
    closed_form_witness,
    ones_mod_dfa,
    ramp_cycle_dfa,
    unary_residue_dfa,
)
from .enumeration import (
    BudgetExceededError,
    SearchReport,
    canonical_languages,
    enumerate_dfas,
    tightness_search,
)
from .interchange import InterchangeError, dumps, from_document, load_path, loads, save_path, to_document
from .minimize import equivalent, minimize, state_complexity
from .product import ProductResult, product
from .reports import WitnessReport, build_witness_report, verify_range
from .shortest import LssResult, intersection_lss, shortest_accepted

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlphabetMismatchError",
    "BINARY",
    "BudgetExceededError",
    "Dfa",
    "InterchangeError",
    "InvalidDfaError",
    "LssResult",
    "ProductResult",
    "SearchReport",
    "UNARY",
    "WitnessReport",
    "Word",
    "accepts",
    "build_witness_report",
    "canonical_languages",
    "closed_form_witness",
    "dumps",
    "enumerate_dfas",
    "equivalent",
    "format_word",
    "from_document",
    "intersection_lss",
    "load_path",
    "loads",
    "minimize",
    "ones_mod_dfa",
    "parse_word",
    "product",
    "ramp_cycle_dfa",
    "run",
    "save_path",
    "shortest_accepted",
    "state_complexity",
    "tightness_search",
    "to_document",
    "unary_residue_dfa",
    "validate",
    "verify_range",
]
