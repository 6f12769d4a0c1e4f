"""Separated-fragment first-order logic toolkit.

Modules:
    syntax      formula trees, parsing, printing, normal forms
    semantics   finite structures and Tarskian evaluation
    search      exhaustive enumeration, model search, equivalence oracle
    analysis    fragment membership, interaction degree, size bounds
    translate   equivalence-preserving translation to exists*forall* form
    decide      satisfiability decision: a CDCL solver and bounded model search
    generators  benchmark families and their canonical models
    cli         the `sepfrag` command-line tool
"""

from . import analysis, decide, generators, search, semantics, syntax, translate
from .analysis import analyze, bounds, degree, is_separated, is_sf, is_ssf, twoup
from .decide import DecideConfig, SatVerdict, decide_sat
from .search import EquivVerdict, enumerate_structures, equivalent_upto, find_model
from .semantics import Structure, evaluate, substructure
from .syntax import (
    CnfMatrix,
    Formula,
    Signature,
    StandardForm,
    classify_cnf,
    cnf_matrix,
    formula_len,
    parse_formula,
    print_formula,
    substitute,
    to_nnf,
    to_standard_form,
)
from .translate import BsrSentence, SelectionInstance, expand_selections, push_quantifiers, to_bsr

__all__ = [
    "analysis",
    "decide",
    "generators",
    "search",
    "semantics",
    "syntax",
    "translate",
    "analyze",
    "bounds",
    "degree",
    "is_separated",
    "is_sf",
    "is_ssf",
    "twoup",
    "DecideConfig",
    "SatVerdict",
    "decide_sat",
    "EquivVerdict",
    "enumerate_structures",
    "equivalent_upto",
    "find_model",
    "Structure",
    "evaluate",
    "substructure",
    "CnfMatrix",
    "Formula",
    "Signature",
    "StandardForm",
    "classify_cnf",
    "cnf_matrix",
    "formula_len",
    "parse_formula",
    "print_formula",
    "substitute",
    "to_nnf",
    "to_standard_form",
    "BsrSentence",
    "SelectionInstance",
    "expand_selections",
    "push_quantifiers",
    "to_bsr",
]
