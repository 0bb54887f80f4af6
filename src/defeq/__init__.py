"""Finite-model workbench.

Everything here works over explicit finite models: first-order syntax and
evaluation (`folang`), the truth of whole levels of the formula stream at
once (`truth`), model enumeration and isomorphism (`models`),
permutation groups (`groups`), automorphism spectra and concrete
model-class bijections (`spectra`), ultraproducts (`ultra`), definability
checks (`definability`), and a family of irregular 0/1 sequences
(`irregular`).  The `defeq` console script exposes the same operations.
"""

from .budget import BudgetExceededError, WorkBudget
from .definability import (
    DefinitionSet,
    beth_search,
    expand_model,
    extend_theory,
    substructure_closure_check,
    unique_expansion_check,
)
from .folang import (
    FormulaSyntaxError,
    Signature,
    SignatureError,
    enumerate_formulas,
    eval_formula,
    formula_to_text,
    parse_formula,
)
from .groups import PermutationGroup, automorphism_group, group_to_text
from .irregular import emit_ts_axioms, irregularity_report, register_variant, symbols
from .models import (
    FiniteModel,
    InternalError,
    Theory,
    enumerate_models,
    find_isomorphisms,
    is_model,
)
from .spectra import (
    SpectraMismatchError,
    Spectrum,
    aut_spec,
    build_concrete_iso,
    compare_spectra,
    verify_concrete_iso,
)
from .ultra import Ultrafilter, los_check, ultraproduct

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "WorkBudget",
    "DefinitionSet",
    "beth_search",
    "expand_model",
    "extend_theory",
    "substructure_closure_check",
    "unique_expansion_check",
    "FormulaSyntaxError",
    "Signature",
    "SignatureError",
    "enumerate_formulas",
    "eval_formula",
    "formula_to_text",
    "parse_formula",
    "PermutationGroup",
    "automorphism_group",
    "group_to_text",
    "emit_ts_axioms",
    "irregularity_report",
    "register_variant",
    "symbols",
    "FiniteModel",
    "InternalError",
    "Theory",
    "enumerate_models",
    "find_isomorphisms",
    "is_model",
    "SpectraMismatchError",
    "Spectrum",
    "aut_spec",
    "build_concrete_iso",
    "compare_spectra",
    "verify_concrete_iso",
    "Ultrafilter",
    "los_check",
    "ultraproduct",
    "__version__",
]
