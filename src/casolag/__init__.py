"""Exact arithmetic for Casoratian-seeded Laguerre type orthogonal families.

Everything runs over rationals: family construction from difference-operator
seeds, closed-form bilinear pairings, orthogonality certification, banded
recurrence extraction, and the eigenvalue-polynomial algebra probe.

casolag.forms, casolag.recurrence and casolag.krall load on first use.
Importing the package puts each in sys.modules as an
importlib.util.LazyLoader module, compiled and run at the first attribute
read, and serves their public names through the module __getattr__ below.
A CLI process that only checks admissibility or prints family members then
compiles neither forms nor recurrence, one that checks orthogonality does
not compile recurrence, and only a preset config compiles krall: each
process pays for the code its subcommand runs.
"""

import importlib.util
import sys

from .family import (AdmissibilityCertificate, BetaRow, DegenerateFamily,
                     FamilySpec, InvalidPreset, beta, certify_admissible, omega,
                     q_poly, spec_from_json, spec_from_json_dict)
from .laguerre import laguerre
from .linalg import InconsistentSystem, LinearSolution, solve_linear
from .parsing import ParseError, parse_poly
from .poly import LaurentPoly, Poly, as_rat, integer_roots, rat_str, render
from .special import binom_rat, casoratian, poch, to_binomial_basis


def _lazy(name: str):
    """casolag.<name>, registered in sys.modules and run on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


forms = _lazy("forms")
recurrence = _lazy("recurrence")
krall = _lazy("krall")

# public name -> the lazy module that defines it
_LAZY = {
    **dict.fromkeys(("BilinearForm", "KappaMatrix", "OrthoReport", "VariantError",
                     "closed_form_moment", "kappa_matrix", "kappa_solve", "ortho_check",
                     "u_function"), forms),
    **dict.fromkeys(("AlgebraProbeResult", "ObstructionResult", "RecurrenceTable",
                     "RhoRecurrenceResult", "ThreeTermResult", "algebra_probe",
                     "obstruction_test", "recurrence_table", "reverify_probe",
                     "rho_bound", "rho_recurrence", "three_term_test", "verify_band"),
                    recurrence),
    **dict.fromkeys(("degenerate_preset", "krall_preset", "match_krall_parameters",
                     "reduce_representation"), krall),
}


def __getattr__(name: str):
    # Reads through on every access and binds nothing here, so a name always
    # resolves to what its module holds now.
    if name in _LAZY:
        return getattr(_LAZY[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AdmissibilityCertificate", "AlgebraProbeResult", "BetaRow",
    "BilinearForm", "DegenerateFamily", "FamilySpec", "InconsistentSystem",
    "InvalidPreset", "KappaMatrix", "LaurentPoly",
    "LinearSolution", "ObstructionResult", "OrthoReport", "ParseError",
    "Poly", "RecurrenceTable", "RhoRecurrenceResult",
    "ThreeTermResult", "VariantError", "algebra_probe", "as_rat", "beta",
    "binom_rat", "casoratian", "certify_admissible", "closed_form_moment",
    "degenerate_preset", "integer_roots",
    "kappa_matrix", "kappa_solve", "krall_preset", "laguerre",
    "match_krall_parameters", "obstruction_test", "omega",
    "ortho_check", "parse_poly", "poch", "q_poly", "rat_str",
    "recurrence_table", "reduce_representation", "render", "reverify_probe",
    "rho_bound", "rho_recurrence", "solve_linear", "spec_from_json",
    "spec_from_json_dict", "three_term_test", "u_function", "verify_band",
]
