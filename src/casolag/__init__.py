"""Exact arithmetic for Casoratian-seeded Laguerre type orthogonal families.

Everything runs over rationals: family construction from difference-operator
seeds, closed-form bilinear pairings, orthogonality certification, banded
recurrence extraction, and the eigenvalue-polynomial algebra probe.
"""

from .family import (AdmissibilityCertificate, BetaRow, DegenerateFamily,
                     FamilySpec, InvalidPreset, beta, certify_admissible,
                     degenerate_preset, krall_preset, match_krall_parameters,
                     omega, q_poly, reduce_representation, spec_from_json,
                     spec_from_json_dict, spec_to_json)
from .forms import (BilinearForm, KappaMatrix, OrthoReport, VariantError,
                    closed_form_moment, kappa_matrix, kappa_solve, ortho_check,
                    u_function, u_function_alt)
from .laguerre import laguerre
from .linalg import InconsistentSystem, LinearSolution, solve_linear
from .parsing import ParseError, parse_poly
from .poly import LaurentPoly, Poly, Rat, as_rat, integer_roots, rat_str, render
from .recurrence import (AlgebraProbeResult, ObstructionResult,
                         RecurrenceTable, RhoRecurrenceResult, ThreeTermResult,
                         algebra_probe, expand_in_q, obstruction_test,
                         recurrence_table, reverify_probe, rho_bound,
                         rho_recurrence, three_term_test, verify_band)
from .special import (binom_rat, casoratian, combinatorial_identity_check,
                      from_binomial_basis, poch, to_binomial_basis)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityCertificate", "AlgebraProbeResult", "BetaRow",
    "BilinearForm", "DegenerateFamily", "FamilySpec", "InconsistentSystem",
    "InvalidPreset", "KappaMatrix", "LaurentPoly",
    "LinearSolution", "ObstructionResult", "OrthoReport", "ParseError",
    "Poly", "Rat", "RecurrenceTable", "RhoRecurrenceResult",
    "ThreeTermResult", "VariantError", "algebra_probe", "as_rat", "beta",
    "binom_rat", "casoratian", "certify_admissible", "closed_form_moment",
    "combinatorial_identity_check",
    "degenerate_preset", "expand_in_q", "from_binomial_basis",
    "integer_roots", "kappa_matrix", "kappa_solve", "krall_preset", "laguerre",
    "match_krall_parameters", "obstruction_test", "omega",
    "ortho_check", "parse_poly", "poch", "q_poly", "rat_str",
    "recurrence_table", "reduce_representation", "render", "reverify_probe",
    "rho_bound", "rho_recurrence", "solve_linear", "spec_from_json",
    "spec_from_json_dict", "spec_to_json", "three_term_test", "u_function",
    "u_function_alt", "verify_band",
]
