"""germforge: exact computer algebra for hypersurface germs.

Truncated power series over the Gaussian rationals, square decomposition of
real defining forms, contact-order ratios with certified witness curves,
jet-level ideal linear algebra, Weierstrass preparation and Newton-Puiseux
branch construction, all wired into a certificate-emitting pipeline."""

from .coeffs import GaussianRational, as_gauss
from .errors import GermforgeError
from .hermitian import Decomposition, HermitianForm, decompose, reconstruct
from .ideals import (
    CodimReport,
    IdealPresentation,
    codimension,
    intersection_diagnostic,
    max_power_subset,
    membership_jet,
    radical_membership,
)
from .series import (
    FormalCurve,
    TruncSeries,
    compare,
    jet,
    mul,
    pullback,
    reparametrize,
    vanishing_order,
)
from .typeengine import (
    GramMismatch,
    TypeRatio,
    UnitaryBlock,
    WitnessResult,
    build_ideal,
    dangelo_ratio,
    equivalence_check,
    match_unitary,
    monomial_curve_search,
    witness_check,
)
from .weierstrass import (
    NormalForm,
    PuiseuxBranch,
    WeierstrassPoly,
    associated_membership,
    discriminant,
    generic_restrict,
    newton_puiseux,
    prime_curve_lift,
    weierstrass_divide,
    weierstrass_prepare,
)
from .pipeline import PipelineResult, recheck_bundle, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "GaussianRational",
    "as_gauss",
    "GermforgeError",
    "TruncSeries",
    "FormalCurve",
    "compare",
    "mul",
    "jet",
    "pullback",
    "reparametrize",
    "vanishing_order",
    "HermitianForm",
    "Decomposition",
    "decompose",
    "reconstruct",
    "TypeRatio",
    "UnitaryBlock",
    "GramMismatch",
    "WitnessResult",
    "dangelo_ratio",
    "witness_check",
    "monomial_curve_search",
    "match_unitary",
    "build_ideal",
    "equivalence_check",
    "IdealPresentation",
    "CodimReport",
    "membership_jet",
    "codimension",
    "max_power_subset",
    "radical_membership",
    "intersection_diagnostic",
    "WeierstrassPoly",
    "PuiseuxBranch",
    "NormalForm",
    "weierstrass_divide",
    "weierstrass_prepare",
    "discriminant",
    "generic_restrict",
    "newton_puiseux",
    "prime_curve_lift",
    "associated_membership",
    "PipelineResult",
    "run_pipeline",
    "recheck_bundle",
]
