"""Verification toolkit for the conformal instability of (CP^N, g_FS).

Computes Fubini-Study geometry, the first Laplace eigenspace, exact sphere
moments, variations of the metric family (1+s*phi) g_FS, the entropy
stability operators, and a symbolic reduction of the third variation of the
shrinker entropy, emitting a machine-checkable instability certificate.
"""

__version__ = "0.1.0"

from .charts import ChartPoint, OutsideChartError, sample_w, transition_map
from .eigenfunctions import (EigenFunction, HermitianForm,
                             basis_first_eigenspace, phi_value_at, special_phi,
                             verify_eigen)
from .entropy import (ConformalPerturbation, StabilityCertificate, certify,
                      first_variations, second_variation, third_variation,
                      v_of)
from .geometry import GeometryJet, Tau, einstein_tau
from .moments import (cpn_average, cpn_volume, monomial_average,
                      monte_carlo_average, polynomial_average,
                      symmetry_vanishing)
from .polynomials import (BihomogeneousPolynomial, harmonic_decomposition,
                          special_cubic_polynomial)
from .rewrite import IntegralExpr, confluence_check, reduce_third_variation
from .variation import (VariationFamily, closed_form_derivative, fd_derivative,
                        verify_lemma_suite)

__all__ = [
    "BihomogeneousPolynomial",
    "ChartPoint",
    "ConformalPerturbation",
    "EigenFunction",
    "GeometryJet",
    "HermitianForm",
    "IntegralExpr",
    "OutsideChartError",
    "StabilityCertificate",
    "Tau",
    "VariationFamily",
    "basis_first_eigenspace",
    "certify",
    "closed_form_derivative",
    "confluence_check",
    "cpn_average",
    "cpn_volume",
    "einstein_tau",
    "fd_derivative",
    "first_variations",
    "harmonic_decomposition",
    "monomial_average",
    "monte_carlo_average",
    "phi_value_at",
    "polynomial_average",
    "reduce_third_variation",
    "sample_w",
    "second_variation",
    "special_cubic_polynomial",
    "special_phi",
    "third_variation",
    "transition_map",
    "v_of",
    "verify_eigen",
    "verify_lemma_suite",
    "__version__",
]
