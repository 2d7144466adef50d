"""quadcong: exact verification of quadratic-field and Wilson-quotient congruences.

All arithmetic is exact (`fractions.Fraction` and Python integers); every
congruence verdict is a p-adic valuation computed on a rational difference.
"""

__version__ = "0.1.0"

from .padic import (
    INF,
    congruent,
    difference_verdict,
    fermat_quotient,
    is_p_integral,
    log_surrogate,
    unit_log_series,
    vp,
)
from .characters import (
    CharacterSplit,
    QuadChar,
    is_fundamental_discriminant,
    kronecker,
    legendre,
    split_character,
)
from .bernoulli import (
    BernoulliCache,
    bernoulli,
    bernoulli_poly,
    carlitz_check,
    gen_bernoulli,
    gen_bernoulli_many,
    lemma_power_sum_nonprincipal,
    lemma_power_sum_principal,
    power_sum_closed,
    power_sum_direct,
    power_sum_restricted,
    sun_congruence_check,
)
from .quadfield import (
    ClassNumber,
    FieldInvariants,
    UnitData,
    class_number,
    field_invariants,
    fundamental_unit,
    invariants_shell,
    is_squarefree,
    vp_u,
)
from .lseries import (
    CoefficientBundle,
    a0_closed_principal,
    a1_closed_principal,
    a1_closed_quadratic,
    a_coefficients_direct,
    b_coeff,
    lp1_via_class_number,
    lp_interp_value,
    stirling1,
    wilson_quotient,
    zeta_star_value,
)
from .reports import CongruenceReport, make_report, rederive_holds
from .suite import (
    ScanConfig,
    check_aac_classical,
    check_corollary_exact_division,
    check_lehmer_diff,
    check_lehmer_thm2,
    check_super_aacm_criterion,
    check_super_wilson_criterion,
    check_theorem1,
    check_theorem3,
    scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
