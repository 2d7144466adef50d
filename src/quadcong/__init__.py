"""quadcong: exact verification of quadratic-field and Wilson-quotient congruences.

All arithmetic is exact (`fractions.Fraction` and Python integers); every
congruence verdict is a p-adic valuation computed on a rational difference.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .padic import (
    INF,
    difference_verdict,
    fermat_quotient,
    unit_log_series,
    vp,
)
from .characters import (
    CharacterSplit,
    QuadChar,
    is_fundamental_discriminant,
    kronecker,
    split_character,
)
from .bernoulli import (
    BernoulliCache,
    bernoulli,
    gen_bernoulli,
    gen_bernoulli_many,
)
from .quadfield import (
    ClassNumber,
    UnitData,
    class_number,
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
    lp1_via_class_number,
    lp_interp_value,
    wilson_quotient,
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

# dir() also lists the submodules that the imports above bind; they are not API
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
