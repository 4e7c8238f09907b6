"""radsym: Dedekind sums, Rademacher symbols on modular groups (one engine
call on every element of infinite order, a closed form on elliptic ones),
periods of cuspidal differentials, and Manin-Drinfeld torsion certificates.

Highlights
    dedekind_sum, phi_classical, psi_classical  -- exact classical arithmetic
    GroupId, GroupElement, Cusp                 -- modular groups and cusps
    psi_general, phi_general, takada_phi        -- symbols on congruence groups
    period_numeric, x0_period_exact             -- period integrals
    SymbolValue, NumericPeriod                  -- exact and numeric values
    Divisor, torsion_certificate                -- cuspidal torsion orders
"""

from .dedekind import (
    cocycle_defect,
    dedekind_sum,
    phi_classical,
    pi_over_volume,
    psi_classical,
    sign,
)
from .modgroup import (
    Cusp,
    Family,
    GroupElement,
    GroupId,
    Motion,
    MotionClass,
    classify,
    cosets,
    cusp_equivalent,
    cusp_stabilizer_generator,
    cusp_width,
    cusps,
    member,
    parse_matrix,
    schreier_generators,
)
from .periods import (
    Divisor,
    NumericPeriod,
    PeriodValue,
    TorsionCertificate,
    divisor_period,
    divisor_periods,
    eta_log,
    period_numeric,
    phi_from_eta,
    torsion_certificate,
    x0_period_exact,
)
from .symbols import (
    SymbolValue,
    lift_coset_sum,
    phi_general,
    psi_general,
    takada_C_row_exact,
    takada_phi,
)

__version__ = "0.1.0"

__all__ = [
    "Cusp", "Divisor", "Family", "GroupElement", "GroupId", "Motion",
    "MotionClass", "NumericPeriod", "PeriodValue", "SymbolValue",
    "TorsionCertificate", "classify", "cocycle_defect",
    "cosets", "cusp_equivalent", "cusp_stabilizer_generator", "cusp_width",
    "cusps", "dedekind_sum", "divisor_period",
    "divisor_periods", "eta_log", "lift_coset_sum", "member",
    "parse_matrix", "period_numeric", "phi_classical", "phi_from_eta",
    "phi_general", "pi_over_volume", "psi_classical", "psi_general",
    "schreier_generators", "sign", "takada_C_row_exact", "takada_phi",
    "torsion_certificate", "x0_period_exact",
]
