"""Certificate toolkit for two- and three-point bounds on spherical codes.

Evaluate expansions in the normalized Gegenbauer basis, compute moments,
energies and distance distributions of codes, validate certificate side
conditions, apply the bound formulas, and run the cap-configuration
pipeline that rules out configurations by contradiction.
"""

from .bounds import (
    DDCertificate,
    SlackReport,
    ThreePointReport,
    dd_bound,
    dd_bound_general,
    delsarte_bound,
    lp_rg_lower,
    three_point_check,
    two_point_check,
    yudin_energy_lower,
)
from .capopt import CapProblem, CapResult, KissingReport, cap_max, kissing_check
from .codes import (
    BUILTIN_NAMES,
    DistanceDistribution,
    SphericalCode,
    builtin_code,
    distance_distribution,
    energy,
    make_24cell,
    make_cross_polytope,
    make_simplex,
    moment,
    r_value,
    s_sum,
)
from .data import load_certificate, load_expansion
from .errors import (
    AmbiguityError,
    CapabilityError,
    DomainError,
    ParameterError,
    PreconditionError,
)
from .gegenbauer import (
    GegenbauerExpansion,
    gegenbauer_eval,
    monomial_oracle,
    orthogonality_oracle,
)
from .threepoint import (
    CertificateReport,
    PsdResult,
    TripleCertificate,
    TripleSumParts,
    bv_matrix,
    certificate_valid,
    psd_check,
    triple_sum,
    triple_sum_parts,
)
from .verify import (
    DomainSpec,
    ViolationReport,
    check_dd_pair_condition,
    check_pair_condition,
    check_sign,
    check_triple_condition,
    d3_determinant,
    in_d3,
)

__version__ = "0.1.0"
