"""Word metrics and dead-end depth in finitely generated groups.

The library computes exact closed balls, norms and geodesics in Cayley
graphs, diameters of finite quotients, dead-end depths with a brute-force
oracle, and builds generating sets (via finite quotients of prescribed
diameter) under which a lifted witness element has certifiably large
dead-end depth, backed by explicit factorization certificates.
"""

from .groups import (
    Cyclic,
    Dihedral,
    GeneratingSet,
    Group,
    GroupElement,
    GroupError,
    IntegerGrid,
    IntegerLine,
    InvalidElementError,
    Lamplighter,
    MixedGroupError,
    RangeOverflowError,
    TableGroup,
    TableGroupError,
    Word,
    evaluate_word,
    invert_word,
    standard_gens,
)
from .cayley import (
    Ball,
    Budget,
    BudgetExceededError,
    ball,
    ball_cached,
    ball_to_csv,
    load_ball,
    save_ball,
)
from .quotient import (
    DiameterReport,
    FamilyExhaustedError,
    HomomorphismError,
    QuotientError,
    QuotientMap,
    SurjectivityError,
    check_homomorphism,
    counting_bound_check,
    cyclic_quotient,
    diameter,
    find_quotient,
    group_ball,
)
from .depth import DepthProfile, DepthValue, depth, depth_oracle, depth_profile
from .construction import (
    Certificate,
    CertificateError,
    Construction,
    ConstructionError,
    ConstructionParams,
    ConstructionReport,
    DeadEndWitness,
    PrefixTable,
    VerificationError,
    bound_inequality_holds,
    constructed_genset,
    factorize,
    find_witness,
    required_N,
    required_n,
    verify_construction,
)

__version__ = "0.1.0"
