"""Exact-arithmetic analysis of linear systems structured by a partial order.

The package computes, over exact rationals: structured reachability and
observability subspaces and their classification flags, the duality identities
relating them, structure-preserving Kalman-type reductions with moment checks,
and floating-point trajectory simulations of the derived subsystem models.
"""

from .blockmat import (
    BlockMatrix,
    Partition,
    block_identity,
    compress,
    compressed_product,
    embed,
    is_incident,
    project,
    structured_inverse,
    structured_multiply,
)
from .duality import DualityReport, verify_duality
from .errors import (
    AmbientMismatch,
    CycleError,
    DimensionMismatch,
    DownSetNotContained,
    InclusionViolation,
    IncompatibleShapes,
    IndexOutOfRange,
    NonFinite,
    NotWeaklyLocallyControllable,
    ParseError,
    PartitionMismatch,
    PosetSysError,
    ShapeMismatch,
    SingularMatrix,
    SingularResolvent,
    StructureViolation,
    ValidationError,
)
from .fileio import load_system, save_system, system_from_dict, system_to_dict
from .observability import (
    ObservabilityProfile,
    obsv_matrix,
    profile_via_duality,
    unobservable,
    upstream_indistinguishable,
)
from .observability import profile as observability_profile
from .poset import (
    Poset,
    block_triangular_relabel,
    build_poset,
    derived_set,
    dual_poset,
    hasse_edges,
    level_sets,
    ultra_transitivity,
)
from .reachability import (
    CharPolyFactorization,
    ReachabilityProfile,
    char_poly_factored,
    ctrb_matrix,
    downstream_reachable,
    pole_place,
    reachable,
    weakly_locally_controllable,
)
from .reachability import profile as reachability_profile
from .reduction import (
    Compression,
    KalmanDecomposition,
    ReducedSystem,
    generalized_reduce,
    kalman,
    moments_equal,
    poset_reduce,
)
from .report import analyze
from .sim import InputSignal, Trajectory, expm, simulate, verify_trajectory_decomposition
from .subspace import Subspace, direct_sum, image, kernel
from .system import (
    PosetCausalSystem,
    derived,
    dual_system,
    transfer_eval,
    validate,
)

__version__ = "0.1.0"
