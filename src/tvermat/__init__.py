"""tvermat: matroid base packings, deleted-join homology, Tverberg search.

Everything is exact: matroid oracles answer over the integers, homology ranks
are certified over Q, and Tverberg witnesses carry rational convex
coefficients that re-validate with zero tolerance.
"""

from .errors import (
    HypothesisViolation,
    InputError,
    PreconditionError,
    ResourceLimitError,
)
from .matroids import (
    ExplicitMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    colourful_matroid,
    validate_matroid,
)
from .packing import (
    BasePacking,
    CoverCertificate,
    PackingCertificate,
    max_disjoint_bases,
    pack_into_independent,
    pack_k_bases,
)
from .complexes import (
    SimplicialComplex,
    as_complex,
    chessboard,
    deleted_join,
    enumerate_faces,
)
from .homology import (
    BettiVector,
    ConnectivityReport,
    SparseIntMatrix,
    betti_reduced,
    boundary_matrix,
    conjecture_scan,
    homologically_connected,
    verify_claim,
    verify_corollary,
)
from .lp import hulls_intersect, solve_equality_feasibility
from .tverberg import (
    PointConfig,
    SearchResult,
    TheoremReport,
    TverbergWitness,
    choose_prime,
    dold_inequality_holds,
    find_tverberg,
    random_point_config,
    threshold_t,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
