"""Infer the intrinsic dimension of a space sensed by unknown quasi-convex
functions, using only the m x n measurement matrix.

Only the per-row rank orders of the matrix enter any computation, so every
result is invariant under monotone re-scalings of the individual sensors.
"""

from .ingest import (
    DataMatrix,
    OrderTable,
    IngestError,
    DuplicateInRowError,
    NonFiniteError,
    NonNumericFieldError,
    RaggedRowsError,
    load_matrix,
    order_table,
)
from .dowker import (
    SimplicialComplex,
    Filtration,
    dowker_at,
    ray_filtration,
)
from .persistence import (
    PersistenceDiagram,
    PersistenceInterval,
    MaxLengths,
    persistence_intervals,
    max_lengths,
)
from .estimator import (
    LkProfile,
    BoxplotSummary,
    SubsampleResult,
    EstimateResult,
    compute_Lk,
    d_hat_low,
    subsample_points,
    subsample_functions,
    decide_dimension,
)
from .central import (
    CentralReport,
    CompletenessResult,
    discretized_central_region,
    completeness_test,
)
from .geometry import (
    RegularPairSpec,
    PointCloud,
    sample_pair,
)
from .interleave import InterleaveResult, interleaving_distance

__version__ = "0.1.0"

__all__ = [
    "DataMatrix",
    "OrderTable",
    "IngestError",
    "DuplicateInRowError",
    "NonFiniteError",
    "NonNumericFieldError",
    "RaggedRowsError",
    "load_matrix",
    "order_table",
    "SimplicialComplex",
    "Filtration",
    "dowker_at",
    "ray_filtration",
    "PersistenceDiagram",
    "PersistenceInterval",
    "MaxLengths",
    "persistence_intervals",
    "max_lengths",
    "LkProfile",
    "BoxplotSummary",
    "SubsampleResult",
    "EstimateResult",
    "compute_Lk",
    "d_hat_low",
    "subsample_points",
    "subsample_functions",
    "decide_dimension",
    "CentralReport",
    "CompletenessResult",
    "discretized_central_region",
    "completeness_test",
    "RegularPairSpec",
    "PointCloud",
    "sample_pair",
    "InterleaveResult",
    "interleaving_distance",
    "__version__",
]
