"""Two-stage mixed-precision CG solver with learned stage-1 tolerance.

The toolkit solves sparse SPD systems by running conjugate gradients in
binary32 to a loose tolerance eps1 and refining in binary64 to the final
tolerance, and it learns a good eps1 from five O(nnz)-computable matrix
features via nearest-neighbor classification over a labeled sample.
"""

from .dataset import (
    DEFAULT_GRID,
    EpsilonGrid,
    GraphSpec,
    SampleRecord,
    build_sample,
    generate,
    label_matrix,
    perturb,
    plan_specs,
    read_sample,
)
from .features import (
    EigenIntervalEstimate,
    FeatureVector,
    Interval,
    eigen_estimates,
    extract_features,
    pseudo_diameter,
    spread,
)
from .regression import (
    EvalReport,
    KnnModel,
    evaluate,
    fit_knn,
    knn_predict,
    split,
)
from .solver import (
    SolveConfig,
    SolveResult,
    TwoStageResult,
    cg,
    cost,
    two_stage_solve,
)
from .sparse import (
    SparseSymMatrix,
    downcast,
    downcast_vector,
    from_coordinates,
    read_matrix_market,
    spmv,
    upcast_vector,
    write_matrix_market,
)

__version__ = "0.1.0"
