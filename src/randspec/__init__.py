"""Monte Carlo laboratory for random one-dimensional tridiagonal operators.

Draw random Jacobi/Schroedinger boxes (Anderson, random hopping, alloy,
signed dimer, quantum-graph reductions), count and extract eigenvalues by
Sturm bisection, and probe the statistical laws of their spectra: window
occupancy scaling, pair suppression, two-energy decorrelation, Poisson local
statistics, exponential spacings, eigenvalue derivatives, transfer-matrix
growth, and the density of states. Every probe is deterministic for a fixed
seed, independent of the worker count.
"""

from .eigensolve import (
    batched_eigenvalues_in,
    count_in_interval,
    dense_spectrum,
    eigenvalues_in,
    eigenvector,
    localization_center,
    nearest_eigenvalue_distance,
    sturm_count,
    sturm_counts,
)
from .ids import (
    IdsTable,
    OutsideGridError,
    ResolutionError,
    estimate_ids,
    free_laplacian_ids,
    holder_exponent_fit,
    holder_modulus,
    unfold,
)
from .operators import (
    KINDS,
    AffineFamily,
    DomainError,
    EnsembleSpec,
    FiniteProfile,
    GeometricProfile,
    IdentityFamily,
    IntervalGraphFamily,
    PiecewiseLinearLaw,
    TridiagonalOperator,
    UniformLaw,
    assemble,
    coefficients,
    draw_width,
    make_draw,
    truncate_alloy,
)
from .probes import (
    Estimate,
    PointProcessSample,
    ProbeReport,
    decorrelation_probe,
    joint_independence_probe,
    ks_to_exponential,
    level_statistics_probe,
    log_slope,
    minami_probe,
    normal_ci,
    poisson_pmf_with_tail,
    qgraph_minami_probe,
    spacing_probe,
    tv_to_poisson,
    tv_to_poisson_product,
    wegner_probe,
    wilson_ci,
)
from .pruefer import (
    GradientCheck,
    PrueferTrace,
    SplitResult,
    WronskianResult,
    consecutive_sine_floor,
    hellmann_feynman_check,
    pruefer_trace,
    split_box_search,
    wronskian_sequence,
)
from .qgraph import (
    GraphRoot,
    QGraphInstance,
    c_factor,
    free_graph_eigenvalues,
    graph_eigenvalues,
    graph_roots,
    m_matrix,
    potential_lipschitz,
    reduced_operator,
    secular_value,
)
from .transfer import (
    EllipticityReport,
    LyapunovEstimate,
    TransferStep,
    classify_trace,
    dimer_two_step,
    ellipticity_report,
    lyapunov,
    lyapunov_stream,
    one_step,
    operator_steps,
    propagate,
)

__version__ = "0.1.0"
