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
    eigenvalues_in,
    eigenvector,
    nearest_eigenvalue_distance,
    sturm_count,
    sturm_counts,
)
from .ids import (
    IdsTable,
    OutsideGridError,
    estimate_ids,
    holder_exponent_fit,
    unfold,
)
from .operators import (
    KINDS,
    DomainError,
    EnsembleSpec,
    FiniteProfile,
    IntervalGraphFamily,
    PiecewiseLinearLaw,
    TridiagonalOperator,
    UniformLaw,
    make_draw,
)
from .probes import (
    Estimate,
    ProbeReport,
    decorrelation_probe,
    joint_independence_probe,
    level_statistics_probe,
    minami_probe,
    qgraph_minami_probe,
    spacing_probe,
    wegner_probe,
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
    QGraphInstance,
    graph_eigenvalues,
    reduced_operator,
)
from .transfer import (
    EllipticityReport,
    LyapunovEstimate,
    ellipticity_report,
    lyapunov,
)

__version__ = "0.1.0"
