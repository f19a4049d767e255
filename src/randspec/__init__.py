"""Monte Carlo laboratory for random one-dimensional tridiagonal operators.

Draw random Jacobi/Schroedinger boxes (Anderson, random hopping, alloy,
signed dimer, quantum-graph reductions), count and extract eigenvalues by
Sturm bisection, and probe the statistical laws of their spectra: window
occupancy scaling, pair suppression, two-energy decorrelation, Poisson local
statistics, exponential spacings, eigenvalue derivatives, transfer-matrix
growth, and the density of states. Every probe is deterministic for a fixed
seed, independent of the worker count.
"""

import gc as _gc

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
    ellipticity_report,
    lyapunov,
)

__version__ = "0.1.0"

# The objects that the numpy and randspec imports leave behind (about 22,000)
# live as long as the process, so move them out of the collector's reach:
# no later collection scans them, the one at interpreter exit included. That
# one took about 22 ms of a 0.19 s process of small library calls, and 7 ms
# after the freeze (2-core Xeon VM). The cost: a garbage cycle that exists
# at this moment is never freed. The gc documentation recommends freezing
# before forking workers, as map_blocks does.
_gc.freeze()
