"""Invertible maps between spin states and single probability vectors.

A spin-j state is encoded in the joint probabilities of spin projections
measured along a finite set of rotations, and decoded back through dual
operator bases.  The package covers the continuous tomographic pair, the
finite 4j+1-direction scheme with its feasibility and conditioning analysis,
unitary-frame and highest-projection grid schemes, measurement-direction
optimization, the star-product calculus on symbols, and the geometry of the
quantum region on the probability simplex.
"""

from .errors import (
    ConfigError,
    DegeneratePriorError,
    DomainError,
    FeasibilityError,
    InvariantError,
    OptimizationError,
    SpinPortraitError,
)
from .spin import (
    Direction,
    Spin,
    angular_momentum,
    basis_ket,
    frame_matrix,
    random_density_matrix,
    rotation,
    validate_density_matrix,
)
from .linalg import (
    condition_number,
    hermitian_to_vec,
    numerical_rank,
    vec_to_hermitian,
)
from .orthopoly import assoc_legendre, coeff_table, legendre, s_operator
from .tomography import (
    dequantizer,
    quantizer_continuous,
    reconstruct_from_sphere,
    sphere_quadrature,
    tomogram,
    tomogram_column,
)
from .portrait import (
    Partition,
    ProbVector,
    normalize_to_eq,
    portrait,
    prob_vector,
    singleton_partition,
    stack,
    top_vs_rest_partition,
)
from .su2 import (
    DirectionSet,
    apply_quantizer,
    dual_vectors,
    feasibility,
    feasibility_delta,
    gram,
    l_dequantizer,
    l_quantizer,
    q_matrix,
    quantizer,
    reconstruct,
    shell_determinants,
)
from .schemes import (
    AWGrid,
    UnitaryFrameSet,
    aw_directions,
    aw_forward,
    aw_m_matrix,
    aw_normalized_forward,
    aw_reconstruct,
    default_aw_grid,
    gamma_prime,
    haar_unitary,
    mu_bound,
    newton_young_directions,
    r_matrix,
    random_frame_set,
    reconstruct_pinv,
    sun_gram,
)
from .optimize import OptimizerConfig, objective, optimize
from .kernels import (
    kernel_p_to_w,
    kernel_w_to_p,
    p_to_w,
    star_apply,
    star_kernel,
    symbol,
    symbol_to_operator,
    w_to_p,
)
from .region import (
    RegionVerdict,
    SliceEntry,
    SliceSpec,
    classify_points,
    is_quantum,
    qubit_ball_statistic,
    qubit_ball_test,
    qubit_region_inequalities,
    sample_region,
    write_region_csv,
)

__version__ = "0.1.0"
