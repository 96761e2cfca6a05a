"""Numerical toolkit for the max-min characterization of the pass level.

Computes constrained minima i(lambda) on level sets of U, builds the level
curve I(lambda) = i(lambda) - lambda with its thresholds and argmax, and
cross-checks the max-min value against an independent direct estimate, a
descent over rays whose every sup bounds the pass level above, for two
radial p-Laplacian model problems and exact toy problems.
"""

from .constrained import (
    MinimizeResult,
    continuation_sweep,
    default_seed,
    minimize_on_level,
    retract_to_level,
)
from .errors import (
    ConvergenceError,
    GridMismatchError,
    InfeasibleError,
    ValidationError,
)
from .functionals import (
    NonlinearitySpec,
    ProblemSpec,
    estimate_mu_p,
    eval_F,
    eval_T,
    eval_U,
    grad_T,
    grad_U,
    hardy_constant,
    inner,
    mask,
    norm,
    precondition,
    problem_from_config,
)
from .grids import (
    GridFunction,
    RadialGrid,
    ScalingAction,
    apply_scaling,
    build_radial_grid,
    check_tail,
    quadrature,
)
from .levelcurve import (
    LevelCurve,
    build_level_curve,
    closed_form_lambda_bar,
    evaluate_F_along_path,
    scaling_exponent,
    scaling_path,
)
from .mpa import (
    DiscretePath,
    MpaOptions,
    crosses_all_levels,
    deform,
    estimate_c,
    find_endpoint,
    init_path,
)
from .toy import ToyProblem, toy_c_bruteforce, toy_closed_form, toy_i_lambda
from .verify import el_residual, multiplier_of, pick_solution_scale

__version__ = "0.1.0"
