"""Skorokhod problems and jump SDEs driven by maximal monotone operators.

Operators enter through their resolvents only; everything on top (reflection
solvers, Euler and Yosida time stepping, Monte Carlo convergence studies) is
deterministic given a master seed.
"""

from .errors import ConfigError, DomainViolationError, ExplosionError, NonConvergenceError
from .operators import (
    MonotoneOperator,
    resolve,
    yosida_j,
    yosida_a,
    flow,
    indicator_halfspace,
    indicator_box,
    indicator_ball,
    indicator_polyhedron,
    linear_monotone,
    convex_prox,
)
from .projections import (
    Projection,
    project_classical,
    project_elastic,
    project_elastic_iterated,
)
from .paths import (
    Partition,
    StepPath,
    BVDecomposition,
    uniform_partition,
    refine,
    discretize,
    sup_distance,
    grid_distance,
    variation,
)
from .skorokhod import (
    SkorokhodSolution,
    solve_step,
    reflect_halfline_oracle,
    verify_solution,
    pair_inequality_report,
)
from .drivers import (
    STREAM_VERSION,
    JumpLaw,
    ProcessSpec,
    DriverSpec,
    DriverRealization,
    simulate,
    refine_consistent,
    from_step_paths,
)
from .schemes import (
    Coefficient,
    constant_coefficient,
    zero_coefficient,
    SchemeOutput,
    euler_scheme,
    yosida_scheme,
    modified_yosida_scheme,
    resolvent_of_yosida_step,
)

__version__ = "0.1.0"
