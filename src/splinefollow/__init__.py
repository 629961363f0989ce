"""Spline path following for redundant Euler-Lagrange systems.

Library + CLI implementing transverse-feedback-linearization path
following on composite spline paths: closest-point tracking, generalized
Frenet-Serret coordinates, partial feedback linearization and null-space
redundancy resolution, verified in closed-loop simulation.
"""

from .curves import (
    AssumptionReport,
    PolynomialSegment,
    SplinePath,
    check_assumptions,
    circle_path,
    ellipse_path,
    fit_spline,
    helix_path,
    line_path,
)
from .dynamics import (
    Limits,
    MechanicalSystem,
    State,
    drift_and_input,
    make_cpm_like,
    make_example1,
    make_example2,
    make_plant,
)
from .frames import FRENET, FramePolicy, frame_jet
from .projection import (
    ProjectionConfig,
    ProjectionState,
    allowable_delta_lambda,
    global_initialize,
    update,
)
from .transform import LinearizationData, linearize
from .control import (
    OuterLoopGains,
    RedundancyConfig,
    bias_r,
    resolve_input,
    step,
    transversal_v,
)
from .sim import (
    PhasePortrait,
    RunLog,
    Scenario,
    run,
    zero_dynamics_portrait,
)
from . import errors

__version__ = "0.1.0"
