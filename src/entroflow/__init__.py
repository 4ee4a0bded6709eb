"""Spectral laboratory for the entropy gradient flow of convex planar curves.

The state variable is the support function h(theta) of a locally convex
closed curve on [0, 2*omega*pi); the flow is h_t = k_thth + k with
k = 1/(h_thth + h), together with its exact expanding rescaling, a full set
of monitored functionals, and an independent graph-over-base-curve
formulation used for cross-validation.
"""

from .errors import (ConfigError, CurveIngestionError, DegenerateGraphError,
                     EntroflowError, FlowBreakdownError, NotLocallyConvexError,
                     UnsupportedOrderError)
from .spectral import GridFunction, PeriodicGrid, integrate
from .support import (CurveSample, SupportGrid, circle_support, curvature,
                      ellipse_support, fourier_support, reconstruct,
                      support_from_curve)
from .flow import (FlowState, StepperConfig, Trajectory, evolve, rescale_trajectory,
                   rhs, scale_factor, slow_time, step, unscaled_time)
from .diagnostics import (DiagnosticsRecord, MonitorReport, compute_record,
                          l2_contraction, run_monitors)
from .graph import (DerivativeBundle, GraphCurveScene, OperatorSplit,
                    band_limited_rho, build_bundle, check_parametrization_identity,
                    composite_support, operator_split, scene_circle,
                    scene_ellipse, velocity_graph)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
