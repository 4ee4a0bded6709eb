"""The graph-over-base-curve formulation and its cross-checks.

Writing the curve as gamma0 + rho * (outer normal) over a fixed convex base
gives closed-form expressions for the derivatives gamma_u .. gamma_u4, the
normal velocity, and a quasilinear/fully-nonlinear operator decomposition.
Every formula is validated against spectral differentiation of the sampled
composite curve, and the velocity against the support-function pipeline.
"""

import numpy as np

from entroflow import (build_bundle, check_parametrization_identity,
                       composite_support, fourier_support, rhs, scene_circle,
                       scene_ellipse, velocity_graph, PeriodicGrid)
from entroflow.graph import crosscheck
from entroflow.spectral import trig_eval_values

# the residual battery behind `entroflow crosscheck`: bundle-vs-direct and
# operator-split residuals at rho = 0 and for 10 seeded band-limited graphs,
# plus, over the unit circle, the velocity of the concentric composite
# rho = 0.5 (the circle of radius 1.5, whose velocity is its curvature 2/3)
for label, base, radius in (("circle", scene_circle(1.0, 256), 1.0),
                            ("ellipse", scene_ellipse(2.0, 1.0, 256), None)):
    worst = {}
    for name, value, _ in crosscheck(base, 0, 10, radius=radius):
        check = name.split("_")[0]
        worst[check] = max(worst.get(check, 0.0), value)
    print(f"{label:8s} base, 10 draws: "
          + ", ".join(f"{check} {value:.2e}" for check, value in worst.items()))

# the same velocity through the support-function pipeline
base = scene_circle(1.0, 256)
scene = base.with_rho(0.05 * np.sin(2 * np.pi * base.u / base.length))
v = velocity_graph(scene)
bundle = build_bundle(scene)
sup = composite_support(scene, 256)
F = rhs(sup, "unscaled")
theta = np.unwrap(np.arctan2(-bundle.N[:, 1], -bundle.N[:, 0]))
Fat = trig_eval_values(F.values, sup.grid.period, theta)
print(f"graph velocity vs support velocity: max diff {np.max(np.abs(v - Fat)):.2e}")

# the chain rule k d/dtheta = d/ds linking the two coordinate systems
s = fourier_support(PeriodicGrid(omega=1, n=128), 1.0, [(2, 0.2, 0.0)])
print(f"parametrization identity residual: {check_parametrization_identity(s):.2e}")
