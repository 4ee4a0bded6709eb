"""L2 contraction between nearby flows, and curve ingestion.

Two solutions attract each other in L2: D(t) = int |h1 - h2|^2 dtheta is
nonincreasing with the explicit rate -2 int (k2 - k1)^2/(k1 k2).  We also
ingest a polygonal curve and reconstruct curve points from the evolved
support function (written as x-y rows ready for plotting).
"""

import math

import numpy as np

from entroflow import (FlowState, GridFunction, PeriodicGrid, StepperConfig,
                       SupportGrid, ellipse_support, evolve, l2_contraction,
                       reconstruct, support_from_curve)

grid = PeriodicGrid(omega=1, n=48)
s1 = ellipse_support(grid, 1.3, 1.0)
s2 = SupportGrid(GridFunction(grid, s1.values + 0.01 * np.cos(3 * grid.nodes)))
cfg = StepperConfig()
tr1 = evolve(FlowState(support=s1), 0.2, cfg, monitor_every=0.02)
tr2 = evolve(FlowState(support=s2), 0.2, cfg, monitor_every=0.02)

print("    t        D(t)          contraction rate")
for t, D, rate in zip(tr1.times, *l2_contraction(grid, tr1.H, tr2.H)):
    print(f"{t:6.3f}  {D:.6e}   {rate:.6e}")

# ingest a polygonal approximation of a convex curve and evolve it
phi = np.arange(8192) * 2 * math.pi / 8192
polyline = np.stack([1.2 * np.cos(phi) + 0.15 * np.cos(phi) ** 2,
                     np.sin(phi)], axis=1)
s = support_from_curve(polyline, omega=1, n=32)
tr = evolve(FlowState(support=s), 0.1, StepperConfig(), monitor_every=0.05)
pts = reconstruct(tr.final.support).points
print("\ningested polygon evolved to t = 0.1; first reconstructed points:")
for row in pts[:4]:
    print(f"  {row[0]: .6f}  {row[1]: .6f}")
print(f"  ... ({len(pts)} points; save with numpy.savetxt for plotting)")
