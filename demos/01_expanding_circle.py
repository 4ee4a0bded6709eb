"""The exact expanding-circle solution.

A circle of radius r0 evolves with radius sqrt(r0^2 + 2t): constant support
data reduces the flow to the scalar ODE h' = 1/h.  We integrate it with the
adaptive RK4 stepper and compare against the closed form, for a simple
(omega = 1) and a doubly covered (omega = 2) circle.
"""

import math

import numpy as np

from entroflow import FlowState, PeriodicGrid, StepperConfig, circle_support, evolve

for omega, t_end in ((1, 1.5), (2, 4.0)):
    s0 = circle_support(PeriodicGrid(omega=omega, n=32), 1.0)
    tr = evolve(FlowState(support=s0), t_end, StepperConfig(), monitor_every=t_end / 8)
    print(f"omega = {omega}:")
    for t, h in zip(tr.times, tr.H):
        r_exact = math.sqrt(1.0 + 2.0 * t)
        err = np.max(np.abs(h - r_exact))
        print(f"  t = {t:5.3f}   radius = {h[0]:.9f}"
              f"   exact = {r_exact:.9f}   max error = {err:.2e}")
    print()

# the length of any convex curve grows with the same square-root law from
# below: L(t)^2 >= L0^2 + 8 omega^2 pi^2 t, with equality exactly on circles
s0 = circle_support(PeriodicGrid(omega=1, n=32), 1.0)
tr = evolve(FlowState(support=s0), 2.0, StepperConfig(), monitor_every=0.5)
for t, L in zip(tr.times, tr.record_series("length")):
    lower = math.sqrt((2 * math.pi) ** 2 + 8 * math.pi**2 * t)
    print(f"t = {t:4.2f}   L = {L:.9f}   sqrt-law = {lower:.9f}")
