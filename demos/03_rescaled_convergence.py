"""Convergence of the rescaled flow to a round circle.

Dividing the curve by phi(t) = sqrt(L0^2 + 8 omega^2 pi^2 t) and
reparametrizing time turns the expanding flow into one that contracts to
the constant support h = 1/(2 omega pi).  We run the chain-rule rescaled
equation with the unconditionally stable semi-implicit stepper and watch
the derivative seminorms collapse; then we check that mapping an unscaled
run through the rescaling reproduces the direct integration exactly.
"""

import math

import numpy as np

from entroflow import (FlowState, PeriodicGrid, StepperConfig, SupportGrid,
                       GridFunction, ellipse_support, evolve, integrate,
                       rescale_trajectory, slow_time, unscaled_time)

grid = PeriodicGrid(omega=1, n=48)
s0 = ellipse_support(grid, 1.3, 1.0)
L0 = integrate(s0.h)
s0n = SupportGrid(GridFunction(grid, s0.values / L0))

cfg = StepperConfig(scheme="semi_implicit", dt_init=5e-4, max_dt=2e-3)
tr = evolve(FlowState(support=s0n, variant="rescaled_chainrule"), 1.0, cfg,
            monitor_every=0.02)

print(" slow t    ||h_th||^2      ||h_4th||^2    max|h - mean|      k range")
c = tr.columns
for i in range(0, len(c.t), 5):
    h = tr.H[i]
    dev = np.max(np.abs(h - h.mean()))
    print(f"{c.t[i]:7.3f}  {c.h_seminorms[i, 1]:13.4e}  {c.h_seminorms[i, 4]:13.4e}"
          f"  {dev:13.4e}  [{c.kmin[i]:6.3f}, {c.kmax[i]:6.3f}]")
print(f"\nfixed point: h = 1/(2 pi) = {1 / (2 * math.pi):.6f}, k = 2 pi")

# exactness of the rescaling: the mapped unscaled run and the direct
# rescaled run agree to integrator accuracy at matched slow times
grid32 = PeriodicGrid(omega=1, n=32)
s0 = ellipse_support(grid32, 1.3, 1.0)
L0 = integrate(s0.h)
teta = np.linspace(0.005, 0.02, 4)
tun = [unscaled_time(x, L0, 1) for x in teta]
tr_un = evolve(FlowState(support=s0), tun[-1], StepperConfig(), snap_times=tun)
mapped = rescale_trajectory(tr_un, L0)
s0n = SupportGrid(GridFunction(grid32, s0.values / L0))
direct = evolve(FlowState(support=s0n, variant="rescaled_chainrule"),
                float(teta[-1]), StepperConfig(), snap_times=teta)

print("\n slow t    max |direct - mapped|")
for x in teta:
    i = int(np.argmin(np.abs(mapped.times - slow_time(unscaled_time(x, L0, 1), L0, 1))))
    j = int(np.argmin(np.abs(direct.times - x)))
    err = np.max(np.abs(mapped.H[i] - direct.H[j]))
    print(f"{x:7.4f}   {err:.3e}")
