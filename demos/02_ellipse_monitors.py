"""Monitored functionals along an ellipse evolution.

Runs the flow from a 1.3:1 ellipse, prints a few rows of the diagnostics
table, then evaluates the full monitor suite: energy dissipation, length
growth and concavity, length/entropy bracketing, the exact ||h||^2 law, the
area law, and preservation of the scale-invariant smallness condition.
"""

import numpy as np

from entroflow import (FlowState, PeriodicGrid, StepperConfig, ellipse_support,
                       evolve, run_monitors)

s0 = ellipse_support(PeriodicGrid(omega=1, n=48), 1.3, 1.0)
tr = evolve(FlowState(support=s0), 0.5, StepperConfig(), monitor_every=1e-3)

print("      t     entropy      length        area     ||F||^2    int sigma^2")
c = tr.columns
for i in range(0, len(c.t), len(c.t) // 8):
    print(f"{c.t[i]:7.3f}  {c.entropy[i]:10.6f}  {c.length[i]:10.6f}  "
          f"{c.area[i]:10.6f}  {c.f_l2sq[i]:10.6f}  {c.logk_dirichlet[i]:12.8f}")

# the squared L2 norm of h grows exactly linearly with slope 4*omega*pi
t = tr.record_series("t")
h2 = tr.record_series("h_seminorms")[:, 0]
slope = np.polyfit(t, h2, 1)[0]
print(f"\nleast-squares slope of ||h||_2^2: {slope:.12f}  (4 pi = {4 * np.pi:.12f})")

print("\nmonitor suite:")
report = run_monitors(tr)
for check in report.checks:
    extra = f"  ({check.note})" if check.note else ""
    print(f"  {check.name:16s} {check.status:15s} slack={check.slack:.3e}{extra}")
print("\nall passed:", report.passed)
