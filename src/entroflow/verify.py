"""Built-in acceptance suite: each criterion runs a fixed configuration and
checks the stated tolerance, printing one pass/fail line.

Criteria are grouped into named suites (circle, identities, monotone,
rescaled, appendix, convergence, all).  Shared trajectories and their
monitor reports are cached so a full run costs each flow only once.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import graph
from .diagnostics import MonitorReport, _cd_first, l2_contraction, run_monitors
from .flow import (FlowState, StepperConfig, evolve, rescale_trajectory,
                   slow_time, unscaled_time)
from .spectral import GridFunction, PeriodicGrid, integrate
from .support import SupportGrid, circle_support, ellipse_support, fourier_support


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str
    runtime: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}: {self.details} [{self.runtime:.2f}s]"


def _monotone_violation(series, direction):
    """Largest violation of monotonicity (positive = violated)."""
    d = np.diff(np.asarray(series))
    return float(np.max(-d if direction == "up" else d, initial=-np.inf))


# ---------------------------------------------------------------------------
# shared runs

@functools.cache
def _ellipse_run():
    """The 1.3:1 ellipse at n = 48 to t = 0.5, recorded every 1e-3, and the
    run time of its evolve."""
    s0 = ellipse_support(PeriodicGrid(omega=1, n=48), 1.3, 1.0)
    state = FlowState(support=s0, time=0.0, variant="unscaled")
    t0 = time.perf_counter()
    tr = evolve(state, 0.5, StepperConfig(), monitor_every=1e-3)
    return tr, time.perf_counter() - t0


@functools.cache
def _fourier_run():
    # the 3-mode datum is nearly nonconvex (margin ~0.29), so its curvature
    # spectrum needs n = 64 and the fast early transient (sigma-energy
    # e-folds in ~1e-3) needs a fine record cadence (5e-5) for centered
    # differences
    s0 = fourier_support(PeriodicGrid(omega=1, n=64), 1.0,
                         [(2, 0.15, 0.0), (3, 0.0, 0.05)])
    state = FlowState(support=s0, time=0.0, variant="unscaled")
    return evolve(state, 0.5, StepperConfig(), monitor_every=5e-5)


@functools.cache
def _contraction_runs():
    grid = PeriodicGrid(omega=1, n=48)
    s1 = ellipse_support(grid, 1.3, 1.0)
    h2 = s1.values + 0.01 * np.cos(3 * grid.nodes)
    s2 = SupportGrid(GridFunction(grid, h2))
    cfg = StepperConfig()
    tr1 = evolve(FlowState(support=s1), 0.3, cfg, monitor_every=1e-4)
    tr2 = evolve(FlowState(support=s2), 0.3, cfg, monitor_every=1e-4)
    return tr1, tr2


@functools.cache
def _rescaled_run():
    grid = PeriodicGrid(omega=1, n=48)
    s0 = ellipse_support(grid, 1.3, 1.0)
    L0 = integrate(s0.h)
    s0n = SupportGrid(GridFunction(grid, s0.values / L0))
    cfg = StepperConfig(scheme="semi_implicit", dt_init=5e-4, max_dt=2e-3)
    state = FlowState(support=s0n, time=0.0, variant="rescaled_chainrule")
    # a transient of 0.2 then a window of length 3
    return evolve(state, 0.2 + 3.0, cfg, monitor_every=4e-3)


_SHARED_RUNS = {
    "ellipse": lambda: _ellipse_run()[0],
    "fourier": _fourier_run,
    "contraction-a": lambda: _contraction_runs()[0],
    "contraction-b": lambda: _contraction_runs()[1],
}


@functools.lru_cache(maxsize=None)
def _shared_report(run: str) -> MonitorReport:
    """The monitor suite on a shared run, computed once per run, at the
    criteria's pinned tolerances: inequalities to 1e-9 of their scale,
    identities to diagnostics.IDENTITY_REL = 1e-3 relative."""
    return run_monitors(_SHARED_RUNS[run](), inequality_slack=1e-9)


# ---------------------------------------------------------------------------
# criteria

def criterion_01_circle_law() -> CriterionResult:
    """Expanding-circle exact solution at two winding numbers."""
    cfg = StepperConfig()
    t0 = time.perf_counter()
    s = circle_support(PeriodicGrid(omega=1, n=32), 1.0)
    tr = evolve(FlowState(support=s), 1.5, cfg)
    elapsed = time.perf_counter() - t0
    err1 = float(np.max(np.abs(tr.final.support.values - 2.0)))
    s2 = circle_support(PeriodicGrid(omega=2, n=32), 1.0)
    tr2 = evolve(FlowState(support=s2), 4.0, cfg)
    err2 = float(np.max(np.abs(tr2.final.support.values - 3.0)))
    ok = err1 <= 1e-8 and err2 <= 1e-8 and elapsed < 1.0
    return CriterionResult(
        "criterion-01 circle law", ok,
        f"max|h-2|={err1:.2e}, max|h-3| (omega=2)={err2:.2e}, "
        f"run time {elapsed:.3f}s (<1s)")


def criterion_02_h2_identity() -> CriterionResult:
    """Least-squares slope of ||h||_2^2 equals 4*pi to 1e-4 relative."""
    tr, run_elapsed = _ellipse_run()
    h0 = tr.record_series("h_seminorms")[:, 0]
    slope = float(np.polyfit(tr.record_series("t"), h0, 1)[0])
    rel = abs(slope - 4.0 * math.pi) / (4.0 * math.pi)
    ok = rel <= 1e-4 and run_elapsed < 10.0
    return CriterionResult(
        "criterion-02 ||h||^2 slope", ok,
        f"slope={slope:.12f} vs 4pi, rel err {rel:.2e} (<=1e-4), "
        f"run time {run_elapsed:.2f}s (<10s)")


def criterion_03_dissipation() -> CriterionResult:
    """M1: |dSE/dt + ||F||^2| <= 1e-3 ||F||^2 at interior record times."""
    m1 = _shared_report("ellipse")["M1"]
    return CriterionResult(
        "criterion-03 dissipation identity", m1.status == "pass",
        f"max |dSE/dt + ||F||^2| / ||F||^2 = {m1.slack:.2e} (<=1e-3)")


def criterion_04_monotonicity() -> CriterionResult:
    """M2 (||F||^2 down) and M10 (sigma-energy smallness kept) from the
    monitor suite, plus L up and ||h_theta||^2 down, which no monitor checks
    alone (M3 couples L up with the identity L' = int k)."""
    worst = -np.inf
    notes = []
    for run in ("ellipse", "fourier"):
        rep = _shared_report(run)
        notes += [f"{run}/{c.name} {c.status} ({c.slack:.2e})"
                  for c in (rep["M2"], rep["M10"]) if c.status != "pass"]
        tr = _SHARED_RUNS[run]()
        L = tr.record_series("length")
        h1 = tr.record_series("h_seminorms")[:, 1]
        for name, viol, scale in (("L up", _monotone_violation(L, "up"), np.max(L)),
                                  ("h1 down", _monotone_violation(h1, "down"),
                                   np.max(h1))):
            worst = max(worst, viol / (1e-9 * scale))
            if viol > 1e-9 * scale:
                notes.append(f"{run}/{name} violated by {viol:.2e}")
    return CriterionResult(
        "criterion-04 monotonicity battery", not notes,
        "M2 and M10 on the ellipse and fourier runs; L up and h1 down: worst "
        f"violation / (1e-9*scale) = {worst:.2e}"
        + ("; " + "; ".join(notes) if notes else ""))


def _check_runs(check: str, runs) -> tuple:
    """(all passed, smallest slack) of one monitor check over shared runs."""
    results = [_shared_report(run)[check] for run in runs]
    return (all(c.status == "pass" for c in results),
            min(c.slack for c in results))


def criterion_05_length_bracket() -> CriterionResult:
    """M5: the two-sided sqrt(t) length bracket."""
    ok, worst = _check_runs("M5", ("ellipse", "fourier"))
    return CriterionResult(
        "criterion-05 length bracketing", ok,
        "M5 on the ellipse and fourier runs: min distance inside the bracket "
        f"= {worst:.3e} (1e-9 scale allowance)")


def criterion_06_entropy_bracket() -> CriterionResult:
    """M6: 2 omega pi log(2 omega pi / L) <= SE <= SE(0)."""
    ok, worst = _check_runs("M6", ("ellipse", "fourier"))
    return CriterionResult(
        "criterion-06 entropy bracketing", ok,
        "M6 on the ellipse and fourier runs: min distance inside the bracket "
        f"= {worst:.3e} (1e-9 scale allowance)")


def criterion_07_area_law() -> CriterionResult:
    """M8 (area identity) on the smooth omega=1 runs; M8-growth on all.

    The rough 3-mode datum starts an algebraic transient whose centered
    difference error at the first record scales like (cadence/t)^2 and so
    cannot meet a fixed identity tolerance at any cadence; its area growth
    bound (which is exact) is still enforced.
    """
    smooth = ("ellipse", "contraction-a", "contraction-b")
    id_checks = [_shared_report(run)["M8"] for run in smooth]
    growth_ok, worst_lower = _check_runs("M8-growth", smooth + ("fourier",))
    ok = growth_ok and all(c.status == "pass" for c in id_checks)
    worst_id = max(c.slack for c in id_checks)
    return CriterionResult(
        "criterion-07 area law", ok,
        f"max |A' - 2pi - int sigma^2|/2pi = {worst_id:.2e} (<=1e-3, smooth "
        f"runs), min(A - A0 - 2pi t) = {worst_lower:.2e} (>=-1e-6, all runs)")


def criterion_08_contraction() -> CriterionResult:
    tr1, tr2 = _contraction_runs()
    t = tr1.record_series("t")
    D, rhs = l2_contraction(tr1.grid, tr1.H, tr2.H)
    mono = _monotone_violation(D, "down")
    dD = _cd_first(t, D)
    live = D[1:-1] >= D[0] * 1e-12
    rel = np.abs(dD[live] - rhs[1:-1][live]) / np.abs(rhs[1:-1][live])
    worst = float(np.max(rel))
    ok = mono <= 1e-9 * D[0] and worst <= 1e-3
    return CriterionResult(
        "criterion-08 L2 contraction", ok,
        f"max D increase {mono:.2e}, max |D' - rhs|/|rhs| = {worst:.2e} "
        f"(<=1e-3, {int(np.sum(live))} resolved times)")


def criterion_09_rescaled_convergence() -> CriterionResult:
    tr = _rescaled_run()
    h = tr.final.support.values
    dev = float(np.max(np.abs(h - h.mean())))
    # Under the chain-rule variant the seminorms contract at rate about
    # 8*omega^2*pi^2 and reach the round-off plateau early in the length-3
    # window; monitor M12 fits each rate on the records above that plateau
    # (the paper's rate 2 belongs to the literal variant; recorded, not gated).
    rep = run_monitors(tr)
    rates = [rep[f"M12-decay-h{p}"].slack for p in (1, 2, 3, 4)]
    conv = rep["M12-convexity"]
    ok = dev <= 1e-4 and all(r > 0 for r in rates) and conv.status == "pass"
    rates_s = ", ".join(f"{r:.3g}" for r in rates)
    return CriterionResult(
        "criterion-09 rescaled convergence", ok,
        f"final max|h-mean|={dev:.2e} (<=1e-4); fitted rates [{rates_s}] all>0 "
        f"(paper rate 2 recorded, not gated); convexity bracket {conv.status} "
        f"({conv.note})")


def criterion_10_rescaling_consistency() -> CriterionResult:
    grid = PeriodicGrid(omega=1, n=32)
    s0 = ellipse_support(grid, 1.3, 1.0)
    L0 = integrate(s0.h)
    teta = np.linspace(0.003, 0.03, 10)
    tun = np.array([unscaled_time(x, L0, 1) for x in teta])
    cfg = StepperConfig()
    tr_un = evolve(FlowState(support=s0), float(tun[-1]), cfg, snap_times=tun)
    tr_mapped = rescale_trajectory(tr_un, L0)
    s0n = SupportGrid(GridFunction(grid, s0.values / L0))
    tr_direct = evolve(FlowState(support=s0n, variant="rescaled_chainrule"),
                       float(teta[-1]), cfg, snap_times=teta)

    def at_times(tr, times):
        out = []
        for x in times:
            i = int(np.argmin(np.abs(tr.times - x)))
            if abs(tr.times[i] - x) > 1e-9:
                raise AssertionError(f"snapshot at t={x} missing")
            out.append(tr.H[i])
        return np.array(out)

    a = at_times(tr_mapped, [slow_time(x, L0, 1) for x in tun])
    b = at_times(tr_direct, teta)
    err = float(np.max(np.abs(a - b)))
    return CriterionResult(
        "criterion-10 rescaling consistency", err <= 1e-5,
        f"max node error over 10 matched slow times = {err:.2e} (<=1e-5)")


def criterion_11_appendix() -> CriterionResult:
    t0 = time.perf_counter()
    n = 256
    rows = (graph.crosscheck(graph.scene_circle(1.0, n), 1000, 50, radius=1.0)
            + graph.crosscheck(graph.scene_ellipse(2.0, 1.0, n), 1050, 50))

    def worst(check):
        return max(value for name, value, _ in rows if name.startswith(check))

    elapsed = time.perf_counter() - t0
    ok = all(value <= threshold for _, value, threshold in rows) \
        and elapsed < 30.0
    return CriterionResult(
        "criterion-11 appendix validation", ok,
        f"bundle-vs-direct max {worst('bundle'):.2e} (<={graph.RESIDUAL_TOL:g}), "
        f"split max {worst('split'):.2e} (<={graph.RESIDUAL_TOL:g}), "
        f"concentric |V-2/3| {worst('concentric'):.2e} "
        f"(<={graph.CONCENTRIC_TOL:g}), {elapsed:.1f}s (<30s)")


def criterion_12_parametrization() -> CriterionResult:
    s = fourier_support(PeriodicGrid(omega=1, n=128), 1.0, [(2, 0.2, 0.0)])
    resid = graph.check_parametrization_identity(s)
    tol = graph.PARAMETRIZATION_TOL
    return CriterionResult(
        "criterion-12 parametrization identity", resid <= tol,
        f"residual {resid:.2e} (<={tol:g} at n=128)")


def criterion_13_convergence_orders() -> CriterionResult:
    # temporal: forced-max_dt RK4 on the radius-2 circle at omega = 2, n = 8,
    # whose RK4 bound 2.7 * r^2 / (n / (2 omega))^4 = 0.675 lets the coarsest
    # dt be 0.15; the finest error, ~2e-12, stays ~500x above the ~4e-15
    # round-off floor of the circle law
    errs = []
    target = math.sqrt(4.0 + 2.0 * 1.5)
    for j in range(4):
        dt = 0.15 / 2**j
        cfg = StepperConfig(safety=1.0, max_dt=dt)
        s = circle_support(PeriodicGrid(omega=2, n=8), 2.0)
        tr = evolve(FlowState(support=s), 1.5, cfg)
        errs.append(float(np.max(np.abs(tr.final.support.values - target))))
    orders = [math.log2(errs[j] / errs[j + 1]) for j in range(3)]
    temporal_ok = all(3.7 <= o <= 4.3 for o in orders)

    # spatial: shared-dt semi-implicit runs against an n=256 reference; the
    # 2:1 ellipse keeps the n=32 truncation error above round-off so the
    # drop to n=64 is measurable
    sol = {}
    for n in (32, 64, 256):
        s = ellipse_support(PeriodicGrid(omega=1, n=n), 2.0, 1.0)
        cfg = StepperConfig(scheme="semi_implicit", dt_init=1e-4, max_dt=1e-4)
        tr = evolve(FlowState(support=s), 0.2, cfg)
        sol[n] = tr.final.support.values
    e32 = float(np.max(np.abs(sol[32] - sol[256][::8])))
    e64 = float(np.max(np.abs(sol[64] - sol[256][::4])))
    spatial_ok = e32 >= 100.0 * e64
    orders_s = ", ".join(f"{o:.2f}" for o in orders)
    return CriterionResult(
        "criterion-13 convergence orders", temporal_ok and spatial_ok,
        f"temporal orders [{orders_s}] in [3.7,4.3]; spatial e32={e32:.2e}, "
        f"e64={e64:.2e}, ratio {e32 / max(e64, 1e-300):.1f} (>=100)")


CRITERIA = {
    "criterion-01": criterion_01_circle_law,
    "criterion-02": criterion_02_h2_identity,
    "criterion-03": criterion_03_dissipation,
    "criterion-04": criterion_04_monotonicity,
    "criterion-05": criterion_05_length_bracket,
    "criterion-06": criterion_06_entropy_bracket,
    "criterion-07": criterion_07_area_law,
    "criterion-08": criterion_08_contraction,
    "criterion-09": criterion_09_rescaled_convergence,
    "criterion-10": criterion_10_rescaling_consistency,
    "criterion-11": criterion_11_appendix,
    "criterion-12": criterion_12_parametrization,
    "criterion-13": criterion_13_convergence_orders,
}

SUITES = {
    "circle": ["criterion-01"],
    "identities": ["criterion-02", "criterion-03", "criterion-07", "criterion-08"],
    "monotone": ["criterion-04", "criterion-05", "criterion-06"],
    "rescaled": ["criterion-09", "criterion-10"],
    "appendix": ["criterion-11", "criterion-12"],
    "convergence": ["criterion-13"],
    "all": list(CRITERIA),
}


def run_criterion(name: str) -> CriterionResult:
    """Run one criterion; its runtime is the wall time of the whole call."""
    t0 = time.perf_counter()
    res = CRITERIA[name]()
    res.runtime = time.perf_counter() - t0
    return res


def run_suite(suite: str) -> list:
    """Run a suite's criteria in order, printing each result line."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    results = []
    for name in SUITES[suite]:
        res = run_criterion(name)
        print(res.line())
        results.append(res)
    return results
