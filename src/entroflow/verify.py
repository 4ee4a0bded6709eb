"""Built-in acceptance suite: each criterion runs a fixed configuration and
returns its gates, (name, value, relation, bound); it passes when all hold.

CRITERIA gives each criterion's suite (circle, identities, monotone,
rescaled, appendix, convergence); SUITES lists each suite's criteria, plus
all.  The shared runs of _RUNS and their monitor reports are computed once.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from . import graph
from .diagnostics import MonitorReport, _cd_first, l2_contraction, run_monitors
from .flow import (FlowState, StepperConfig, evolve, rescale_trajectory,
                   slow_time, unscaled_time)
from .spectral import GridFunction, PeriodicGrid, integrate
from .support import SupportGrid, circle_support, ellipse_support, fourier_support


# a gate (name, value, relation, bound) holds if relation(value, bound); NaN never does
_RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
              ">": operator.gt, "==": operator.eq}


@dataclass
class CriterionResult:
    name: str
    details: str
    gates: list
    runtime: float = 0.0

    @property
    def failed(self) -> list:
        """The names of the gates that do not hold."""
        return [name for name, value, relation, bound in self.gates
                if not _RELATIONS[relation](value, bound)]

    @property
    def passed(self) -> bool:
        return bool(self.gates) and not self.failed

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        failed = "" if self.passed else \
            "; failed: " + (", ".join(self.failed) or "no gates")
        return f"{tag} {self.name}: {self.details}{failed} [{self.runtime:.2f}s]"


def _monotone_violation(series, direction):
    """Largest violation of monotonicity (positive = violated)."""
    d = np.diff(np.asarray(series))
    return float(np.max(-d if direction == "up" else d, initial=-np.inf))


# ---------------------------------------------------------------------------
# shared runs

def _ellipse48(values=None) -> SupportGrid:
    """The 1.3:1 ellipse at n = 48, or values(that ellipse) on its grid."""
    s = ellipse_support(PeriodicGrid(omega=1, n=48), 1.3, 1.0)
    return s if values is None else SupportGrid(GridFunction(s.grid, values(s)))


# name -> (initial data, variant, t_end, StepperConfig, record cadence)
_RUNS = {
    "ellipse": (_ellipse48, "unscaled", 0.5, StepperConfig(), 1e-3),
    # the 3-mode datum is nearly nonconvex (margin ~0.29), so its curvature
    # spectrum needs n = 64 and the fast early transient (sigma-energy
    # e-folds in ~1e-3) needs a fine record cadence (5e-5) for centered
    # differences
    "fourier": (lambda: fourier_support(PeriodicGrid(omega=1, n=64), 1.0,
                                        [(2, 0.15, 0.0), (3, 0.0, 0.05)]),
                "unscaled", 0.5, StepperConfig(), 5e-5),
    "contraction-a": (_ellipse48, "unscaled", 0.3, StepperConfig(), 1e-4),
    "contraction-b": (
        lambda: _ellipse48(lambda s: s.values + 0.01 * np.cos(3 * s.grid.nodes)),
        "unscaled", 0.3, StepperConfig(), 1e-4),
    # a transient of 0.2 then a window of length 3
    "rescaled": (lambda: _ellipse48(lambda s: s.values / integrate(s.h)),
                 "rescaled_chainrule", 0.2 + 3.0,
                 StepperConfig(scheme="semi_implicit", dt_init=5e-4, max_dt=2e-3),
                 4e-3),
}


@functools.cache
def _run(name: str):
    """A shared run, computed once: (trajectory, wall time of its evolve)."""
    initial, variant, t_end, cfg, every = _RUNS[name]
    state = FlowState(support=initial(), time=0.0, variant=variant)
    t0 = time.perf_counter()
    tr = evolve(state, t_end, cfg, monitor_every=every)
    return tr, time.perf_counter() - t0


@functools.cache
def _shared_report(run: str) -> MonitorReport:
    """The monitor suite on a shared run, computed once per run, at the
    criteria's pinned tolerances: inequalities to 1e-9 of their scale,
    identities to diagnostics.IDENTITY_REL = 1e-3 relative."""
    return run_monitors(_run(run)[0], inequality_slack=1e-9)


def _check_gates(check: str, *runs, report=_shared_report) -> list:
    """One gate per run: its monitor check passes."""
    return [(f"{run}/{check}", report(run)[check].status, "==", "pass")
            for run in runs]


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
    return CriterionResult(
        "criterion-01 circle law",
        f"max|h-2|={err1:.2e}, max|h-3| (omega=2)={err2:.2e}, "
        f"run time {elapsed:.3f}s (<1s)",
        [("max|h-2|", err1, "<=", 1e-8), ("max|h-3| (omega=2)", err2, "<=", 1e-8),
         ("run time", elapsed, "<", 1.0)])


def criterion_02_h2_identity() -> CriterionResult:
    """Least-squares slope of ||h||_2^2 equals 4*pi to 1e-4 relative."""
    tr, run_elapsed = _run("ellipse")
    h0 = tr.record_series("h_seminorms")[:, 0]
    slope = float(np.polyfit(tr.record_series("t"), h0, 1)[0])
    rel = abs(slope - 4.0 * math.pi) / (4.0 * math.pi)
    return CriterionResult(
        "criterion-02 ||h||^2 slope",
        f"slope={slope:.12f} vs 4pi, rel err {rel:.2e} (<=1e-4), "
        f"run time {run_elapsed:.2f}s (<10s)",
        [("slope rel err", rel, "<=", 1e-4), ("run time", run_elapsed, "<", 10.0)])


def criterion_03_dissipation() -> CriterionResult:
    """M1: |dSE/dt + ||F||^2| <= 1e-3 ||F||^2 at interior record times."""
    return CriterionResult(
        "criterion-03 dissipation identity",
        "max |dSE/dt + ||F||^2| / ||F||^2 = "
        f"{_shared_report('ellipse')['M1'].slack:.2e} (<=1e-3)",
        _check_gates("M1", "ellipse"))


def criterion_04_monotonicity() -> CriterionResult:
    """M2 (||F||^2 down) and M10 (sigma-energy smallness kept) from the
    monitor suite, plus L up and ||h_theta||^2 down, which no monitor checks
    alone (M3 couples L up with the identity L' = int k)."""
    runs = ("ellipse", "fourier")
    monotone = []
    for run in runs:
        tr = _run(run)[0]
        L = tr.record_series("length")
        h1 = tr.record_series("h_seminorms")[:, 1]
        monotone += [
            (f"{run}/L up", _monotone_violation(L, "up"), "<=", 1e-9 * np.max(L)),
            (f"{run}/h1 down", _monotone_violation(h1, "down"), "<=",
             1e-9 * np.max(h1))]
    worst = max(viol / bound for _, viol, _, bound in monotone)
    return CriterionResult(
        "criterion-04 monotonicity battery",
        "M2 and M10 on the ellipse and fourier runs; L up and h1 down: worst "
        f"violation / (1e-9*scale) = {worst:.2e}",
        _check_gates("M2", *runs) + _check_gates("M10", *runs) + monotone)


def _bracket(name: str, check: str) -> CriterionResult:
    """A bracketing monitor check on the ellipse and fourier runs."""
    runs = ("ellipse", "fourier")
    worst = min(_shared_report(run)[check].slack for run in runs)
    return CriterionResult(
        name, f"{check} on the ellipse and fourier runs: min distance inside the "
        f"bracket = {worst:.3e} (1e-9 scale allowance)", _check_gates(check, *runs))


def criterion_05_length_bracket() -> CriterionResult:
    """M5: the two-sided sqrt(t) length bracket."""
    return _bracket("criterion-05 length bracketing", "M5")


def criterion_06_entropy_bracket() -> CriterionResult:
    """M6: 2 omega pi log(2 omega pi / L) <= SE <= SE(0)."""
    return _bracket("criterion-06 entropy bracketing", "M6")


def criterion_07_area_law() -> CriterionResult:
    """M8 (area identity) on the smooth omega=1 runs; M8-growth on all.

    The rough 3-mode datum starts an algebraic transient whose centered
    difference error at the first record scales like (cadence/t)^2 and so
    cannot meet a fixed identity tolerance at any cadence; its area growth
    bound (which is exact) is still enforced.
    """
    smooth = ("ellipse", "contraction-a", "contraction-b")
    worst_id = max(_shared_report(run)["M8"].slack for run in smooth)
    worst_lower = min(_shared_report(run)["M8-growth"].slack
                      for run in smooth + ("fourier",))
    return CriterionResult(
        "criterion-07 area law",
        f"max |A' - 2pi - int sigma^2|/2pi = {worst_id:.2e} (<=1e-3, smooth "
        f"runs), min(A - A0 - 2pi t) = {worst_lower:.2e} (>=-1e-6, all runs)",
        _check_gates("M8", *smooth) + _check_gates("M8-growth", *smooth, "fourier"))


def criterion_08_contraction() -> CriterionResult:
    tr1, tr2 = _run("contraction-a")[0], _run("contraction-b")[0]
    t = tr1.record_series("t")
    D, rhs = l2_contraction(tr1.grid, tr1.H, tr2.H)
    mono = _monotone_violation(D, "down")
    dD = _cd_first(t, D)
    live = D[1:-1] >= D[0] * 1e-12
    rel = np.abs(dD[live] - rhs[1:-1][live]) / np.abs(rhs[1:-1][live])
    worst = float(np.max(rel))
    return CriterionResult(
        "criterion-08 L2 contraction",
        f"max D increase {mono:.2e}, max |D' - rhs|/|rhs| = {worst:.2e} "
        f"(<=1e-3, {int(np.sum(live))} resolved times)",
        [("max D increase", mono, "<=", 1e-9 * D[0]),
         ("max |D' - rhs|/|rhs|", worst, "<=", 1e-3)])


def criterion_09_rescaled_convergence() -> CriterionResult:
    tr = _run("rescaled")[0]
    h = tr.final.support.values
    dev = float(np.max(np.abs(h - h.mean())))
    # Under the chain-rule variant the seminorms contract at rate about
    # 8*omega^2*pi^2 and reach the round-off plateau early in the length-3
    # window; monitor M12 fits each rate on the records above that plateau
    # (the paper's rate 2 belongs to the literal variant; recorded, not gated).
    rep = run_monitors(tr)
    rates = [rep[f"M12-decay-h{p}"].slack for p in (1, 2, 3, 4)]
    conv = rep["M12-convexity"]
    rates_s = ", ".join(f"{r:.3g}" for r in rates)
    return CriterionResult(
        "criterion-09 rescaled convergence",
        f"final max|h-mean|={dev:.2e} (<=1e-4); fitted rates [{rates_s}] all>0 "
        f"(paper rate 2 recorded, not gated); convexity bracket {conv.status} "
        f"({conv.note})",
        [("final max|h-mean|", dev, "<=", 1e-4)]
        + [(f"h{p} rate", r, ">", 0) for p, r in zip((1, 2, 3, 4), rates)]
        + _check_gates("M12-convexity", "rescaled", report=lambda run: rep))


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
    # each run records its start, then exactly its ten snap times
    for tr, times in ((tr_mapped, [slow_time(x, L0, 1) for x in tun]),
                      (tr_direct, teta)):
        if len(tr.times) != 11 or np.max(np.abs(tr.times[1:] - times)) > 1e-9:
            raise AssertionError(f"records at t={tr.times} are not t0 and {times}")
    err = float(np.max(np.abs(tr_mapped.H[1:] - tr_direct.H[1:])))
    return CriterionResult(
        "criterion-10 rescaling consistency",
        f"max node error over 10 matched slow times = {err:.2e} (<=1e-5)",
        [("max node error", err, "<=", 1e-5)])


def criterion_11_appendix() -> CriterionResult:
    t0 = time.perf_counter()
    n = 256
    gates = [(f"{scene}/{name}", value, "<=", threshold) for scene, rows in (
        ("circle", graph.crosscheck(graph.scene_circle(1.0, n), 1000, 50, radius=1.0)),
        ("ellipse", graph.crosscheck(graph.scene_ellipse(2.0, 1.0, n), 1050, 50)))
        for name, value, threshold in rows]

    def worst(check):
        return max(value for name, value, _, _ in gates if check in name)

    elapsed = time.perf_counter() - t0
    return CriterionResult(
        "criterion-11 appendix validation",
        f"bundle-vs-direct max {worst('/bundle'):.2e} (<={graph.RESIDUAL_TOL:g}), "
        f"split max {worst('/split'):.2e} (<={graph.RESIDUAL_TOL:g}), "
        f"concentric |V-2/3| {worst('/concentric'):.2e} "
        f"(<={graph.CONCENTRIC_TOL:g}), {elapsed:.1f}s (<30s)",
        gates + [("run time", elapsed, "<", 30.0)])


def criterion_12_parametrization() -> CriterionResult:
    s = fourier_support(PeriodicGrid(omega=1, n=128), 1.0, [(2, 0.2, 0.0)])
    resid = graph.check_parametrization_identity(s)
    tol = graph.PARAMETRIZATION_TOL
    return CriterionResult(
        "criterion-12 parametrization identity",
        f"residual {resid:.2e} (<={tol:g} at n=128)", [("residual", resid, "<=", tol)])


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
    orders_s = ", ".join(f"{o:.2f}" for o in orders)
    return CriterionResult(
        "criterion-13 convergence orders",
        f"temporal orders [{orders_s}] in [3.7,4.3]; spatial e32={e32:.2e}, "
        f"e64={e64:.2e}, ratio {e32 / max(e64, 1e-300):.1f} (>=100)",
        [(f"temporal order {j + 1}", o, relation, bound) for j, o in enumerate(orders)
         for relation, bound in ((">=", 3.7), ("<=", 4.3))]
        + [("e32 >= 100 e64", e32, ">=", 100.0 * e64)])


CRITERIA = {
    "criterion-01": ("circle", criterion_01_circle_law),
    "criterion-02": ("identities", criterion_02_h2_identity),
    "criterion-03": ("identities", criterion_03_dissipation),
    "criterion-04": ("monotone", criterion_04_monotonicity),
    "criterion-05": ("monotone", criterion_05_length_bracket),
    "criterion-06": ("monotone", criterion_06_entropy_bracket),
    "criterion-07": ("identities", criterion_07_area_law),
    "criterion-08": ("identities", criterion_08_contraction),
    "criterion-09": ("rescaled", criterion_09_rescaled_convergence),
    "criterion-10": ("rescaled", criterion_10_rescaling_consistency),
    "criterion-11": ("appendix", criterion_11_appendix),
    "criterion-12": ("appendix", criterion_12_parametrization),
    "criterion-13": ("convergence", criterion_13_convergence_orders),
}

SUITES = {suite: [name for name, (s, _) in CRITERIA.items() if s == suite]
          for suite, _ in CRITERIA.values()}
SUITES["all"] = list(CRITERIA)


def run_criterion(name: str) -> CriterionResult:
    """Run one criterion; its runtime is the wall time of the whole call."""
    t0 = time.perf_counter()
    res = CRITERIA[name][1]()
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
