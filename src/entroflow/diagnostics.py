"""Monitored functionals of the flow and the identity/inequality checks.

Every scalar the analysis controls is computed spectrally from a support
grid; run_monitors then re-checks the proved identities and inequalities on
a recorded trajectory, using centered differences on the record cadence so
the checks stay independent of the time stepper.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .spectral import GridFunction, integrate_values, periodic_derivs_values
from .support import SupportGrid, curvature, require_convexity, write_text

SMALLNESS_FRACTION = 22.0  # threshold 1/(22*omega*pi) for the sigma energy


def l2_contraction(grid, H1, H2):
    """(D, rate) of two solutions on grid, row by row on (R, n) stacks: D =
    integral of (h1 - h2)^2 dtheta, and rate = -2 integral of (k2 - k1)^2 /
    (k1 k2) dtheta, its derivative under the unscaled flow."""
    D = integrate_values((H1 - H2)**2, grid.period)
    k1, k2 = (curvature(SupportGrid(GridFunction(grid, H), validate=False)).values
              for H in (H1, H2))
    rate = -2.0 * integrate_values((k2 - k1)**2 / (k1 * k2), grid.period)
    return D, rate


@dataclass
class DiagnosticsRecord:
    """The functionals of one state as numpy scalars (h_seminorms of shape
    (5,)), or length-R columns of them for a stack of R states (h_seminorms
    then of shape (R, 5)); area is None when omega != 1.
    """

    t: float
    entropy: float
    length: float
    area: float | None
    f_l2sq: float
    h_seminorms: np.ndarray
    logk_dirichlet: float
    kmin: float
    kmax: float
    kgrad_inf: float
    k_l1: float
    margin: float
    dt_used: float
    # integral of (1/2) k k_thth^2 + (1/3) k^3, the M4/M7 dissipation; not
    # written to the CSV, so records read back from one carry NaN
    dissipation: float

    @staticmethod
    def concat(parts) -> "DiagnosticsRecord":
        """One record of columns from records of columns, in order."""
        if len(parts) == 1:
            return parts[0]
        return DiagnosticsRecord(**{
            f.name: None if getattr(parts[0], f.name) is None
            else np.concatenate([getattr(p, f.name) for p in parts])
            for f in fields(DiagnosticsRecord)})


def compute_record(s: SupportGrid, t, dt_used) -> DiagnosticsRecord:
    """Every record functional from one rfft of h and one of k.

    s holds one state, or a stack of R states with t and dt_used length-R
    vectors.  Every transform and reduction runs along the last axis, so a
    stack gives a record of length-R columns whose row j equals the
    one-state call on row j.
    """
    hv, period = s.values, s.grid.period

    def integral(x):
        return integrate_values(x, period)

    h1, h2, h3, h4 = periodic_derivs_values(hv, period, (1, 2, 3, 4))
    w = h2 + hv
    require_convexity(hv, w)
    k = 1.0 / w
    kp, ktt = periodic_derivs_values(k, period, (1, 2))
    f = ktt + k
    return DiagnosticsRecord(
        t=t,
        entropy=integral(np.log(k)),
        length=integral(hv),
        area=0.5 * integral(hv * w) if s.omega == 1 else None,
        f_l2sq=integral(f * f),
        h_seminorms=np.stack([integral(d * d) for d in (hv, h1, h2, h3, h4)],
                             axis=-1),
        logk_dirichlet=integral((kp / k) ** 2),
        kmin=k.min(axis=-1),
        kmax=k.max(axis=-1),
        kgrad_inf=np.abs(kp).max(axis=-1),
        k_l1=integral(k),
        margin=w.min(axis=-1),
        dt_used=dt_used,
        dissipation=integral(0.5 * k * ktt**2 + k**3 / 3.0),
    )


CSV_HEADER = ("t,entropy,length,area,f_l2sq,h0,h1,h2,h3,h4,"
              "logk_dirichlet,kmin,kmax,kgrad_inf,k_l1,margin,dt")
_CSV_COLUMNS = CSV_HEADER.split(",")
CSV_BLOCK = 64            # rows per write, ~22 KB of text


def write_csv(columns: DiagnosticsRecord, path):
    """Full-double-precision CSV time series, one line per row of a record
    of columns; the area column is empty when omega != 1.

    Written CSV_BLOCK rows at a time: the whole text as one string raised
    the peak memory of a 501-row run by ~0.7 MB.
    """
    c = columns
    cols = [c.t, c.entropy, c.length, c.area, c.f_l2sq, *c.h_seminorms.T,
            c.logk_dirichlet, c.kmin, c.kmax, c.kgrad_inf, c.k_l1, c.margin,
            c.dt_used]
    line = ",".join("" if x is None else "%.17g" for x in cols) + "\n"
    table = np.column_stack([x for x in cols if x is not None])
    blocks = (table[i:i + CSV_BLOCK] for i in range(0, len(table), CSV_BLOCK))
    write_text(path, itertools.chain(
        [CSV_HEADER + "\n"],
        ((line * len(b)) % tuple(b.ravel().tolist()) for b in blocks)))


def read_csv(path) -> DiagnosticsRecord:
    """The record of columns in a write_csv file: area None when its column
    is empty, dissipation (not written) NaN."""
    rows = []
    with open(path) as fh:
        if fh.readline().strip() != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != len(_CSV_COLUMNS):
                raise ValueError(f"{path}:{lineno}: expected {len(_CSV_COLUMNS)} columns")
            rows.append([math.nan if c == "area" and p == "" else float(p)
                         for c, p in zip(_CSV_COLUMNS, parts)])
    # positional, mirroring write_csv's column order
    (t, ent, L, A, f2, *h, sig, kmin, kmax, kgrad, k1, margin,
     dt) = np.array(rows).reshape(-1, len(_CSV_COLUMNS)).T
    return DiagnosticsRecord(t, ent, L, None if np.isnan(A).all() else A, f2,
                             np.stack(h, axis=-1), sig, kmin, kmax, kgrad, k1,
                             margin, dt, np.full(len(t), math.nan))


# ---------------------------------------------------------------------------
# monitor suite

@dataclass
class CheckResult:
    name: str
    status: str           # "pass" | "fail" | "not-applicable"
    slack: float
    worst_t: float
    note: str


@dataclass
class MonitorReport:
    checks: list = field(default_factory=list)

    def add(self, name, status, slack=math.nan, worst_t=math.nan, note=""):
        self.checks.append(CheckResult(name, status, slack, worst_t, note))

    def __getitem__(self, name) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self):
        """Plain data for JSON, a non-finite slack or worst_t as None."""
        return {c.name: {"status": c.status,
                         "slack": finite_or_none(c.slack),
                         "worst_t": finite_or_none(c.worst_t),
                         "note": c.note}
                for c in self.checks}

    def to_json(self, path):
        write_text(path, json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n")


def finite_or_none(x):
    """x, or None when x is NaN or infinite: strict JSON has no such numbers."""
    return x if math.isfinite(x) else None


def _cd_first(t, x):
    """Centered first differences at interior record times (nonuniform-safe)."""
    t, x = np.asarray(t), np.asarray(x)
    return (x[2:] - x[:-2]) / (t[2:] - t[:-2])


def _cd_second(t, x):
    t, x = np.asarray(t), np.asarray(x)
    dt1 = t[1:-1] - t[:-2]
    dt2 = t[2:] - t[1:-1]
    return 2.0 * (x[:-2] * dt2 - x[1:-1] * (dt1 + dt2) + x[2:] * dt1) \
        / (dt1 * dt2 * (dt1 + dt2))


def _worst(t, residual, allowance):
    """(every residual within its allowance, the residual nearest to or
    furthest past its allowance, its time).  The allowance is one number,
    then records rank by the residual alone, or one number per residual."""
    excess = residual if np.ndim(allowance) == 0 else residual - allowance
    j = int(np.argmax(excess))
    return np.all(residual <= allowance), float(residual[j]), float(t[j])


def _closest(t, gap, allowance):
    """(no gap below -allowance, the smallest gap after the first record, its
    time): a bracket anchored at the initial data is tight there by
    construction."""
    j = int(np.argmin(gap[1:])) + 1
    return np.all(gap >= -allowance), float(gap[j]), float(t[j])


IDENTITY_REL = 1e-3   # centered-difference identity residuals, relative
ROUNDOFF_FACTOR = 100.0  # M12-decay: a series this close to round-off
EPS = float(np.finfo(float).eps)


def _length_upper_bound(t, L0, c1, omega):
    wpi = omega * math.pi
    return L0 + 4.0 * wpi**2 / c1 * (np.sqrt(4.0 * wpi**2 + t * c1**2) - 2.0 * wpi)


def rescaled_length_cap(c1_rescaled: float, tau_max: float, omega: int) -> float:
    """sup over scale-invariant time tau of (length upper bound)/phi.

    Intrinsic form of the bound: with c1_eta = integral of k dtheta at the
    first rescaled record, the unscaled c1 satisfies c1 = c1_eta / L0 and L0
    cancels from the ratio.  The ratio tends to sqrt(2)*omega*pi, the floor
    of the result, as tau grows; with a = 4 omega^2 pi^2 it peaks above that
    only for c1_eta > a^(3/2), once, at sqrt(a + tau c1_eta^2) =
    (c1_eta^2 - 2a^2) / (2 (c1_eta - a^(3/2))), clipped to tau <= max(tau_max, 1).
    """
    wpi = omega * math.pi
    a, c1 = 4.0 * wpi**2, c1_rescaled
    limit = math.sqrt(2.0) * wpi
    if c1 <= a**1.5:
        return limit
    s = (c1 * c1 - 2.0 * a * a) / (2.0 * (c1 - a**1.5))
    tau = min((s * s - a) / (c1 * c1), max(tau_max, 1.0))
    ratio = _length_upper_bound(tau, 1.0, c1, omega) / math.sqrt(1.0 + 8.0 * wpi**2 * tau)
    return float(max(ratio, limit))


def noise_floor(values) -> float:
    """Estimate the round-off plateau of a decaying positive series.

    Sits a factor 30 above the median of the final quarter.  When fewer than
    five records lie above it, the floor stands if every one of them comes
    before the final quarter: the series fell onto its plateau within those
    records (a fast decay at a coarse record cadence), and its rate is
    fitted on them.  Otherwise (a series still decaying at the end, or one
    that rises into its final quarter) it falls back to a tiny relative
    floor.
    """
    v = np.asarray(values, dtype=float)
    tail = v[-max(5, len(v) // 4):]
    floor = max(30.0 * float(np.median(tail)), float(np.max(v)) * 1e-28, 1e-300)
    above = np.flatnonzero(v > floor)
    if len(above) < 5 and not (len(above) and above[-1] < len(v) - len(tail)):
        floor = max(float(np.max(v)) * 1e-28, 1e-300)
    return floor


def fit_decay_rate(t, values):
    """Least-squares exponential rate over the last half of the series.

    Samples at or below noise_floor(values) are excluded; if fewer than five
    remain the window is extended backwards.  The floor sits just above the
    final plateau, so a series that has collapsed to round-off is fitted on
    its live decaying segment.  Returns (rate, n_used).
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    floor = noise_floor(v)
    start = len(t) // 2
    while True:
        sel = (np.arange(len(t)) >= start) & (v > floor)
        if np.count_nonzero(sel) >= 5 or start == 0:
            break
        start = max(0, start - max(1, len(t) // 10))
    tt, vv = t[sel], v[sel]
    if len(tt) < 2 or np.ptp(tt) == 0.0:
        return math.nan, int(len(tt))
    slope = np.polyfit(tt, np.log(vv), 1)[0]
    return float(-slope), int(len(tt))


def run_monitors(tr, inequality_slack: float = 1e-6) -> MonitorReport:
    """Evaluate every proved identity/inequality on a recorded trajectory.

    Identities hold to IDENTITY_REL relative, an inequality to inequality_slack
    times its scale: that is a check's allowance.  A residual check takes its
    verdict and report from _worst, a bracket from _closest (M12-decay a
    rate, M12-convexity from its entry time).  A check that does not apply
    reads not-applicable, with a note.
    """
    c = tr.columns
    t = c.t
    ti = t[1:-1]
    L = c.length
    k1 = c.k_l1
    sig = c.logk_dirichlet
    omega = tr.grid.omega
    wpi = omega * math.pi
    # the bracket facts presume the chain-rule run at unit initial rescaled length
    normalized = tr.variant == "rescaled_chainrule" and abs(L[0] - 1.0) <= 1e-6

    # Each group yields one verdict per name, in report order: a note when
    # the check does not apply, else (truth, slack, worst_t[, note]).
    def unscaled_flow():
        ent = c.entropy
        fl2 = c.f_l2sq
        h0, h1 = c.h_seminorms[:, 0], c.h_seminorms[:, 1]

        # M1: entropy dissipation  SE' = -||F||_2^2
        resid = np.abs(_cd_first(t, ent) + fl2[1:-1]) / np.maximum(fl2[1:-1], 1e-300)
        yield _worst(ti, resid, IDENTITY_REL)

        # M2: ||F||_2^2 nonincreasing
        yield _worst(t[1:], np.diff(fl2), inequality_slack * np.max(fl2))

        # M3: L' = integral k > 0 and L nondecreasing, reported by the
        # identity residual unless a part fails: then by the first that does
        resid = np.abs(_cd_first(t, L) - k1[1:-1]) / np.maximum(k1[1:-1], 1e-300)
        parts = (_worst(ti, resid, IDENTITY_REL),
                 (np.all(k1 > 0), *_worst(t, -k1, 0)[1:]),
                 _worst(t[1:], -np.diff(L), inequality_slack * np.max(L)))
        yield next((p for p in parts if not p[0]), parts[0])

        # M4: concavity with the dissipation bound, L'' <= -dissipation
        diss = np.abs(c.dissipation[1:-1])
        yield _worst(ti, _cd_second(t, L) + c.dissipation[1:-1],
                     IDENTITY_REL * diss + inequality_slack * np.max(diss))

        # M5: length bracketing with c1 frozen at the first record
        c1 = k1[0]
        lower = np.sqrt(L[0]**2 + 8.0 * wpi**2 * (t - t[0]))
        upper = _length_upper_bound(t - t[0], L[0], c1, omega)
        yield _closest(t, np.minimum(L - lower, upper - L),
                       inequality_slack * np.max(L))

        # M6: entropy bracketing
        lower = 2.0 * wpi * np.log(2.0 * wpi / L)
        yield _closest(t, np.minimum(ent - lower, ent[0] - ent),
                       inequality_slack * max(1.0, float(np.max(np.abs(ent)))))

        # M7: integral bound on k_l1 plus accumulated dissipation, tight at
        # the first record
        cumdiss = np.concatenate([[0.0], np.cumsum(
            0.5 * (c.dissipation[1:] + c.dissipation[:-1]) * np.diff(t))])
        yield _closest(t, c1 - (k1 + cumdiss), inequality_slack * c1)

        # M8: area law (omega = 1 only)
        if omega == 1:
            A = c.area
            resid = np.abs(_cd_first(t, A) - 2.0 * math.pi - sig[1:-1]) / (2.0 * math.pi)
            yield _worst(ti, resid, IDENTITY_REL)
            # the exact consequence A - A0 >= 2 pi (t - t0), separate because
            # it also holds where the centered difference cannot resolve A'
            growth = A - A[0] - 2.0 * math.pi * (t - t[0])
            yield _closest(t, growth, 1e-6)
        else:
            yield from ["omega != 1"] * 2

        # M9: the two support-seminorm laws
        resid1 = np.abs(_cd_first(t, h1) + 2.0 * sig[1:-1]) / np.maximum(
            np.abs(2.0 * sig[1:-1]), 1e-12 * max(1.0, float(np.max(h1))))
        slope = _cd_first(t, h0)
        resid0 = np.abs(slope - 4.0 * wpi) / (4.0 * wpi)
        yield _worst(ti, np.maximum(resid1, resid0), IDENTITY_REL)

    def any_flow():
        # M10: smallness of the sigma energy is preserved
        thresh = 1.0 / (SMALLNESS_FRACTION * wpi)
        below = np.nonzero(sig <= thresh)[0]
        if len(below) == 0:
            yield True, math.nan, math.nan, "threshold never reached"
        else:
            # each record's rise from j0 on; j0's own is -inf
            j0 = int(below[0])
            yield _worst(t[j0:], np.diff(sig[j0:], prepend=np.inf),
                         inequality_slack * thresh)

        # M11: geometric gradient inequality from the convexity-preservation proof
        yield _worst(t, 2.0 * np.log1p(c.kgrad_inf * wpi / c.kmin) - L,
                     inequality_slack * np.max(L))

    def rescaled_flow():
        # M12-length: the rescaled length stays in [1, c_L]
        if normalized:
            a = 8.0 * wpi**2
            # exp overflows above 709.78; the cap's ratio is at its limit
            # long before tau = expm1(709) / a
            tau_max = math.expm1(min(a * (t[-1] - t[0]), 709.0)) / a
            cL = rescaled_length_cap(k1[0], tau_max, omega)
            yield *_closest(t, np.minimum(L - 1.0, cL - L),
                            inequality_slack * max(1.0, cL)), f"c_L={cL:.4g}"
        else:
            yield ("paper-literal variant" if tr.variant != "rescaled_chainrule"
                   else "initial rescaled length not normalized to 1")

        # monotone decay of the first four seminorms after the transient.  A
        # series whose largest value is at most ROUNDOFF_FACTOR times the
        # round-off of a p-th derivative, max(h0) (eps xi_max^p)^2, holds no
        # decay to check
        xi_max = tr.grid.n / (2 * omega)
        h0_max = float(np.max(c.h_seminorms[:, 0]))
        for p in (1, 2, 3, 4):
            series = c.h_seminorms[:, p]
            top, level = float(np.max(series)), h0_max * (EPS * xi_max**p) ** 2
            if top <= ROUNDOFF_FACTOR * level:
                yield f"round-off: max {top:.3g} <= {ROUNDOFF_FACTOR:g} x {level:.3g}"
                continue
            floor = noise_floor(series)
            start = len(series) // 2
            tail = series[start:]
            live = tail > floor
            grow = np.diff(tail) - inequality_slack * np.max(series)
            grow = grow[live[:-1] & live[1:]]
            monotone = len(grow) == 0 or np.max(grow) <= 0
            rate, used = fit_decay_rate(t, series)
            if used < 2:
                # one record above the plateau floor: no rate to fit
                j = int(np.argmax(series > floor))
                yield (f"falls to its plateau within one record, "
                       f"at cadence {t[j + 1] - t[j]:.3g}")
                continue
            yield (monotone and (math.isnan(rate) or rate > 0), rate, math.nan,
                   f"fitted rate over {used} records")

        # M12-convexity: once inside [pi omega / (2 c_L), 8 pi omega], k stays there
        if not normalized:
            yield "bracket needs the normalized chain-rule run"
            return
        klo, khi = wpi / (2.0 * cL), 8.0 * wpi
        good = (c.kmin >= klo) & (c.kmax <= khi)
        idx = np.nonzero(good)[0]
        if len(idx) == 0:
            yield False, math.nan, math.nan, "never entered the bracket"
        else:
            stay = np.all(good[idx[0]:])
            yield (stay, float(np.min(np.minimum(c.kmin - klo, khi - c.kmax)[idx[0]:])),
                   float(t[idx[0]]), f"bracket [{klo:.4g}, {khi:.4g}]")

    short = "fewer than 3 records" if len(t) < 3 else None
    rescaled = tr.variant != "unscaled"
    suite = [(("M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M8-growth", "M9"),
              unscaled_flow, short or ("unscaled-flow monitor" if rescaled else None)),
             (("M10", "M11"), any_flow, short)]
    if rescaled:
        suite.append((("M12-length", "M12-decay-h1", "M12-decay-h2", "M12-decay-h3",
                       "M12-decay-h4", "M12-convexity"), rescaled_flow, short))
    rep = MonitorReport()
    for names, group, skip in suite:
        verdicts = [skip] * len(names) if skip else group()
        for name, verdict in zip(names, verdicts, strict=True):
            if isinstance(verdict, str):
                rep.add(name, "not-applicable", note=verdict)
            else:
                truth, *found = verdict
                rep.add(name, {True: "pass", False: "fail"}[bool(truth)], *found)
    return rep
