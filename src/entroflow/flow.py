"""Time integration of the support-function flow h_t = k_thth + k.

Variants: "unscaled" is the flow itself; "rescaled_chainrule" is the exact
normalization h_t = k_thth + k - 4*omega^2*pi^2*h in the slow time with
d/dt_slow = phi^2 d/dt, phi = sqrt(L0^2 + 8*omega^2*pi^2*t), whose constant
fixed point is h = 1/(2*omega*pi); "rescaled_paper" is the literal variant
h_t = k_thth + k - h with fixed point h = 1, kept for comparison.

The explicit scheme is classical RK4 with the step bound
dt <= safety * 2.7 / (max(k)^2 * ximax^4), ximax = n/(2*omega), from the
frozen-coefficient linearization -k^2 * d^4/dtheta^4 and the RK4 real-axis
stability interval.  The semi-implicit scheme damps a constant-coefficient
fourth-derivative shift implicitly (diagonal in mode space) and is
unconditionally linearly stable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import spectral  # spectral.rfft/irfft looked up per call: one seam
from .diagnostics import DiagnosticsRecord, compute_record
from .errors import FlowBreakdownError, StepRejectedError
from .spectral import GridFunction, PeriodicGrid, periodic_derivs_values
from .support import (SupportGrid, radius_of_curvature_values,
                      require_convexity, write_text)

VARIANTS = ("unscaled", "rescaled_chainrule", "rescaled_paper")
SCHEMES = ("explicit_rk4", "semi_implicit")

RK4_REAL_AXIS = 2.7       # RK4 real-axis stability bound 2.79, rounded down
MAX_HALVINGS = 40
MAX_RK4_STEPS = 10**9     # RK4 steps a run may take at its starting step bound
MAX_RECORDS = 100_000     # states a run may record, in at most MAX_RECORD_BYTES
MAX_RECORD_BYTES = 2**28  # of the (R, n) array, R * n * 8: 1,024 states at n = 32768
RECORD_BLOCK = 4096       # samples per compute_record call


@dataclass
class StepperConfig:
    """Settings of the guarded stepping loop.

    dt_init is the semi-implicit scheme's first step (later steps carry dt
    forward); explicit RK4 ignores it and takes every dt from the stability
    bound safety * 2.7 / (max(k)^2 * ximax^4), capped at max_dt.
    """

    dt_init: float = 1e-3
    safety: float = 0.9
    max_dt: float = math.inf
    guard_ratio: float = 0.2
    scheme: str = "explicit_rk4"
    stabilization_coeff: float = 1.0

    def __post_init__(self):
        # written as "not x > 0" so that NaN fails them too
        if not self.dt_init > 0:
            raise ValueError("dt_init must be positive")
        if not 0.0 < self.safety <= 1.0:
            raise ValueError("safety must lie in (0, 1]")
        if not self.max_dt > 0:
            raise ValueError("max_dt must be positive")
        if not 0.0 < self.guard_ratio < 1.0:
            raise ValueError("guard_ratio must lie in (0, 1)")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if not self.stabilization_coeff >= 0:
            raise ValueError("stabilization_coeff must be >= 0")


@dataclass
class FlowState:
    support: SupportGrid
    time: float = 0.0
    variant: str = "unscaled"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    @property
    def grid(self) -> PeriodicGrid:
        return self.support.grid


@dataclass
class Trajectory:
    """Recorded states as columns.

    H holds one recorded support function per row, R * n * 8 bytes; columns
    is a DiagnosticsRecord of length-R columns, t and dt_used among them.
    state(i) builds recorded state i as a FlowState.
    """

    variant: str
    grid: PeriodicGrid
    H: np.ndarray
    columns: DiagnosticsRecord

    @property
    def times(self) -> np.ndarray:
        return self.columns.t

    def record_series(self, name) -> np.ndarray:
        return getattr(self.columns, name)

    def state(self, i) -> FlowState:
        """Recorded state i (negative i counts from the end)."""
        # h > 0 is checked on input only: the flow may translate the curve
        # past the origin, and the step guard keeps h_thth + h > 0
        sup = SupportGrid(GridFunction(self.grid, self.H[i]), validate=False)
        return FlowState(support=sup, time=self.columns.t[i].item(),
                         variant=self.variant)

    @property
    def final(self) -> FlowState:
        return self.state(-1)


def variant_shift(variant: str, omega: int) -> float:
    """Coefficient lam of the -lam*h term in the right-hand side."""
    if variant == "unscaled":
        return 0.0
    if variant == "rescaled_paper":
        return 1.0
    if variant == "rescaled_chainrule":
        return 4.0 * omega**2 * math.pi**2
    raise ValueError(f"unknown variant {variant!r}")


def rhs(s: SupportGrid, variant: str) -> GridFunction:
    """Velocity k_thth + k - lam*h of a variant, lam = variant_shift(variant,
    omega): the flow's F = k_thth + k when variant is "unscaled"."""
    return s.h.copy_with(velocity(s.values, workspace(s.grid).D2I,
                                  variant_shift(variant, s.omega)))


# ---------------------------------------------------------------------------
# spectral workspace: the operator D2I = d^2/dtheta^2 + 1, dense or by rfft

# largest n whose D2I is the dense circulant; above it the rfft route is
# faster (measured in README) and needs O(n) memory, not O(n^2)
DENSE_MAX_N = 352


class _DenseOperator(np.ndarray):
    """The circulant D2I as its dense (n, n) matrix.

    D2I @ x is the BLAS product ndarray.dot(D2I, x) along axis 0 of an (n,)
    or (n, B) x: the bits of np.matmul at less dispatch cost.  Its array
    priority is below ndarray's, so that dot returns a plain ndarray.  A
    view of it that calls np.matmul(D2I, x) reaches the same dot; no other
    arithmetic is defined on it.
    """

    __array_priority__ = -1.0
    __matmul__ = np.ndarray.dot

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if (ufunc is not np.matmul or method != "__call__" or kwargs
                or inputs[0] is not self):
            return NotImplemented
        return np.ndarray.dot(self, inputs[1])


class _RfftOperator(np.ndarray):
    """The circulant D2I held as its rfft symbol 1 - xi^2, shape (n//2 + 1,),
    the twin of _DenseOperator above DENSE_MAX_N.

    D2I @ x is irfft(symbol * rfft(x)) along axis 0 of an (n,) or (n, B) x,
    an (n, B) x transformed through its transposed view; no other arithmetic
    is defined on it.  It stays an ndarray, so that a view of it may wrap
    the apply and call np.matmul(D2I, x).  The symbol is held as complex128
    with zero imaginary parts and multiplies the spectrum in place: numpy
    casts a real symbol to exactly that before a complex multiply, so the
    bits are those of the real one, without the cast on every apply.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if (ufunc is not np.matmul or method != "__call__" or kwargs
                or inputs[0] is not self):
            return NotImplemented
        x = np.asarray(inputs[1])
        n = 2 * (len(self) - 1)
        c = spectral.rfft(x.T if x.ndim == 2 else x)
        c *= self.view(np.ndarray)
        y = spectral.irfft(c, n)
        return y.T if x.ndim == 2 else y


class _Workspace:
    def __init__(self, grid: PeriodicGrid):
        n = grid.n
        self.xi = grid.wavenumbers
        self.xi4 = self.xi**4
        self.ximax4 = (n / (2.0 * grid.omega))**4
        if n > DENSE_MAX_N:
            self.D2I = (1.0 - self.xi**2).astype(complex).view(_RfftOperator)
            return
        e0 = np.zeros(n)
        e0[0] = 1.0
        col = periodic_derivs_values(e0, grid.period, (2,))[0]
        # circulant D2I[i, j] = col[(i - j) % n] + delta_ij: row i is a window
        # of the reversed col repeated.  Unlike an (n, n) index gather it
        # builds no index array
        rev = col[::-1]
        windows = sliding_window_view(np.concatenate([rev, rev[:-1]]), n)
        self.D2I = (windows[::-1] + np.eye(n)).view(_DenseOperator)


# a dense operator is at most DENSE_MAX_N^2 * 8 bytes (1 MB) and an rfft one
# 16 * (n//2 + 1) bytes, so the eight most recently used grids keep theirs; a
# rebuilt D2I is bit-identical
@functools.lru_cache(maxsize=8)
def workspace(grid: PeriodicGrid) -> _Workspace:
    return _Workspace(grid)


# ---------------------------------------------------------------------------
# velocity kernel and steppers

def velocity(h, D2I, lam, w=None):
    """F(h) = D2I @ (1/w) - lam*h, i.e. k_thth + k - lam*h with k = 1/w.

    w = D2I @ h is the radius of curvature h_thth + h; pass it when already
    known to save one operator apply.
    """
    if w is None:
        w = D2I @ h
        np.reciprocal(w, out=w)
    else:
        w = np.reciprocal(w)
    f = D2I @ w
    if lam != 0.0:
        f -= lam * h
    return f


# The attempts below work in place on arrays they made themselves, in the
# order of operations of the plain formulas, so that they give the same bits:
# x + x is 2.0 * x, and + and * commute exactly.

def _rk4_attempt(h, w, margin, dt, ws, lam, stab_coeff):
    """One classical RK4 step of size dt from h, with w = D2I @ h.

    Returns (h_new, D2I @ h_new), h_new = h + dt/6 * (f1 + 2 f2 + 2 f3 + f4);
    margin and stab_coeff are unused, so that both schemes' attempts share
    one signature.
    """
    D2I = ws.D2I
    half = 0.5 * dt
    f1 = velocity(h, D2I, lam, w)
    y = f1 * half
    y += h
    f2 = velocity(y, D2I, lam)
    y = f2 * half
    y += h
    f3 = velocity(y, D2I, lam)
    y = f3 * dt
    y += h
    f4 = velocity(y, D2I, lam)
    hn = f2 + f2
    hn += f1
    f3 += f3
    hn += f3
    hn += f4
    hn *= dt / 6.0
    hn += h
    return hn, D2I @ hn


def _semi_implicit_attempt(h, w, margin, dt, ws, lam, stab_coeff):
    """One linearly stabilized step from h, with w = D2I @ h and margin =
    min(w) > 0.

    Returns (h_new, D2I @ h_new), h_new = irfft(rfft(h) + dt * rfft(F(h)) /
    (1 + dt * c * xi^4)) with c = stab_coeff / margin^2; h and F(h) take one
    stacked rfft.
    """
    kmax = 1.0 / margin
    c = stab_coeff * kmax * kmax
    hhat, r = spectral.rfft(np.array((h, velocity(h, ws.D2I, lam, w))))
    denom = ws.xi4 * (dt * c)
    denom += 1.0
    r *= dt
    r /= denom
    r += hhat
    hn = spectral.irfft(r, len(h))
    return hn, ws.D2I @ hn


def _attempt_for(scheme):
    """The attempt function (h, w, margin, dt, ws, lam, stab_coeff) ->
    (h_new, D2I @ h_new) of a stepping scheme; margin is min(w)."""
    return _rk4_attempt if scheme == "explicit_rk4" else _semi_implicit_attempt


def _guard_holds(margin_new, margin, guard_ratio):
    """The convexity guard: min(h_thth + h) stays finite and keeps at least
    guard_ratio of its value before the step."""
    return math.isfinite(margin_new) and margin_new >= guard_ratio * margin


def step(state: FlowState, dt: float, cfg: StepperConfig) -> FlowState:
    """One accepted integrator step of size exactly dt.

    Raises StepRejectedError when the convexity guard fails; the caller is
    expected to halve dt and retry.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    s = state.support
    ws = workspace(s.grid)
    lam = variant_shift(state.variant, s.omega)
    h = s.values
    w = ws.D2I @ h
    margin = float(w.min())
    attempt = _attempt_for(cfg.scheme)
    hn, wn = attempt(h, w, margin, dt, ws, lam, cfg.stabilization_coeff)
    margin_new = float(wn.min())
    if not _guard_holds(margin_new, margin, cfg.guard_ratio):
        raise StepRejectedError(
            f"convexity guard: margin {margin_new:.6g} < "
            f"{cfg.guard_ratio} * {margin:.6g} at dt={dt:.3g}",
            dt=dt, margin_before=margin, margin_after=margin_new)
    support = SupportGrid(GridFunction(s.grid, hn), validate=False)
    return FlowState(support=support, time=state.time + dt, variant=state.variant)


def check_record_count(n: int, t0: float, t_end: float, monitor_every=None,
                       snap_times=()) -> None:
    """Raise ValueError when a run on n nodes from t0 to t_end could record
    more than MAX_RECORDS states, or more than MAX_RECORD_BYTES of them: the
    start, each multiple of monitor_every, each snap time and t_end."""
    count = 2 + len(snap_times)
    if monitor_every is not None and monitor_every > 0:
        count += (t_end - t0) / monitor_every + 1e-9
    if not count <= MAX_RECORDS:
        raise ValueError(
            f"a run from t={t0:g} to t_end={t_end:g} records up to {count:.6g} "
            f"states, above the cap of {MAX_RECORDS} (each takes n * 8 bytes)")
    if not count * n * 8 <= MAX_RECORD_BYTES:
        raise ValueError(
            f"a run from t={t0:g} to t_end={t_end:g} records up to {count:.6g} "
            f"states of n={n}, {count * n * 8:.4g} bytes, above the cap of "
            f"{MAX_RECORD_BYTES} bytes")


def _check_rk4_steps(n: int, t0: float, t_end: float, dt: float) -> None:
    """Raise ValueError when RK4 steps of size dt from t0 to t_end number
    more than MAX_RK4_STEPS."""
    count = (t_end - t0) / dt if dt > 0.0 else math.inf
    if not count <= MAX_RK4_STEPS:
        raise ValueError(
            f"explicit RK4 on n={n} starts at dt={dt:.3g}, about {count:.3g} "
            f"steps from t={t0:g} to t_end={t_end:g}, above the cap of "
            f"{MAX_RK4_STEPS:.0e} steps")


def _event_times(n: int, t0: float, t_end: float, monitor_every, snap_times):
    snap_times = [] if snap_times is None else [float(t) for t in snap_times
                                                if t0 < t <= t_end]
    check_record_count(n, t0, t_end, monitor_every, snap_times)
    events = {t_end, *snap_times}
    if monitor_every is not None and monitor_every > 0:
        m = int(math.floor((t_end - t0) / monitor_every + 1e-9))
        events.update(t0 + j * monitor_every for j in range(1, m + 1))
    out = sorted(events)
    # merge events closer than time round-off
    merged = [out[0]]
    for t in out[1:]:
        if t - merged[-1] > 1e-13 * max(1.0, abs(t_end)):
            merged.append(t)
    return merged


def record_blocks(grid: PeriodicGrid, R: int) -> list:
    """Slices cutting R stacked states on grid into blocks of at most
    RECORD_BLOCK samples, so that the temporaries of a stacked call stay
    small."""
    rows = max(1, RECORD_BLOCK // grid.n)
    return [slice(i, i + rows) for i in range(0, R, rows)]


def _record_columns(grid: PeriodicGrid, H, t, dt) -> DiagnosticsRecord:
    """compute_record on the stacked states H, one call per record block."""
    return DiagnosticsRecord.concat([
        compute_record(SupportGrid(GridFunction(grid, H[b]), validate=False),
                       t[b], dt[b])
        for b in record_blocks(grid, len(H))])


def evolve(state: FlowState, t_end: float, cfg: StepperConfig,
           monitor_every: float | None = None,
           snap_times=None) -> Trajectory:
    """Advance the flow to t_end with adaptive steps and a convexity guard.

    States are recorded at the start, at every multiple of monitor_every, at
    each requested snap_time, and at t_end, into one (R, n) array; their
    diagnostics records are computed in blocks when the run ends.  RK4 takes
    dt = min(c_stab * margin^2, max_dt) afresh at every step; the
    semi-implicit scheme carries dt from step to step, keeping a halved dt
    and growing it 1.2x after a clean step that the next event did not
    clip.  Raises ValueError above MAX_RECORDS records or MAX_RECORD_BYTES
    of them, or when RK4's starting dt would take more than MAX_RK4_STEPS
    steps to t_end, and FlowBreakdownError (with the last accepted state
    attached) when a step fails the guard after 40 halvings, or at once when
    the state has no positive convexity margin.
    """
    if t_end <= state.time:
        raise ValueError("t_end must exceed the state time")
    events = _event_times(state.grid.n, state.time, t_end, monitor_every, snap_times)
    s = state.support
    ws = workspace(s.grid)
    lam = variant_shift(state.variant, s.omega)
    attempt = _attempt_for(cfg.scheme)
    rk4 = cfg.scheme == "explicit_rk4"
    c_stab = cfg.safety * RK4_REAL_AXIS / ws.ximax4
    max_dt, guard_ratio, stab = cfg.max_dt, cfg.guard_ratio, cfg.stabilization_coeff

    def breakdown():
        last = FlowState(
            support=SupportGrid(GridFunction(s.grid, h), validate=False),
            time=t, variant=state.variant)
        return FlowBreakdownError(
            f"convexity guard failed at t={t:.6g} (margin {margin:.3g})",
            last_state=last)

    h = s.values.copy()
    t = state.time
    w = ws.D2I @ h
    margin = float(w.min())
    dt = min(cfg.dt_init, max_dt)
    dt_last = 0.0
    # without a positive margin there is nothing to guard, nor to record
    if not margin > 0.0:
        raise breakdown()
    if rk4:
        _check_rk4_steps(s.n, t, t_end, min(c_stab * margin * margin, max_dt))
    H = np.empty((len(events) + 1, s.n))
    times = np.empty(len(H))
    dts = np.empty(len(H))
    H[0], times[0], dts[0] = h, t, 0.0
    for i, t_stop in enumerate(events, start=1):
        tol = 1e-14 * max(1.0, abs(t_stop))
        while t_stop - t > tol:
            if rk4:
                dt = c_stab * margin * margin
                if dt > max_dt:
                    dt = max_dt
            rem = t_stop - t
            clipped = dt > rem
            dt_try = rem if clipped else dt
            # a margin lost to underflow leaves nothing to guard: no attempt
            halvings = 0 if margin > 0.0 else MAX_HALVINGS + 1
            while halvings <= MAX_HALVINGS:
                hn, wn = attempt(h, w, margin, dt_try, ws, lam, stab)
                mn = float(wn.min())
                if _guard_holds(mn, margin, guard_ratio):
                    break
                dt_try *= 0.5
                halvings += 1
            else:
                raise breakdown()
            h, w, margin = hn, wn, mn
            t = t + dt_try
            dt_last = dt_try
            if not rk4:
                if halvings:
                    dt = max(dt_try, 1e-15)
                elif not clipped:
                    dt = min(dt * 1.2, max_dt)
        t = t_stop
        H[i], times[i], dts[i] = h, t, dt_last
    return Trajectory(state.variant, s.grid, H,
                      _record_columns(s.grid, H, times, dts))


# ---------------------------------------------------------------------------
# rescaling

def scale_factor(t: float, L0: float, omega: int) -> float:
    """phi(t) = sqrt(L0^2 + 8 omega^2 pi^2 t)."""
    return math.sqrt(L0**2 + 8.0 * omega**2 * math.pi**2 * t)


def slow_time(t: float, L0: float, omega: int) -> float:
    """t_slow = log(1 + 8 omega^2 pi^2 t / L0^2) / (8 omega^2 pi^2)."""
    a = 8.0 * omega**2 * math.pi**2
    return math.log1p(a * t / L0**2) / a


def unscaled_time(t_slow: float, L0: float, omega: int) -> float:
    """Inverse of slow_time."""
    a = 8.0 * omega**2 * math.pi**2
    return L0**2 * math.expm1(a * t_slow) / a


def rescale_trajectory(tr: Trajectory, L0: float) -> Trajectory:
    """Map an unscaled trajectory to (h/phi, t_slow) snapshots.

    The result solves the chain-rule rescaled equation exactly, so it can be
    compared state-by-state with a direct rescaled integration.
    """
    if tr.variant != "unscaled":
        raise ValueError("rescale_trajectory expects an unscaled trajectory")
    omega = tr.grid.omega
    # phi, t_slow and dt/phi^2 per Python float: numpy's phi**2 of an array
    # differs from the float power in the last bit of a few dt
    t = tr.times.tolist()
    phi = [scale_factor(x, L0, omega) for x in t]
    t_eta = np.array([slow_time(x, L0, omega) for x in t])
    dt_eta = np.array([d / p**2 for d, p
                       in zip(tr.record_series("dt_used").tolist(), phi)])
    H = tr.H / np.array(phi)[:, None]
    return Trajectory("rescaled_chainrule", tr.grid, H,
                      _record_columns(tr.grid, H, t_eta, dt_eta))


# ---------------------------------------------------------------------------
# snapshot files

def snapshot_format(grid: PeriodicGrid, variant: str) -> str:
    """The text of a snapshot file as a %-format of (t, h_0, ..., h_{n-1})."""
    return (f"# omega={grid.omega}\n# n={grid.n}\n# t=%.17g\n# variant={variant}\n"
            + "%.17g\n" * grid.n)


def write_snapshot(path, state: FlowState):
    fmt = snapshot_format(state.grid, state.variant)
    write_text(path, fmt % (state.time, *state.support.values.tolist()))


def read_snapshot(path) -> FlowState:
    meta = {}
    vals = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = val.strip()
            else:
                vals.append(float(line))
    grid = PeriodicGrid(omega=int(meta["omega"]), n=int(meta["n"]))
    # convexity only, as the flow checks it: it may carry the origin outside
    h = GridFunction(grid, np.array(vals))
    require_convexity(h.values, radius_of_curvature_values(h))
    sup = SupportGrid(h, validate=False)
    return FlowState(support=sup, time=float(meta["t"]), variant=meta["variant"])
