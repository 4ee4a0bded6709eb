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
fourth-derivative shift implicitly (diagonal in mode space).  Both take the
constant mode's linearization -(k^2 + lam) * delta explicitly, so both cap
dt at 2 * safety / (max(k)^2 + lam).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import spectral  # spectral.rfft/irfft looked up per call: one seam
from .diagnostics import DiagnosticsRecord, compute_record
from .errors import FlowBreakdownError
from .spectral import GridFunction, PeriodicGrid, periodic_derivs_values
from .support import SupportGrid, curvature, write_text

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
    bound safety * 2.7 / (max(k)^2 * ximax^4), capped at max_dt.  Both
    schemes cap dt at the constant mode's bound 2 * safety / (max(k)^2 + lam).
    """

    dt_init: float = 1e-3
    safety: float = 0.9
    max_dt: float = math.inf
    guard_ratio: float = 0.2
    scheme: str = "explicit_rk4"
    stabilization_coeff: float = 1.0

    def __post_init__(self):
        for name in ("dt_init", "safety", "max_dt", "guard_ratio",
                     "stabilization_coeff"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value}")
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


def _unchecked_state(grid, values, time, variant) -> FlowState:
    """FlowState of finite samples on grid without SupportGrid's h > 0 check:
    h > 0 is checked on input only, since the flow may translate the curve
    past the origin, and the step guard keeps h_thth + h > 0."""
    return FlowState(SupportGrid(GridFunction(grid, values), validate=False),
                     time, variant)


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
        return _unchecked_state(self.grid, self.H[i], self.columns.t[i].item(),
                                self.variant)

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


class _Operator(np.ndarray):
    """Base of the two D2I routes: D2I @ x and np.matmul(D2I, x) are D2I.dot(x)
    along axis 0 of an (n,) or (n, B) x, and no other arithmetic is defined
    on it.  Its array priority is below ndarray's, so that results are plain
    ndarrays.  It stays an ndarray, so that a view of it may wrap the apply
    and call np.matmul(D2I, x).
    """

    __array_priority__ = -1.0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if (ufunc is not np.matmul or method != "__call__" or kwargs
                or inputs[0] is not self):
            return NotImplemented
        return self.dot(inputs[1])


class _DenseOperator(_Operator):
    """The circulant D2I as its dense (n, n) matrix.

    D2I @ x is the BLAS product ndarray.dot(D2I, x): the bits of np.matmul
    at less dispatch cost.  D2I.dot(x, out=buf) writes the same bits into
    buf.
    """

    __matmul__ = np.ndarray.dot


class _RfftOperator(_Operator):
    """The circulant D2I held as its rfft symbol 1 - xi^2, shape (n//2 + 1,),
    the twin of _DenseOperator above DENSE_MAX_N.

    D2I.dot(x, out=None) is irfft(symbol * rfft(x)), an (n, B) x transformed
    through its transposed view, and is the route's one apply.  The symbol
    is held as complex128 with zero imaginary parts and multiplies the
    spectrum in place: numpy casts a real symbol to exactly that before a
    complex multiply, so the bits are those of the real one, without the
    cast on every apply.
    """

    def dot(self, x, out=None):
        x = np.asarray(x)
        cols = x.ndim == 2
        c = spectral.rfft(x.T if cols else x)
        c *= self.view(np.ndarray)
        y = spectral.irfft(c, 2 * (len(self) - 1),
                           out.T if cols and out is not None else out)
        return y.T if cols else y

    __matmul__ = dot


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

def velocity(h, D2I, lam, w=None, out=None, tmp=None):
    """F(h) = D2I @ (1/w) - lam*h, i.e. k_thth + k - lam*h with k = 1/w.

    w = D2I @ h is the radius of curvature h_thth + h; pass it when already
    known to save one operator apply.  Given out and tmp, (n,) arrays apart
    from h and w, F is written into out, tmp holds 1/w and then lam*h, and
    D2I is applied by D2I.dot(x, out=...); otherwise every result is a new
    array and D2I is applied by D2I @ x.
    """
    if out is None:
        if w is None:
            w = D2I @ h
            np.reciprocal(w, out=w)
        else:
            w = np.reciprocal(w)
        f = D2I @ w
        if lam != 0.0:
            f -= lam * h
        return f
    if w is None:
        w = D2I.dot(h, out=tmp)
        np.reciprocal(w, out=w)
    else:
        w = np.reciprocal(w, out=tmp)
    D2I.dot(w, out=out)
    if lam != 0.0:
        np.subtract(out, np.multiply(lam, h, out=tmp), out=out)
    return out


# The attempts below work in place, in the order of operations of the plain
# formulas, so that they give the same bits: x + x is 2.0 * x, and + and *
# commute exactly.

def _rk4_buffers(n):
    """Work arrays of the RK4 attempts on n nodes, which one run reuses: the
    slopes f1..f4 as the rows of a (4, n) array, the view of rows f2 and f3,
    a stage state, a temporary, two 0-d arrays for the step's scalar
    factors, and a list [h_new, D2I @ h_new] that the attempts write into.
    A 0-d factor multiplies with the bits of the Python float it holds,
    without numpy's conversion of that float on every call."""
    F = np.empty((4, n))
    return (*F, F[1:3], np.empty(n), np.empty(n), np.empty(()), np.empty(()),
            [np.empty(n), np.empty(n)])


def _rk4_attempt(h, w, margin, dt, ws, lam, stab_coeff, bufs):
    """One classical RK4 step of size dt from h, with w = D2I @ h.

    Returns (h_new, D2I @ h_new), h_new = h + dt/6 * (f1 + 2 f2 + 2 f3 + f4),
    written into the output pair of bufs, from _rk4_buffers, which must not
    hold h or w.  margin and stab_coeff are unused, so that both schemes'
    attempts share one signature (h, w, margin, dt, ws, lam, stab_coeff,
    bufs) -> (h_new, D2I @ h_new), with margin = min(w).
    """
    f1, f2, f3, f4, f23, y, tmp, half, c, (hn, wn) = bufs
    D2I = ws.D2I
    add, mul = np.add, np.multiply
    half.fill(0.5 * dt)
    velocity(h, D2I, lam, w, f1, tmp)
    mul(f1, half, out=y)
    add(y, h, out=y)
    velocity(y, D2I, lam, None, f2, tmp)
    mul(f2, half, out=y)
    add(y, h, out=y)
    velocity(y, D2I, lam, None, f3, tmp)
    c.fill(dt)
    mul(f3, c, out=y)
    add(y, h, out=y)
    velocity(y, D2I, lam, None, f4, tmp)
    add(f23, f23, out=f23)  # f2 and f3 doubled in one call
    add(f2, f1, out=hn)
    add(hn, f3, out=hn)
    add(hn, f4, out=hn)
    c.fill(dt / 6.0)
    mul(hn, c, out=hn)
    add(hn, h, out=hn)
    return hn, D2I.dot(hn, out=wn)


def _semi_implicit_attempt(h, w, margin, dt, ws, lam, stab_coeff, bufs=None):
    """One linearly stabilized step from h, with w = D2I @ h and margin =
    min(w) > 0; every array it returns is new, and bufs is unused.

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


def _guard_holds(margin_new, margin, guard_ratio):
    """The convexity guard: min(h_thth + h) stays finite and keeps at least
    guard_ratio of its value before the step."""
    return math.isfinite(margin_new) and margin_new >= guard_ratio * margin


def step(state: FlowState, dt: float, cfg: StepperConfig) -> FlowState:
    """The state dt later: evolve(state, state.time + dt, cfg).final, which
    may take several guarded steps.  Kept for perfbench's warm-up, which
    calls it; once that warm-up calls evolve (ROADMAP item 5), step goes.
    """
    return evolve(state, state.time + dt, cfg).final


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


def _zero_order_cap(margin: float, safety: float, lam: float) -> float:
    """2 * safety / (kmax^2 + lam), kmax = 1/margin: safety times the
    explicit stability bound of the constant mode, whose linearization is
    -(kmax^2 + lam) * delta in both schemes."""
    m2 = margin * margin
    return 2.0 * safety * m2 / (1.0 + lam * m2)


def _event_times(n: int, t0: float, t_end: float, monitor_every, snap_times):
    snap_times = [] if snap_times is None else [float(t) for t in snap_times
                                                if t0 < t <= t_end]
    check_record_count(n, t0, t_end, monitor_every, snap_times)
    events = {t_end, *snap_times}
    if monitor_every is not None and monitor_every > 0:
        m = int(math.floor((t_end - t0) / monitor_every + 1e-9))
        events.update(t0 + j * monitor_every for j in range(1, m + 1))
    out = sorted(events)
    # merge events closer than time round-off, relative to the times
    # themselves; the first event of a cluster stands for it
    tol = 1e-13 * max(abs(t0), abs(t_end))
    merged = [out[0]]
    for t in out[1:]:
        if t - merged[-1] > tol:
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
    clip.  Either dt is capped at _zero_order_cap(margin).  Raises
    ValueError above MAX_RECORDS records or MAX_RECORD_BYTES of them, or
    when RK4's starting dt would take more than MAX_RK4_STEPS steps to
    t_end, and FlowBreakdownError (with the last accepted state
    attached) when a step fails the guard after 40 halvings, or at once when
    the state has no positive convexity margin.
    """
    if t_end <= state.time:
        raise ValueError("t_end must exceed the state time")
    events = _event_times(state.grid.n, state.time, t_end, monitor_every, snap_times)
    s = state.support
    ws = workspace(s.grid)
    lam = variant_shift(state.variant, s.omega)
    rk4 = cfg.scheme == "explicit_rk4"
    attempt = _rk4_attempt if rk4 else _semi_implicit_attempt
    c_stab = cfg.safety * RK4_REAL_AXIS / ws.ximax4
    # at lam = 0 the zero-order cap is 2 * safety * margin^2, RK4's own rule
    # with c_stab at most 2 * safety, so it is folded in there once
    cap_each_step = not (rk4 and lam == 0.0)
    if not cap_each_step:
        c_stab = min(c_stab, 2.0 * cfg.safety)
    safety, max_dt, guard_ratio = cfg.safety, cfg.max_dt, cfg.guard_ratio
    stab = cfg.stabilization_coeff
    # RK4 attempts write into this run's buffers: the accepted pair (h, w)
    # and the attempts' output pair trade places at each accepted step
    bufs = _rk4_buffers(s.n) if rk4 else None

    def breakdown():
        return FlowBreakdownError(
            f"convexity guard failed at t={t:.6g} (margin {margin:.3g})",
            last_state=_unchecked_state(s.grid, h.copy(), t, state.variant))

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
        dt0 = min(c_stab * margin * margin, max_dt)
        if cap_each_step:
            dt0 = min(dt0, _zero_order_cap(margin, safety, lam))
        _check_rk4_steps(s.n, t, t_end, dt0)
    H = np.empty((len(events) + 1, s.n))
    times = np.empty(len(H))
    dts = np.empty(len(H))
    H[0], times[0], dts[0] = h, t, 0.0
    for i, t_stop in enumerate(events, start=1):
        tol = 1e-14 * max(abs(state.time), abs(t_stop))
        while t_stop - t > tol:
            if rk4:
                dt = c_stab * margin * margin
                if dt > max_dt:
                    dt = max_dt
            if cap_each_step:
                dt = min(dt, _zero_order_cap(margin, safety, lam))
            rem = t_stop - t
            clipped = dt > rem
            dt_try = rem if clipped else dt
            # a margin lost to underflow leaves nothing to guard: no attempt
            halvings = 0 if margin > 0.0 else MAX_HALVINGS + 1
            while halvings <= MAX_HALVINGS:
                hn, wn = attempt(h, w, margin, dt_try, ws, lam, stab, bufs)
                mn = float(np.minimum.reduce(wn))
                if _guard_holds(mn, margin, guard_ratio):
                    break
                dt_try *= 0.5
                halvings += 1
            else:
                raise breakdown()
            if rk4:
                bufs[-1][:] = h, w
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
    state = _unchecked_state(grid, np.array(vals), float(meta["t"]), meta["variant"])
    curvature(state.support)  # raises unless strictly convex, as the flow checks
    return state
