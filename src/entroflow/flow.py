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

The semi-implicit attempt, _semi_implicit_attempt, steps through one of
two bodies, each a closure over its run's own arrays, which
_semi_implicit_scheme alone chooses, from n.  Above DENSE_MAX_N,
_fourier_body steps in mode space: it carries the state's spectrum and
makes one rfft and one stacked irfft per attempt, with no D2I apply.  At
or below it, _dense_body keeps the bits of the dense operator's step,
which the CLI's stored reference pins: F(h) through D2I, then one stacked
rfft and one irfft.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import spectral  # spectral.rfft/irfft looked up per call: one seam
from .diagnostics import DiagnosticsRecord, compute_record
from .errors import ConfigError, FlowBreakdownError
from .spectral import GridFunction, PeriodicGrid, periodic_derivs_values
from .support import SupportGrid, curvature, write_text

VARIANTS = ("unscaled", "rescaled_chainrule", "rescaled_paper")
SCHEMES = ("explicit_rk4", "semi_implicit")

RK4_REAL_AXIS = 2.7       # RK4 real-axis stability bound 2.79, rounded down
MAX_HALVINGS = 40
MAX_STEPS = 10**9         # steps a run may take at its scheme's step bound
MAX_RECORDS = 100_000     # states a run may record, in at most MAX_RECORD_BYTES
MAX_RECORD_BYTES = 2**28  # of the (R, n) array, R * n * 8: 1,024 states at n = 32768
RECORD_BLOCK = 4096       # samples per compute_record call

# A config key's row: (what its value must be, its types, its range test or
# None).  No key takes a bool, though Python's True == 1.
NUMBER = (int, float)
STEPPER_ROWS = {
    "dt_init": ("a number > 0", NUMBER, lambda x: x > 0),
    "safety": ("a number in (0, 1]", NUMBER, lambda x: 0 < x <= 1),
    "max_dt": ("a number > 0", NUMBER, lambda x: x > 0),
    "guard_ratio": ("a number in (0, 1)", NUMBER, lambda x: 0 < x < 1),
    "scheme": (f"one of {SCHEMES}", str, SCHEMES.__contains__),
    "stabilization_coeff": ("a number >= 0", NUMBER, lambda x: x >= 0),
}


def check_key(key, value, row) -> None:
    """Raise ConfigError("<key> must be <what>, got <value!r>") unless value
    has row's type and then lies in its range.  A number is no int beyond
    the largest float, which float() refuses; NaN lies in no range."""
    what, types, in_range = row
    if (isinstance(value, bool) or not isinstance(value, types)
            or types is NUMBER and isinstance(value, int)
            and abs(value) > sys.float_info.max
            or in_range is not None and not in_range(value)):
        raise ConfigError(f"{key} must be {what}, got {value!r}")


@dataclass
class StepperConfig:
    """Settings of the guarded stepping loop, each checked by its row of
    STEPPER_ROWS (a ConfigError, which is a ValueError).

    dt_init is the semi-implicit scheme's first step, which explicit RK4
    ignores; each scheme's dt rule is in _rk4_scheme or _semi_implicit_scheme.
    """

    dt_init: float = 1e-3
    safety: float = 0.9
    max_dt: float = math.inf
    guard_ratio: float = 0.2
    scheme: str = "explicit_rk4"
    stabilization_coeff: float = 1.0

    def __post_init__(self):
        for key, row in STEPPER_ROWS.items():
            check_key(f"stepper.{key}", getattr(self, key), row)


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
    D2I = workspace(s.grid).D2I
    return s.h.copy_with(velocity(s.values, D2I, variant_shift(variant, s.omega),
                                  D2I @ s.values))


# ---------------------------------------------------------------------------
# spectral workspace: the operator D2I = d^2/dtheta^2 + 1, dense or by rfft

# largest n whose D2I is the dense circulant; above it the rfft route is
# faster (measured in README) and needs O(n) memory, not O(n^2)
DENSE_MAX_N = 352


class _RfftOperator(np.ndarray):
    """The circulant D2I held as its rfft symbol 1 - xi^2, shape (n//2 + 1,),
    the route above DENSE_MAX_N; at or below it D2I is the plain dense
    (n, n) matrix.

    D2I @ x and np.matmul(D2I, x) are D2I.dot(x, out=None, spec=None),
    irfft(symbol * rfft(x)) along axis 0 of an (n,) or (n, B) x, an (n, B)
    x transformed through its transposed view; no other arithmetic is
    defined on it.  The spectrum goes into spec, of rfft(x)'s shape, or into
    a new array when spec is None.  It stays an ndarray, so that a view of
    it may wrap the apply and call np.matmul(D2I, x).  The symbol is held as
    complex128 with zero imaginary parts and multiplies the spectrum in
    place: numpy casts a real symbol to exactly that before a complex
    multiply, so the bits are those of the real one, without the cast on
    every apply.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if (ufunc is not np.matmul or method != "__call__" or kwargs
                or inputs[0] is not self):
            return NotImplemented
        return self.dot(inputs[1])

    def dot(self, x, out=None, spec=None):
        x = np.asarray(x)
        cols = x.ndim == 2
        c = spectral.rfft(x.T if cols else x, spec)
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
        else:
            e0 = np.zeros(n)
            e0[0] = 1.0
            col = periodic_derivs_values(e0, grid.period, (2,))[0]
            # circulant D2I[i, j] = col[(i - j) % n] + delta_ij: row i is a
            # window of the reversed col repeated.  Unlike an (n, n) index
            # gather it builds no index array
            rev = col[::-1]
            windows = sliding_window_view(np.concatenate([rev, rev[:-1]]), n)
            self.D2I = windows[::-1] + np.eye(n)
        # every run on the grid shares the cached operator
        self.D2I.flags.writeable = False


# a dense operator is at most DENSE_MAX_N^2 * 8 bytes (1 MB) and an rfft one
# 16 * (n//2 + 1) bytes, so the eight most recently used grids keep theirs; a
# rebuilt D2I is bit-identical
@functools.lru_cache(maxsize=8)
def workspace(grid: PeriodicGrid) -> _Workspace:
    return _Workspace(grid)


# ---------------------------------------------------------------------------
# velocity kernel and steppers

def velocity(h, D2I, lam, w):
    """F(h) = D2I @ (1/w) - lam*h, i.e. k_thth + k - lam*h with k = 1/w and
    w = D2I @ h = h_thth + h, as a new plain array on either D2I route; rhs
    calls it, _rk4_attempt and _dense_body write the same formula in place,
    and _fourier_body its spectrum."""
    f = D2I @ np.reciprocal(w)
    if lam != 0.0:
        f -= lam * h
    return f


def _apply_into(D2I):
    """The call apply(x, out) that writes D2I @ x, for an (n,) x, into the
    buffer out and returns out, with the bits of D2I @ x: either route's
    own D2I by its own dot (for the dense matrix the BLAS product of
    np.matmul, at less dispatch cost; on the rfft route with a spectrum
    buffer made here, once), any other operator (a view that wraps the
    apply and may define @ alone) by out[...] = D2I @ x."""
    if type(D2I) is np.ndarray:
        return D2I.dot
    if type(D2I) is _RfftOperator:
        dot, spec = D2I.dot, np.empty(len(D2I), complex)
        return lambda x, out: dot(x, out, spec)

    def apply(x, out):
        out[...] = D2I @ x
        return out

    return apply


# A run's attempt(h, w, margin, dt) -> (h_new, D2I @ h_new), w = D2I @ h and
# margin = min(w), works in the order of operations of the plain formulas,
# so that it gives their bits: x + x is 2.0 * x, and + and * commute exactly.
# It writes into the run's own arrays, into the one of its two (h, D2I @ h)
# pairs that does not hold h: a retry rewrites that pair, and no attempt
# overwrites the accepted state.

def _rk4_attempt(D2I, lam, n):
    """The attempt of one RK4 run on n nodes: a classical RK4 step from h,
    h_new = h + dt/6 * (f1 + 2 f2 + 2 f3 + f4), each slope velocity's formula
    in place; margin is unused.  Its work arrays are made here, once: the
    slopes as the rows of F, a stage state y, a buffer r for D2I @ y and its
    reciprocal, 0-d factors lam, dt/2, dt and dt/6 (which multiply with the
    bits of the float they hold, unconverted per call) and two (h, D2I @ h)
    pairs.  Whether lam is nonzero is decided here, once.  D2I is applied
    into the arrays by _apply_into(D2I), and every output array is passed
    positionally, which spares numpy's parsing of an out= keyword."""
    apply = _apply_into(D2I)
    F = np.empty((4, n))
    f1, f2, f3, f4, f23 = *F, F[1:3]
    y, r, h0, w0, h1, w1 = (np.empty(n) for _ in range(6))
    half, full, sixth = (np.empty(()) for _ in range(3))
    shifted, lam = lam != 0.0, np.array(lam, float)
    add, sub, mul, recip = np.add, np.subtract, np.multiply, np.reciprocal

    def attempt(h, w, margin, dt):
        hn, wn = (h1, w1) if h is h0 else (h0, w0)
        half[()], full[()], sixth[()] = 0.5 * dt, dt, dt / 6.0
        # stage i: f_i = D2I @ (1 / (D2I @ y)) - lam*y, then y = h + c*f_i
        apply(recip(w, r), f1)
        if shifted:
            sub(f1, mul(lam, h, r), f1)
        add(mul(f1, half, y), h, y)
        apply(recip(apply(y, r), r), f2)
        if shifted:
            sub(f2, mul(lam, y, r), f2)
        add(mul(f2, half, y), h, y)
        apply(recip(apply(y, r), r), f3)
        if shifted:
            sub(f3, mul(lam, y, r), f3)
        add(mul(f3, full, y), h, y)
        apply(recip(apply(y, r), r), f4)
        if shifted:
            sub(f4, mul(lam, y, r), f4)
        add(f23, f23, f23)  # f2 and f3 doubled in one call
        # ((f1 + 2 f2) + 2 f3) + f4, the bits of add.reduce(F, 0), which
        # allocates an iterator buffer on every call
        add(add(add(f1, f2, hn), f3, hn), f4, hn)
        add(mul(hn, sixth, hn), h, hn)
        return hn, apply(hn, wn)

    return attempt


def _dense_body(ws, lam, stab_coeff, n):
    """The semi-implicit body of one run at n <= DENSE_MAX_N, whose bits
    the CLI's stored reference pins.  From the state i that holds h (an h
    that is no state's is copied into stack 0): F(h) by velocity's formula
    in place, through two D2I applies (_apply_into), then h and F(h) in
    stack i through one stacked rfft, and h_new = irfft(hhat_new) and
    D2I @ h_new into state 1 - i.
    _fourier_body gives the same step to round-off with two transform calls
    and no apply; it replaces this body at every n once a change that
    rebuilds that reference lets the bits of the dense runs move (ROADMAP
    item 17).  Its work arrays: two (2, n) stacks, each holding h[i] in
    row 0 and its F(h) in row 1, w[i] = D2I @ h[i] beside each, tmp for
    1/w and lam*h, the (2, n//2 + 1) spectrum of a stack and the
    denominator den."""
    apply, m = _apply_into(ws.D2I), n // 2 + 1
    s0, s1 = np.empty((2, 2, n))
    (h0, f0), (h1, f1) = s0, s1
    w0, w1 = np.empty((2, n))
    spec = np.empty((2, m), complex)
    hhat, r = spec
    xi4, tmp, den = ws.xi4, np.empty(n), np.empty(m)
    shifted, lam, one = lam != 0.0, np.array(lam, float), np.array(1.0)
    full, dtc = np.empty(()), np.empty(())
    add, sub, mul, div, recip = np.add, np.subtract, np.multiply, np.divide, np.reciprocal

    def body(h, w, margin, dt):
        if h is h1:
            stack, f, hn, wn = s1, f1, h0, w0
        else:
            if h is not h0:
                s0[0] = h
            stack, f, hn, wn = s0, f0, h1, w1
        kmax = 1.0 / margin
        full[()], dtc[()] = dt, dt * (stab_coeff * kmax * kmax)
        add(mul(xi4, dtc, den), one, den)
        # F(h) into row 1 by velocity's formula
        apply(recip(w, tmp), f)
        if shifted:
            sub(f, mul(lam, h, tmp), f)
        spectral.rfft(stack, spec)
        add(div(mul(r, full, r), den, r), hhat, r)
        spectral.irfft(r, n, hn)
        return hn, apply(hn, wn)

    return body


def _fourier_body(ws, lam, stab_coeff, n):
    """The semi-implicit body of one run at n > DENSE_MAX_N, which steps in
    mode space and applies no D2I.  State i is the (2, n) stack of h[i] and
    w[i] = D2I @ h[i] and the (2, n//2 + 1) stack of its carried spectrum
    hhat[i] and (1 - xi^2) * hhat[i] (an h that is no state's takes
    rfft(h) into hhat[0]).  F(h)'s spectrum is (1 - xi^2) * rfft(1/w) -
    lam * hhat, and one stacked irfft of hhat_new and (1 - xi^2) *
    hhat_new writes h_new and D2I @ h_new into state 1 - i: one rfft and
    one irfft per attempt.  Beside the states it keeps the spectrum f of
    F(h), buf for lam * hhat, tmp for 1/w and den.  Its symbol, xi^4, den
    and 0-d factors are complex128 with zero imaginary parts, the operands
    numpy would cast real ones to, at the cost of a buffer, on every call.

    A step that returns (h, w) byte for byte keeps hhat as it was, so that
    it changes nothing of the run's state (h, w, hhat) and evolve's reuse
    of such a step keeps the bits.  Its update moves hhat only below what
    h and w resolve, and would do so again on every later step: the
    carried hhat alone never reaches a fixed point."""
    m = n // 2 + 1
    sym, xi4 = (1.0 - ws.xi**2).astype(complex), ws.xi4.astype(complex)
    phys, spec = np.empty((2, 2, n)), np.empty((2, 2, m), complex)
    (h0, w0), (h1, w1) = phys
    (hhat0, what0), (hhat1, what1) = spec
    # from state i: hhat[i], then state 1 - i's spectra and its (h, w)
    from0 = (hhat0, hhat1, what1, spec[1], phys[1], h1, w1)
    from1 = (hhat1, hhat0, what0, spec[0], phys[0], h0, w0)
    f, buf = np.empty((2, m), complex)
    tmp, den = np.empty(n), np.empty(m, complex)
    shifted, lam, one = lam != 0.0, np.array(lam, complex), np.array(1.0, complex)
    full, dtc = np.empty((), complex), np.empty((), complex)
    add, sub, mul, div, recip = np.add, np.subtract, np.multiply, np.divide, np.reciprocal

    def body(h, w, margin, dt):
        if h is h1:
            hhat, nhat, nwhat, new, out, hn, wn = from1
        else:
            if h is not h0:
                spectral.rfft(h, hhat0)
            hhat, nhat, nwhat, new, out, hn, wn = from0
        kmax = 1.0 / margin
        full[()], dtc[()] = dt, dt * (stab_coeff * kmax * kmax)
        add(mul(xi4, dtc, den), one, den)
        spectral.rfft(recip(w, tmp), f)
        mul(f, sym, f)
        if shifted:
            sub(f, mul(lam, hhat, buf), f)
        add(hhat, div(mul(f, full, f), den, f), nhat)
        mul(nhat, sym, nwhat)
        spectral.irfft(new, n, out)
        # the first values differ on nearly every step that moves
        if (hn.item(0) == h.item(0) and hn.tobytes() == h.tobytes()
                and wn.tobytes() == w.tobytes()):
            nhat[...] = hhat
        return hn, wn

    return body


def _semi_implicit_attempt(h, w, margin, dt, body):
    """One linearly stabilized step from h, with w = D2I @ h and margin =
    min(w) > 0: hhat_new = hhat + dt * F_hat / (1 + dt * c * xi^4), c =
    stab_coeff / margin^2, where hhat and F_hat are the spectra of h and of
    F(h) = D2I @ (1/w) - lam*h.  Returns (h_new, D2I @ h_new) in the state
    of body (its run's _dense_body or _fourier_body) that does not hold h.

    Every semi-implicit attempt goes through here, by name, so that one
    wrapper of it sees each attempt and its h.  lam, 1, dt and dt * c enter
    the bodies' ufuncs as 0-d arrays (with the bits of the float each
    holds, unconverted per call), and every output array is passed
    positionally, which spares numpy's parsing of an out= keyword."""
    return body(h, w, margin, dt)


def _guard_holds(margin_new, margin, guard_ratio):
    """The convexity guard: min(h_thth + h) stays finite and keeps at least
    guard_ratio of its value before the step."""
    return math.isfinite(margin_new) and margin_new >= guard_ratio * margin


def _step_is_still(h_new, w_new, h, w):
    """Whether a step's (h_new, D2I @ h_new) is its input (h, w), byte for
    byte: an exact fixed point of the discrete step."""
    return h_new.tobytes() == h.tobytes() and w_new.tobytes() == w.tobytes()


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
    start, each multiple of monitor_every (None, or a number > 0 as both
    callers check first), each snap time and t_end."""
    count = 2 + len(snap_times)
    if monitor_every is not None:
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


def _zero_order_cap(margin: float, safety: float, lam: float) -> float:
    """2 * safety / (kmax^2 + lam), kmax = 1/margin: safety times the
    explicit stability bound of the constant mode, whose linearization is
    -(kmax^2 + lam) * delta in both schemes."""
    m2 = margin * margin
    return 2.0 * safety * m2 / (1.0 + lam * m2)


def _event_times(n: int, t0: float, t_end: float, monitor_every, snap_times):
    """A run's sorted stops: each multiple of monitor_every, each snap time
    in (t0, t_end] and t_end, once evolve's record arguments check out."""
    if monitor_every is not None and not 0 < monitor_every < math.inf:
        raise ValueError(f"monitor_every must be None or a finite number > 0, "
                         f"got {monitor_every!r}")
    snap_times = [] if snap_times is None else [float(t) for t in snap_times]
    for t in snap_times:
        if not math.isfinite(t):
            raise ValueError(f"snap times must be finite, got {t!r}")
    snap_times = [t for t in snap_times if t0 < t <= t_end]
    check_record_count(n, t0, t_end, monitor_every, snap_times)
    events = {t_end, *snap_times}
    if monitor_every is not None:
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


def _record_columns(grid: PeriodicGrid, H, t, dt, repeats=()) -> DiagnosticsRecord:
    """compute_record on the stacked states H, one call per record block.

    Each row listed in repeats (never row 0) holds its predecessor's state
    and takes its predecessor's record, with its own t and dt_used.  Its
    block's call skips it: the block calls compute_record on each stretch
    of its other rows, as views of H.  compute_record gives row j the bits
    of the one-state call on row j, so the columns are those of every row
    computed.
    """
    R, skip = len(H), set(repeats)
    cuts = sorted(skip.union([b.start for b in record_blocks(grid, R)], [R]))
    columns = DiagnosticsRecord.concat([
        compute_record(SupportGrid(GridFunction(grid, H[a:z]), validate=False),
                       t[a:z], dt[a:z])
        for a, z in ((c + (c in skip), d) for c, d in zip(cuts, cuts[1:])) if a < z])
    if not skip:
        return columns
    # row j's record is that of the last computed row up to j, in columns' order
    fresh = np.ones(R, bool)
    fresh[list(skip)] = False
    src = np.cumsum(fresh) - 1
    return replace(columns, t=t, dt_used=dt, **{
        f.name: getattr(columns, f.name)[src] for f in fields(columns)
        if f.name not in ("t", "dt_used") and getattr(columns, f.name) is not None})


def _check_step_count(head: str, dt: float, t0: float, t_end: float) -> None:
    """Raise ValueError when steps of dt from t0 to t_end are over MAX_STEPS;
    head names the scheme and its dt: "explicit RK4 on n=32 starts at dt"."""
    count = (t_end - t0) / dt if dt > 0.0 else math.inf
    if not count <= MAX_STEPS:
        raise ValueError(f"{head}={dt:.3g}, about {count:.3g} steps from t={t0:g} "
                         f"to t_end={t_end:g}, above the cap of {MAX_STEPS:.0e} steps")


def _rk4_scheme(cfg, ws, lam, n, margin, t0, t_end):
    """Explicit RK4's (attempt, next_dt) for one run: _rk4_attempt(ws.D2I,
    lam, n), and next_dt, which takes each dt afresh, min(c_stab * margin^2,
    max_dt, _zero_order_cap(margin)).  Raises ValueError when the first dt
    is over MAX_STEPS steps from t0 to t_end."""
    safety, max_dt = cfg.safety, cfg.max_dt
    c_stab = safety * RK4_REAL_AXIS / ws.ximax4
    # at lam = 0 the zero-order cap is 2 * safety * margin^2, RK4's own rule
    # with c_stab at most 2 * safety, so it is folded in there once
    if lam == 0.0:
        c_stab = min(c_stab, 2.0 * safety)

    def next_dt(margin, *step):
        dt = c_stab * margin * margin
        if dt > max_dt:
            dt = max_dt
        return dt if lam == 0.0 else min(dt, _zero_order_cap(margin, safety, lam))

    _check_step_count(f"explicit RK4 on n={n} starts at dt", next_dt(margin), t0, t_end)
    return _rk4_attempt(ws.D2I, lam, n), next_dt


def _semi_implicit_scheme(cfg, ws, lam, n, margin, t0, t_end):
    """The semi-implicit scheme's (attempt, next_dt) for one run: attempt is
    _semi_implicit_attempt on the run's body, and next_dt
    carries dt from min(dt_init, max_dt) under _zero_order_cap(margin):
    it keeps a halved dt and grows dt 1.2x (up to max_dt) after a clean step
    no event clipped.  Raises ValueError when steps of max_dt, which bounds
    every dt, are over MAX_STEPS from t0 to t_end."""
    safety, max_dt = cfg.safety, cfg.max_dt
    _check_step_count(f"semi_implicit on n={n} steps at most max_dt", max_dt, t0, t_end)
    dt = min(cfg.dt_init, max_dt)
    # the body from n alone: a wrapped view of ws.D2I, which is no
    # _RfftOperator, steps as the plain one does
    body = (_fourier_body if n > DENSE_MAX_N else _dense_body)(
        ws, lam, cfg.stabilization_coeff, n)

    def attempt(h, w, margin, dt):
        return _semi_implicit_attempt(h, w, margin, dt, body)

    def next_dt(margin, dt_taken=None, halvings=0, clipped=True):
        nonlocal dt
        if halvings:
            dt = max(dt_taken, 1e-15)
        elif not clipped:
            dt = min(dt * 1.2, max_dt)
        dt = min(dt, _zero_order_cap(margin, safety, lam))
        return dt

    return attempt, next_dt


def evolve(state: FlowState, t_end: float, cfg: StepperConfig,
           monitor_every: float | None = None,
           snap_times=None) -> Trajectory:
    """Advance the flow to t_end with adaptive steps and a convexity guard.

    States are recorded at the start, at every multiple of monitor_every, at
    each requested snap_time, and at t_end, into one (R, n) array; their
    diagnostics records are computed in blocks when the run ends.  Each
    scheme's attempt and dt rule live in _rk4_scheme or _semi_implicit_scheme.
    Raises ValueError, before any attempt, when t_end is not a finite time
    after state.time, when monitor_every is neither None nor a finite
    number > 0, when a snap time is not finite (finite ones outside
    (state.time, t_end] are dropped), above MAX_RECORDS records or
    MAX_RECORD_BYTES of them, or when the scheme refuses a run of over
    MAX_STEPS steps; and FlowBreakdownError (with the last accepted state
    attached) when a step fails the guard after 40 halvings, or at once when
    the state has no positive convexity margin.
    """
    if not (math.isfinite(t_end) and t_end > state.time):
        raise ValueError(f"t_end must be a finite time after the state time "
                         f"{state.time:g}, got {t_end}")
    events = _event_times(state.grid.n, state.time, t_end, monitor_every, snap_times)
    s = state.support
    ws = workspace(s.grid)
    lam = variant_shift(state.variant, s.omega)

    def breakdown():
        return FlowBreakdownError(
            f"convexity guard failed at t={t:.6g} (margin {margin:.3g})",
            last_state=_unchecked_state(s.grid, h.copy(), t, state.variant))

    h = s.values.copy()
    t, dt_last = state.time, 0.0
    w = ws.D2I @ h
    margin = float(w.min())
    # without a positive margin there is nothing to guard, nor to record
    if not margin > 0.0:
        raise breakdown()
    scheme = _rk4_scheme if cfg.scheme == "explicit_rk4" else _semi_implicit_scheme
    attempt, next_dt = scheme(cfg, ws, lam, s.n, margin, t, t_end)
    dt = next_dt(margin)
    H = np.empty((len(events) + 1, s.n))
    times = np.empty(len(H))
    dts = np.empty(len(H))
    H[0], times[0], dts[0] = h, t, 0.0
    # An attempt is a pure function of (h, w, margin, dt), its run's
    # constants and, on the Fourier body, the spectrum the run carries for
    # h, which a step that returns (h, w) leaves as it was.  still holds
    # each dt_try whose accepted step returned the current state byte for
    # byte; while the state stays put, a step of such a dt_try is taken
    # without its attempt, and next_dt sees it as a clean first try.
    # repeats lists the rows recorded with no state-changing step since the
    # previous event, which take their predecessor's record
    still, repeats = set(), []
    for i, t_stop in enumerate(events, start=1):
        tol = 1e-14 * max(abs(state.time), abs(t_stop))
        moved = False
        while t_stop - t > tol:
            rem = t_stop - t
            clipped = dt > rem
            dt_try = rem if clipped else dt
            if still and dt_try in still:
                halvings = 0
            else:
                # a margin lost to underflow leaves nothing to guard: no attempt
                halvings = 0 if margin > 0.0 else MAX_HALVINGS + 1
                while halvings <= MAX_HALVINGS:
                    hn, wn = attempt(h, w, margin, dt_try)
                    # min(wn) as a float: argmin takes a NaN as the minimum, as
                    # np.minimum.reduce does, at a third of its per-call cost
                    mn = wn.item(wn.argmin())
                    if _guard_holds(mn, margin, cfg.guard_ratio):
                        break
                    dt_try *= 0.5
                    halvings += 1
                else:
                    raise breakdown()
                if mn == margin and _step_is_still(hn, wn, h, w):
                    still.add(dt_try)
                else:
                    moved = True
                    if still:
                        still.clear()
                h, w, margin = hn, wn, mn
            t = t + dt_try
            dt_last = dt_try
            dt = next_dt(margin, dt_try, halvings, clipped)
        t = t_stop
        H[i], times[i], dts[i] = h, t, dt_last
        if not moved:
            repeats.append(i)
    return Trajectory(state.variant, s.grid, H,
                      _record_columns(s.grid, H, times, dts, repeats))


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
        for line in filter(None, map(str.strip, fh)):
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = val.strip()
            else:
                vals.append(float(line))
    grid = PeriodicGrid(omega=int(meta["omega"]), n=int(meta["n"]))
    state = _unchecked_state(grid, np.array(vals), float(meta["t"]), meta["variant"])
    curvature(state.support)  # raises unless strictly convex, as the flow checks
    return state
