import copy
import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

import entroflow.flow as flow
import entroflow.spectral as spectral
from entroflow.errors import FlowBreakdownError, NotLocallyConvexError
from entroflow.spectral import (GridFunction, PeriodicGrid, integrate,
                                periodic_derivs_values)
from entroflow.diagnostics import compute_record, run_monitors
from entroflow.support import (SupportGrid, circle_support, curvature,
                               ellipse_support, fourier_support)
from entroflow.flow import (FlowState, StepperConfig, evolve, read_snapshot,
                            rescale_trajectory, rhs, scale_factor, slow_time,
                            step, unscaled_time, write_snapshot)


SCHEME_FUNCTIONS = {"explicit_rk4": "_rk4_scheme", "semi_implicit": "_semi_implicit_scheme"}


def patch_attempt(monkeypatch, scheme, wrap):
    """Each run of scheme steps with wrap(attempt) in place of the attempt
    its scheme function hands evolve."""
    name = SCHEME_FUNCTIONS[scheme]
    real = getattr(flow, name)

    def patched(*args):
        attempt, next_dt = real(*args)
        return wrap(attempt), next_dt

    monkeypatch.setattr(flow, name, patched)


class MatmulOnly(np.ndarray):
    """A view of D2I that counts each D2I @ x in its list applies and
    defines no other apply, as perfbench's counting view: np.matmul of the
    wrapped operator, on either route."""

    def __matmul__(self, other):
        self.applies[0] += 1
        return np.matmul(self.plain, other)


def count_applies(monkeypatch):
    """Every workspace's D2I wrapped in a MatmulOnly view from here on; the
    returned one-item list counts the applies."""
    applies = [0]
    real = flow.workspace

    def counting_workspace(grid):
        ws = copy.copy(real(grid))
        op = ws.D2I.view(MatmulOnly)
        op.plain, op.applies = ws.D2I, applies
        ws.D2I = op
        return ws

    monkeypatch.setattr(flow, "workspace", counting_workspace)
    return applies


def circle_state(r=1.0, omega=1, n=16, variant="unscaled"):
    s = circle_support(PeriodicGrid(omega=omega, n=n), r)
    return FlowState(support=s, time=0.0, variant=variant)


def rolled_column_operator(ws, n):
    """The dense D2I built column by column: column j is the second
    derivative of e_0 rolled by j, plus e_j."""
    e0 = np.eye(n)[0]
    col = np.fft.irfft(-ws.xi**2 * np.fft.rfft(e0), n=n)
    return np.stack([np.roll(col, j) for j in range(n)], axis=1) + np.eye(n)


def reference_apply(D2I):
    """D2I @ x by np.matmul: on the plain dense matrix, or through the rfft
    operator's own np.matmul."""
    return lambda x: np.matmul(D2I, x)


def reference_velocity(h, apply, lam, w=None):
    if w is None:
        w = apply(h)
    f = apply(1.0 / w)
    return f if lam == 0.0 else f - lam * h


def reference_rk4(h, w, dt, ws, lam):
    """The RK4 attempt in its plain formulas: each stage state and h_new one
    product coef @ rows over the slopes so far and h, h last, an unused
    slope with coefficient 0."""
    apply = reference_apply(ws.D2I)
    f1 = reference_velocity(h, apply, lam, w)
    y = np.array([0.5 * dt, 1.0]) @ np.stack([f1, h])
    f2 = reference_velocity(y, apply, lam)
    y = np.array([0.5 * dt, 0.0, 1.0]) @ np.stack([f2, f1, h])
    f3 = reference_velocity(y, apply, lam)
    y = np.array([dt, 0.0, 0.0, 1.0]) @ np.stack([f3, f2, f1, h])
    f4 = reference_velocity(y, apply, lam)
    sixth = dt / 6.0
    hn = np.array([sixth, 2.0 * sixth, 2.0 * sixth, sixth, 1.0]) @ np.stack([f4, f3, f2, f1, h])
    return hn, apply(hn)


def sequential_rk4(h, w, dt, ws, lam):
    """The RK4 attempt in its sequential formulas, one elementwise operation
    at a time: the attempt's bits before its stage states and h_new became
    products."""
    apply = reference_apply(ws.D2I)
    f1 = reference_velocity(h, apply, lam, w)
    f2 = reference_velocity(h + (0.5 * dt) * f1, apply, lam)
    f3 = reference_velocity(h + (0.5 * dt) * f2, apply, lam)
    f4 = reference_velocity(h + dt * f3, apply, lam)
    hn = h + (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    return hn, apply(hn)


def reference_semi_implicit(h, w, dt, ws, lam, stab_coeff):
    """The semi-implicit attempt in its plain formulas, with three FFTs."""
    apply = reference_apply(ws.D2I)
    kmax = 1.0 / w.min()
    c = stab_coeff * kmax * kmax
    f = reference_velocity(h, apply, lam, w)
    hhat = np.fft.rfft(h)
    denom = 1.0 + dt * c * ws.xi4
    hn = np.fft.irfft(hhat + dt * np.fft.rfft(f) / denom, n=len(h))
    return hn, apply(hn)


def reference_fourier_semi_implicit(ws, lam, stab_coeff):
    """The Fourier body's attempt in its plain formulas, with np.fft: it
    carries the spectrum of each state it returns, keyed by the state's
    bytes, and takes rfft(h) of any other h.  A step that returns (h, w)
    keeps the spectrum of h."""
    spectra = {}
    sym = 1.0 - ws.xi**2

    def attempt(h, w, dt):
        hhat = spectra.get((h.tobytes(), w.tobytes()))
        if hhat is None:
            hhat = np.fft.rfft(h)
        kmax = 1.0 / w.min()
        c = stab_coeff * kmax * kmax
        f = sym * np.fft.rfft(1.0 / w)
        if lam != 0.0:
            f = f - lam * hhat
        hhat_new = hhat + dt * f / (1.0 + dt * c * ws.xi4)
        hn = np.fft.irfft(hhat_new, n=len(h))
        wn = np.fft.irfft(sym * hhat_new, n=len(h))
        if hn.tobytes() == h.tobytes() and wn.tobytes() == w.tobytes():
            hhat_new = hhat
        spectra[hn.tobytes(), wn.tobytes()] = hhat_new
        return hn, wn

    return attempt


def assert_pairs(attempt, h, w, dt, reference):
    """A run's attempt writes reference(h, w, dt)'s bits into one of its
    (h, D2I @ h) pairs, as plain ndarrays that share no memory with their
    inputs, and a halved retry from the same h rewrites that pair; a step
    from that pair writes the other one and leaves it as it was, and a step
    from the other pair writes the first again."""
    first = attempt(h, w, float(w.min()), dt)
    for d in (dt, 0.5 * dt):
        got = attempt(h, w, float(w.min()), d)
        assert got[0] is first[0] and got[1] is first[1]
        assert not np.shares_memory(*got)
        for a, b in zip(got, reference(h, w, d)):
            assert type(a) is np.ndarray and np.array_equal(a, b)
            assert not any(np.shares_memory(a, x) for x in (h, w))
    hn, wn = got
    kept = hn.copy(), wn.copy()
    want = reference(hn, wn, dt)
    second = attempt(hn, wn, float(wn.min()), dt)
    for a in second:
        assert type(a) is np.ndarray
        assert not any(np.shares_memory(a, b) for b in (hn, wn, h, w))
    for a, b in zip(second, want):
        assert np.array_equal(a, b)
    assert np.array_equal(hn, kept[0]) and np.array_equal(wn, kept[1])
    third = attempt(second[0], second[1], float(second[1].min()), dt)
    assert third[0] is hn and third[1] is wn


def assert_same_columns(a, b):
    """Two records of columns hold the same bytes in every column."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert (x is None) == (y is None), f.name
        if x is not None:
            assert x.dtype == y.dtype and x.shape == y.shape, f.name
            assert x.tobytes() == y.tobytes(), f.name


def count_record_rows(monkeypatch):
    """A list that gets the number of rows of each compute_record call that
    flow makes from here on."""
    rows = []

    def counted(s, *args):
        rows.append(len(s.values))
        return compute_record(s, *args)

    monkeypatch.setattr(flow, "compute_record", counted)
    return rows


def assert_row(columns, i, rec):
    """Row i of a record of columns holds the bytes of the one-state record
    rec in every column; a column rec leaves None is None."""
    for f in dataclasses.fields(rec):
        got, want = getattr(columns, f.name), getattr(rec, f.name)
        if want is None:
            assert got is None, f.name
        else:
            assert np.asarray(got[i]).tobytes() == np.asarray(want).tobytes(), f.name


class TestRhs:
    def test_circle(self):
        f = rhs(circle_state(2.0).support, "unscaled")
        assert np.max(np.abs(f.values - 0.5)) < 1e-13

    def test_translation_invariance(self):
        g = PeriodicGrid(omega=1, n=32)
        s = SupportGrid(GridFunction(g, 1.5 + 0.1 * np.cos(g.nodes)))
        f = rhs(s, "unscaled")
        assert np.max(np.abs(f.values - 1 / 1.5)) < 1e-11

    def test_two_mode_value(self):
        # k = 1/(1 - 0.6 cos 2theta); k''(0) = -15, k(0) = 2.5, so F(0) = -12.5
        # (k's modes decay like 3^-j, so n = 128 resolves it to round-off)
        g = PeriodicGrid(omega=1, n=128)
        s = SupportGrid(GridFunction(g, 1 + 0.2 * np.cos(2 * g.nodes)))
        f = rhs(s, "unscaled")
        assert f.values[0] == pytest.approx(-12.5, abs=5e-9)

    def test_rescaled_chainrule_fixed_point(self):
        for omega in (1, 2):
            st = circle_state(1.0 / (2 * omega * math.pi), omega=omega, n=16)
            f = rhs(st.support, "rescaled_chainrule")
            assert np.max(np.abs(f.values)) < 1e-12

    def test_rescaled_paper_fixed_point(self):
        f = rhs(circle_state(1.0).support, "rescaled_paper")
        assert np.max(np.abs(f.values)) < 1e-13

    def test_rescaled_chainrule_constant(self):
        f = rhs(circle_state(1.0).support, "rescaled_chainrule")
        assert np.max(np.abs(f.values - (1 - 4 * math.pi**2))) < 1e-12

    def test_variant_checked(self):
        with pytest.raises(ValueError, match="unknown variant"):
            rhs(circle_state().support, "rescaled")

    @pytest.mark.parametrize("omega,n", [(1, 8), (1, 32), (2, 48),
                                         (1, flow.DENSE_MAX_N), (1, 512), (2, 1024)])
    def test_bit_identical_to_plain_formula(self, omega, n):
        # both operator routes, every variant
        s = fourier_support(PeriodicGrid(omega=omega, n=n), 1.0,
                            [(2, 0.1, 0.0), (3, 0.0, 0.03)])
        apply = reference_apply(flow.workspace(s.grid).D2I)
        for variant in flow.VARIANTS:
            want = reference_velocity(s.values, apply, flow.variant_shift(variant, omega))
            assert np.array_equal(rhs(s, variant).values, want)


class TestVelocityKernel:
    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("variant", flow.VARIANTS)
    def test_matches_fft_route(self, n, variant):
        s = fourier_support(PeriodicGrid(omega=1, n=n), 1.0,
                            [(2, 0.1, 0.0), (3, 0.0, 0.03)])
        lam = flow.variant_shift(variant, s.omega)
        k = curvature(s)
        ktt = periodic_derivs_values(k.values, s.grid.period, (2,))[0]
        ref = ktt + k.values - lam * s.values
        D2I = flow.workspace(s.grid).D2I
        f = flow.velocity(s.values, D2I, lam, D2I @ s.values)
        assert np.max(np.abs(f - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("omega,n", [(1, 48), (2, 32), (1, flow.DENSE_MAX_N)])
    def test_operator_is_the_rolled_column(self, omega, n):
        ws = flow._Workspace(PeriodicGrid(omega=omega, n=n))
        ref = rolled_column_operator(ws, n)
        assert ws.D2I.flags["C_CONTIGUOUS"]
        assert ws.D2I.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [512, 1024])
    @pytest.mark.parametrize("omega", [1, 2])
    def test_rfft_route_matches_dense(self, omega, n):
        ws = flow._Workspace(PeriodicGrid(omega=omega, n=n))
        assert isinstance(ws.D2I, np.ndarray) and ws.D2I.shape == (n // 2 + 1,)
        dense = rolled_column_operator(ws, n)
        rng = np.random.default_rng(n + omega)
        for x in (1.0 + 0.1 * rng.standard_normal(n), rng.standard_normal((n, 8))):
            ref = dense @ x
            out = ws.D2I @ x
            assert out.shape == x.shape
            assert np.max(np.abs(out - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [512, 1000, 1024])
    def test_rfft_route_bits(self, n):
        # np.fft's transforms around the real symbol 1 - xi^2, built here from
        # rfftfreq: the bits of the route, on (n,) and (n, B) input
        g = PeriodicGrid(omega=1, n=n)
        D2I = flow.workspace(g).D2I
        assert isinstance(D2I, flow._RfftOperator)
        xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=g.period / n)
        sym = 1 - xi**2
        rng = np.random.default_rng(n)
        x = 1.0 + 0.1 * rng.standard_normal(n)
        want = np.fft.irfft(sym * np.fft.rfft(x), n)
        assert np.array_equal(D2I @ x, want)
        out = np.empty(n)
        assert D2I.dot(x, out=out) is out and np.array_equal(out, want)
        # the run's apply, which writes its spectrum into a buffer of its own
        out[:] = 0.0
        assert flow._apply_into(D2I)(x, out) is out and np.array_equal(out, want)
        x = rng.standard_normal((n, 6))
        want = np.fft.irfft(sym[:, None] * np.fft.rfft(x, axis=0), n, axis=0)
        assert np.array_equal(D2I @ x, want)
        out = np.empty((n, 6))
        assert np.array_equal(D2I.dot(x, out=out), want) and np.array_equal(out, want)

    def test_rfft_route_evolves_as_dense(self, monkeypatch):
        # the 1.3:1 rescaled ellipse at n = 1024, once on the semi-implicit
        # Fourier body and once on the dense body, forced through
        # DENSE_MAX_N, with a dense D2I injected into the workspace.  Both
        # runs see their D2I through a MatmulOnly view, so each body must
        # be picked from n, not from the operator's type
        g = PeriodicGrid(omega=1, n=1024)
        s = ellipse_support(g, 1.3, 1.0)
        st = FlowState(support=SupportGrid(GridFunction(g, s.values / integrate(s.h))),
                       variant="rescaled_chainrule")
        cfg = StepperConfig(scheme="semi_implicit", dt_init=5e-4, max_dt=2e-3)
        real_attempt = flow._semi_implicit_attempt

        def run():
            inputs = []

            def recording_attempt(h, *rest):
                inputs.append(h)
                bodies.add(rest[-1].__qualname__.partition(".")[0])
                return real_attempt(h, *rest)

            monkeypatch.setattr(flow, "_semi_implicit_attempt", recording_attempt)
            final = evolve(st, 0.02, cfg).final.support.values
            # a rejected attempt is retried from the same state array, and
            # accepted states alternate between the run's two pairs: an
            # attempt is a step when its input is not the previous input
            return final, sum(h is not prev for prev, h in zip([None] + inputs, inputs))

        bodies = set()
        count_applies(monkeypatch)
        rfft, rfft_steps = run()
        assert bodies == {"_fourier_body"}
        real = flow.workspace(g)
        dense_ws = copy.copy(real)
        dense_ws.D2I = rolled_column_operator(real, g.n)
        monkeypatch.setattr(flow, "workspace", lambda grid: dense_ws)
        count_applies(monkeypatch)
        monkeypatch.setattr(flow, "DENSE_MAX_N", g.n)
        bodies.clear()
        dense, dense_steps = run()
        assert bodies == {"_dense_body"}
        assert rfft_steps == dense_steps > 10
        assert np.max(np.abs(rfft - dense)) <= 1e-9 * np.max(np.abs(dense))

    @pytest.mark.parametrize("steps", [1, 4])
    @pytest.mark.parametrize("scheme", flow.SCHEMES)
    @pytest.mark.parametrize("variant", ["unscaled", "rescaled_chainrule"])
    def test_evolve_equals_chained_steps(self, scheme, variant, steps):
        # a dyadic max_dt below dt_init and the RK4 step bound (about 3e-4)
        # makes evolve take exactly `steps` steps of size dt; with more than
        # one, the carried-forward D2I @ h must match the fresh one of each
        # chained step's own run
        dt = 2.0**-14
        s = fourier_support(PeriodicGrid(omega=1, n=16), 1.0, [(2, 0.1, 0.0)])
        st = FlowState(support=s, variant=variant)
        cfg = StepperConfig(scheme=scheme, max_dt=dt)
        tr = evolve(st, steps * dt, cfg)
        one = st
        for _ in range(steps):
            one = step(one, dt, cfg)
        assert tr.final.time == one.time
        assert np.array_equal(tr.final.support.values, one.support.values)

    @pytest.mark.parametrize("scheme,per_step", [("explicit_rk4", 8),
                                                 ("semi_implicit", 2)])
    def test_operator_applies(self, monkeypatch, scheme, per_step):
        # a view that counts each D2I @ x, which both attempts' _apply_into
        # applies by np.matmul of the wrapped operator, so the rfft route is
        # counted as the dense one
        real_attempt = flow._semi_implicit_attempt

        def counting_attempt(*args):
            attempts[0] += 1
            return real_attempt(*args)

        applies = count_applies(monkeypatch)
        monkeypatch.setattr(flow, "_semi_implicit_attempt", counting_attempt)
        # dense and rfft routes; a dyadic step below both RK4 step bounds and
        # a dyadic cadence: exactly 8 accepted steps in each of 2 spans
        for n, dt in ((16, 2.0**-17), (512, 2.0**-32)):
            assert (flow.workspace(PeriodicGrid(omega=1, n=n)).D2I.plain.ndim == 1) \
                == (n > flow.DENSE_MAX_N)
            applies[0], attempts = 0, [0]
            cfg = StepperConfig(scheme=scheme, dt_init=dt, max_dt=dt)
            evolve(circle_state(1.0, n=n), 16 * dt, cfg, monitor_every=8 * dt)
            if scheme == "semi_implicit":
                assert attempts[0] == 16
            # plus one apply for the starting state's D2I @ h, carried across
            # spans; the semi-implicit Fourier body (n > DENSE_MAX_N) applies none
            fourier = scheme == "semi_implicit" and n > flow.DENSE_MAX_N
            assert applies[0] == (0 if fourier else per_step) * 16 + 1

    @pytest.mark.parametrize("n", [48, 1024])
    @pytest.mark.parametrize("scheme,per_step", [("explicit_rk4", 8),
                                                 ("semi_implicit", 2)])
    def test_wrapped_operator_evolves_as_plain(self, monkeypatch, n, scheme, per_step):
        # a D2I view that defines @ alone is applied through it, into the
        # run's buffers, with the plain operator's bits on both routes; a
        # dyadic step under the scheme's first dt makes exactly 4 steps.  The
        # semi-implicit body is chosen from n, not from the operator's type,
        # so at n = 1024 both runs take the Fourier body, which applies none
        g = PeriodicGrid(omega=1, n=n)
        s = ellipse_support(g, 1.3, 1.0)
        st = FlowState(support=SupportGrid(GridFunction(g, s.values / integrate(s.h))),
                       variant="rescaled_chainrule")
        dt = 2.0**-12
        if scheme == "explicit_rk4":
            ws = flow.workspace(g)
            margin = float((ws.D2I @ st.support.values).min())
            bound = 0.9 * flow.RK4_REAL_AXIS / ws.ximax4 * margin**2
            dt = 2.0 ** (math.floor(math.log2(bound)) - 1)
        cfg = StepperConfig(scheme=scheme, dt_init=dt, max_dt=dt)
        plain = evolve(st, 4 * dt, cfg, monitor_every=2 * dt)
        applies = count_applies(monkeypatch)
        wrapped = evolve(st, 4 * dt, cfg, monitor_every=2 * dt)
        fourier = scheme == "semi_implicit" and n > flow.DENSE_MAX_N
        assert applies[0] == (0 if fourier else per_step) * 4 + 1
        assert np.array_equal(wrapped.H, plain.H)
        for f in dataclasses.fields(plain.columns):
            assert np.array_equal(getattr(wrapped.columns, f.name),
                                  getattr(plain.columns, f.name)), f.name


class TestAttempts:
    @pytest.mark.parametrize("n", [8, 32, 48, flow.DENSE_MAX_N,
                                   flow.DENSE_MAX_N + 2, 512])
    @pytest.mark.parametrize("omega", [1, 2])
    @pytest.mark.parametrize("variant", flow.VARIANTS)
    def test_bit_identical_to_plain_formulas(self, variant, omega, n):
        # lam = 0, 1 and 4 omega^2 pi^2; n = 8 to DENSE_MAX_N on the dense
        # route, both ends of it included, and from DENSE_MAX_N + 2 on the
        # rfft route, where the semi-implicit attempt is the Fourier body
        g = PeriodicGrid(omega=omega, n=n)
        s = fourier_support(g, 1.0, [(2, 0.1, 0.0), (3, 0.0, 0.03)])
        ws = flow.workspace(g)
        assert (type(ws.D2I) is np.ndarray) == (n <= flow.DENSE_MAX_N)
        lam = flow.variant_shift(variant, omega)
        h = s.values
        w = reference_apply(ws.D2I)(h)
        margin = float(w.min())
        dt = 0.9 * flow.RK4_REAL_AXIS / ws.ximax4 * margin**2
        assert_pairs(flow._rk4_attempt(ws.D2I, lam, n), h, w, dt,
                     lambda h, w, dt: reference_rk4(h, w, dt, ws, lam))
        cfg = StepperConfig(scheme="semi_implicit")
        for dt in (1e-4, 2e-3):
            attempt, _ = flow._semi_implicit_scheme(cfg, ws, lam, n, margin, 0.0, 1.0)
            if n > flow.DENSE_MAX_N:
                reference = reference_fourier_semi_implicit(ws, lam, 1.0)
            else:
                def reference(h, w, dt):
                    return reference_semi_implicit(h, w, dt, ws, lam, 1.0)
            assert_pairs(attempt, h, w, dt, reference)
        # the attempts leave their inputs as they were
        assert np.array_equal(h, s.values)
        assert np.array_equal(w, reference_apply(ws.D2I)(h))

    def test_fft_calls(self, monkeypatch):
        # spectral's rfft and irfft, the package's only real-input
        # transforms, wrapped by counters: at n = 48 a semi-implicit attempt
        # takes one stacked rfft and one irfft, an RK4 attempt none; at
        # n = 512 the Fourier body takes one rfft and one stacked irfft, and
        # one more rfft from an h that is not one of its run's states
        calls = []

        def counted(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        g = PeriodicGrid(omega=1, n=48)
        ws = flow.workspace(g)
        h = ellipse_support(g, 1.3, 1.0).values
        w = ws.D2I @ h
        margin = float(w.min())
        attempt, _ = flow._semi_implicit_scheme(StepperConfig(scheme="semi_implicit"),
                                                ws, 1.0, g.n, margin, 0.0, 1.0)
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(spectral, name, counted(getattr(spectral, name)))
        attempt(h, w, margin, 1e-3)
        assert calls == ["rfft", "irfft"]
        calls.clear()
        flow._rk4_attempt(ws.D2I, 1.0, g.n)(h, w, margin, 1e-6)
        assert calls == []
        g = PeriodicGrid(omega=1, n=512)
        ws = flow.workspace(g)
        h = ellipse_support(g, 1.3, 1.0).values
        w = ws.D2I @ h
        margin = float(w.min())
        calls.clear()
        attempt, _ = flow._semi_implicit_scheme(StepperConfig(scheme="semi_implicit"),
                                                ws, 1.0, g.n, margin, 0.0, 1.0)
        pair = attempt(h, w, margin, 1e-3)
        assert calls == ["rfft", "rfft", "irfft"]
        calls.clear()
        attempt(*pair, margin, 1e-3)
        assert calls == ["rfft", "irfft"]

    @pytest.mark.parametrize("lam", [0.0, 4 * math.pi**2])
    def test_steady_attempts_allocate_nothing(self, lam):
        # after two warm attempts, three more (each fed the last pair) peak
        # under tracemalloc (numpy 2.4, Python 3.11) at, on the dense route
        # (n = 48), 112 bytes for RK4 and 544 for the semi-implicit attempt,
        # whose pocketfft calls and complex-by-real divide take small
        # buffers; on the rfft route (n = 512), whose applies write their
        # spectrum into the run's buffer, 464 for RK4 and 480 for the
        # semi-implicit Fourier body, whose factors are all complex.  A
        # real denominator, cast to complex on every divide, peaks at 4,256
        # (through a 4,112-byte buffer), and an rfft apply that allocates
        # its spectrum at 4,672 for either attempt
        for n, rk4_bound, si_bound in ((48, 256, 768), (512, 1024, 4480)):
            g = PeriodicGrid(omega=1, n=n)
            ws = flow.workspace(g)
            h = ellipse_support(g, 1.3, 1.0).values
            w = ws.D2I @ h
            margin = float(w.min())
            si, _ = flow._semi_implicit_scheme(StepperConfig(scheme="semi_implicit"),
                                               ws, lam, n, margin, 0.0, 1.0)
            for attempt, dt, bound in ((flow._rk4_attempt(ws.D2I, lam, n), 1e-6, rk4_bound),
                                       (si, 1e-4, si_bound)):
                pair = (h, w)
                for _ in range(2):
                    pair = attempt(*pair, margin, dt)
                tracemalloc.start()
                try:
                    for _ in range(3):
                        pair = attempt(*pair, margin, dt)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= bound, (n, attempt, peak)

    def test_rk4_round_off_on_the_circle_law(self):
        # circles of radius r0 = 1 + j/8, j < 8, at omega = 1 and 2 on
        # criterion-01's grid (n = 32) under default RK4 to t = 0.2, where
        # the temporal error is far below round-off: the mean over the 16
        # runs of max|h - sqrt(r0^2 + 2t)| / r, in units of eps, read 5.2-5.9
        # before the stage states became products and 5.7-6.0 after, under
        # OpenBLAS's SkylakeX, Haswell, Sandybridge and Prescott kernels.
        # With h first in the products (h added to each increment in turn)
        # it read 10.4-18.0
        errs = []
        for omega in (1, 2):
            for j in range(8):
                r0 = 1.0 + j / 8
                tr = evolve(circle_state(r0, omega=omega, n=32), 0.2, StepperConfig())
                r = math.sqrt(r0 * r0 + 0.4)
                errs.append(np.max(np.abs(tr.final.support.values - r)) / r)
        assert np.mean(errs) / np.finfo(float).eps <= 8.0

    @pytest.mark.parametrize("variant", flow.VARIANTS)
    def test_rk4_agrees_with_sequential_formulas(self, variant):
        # 200 RK4 attempts on the 1.3:1 ellipse at n = 48, chained from the
        # attempt's own states and, separately, from sequential_rk4's: the
        # largest difference over the run, relative to max|h|, read at most
        # 3.2 eps under OpenBLAS's SkylakeX, Haswell and Sandybridge kernels
        # (0 on several), and 6.4-16 eps with h first in the products
        g = PeriodicGrid(omega=1, n=48)
        ws = flow.workspace(g)
        lam = flow.variant_shift(variant, 1)
        h = ellipse_support(g, 1.3, 1.0).values
        w = ws.D2I @ h
        dt = 0.9 * flow.RK4_REAL_AXIS / ws.ximax4 * float(w.min())**2
        attempt = flow._rk4_attempt(ws.D2I, lam, g.n)
        got, want = (h, w), (h, w)
        worst = 0.0
        for _ in range(200):
            got = attempt(*got, float(got[1].min()), dt)
            want = sequential_rk4(*want, dt, ws, lam)
            worst = max(worst, np.max(np.abs(got[0] - want[0])) / np.max(np.abs(want[0])))
        assert worst <= 5.0 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [8, 32, 48, flow.DENSE_MAX_N])
    def test_dense_apply_is_matmul(self, n):
        ws = flow._Workspace(PeriodicGrid(omega=1, n=n))
        assert type(ws.D2I) is np.ndarray
        rng = np.random.default_rng(n)
        for x in (rng.standard_normal(n), rng.standard_normal((n, 8))):
            # the BLAS product _apply_into writes, with the bits of D2I @ x
            buf = np.empty(x.shape)
            assert ws.D2I.dot(x, out=buf) is buf
            assert np.array_equal(buf, ws.D2I @ x)

    @pytest.mark.parametrize("n", [48, 512])
    def test_operator_defines_only_matmul(self, n):
        # both routes, dense and rfft: np.matmul(D2I, x) gives the bits of
        # D2I.dot(x) as a plain ndarray.  The dense route is the plain
        # matrix; on the rfft route no other arithmetic is defined
        D2I = flow._Workspace(PeriodicGrid(omega=1, n=n)).D2I
        assert (type(D2I) is np.ndarray) == (n <= flow.DENSE_MAX_N)
        rng = np.random.default_rng(n)
        for x in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            out = np.matmul(D2I, x)
            assert type(out) is np.ndarray
            assert np.array_equal(out, D2I.dot(x))
        if n > flow.DENSE_MAX_N:
            with pytest.raises(TypeError):
                D2I + 1.0


class TestWorkspace:
    def test_cache_is_bounded(self):
        g = PeriodicGrid(omega=1, n=16)
        first = flow.workspace(g)
        assert flow.workspace(PeriodicGrid(omega=1, n=16)) is first
        # eight other grids push the first out of the cache; rebuilt, its
        # operator is bit-identical
        for n in range(18, 34, 2):
            flow.workspace(PeriodicGrid(omega=1, n=n))
        again = flow.workspace(g)
        assert again is not first
        assert np.array_equal(again.D2I, first.D2I)

    @pytest.mark.parametrize("n", [48, 512])
    def test_cached_operator_is_read_only(self, n):
        # every run on a grid shares its cached D2I, dense or rfft, so no
        # caller may write into it
        D2I = flow.workspace(PeriodicGrid(omega=1, n=n)).D2I
        before = D2I.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            D2I[0] = 0.0
        assert D2I.tobytes() == before

    def test_large_grid_memory_is_linear(self):
        # the dense operator at n = 32768 would be 8.6 GB
        ws = flow.workspace(PeriodicGrid(omega=1, n=32768))
        assert sum(v.nbytes for v in vars(ws).values()
                   if isinstance(v, np.ndarray)) < 1e6


class TestStep:
    @pytest.mark.parametrize("scheme", flow.SCHEMES)
    @pytest.mark.parametrize("dt", [2.0**-16, 0.05])
    def test_step_is_evolve(self, monkeypatch, scheme, dt):
        # step is the final state of evolve to state.time + dt, bit for bit:
        # one attempt at dt = 2^-16, below both schemes' first dt, and
        # several guarded steps at 0.05, far above RK4's bound (about 1e-4)
        g = PeriodicGrid(omega=1, n=16)
        st = FlowState(support=SupportGrid(GridFunction(g, 1 + 0.2 * np.cos(2 * g.nodes))),
                       time=0.125)
        cfg = StepperConfig(scheme=scheme)
        dts = []

        def recording(attempt):
            def recording_attempt(h, w, margin, dt):
                dts.append(dt)
                return attempt(h, w, margin, dt)
            return recording_attempt

        patch_attempt(monkeypatch, scheme, recording)
        out = step(st, dt, cfg)
        assert (len(dts) == 1) == (dt < 1e-4) and dts[0] <= dt
        monkeypatch.undo()
        want = evolve(st, st.time + dt, cfg).final
        assert out.time == want.time == st.time + dt
        assert out.variant == want.variant
        assert np.array_equal(out.support.values, want.support.values)

    def test_rk4_scalar_ode(self):
        # on constant data the flow is h' = 1/h with solution sqrt(1 + 2t)
        st = circle_state(1.0, n=16)
        out = step(st, 1e-3, StepperConfig())
        assert np.max(np.abs(out.support.values - math.sqrt(1 + 2e-3))) < 1e-14

    def test_time_advances_exactly(self):
        st = circle_state(1.0)
        out = step(st, 0.25e-3, StepperConfig())
        assert out.time == 0.25e-3

    def test_invalid_state_rejected_before_stepping(self):
        g = PeriodicGrid(omega=1, n=32)
        with pytest.raises(NotLocallyConvexError):
            SupportGrid(GridFunction(g, 1 + 0.8 * np.cos(2 * g.nodes)))

    def test_guard_rejection(self):
        # the real RK4 attempt far beyond the stability bound fails the guard
        g = PeriodicGrid(omega=1, n=16)
        h = 1 + 0.2 * np.cos(2 * g.nodes)
        ws = flow.workspace(g)
        w = ws.D2I @ h
        margin = float(w.min())
        _, wn = flow._rk4_attempt(ws.D2I, 0.0, g.n)(h, w, margin, 0.05)
        assert not flow._guard_holds(float(wn.min()), margin,
                                     StepperConfig().guard_ratio)

    def test_semi_implicit_step(self):
        st = circle_state(1.0, n=16)
        cfg = StepperConfig(scheme="semi_implicit")
        out = step(st, 1e-4, cfg)
        # first-order accurate; constant data advances like forward Euler
        assert np.max(np.abs(out.support.values - (1 + 1e-4))) < 1e-8


class TestEvolve:
    def test_circle_law_quick(self):
        tr = evolve(circle_state(1.0, n=16), 0.3, StepperConfig())
        assert np.max(np.abs(tr.final.support.values - math.sqrt(1.6))) < 1e-10

    def test_records_at_cadence(self):
        tr = evolve(circle_state(1.0, n=16), 0.1, StepperConfig(),
                    monitor_every=0.02)
        assert np.allclose(tr.times, np.arange(6) * 0.02)
        assert len(tr.times) == 6

    def test_snap_times(self):
        snap = [0.013, 0.037]
        tr = evolve(circle_state(1.0, n=16), 0.05, StepperConfig(), snap_times=snap)
        assert np.allclose(sorted(tr.times), [0.0, 0.013, 0.037, 0.05])

    def test_h2_norm_linear_growth(self):
        # ||h||_2^2(t) = ||h||_2^2(0) + 4 t omega pi, exact for the flow
        g = PeriodicGrid(omega=1, n=32)
        s = SupportGrid(GridFunction(g, 1 + 0.2 * np.cos(2 * g.nodes)))
        tr = evolve(FlowState(support=s), 0.5, StepperConfig())
        h0_start = integrate(GridFunction(g, s.values**2))
        hT = tr.final.support.values
        h0_end = integrate(GridFunction(g, hT**2))
        expect = h0_start + 4 * math.pi * 0.5
        assert abs(h0_end - expect) <= 1e-6 * expect

    def test_h2_norm_identity_omega2(self):
        g = PeriodicGrid(omega=2, n=32)
        s = SupportGrid(GridFunction(g, 1 + 0.1 * np.cos(g.nodes)))
        tr = evolve(FlowState(support=s), 0.1, StepperConfig(), monitor_every=0.01)
        h0 = tr.record_series("h_seminorms")[:, 0]
        slope = np.polyfit(tr.record_series("t"), h0, 1)[0]
        assert slope == pytest.approx(8 * math.pi, rel=1e-10)

    def test_guarded_positivity(self):
        s = fourier_support(PeriodicGrid(omega=1, n=32), 1.0,
                            [(2, 0.15, 0.0), (3, 0.0, 0.05)])
        tr = evolve(FlowState(support=s), 0.05, StepperConfig(), monitor_every=0.01)
        assert np.all(tr.record_series("margin") > 0)

    @pytest.mark.parametrize("scheme", flow.SCHEMES)
    def test_breakdown_reports_last_state(self, monkeypatch, scheme):
        # every attempt returns a state with negative h_thth + h, so the real
        # guard fails through all 40 halvings of the first step
        calls = []

        def nonconvex(h, w, margin, dt):
            calls.append(dt)
            return h, -w

        patch_attempt(monkeypatch, scheme, lambda attempt: nonconvex)
        with pytest.raises(FlowBreakdownError) as exc:
            evolve(circle_state(1.0, n=16), 0.1, StepperConfig(scheme=scheme))
        assert len(calls) == flow.MAX_HALVINGS + 1
        assert calls[-1] == calls[0] * 0.5**flow.MAX_HALVINGS
        assert exc.value.last_state is not None
        assert exc.value.last_state.time == 0.0
        assert np.array_equal(exc.value.last_state.support.values, np.ones(16))

    def test_semi_implicit_keeps_a_halved_dt(self, monkeypatch):
        # the first attempt fails the guard, so the first step is taken at
        # half of dt_init; the step after it keeps the halved dt, and only
        # the clean step after that grows dt 1.2x
        dts = []

        def first_fails(attempt):
            def wrapped(h, w, margin, dt):
                dts.append(dt)
                hn, wn = attempt(h, w, margin, dt)
                return (hn, -wn) if len(dts) == 1 else (hn, wn)
            return wrapped

        patch_attempt(monkeypatch, "semi_implicit", first_fails)
        cfg = StepperConfig(scheme="semi_implicit", dt_init=2.0**-10)
        evolve(circle_state(1.0, n=16), 2.0**-7, cfg)
        assert dts[:4] == [2.0**-10, 2.0**-11, 2.0**-11, 1.2 * 2.0**-11]

    @pytest.mark.parametrize("scheme", flow.SCHEMES)
    @pytest.mark.parametrize("where", [0, 7, -1])
    def test_guard_reads_a_nan_as_the_margin(self, monkeypatch, scheme, where):
        # one NaN anywhere in D2I @ h_new is the margin the guard reads, so
        # the attempt is halved, even where the other values pass the guard
        dts = []

        def first_has_nan(attempt):
            def wrapped(h, w, margin, dt):
                dts.append(dt)
                hn, wn = attempt(h, w, margin, dt)
                if len(dts) == 1:
                    wn = wn.copy()
                    wn[where] = math.nan
                return hn, wn
            return wrapped

        patch_attempt(monkeypatch, scheme, first_has_nan)
        cfg = StepperConfig(scheme=scheme, dt_init=2.0**-10)
        evolve(circle_state(1.0, n=16), 2.0**-7, cfg)
        assert dts[1] == 0.5 * dts[0]

    @pytest.mark.parametrize("scheme", flow.SCHEMES)
    def test_results_outlive_later_runs(self, monkeypatch, scheme):
        # nothing a caller keeps aliases a run's work arrays: a trajectory's
        # records and final state, a stepped state and a breakdown's last
        # state keep their values through later runs on the same grid.  A
        # dyadic max_dt below the RK4 step bound fixes every dt
        dt = 2.0**-14
        g = PeriodicGrid(omega=1, n=16)
        st = FlowState(support=fourier_support(g, 1.0, [(2, 0.1, 0.0)]))
        cfg = StepperConfig(scheme=scheme, max_dt=dt)

        def broken_run(state):
            # the real guard passes three attempts, then fails every halving
            passes = iter([True] * 3)
            real_guard = flow._guard_holds
            monkeypatch.setattr(flow, "_guard_holds",
                                lambda *a: next(passes, False) and real_guard(*a))
            with pytest.raises(FlowBreakdownError) as exc:
                evolve(state, 8 * dt, cfg)
            monkeypatch.setattr(flow, "_guard_holds", real_guard)
            return exc.value.last_state

        tr = evolve(st, 4 * dt, cfg, monitor_every=dt)
        final = tr.final
        stepped = step(st, dt, cfg)
        last = broken_run(st)
        assert last.time == 3 * dt
        assert np.array_equal(last.support.values, tr.H[3])
        kept = [tr.H, final.support.values, stepped.support.values,
                last.support.values]
        want = [a.copy() for a in kept]
        other = FlowState(support=fourier_support(g, 1.0, [(3, 0.02, 0.01)]))
        for state in (st, other):
            evolve(state, 4 * dt, cfg, monitor_every=dt)
            step(state, dt, cfg)
            broken_run(state)
        for a, b in zip(kept, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("scheme", flow.SCHEMES)
    def test_breakdown_without_margin(self, monkeypatch, scheme):
        # min(h_thth + h) = -1.4 < 0: no step can keep a share of the margin,
        # so the flow breaks down before any attempt and before any record
        g = PeriodicGrid(omega=1, n=16)
        s = SupportGrid(GridFunction(g, 1 + 0.8 * np.cos(2 * g.nodes)),
                        validate=False)
        calls = []
        patch_attempt(monkeypatch, scheme, lambda attempt: lambda *a: calls.append(a))
        with pytest.raises(FlowBreakdownError) as exc:
            evolve(FlowState(support=s), 0.1, StepperConfig(scheme=scheme))
        assert calls == []
        assert exc.value.last_state.time == 0.0
        assert np.array_equal(exc.value.last_state.support.values, s.values)

    def test_origin_may_leave_the_curve(self):
        # mode 1 is a translation, which the flow carries along unchanged;
        # h(pi) = 0.01 at the start and turns negative as the curve grows,
        # while h_thth + h stays positive
        g = PeriodicGrid(omega=1, n=48)
        moved = fourier_support(g, 1.0, [(1, 1.29, 0.0), (2, 0.3, 0.0)])
        centred = fourier_support(g, 1.0, [(2, 0.3, 0.0)])
        cfg = StepperConfig()
        tr = evolve(FlowState(support=moved), 0.002, cfg, monitor_every=1e-3)
        ref = evolve(FlowState(support=centred), 0.002, cfg, monitor_every=1e-3)
        assert np.min(tr.final.support.values) < 0.0
        assert len(tr.times) == len(ref.times) == 3
        for name in ("entropy", "f_l2sq", "kmin", "kmax"):
            a, b = tr.record_series(name), ref.record_series(name)
            assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-10, name

    def test_rk4_step_cap(self, monkeypatch):
        # at n = 32768 RK4's starting bound is 3.4e-17, ~3e14 steps to 0.01:
        # refused before the run's attempt is made
        calls = []
        monkeypatch.setattr(flow, "_rk4_attempt", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=r"n=32768 .*dt=3.37e-17.*2.97e\+14 steps"):
            evolve(circle_state(1.0, n=32768), 0.01, StepperConfig())
        assert calls == []

    @pytest.mark.parametrize("dt_init", [1e-3, 1e-13])
    def test_semi_implicit_step_cap(self, monkeypatch, dt_init):
        # max_dt = 1e-12 bounds every semi-implicit dt: 1e12 steps to t = 1,
        # refused before any attempt, whatever dt_init
        calls = []
        monkeypatch.setattr(flow, "_semi_implicit_attempt", lambda *a: calls.append(a))
        cfg = StepperConfig(scheme="semi_implicit", dt_init=dt_init, max_dt=1e-12)
        with pytest.raises(ValueError, match=r"^semi_implicit on n=32 .*max_dt=1e-12, "
                                             r"about 1e\+12 steps .*cap of 1e\+09 steps$"):
            evolve(circle_state(1.0, n=32), 1.0, cfg)
        assert calls == []

    def test_semi_implicit_step_cap_spares_runs_at_the_cap(self, monkeypatch):
        # max_dt = 1e-9 to t = 1 is the cap itself, and a tiny dt_init with
        # no max_dt is not refused: both reach their first attempt
        class Attempted(Exception):
            pass

        def attempt(*args):
            raise Attempted

        monkeypatch.setattr(flow, "_semi_implicit_attempt", attempt)
        for cfg in (StepperConfig(scheme="semi_implicit", max_dt=1e-9),
                    StepperConfig(scheme="semi_implicit", dt_init=1e-15)):
            with pytest.raises(Attempted):
                evolve(circle_state(1.0, n=32), 1.0, cfg)

    def test_rk4_step_cap_spares_long_runs(self, monkeypatch):
        # criterion-04's Fourier run (~2e5 steps, 2.6e6 at its starting dt)
        # and criterion-01's circles reach their first attempt
        class Attempted(Exception):
            pass

        def attempt(*args):
            raise Attempted

        patch_attempt(monkeypatch, "explicit_rk4", lambda real: attempt)
        fourier = fourier_support(PeriodicGrid(omega=1, n=64), 1.0,
                                  [(2, 0.15, 0.0), (3, 0.0, 0.05)])
        runs = [(FlowState(support=fourier), 0.5),
                (circle_state(1.0, omega=1, n=32), 1.5),
                (circle_state(1.0, omega=2, n=32), 4.0)]
        for st, t_end in runs:
            with pytest.raises(Attempted):
                evolve(st, t_end, StepperConfig())

    def test_t_end_must_advance(self):
        with pytest.raises(ValueError):
            evolve(circle_state(1.0), 0.0, StepperConfig())

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    @pytest.mark.parametrize("scheme", flow.SCHEMES)
    def test_t_end_must_be_finite(self, monkeypatch, scheme, t_end):
        # a NaN or infinite t_end is refused before any attempt of either
        # scheme
        calls = []
        for name in flow.SCHEMES:
            patch_attempt(monkeypatch, name, lambda attempt: lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="t_end must be a finite time "
                                             "after the state time"):
            evolve(circle_state(1.0), t_end, StepperConfig(scheme=scheme))
        assert calls == []

    @pytest.mark.parametrize("kw", [
        dict(monitor_every=math.nan), dict(monitor_every=-0.01),
        dict(monitor_every=0.0), dict(monitor_every=0), dict(monitor_every=math.inf),
        dict(monitor_every=-math.inf), dict(snap_times=[0.005, math.nan]),
        dict(snap_times=np.array([0.005, -math.inf])), dict(snap_times=[math.inf]),
    ], ids=lambda kw: repr(kw))
    @pytest.mark.parametrize("scheme", flow.SCHEMES)
    def test_record_arguments_checked(self, monkeypatch, scheme, kw):
        # a cadence that is not a finite number > 0, or a snap time that is
        # not finite, is refused with one line before any attempt
        calls = []
        patch_attempt(monkeypatch, scheme, lambda attempt: lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="^(monitor_every must be None or a finite "
                                             "number > 0|snap times must be finite)"
                           ) as exc:
            evolve(circle_state(1.0), 0.01, StepperConfig(scheme=scheme), **kw)
        assert calls == [] and "\n" not in str(exc.value)

    @pytest.mark.parametrize("scheme", flow.SCHEMES)
    def test_snap_times_outside_the_run_dropped(self, scheme):
        tr = evolve(circle_state(1.0, n=16), 0.05, StepperConfig(scheme=scheme),
                    snap_times=[-1.0, 0.0, 0.02, 0.05, 0.06, 1e300])
        assert tr.times.tolist() == [0.0, 0.02, 0.05]

    def test_record_cap(self):
        # twice the cap, by cadence and by snap times
        every = 1.0 / (2 * flow.MAX_RECORDS)
        with pytest.raises(ValueError, match="cap"):
            evolve(circle_state(1.0), 1.0, StepperConfig(), monitor_every=every)
        with pytest.raises(ValueError, match="cap"):
            evolve(circle_state(1.0), 1.0, StepperConfig(),
                   snap_times=np.linspace(0.0, 1.0, flow.MAX_RECORDS + 1))
        # 2,002 states: 537 MB at n = 32768, above the byte cap, and 17 MB at
        # n = 1024, under it
        with pytest.raises(ValueError, match="bytes"):
            evolve(circle_state(1.0, n=32768), 1.0, StepperConfig(),
                   monitor_every=1.0 / 2000)
        flow.check_record_count(1024, 0.0, 1.0, 1.0 / 2000)

    def test_records_in_several_blocks(self):
        # n = 1024 takes 4 rows per compute_record call, so 11 records are
        # three blocks; each equals the one-state record of its state
        g = PeriodicGrid(omega=1, n=1024)
        s = ellipse_support(g, 1.3, 1.0)
        st = FlowState(support=SupportGrid(GridFunction(g, s.values / integrate(s.h))),
                       variant="rescaled_chainrule")
        cfg = StepperConfig(scheme="semi_implicit", dt_init=5e-4, max_dt=2e-3)
        tr = evolve(st, 0.01, cfg, monitor_every=1e-3)
        assert len(tr.times) == 11 > flow.RECORD_BLOCK // g.n
        dts = tr.record_series("dt_used")
        for i in range(len(tr.times)):
            state = tr.state(i)
            assert_row(tr.columns, i, compute_record(state.support, state.time,
                                                     dts[i].item()))
        assert np.array_equal(tr.final.support.values, tr.H[-1])


    def test_fixed_point_steps_are_taken_once(self, monkeypatch):
        # criterion-09's rescaled ellipse at n = 384 (the semi-implicit
        # Fourier body) lands on an exact fixed point of its step near
        # t = 0.36.  From there a step of a dt_try that already returned the
        # state takes no attempt: 185 attempts in all, where every step took
        # one (506).  With the reuse switched off, the run gives the same
        # bits (its states, every record column and the monitor report),
        # since a step that returns its state keeps the carried spectrum
        g = PeriodicGrid(omega=1, n=384)
        s = ellipse_support(g, 1.3, 1.0)
        st = FlowState(support=SupportGrid(GridFunction(g, s.values / integrate(s.h))),
                       variant="rescaled_chainrule")
        cfg = StepperConfig(scheme="semi_implicit", dt_init=5e-4, max_dt=2e-3)
        real = flow._semi_implicit_attempt
        attempts = [0]

        def counted(*args):
            attempts[0] += 1
            return real(*args)

        monkeypatch.setattr(flow, "_semi_implicit_attempt", counted)
        tr = evolve(st, 1.0, cfg, monitor_every=4e-3)
        assert attempts[0] < 300
        monkeypatch.setattr(flow, "_step_is_still", lambda *a: False)
        attempts[0] = 0
        plain = evolve(st, 1.0, cfg, monitor_every=4e-3)
        assert attempts[0] > 450
        assert tr.H.tobytes() == plain.H.tobytes()
        # the last records repeat their predecessors' states
        assert tr.H[-1].tobytes() == tr.H[-2].tobytes()
        assert_same_columns(tr.columns, plain.columns)
        assert run_monitors(tr).to_dict() == run_monitors(plain).to_dict()

    def test_rescaled_run_ends_on_an_exact_circle(self):
        # criterion-09's datum and run at n = 1024, on the semi-implicit
        # Fourier body: h is exactly constant from t = 0.164 and reaches the
        # exact fixed point of its step at t = 0.36, so the final state is
        # a constant to the last bit, at round-off from 1/(2 pi), and
        # M12-convexity passes
        g = PeriodicGrid(omega=1, n=1024)
        s = ellipse_support(g, 1.3, 1.0)
        st = FlowState(support=SupportGrid(GridFunction(g, s.values / integrate(s.h))),
                       variant="rescaled_chainrule")
        cfg = StepperConfig(scheme="semi_implicit", dt_init=5e-4, max_dt=2e-3)
        tr = evolve(st, 3.2, cfg, monitor_every=4e-3)
        h = tr.final.support.values
        assert np.ptp(h) == 0.0
        assert abs(h[0] - 1 / (2 * math.pi)) <= 1e-15
        assert tr.H[90:].tobytes() == np.broadcast_to(h, tr.H[90:].shape).tobytes()
        assert run_monitors(tr)["M12-convexity"].status == "pass"

    def test_record_columns_of_repeated_rows(self, monkeypatch):
        # n = 512 takes 8 rows per compute_record call.  Rows equal to their
        # predecessor byte for byte sit inside a block, between fresh rows,
        # across a block boundary and at the end; only the other rows are
        # computed, among them a row equal to the row two back and a row
        # that differs from its predecessor by the sign of a zero only, and
        # every column equals the one-state record of each row, bit for bit
        g = PeriodicGrid(omega=1, n=512)
        states = [ellipse_support(g, 1.3 + 0.05 * j, 1.0).values for j in range(5)]
        # the ellipse translated so that h is 0.0 at node k, then -0.0 there
        k = g.n // 3
        zero = states[0] - states[0][k] * np.cos(g.nodes - g.nodes[k])
        assert zero[k] == 0.0 and not math.copysign(1.0, zero[k]) < 0
        signed = zero.copy()
        signed[k] = -0.0
        states += [zero, signed]
        pick = [0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 1, 2, 2, 2, 2, 2, 0, 0, 1, 0,
                5, 6, 6]
        H = np.array([states[j] for j in pick])
        assert H[22].tobytes() == H[20].tobytes() != H[21].tobytes()
        assert np.array_equal(H[24], H[23]) and H[24].tobytes() != H[23].tobytes()
        repeats = [i for i in range(1, len(pick)) if pick[i] == pick[i - 1]]
        t = np.arange(len(H)) * 1e-3
        dt = np.full(len(H), 1e-3)
        rows = count_record_rows(monkeypatch)
        cols = flow._record_columns(g, H, t, dt)
        assert sum(rows) == len(H) - len(repeats) < len(H)
        for i in range(len(H)):
            assert_row(cols, i, compute_record(
                SupportGrid(GridFunction(g, H[i]), validate=False), t[i], dt[i]))

    def test_rows_repeated_under_moving_steps_reuse_their_records(self, monkeypatch):
        # a normalized omega = 3 datum at n = 576 (the semi-implicit Fourier
        # body): from t = 0.037 each step returns h byte for byte but moves
        # w, and the carried spectrum, in its last bits, so no step is
        # still, yet 716 of its 801 rows equal their predecessor byte for
        # byte.  Their records are reused: at most 100 rows are computed,
        # and every column holds the one-state record of its row
        g = PeriodicGrid(omega=3, n=576)
        s = fourier_support(g, 1.0, [(6, 0.05, 0.0), (9, 0.0, 0.02)])
        st = FlowState(support=SupportGrid(GridFunction(g, s.values / integrate(s.h))),
                       variant="rescaled_chainrule")
        cfg = StepperConfig(scheme="semi_implicit", dt_init=5e-4, max_dt=2e-3)
        rows = count_record_rows(monkeypatch)
        tr = evolve(st, 3.2 / 9, cfg, monitor_every=4e-3 / 9)
        assert len(tr.times) == 801 and sum(rows) <= 100
        dts = tr.record_series("dt_used")
        for i in range(len(tr.times)):
            state = tr.state(i)
            assert_row(tr.columns, i, compute_record(state.support, state.time,
                                                     dts[i].item()))


class TestParabolicScaling:
    # the flow commutes with h -> lam h, t -> lam^2 t.  A power-of-two lam
    # scales every product exactly, so a run of the scaled datum, with t_end,
    # monitor_every, dt_init and max_dt scaled by lam^2, gives lam H and
    # lam^2 times bit for bit.  Each max_dt binds on part of its run; a dt
    # rule with a constant that does not scale breaks the bits
    @pytest.mark.parametrize("lam", [2.0, 0.5, 8.0])
    @pytest.mark.parametrize("scheme,n,t_end,max_dt", [
        ("explicit_rk4", 32, 0.01, 1.77e-5),
        ("explicit_rk4", 48, 0.004, 3.06e-6),
        ("explicit_rk4", 512, 1e-7, 1.7886e-10),
        ("semi_implicit", 48, 0.01, 5e-4),
        ("semi_implicit", 512, 0.01, 5e-4),
    ])
    def test_power_of_two_scaling(self, scheme, n, t_end, max_dt, lam):
        g = PeriodicGrid(omega=1, n=n)
        h = fourier_support(g, 1.0, [(2, 0.1, 0.0), (3, 0.0, 0.03)]).values

        def run(scale):
            s = scale * scale
            st = FlowState(support=SupportGrid(GridFunction(g, scale * h)))
            cfg = StepperConfig(scheme=scheme, dt_init=s * 1e-4, max_dt=s * max_dt)
            return evolve(st, s * t_end, cfg, monitor_every=s * t_end / 4)

        base, scaled = run(1.0), run(lam)
        assert len(base.times) == len(scaled.times) == 5
        assert np.array_equal(scaled.H, lam * base.H)
        assert np.array_equal(scaled.times, lam * lam * base.times)
        assert np.array_equal(scaled.record_series("dt_used"),
                              lam * lam * base.record_series("dt_used"))


class TestSymmetries:
    # the flow commutes with the plane's rotations, reflections and
    # translations: on h they are a shift of the nodes, theta -> -theta and
    # adding a cos theta + b sin theta, which leaves h_thth + h unchanged.
    # Each mapped run gives the mapped H at the same record times, to
    # round-off, since sums and the dt rule see the nodes in another order.
    # dt_used is not compared: under RK4 it moves by ~1e-17 with the margin
    @pytest.mark.parametrize("symmetry", ["rotation", "reflection", "translation"])
    @pytest.mark.parametrize("scheme,n,t_end,max_dt", [
        ("explicit_rk4", 32, 0.01, 1.77e-5),
        ("explicit_rk4", 48, 0.004, 3.06e-6),
        ("explicit_rk4", 512, 1e-7, 1.7886e-10),
        ("semi_implicit", 48, 0.01, 5e-4),
        ("semi_implicit", 512, 0.01, 5e-4),
    ])
    def test_mapped_run_is_mapped_solution(self, scheme, n, t_end, max_dt, symmetry):
        g = PeriodicGrid(omega=1, n=n)
        h = fourier_support(g, 1.0, [(2, 0.1, 0.0), (3, 0.0, 0.03)]).values
        mapping = {
            "rotation": lambda H: np.roll(H, 3, axis=-1),
            "reflection": lambda H: H[..., (-np.arange(n)) % n],
            "translation": lambda H: H + 0.3 * np.cos(g.nodes) - 0.2 * np.sin(g.nodes),
        }[symmetry]

        def run(v):
            st = FlowState(support=SupportGrid(GridFunction(g, v)))
            cfg = StepperConfig(scheme=scheme, dt_init=1e-4, max_dt=max_dt)
            return evolve(st, t_end, cfg, monitor_every=t_end / 4)

        base, mapped = run(h), run(mapping(h))
        assert len(base.times) == 5
        assert np.array_equal(mapped.times, base.times)
        err = np.max(np.abs(mapped.H - mapping(base.H)))
        assert err <= 1e-13 * np.max(np.abs(base.H))


class TestRescaling:
    def test_time_maps(self):
        L0 = 2 * math.pi
        t = (math.exp(8 * math.pi**2) - 1) / 2
        assert slow_time(t, L0, 1) == pytest.approx(1.0, rel=1e-12)
        assert unscaled_time(slow_time(3.7, L0, 1), L0, 1) == pytest.approx(3.7)

    def test_initial_snapshot(self):
        tr = evolve(circle_state(1.0, n=16), 0.2, StepperConfig(),
                    monitor_every=0.05)
        L0 = integrate(tr.state(0).support.h)
        res = rescale_trajectory(tr, L0)
        assert res.state(0).time == 0.0
        assert np.allclose(res.state(0).support.values, 1.0 / L0)

    def test_circle_is_fixed_point_of_rescaling(self):
        tr = evolve(circle_state(1.0, n=16), 1.0, StepperConfig(),
                    monitor_every=0.25)
        res = rescale_trajectory(tr, 2 * math.pi)
        for h in res.H:
            assert np.max(np.abs(h - 1 / (2 * math.pi))) < 1e-12

    def test_matches_per_state_mapping(self):
        # the records of h/phi at t_slow with dt/phi^2, mapped one state at a
        # time in Python floats; the snap times are ones where phi**2 in
        # numpy's array power differs from the float power in the last bit
        L0 = 2 * math.pi
        cand = np.linspace(0.0, 0.1, 4001)[1:].tolist()
        odd = [t for t in cand
               if scale_factor(t, L0, 1)**2 != np.square(np.array([scale_factor(t, L0, 1)]))[0]]
        tr = evolve(circle_state(1.0, n=16), 0.1, StepperConfig(),
                    monitor_every=0.01, snap_times=odd[:6])
        res = rescale_trajectory(tr, L0)
        assert len(res.times) == len(tr.times)
        dts = tr.record_series("dt_used")
        for i in range(len(tr.times)):
            st, got_state = tr.state(i), res.state(i)
            phi = scale_factor(st.time, L0, 1)
            h = st.support.values / phi
            t_eta = slow_time(st.time, L0, 1)
            want = compute_record(SupportGrid(GridFunction(st.grid, h), validate=False),
                                  t_eta, dts[i].item() / phi**2)
            assert_row(res.columns, i, want)
            assert got_state.time == t_eta
            assert np.array_equal(got_state.support.values, h)

    def test_scale_factor(self):
        assert scale_factor(0.0, 3.0, 2) == 3.0
        assert scale_factor(1.0, 0.0, 1) == pytest.approx(math.sqrt(8) * math.pi)

    def test_requires_unscaled(self):
        tr = evolve(circle_state(1 / (2 * math.pi), n=16,
                                 variant="rescaled_chainrule"),
                    0.01, StepperConfig())
        with pytest.raises(ValueError):
            rescale_trajectory(tr, 1.0)


class TestStepperConfig:
    @pytest.mark.parametrize("kw", [dict(dt_init=0.0), dict(safety=0.0),
                                    dict(safety=1.5), dict(max_dt=-1.0),
                                    dict(guard_ratio=0.0), dict(guard_ratio=1.0),
                                    dict(scheme="euler"),
                                    dict(stabilization_coeff=-1.0),
                                    dict(dt_init=math.nan), dict(max_dt=math.nan),
                                    dict(safety=math.nan),
                                    dict(guard_ratio=math.nan),
                                    dict(stabilization_coeff=math.nan)])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            StepperConfig(**kw)


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        st = circle_state(1.25, omega=2, n=16, variant="rescaled_paper")
        st = FlowState(support=st.support, time=0.75, variant=st.variant)
        p = tmp_path / "snap.txt"
        write_snapshot(p, st)
        back = read_snapshot(p)
        assert back.time == st.time
        assert back.variant == st.variant
        assert back.grid.omega == 2
        assert np.array_equal(back.support.values, st.support.values)
