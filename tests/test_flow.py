import copy
import dataclasses
import functools
import math

import numpy as np
import pytest

import entroflow.flow as flow
import entroflow.spectral as spectral
from entroflow.errors import FlowBreakdownError, NotLocallyConvexError
from entroflow.spectral import (GridFunction, PeriodicGrid, integrate,
                                periodic_derivs_values)
from entroflow.diagnostics import compute_record
from entroflow.support import (SupportGrid, circle_support, curvature,
                               ellipse_support, fourier_support)
from entroflow.flow import (FlowState, StepperConfig, evolve, read_snapshot,
                            rescale_trajectory, rhs, scale_factor, slow_time,
                            step, unscaled_time, write_snapshot)


ATTEMPTS = {"explicit_rk4": "_rk4_attempt", "semi_implicit": "_semi_implicit_attempt"}


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
    op = D2I if isinstance(D2I, flow._RfftOperator) else D2I.view(np.ndarray)
    return lambda x: np.matmul(op, x)


def reference_velocity(h, apply, lam, w=None):
    if w is None:
        w = apply(h)
    f = apply(1.0 / w)
    return f if lam == 0.0 else f - lam * h


def reference_rk4(h, w, dt, ws, lam):
    """The RK4 attempt in its plain formulas."""
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


def assert_row(columns, i, rec):
    """Row i of a record of columns equals the one-state record rec."""
    for f in dataclasses.fields(rec):
        assert np.array_equal(getattr(columns, f.name)[i], getattr(rec, f.name)), f.name


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
        f = flow.velocity(s.values, flow.workspace(s.grid).D2I, lam)
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
        x = rng.standard_normal((n, 6))
        want = np.fft.irfft(sym[:, None] * np.fft.rfft(x, axis=0), n, axis=0)
        assert np.array_equal(D2I @ x, want)
        out = np.empty((n, 6))
        assert np.array_equal(D2I.dot(x, out=out), want) and np.array_equal(out, want)

    def test_rfft_route_evolves_as_dense(self, monkeypatch):
        # the 1.3:1 rescaled ellipse at n = 1024, once on the rfft route and
        # once on a dense D2I injected into the workspace
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
                return real_attempt(h, *rest)

            monkeypatch.setattr(flow, "_semi_implicit_attempt", recording_attempt)
            final = evolve(st, 0.02, cfg).final.support.values
            # a rejected attempt is retried from the same state array
            return final, len({id(h) for h in inputs})

        rfft, rfft_steps = run()
        real = flow.workspace(g)
        dense_ws = copy.copy(real)
        dense_ws.D2I = rolled_column_operator(real, g.n)
        monkeypatch.setattr(flow, "workspace", lambda grid: dense_ws)
        dense, dense_steps = run()
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
        # a view that counts each D2I @ x and each D2I.dot(x, out=...), and
        # applies the wrapped operator by its own np.matmul or dot, so the
        # rfft route is counted as the dense one
        class Counting(np.ndarray):
            def __matmul__(self, other):
                applies[0] += 1
                return np.matmul(self.plain, other)

            def dot(self, other, out=None):
                applies[0] += 1
                return self.plain.dot(other, out=out)

        real = flow.workspace

        def counting_workspace(grid):
            ws = copy.copy(real(grid))
            op = ws.D2I.view(Counting)
            op.plain = ws.D2I
            ws.D2I = op
            return ws

        real_attempt = flow._semi_implicit_attempt

        def counting_attempt(*args):
            attempts[0] += 1
            return real_attempt(*args)

        monkeypatch.setattr(flow, "workspace", counting_workspace)
        monkeypatch.setattr(flow, "_semi_implicit_attempt", counting_attempt)
        # dense and rfft routes; a dyadic step below both RK4 step bounds and
        # a dyadic cadence: exactly 8 accepted steps in each of 2 spans
        for n, dt in ((16, 2.0**-17), (512, 2.0**-32)):
            assert (real(PeriodicGrid(omega=1, n=n)).D2I.ndim == 1) == (n > flow.DENSE_MAX_N)
            applies, attempts = [0], [0]
            cfg = StepperConfig(scheme=scheme, dt_init=dt, max_dt=dt)
            evolve(circle_state(1.0, n=n), 16 * dt, cfg, monitor_every=8 * dt)
            if scheme == "semi_implicit":
                assert attempts[0] == 16
            # plus one apply for the starting state's D2I @ h, carried across spans
            assert applies[0] == per_step * 16 + 1


class TestAttempts:
    @pytest.mark.parametrize("n", [32, 48, 512])
    @pytest.mark.parametrize("omega", [1, 2])
    @pytest.mark.parametrize("variant", flow.VARIANTS)
    def test_bit_identical_to_plain_formulas(self, variant, omega, n):
        # lam = 0, 1 and 4 omega^2 pi^2; n = 32 and 48 on the dense route,
        # 512 on the rfft route
        g = PeriodicGrid(omega=omega, n=n)
        s = fourier_support(g, 1.0, [(2, 0.1, 0.0), (3, 0.0, 0.03)])
        ws = flow.workspace(g)
        assert isinstance(ws.D2I, flow._DenseOperator) == (n <= flow.DENSE_MAX_N)
        lam = flow.variant_shift(variant, omega)
        h = s.values
        w = reference_apply(ws.D2I)(h)
        margin = float(w.min())
        dt = 0.9 * flow.RK4_REAL_AXIS / ws.ximax4 * margin**2
        # the attempt writes the plain formulas' bits into the run's output
        # pair, and so does a halved retry from the same buffers
        bufs = flow._rk4_buffers(n)
        for d in (dt, 0.5 * dt):
            got = flow._rk4_attempt(h, w, margin, d, ws, lam, 1.0, bufs)
            assert got[0] is bufs[-1][0] and got[1] is bufs[-1][1]
            assert not np.shares_memory(*got)
            for a, b in zip(got, reference_rk4(h, w, d, ws, lam)):
                assert type(a) is np.ndarray and np.array_equal(a, b)
        for dt in (1e-4, 2e-3):
            got = flow._semi_implicit_attempt(h, w, margin, dt, ws, lam, 1.0)
            ref = reference_semi_implicit(h, w, dt, ws, lam, 1.0)
            for a, b in zip(got, ref):
                assert type(a) is np.ndarray and np.array_equal(a, b)
        # the attempts leave their inputs as they were
        assert np.array_equal(h, s.values)
        assert np.array_equal(w, reference_apply(ws.D2I)(h))

    def test_fft_calls(self, monkeypatch):
        # spectral's rfft and irfft, the package's only real-input
        # transforms, wrapped by counters: at n = 48 a semi-implicit attempt
        # takes one stacked rfft and one irfft, an RK4 attempt none
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
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(spectral, name, counted(getattr(spectral, name)))
        flow._semi_implicit_attempt(h, w, float(w.min()), 1e-3, ws, 1.0, 1.0)
        assert calls == ["rfft", "irfft"]
        calls.clear()
        flow._rk4_attempt(h, w, float(w.min()), 1e-6, ws, 1.0, 1.0,
                          flow._rk4_buffers(g.n))
        assert calls == []

    @pytest.mark.parametrize("n", [8, 32, 48, flow.DENSE_MAX_N])
    def test_dense_apply_is_matmul(self, n):
        ws = flow._Workspace(PeriodicGrid(omega=1, n=n))
        plain = ws.D2I.view(np.ndarray)
        rng = np.random.default_rng(n)
        for x in (rng.standard_normal(n), rng.standard_normal((n, 8))):
            for out in (ws.D2I @ x, np.matmul(ws.D2I, x)):
                assert type(out) is np.ndarray
                assert np.array_equal(out, np.matmul(plain, x))
            buf = np.empty(x.shape)
            assert ws.D2I.dot(x, out=buf) is buf
            assert np.array_equal(buf, np.matmul(plain, x))

    @pytest.mark.parametrize("n", [48, 512])
    def test_operator_defines_only_matmul(self, n):
        # both routes, dense and rfft: np.matmul(D2I, x) gives the bits of
        # D2I.dot(x) as a plain ndarray, and no other arithmetic is defined
        D2I = flow._Workspace(PeriodicGrid(omega=1, n=n)).D2I
        assert isinstance(D2I, flow._DenseOperator) == (n <= flow.DENSE_MAX_N)
        rng = np.random.default_rng(n)
        for x in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            out = np.matmul(D2I, x)
            assert type(out) is np.ndarray
            assert np.array_equal(out, D2I.dot(x))
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
        real_attempt = getattr(flow, ATTEMPTS[scheme])
        dts = []

        def recording_attempt(*args):
            dts.append(args[3])
            return real_attempt(*args)

        monkeypatch.setattr(flow, ATTEMPTS[scheme], recording_attempt)
        out = step(st, dt, cfg)
        assert (len(dts) == 1) == (dt < 1e-4) and dts[0] <= dt
        monkeypatch.setattr(flow, ATTEMPTS[scheme], real_attempt)
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
        _, wn = flow._rk4_attempt(h, w, margin, 0.05, ws, 0.0, 1.0,
                                  flow._rk4_buffers(g.n))
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

        def nonconvex(h, w, margin, dt, ws, lam, c, bufs):
            calls.append(dt)
            return h, -w

        monkeypatch.setattr(flow, ATTEMPTS[scheme], nonconvex)
        with pytest.raises(FlowBreakdownError) as exc:
            evolve(circle_state(1.0, n=16), 0.1, StepperConfig(scheme=scheme))
        assert len(calls) == flow.MAX_HALVINGS + 1
        assert calls[-1] == calls[0] * 0.5**flow.MAX_HALVINGS
        assert exc.value.last_state is not None
        assert exc.value.last_state.time == 0.0
        assert np.array_equal(exc.value.last_state.support.values, np.ones(16))

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
        monkeypatch.setattr(flow, ATTEMPTS[scheme], lambda *a: calls.append(a))
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
        # refused before any attempt
        calls = []
        monkeypatch.setattr(flow, "_rk4_attempt", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=r"n=32768 .*dt=3.37e-17.*2.97e\+14 steps"):
            evolve(circle_state(1.0, n=32768), 0.01, StepperConfig())
        assert calls == []

    def test_rk4_step_cap_spares_long_runs(self, monkeypatch):
        # criterion-04's Fourier run (~2e5 steps, 2.6e6 at its starting dt)
        # and criterion-01's circles reach their first attempt
        class Attempted(Exception):
            pass

        def attempt(*args):
            raise Attempted

        monkeypatch.setattr(flow, "_rk4_attempt", attempt)
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
