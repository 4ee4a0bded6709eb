import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import entroflow.spectral as spectral
from entroflow.diagnostics import (area, compute_record, entropy,
                                   length, logk_dirichlet, noise_floor,
                                   fit_decay_rate, read_csv, run_monitors,
                                   seminorm, velocity_l2sq, write_csv,
                                   CSV_HEADER)
from entroflow.errors import NotApplicableError, NotLocallyConvexError
from entroflow.flow import FlowState, StepperConfig, evolve
from entroflow.spectral import GridFunction, PeriodicGrid, deriv, integrate
from entroflow.support import (SupportGrid, circle_support, curvature,
                               ellipse_support, fourier_support)


def support(fn, omega=1, n=64):
    g = PeriodicGrid(omega=omega, n=n)
    return SupportGrid(GridFunction(g, fn(g.nodes)))


def two_mode(n=64):
    return support(lambda th: 1 + 0.2 * np.cos(2 * th), n=n)


class TestFunctionals:
    def test_entropy_unit_circle(self):
        assert entropy(circle_support(PeriodicGrid(1, 32), 1.0)) == pytest.approx(
            0.0, abs=1e-13)

    def test_entropy_radius_two(self):
        # constant k = 1/2: integral of log k = -2 pi log 2
        val = entropy(circle_support(PeriodicGrid(1, 32), 2.0))
        assert val == pytest.approx(-2 * math.pi * math.log(2), abs=1e-12)

    def test_entropy_two_mode_closed_form(self):
        # integral of log(1 - c cos x) over a period is 2 pi log((1+sqrt(1-c^2))/2);
        # with w = 1 - 0.6 cos 2theta this gives entropy = -2 pi log 0.9
        val = entropy(two_mode())
        assert val == pytest.approx(-2 * math.pi * math.log(0.9), abs=1e-12)

    def test_entropy_ellipse_quadrature_oracle(self):
        s = ellipse_support(PeriodicGrid(1, 256), 2.0, 1.0)
        # independent quadrature: 1/k = h'' + h = a^2 b^2 / h^3 for the ellipse
        h = lambda t: math.sqrt(4 * math.cos(t)**2 + math.sin(t)**2)
        oracle, err = quad(lambda t: math.log(h(t)**3 / 4.0), 0.0, 2 * math.pi,
                           limit=400, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-9
        assert entropy(s) == pytest.approx(oracle, abs=1e-10)

    def test_length(self):
        assert length(circle_support(PeriodicGrid(3, 24), 2.0)) == pytest.approx(
            12 * math.pi)
        assert length(two_mode()) == pytest.approx(2 * math.pi, abs=1e-12)

    def test_length_ellipse_elliptic_integral(self):
        # frozen from 4 a E(m), m = 1 - b^2/a^2 (scipy.special.ellipe)
        s = ellipse_support(PeriodicGrid(1, 256), 2.0, 1.0)
        assert length(s) == pytest.approx(9.688448220547675, abs=1e-10)

    def test_area(self):
        assert area(circle_support(PeriodicGrid(1, 32), 1.0)) == pytest.approx(
            math.pi)
        assert area(circle_support(PeriodicGrid(1, 32), 3.0)) == pytest.approx(
            9 * math.pi)
        # 0.5*(2.04 pi - 0.16 pi) = 0.94 pi
        assert area(two_mode()) == pytest.approx(0.94 * math.pi, abs=1e-12)

    def test_area_needs_omega1(self):
        with pytest.raises(NotApplicableError):
            area(circle_support(PeriodicGrid(2, 32), 1.0))

    def test_velocity_l2sq_circles(self):
        assert velocity_l2sq(circle_support(PeriodicGrid(1, 32), 2.0)) == \
            pytest.approx(2 * math.pi / 4, abs=1e-12)
        assert velocity_l2sq(circle_support(PeriodicGrid(3, 24), 1.0)) == \
            pytest.approx(6 * math.pi, abs=1e-12)

    def test_velocity_l2sq_two_mode_quadrature(self):
        # frozen adaptive-quadrature value of int (k'' + k)^2 for
        # k = 1/(1 - 0.6 cos 2theta)
        assert velocity_l2sq(two_mode(n=128)) == pytest.approx(
            133.0728333490793, rel=1e-10)

    def test_seminorms(self):
        c = circle_support(PeriodicGrid(1, 32), 2.0)
        assert seminorm(c, 0) == pytest.approx(8 * math.pi)
        for p in (1, 2, 3, 4):
            assert abs(seminorm(c, p)) < 1e-20
        assert seminorm(two_mode(), 2) == pytest.approx(0.64 * math.pi, abs=1e-12)
        with pytest.raises(ValueError):
            seminorm(c, 9)

    def test_seminorm_matches_parseval(self):
        s = support(lambda th: 1 + 0.1 * np.cos(2 * th) + 0.02 * np.sin(5 * th))
        n = s.n
        c = np.fft.rfft(s.values)
        xi = s.grid.wavenumbers
        w = np.full(n // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        for p in range(5):
            parseval = s.grid.period / n**2 * np.sum(w * (xi**p * np.abs(c))**2)
            direct = seminorm(s, p)
            assert direct == pytest.approx(parseval, rel=1e-10, abs=1e-18)

    def test_logk_dirichlet(self):
        assert logk_dirichlet(circle_support(PeriodicGrid(1, 32), 2.0)) < 1e-22
        # closed form: int (1.2 sin 2t)^2/(1-0.6 cos 2t)^2 dt = 2 pi exactly
        assert logk_dirichlet(two_mode(n=128)) == pytest.approx(
            2 * math.pi, rel=1e-10)

    def test_logk_scale_invariance(self):
        s = two_mode()
        for lam in (0.3, 7.5):
            s2 = SupportGrid(GridFunction(s.grid, lam * s.values))
            assert logk_dirichlet(s2) == pytest.approx(logk_dirichlet(s),
                                                       rel=1e-12)

    def test_scale_behavior(self):
        s = two_mode()
        lam = 1.7
        s2 = SupportGrid(GridFunction(s.grid, lam * s.values))
        assert length(s2) == pytest.approx(lam * length(s), rel=1e-13)
        assert area(s2) == pytest.approx(lam**2 * area(s), rel=1e-13)
        assert entropy(s2) - entropy(s) == pytest.approx(
            -2 * math.pi * math.log(lam), rel=1e-12)


class TestRecordsAndCsv:
    def test_record_fields(self):
        s = two_mode()
        r = compute_record(s, 0.5, 1e-4)
        assert r.t == 0.5
        assert r.kmin == pytest.approx(0.625)
        assert r.kmax == pytest.approx(2.5)
        assert r.margin == pytest.approx(0.4)
        assert r.area == pytest.approx(0.94 * math.pi)
        assert len(r.h_seminorms) == 5

    def test_one_transform_of_h_and_one_of_k(self, monkeypatch):
        s = two_mode()
        calls = []

        def counted(name):
            fn = getattr(spectral, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(spectral, name, counted(name))
        compute_record(s, 0.0, 0.0)
        assert calls.count("rfft") == 2
        assert len(calls) <= 9

    @pytest.mark.parametrize("s", [
        two_mode(),
        ellipse_support(PeriodicGrid(1, 48), 1.3, 1.0),
        circle_support(PeriodicGrid(2, 32), 1.0),
    ], ids=["two_mode", "ellipse", "omega2_circle"])
    def test_standalone_functionals_equal_record(self, s):
        r = compute_record(s, 0.0, 0.0)
        assert entropy(s) == r.entropy
        assert length(s) == r.length
        assert velocity_l2sq(s) == r.f_l2sq
        assert logk_dirichlet(s) == r.logk_dirichlet
        assert np.array_equal([seminorm(s, p) for p in range(5)], r.h_seminorms)
        if s.omega == 1:
            assert area(s) == r.area
        else:
            assert r.area is None

    def test_dissipation_field(self):
        s = ellipse_support(PeriodicGrid(1, 48), 1.3, 1.0)
        k = curvature(s)
        ktt = deriv(k, 2).values
        expected = integrate(k.copy_with(0.5 * k.values * ktt**2
                                         + k.values**3 / 3.0))
        assert compute_record(s, 0.0, 0.0).dissipation == expected

    def test_csv_round_trip(self, tmp_path):
        s = two_mode()
        cols = compute_record(_one(s.grid, _stack(s, 2)), np.array([0.0, 0.1]),
                              np.full(2, 1e-4))
        p = tmp_path / "d.csv"
        write_csv(cols, p)
        with open(p) as fh:
            assert fh.readline().strip() == CSV_HEADER
        back = read_csv(p)
        assert len(back.t) == 2
        # %.17g round-trips doubles, so every written column reads back ==
        for f in dataclasses.fields(cols):
            if f.name != "dissipation":
                assert np.array_equal(getattr(back, f.name), getattr(cols, f.name)), f.name
        assert np.isnan(back.dissipation).all()  # not a CSV column

    def test_csv_area_empty_for_omega2(self, tmp_path):
        s = circle_support(PeriodicGrid(2, 16), 1.0)
        cols = compute_record(_one(s.grid, s.values[None]), np.zeros(1), np.zeros(1))
        p = tmp_path / "d.csv"
        write_csv(cols, p)
        line = open(p).readlines()[1]
        assert ",," in line
        assert read_csv(p).area is None


def _stack(s, rows=5):
    """rows supports: s scaled and with a growing mode-2 wobble added, so
    that each row has its own functionals."""
    th = s.grid.nodes
    return np.array([(1.0 + 0.1 * j) * s.values + 0.01 * j * np.cos(2.0 * th / s.omega)
                     for j in range(rows)])


def _one(grid, h):
    return SupportGrid(GridFunction(grid, h), validate=False)


class TestBatchedRecords:
    @pytest.mark.parametrize("s", [
        ellipse_support(PeriodicGrid(1, 48), 1.3, 1.0),
        ellipse_support(PeriodicGrid(1, 50), 1.3, 1.0),
        fourier_support(PeriodicGrid(2, 96), 1.0, [(1, 0.3, 0.0)]),
    ], ids=["omega1_n48", "omega1_n50", "omega2_n96"])
    def test_stack_equals_one_state_calls(self, s):
        H = _stack(s)
        t = np.linspace(0.0, 0.4, len(H))
        dt = np.full(len(H), 1e-4)
        cols = compute_record(_one(s.grid, H), t, dt)
        ones = [compute_record(_one(s.grid, h), float(x), 1e-4) for h, x in zip(H, t)]
        for f in dataclasses.fields(cols):
            col = getattr(cols, f.name)
            if f.name == "area" and s.omega != 1:
                assert col is None and all(r.area is None for r in ones)
                continue
            assert np.array_equal(col, np.array([getattr(r, f.name) for r in ones])), f.name

    def test_stack_names_the_first_nonconvex_row(self):
        # min(h_thth + h) = 1 - 3 * 0.8 < 0 on rows 2 and 4
        g = PeriodicGrid(1, 32)
        good = ellipse_support(g, 1.3, 1.0).values
        bad = 1.0 + 0.8 * np.cos(2.0 * g.nodes)
        H = np.array([good, 1.1 * good, bad, good, 2.0 * bad])
        with pytest.raises(NotLocallyConvexError) as one:
            compute_record(_one(g, H[2]), 0.0, 0.0)
        with pytest.raises(NotLocallyConvexError) as stack:
            compute_record(_one(g, H), np.zeros(5), np.zeros(5))
        assert str(stack.value) == str(one.value)
        assert stack.value.node == one.value.node
        assert stack.value.margin == one.value.margin


class TestMonitors:
    def test_circle_run_all_pass(self):
        st = FlowState(support=circle_support(PeriodicGrid(1, 16), 1.0))
        tr = evolve(st, 0.5, StepperConfig(), monitor_every=0.01)
        rep = run_monitors(tr)
        assert rep.passed
        statuses = {c.name: c.status for c in rep.checks}
        assert statuses["M1"] == "pass"
        assert statuses["M8"] == "pass"
        assert statuses["M8-growth"] == "pass"

    def test_omega2_area_not_applicable(self):
        st = FlowState(support=circle_support(PeriodicGrid(2, 16), 1.0))
        tr = evolve(st, 0.2, StepperConfig(), monitor_every=0.01)
        rep = run_monitors(tr)
        assert rep["M8"].status == "not-applicable"
        assert rep["M8-growth"].status == "not-applicable"
        assert rep.passed

    def test_ellipse_dissipation_residual(self):
        s = ellipse_support(PeriodicGrid(1, 48), 1.3, 1.0)
        tr = evolve(FlowState(support=s), 0.05, StepperConfig(),
                    monitor_every=1e-3)
        rep = run_monitors(tr)
        assert rep["M1"].status == "pass"
        assert rep["M1"].slack <= 1e-3

    def test_bracket_slack_after_start(self):
        # the M5, M6 and M8-growth brackets are tight at t = 0 by construction;
        # the reported slack is the closest approach after it
        s = ellipse_support(PeriodicGrid(1, 48), 1.3, 1.0)
        tr = evolve(FlowState(support=s), 0.05, StepperConfig(),
                    monitor_every=1e-3)
        rep = run_monitors(tr)
        for name in ("M5", "M6", "M8-growth"):
            assert rep[name].status == "pass", name
            assert rep[name].slack > 0.0, name
            assert rep[name].worst_t > 0.0, name

    def test_two_records_not_applicable(self):
        st = FlowState(support=circle_support(PeriodicGrid(1, 16), 1.0))
        tr = evolve(st, 0.1, StepperConfig())
        rep = run_monitors(tr)
        assert all(c.status == "not-applicable" for c in rep.checks)

    def test_rescaled_monitors(self):
        g = PeriodicGrid(1, 32)
        s = ellipse_support(g, 1.3, 1.0)
        L0 = integrate(s.h)
        s_norm = SupportGrid(GridFunction(g, s.values / L0))
        cfg = StepperConfig(scheme="semi_implicit", dt_init=5e-4, max_dt=2e-3)
        tr = evolve(FlowState(support=s_norm, variant="rescaled_chainrule"),
                    0.5, cfg, monitor_every=5e-3)
        rep = run_monitors(tr)
        assert rep["M12-length"].status == "pass"
        assert rep["M12-convexity"].status == "pass"
        for p in (1, 2, 3, 4):
            assert rep[f"M12-decay-h{p}"].status == "pass"

    def test_unnormalized_rescaled_bracket_not_applicable(self):
        # bracket facts presume unit initial rescaled length
        s = ellipse_support(PeriodicGrid(1, 32), 1.3, 1.0)
        cfg = StepperConfig(scheme="semi_implicit", dt_init=5e-4, max_dt=2e-3)
        tr = evolve(FlowState(support=s, variant="rescaled_chainrule"),
                    0.05, cfg, monitor_every=5e-3)
        rep = run_monitors(tr)
        assert rep["M12-length"].status == "not-applicable"
        assert rep["M12-convexity"].status == "not-applicable"
        assert rep.passed

    def test_report_json(self, tmp_path):
        st = FlowState(support=circle_support(PeriodicGrid(1, 16), 1.0))
        tr = evolve(st, 0.2, StepperConfig(), monitor_every=0.01)
        rep = run_monitors(tr)
        p = tmp_path / "monitors.json"
        rep.to_json(p)
        import json
        data = json.loads(open(p).read())
        assert data["M1"]["status"] == "pass"
        assert set(data["M1"]) == {"status", "slack", "worst_t", "note"}


class TestFitting:
    def test_fit_decay_rate_clean_exponential(self):
        t = np.linspace(0, 5, 200)
        v = 3.0 * np.exp(-2.0 * t)
        rate, used = fit_decay_rate(t, v)
        assert rate == pytest.approx(2.0, rel=1e-8)
        assert used >= 5

    def test_fit_ignores_plateau(self):
        t = np.linspace(0, 10, 400)
        v = np.maximum(np.exp(-3.0 * t), 1e-12)
        rate, _ = fit_decay_rate(t, v)
        assert rate == pytest.approx(3.0, rel=1e-2)

    def test_noise_floor_of_live_series(self):
        v = np.exp(-np.linspace(0, 3, 50))
        assert noise_floor(v) < np.min(v)
