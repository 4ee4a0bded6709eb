import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import entroflow.spectral as spectral
from entroflow import verify
from entroflow.diagnostics import (compute_record, l2_contraction, noise_floor,
                                   fit_decay_rate, read_csv, rescaled_length_cap,
                                   run_monitors, write_csv, CSV_HEADER,
                                   SMALLNESS_FRACTION, _length_upper_bound)
from entroflow.errors import NotLocallyConvexError
from entroflow.flow import VARIANTS, FlowState, StepperConfig, Trajectory, evolve
from entroflow.spectral import (GridFunction, PeriodicGrid, integrate,
                                periodic_derivs_values)
from entroflow.support import (SupportGrid, circle_support, curvature,
                               ellipse_support, fourier_support)


def support(fn, omega=1, n=64):
    g = PeriodicGrid(omega=omega, n=n)
    return SupportGrid(GridFunction(g, fn(g.nodes)))


def two_mode(n=64):
    return support(lambda th: 1 + 0.2 * np.cos(2 * th), n=n)


def rec(s):
    """The record of the single state s, where every functional is written."""
    return compute_record(s, 0.0, 0.0)


class TestFunctionals:
    def test_entropy_unit_circle(self):
        val = rec(circle_support(PeriodicGrid(1, 32), 1.0)).entropy
        assert val == pytest.approx(0.0, abs=1e-13)

    def test_entropy_radius_two(self):
        # constant k = 1/2: integral of log k = -2 pi log 2
        val = rec(circle_support(PeriodicGrid(1, 32), 2.0)).entropy
        assert val == pytest.approx(-2 * math.pi * math.log(2), abs=1e-12)

    def test_entropy_two_mode_closed_form(self):
        # integral of log(1 - c cos x) over a period is 2 pi log((1+sqrt(1-c^2))/2);
        # with w = 1 - 0.6 cos 2theta this gives entropy = -2 pi log 0.9
        val = rec(two_mode()).entropy
        assert val == pytest.approx(-2 * math.pi * math.log(0.9), abs=1e-12)

    def test_entropy_ellipse_quadrature_oracle(self):
        s = ellipse_support(PeriodicGrid(1, 256), 2.0, 1.0)
        # independent quadrature: 1/k = h'' + h = a^2 b^2 / h^3 for the ellipse
        h = lambda t: math.sqrt(4 * math.cos(t)**2 + math.sin(t)**2)
        oracle, err = quad(lambda t: math.log(h(t)**3 / 4.0), 0.0, 2 * math.pi,
                           limit=400, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-9
        assert rec(s).entropy == pytest.approx(oracle, abs=1e-10)

    def test_length(self):
        val = rec(circle_support(PeriodicGrid(3, 24), 2.0)).length
        assert val == pytest.approx(12 * math.pi)
        assert rec(two_mode()).length == pytest.approx(2 * math.pi, abs=1e-12)

    def test_length_ellipse_elliptic_integral(self):
        # frozen from 4 a E(m), m = 1 - b^2/a^2 (scipy.special.ellipe)
        s = ellipse_support(PeriodicGrid(1, 256), 2.0, 1.0)
        assert rec(s).length == pytest.approx(9.688448220547675, abs=1e-10)

    def test_area(self):
        for r, want in ((1.0, math.pi), (3.0, 9 * math.pi)):
            val = rec(circle_support(PeriodicGrid(1, 32), r)).area
            assert val == pytest.approx(want)
        # 0.5*(2.04 pi - 0.16 pi) = 0.94 pi
        assert rec(two_mode()).area == pytest.approx(0.94 * math.pi, abs=1e-12)

    def test_area_needs_omega1(self):
        assert rec(circle_support(PeriodicGrid(2, 32), 1.0)).area is None

    def test_velocity_l2sq_circles(self):
        assert rec(circle_support(PeriodicGrid(1, 32), 2.0)).f_l2sq == \
            pytest.approx(2 * math.pi / 4, abs=1e-12)
        assert rec(circle_support(PeriodicGrid(3, 24), 1.0)).f_l2sq == \
            pytest.approx(6 * math.pi, abs=1e-12)

    def test_velocity_l2sq_two_mode_quadrature(self):
        # frozen adaptive-quadrature value of int (k'' + k)^2 for
        # k = 1/(1 - 0.6 cos 2theta)
        assert rec(two_mode(n=128)).f_l2sq == pytest.approx(
            133.0728333490793, rel=1e-10)

    def test_seminorms(self):
        c = rec(circle_support(PeriodicGrid(1, 32), 2.0)).h_seminorms
        assert c[0] == pytest.approx(8 * math.pi)
        for p in (1, 2, 3, 4):
            assert abs(c[p]) < 1e-20
        val = rec(two_mode()).h_seminorms[2]
        assert val == pytest.approx(0.64 * math.pi, abs=1e-12)

    def test_seminorm_matches_parseval(self):
        s = support(lambda th: 1 + 0.1 * np.cos(2 * th) + 0.02 * np.sin(5 * th))
        n = s.n
        c = np.fft.rfft(s.values)
        xi = s.grid.wavenumbers
        w = np.full(n // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        for p in range(5):
            parseval = s.grid.period / n**2 * np.sum(w * (xi**p * np.abs(c))**2)
            direct = rec(s).h_seminorms[p]
            assert direct == pytest.approx(parseval, rel=1e-10, abs=1e-18)

    def test_logk_dirichlet(self):
        assert rec(circle_support(PeriodicGrid(1, 32), 2.0)).logk_dirichlet < 1e-22
        # closed form: int (1.2 sin 2t)^2/(1-0.6 cos 2t)^2 dt = 2 pi exactly
        assert rec(two_mode(n=128)).logk_dirichlet == pytest.approx(
            2 * math.pi, rel=1e-10)

    def test_logk_scale_invariance(self):
        s = two_mode()
        for lam in (0.3, 7.5):
            s2 = SupportGrid(GridFunction(s.grid, lam * s.values))
            assert rec(s2).logk_dirichlet == pytest.approx(
                rec(s).logk_dirichlet, rel=1e-12)

    def test_scale_behavior(self):
        s = two_mode()
        lam = 1.7
        s2 = SupportGrid(GridFunction(s.grid, lam * s.values))
        assert rec(s2).length == pytest.approx(lam * rec(s).length, rel=1e-13)
        assert rec(s2).area == pytest.approx(lam**2 * rec(s).area, rel=1e-13)
        assert rec(s2).entropy - rec(s).entropy == pytest.approx(
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
    def test_record_equals_one_function_integrals(self, s):
        # each field against integrate() of its integrand, built from one
        # derivative call per function: the same bits
        r = rec(s)
        h, period = s.h, s.grid.period
        k = curvature(s)
        kp, ktt = periodic_derivs_values(k.values, period, (1, 2))
        hd = periodic_derivs_values(h.values, period, range(5))
        assert r.entropy == integrate(k.copy_with(np.log(k.values)))
        assert r.length == integrate(h)
        assert r.f_l2sq == integrate(k.copy_with((ktt + k.values)**2))
        assert r.logk_dirichlet == integrate(k.copy_with((kp / k.values)**2))
        assert r.k_l1 == integrate(k)
        assert np.array_equal([integrate(h.copy_with(d * d)) for d in hd],
                              r.h_seminorms)
        if s.omega == 1:
            w = hd[2] + h.values
            assert r.area == 0.5 * integrate(h.copy_with(h.values * w))
        else:
            assert r.area is None

    def test_dissipation_field(self):
        s = ellipse_support(PeriodicGrid(1, 48), 1.3, 1.0)
        k = curvature(s)
        ktt = periodic_derivs_values(k.values, s.grid.period, (2,))[0]
        expected = integrate(k.copy_with(0.5 * k.values * ktt**2
                                         + k.values**3 / 3.0))
        assert rec(s).dissipation == expected

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
        with open(p) as fh:
            line = fh.readlines()[1]
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


class TestL2Contraction:
    @pytest.mark.parametrize("s", [
        ellipse_support(PeriodicGrid(1, 48), 1.3, 1.0),
        fourier_support(PeriodicGrid(2, 96), 1.0, [(1, 0.3, 0.0)]),
    ], ids=["omega1_n48", "omega2_n96"])
    def test_stack_rows_equal_one_row_calls(self, s):
        H1 = _stack(s)
        H2 = H1[::-1] * 1.01
        D, rate = l2_contraction(s.grid, H1, H2)
        assert D.shape == rate.shape == (len(H1),)
        for j, (h1, h2) in enumerate(zip(H1, H2)):
            d, r = l2_contraction(s.grid, h1, h2)
            assert D[j] == d and rate[j] == r

    def test_equals_the_criterion_08_formulas(self):
        # criterion-08's D and rate, written out as the reference
        from entroflow.verify import _run
        tr1, tr2 = _run("contraction-a")[0], _run("contraction-b")[0]
        period, n = tr1.grid.period, tr1.grid.n
        D = np.sum((tr1.H - tr2.H)**2, axis=-1) * (period / n)
        k1, k2 = (curvature(_one(tr.grid, tr.H)).values for tr in (tr1, tr2))
        rate = -2.0 * (np.sum((k2 - k1)**2 / (k1 * k2), axis=-1) * (period / n))
        got = l2_contraction(tr1.grid, tr1.H, tr2.H)
        assert np.array_equal(got[0], D) and np.array_equal(got[1], rate)

    def test_rate_is_the_derivative_of_D(self):
        from entroflow.verify import _run
        tr1, tr2 = _run("contraction-a")[0], _run("contraction-b")[0]
        t = tr1.times
        D, rate = l2_contraction(tr1.grid, tr1.H, tr2.H)
        dD = (D[2:] - D[:-2]) / (t[2:] - t[:-2])
        live = D[1:-1] >= D[0] * 1e-12
        assert np.count_nonzero(live) > 100
        rel = np.abs(dD[live] - rate[1:-1][live]) / np.abs(rate[1:-1][live])
        assert np.max(rel) <= 1e-3


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
        for name in ("M8", "M8-growth"):
            assert rep[name].status == "not-applicable"
            assert rep[name].note == "omega != 1"
        assert rep.passed

    def test_ellipse_dissipation_residual(self):
        s = ellipse_support(PeriodicGrid(1, 48), 1.3, 1.0)
        tr = evolve(FlowState(support=s), 0.05, StepperConfig(),
                    monitor_every=1e-3)
        rep = run_monitors(tr)
        assert rep["M1"].status == "pass"
        assert rep["M1"].slack <= 1e-3

    def test_bracket_slack_after_start(self):
        # the M5, M6, M7, M8-growth and M12-length brackets are tight at t = 0
        # by construction; the reported slack is the closest approach after it
        s = ellipse_support(PeriodicGrid(1, 48), 1.3, 1.0)
        tr = evolve(FlowState(support=s), 0.05, StepperConfig(),
                    monitor_every=1e-3)
        g = PeriodicGrid(1, 32)
        s = ellipse_support(g, 1.3, 1.0)
        s_norm = SupportGrid(GridFunction(g, s.values / integrate(s.h)))
        rescaled = evolve(FlowState(support=s_norm, variant="rescaled_chainrule"),
                          0.05, StepperConfig(scheme="semi_implicit"),
                          monitor_every=5e-3)
        for run, names in ((tr, ("M5", "M6", "M7", "M8-growth")),
                           (rescaled, ("M12-length",))):
            rep = run_monitors(run)
            for name in names:
                assert rep[name].status == "pass", name
                assert rep[name].slack > 0.0, name
                assert rep[name].worst_t > 0.0, name

    def test_m3_reports_the_part_that_failed(self):
        # the identity L' = int k holds at the interior records, but the last
        # record's int k is -1: M3 fails and reports that record, with the
        # residual -k_l1 = 1 against 0
        s = ellipse_support(PeriodicGrid(1, 48), 1.3, 1.0)
        tr = evolve(FlowState(support=s), 0.05, StepperConfig(),
                    monitor_every=1e-3)
        assert run_monitors(tr)["M3"].status == "pass"
        k1 = tr.record_series("k_l1").copy()
        k1[-1] = -1.0
        broken = Trajectory(tr.variant, tr.grid, tr.H,
                            dataclasses.replace(tr.columns, k_l1=k1))
        m3 = run_monitors(broken)["M3"]
        assert m3.status == "fail"
        assert m3.worst_t == tr.times[-1]
        assert m3.slack == 1.0

    def test_inequality_slack(self):
        # one step of ||F||^2 rises by 1e-7 of its largest value: inside the
        # default slack of 1e-6, outside the criteria's 1e-9
        s = ellipse_support(PeriodicGrid(1, 48), 1.3, 1.0)
        tr = evolve(FlowState(support=s), 0.05, StepperConfig(),
                    monitor_every=1e-3)
        assert run_monitors(tr, inequality_slack=1e-9)["M2"].status == "pass"
        fl2 = tr.record_series("f_l2sq").copy()
        fl2[21] = fl2[20] + 1e-7 * np.max(fl2)
        risen = Trajectory(tr.variant, tr.grid, tr.H,
                           dataclasses.replace(tr.columns, f_l2sq=fl2))
        assert run_monitors(risen)["M2"].status == "pass"
        m2 = run_monitors(risen, inequality_slack=1e-9)["M2"]
        assert m2.status == "fail"
        assert m2.worst_t == tr.times[21]
        assert m2.slack == pytest.approx(1e-7 * np.max(fl2), rel=1e-6)

    def test_smallness_slack(self):
        # a 1.02:1 ellipse's sigma energy starts at 0.0111, below the
        # threshold 1/(22 pi), and falls; record 3 rises by 1e-7 of the
        # threshold: inside the default slack, outside the criteria's 1e-9.
        # Either way the report is the largest rise from the time the
        # threshold is reached, at its time
        s = ellipse_support(PeriodicGrid(1, 32), 1.02, 1.0)
        tr = evolve(FlowState(support=s), 0.05, StepperConfig(),
                    monitor_every=1e-3)
        thresh = 1.0 / (SMALLNESS_FRACTION * math.pi)
        sig = tr.record_series("logk_dirichlet").copy()
        assert sig[0] < thresh
        assert run_monitors(tr, inequality_slack=1e-9)["M10"].status == "pass"
        sig[3] = sig[2] + 1e-7 * thresh
        risen = Trajectory(tr.variant, tr.grid, tr.H,
                           dataclasses.replace(tr.columns, logk_dirichlet=sig))
        for slack, status in ((1e-6, "pass"), (1e-9, "fail")):
            m10 = run_monitors(risen, inequality_slack=slack)["M10"]
            assert m10.status == status
            assert m10.worst_t == tr.times[3] == pytest.approx(0.003)
            assert m10.slack == pytest.approx(1e-7 * thresh, rel=1e-6)

    def test_m4_and_m11_report_the_raw_residual(self):
        # one record's dissipation (M4) or |k_theta|_inf (M11) pushed past its
        # allowance fails the check, which reports the residual itself,
        # L'' + dissipation or 2 log1p(pi |k_theta|_inf / k_min) - L, at
        # that record
        s = ellipse_support(PeriodicGrid(1, 48), 1.3, 1.0)
        tr = evolve(FlowState(support=s), 0.05, StepperConfig(), monitor_every=1e-3)
        rep = run_monitors(tr)
        assert rep["M4"].status == rep["M11"].status == "pass"
        t, L, c = tr.times, tr.record_series("length"), tr.columns
        diss = c.dissipation.copy()
        diss[20] = 10.0 * np.max(diss)
        dt1, dt2 = t[20] - t[19], t[21] - t[20]
        L2 = 2.0 * (L[19] * dt2 - L[20] * (dt1 + dt2) + L[21] * dt1) \
            / (dt1 * dt2 * (dt1 + dt2))
        kgrad = c.kgrad_inf.copy()
        kgrad[10] = c.kmin[10] / math.pi * math.expm1(0.5 * (L[10] + 1.0))
        for name, column, j, residual in (
                ("M4", {"dissipation": diss}, 20, L2 + diss[20]),
                ("M11", {"kgrad_inf": kgrad}, 10,
                 2.0 * math.log1p(kgrad[10] * math.pi / c.kmin[10]) - L[10])):
            pushed = Trajectory(tr.variant, tr.grid, tr.H,
                                dataclasses.replace(c, **column))
            check = run_monitors(pushed)[name]
            assert check.status == "fail", name
            assert check.worst_t == t[j], name
            assert check.slack == pytest.approx(residual, rel=1e-12), name
            assert check.slack > 0.5, name

    def test_m10_ranks_rises_below_a_loose_allowance(self):
        # two rises far below the allowance, 1e-24 and then 5e-24, on a
        # sigma energy that falls from 1e-10: M10 reports the larger at its
        # record.  Net of an allowance of 1e-3 x threshold, whose spacing is
        # ~1.7e-21, both rises would round to the same number
        s = ellipse_support(PeriodicGrid(1, 32), 1.02, 1.0)
        tr = evolve(FlowState(support=s), 0.05, StepperConfig(), monitor_every=1e-3)
        t = tr.times
        sig = 1e-10 * np.exp(-t)
        sig[3] = sig[2] + 1e-24
        sig[6] = sig[5] + 5e-24
        risen = Trajectory(tr.variant, tr.grid, tr.H,
                           dataclasses.replace(tr.columns, logk_dirichlet=sig))
        for slack in (1e-9, 1e-6, 1e-3):
            m10 = run_monitors(risen, inequality_slack=slack)["M10"]
            assert m10.status == "pass"
            assert m10.worst_t == t[6]
            assert m10.slack == sig[6] - sig[5] == pytest.approx(5e-24, rel=1e-2)

    def test_m5_verdict_and_gap_from_one_rule(self):
        # one length moved below M5's lower bound by twice its allowance
        # fails, by half of it passes; either way the report is that gap at
        # that record
        s = ellipse_support(PeriodicGrid(1, 48), 1.3, 1.0)
        tr = evolve(FlowState(support=s), 0.05, StepperConfig(), monitor_every=1e-3)
        t, L = tr.times, tr.record_series("length")
        lower = np.sqrt(L[0]**2 + 8.0 * math.pi**2 * (t - t[0]))
        allowance = 1e-6 * np.max(L)
        for factor, status in ((2.0, "fail"), (0.5, "pass")):
            moved = L.copy()
            moved[20] = lower[20] - factor * allowance
            m5 = run_monitors(Trajectory(tr.variant, tr.grid, tr.H,
                                         dataclasses.replace(tr.columns, length=moved)))["M5"]
            assert m5.status == status
            assert m5.worst_t == t[20]
            assert m5.slack == pytest.approx(-factor * allowance, rel=1e-6)

    def test_m9_reports_its_larger_residual(self):
        # a strongly non-round datum at coarse cadence, where M9 fails: its
        # report is the larger of its two residuals (the (||h_theta||^2)' and
        # (||h||^2)' laws), at that residual's time
        s = fourier_support(PeriodicGrid(1, 48), 1.0, [(2, 0.3, 0.0)])
        tr = evolve(FlowState(support=s), 0.05, StepperConfig(), monitor_every=1e-3)
        m9 = run_monitors(tr)["M9"]
        assert m9.status == "fail"
        t, sig = tr.times, tr.record_series("logk_dirichlet")
        h0, h1 = tr.record_series("h_seminorms")[:, :2].T
        slope = lambda x: (x[2:] - x[:-2]) / (t[2:] - t[:-2])
        resid1 = np.abs(slope(h1) + 2.0 * sig[1:-1]) / np.maximum(
            np.abs(2.0 * sig[1:-1]), 1e-12 * max(1.0, np.max(h1)))
        resid0 = np.abs(slope(h0) - 4.0 * math.pi) / (4.0 * math.pi)
        worst = max((resid1, resid0), key=np.max)
        assert m9.slack == np.max(worst)
        assert m9.worst_t == t[1 + np.argmax(worst)]

    def test_two_records_not_applicable(self):
        # a short report lists every check of its variant, M12 included
        for variant in VARIANTS:
            st = FlowState(support=circle_support(PeriodicGrid(1, 16), 1.0),
                           variant=variant)
            rep = run_monitors(evolve(st, 0.1, StepperConfig()))
            assert all(c.status == "not-applicable" for c in rep.checks)
            assert {c.note for c in rep.checks} == {"fewer than 3 records"}
            longer = run_monitors(evolve(st, 0.1, StepperConfig(), monitor_every=0.05))
            assert [c.name for c in rep.checks] == [c.name for c in longer.checks]

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
        # a kmax column above the bracket's top 8 omega pi never enters it
        kmax = np.full_like(tr.columns.kmax, 9.0 * np.pi)
        outside = Trajectory(tr.variant, tr.grid, tr.H,
                             dataclasses.replace(tr.columns, kmax=kmax))
        convexity = run_monitors(outside)["M12-convexity"]
        assert convexity.status == "fail"
        assert convexity.note == "never entered the bracket"
        assert math.isnan(convexity.slack) and math.isnan(convexity.worst_t)

    def test_length_cap_finds_the_peak_on_long_runs(self):
        # a normalized 6:1 ellipse has c1 = integral of k dtheta ~ 407.15,
        # above (2 pi)^3, so the cap's ratio rises to a peak before it falls
        # to sqrt(2) pi.  At criterion-09's tau_max ~ 1e108 a uniform grid in
        # tau never samples that peak; a log grid refined around it does
        g = PeriodicGrid(1, 256)
        s = ellipse_support(g, 6.0, 1.0)
        c1 = integrate(curvature(SupportGrid(GridFunction(g, s.values / integrate(s.h)))))

        def ratio(tau):
            return _length_upper_bound(tau, 1.0, c1, 1) / np.sqrt(1.0 + 8.0 * np.pi**2 * tau)

        tau = np.geomspace(1e-12, 1e108, 100001)
        j = int(np.argmax(ratio(tau)))
        peak = float(np.max(ratio(np.linspace(tau[j - 1], tau[j + 1], 100001))))
        cap = rescaled_length_cap(c1, 1e108, 1)
        assert cap == pytest.approx(peak, rel=1e-9)
        assert cap == pytest.approx(4.4603629, abs=1e-7)

    @pytest.mark.parametrize("omega", [1, 2, 3])
    def test_length_cap_closed_form(self, omega):
        # below c1 = (2 omega pi)^3 the ratio never passes its limit; above it
        # the peak's tau is clipped to max(tau_max, 1)
        limit = math.sqrt(2.0) * (omega * math.pi)
        assert rescaled_length_cap(2.0 * omega * math.pi, 1e108, omega) == limit
        for c1 in (1.01 * (2.0 * omega * math.pi)**3, 1e4, 1e7):
            for tau_max in (0.25, 3.0, 1e108):
                top = max(tau_max, 1.0)
                tau = np.concatenate([[0.0], np.geomspace(1e-16, top, 400001)])
                r = _length_upper_bound(tau, 1.0, c1, omega) \
                    / np.sqrt(1.0 + 8.0 * (omega * np.pi)**2 * tau)
                want = max(float(np.max(r)), limit)
                assert rescaled_length_cap(c1, tau_max, omega) == pytest.approx(want, rel=1e-8)

    def test_unnormalized_rescaled_bracket_not_applicable(self):
        # bracket facts presume unit initial rescaled length
        s = ellipse_support(PeriodicGrid(1, 32), 1.3, 1.0)
        cfg = StepperConfig(scheme="semi_implicit", dt_init=5e-4, max_dt=2e-3)
        tr = evolve(FlowState(support=s, variant="rescaled_chainrule"),
                    0.05, cfg, monitor_every=5e-3)
        rep = run_monitors(tr)
        assert rep["M12-length"].status == "not-applicable"
        assert rep["M12-length"].note == "initial rescaled length not normalized to 1"
        assert rep["M12-convexity"].status == "not-applicable"
        assert rep["M12-convexity"].note == "bracket needs the normalized chain-rule run"
        assert rep.passed
        unscaled = [c for c in rep.checks if c.note == "unscaled-flow monitor"]
        assert [c.name for c in unscaled] == ["M1", "M2", "M3", "M4", "M5", "M6", "M7",
                                              "M8", "M8-growth", "M9"]
        assert all(c.status == "not-applicable" for c in unscaled)

    def test_paper_variant_bracket_not_applicable(self):
        # the bracket facts are stated for the chain-rule variant only
        st = FlowState(support=circle_support(PeriodicGrid(1, 16), 1.0),
                       variant="rescaled_paper")
        rep = run_monitors(evolve(st, 0.1, StepperConfig(), monitor_every=0.05))
        assert rep["M12-length"].status == "not-applicable"
        assert rep["M12-length"].note == "paper-literal variant"
        assert rep["M12-convexity"].status == "not-applicable"
        assert rep["M12-convexity"].note == "bracket needs the normalized chain-rule run"

    def test_roundoff_seminorms_not_applicable(self):
        # the omega = 2 rescaled fixed point: every seminorm p >= 1 is round-off
        st = FlowState(support=circle_support(PeriodicGrid(2, 32), 1.0 / (4.0 * math.pi)),
                       variant="rescaled_chainrule")
        cfg = StepperConfig(scheme="semi_implicit", max_dt=0.01)
        rep = run_monitors(evolve(st, 0.05, cfg, monitor_every=0.01))
        assert rep["M12-length"].status == "pass"
        for p in (1, 2, 3, 4):
            check = rep[f"M12-decay-h{p}"]
            assert check.status == "not-applicable"
            assert check.note.startswith("round-off: max ")
            assert " <= 100 x " in check.note

    def test_sigma_threshold_never_reached(self):
        # a strongly non-round datum keeps its sigma energy above 1/(22 omega pi)
        s = fourier_support(PeriodicGrid(1, 32), 1.0, [(2, 0.3, 0.0)])
        tr = evolve(FlowState(support=s), 0.02, StepperConfig(), monitor_every=0.01)
        m10 = run_monitors(tr)["M10"]
        assert m10.status == "pass"
        assert m10.note == "threshold never reached"
        assert math.isnan(m10.slack) and math.isnan(m10.worst_t)

    def test_report_json(self, tmp_path):
        st = FlowState(support=circle_support(PeriodicGrid(1, 16), 1.0))
        tr = evolve(st, 0.2, StepperConfig(), monitor_every=0.01)
        rep = run_monitors(tr)
        p = tmp_path / "monitors.json"
        rep.to_json(p)
        import json
        data = json.loads(p.read_text())
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

    T = 4e-3 * np.arange(401)   # criterion-09's record cadence
    PLATEAU = 2e-23 * (1.5 + np.sin(np.arange(401)))

    def test_noise_floor_of_fast_decay(self):
        # a fall from 0.49 to a round-off plateau in four records, as h4 of an
        # omega = 2 datum takes: the plateau floor stands with four records
        # above it, and the rate is fitted on those four, not on the plateau
        v = self.PLATEAU.copy()
        v[:4] = 0.49, 3.8e-9, 2.1e-14, 2.6e-19
        assert np.max(v[4:]) < noise_floor(v) < v[3]
        rate, used = fit_decay_rate(self.T, v)
        assert used == 4
        assert rate == pytest.approx(np.polyfit(self.T[:4], -np.log(v[:4]), 1)[0],
                                     rel=1e-12)

    def test_series_that_never_decays_fits_no_decay(self):
        # a rising series, and a plateau that rises in its last record after a
        # fast fall, keep the tiny fallback floor and fit a negative rate
        jump = self.PLATEAU.copy()
        jump[:2] = 0.49, 3.8e-9
        jump[-1] = 1e-10
        t = np.linspace(0, 3, 50)
        for ts, v in ((t, np.exp(t)), (self.T, jump)):
            assert noise_floor(v) < np.min(v)
            rate, _ = fit_decay_rate(ts, v)
            assert rate < 0


def _rescaled_decay(omega, modes):
    """The M12-decay checks h1-h4 of constant 1 plus modes on n = 48 omega
    nodes, normalized to L0 = 1 and run through criterion-09's pipeline."""
    g = PeriodicGrid(omega=omega, n=48 * omega)
    s = fourier_support(g, 1.0, modes)
    s = SupportGrid(GridFunction(g, s.values / integrate(s.h)))
    _, variant, t_end, cfg, every = verify._RUNS["rescaled"]
    tr = evolve(FlowState(support=s, variant=variant), t_end, cfg, monitor_every=every)
    assert np.max(np.abs(tr.final.support.values - tr.final.support.values.mean())) <= 1e-14
    rep = run_monitors(tr)
    return [rep[f"M12-decay-h{p}"] for p in (1, 2, 3, 4)]


class TestDecayAtCoarseCadence:
    """Converged runs whose seminorms reach the round-off plateau within a
    few records of the 4e-3 cadence: each rate is fitted on the records
    above the plateau, so M12-decay passes with the live rate (over 1000
    here), where a fit over the plateau read a rate of either sign."""

    @pytest.mark.parametrize("omega, modes", [
        (2, [(8, -0.0137, 0.0)]),   # 1 - 0.0137 cos(4 theta) on the 4 pi grid
        (2, [(8, 0.0137, 0.0)]),
        (3, [(6, 8e-10, 0.0)]),     # a xi = 2 amplitude of 8e-10
    ])
    def test_decay_passes_with_live_rate(self, omega, modes):
        for check in _rescaled_decay(omega, modes):
            assert check.status == "pass", check
            assert check.slack > 1000.0, check

    def test_one_record_above_plateau_is_not_applicable(self):
        # h4 of a xi = 2 amplitude of 1e-10 at omega = 3 falls to its plateau
        # within one record: no rate to fit, and the note names the cadence
        *fitted, h4 = _rescaled_decay(3, [(6, 1e-10, 0.0)])
        assert all(c.status == "pass" and c.slack > 1000.0 for c in fitted)
        assert h4.status == "not-applicable"
        assert h4.note == "falls to its plateau within one record, at cadence 0.004"
