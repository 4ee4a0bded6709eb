import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import flow, spectral
from entroflow.errors import UnsupportedOrderError
from entroflow.spectral import (GridFunction, PeriodicGrid, integrate,
                                integrate_values, trig_eval_values)


def gf(omega, n, fn):
    grid = PeriodicGrid(omega=omega, n=n)
    return GridFunction(grid, fn(grid.nodes))


def deriv(f, order):
    """The order-th spectral derivative of f, as a GridFunction."""
    return f.copy_with(
        spectral.periodic_derivs_values(f.values, f.grid.period, (order,))[0])


def band_limited(grid, seed, max_mode=None):
    rng = np.random.default_rng(seed)
    n = grid.n
    max_mode = max_mode or n // 4
    th = grid.nodes
    v = np.zeros(n)
    for m in range(0, max_mode + 1):
        a, b = rng.standard_normal(2) / (1 + m)
        v += a * np.cos(m * th / grid.omega) + b * np.sin(m * th / grid.omega)
    return GridFunction(grid, v)


class TestGrid:
    def test_nodes(self):
        g = PeriodicGrid(omega=2, n=16)
        assert g.period == pytest.approx(4 * math.pi)
        assert g.nodes[0] == 0.0
        assert np.allclose(np.diff(g.nodes), g.period / 16)

    @pytest.mark.parametrize("omega,n", [(0, 16), (1, 7), (1, 6), (1, 9)])
    def test_invalid(self, omega, n):
        with pytest.raises(ValueError):
            PeriodicGrid(omega=omega, n=n)

    @pytest.mark.parametrize("omega", [1, 2, 3])
    def test_wavenumbers_are_the_derivative_wavenumbers(self, omega):
        # every spectral derivative multiplies the rfft by powers of i*xi
        # with xi = 2*pi*rfftfreq(n, period/n); m/omega differs in the last bits
        for n in range(8, 1026, 2):
            g = PeriodicGrid(omega=omega, n=n)
            xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=g.period / n)
            assert np.array_equal(g.wavenumbers, xi), n

    def test_values_must_be_finite(self):
        g = PeriodicGrid(omega=1, n=8)
        with pytest.raises(ValueError):
            GridFunction(g, np.array([1.0] * 7 + [np.nan]))


class TestTransforms:
    # spectral.rfft/irfft call numpy's private pocketfft kernels; these pin
    # their bits to np.fft's, and fail first if numpy changes those kernels
    SIZES = [*range(8, flow.DENSE_MAX_N + 1, 2), 512, 1000, 1024, 2048, 4096,
             9, 15, 101, 255]

    @pytest.mark.parametrize("n", SIZES)
    def test_bit_identical_to_np_fft(self, n):
        rng = np.random.default_rng(n)
        for shape in ((n,), (2, n), (5, n)):
            x = rng.standard_normal(shape)
            c = spectral.rfft(x)
            assert np.array_equal(c, np.fft.rfft(x)), shape
            assert np.array_equal(spectral.irfft(c, n), np.fft.irfft(c, n=n)), shape

    @pytest.mark.parametrize("n", [8, 48, 1024, 9, 101])
    def test_rfft_into_buffer(self, n):
        # out= takes the spectrum (and irfft's samples) in place of a new
        # array, with the same bits
        rng = np.random.default_rng(n)
        for shape in ((n,), (3, n)):
            x = rng.standard_normal(shape)
            buf = np.empty(shape[:-1] + (n // 2 + 1,), complex)
            assert spectral.rfft(x, out=buf) is buf
            assert np.array_equal(buf, np.fft.rfft(x)), shape
            back = np.empty(shape)
            assert spectral.irfft(buf, n, out=back) is back
            assert np.array_equal(back, np.fft.irfft(buf, n=n)), shape

    def test_factors_are_shared_and_read_only(self):
        # np.fft's factors 1 and 1/n reach the kernels as 0-d arrays that
        # every transform shares: one 1, and one 1/n per n
        inv = spectral._inverse_factor(48)
        assert spectral._inverse_factor(48) is inv
        assert spectral._inverse_factor(64) is not inv
        assert inv.shape == () and inv.item() == 1.0 / 48
        assert spectral._ONE.shape == () and spectral._ONE.item() == 1.0
        for fac in (spectral._ONE, inv):
            with pytest.raises(ValueError):
                fac[()] = 2.0

    @pytest.mark.parametrize("n", [512, 1000, 1024, 2048, 4096])
    def test_rfft_operator_on_columns(self, n):
        # D2I @ x of an (n, 7) x transforms its transposed view, with the bits
        # of np.fft along axis 0
        D2I = flow.workspace(PeriodicGrid(omega=1, n=n)).D2I
        sym = D2I.view(np.ndarray)[:, None]
        x = np.random.default_rng(n).standard_normal((n, 7))
        want = np.fft.irfft(sym * np.fft.rfft(x, axis=0), n, axis=0)
        assert np.array_equal(D2I @ x, want)


class TestDeriv:
    def test_cos_second_derivative(self):
        f = gf(1, 16, np.cos)
        d2 = deriv(f, 2)
        assert np.max(np.abs(d2.values + np.cos(f.grid.nodes))) < 1e-12

    def test_constant(self):
        f = gf(1, 16, lambda th: np.full_like(th, 3.0))
        assert np.max(np.abs(deriv(f, 1).values)) < 1e-13

    def test_half_mode_omega2(self):
        # cos(theta/2) lives on the omega=2 grid; second derivative is
        # -(1/4) cos(theta/2) by the chain rule
        f = gf(2, 32, lambda th: np.cos(th / 2))
        d2 = deriv(f, 2)
        assert np.max(np.abs(d2.values + 0.25 * np.cos(f.grid.nodes / 2))) < 1e-13

    def test_order_zero_is_identity(self):
        f = band_limited(PeriodicGrid(omega=1, n=32), 0)
        assert np.array_equal(deriv(f, 0).values, f.values)

    def test_order_limit(self):
        f = gf(1, 16, np.cos)
        with pytest.raises(UnsupportedOrderError):
            deriv(f, 9)
        with pytest.raises(UnsupportedOrderError):
            deriv(f, -1)

    def test_composition_matches_second(self):
        f = band_limited(PeriodicGrid(omega=1, n=64), 1)
        a = deriv(deriv(f, 1), 1).values
        b = deriv(f, 2).values
        assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))

    def test_spectral_accuracy(self):
        # exp(sin theta) is analytic: node errors drop faster than any
        # fixed power of 1/n
        errs = []
        for n in (8, 16, 32):
            g = PeriodicGrid(omega=1, n=n)
            f = GridFunction(g, np.exp(np.sin(g.nodes)))
            exact = np.cos(g.nodes) * np.exp(np.sin(g.nodes))
            errs.append(np.max(np.abs(deriv(f, 1).values - exact)))
        assert errs[1] < errs[0] * 2.0**-8
        assert errs[2] < 1e-12


class TestDerivFactors:
    @staticmethod
    def factor(xi, p):
        # (i xi)^p with the Nyquist mode zeroed for odd p
        fac = (1j * xi) ** p
        if p % 2 == 1:
            fac[-1] = 0.0
        return fac

    @pytest.mark.parametrize("omega", [1, 2])
    def test_match_per_order_formula(self, omega):
        n = 64
        g = PeriodicGrid(omega=omega, n=n)
        xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=g.period / n)
        orders = tuple(range(spectral.MAX_DERIV_ORDER + 1))
        th = g.nodes / omega
        # analytic data, whose top modes sit at round-off: the denoised
        # threshold zeroes some of them, differently per row
        one = np.exp(np.cos(th))
        stack = np.stack([np.exp(a * np.cos(th + b))
                          for a, b in ((0.5, 0.0), (1.0, 0.3), (2.0, 1.0))])
        for x in (one, stack):
            c = np.fft.rfft(x)
            got = spectral.periodic_derivs_values(x, g.period, orders)
            for p, d in zip(orders, got):
                want = x if p == 0 else np.fft.irfft(c * self.factor(xi, p), n)
                assert np.array_equal(d, want), (x.shape, p)
            mag = np.abs(c)
            c[mag < 1e-15 * mag.max(axis=-1, keepdims=True)] = 0.0
            got = spectral.denoised_deriv_values(x, g.period, orders)
            for p, d in zip(orders, got):
                want = np.fft.irfft(c * self.factor(xi, p), n)
                assert np.array_equal(d, want), (x.shape, p)

    def test_cached_factor_is_shared_and_read_only(self):
        g = PeriodicGrid(omega=1, n=32)
        fac = spectral._deriv_factor(32, g.period, 3)
        assert spectral._deriv_factor(32, g.period, 3) is fac
        assert np.array_equal(fac, self.factor(g.wavenumbers, 3))
        with pytest.raises(ValueError):
            fac[0] = 1.0


class TestIntegrate:
    def test_constant(self):
        assert integrate(gf(1, 8, lambda th: np.ones_like(th))) == pytest.approx(
            2 * math.pi)

    def test_cos_squared(self):
        # closed form: integral of cos^2 over a period is pi
        f = gf(1, 16, lambda th: np.cos(th) ** 2)
        assert integrate(f) == pytest.approx(math.pi, abs=1e-13)

    def test_omega3_constant(self):
        assert integrate(gf(3, 24, lambda th: np.ones_like(th))) == pytest.approx(
            6 * math.pi)

    def test_deriv_integrates_to_zero(self):
        f = band_limited(PeriodicGrid(omega=2, n=48), 2)
        assert abs(integrate(deriv(f, 1))) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_integration_by_parts(self, s1, s2):
        grid = PeriodicGrid(omega=1, n=32)
        f = band_limited(grid, s1)
        g = band_limited(grid, s2)
        lhs = integrate(GridFunction(grid, f.values * deriv(g, 1).values))
        rhs = integrate(GridFunction(grid, g.values * deriv(f, 1).values))
        assert abs(lhs + rhs) < 1e-9

    def test_values_rows_equal_one_function_calls(self):
        # integrate_values is the rectangle rule along the last axis, row by
        # row on a stack; integrate is its one-function float
        grid = PeriodicGrid(omega=2, n=48)
        H = np.stack([band_limited(grid, seed).values for seed in range(4)])
        got = integrate_values(H, grid.period)
        assert got.shape == (4,)
        for j, h in enumerate(H):
            one = integrate(GridFunction(grid, h))
            assert type(one) is float
            assert got[j] == one == np.sum(h) * (grid.period / grid.n)


class TestInterpolate:
    """trig_eval_values, the trigonometric interpolant at arbitrary points."""

    def test_band_limited_point(self):
        f = gf(1, 16, np.sin)
        v = trig_eval_values(f.values, f.grid.period, [math.pi / 7])
        assert v[0] == pytest.approx(math.sin(math.pi / 7), abs=1e-14)

    def test_constant(self):
        f = gf(1, 8, lambda th: np.full_like(th, 2.5))
        v = trig_eval_values(f.values, f.grid.period, [0.3, 4.0])
        assert v == pytest.approx([2.5, 2.5], abs=1e-14)

    def test_cos3(self):
        f = gf(1, 32, lambda th: np.cos(3 * th))
        v = trig_eval_values(f.values, f.grid.period, [0.4])
        assert v[0] == pytest.approx(math.cos(1.2), abs=1e-13)

    def test_reproduces_nodes(self):
        f = band_limited(PeriodicGrid(omega=2, n=32), 3)
        vals = trig_eval_values(f.values, f.grid.period, f.grid.nodes)
        assert np.max(np.abs(vals - f.values)) < 1e-12

    def test_points_reduced_mod_period(self):
        f = band_limited(PeriodicGrid(omega=1, n=16), 4)
        a = trig_eval_values(f.values, f.grid.period, [0.7])
        b = trig_eval_values(f.values, f.grid.period, [0.7 + 2 * math.pi])
        assert a[0] == pytest.approx(b[0], abs=1e-12)
