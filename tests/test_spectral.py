import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow.errors import UnsupportedOrderError
from entroflow.spectral import (GridFunction, PeriodicGrid, deriv, integrate,
                                interpolate, lowpass)


def gf(omega, n, fn):
    grid = PeriodicGrid(omega=omega, n=n)
    return GridFunction(grid, fn(grid.nodes))


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


class TestInterpolate:
    def test_band_limited_point(self):
        f = gf(1, 16, np.sin)
        assert interpolate(f, [math.pi / 7])[0] == pytest.approx(
            math.sin(math.pi / 7), abs=1e-14)

    def test_constant(self):
        f = gf(1, 8, lambda th: np.full_like(th, 2.5))
        assert interpolate(f, [0.3, 4.0]) == pytest.approx([2.5, 2.5], abs=1e-14)

    def test_cos3(self):
        f = gf(1, 32, lambda th: np.cos(3 * th))
        assert interpolate(f, [0.4])[0] == pytest.approx(math.cos(1.2), abs=1e-13)

    def test_reproduces_nodes(self):
        f = band_limited(PeriodicGrid(omega=2, n=32), 3)
        vals = interpolate(f, f.grid.nodes)
        assert np.max(np.abs(vals - f.values)) < 1e-12

    def test_points_reduced_mod_period(self):
        f = band_limited(PeriodicGrid(omega=1, n=16), 4)
        a = interpolate(f, [0.7])
        b = interpolate(f, [0.7 + 2 * math.pi])
        assert a[0] == pytest.approx(b[0], abs=1e-12)


class TestLowpass:
    def test_identity(self):
        f = band_limited(PeriodicGrid(omega=1, n=16), 5)
        assert np.max(np.abs(lowpass(f, 1.0).values - f.values)) == 0.0

    def test_mode_bookkeeping(self):
        g = PeriodicGrid(omega=1, n=16)
        f = GridFunction(g, np.cos(g.nodes) + np.cos(7 * g.nodes))
        out = lowpass(f, 0.5)  # keeps |m| <= 4
        assert np.max(np.abs(out.values - np.cos(g.nodes))) < 1e-13

    def test_constant_unchanged(self):
        f = gf(1, 8, lambda th: np.ones_like(th))
        assert np.max(np.abs(lowpass(f, 0.1).values - 1.0)) < 1e-14

    def test_range_check(self):
        f = gf(1, 8, np.cos)
        with pytest.raises(ValueError):
            lowpass(f, 0.0)
        with pytest.raises(ValueError):
            lowpass(f, 1.5)
