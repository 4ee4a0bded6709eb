import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entroflow
from entroflow.errors import CurveIngestionError, NotLocallyConvexError
from entroflow import graph
from entroflow.spectral import (GridFunction, PeriodicGrid, integrate,
                                periodic_derivs_values)
from entroflow.support import (CurveSample, SupportGrid, circle_support,
                               curvature, curve_points, ellipse_support,
                               fourier_support, read_curve_file, read_support_file, reconstruct,
                               support_from_curve)


# (omega, polyline points m, grid n, h) of the immersed polyline tests
IMMERSED = [(2, 256, 128, lambda th: 0.5 + 0.02 * np.cos(1.5 * th)),
            (3, 384, 192, lambda th: 0.4 + 0.01 * np.sin(4 * th / 3))]


def grid(omega=1, n=64):
    return PeriodicGrid(omega=omega, n=n)


def support(values_fn, omega=1, n=64):
    g = grid(omega, n)
    return SupportGrid(GridFunction(g, values_fn(g.nodes)))


class TestValidation:
    def test_positive_required(self):
        g = grid()
        with pytest.raises(NotLocallyConvexError):
            SupportGrid(GridFunction(g, np.cos(g.nodes)))

    def test_convexity_required(self):
        with pytest.raises(NotLocallyConvexError) as exc:
            support(lambda th: 1 + 0.8 * np.cos(2 * th))
        assert exc.value.margin == pytest.approx(-1.4, abs=1e-10)

    def test_margin_values(self):
        # h = 1 + 0.2 cos 2theta has h'' + h = 1 - 0.6 cos 2theta, min 0.4
        s = support(lambda th: 1 + 0.2 * np.cos(2 * th))
        assert (1.0 / curvature(s).values).min() == pytest.approx(0.4, abs=1e-12)
        circle = circle_support(grid(), 2.5)
        assert (1.0 / curvature(circle).values).min() == pytest.approx(2.5)

    def test_margin_on_invalid_raw_data(self):
        g = grid()
        f = GridFunction(g, 1 + 0.8 * np.cos(2 * g.nodes))
        with pytest.raises(NotLocallyConvexError) as exc:
            curvature(SupportGrid(f, validate=False))
        assert exc.value.margin == pytest.approx(-1.4, abs=1e-10)


class TestCurvature:
    def test_circle(self):
        k = curvature(circle_support(grid(), 2.0))
        assert np.max(np.abs(k.values - 0.5)) < 1e-13

    def test_translated_circle(self):
        # the cos-theta mode is in the kernel of (d^2/dtheta^2 + 1)
        k = curvature(support(lambda th: 1 + 0.1 * np.cos(th)))
        assert np.max(np.abs(k.values - 1.0)) < 1e-12

    def test_two_mode(self):
        s = support(lambda th: 1 + 0.2 * np.cos(2 * th))
        k = curvature(s)
        assert k.values[0] == pytest.approx(2.5, abs=1e-12)
        assert k.values[s.n // 4] == pytest.approx(0.625, abs=1e-12)

    def test_scale_inverse(self):
        s = support(lambda th: 1 + 0.2 * np.cos(2 * th) + 0.05 * np.sin(3 * th))
        lam = 2.7
        s2 = SupportGrid(GridFunction(s.grid, lam * s.values))
        assert np.allclose(curvature(s2).values, curvature(s).values / lam,
                           rtol=1e-13)


class TestReconstruct:
    def test_unit_circle(self):
        c = reconstruct(circle_support(grid(), 1.0))
        r = np.hypot(c.points[:, 0], c.points[:, 1])
        assert np.max(np.abs(r - 1.0)) < 1e-13

    def test_translated_unit_circle(self):
        # brute force: every point at distance 1 from (0.1, 0)
        c = reconstruct(support(lambda th: 1 + 0.1 * np.cos(th)))
        d = np.hypot(c.points[:, 0] - 0.1, c.points[:, 1])
        assert np.max(np.abs(d - 1.0)) < 1e-12

    def test_doubly_covered_circle(self):
        s = circle_support(grid(omega=2, n=64), 1.0)
        c = reconstruct(s)
        assert np.max(np.abs(c.points[:32] - c.points[32:])) < 1e-13

    def test_support_recovered(self):
        s = support(lambda th: 1 + 0.15 * np.cos(2 * th))
        c = reconstruct(s)
        th = s.grid.nodes
        h = c.points[:, 0] * np.cos(th) + c.points[:, 1] * np.sin(th)
        assert np.max(np.abs(h - s.values)) < 1e-13

    def test_curve_points_is_reconstruct_and_scene_formula(self):
        # one formula gamma = h*u + h_theta*u_perp behind reconstruct and the
        # graph scenes' base points, bit for bit
        s = support(lambda th: 1 + 0.15 * np.cos(2 * th) + 0.05 * np.sin(3 * th))
        th = s.grid.nodes
        h1 = periodic_derivs_values(s.values, s.grid.period, (1,))[0]
        pts = curve_points(s.values, h1, th)
        assert pts.shape == (s.n, 2)
        assert np.array_equal(pts, reconstruct(s).points)
        k = curvature(s).values
        zero = np.zeros(s.n)
        scene = graph._scene(th, 2.0 * math.pi, th, s.values, h1, k, zero, zero,
                             zero)
        assert np.array_equal(pts, scene.points)

    @pytest.mark.parametrize("omega,n", [(1, 48), (1, 50), (2, 96)])
    def test_stack_rows_match_one_row_calls(self, omega, n):
        g = grid(omega, n)
        th = g.nodes
        H = np.stack([1 + a * np.cos(m * th / omega) + b * np.sin(th / omega)
                      for a, b, m in [(0.0, 0.0, 1), (0.1, 0.05, 2), (0.05, -0.2, 3),
                                      (0.02, 0.3, 5)]])
        c = reconstruct(SupportGrid(GridFunction(g, H)))
        assert c.points.shape == (len(H), n, 2)
        for j, h in enumerate(H):
            one = reconstruct(SupportGrid(GridFunction(g, h)))
            assert np.array_equal(c.points[j], one.points)
            assert np.array_equal(c.thetas, one.thetas)

    def test_stack_raises_as_first_nonconvex_row(self):
        g = grid(1, 48)
        th = g.nodes
        good = 1 + 0.1 * np.cos(2 * th)
        bad = [1 + 0.5 * np.cos(2 * th), 1 + 0.4 * np.cos(3 * th + 0.3)]
        stack = SupportGrid(GridFunction(g, np.stack([good, bad[0], good, bad[1]])),
                            validate=False)
        with pytest.raises(NotLocallyConvexError) as got:
            reconstruct(stack)
        with pytest.raises(NotLocallyConvexError) as want:
            reconstruct(SupportGrid(GridFunction(g, bad[0]), validate=False))
        assert str(got.value) == str(want.value)
        assert (got.value.node, got.value.margin) == (want.value.node, want.value.margin)


class TestIngestion:
    def test_circle_polyline_embedded(self):
        phi = np.arange(4096) * 2 * math.pi / 4096
        pts = 3.0 * np.stack([np.cos(phi), np.sin(phi)], axis=1)
        s = support_from_curve(pts, omega=1, n=64)
        # inscribed-polygon sup error is ~ 3*(pi/m)^2/2
        assert np.max(np.abs(s.values - 3.0)) < 2e-6

    def test_translated_circle_closed_form(self):
        phi = np.arange(8192) * 2 * math.pi / 8192
        pts = np.stack([0.5 + np.cos(phi), np.sin(phi)], axis=1)
        s = support_from_curve(pts, omega=1, n=64)
        expect = 1 + 0.5 * np.cos(s.grid.nodes)
        assert np.max(np.abs(s.values - expect)) < 2e-6

    def test_ellipse_closed_form(self):
        phi = np.arange(8192) * 2 * math.pi / 8192
        pts = np.stack([2.0 * np.cos(phi), np.sin(phi)], axis=1)
        s = support_from_curve(pts, omega=1, n=64)
        th = s.grid.nodes
        expect = np.sqrt(4 * np.cos(th) ** 2 + np.sin(th) ** 2)
        assert np.max(np.abs(s.values - expect)) < 5e-6

    def test_immersed_curve_sample(self):
        phi = np.arange(1024) * 2 * math.pi / 1024
        pts = np.stack([0.5 + np.cos(phi), np.sin(phi)], axis=1)
        thetas = phi  # outward-normal angle equals phi for this circle
        c = CurveSample(points=pts, thetas=thetas)
        s = support_from_curve(c, omega=1, n=64)
        expect = 1 + 0.5 * np.cos(s.grid.nodes)
        assert np.max(np.abs(s.values - expect)) < 1e-6

    def test_origin_outside_recenters(self):
        phi = np.arange(4096) * 2 * math.pi / 4096
        pts = np.stack([10.0 + np.cos(phi), np.sin(phi)], axis=1)
        s = support_from_curve(pts, omega=1, n=32)
        assert np.max(np.abs(s.values - 1.0)) < 1e-4

    def test_nonconvex_rejected(self):
        t = np.arange(512) * 2 * math.pi / 512
        pts = np.stack([(1 + 0.5 * np.cos(3 * t)) * np.cos(t),
                        (1 + 0.5 * np.cos(3 * t)) * np.sin(t)], axis=1)
        with pytest.raises(CurveIngestionError):
            support_from_curve(pts, omega=1, n=64)

    @pytest.mark.parametrize("omega,m,n,fn", IMMERSED, ids=["omega2", "omega3"])
    def test_immersed_polyline(self, omega, m, n, fn):
        # a raw polyline's outward-normal angles are estimated from its points
        pts = reconstruct(support(fn, omega, m)).points
        s = support_from_curve(pts, omega=omega, n=n)
        assert np.max(np.abs(s.values - fn(s.grid.nodes))) < 1e-6

    @pytest.mark.parametrize("omega,m,n,fn", IMMERSED, ids=["omega2", "omega3"])
    def test_clockwise_immersed_polyline(self, omega, m, n, fn):
        # a clockwise polyline gives the h of its counterclockwise order,
        # whether it ends or starts at the first counterclockwise point
        pts = reconstruct(support(fn, omega, m)).points
        ccw = support_from_curve(pts, omega=omega, n=n).values
        assert np.array_equal(support_from_curve(pts[::-1], omega=omega, n=n).values, ccw)
        cw = np.roll(pts[::-1], 1, axis=0)
        assert np.max(np.abs(support_from_curve(cw, omega=omega, n=n).values - ccw)) < 1e-14

    def test_round_trip(self):
        s = support(lambda th: 1 + 0.1 * np.cos(2 * th) + 0.03 * np.sin(3 * th))
        back = support_from_curve(reconstruct(s), omega=1, n=s.n)
        assert np.max(np.abs(back.values - s.values)) < 1e-14

    def test_round_trip_omega2(self):
        s = support(lambda th: 0.5 + 0.02 * np.cos(1.5 * th), omega=2, n=64)
        back = support_from_curve(reconstruct(s), omega=2, n=64)
        assert np.max(np.abs(back.values - s.values)) < 1e-14


class TestLengthTwoWays:
    def test_length_identity(self):
        s = support(lambda th: 1 + 0.2 * np.cos(2 * th) + 0.05 * np.sin(3 * th))
        k = curvature(s)
        L1 = integrate(s.h)
        L2 = integrate(k.copy_with(1.0 / k.values))
        assert abs(L1 - L2) <= 1e-10 * abs(L1)


@settings(max_examples=20, deadline=None)
@given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
def test_translation_equivariance(a, b):
    g = grid(n=32)
    base = 1 + 0.1 * np.cos(2 * g.nodes)
    s0 = SupportGrid(GridFunction(g, base))
    s1 = SupportGrid(GridFunction(
        g, base + a * np.cos(g.nodes) + b * np.sin(g.nodes)))
    assert np.max(np.abs(curvature(s1).values - curvature(s0).values)) < 1e-11
    shift = reconstruct(s1).points - reconstruct(s0).points
    assert np.max(np.abs(shift - np.array([a, b]))) < 1e-11


class TestBuildersAndFiles:
    def test_ellipse_support_formula(self):
        s = ellipse_support(grid(), 2.0, 1.0)
        th = s.grid.nodes
        assert np.allclose(s.values, np.sqrt(4 * np.cos(th)**2 + np.sin(th)**2))

    def test_fourier_builder_omega(self):
        s = fourier_support(grid(omega=2, n=32), 1.0, [(1, 0.1, 0.0)])
        assert s.values[0] == pytest.approx(1.1)

    def test_fourier_modes_below_half_n(self):
        # integer-valued m with |m| < n/2 is accepted, m = n/2 refused
        s = fourier_support(grid(n=32), 1.0, [(15, 1e-4, 0.0), (-2, 0.1, 0.0),
                                              (2.0, 0.0, 0.1)])
        assert s.values[0] == pytest.approx(1.1001)
        with pytest.raises(ValueError, match="m=16 "):
            fourier_support(grid(n=32), 1.0, [(16, 1e-4, 0.0)])

    def test_fourier_mode_bool_refused(self):
        # float(True) is 1.0, an integer: a bool is refused before that
        with pytest.raises(ValueError, match="m=True "):
            fourier_support(grid(n=32), 1.0, [(True, 1e-4, 0.0)])

    def test_curve_file_roundtrip(self, tmp_path):
        phi = np.arange(1024) * 2 * math.pi / 1024
        pts = np.stack([2 * np.cos(phi), np.sin(phi)], axis=1)
        p = tmp_path / "curve.txt"
        np.savetxt(p, pts)
        s = support_from_curve(read_curve_file(p), omega=1, n=32)
        assert s.n == 32

    def test_support_file(self, tmp_path):
        p = tmp_path / "h.txt"
        with open(p, "w") as fh:
            for _ in range(16):
                fh.write("2.0\n")
        s = read_support_file(p, omega=1)
        assert s.n == 16
        assert np.all(s.values == 2.0)


def test_package_import_leaves_scipy_unloaded():
    # scipy is only needed by immersed curve ingestion and is slow to import
    src = str(Path(entroflow.__file__).resolve().parents[1])
    code = "import sys, entroflow; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], cwd=src).returncode == 0
