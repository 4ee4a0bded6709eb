import dataclasses

import numpy as np
import pytest

from entroflow import graph
from entroflow.errors import DegenerateGraphError, NotLocallyConvexError
from entroflow.flow import rhs
from entroflow.graph import (band_limited_rho, build_bundle,
                             check_parametrization_identity, composite_support,
                             crosscheck,
                             operator_split, scene_circle, scene_ellipse,
                             velocity_graph, PAIR_WEIGHTS)
from entroflow.spectral import GridFunction, PeriodicGrid, trig_eval_values
from entroflow.support import SupportGrid, fourier_support


def sin_rho(scene, amp=0.05, mode=1):
    x = 2 * np.pi * scene.u / scene.length
    return amp * np.sin(mode * x)


class TestSceneValidation:
    def test_amplitude_guard(self):
        sc = scene_circle(1.0, 64)
        with pytest.raises(DegenerateGraphError):
            sc.with_rho(np.full(64, 1.0))  # |rho| must stay below min(1/k0) = 1

    def test_negative_curvature_rejected(self):
        sc = scene_circle(1.0, 64)
        with pytest.raises(DegenerateGraphError):
            type(sc)(sc.u, sc.points, sc.tangents, sc.normals, -sc.k0, sc.k0_u,
                     sc.k0_uu, sc.k0_u3, sc.length, sc.rho)


class TestRequireResolved:
    def test_nan_curvature_fails(self):
        # a NaN in k0 makes the whole spectrum and its tail NaN, which no
        # comparison "tail > tol" catches
        base = scene_circle(1.0, 64)
        k0 = base.k0.copy()
        k0[5] = np.nan
        bad = dataclasses.replace(base, k0=k0)
        with pytest.raises(ValueError, match="spectral tail nan"):
            graph.require_resolved(bad)


class TestBundle:
    def test_base_circle(self):
        sc = scene_circle(1.0, 128)
        b = build_bundle(sc)
        # gamma_uu points along the inner normal with magnitude 1
        assert np.max(np.abs(b.ip_uu_N - 1.0)) < 1e-12
        assert np.max(np.abs(b.ip_uu_T)) < 1e-12
        # fourth derivative of (cos u, sin u) has <gamma_u4, N> = -1
        assert np.max(np.abs(b.ip_u4_N + 1.0)) < 1e-12
        assert b.max_direct_residual < 1e-12

    def test_concentric_circle(self):
        c = 0.4
        sc = scene_circle(1.0, 128).with_rho(np.full(128, c))
        b = build_bundle(sc)
        # composite radius 1+c traversed at base arclength: |gamma_u| = 1+c,
        # k = 1/(1+c), <gamma_uu, N> = k |gamma_u|^2 = 1+c
        assert np.max(np.abs(b.g - (1 + c))) < 1e-12
        assert np.max(np.abs(b.ip_uu_N - (1 + c))) < 1e-12
        r = np.hypot(b.gamma[:, 0], b.gamma[:, 1])
        assert np.max(np.abs(r - (1 + c))) < 1e-12
        assert b.max_direct_residual < 1e-12

    def test_frame_orthonormal(self):
        sc = scene_ellipse(2.0, 1.0, 128)
        sc = sc.with_rho(band_limited_rho(sc, seed=11))
        b = build_bundle(sc)
        assert np.max(np.abs(np.sum(b.T**2, axis=1) - 1)) < 1e-12
        assert np.max(np.abs(np.sum(b.N**2, axis=1) - 1)) < 1e-12
        assert np.max(np.abs(np.sum(b.T * b.N, axis=1))) < 1e-12

    def test_perp_tan_decomposition(self):
        sc = scene_ellipse(2.0, 1.0, 128)
        sc = sc.with_rho(band_limited_rho(sc, seed=3))
        b = build_bundle(sc)
        total = np.sum(b.gamma_uu**2, axis=1)
        resid = np.abs(b.sq_uu_perp + b.sq_uu_tan - total)
        assert np.max(resid) <= 1e-10 * np.max(total)

    def test_sin_rho_ellipse_matches_direct(self):
        sc = scene_ellipse(2.0, 1.0, 256)
        sc = sc.with_rho(sin_rho(sc))
        assert build_bundle(sc).max_direct_residual <= 1e-8

    def test_flipping_convention_breaks_direct_check(self):
        # the closed forms hold in the frame with N0 the inner normal: the
        # same composite curve written over the outer normal, with rho
        # negated, must fail the bundle-versus-direct check
        sc = scene_circle(1.0, 128)
        sc = sc.with_rho(sin_rho(sc))
        flipped = dataclasses.replace(sc, normals=-sc.normals, rho=-sc.rho)
        assert np.array_equal(flipped.composite_points, sc.composite_points)
        good = build_bundle(sc).max_direct_residual
        bad = build_bundle(flipped).max_direct_residual
        assert good < 1e-10
        assert bad > 1e-3


class TestVelocity:
    def test_unit_circle(self):
        v = velocity_graph(scene_circle(1.0, 64))
        assert np.max(np.abs(v - 1.0)) < 1e-12

    def test_concentric(self):
        sc = scene_circle(1.0, 64).with_rho(np.full(64, 0.5))
        v = velocity_graph(sc)
        assert np.max(np.abs(v - 2.0 / 3.0)) < 1e-12

    def test_matches_support_velocity(self):
        # independent oracle: the theta-side velocity F = k'' + k of the
        # composite, interpolated at the matched tangent angles
        sc = scene_circle(1.0, 256)
        sc = sc.with_rho(sin_rho(sc))
        v = velocity_graph(sc)
        b = build_bundle(sc)
        sup = composite_support(sc, 256)
        F = rhs(sup, "unscaled")
        nout = -b.N
        theta = np.unwrap(np.arctan2(nout[:, 1], nout[:, 0]))
        Fat = trig_eval_values(F.values, sup.grid.period, theta)
        assert np.max(np.abs(v - Fat)) <= 1e-6

    def test_matches_support_velocity_ellipse(self):
        # the composite's support spectrum in theta is wider than in u, so
        # the theta-side fourth derivative needs n = 512 to resolve it
        sc = scene_ellipse(2.0, 1.0, 256)
        sc = sc.with_rho(band_limited_rho(sc, seed=5))
        v = velocity_graph(sc)
        b = build_bundle(sc)
        sup = composite_support(sc, 512)
        F = rhs(sup, "unscaled")
        nout = -b.N
        theta = np.unwrap(np.arctan2(nout[:, 1], nout[:, 0]))
        Fat = trig_eval_values(F.values, sup.grid.period, theta)
        assert np.max(np.abs(v - Fat)) <= 1e-5


class TestOperatorSplit:
    def test_zero_rho_pure_f_side(self):
        sc = scene_circle(1.0, 64)
        sp = operator_split(sc, build_bundle(sc))
        assert np.max(np.abs(sp.a_applied)) < 1e-14
        total_f = -sum(w * f for w, f in zip(PAIR_WEIGHTS, sp.f_parts))
        v = velocity_graph(sc)
        assert np.max(np.abs(total_f - v)) < 1e-12

    def test_concentric_identity(self):
        sc = scene_circle(1.0, 64).with_rho(np.full(64, 0.5))
        sp = operator_split(sc, build_bundle(sc))
        assert sp.residual < 1e-12
        assert np.max(np.abs(sp.target - 2.0 / 3.0)) < 1e-12  # g/q = 1 here

    @pytest.mark.parametrize("seed", range(10))
    def test_random_band_limited(self, seed):
        base = scene_ellipse(2.0, 1.0, 128)
        sc = base.with_rho(band_limited_rho(base, seed=seed))
        assert operator_split(sc, build_bundle(sc)).residual <= 1e-8

    def test_each_pair_matches_its_bracket(self):
        # A_i rho - F_i must reproduce the bracket combination L_i it splits
        base = scene_circle(1.0, 128)
        sc = base.with_rho(band_limited_rho(base, seed=42))
        b = build_bundle(sc)
        sp = operator_split(sc, b)
        q = 1.0 + sc.k0 * sc.rho  # 1 - k0*rho_eff under the default convention
        g, B = b.g, b.ip_uu_N
        L = [g * b.ip_u4_N / (q * B**2),
             -4.0 * b.ip_u3_T / (q * B),
             -g * b.ip_u3_N**2 / (q * B**3),
             -B / (q * g),
             6.0 * b.ip_uu_T**2 / (q * g * B)]
        for i in range(5):
            resid = np.abs(sp.a_applied[i] - sp.f_parts[i] - L[i])
            assert np.max(resid) <= 1e-11 * max(1.0, np.max(np.abs(L[i])))


    def test_given_bundle_is_reused(self, monkeypatch):
        # operator_split reads the bundle's frame: neither is rebuilt
        base = scene_ellipse(2.0, 1.0, 128)
        sc = base.with_rho(band_limited_rho(base, seed=7))
        b = build_bundle(sc)
        expected = operator_split(sc, build_bundle(sc)).total

        def no_rebuild(scene):
            raise AssertionError("bundle or frame rebuilt")

        monkeypatch.setattr(graph, "build_bundle", no_rebuild)
        monkeypatch.setattr(graph, "_frame_components", no_rebuild)
        assert np.array_equal(operator_split(sc, b).total, expected)

    def test_nonconvex_raises_velocity_graph_error(self):
        # r = 1 + 0.05 sin 8u has r^2 + 2 r'^2 - r r'' < 0 where sin 8u = -1
        base = scene_circle(1.0, 128)
        sc = base.with_rho(sin_rho(base, mode=8))
        b = build_bundle(sc)
        with pytest.raises(NotLocallyConvexError) as got:
            operator_split(sc, b)
        with pytest.raises(NotLocallyConvexError) as want:
            velocity_graph(sc, b)
        assert str(got.value) == str(want.value)
        assert got.value.node == int(np.argmin(b.ip_uu_N))
        assert got.value.margin == want.value.margin < 0.0


class TestCrosscheck:
    def test_circle_rows(self):
        rows = crosscheck(scene_circle(1.0, 64), 0, 2, radius=1.0)
        assert [name for name, _, _ in rows] == [
            "bundle_rho0", "split_rho0", "concentric_velocity",
            "bundle_seed0", "split_seed0", "bundle_seed1", "split_seed1"]
        assert all(value <= threshold for _, value, threshold in rows)

    def test_ellipse_rows_draw_from_seed0(self):
        base = scene_ellipse(2.0, 1.0, 256)
        rows = crosscheck(base, 40, 1)
        assert [name for name, _, _ in rows] == [
            "bundle_rho0", "split_rho0", "bundle_seed0", "split_seed0"]
        sc = base.with_rho(band_limited_rho(base, seed=40))
        assert rows[2][1] == build_bundle(sc).max_direct_residual
        assert rows[3][1] == operator_split(sc, build_bundle(sc)).residual


class TestParametrizationIdentity:
    def test_circle(self):
        g = PeriodicGrid(1, 32)
        s = SupportGrid(GridFunction(g, np.full(32, 2.0)))
        assert check_parametrization_identity(s) < 1e-13

    def test_translated_circle(self):
        g = PeriodicGrid(1, 64)
        s = SupportGrid(GridFunction(g, 1 + 0.1 * np.cos(g.nodes)))
        assert check_parametrization_identity(s) < 1e-12

    def test_two_mode_residual_decays_spectrally(self):
        resids = []
        for n in (32, 64, 128):
            s = fourier_support(PeriodicGrid(1, n), 1.0, [(2, 0.2, 0.0)])
            resids.append(check_parametrization_identity(s))
        assert resids[2] <= 1e-9
        assert resids[0] > resids[1] > resids[2]
        assert resids[1] <= resids[0] / 100
