"""Flow velocity over a fixed base curve via a normal graph function.

A scene carries a strictly convex base curve sampled in its arclength u,
with unit tangent T0, inner unit normal N0, curvature k0 and its first
three u-derivatives, plus a graph function rho.  The composite curve is

    gamma = gamma0 + rho * (outer normal),

so positive rho inflates (rho constant c over a circle of radius R gives the
concentric circle of radius R + c).

The closed-form derivative and velocity formulas are evaluated in the
self-consistent rotating frame (T0' = k0*N0, N0' = -k0*T0 with N0 inner),
in which they describe gamma0 + rho_eff*N0; they are therefore evaluated at
rho_eff = -rho so that they describe the actual composite.

Every bundle quantity is recomputed independently by spectral
differentiation of the sampled composite curve and the disagreement is
recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral  # spectral.rfft/irfft looked up per call: one seam
from .errors import DegenerateGraphError, NotLocallyConvexError
from .spectral import (GridFunction, PeriodicGrid, denoised_deriv_values,
                       periodic_antideriv_values, trig_eval_values)
from .support import SupportGrid, curvature, curve_points

# cross-check thresholds
RESIDUAL_TOL = 1e-8          # bundle-versus-direct and operator split
CONCENTRIC_TOL = 1e-10       # concentric-circle velocity
PARAMETRIZATION_TOL = 1e-9   # k_thth + k against its arclength form
# largest spectral tail of the base curvature at which the thresholds above
# judge the formulas rather than the resolution: over 1.2:1 to 3:1 ellipse
# bases at n = 48-384, every tail up to 2.2e-9 passed the battery and every
# tail from 5.5e-9 up failed
RESOLUTION_TOL = 1e-9
# top mode of band_limited_rho's draws; a circle base's normal adds mode 1, so
# the composite curve is resolved only when n/2 exceeds RHO_TOP_MODE + 1
RHO_TOP_MODE = 8

_ELLIPSE_FINE = 2048         # samples of 1/k behind the ellipse's arclength


@dataclass
class GraphCurveScene:
    """Base curve data in arclength parameter u plus a graph function."""

    u: np.ndarray
    points: np.ndarray
    tangents: np.ndarray          # T0, unit
    normals: np.ndarray           # N0, inner unit normal
    k0: np.ndarray
    k0_u: np.ndarray
    k0_uu: np.ndarray
    k0_u3: np.ndarray
    length: float                 # base length L0 (period of u)
    rho: np.ndarray

    def __post_init__(self):
        n = len(self.u)
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.shape != (n,):
            raise ValueError("rho must match the base sampling")
        if np.any(self.k0 <= 0.0):
            raise DegenerateGraphError("base curvature must be positive")
        bound = float(np.min(1.0 / self.k0))
        amp = float(np.max(np.abs(self.rho)))
        if amp >= bound:
            raise DegenerateGraphError(
                f"|rho|_inf = {amp:.6g} must stay below min(1/k0) = {bound:.6g}")

    @property
    def n(self) -> int:
        return len(self.u)

    def with_rho(self, rho) -> "GraphCurveScene":
        return replace(self, rho=rho)

    @property
    def composite_points(self) -> np.ndarray:
        # gamma0 + rho * N_out = gamma0 - rho * N0
        return self.points - self.rho[:, None] * self.normals


def _frame_components(scene: GraphCurveScene):
    """Closed-form frame components of gamma_u .. gamma_u4 at rho_eff = -rho."""
    r = -scene.rho
    d1, d2, d3, d4 = denoised_deriv_values(scene.rho, scene.length, (1, 2, 3, 4))
    r1, r2, r3, r4 = -d1, -d2, -d3, -d4
    k0, k0u, k0uu, k0u3 = scene.k0, scene.k0_u, scene.k0_uu, scene.k0_u3
    q = 1.0 - k0 * r

    gu = (q, r1)
    guu = (-(k0u * r + 2.0 * k0 * r1), r2 + k0 * q)
    gu3 = (-(3.0 * k0 * r2 + 3.0 * k0u * r1 + k0**2 * q + k0uu * r),
           r3 - 3.0 * k0**2 * r1 - 3.0 * k0 * k0u * r + k0u)
    gu4 = (-4.0 * k0 * r3 - 6.0 * k0u * r2 - 4.0 * k0uu * r1 + 4.0 * k0**3 * r1
           + 6.0 * k0**2 * k0u * r - k0u3 * r - 3.0 * k0 * k0u,
           r4 - 6.0 * k0**2 * r2 - 12.0 * k0 * k0u * r1 + (k0uu - k0**3) * q
           - 3.0 * k0u**2 * r - 3.0 * k0 * k0uu * r)
    derivs = (r, r1, r2, r3, r4)
    return q, derivs, gu, guu, gu3, gu4


@dataclass
class DerivativeBundle:
    frame: tuple                   # _frame_components(scene)'s q, derivs, gu..gu4
    gamma: np.ndarray
    gamma_u: np.ndarray
    gamma_uu: np.ndarray
    gamma_u3: np.ndarray
    gamma_u4: np.ndarray
    T: np.ndarray
    N: np.ndarray
    g: np.ndarray                  # |gamma_u|
    ip_uu_T: np.ndarray
    ip_uu_N: np.ndarray
    sq_uu_tan: np.ndarray          # |gamma_uu^top|^2
    sq_uu_perp: np.ndarray         # |gamma_uu^perp|^2
    ip_u3_T: np.ndarray
    ip_u3_N: np.ndarray
    sq_u3_perp: np.ndarray
    ip_u4_N: np.ndarray
    direct_residuals: dict = field(default_factory=dict)

    @property
    def max_direct_residual(self) -> float:
        return max(self.direct_residuals.values())


def build_bundle(scene: GraphCurveScene) -> DerivativeBundle:
    """Evaluate the closed-form derivative expressions and cross-check them
    against spectral differentiation of the sampled composite curve."""
    frame = _frame_components(scene)
    q, derivs, gu, guu, gu3, gu4 = frame
    r1 = derivs[1]
    g = np.sqrt(q * q + r1 * r1)
    if np.min(g) <= 0.0:
        raise DegenerateGraphError("composite curve is not regular")

    T0, N0 = scene.tangents, scene.normals

    def to_xy(comp):
        return comp[0][:, None] * T0 + comp[1][:, None] * N0

    gamma = scene.composite_points
    gamma_u = to_xy(gu)
    gamma_uu = to_xy(guu)
    gamma_u3 = to_xy(gu3)
    gamma_u4 = to_xy(gu4)
    T = gamma_u / g[:, None]
    # J-rotation inside the (T0, N0) frame: (a, b) -> (-b, a)
    N = (-gu[1][:, None] * T0 + gu[0][:, None] * N0) / g[:, None]

    ip_uu_T = (guu[0] * q + guu[1] * r1) / g
    ip_uu_N = (-guu[0] * r1 + guu[1] * q) / g
    sq_uu_tan = ip_uu_T**2
    sq_uu_perp = guu[0]**2 + guu[1]**2 - sq_uu_tan
    ip_u3_T = (gu3[0] * q + gu3[1] * r1) / g
    ip_u3_N = (-gu3[0] * r1 + gu3[1] * q) / g
    sq_u3_perp = gu3[0]**2 + gu3[1]**2 - ip_u3_T**2
    ip_u4_N = (-gu4[0] * r1 + gu4[1] * q) / g

    bundle = DerivativeBundle(
        frame=frame, gamma=gamma, gamma_u=gamma_u, gamma_uu=gamma_uu,
        gamma_u3=gamma_u3, gamma_u4=gamma_u4, T=T, N=N, g=g,
        ip_uu_T=ip_uu_T, ip_uu_N=ip_uu_N, sq_uu_tan=sq_uu_tan,
        sq_uu_perp=sq_uu_perp, ip_u3_T=ip_u3_T, ip_u3_N=ip_u3_N,
        sq_u3_perp=sq_u3_perp, ip_u4_N=ip_u4_N)

    # independent recomputation by spectral differentiation of the x, y rows
    d1, d2, d3, d4 = (d.T for d in denoised_deriv_values(
        gamma.T, scene.length, (1, 2, 3, 4)))
    gd = np.hypot(d1[:, 0], d1[:, 1])
    Td = d1 / gd[:, None]
    jsign = np.sign(T0[0, 0] * N0[0, 1] - T0[0, 1] * N0[0, 0])
    Nd = jsign * np.stack([-Td[:, 1], Td[:, 0]], axis=1)

    def dot(a, b):
        return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]

    direct = {
        "gamma_u": (gamma_u, d1), "gamma_uu": (gamma_uu, d2),
        "gamma_u3": (gamma_u3, d3), "gamma_u4": (gamma_u4, d4),
        "T": (T, Td), "N": (N, Nd), "g": (g, gd),
        "ip_uu_T": (ip_uu_T, dot(d2, Td)),
        "ip_uu_N": (ip_uu_N, dot(d2, Nd)),
        "sq_uu_tan": (sq_uu_tan, dot(d2, Td)**2),
        "sq_uu_perp": (sq_uu_perp, dot(d2, d2) - dot(d2, Td)**2),
        "ip_u3_T": (ip_u3_T, dot(d3, Td)),
        "ip_u3_N": (ip_u3_N, dot(d3, Nd)),
        "sq_u3_perp": (sq_u3_perp, dot(d3, d3) - dot(d3, Td)**2),
        "ip_u4_N": (ip_u4_N, dot(d4, Nd)),
    }
    for name, (formula, ref) in direct.items():
        scale = max(float(np.max(np.abs(ref))), 1.0)
        bundle.direct_residuals[name] = float(np.max(np.abs(formula - ref))) / scale
    return bundle


def velocity_graph(scene: GraphCurveScene, bundle: DerivativeBundle | None = None
                   ) -> np.ndarray:
    """Normal velocity k_ss/k^2 - k_s^2/k^3 + k of the composite curve,
    assembled from the bundle brackets."""
    b = bundle or build_bundle(scene)
    B = b.ip_uu_N
    if np.min(B) <= 0.0:
        j = int(np.argmin(B))
        raise NotLocallyConvexError(
            f"composite curve not locally convex: <gamma_uu, N> = {B[j]:.6g} "
            f"at sample {j}", node=j, margin=float(B[j]))
    g, g2 = b.g, b.g**2
    return (b.ip_u4_N / b.sq_uu_perp
            - 4.0 * b.ip_u3_T / (g * B)
            - b.sq_u3_perp / (b.sq_uu_perp * B)
            - 2.0 * B / g2
            + 6.0 * b.sq_uu_tan / (g2 * B))


PAIR_WEIGHTS = (1.0, 1.0, 1.0, 2.0, 1.0)


@dataclass
class OperatorSplit:
    a_applied: np.ndarray          # (5, n): quasilinear operators applied to rho
    f_parts: np.ndarray            # (5, n): fully nonlinear parts
    total: np.ndarray              # sum_i w_i (A_i rho - F_i), w = PAIR_WEIGHTS
    target: np.ndarray             # (|gamma_u| / (1 - k0 rho)) * V
    residual: float                # max relative disagreement


def operator_split(scene: GraphCurveScene, bundle: DerivativeBundle) -> OperatorSplit:
    """Termwise quasilinear/fully-nonlinear decomposition of the velocity,
    from the frame of bundle = build_bundle(scene).

    Each pair satisfies A_i rho - F_i = L_i for its displayed bracket
    combination L_i, and the weighted sum reproduces
    (|gamma_u|/(1 - k0*rho)) * velocity.  Raises velocity_graph's
    NotLocallyConvexError where <gamma_uu, N> <= 0.
    """
    V = velocity_graph(scene, bundle)
    q, (r, r1, r2, r3, r4) = bundle.frame[:2]
    k0, k0u, k0uu, k0u3 = scene.k0, scene.k0_u, scene.k0_uu, scene.k0_u3
    g2 = q * q + r1 * r1
    g = bundle.g
    B = bundle.ip_uu_N

    A = np.empty((5, scene.n))
    F = np.empty((5, scene.n))

    A[0] = (q * r4 + 4.0 * k0 * r1 * r3 + (6.0 * k0u * r1 - 6.0 * k0**2 * q) * r2) \
        / (q * B**2)
    F[0] = -(((4.0 * k0uu - 4.0 * k0**3) * r1 - 6.0 * k0**2 * k0u * r
              + k0u3 * r + 3.0 * k0 * k0u) * r1
             + (-12.0 * k0 * k0u * r1 + (k0uu - k0**3) * q
                - 3.0 * k0u**2 * r - 3.0 * k0 * k0uu * r) * q) / (q * B**2)

    A[1] = (-4.0 * r1 * r3 + 12.0 * k0 * q * r2) / (g * q * B)
    F[1] = 4.0 * (-(3.0 * k0u * r1 + k0**2 * q + k0uu * r) * q
                  + (-3.0 * k0**2 * r1 - 3.0 * k0 * k0u * r + k0u) * r1) / (g * q * B)

    W = (3.0 * k0 * r1 * r2 + 3.0 * k0u * r1**2 - 2.0 * k0**2 * r1 * q
         + k0uu * r * r1 - 3.0 * k0 * k0u * r * q + k0u * q)
    A[2] = -(q * r3 + 2.0 * W) * r3 / (g * B**3)
    F[2] = W**2 / (g * q * B**3)

    A[3] = -(q * r2 + k0u * r * r1 + 2.0 * k0 * r1**2) / (q * g2)
    F[3] = k0 * q / g2

    A[4] = 6.0 * (r1**2 * r2**2 - 2.0 * r1 * r2 * q * (k0u * r + k0 * r1)) \
        / (q * g**3 * B)
    F[4] = -6.0 * q * (k0u * r + k0 * r1)**2 / (g**3 * B)

    total = np.zeros(scene.n)
    for w, a, f in zip(PAIR_WEIGHTS, A, F):
        total += w * (a - f)
    target = g / q * V
    scale = max(float(np.max(np.abs(target))), 1.0)
    residual = float(np.max(np.abs(total - target))) / scale
    return OperatorSplit(a_applied=A, f_parts=F, total=total, target=target,
                         residual=residual)


def check_parametrization_identity(s: SupportGrid) -> float:
    """Max-node relative difference between k_thth + k and the arclength
    form k_ss/k^2 - k_s^2/k^3 + k linked by k d/dtheta = d/ds.

    Derivatives are taken on the denoised spectrum so the residual reflects
    the identity rather than round-off amplified by high wavenumbers.
    """
    period = s.grid.period
    curvature(s)  # propagate the convexity error on invalid data
    h2 = denoised_deriv_values(s.values, period, (2,))[0]
    k = 1.0 / (h2 + s.values)
    kt1, kth = denoised_deriv_values(k, period, (1, 2))
    lhs = kth + k
    k_s = k * kt1
    k_ss = k * denoised_deriv_values(k_s, period, (1,))[0]
    rhs = k_ss / k**2 - k_s**2 / k**3 + k
    return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)))


# ---------------------------------------------------------------------------
# scene construction

def _invert_monotone(a: float, p: np.ndarray, dp: np.ndarray, period: float,
                     y: np.ndarray) -> np.ndarray:
    """Newton solve of the increasing a*x + P(x) = y from x = y/a, where P
    and P' interpolate the periodic samples p and dp on [0, period)."""
    x = y / a
    for _ in range(60):
        step = (a * x + trig_eval_values(p, period, x) - y) \
            / trig_eval_values(dp, period, x)
        x = x - step
        if np.max(np.abs(step)) < 1e-14 * max(1.0, period):
            break
    return x


def _scene(u, L0, theta, h, h1, k, k1, k2, k3) -> GraphCurveScene:
    """Scene with rho = 0 from support data h, h1 and curvature data k,
    k1..k3 (all in theta) at the tangent angles theta(u); the chain rule
    d/du = k d/dtheta gives the u-derivatives of k."""
    c, sn = np.cos(theta), np.sin(theta)
    return GraphCurveScene(
        u=u, points=curve_points(h, h1, theta),
        tangents=np.stack([-sn, c], axis=1), normals=-np.stack([c, sn], axis=1),
        k0=k, k0_u=k * k1, k0_uu=k * (k1**2 + k * k2),
        k0_u3=k * (k1**3 + 4.0 * k * k1 * k2 + k**2 * k3), length=L0,
        rho=np.zeros(len(u)))


def scene_circle(radius: float, n: int) -> GraphCurveScene:
    """Unit-speed circle base of given radius (counterclockwise)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    L0 = 2.0 * math.pi * radius
    u = np.arange(n) * (L0 / n)
    return _scene(u, L0, u / radius, radius, 0.0, np.full(n, 1.0 / radius),
                  0.0, 0.0, 0.0)


def _ellipse_theta_data(a: float, b: float, theta: np.ndarray):
    """Exact support data of the ellipse: h, h', k and k', k'', k''' in theta.

    Uses h^2 = A + B cos 2theta and repeated differentiation of h^2, so no
    spectral differentiation noise enters the base data.
    """
    A = 0.5 * (a * a + b * b)
    B = 0.5 * (a * a - b * b)
    c2, s2 = np.cos(2.0 * theta), np.sin(2.0 * theta)
    h = np.sqrt(A + B * c2)
    h1 = -B * s2 / h
    h2 = (-2.0 * B * c2 - h1 * h1) / h
    h3 = (4.0 * B * s2 - 3.0 * h1 * h2) / h
    h4 = (8.0 * B * c2 - 3.0 * h2 * h2 - 4.0 * h1 * h3) / h
    h5 = (-16.0 * B * s2 - 10.0 * h2 * h3 - 5.0 * h1 * h4) / h
    w = h + h2
    w1 = h1 + h3
    w2 = h2 + h4
    w3 = h3 + h5
    k = 1.0 / w
    k1 = -w1 / w**2
    k2 = -w2 / w**2 + 2.0 * w1**2 / w**3
    k3 = -w3 / w**2 + 6.0 * w1 * w2 / w**3 - 6.0 * w1**3 / w**4
    return h, h1, k, k1, k2, k3


def scene_ellipse(a: float, b: float, n: int) -> GraphCurveScene:
    """Ellipse base with analytically exact curvature-derivative data.

    Only the arclength inversion theta(u) is numerical (a spectral
    antiderivative plus Newton, accurate to round-off); all base data is
    evaluated in closed form at the solved angles.
    """
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")
    period = 2.0 * np.pi
    th_fine = np.arange(_ELLIPSE_FINE) * (period / _ELLIPSE_FINE)
    w_fine = _ellipse_theta_data(a, b, th_fine)[2] ** -1.0
    mean, p = periodic_antideriv_values(w_fine, period)
    L0 = mean * period
    u = np.arange(n) * (L0 / n)
    theta = _invert_monotone(mean, p, w_fine, period, u)
    return _scene(u, L0, theta, *_ellipse_theta_data(a, b, theta))


def band_limited_rho(scene: GraphCurveScene, seed: int) -> np.ndarray:
    """Seeded random band-limited graph function.

    Draws come from numpy's default PCG64 generator (a documented,
    platform-independent permuted congruential generator); mode m = 1..RHO_TOP_MODE
    gets standard-normal cosine/sine coefficients damped by 1/(1 + m^2).
    The result is scaled to a sup amplitude of 5 percent of the admissible
    bound min(1/k0).
    """
    rng = np.random.default_rng(seed)
    x = 2.0 * np.pi * scene.u / scene.length
    v = np.zeros(scene.n)
    for m in range(1, RHO_TOP_MODE + 1):
        am, bm = rng.standard_normal(2) / (1.0 + m * m)
        v += am * np.cos(m * x) + bm * np.sin(m * x)
    amplitude = 0.05 * float(np.min(1.0 / scene.k0))
    peak = float(np.max(np.abs(v)))
    if peak > 0:
        v *= amplitude / peak
    return v


def composite_support(scene: GraphCurveScene, n_out: int) -> SupportGrid:
    """Support function of the composite curve on a uniform theta grid.

    Uses spectral inversion of the tangent-angle map, so the resampling is
    accurate to round-off for band-limited scenes (unlike the generic
    piecewise-monotone ingestion path).
    """
    bundle = build_bundle(scene)
    L0 = scene.length
    # theta = angle of the outward normal -N of the composite
    n_out_vec = -bundle.N
    theta_raw = np.unwrap(np.arctan2(n_out_vec[:, 1], n_out_vec[:, 0]))
    span = theta_raw[-1] - theta_raw[0]
    spacing = span / (len(theta_raw) - 1)
    omega = max(int(round((span + spacing) / (2.0 * np.pi))), 1)
    slope = 2.0 * np.pi * omega / L0
    p = theta_raw - slope * scene.u
    p0 = p.mean()
    p_per = p - p0

    # theta_u = k * |gamma_u|
    kcomp = bundle.ip_uu_N / bundle.g**2
    theta_u = kcomp * bundle.g

    grid = PeriodicGrid(omega=omega, n=n_out)
    target = grid.nodes
    base = theta_raw[0]
    tgt = base + (target - base) % (2.0 * np.pi * omega)
    uu = _invert_monotone(slope, p_per, theta_u, L0, tgt - p0)
    gx = trig_eval_values(bundle.gamma[:, 0], L0, uu)
    gy = trig_eval_values(bundle.gamma[:, 1], L0, uu)
    h = gx * np.cos(tgt) + gy * np.sin(tgt)
    return SupportGrid(GridFunction(grid, h))


def require_resolved(base: GraphCurveScene) -> None:
    """Raise ValueError unless the grid resolves the draws of
    band_limited_rho (n/2 above RHO_TOP_MODE + 1) and the base curvature:
    max |rfft(k0)| over the top n/8 modes, over its largest coefficient, at
    most RESOLUTION_TOL.  A k0 holding NaN has a NaN tail, which fails."""
    if base.n / 2 <= RHO_TOP_MODE + 1:
        raise ValueError(
            f"graph draws under-resolved at n={base.n}: they reach mode "
            f"{RHO_TOP_MODE} and the base adds mode 1, so n/2 must exceed "
            f"{RHO_TOP_MODE + 1}; raise n")
    c = np.abs(spectral.rfft(base.k0))
    tail = float(np.max(c[-(base.n // 8):]) / np.max(c))
    if not tail <= RESOLUTION_TOL:
        raise ValueError(
            f"base curvature under-resolved at n={base.n}: spectral tail "
            f"{tail:.2e} > {RESOLUTION_TOL:.0e} (top n/8 modes of k0 over its "
            f"largest); raise n")


def crosscheck(base: GraphCurveScene, seed0: int, draws: int,
               radius: float | None = None) -> list:
    """The graph formulation's residual battery over one base scene.

    Returns (name, residual, threshold) rows: the bundle-versus-direct and
    operator-split residuals at rho = 0 (bundle_rho0, split_rho0), the
    concentric-circle velocity error over a circle base of the given radius
    (concentric_velocity), then both residuals for band-limited graphs
    drawn with seeds seed0 .. seed0 + draws - 1 (bundle_seed{i},
    split_seed{i}).
    """
    def residuals(scene, tag):
        bundle = build_bundle(scene)
        return [(f"bundle_{tag}", bundle.max_direct_residual, RESIDUAL_TOL),
                (f"split_{tag}", operator_split(scene, bundle).residual,
                 RESIDUAL_TOL)]

    rows = residuals(base, "rho0")
    if radius is not None:
        # rho = r/2 over the circle of radius r is the concentric circle of
        # radius 3r/2, whose velocity is its curvature
        v = velocity_graph(base.with_rho(np.full(base.n, 0.5 * radius)))
        rows.append(("concentric_velocity",
                     float(np.max(np.abs(v - 1.0 / (1.5 * radius)))),
                     CONCENTRIC_TOL))
    for i in range(draws):
        rows += residuals(base.with_rho(band_limited_rho(base, seed=seed0 + i)),
                          f"seed{i}")
    return rows
