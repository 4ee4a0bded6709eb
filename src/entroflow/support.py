"""Support-function description of locally convex closed planar curves.

Conventions (fixed throughout the package): theta is the angle of the
outward direction u(theta) = (cos theta, sin theta), the inward normal is
N = -u, the support function is h(theta) = <gamma, u>, and the curve is
recovered from h by gamma = h*u + h_theta*u_perp with u_perp =
(-sin theta, cos theta).  Curvature is k = 1/(h_thth + h) > 0.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CurveIngestionError, NotLocallyConvexError
from .spectral import GridFunction, PeriodicGrid, periodic_derivs_values

# validation floor for min(h_thth + h), relative to mean(h); exact zero is
# the degenerate boundary the flow must stay away from
CONVEXITY_RTOL = 1e-10


def require_convexity(h: np.ndarray, w: np.ndarray) -> None:
    """Raise NotLocallyConvexError unless the samples w of h_thth + h all
    exceed CONVEXITY_RTOL * mean(h).

    On stacks of shape (R, n) each row is held to its own mean, and the
    first failing row raises as its one-row call would.
    """
    if w.ndim > 1:
        low = w.min(axis=-1) <= CONVEXITY_RTOL * np.mean(h, axis=-1)
        if np.any(low):
            r = int(np.argmax(low))
            require_convexity(h[r], w[r])
        return
    j = int(np.argmin(w))
    threshold = CONVEXITY_RTOL * float(np.mean(h))
    if w[j] <= threshold:
        raise NotLocallyConvexError(
            f"not strictly locally convex: min(h_thth + h) = {w[j]:.6g} "
            f"at node {j} (threshold {threshold:.3g})",
            node=j, margin=float(w[j]))


class SupportGrid:
    """Validated support-function samples of a locally convex curve."""

    def __init__(self, h: GridFunction, validate: bool = True):
        self.h = h
        if validate:
            self._validate()

    def _validate(self):
        v = self.h.values
        if np.any(v <= 0.0):
            j = int(np.argmin(v))
            raise NotLocallyConvexError(
                f"support function must be positive; h[{j}] = {v[j]:.6g}",
                node=j, margin=float(v[j]))
        curvature(self)

    @property
    def grid(self) -> PeriodicGrid:
        return self.h.grid

    @property
    def omega(self) -> int:
        return self.h.grid.omega

    @property
    def n(self) -> int:
        return self.h.grid.n

    @property
    def values(self) -> np.ndarray:
        return self.h.values


@dataclass
class CurveSample:
    """Points of a locally convex closed curve at strictly increasing
    outward-normal angles thetas; the outward normal at theta is
    (cos, sin)(theta) and the unit tangent (-sin, cos)(theta).

    points has shape (m, 2), or (R, m, 2) for R curves sampled at the same
    normal angles.  Only the shape is checked here: support_from_curve
    refuses angles that do not strictly increase (CurveIngestionError).
    """

    points: np.ndarray
    thetas: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.thetas = np.asarray(self.thetas, dtype=float)
        m = len(self.thetas)
        if self.points.shape[-2:] != (m, 2):
            raise ValueError("points must have shape (m, 2) or (R, m, 2)")


def curvature(s: SupportGrid) -> GridFunction:
    """Curvature k = 1/(h_thth + h); raises NotLocallyConvexError unless
    h_thth + h passes require_convexity."""
    hv = s.values
    w = periodic_derivs_values(hv, s.grid.period, (2,))[0] + hv
    require_convexity(hv, w)
    return s.h.copy_with(1.0 / w)


def curve_points(h, h1, theta) -> np.ndarray:
    """gamma = h*u + h_theta*u_perp at the angles theta, shape (..., 2), from
    h and h1 = h_theta (arrays or scalars broadcast against theta)."""
    c, sn = np.cos(theta), np.sin(theta)
    return np.stack([h * c - h1 * sn, h * sn + h1 * c], axis=-1)


def reconstruct(s: SupportGrid) -> CurveSample:
    """Recover the curve points (curve_points) at the grid nodes.

    A stack of R support functions, values of shape (R, n), gives points of
    shape (R, n, 2) whose row j equals the one-row call on row j; the first
    row that is not strictly locally convex raises as its one-row call would.
    """
    theta = s.grid.nodes
    hv = s.values
    hp, h2 = periodic_derivs_values(hv, s.grid.period, (1, 2))
    require_convexity(hv, h2 + hv)
    return CurveSample(points=curve_points(hv, hp, theta), thetas=theta.copy())


def _polygon_area_centroid(points: np.ndarray):
    x, y = points[:, 0], points[:, 1]
    xr, yr = np.roll(x, -1), np.roll(y, -1)
    cross = x * yr - xr * y
    area = 0.5 * np.sum(cross)
    if abs(area) < 1e-30:
        raise CurveIngestionError("degenerate polygon (zero area)")
    cx = np.sum((x + xr) * cross) / (6.0 * area)
    cy = np.sum((y + yr) * cross) / (6.0 * area)
    return area, np.array([cx, cy])


def _origin_strictly_inside(points: np.ndarray) -> bool:
    p, q = points, np.roll(points, -1, axis=0)
    cross = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]  # edge cross with origin
    return bool(np.all(cross > 0.0) or np.all(cross < 0.0))


def _check_convex_polygon(points: np.ndarray):
    e = np.roll(points, -1, axis=0) - points
    cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
    scale = np.max(np.abs(cross))
    if scale <= 0.0:
        raise CurveIngestionError("degenerate polyline")
    if np.any(cross * np.sign(np.sum(cross)) < -1e-9 * scale):
        raise CurveIngestionError(
            "embedded input is not convex (edge turning changes sign)")


def _support_from_embedded(points: np.ndarray, grid: PeriodicGrid) -> SupportGrid:
    _check_convex_polygon(points)
    pts = points
    if not _origin_strictly_inside(pts):
        _, centroid = _polygon_area_centroid(pts)
        pts = pts - centroid
        if not _origin_strictly_inside(pts):
            raise CurveIngestionError(
                "origin not interior to the curve even after centering")
    theta = grid.nodes
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    h = np.max(pts @ u.T, axis=0)
    try:
        return SupportGrid(GridFunction(grid, h))
    except NotLocallyConvexError as exc:
        raise CurveIngestionError(
            f"hull support is not C^1-consistent on this grid: {exc}") from exc


def _normal_angles_from_points(points: np.ndarray) -> np.ndarray:
    """Outward-normal angles of a counterclockwise polyline: the central
    difference's tangent angle minus pi/2."""
    d = np.roll(points, -1, axis=0) - np.roll(points, 1, axis=0)
    return np.unwrap(np.arctan2(d[:, 1], d[:, 0])) - 0.5 * np.pi


def _support_from_immersed(points, thetas, omega, grid: PeriodicGrid) -> SupportGrid:
    # imported here: scipy.interpolate dominates the package's import time
    from scipy.interpolate import PchipInterpolator

    period = grid.period
    total = thetas[-1] - thetas[0]
    if np.any(np.diff(thetas) <= 0.0):
        raise CurveIngestionError("outward-normal angle is not strictly increasing")
    spacing = total / max(len(thetas) - 1, 1)
    if abs(total + spacing - period) > 4.0 * spacing:
        raise CurveIngestionError(
            f"outward-normal angle increases by {total + spacing:.6g} over the closed "
            f"curve; expected 2*omega*pi = {period:.6g} for omega={omega}")
    # monotone interpolation of the inverse map theta -> point, tiled one
    # period each way so any target angle falls in the covered range
    th = np.concatenate([thetas - period, thetas, thetas + period])
    f = PchipInterpolator(th, np.tile(points, (3, 1)))    # column by column
    # pull target angles into the sampled window
    lo = thetas[0] - period / 2
    t = lo + (grid.nodes - lo) % period
    xy = f(t)
    h = xy[:, 0] * np.cos(t) + xy[:, 1] * np.sin(t)
    return SupportGrid(GridFunction(grid, h))


def support_from_curve(curve, omega: int, n: int) -> SupportGrid:
    """Resample a closed locally convex curve onto a uniform theta grid.

    A CurveSample is resampled by inverting its monotone normal-angle map.
    A raw (m, 2) array is a closed polyline (first point not repeated), in
    either orientation: with omega == 1 its h is the support function of its
    polygonal hull; otherwise its outward-normal angles are estimated from
    its points, taken in counterclockwise order, and that angle map is
    inverted as for a CurveSample.  n is the output grid size.  A NaN or
    infinite point or angle is a CurveIngestionError.
    """
    if isinstance(curve, CurveSample):
        pts, thetas = curve.points, curve.thetas
    else:
        pts = np.asarray(curve, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 8:
            raise CurveIngestionError("need at least 8 planar points")
        thetas = None
    if not (np.isfinite(pts).all() and (thetas is None or np.isfinite(thetas).all())):
        raise CurveIngestionError("curve points and normal angles must be finite")
    grid = PeriodicGrid(omega=omega, n=n)
    if thetas is None:
        if omega == 1:
            return _support_from_embedded(pts, grid)
        thetas = _normal_angles_from_points(pts)
        if thetas[-1] < thetas[0]:  # clockwise: the angles decrease
            pts = pts[::-1]
            thetas = _normal_angles_from_points(pts)
    return _support_from_immersed(pts, thetas, omega, grid)


# ---------------------------------------------------------------------------
# built-in initial data

def circle_support(grid: PeriodicGrid, radius: float) -> SupportGrid:
    if radius <= 0:
        raise ValueError("radius must be positive")
    return SupportGrid(GridFunction(grid, np.full(grid.n, float(radius))))


def ellipse_support(grid: PeriodicGrid, a: float, b: float) -> SupportGrid:
    """Support of the origin-centered axis-aligned ellipse with semi-axes a, b."""
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")
    th = grid.nodes
    h = np.sqrt(a**2 * np.cos(th)**2 + b**2 * np.sin(th)**2)
    return SupportGrid(GridFunction(grid, h))


def fourier_support(grid: PeriodicGrid, constant: float, modes) -> SupportGrid:
    """constant + sum of (m, cos_coeff, sin_coeff) modes with wavenumber m/omega;
    each m an integer (not a bool) with |m| < n/2, so that h is periodic and
    not aliased."""
    th = grid.nodes
    h = np.full(grid.n, float(constant))
    for m, ac, bs in modes:
        if isinstance(m, bool) or not (float(m).is_integer() and abs(m) < grid.n / 2):
            raise ValueError(f"fourier mode m={m!r} must be an integer with "
                             f"|m| < n/2 = {grid.n // 2}")
        xi = m / grid.omega
        h = h + ac * np.cos(xi * th) + bs * np.sin(xi * th)
    return SupportGrid(GridFunction(grid, h))


# ---------------------------------------------------------------------------
# file formats

def write_text(path, text) -> None:
    """Write text to path in place: open without truncating, write, then trim
    whatever is left of a longer old file.

    text is a str, or an iterable of str pieces written one after another,
    so that a long file need not be held as one string.

    Truncating an existing file at open makes ext4 start writeback when it is
    closed (its replace-via-truncate heuristic, auto_da_alloc), which made
    rewriting a run's artifacts ~10x slower than writing them in place.  No
    fsync, as before: a crash mid-write can leave old and new bytes mixed.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        size = 0
        for piece in (text,) if isinstance(text, str) else text:
            data = memoryview(piece.encode())
            size += len(data)
            while data:
                data = data[os.write(fd, data):]
        os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _read_table(path) -> np.ndarray:
    """np.loadtxt's floats as a 2-d table, one row per line, "#" comments
    skipped; a file with no data is a CurveIngestionError, not loadtxt's
    warning and an empty array."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, dtype=float, comments="#", ndmin=2)
    if data.size == 0:
        raise CurveIngestionError(f"{path}: the file holds no data")
    return data


def read_curve_file(path) -> np.ndarray:
    """Closed polyline, one "x y" pair per line, first point not repeated."""
    pts = _read_table(path)
    if pts.shape[1] != 2:
        raise CurveIngestionError(f"{path}: expected two columns, got {pts.shape[1]}")
    return pts


def read_support_file(path, omega: int) -> SupportGrid:
    """One h value per line; the line count fixes n.  A table of more than
    one column, or one line of several values, is refused."""
    table = _read_table(path)
    if table.shape[1] != 1:
        raise CurveIngestionError(f"{path}: expected one column, got {table.shape[1]}")
    grid = PeriodicGrid(omega=omega, n=len(table))
    return SupportGrid(GridFunction(grid, table[:, 0]))
