"""Trigonometric calculus on uniform periodic grids over [0, 2*omega*pi).

All operations act on the trigonometric interpolant of the samples, so they
are exact (to round-off) for trigonometric polynomials that the grid can
represent.  The winding number ``omega`` stretches the period to
``2*omega*pi`` and the effective wavenumbers to ``m/omega``, which lets
omega-covered circles and immersed curves share one code path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import UnsupportedOrderError

MAX_DERIV_ORDER = 8


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid with ``n`` nodes on [0, 2*omega*pi)."""

    omega: int
    n: int

    def __post_init__(self):
        if int(self.omega) != self.omega or self.omega < 1:
            raise ValueError(f"omega must be a positive integer, got {self.omega}")
        if int(self.n) != self.n or self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be an even integer >= 8, got {self.n}")

    @property
    def period(self) -> float:
        return 2.0 * np.pi * self.omega

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * (self.period / self.n)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Radian wavenumbers of the rfft layout, the ones every derivative
        uses: rfft_wavenumbers(n, period), equal to m/omega (m = 0..n/2) up
        to round-off."""
        return rfft_wavenumbers(self.n, self.period)


@dataclass
class GridFunction:
    """Real samples of a periodic function on a :class:`PeriodicGrid`.

    A stack of shape (R, n) holds R functions, one per row.
    periodic_derivs_values, integrate_values, curvature and compute_record
    work row by row on stacks; integrate takes one function.
    """

    grid: PeriodicGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != self.grid.n:
            raise ValueError(f"values must have shape ({self.grid.n},) or "
                             f"(R, {self.grid.n}), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        self.values = v

    def copy_with(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, values)


def rfft_wavenumbers(n: int, period: float) -> np.ndarray:
    """Radian wavenumbers 2*pi*m/period of the rfft of n samples over one
    period (m = 0..n/2)."""
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=period / n)


def _shared_factor(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array.  A pocketfft kernel takes it
    with the bits of the float, where it would convert a Python float to a
    new 0-d array on every call; read-only, since every transform shares
    it."""
    fac = np.array(value)
    fac.flags.writeable = False
    return fac


# np.fft.rfft's factor; np.fft.irfft's 1/n is _inverse_factor(n) below
_ONE = _shared_factor(1.0)


# a factor is one float, so the 64 most recently used n take a few kB
@functools.lru_cache(maxsize=64)
def _inverse_factor(n: int) -> np.ndarray:
    """np.fft.irfft's factor 1/n for n samples, built once per n."""
    return _shared_factor(1.0 / n)


def rfft(x: np.ndarray, out=None) -> np.ndarray:
    """np.fft.rfft(x) of float64 samples along the last axis, bit for bit,
    written into out (n//2 + 1 complex values per row), or into a new array
    when out is None.

    Calls the pocketfft kernel that np.fft.rfft ends in, with the same
    factor 1.0 (as the shared 0-d _ONE), and skips np.fft's Python wrapper.
    Every real-input transform of the package goes through this function or
    irfft below.  Both pass the kernel its output positionally, which spares
    numpy's parsing of an out= keyword.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if out is None:
        out = np.empty(x.shape[:-1] + (n // 2 + 1,), complex)
    kernel = _pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd
    return kernel(x, _ONE, out)


def irfft(c: np.ndarray, n: int, out=None) -> np.ndarray:
    """np.fft.irfft(c, n=n) along the last axis, bit for bit: the pocketfft
    kernel with np.fft's factor 1/n (as the shared 0-d _inverse_factor(n)),
    writing n real samples per row into out, or into a new array when out is
    None."""
    if out is None:
        out = np.empty(c.shape[:-1] + (n,))
    return _pocketfft.irfft(c, _inverse_factor(n), out)


# a factor is (n/2 + 1) complex values, 8 * (n + 2) bytes, so the 32 most
# recently used (compute_record's four orders on eight grids) take at most
# 8.4 MB up to n = 32768; a rebuilt factor is bit-identical
@functools.lru_cache(maxsize=32)
def _deriv_factor(n: int, period: float, order: int) -> np.ndarray:
    """(i*xi)^order on rfft_wavenumbers(n, period), with the Nyquist mode
    zeroed for odd orders (its sine partner is not representable on the
    grid) and kept for even orders.  Built once per (n, period, order) and
    read-only, since every caller shares it."""
    fac = (1j * rfft_wavenumbers(n, period)) ** order
    if order % 2 == 1:
        fac[-1] = 0.0
    fac.flags.writeable = False
    return fac


def periodic_derivs_values(values: np.ndarray, period: float, orders) -> list:
    """Spectral derivatives of several orders from one rfft of the samples.

    Differentiates along the last axis, so a stack of shape (R, n) gives R
    rows, each equal to the one-row call.  Order 0 is a copy of the samples;
    each other order costs one irfft, by a cached factor from _deriv_factor.
    """
    for order in orders:
        if order < 0 or int(order) != order:
            raise UnsupportedOrderError(
                f"order must be a non-negative integer, got {order}")
        if order > MAX_DERIV_ORDER:
            raise UnsupportedOrderError(
                f"derivative order {order} exceeds supported maximum {MAX_DERIV_ORDER}")
    n = np.shape(values)[-1]
    coeff = rfft(values) if any(orders) else None
    return [irfft(coeff * _deriv_factor(n, period, order), n) if order
            else np.array(values, dtype=float) for order in orders]


def denoised_deriv_values(values: np.ndarray, period: float, orders):
    """Spectral derivatives of several orders from one transform, zeroing
    modes whose coefficients sit below 1e-15 * max|coeff|.

    High-order spectral differentiation multiplies per-mode round-off by
    xi^order; for data whose true spectrum has decayed to round-off this
    amplifies pure noise.  Zeroing sub-round-off modes is lossless for such
    data and keeps fourth derivatives accurate near machine precision.  A
    stack of shape (R, n) gives R rows, each equal to the one-row call.
    """
    n = np.shape(values)[-1]
    coeff = rfft(values)
    mag = np.abs(coeff)
    coeff[mag < 1e-15 * np.max(mag, axis=-1, keepdims=True)] = 0.0
    return [irfft(coeff * _deriv_factor(n, period, order), n)
            for order in orders]


def trig_eval_values(values: np.ndarray, period: float, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of ``values`` at ``points``."""
    n = len(values)
    x = np.atleast_1d(np.asarray(points, dtype=float)) % period
    c = rfft(values)
    xi = rfft_wavenumbers(n, period)
    phase = np.outer(x, xi)
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    out = (np.cos(phase) @ (weights * c.real) - np.sin(phase) @ (weights * c.imag)) / n
    return out


def periodic_antideriv_values(values: np.ndarray, period: float):
    """Split the antiderivative into (mean, periodic part samples).

    The antiderivative of f is mean(f)*x + P(x) with P periodic; P is
    returned as samples with P(0) = 0.
    """
    n = len(values)
    c = rfft(values)
    mean = c[0].real / n
    xi = rfft_wavenumbers(n, period)
    cint = np.zeros_like(c)
    cint[1:] = c[1:] / (1j * xi[1:])
    cint[-1] = 0.0  # Nyquist has no representable antiderivative partner
    p = irfft(cint, n)
    return mean, p - p[0]


def integrate_values(values: np.ndarray, period: float):
    """Rectangle rule over the full period along the last axis, exact for
    trigonometric polynomials: the package's one quadrature.  np.add.reduce
    is np.sum's kernel, without its wrapper."""
    return np.add.reduce(values, -1) * (period / np.shape(values)[-1])


def integrate(f: GridFunction) -> float:
    """integrate_values of one function, as a float."""
    return float(integrate_values(f.values, f.grid.period))

