"""Uniform Dirichlet grid, R^3-valued fields, and the algebra built on them.

Fields are plain numpy arrays of shape (n, 3): the values of an R^3-valued
function at the interior nodes x_j = j*h of (0, L), with homogeneous
Dirichlet values at x = 0 and x = L understood everywhere.

The discrete H^1 seminorm is defined through the second-difference operator,
|f|_{H^1}^2 = <-A_h f, f>, so that discrete sine eigenfields satisfy
A_h u + |f|_{H^1}^2 u = 0 exactly on the unit sphere.  That choice turns the
equilibrium tests of the wave and limit solvers into exact identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import dst
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import DegenerateFieldError, ParameterError, ShapeError

__all__ = [
    "Grid1D",
    "step_count",
    "SineSpectrum",
    "zero_field",
    "sine_field",
    "field_from_modes",
    "inner_l2",
    "norm_l2",
    "norm_l2_sq",
    "laplacian",
    "h1_seminorm_sq",
    "h2_norm_sq",
    "eigenvalue",
    "eigenvalues",
    "dst_ortho",
    "sine_transform",
    "inverse_sine_transform",
    "sobolev_norm",
    "cross",
    "triple_cross",
    "project_tangent",
    "normalize_sphere",
    "forward_diff",
    "midpoint_average",
    "HelmholtzSolver",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of n interior nodes on (0, L) with spacing h = L/(n+1)."""

    L: float = 1.0
    n: int = 127

    def __post_init__(self):
        if self.L <= 0:
            raise ParameterError(f"domain length must be positive, got {self.L}")
        if self.n < 2:
            raise ParameterError(f"need at least 2 interior nodes, got {self.n}")

    @property
    def h(self) -> float:
        return self.L / (self.n + 1)

    @cached_property
    def x(self) -> np.ndarray:
        """Interior node coordinates x_j = j*h, j = 1..n."""
        return np.arange(1, self.n + 1) * self.h

    @cached_property
    def x_mid(self) -> np.ndarray:
        """Midpoints of the n+1 cells, including the two boundary cells."""
        return (np.arange(self.n + 1) + 0.5) * self.h


def step_count(dt: float, T: float) -> int:
    """Number of steps of size dt from 0 to T; dt must divide T.

    A dt that does not divide T would silently end the run at
    round(T/dt)*dt instead of T, so it is rejected.
    """
    n = max(1, int(round(T / dt)))
    if abs(n * dt - T) > 1e-9 * T:
        raise ParameterError(
            f"dt={dt!r} does not divide T={T!r}: {n} steps would end at t={n * dt!r}")
    return n


def _check_field(grid: Grid1D, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n, 3):
        raise ShapeError(f"expected field of shape ({grid.n}, 3), got {f.shape}")
    return f


def zero_field(grid: Grid1D) -> np.ndarray:
    return np.zeros((grid.n, 3))


def sine_field(grid: Grid1D, k: int, component: int, amplitude: float = 1.0) -> np.ndarray:
    """amplitude * sin(k pi x / L) along the given R^3 component (1-based)."""
    if not 1 <= k <= grid.n:
        raise ParameterError(f"mode index must lie in 1..{grid.n}, got {k}")
    if component not in (1, 2, 3):
        raise ParameterError(f"component must be 1, 2 or 3, got {component}")
    f = zero_field(grid)
    f[:, component - 1] = amplitude * np.sin(k * np.pi * grid.x / grid.L)
    return f


def field_from_modes(grid: Grid1D, modes) -> np.ndarray:
    """Superpose (k, component, coefficient) sine modes into one field."""
    f = zero_field(grid)
    for k, d, c in modes:
        f += sine_field(grid, int(k), int(d), float(c))
    return f


def inner_l2(grid: Grid1D, f: np.ndarray, g: np.ndarray) -> float:
    """Trapezoidal L^2 inner product; boundary nodes contribute zero."""
    f = _check_field(grid, f)
    g = _check_field(grid, g)
    return grid.h * float(np.einsum("ij,ij->", f, g))


def norm_l2_sq(grid: Grid1D, f: np.ndarray) -> float:
    f = _check_field(grid, f)
    return grid.h * float(np.einsum("ij,ij->", f, f))


def norm_l2(grid: Grid1D, f: np.ndarray) -> float:
    return np.sqrt(norm_l2_sq(grid, f))


def laplacian(grid: Grid1D, f: np.ndarray) -> np.ndarray:
    """Second central difference with homogeneous Dirichlet neighbours."""
    f = _check_field(grid, f)
    out = -2.0 * f
    out[1:] += f[:-1]
    out[:-1] += f[1:]
    out /= grid.h ** 2
    return out


def h1_seminorm_sq(grid: Grid1D, f: np.ndarray) -> float:
    """Discrete |f|_{H^1}^2 = <-A_h f, f> (summation by parts)."""
    return -inner_l2(grid, laplacian(grid, f), f)


def h2_norm_sq(grid: Grid1D, f: np.ndarray) -> float:
    """Discrete |f|_{H^2}^2 = |A_h f|_{L^2}^2."""
    return norm_l2_sq(grid, laplacian(grid, f))


def eigenvalue(grid: Grid1D, k: int) -> float:
    """Eigenvalue of -A_h on the k-th discrete sine vector."""
    return (2.0 / grid.h ** 2) * (1.0 - np.cos(k * np.pi * grid.h / grid.L))


def eigenvalues(grid: Grid1D) -> np.ndarray:
    k = np.arange(1, grid.n + 1)
    return (2.0 / grid.h ** 2) * (1.0 - np.cos(k * np.pi * grid.h / grid.L))


@dataclass(frozen=True)
class SineSpectrum:
    """Coefficients c[k-1, d] of f(x) = sum_k c_k sin(k pi x / L) per component."""

    grid: Grid1D
    coeffs: np.ndarray


def dst_ortho(f: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the node axis; it is its own inverse."""
    return dst(f, type=1, axis=0, norm="ortho")


def sine_transform(grid: Grid1D, f: np.ndarray) -> SineSpectrum:
    f = _check_field(grid, f)
    scale = np.sqrt(2.0 / (grid.n + 1))
    return SineSpectrum(grid, dst_ortho(f) * scale)


def inverse_sine_transform(spectrum: SineSpectrum) -> np.ndarray:
    grid = spectrum.grid
    scale = np.sqrt(2.0 / (grid.n + 1))
    return dst_ortho(spectrum.coeffs / scale)


def sobolev_norm(grid: Grid1D, f: np.ndarray, delta: float) -> float:
    """Fractional Sobolev norm of order delta in [0, 2] via the sine spectrum.

    Mode k is weighted by lambda_{h,k}^delta with lambda_{h,k} the discrete
    Dirichlet eigenvalue, so delta = 0 reproduces the L^2 norm and delta = 1
    the summation-by-parts H^1 seminorm exactly.
    """
    if not 0.0 <= delta <= 2.0:
        raise ParameterError(f"sobolev order must lie in [0, 2], got {delta}")
    f = _check_field(grid, f)
    coeffs = dst_ortho(f)
    weights = eigenvalues(grid) ** delta if delta > 0 else np.ones(grid.n)
    return float(np.sqrt(grid.h * np.einsum("k,kd,kd->", weights, coeffs, coeffs)))


def cross(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.cross(f, g)


def triple_cross(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """h x (h x k) evaluated as -|h|^2 k + (h.k) h, on any (..., 3) shape."""
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    hh = np.einsum("...i,...i->...", h, h)[..., None]
    hk = np.einsum("...i,...i->...", h, k)[..., None]
    return hk * h - hh * k


def project_tangent(grid: Grid1D, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Remove the u-component of v in the L^2 inner product."""
    uu = norm_l2_sq(grid, u)
    if uu <= 0.0:
        raise DegenerateFieldError("cannot project onto a zero field")
    return v - (inner_l2(grid, u, v) / uu) * u


def normalize_sphere(grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """Rescale u to unit L^2 norm."""
    nrm = norm_l2(grid, u)
    if nrm <= 0.0:
        raise DegenerateFieldError("cannot normalise a zero field")
    return u / nrm


def forward_diff(grid: Grid1D, f: np.ndarray) -> np.ndarray:
    """Forward differences (f_{j+1} - f_j)/h at the n+1 cell midpoints.

    These are exactly the gradients appearing in the summation-by-parts
    identity <-A_h f, g> = h * sum_mid Df . Dg.
    """
    f = _check_field(grid, f)
    out = np.zeros((grid.n + 1, 3))
    out[:-1] = f
    out[1:-1] -= f[:-1]
    out[-1] = -f[-1]
    out /= grid.h
    return out


def midpoint_average(grid: Grid1D, f: np.ndarray) -> np.ndarray:
    """Node averages (f_j + f_{j+1})/2 at the n+1 cell midpoints."""
    f = _check_field(grid, f)
    out = np.zeros((grid.n + 1, 3))
    out[1:] = f
    out[:-1] += f
    out *= 0.5
    return out


class HelmholtzSolver:
    """Prefactored solver for (c0 I - c2 A_h) x = b with Dirichlet A_h.

    c0 > 0 and c2 >= 0 make the tridiagonal matrix symmetric positive
    definite; the banded Cholesky factor is computed once and reused for
    every right-hand side (columns of shape (n,) or (n, k)).
    """

    def __init__(self, grid: Grid1D, c0: float, c2: float):
        if c0 <= 0 or c2 < 0:
            raise ParameterError(f"need c0 > 0 and c2 >= 0, got c0={c0}, c2={c2}")
        self.grid = grid
        h2 = grid.h ** 2
        ab = np.zeros((2, grid.n))
        ab[0, 1:] = -c2 / h2
        ab[1, :] = c0 + 2.0 * c2 / h2
        self._factor = cholesky_banded(ab, lower=False)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return cho_solve_banded((self._factor, False), b)
