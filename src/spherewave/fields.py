"""Uniform Dirichlet grid, R^3-valued fields, and the algebra built on them.

The package has one field layout, component-major.  A field is a plain
numpy array of shape (3, n): one row of node values per R^3 component, the
values of an R^3-valued function at the interior nodes x_j = j*h of (0, L),
with homogeneous Dirichlet values at x = 0 and x = L understood everywhere.
A block of fields has shape (..., 3, n), one field per leading index; an
ensemble block is (S, 3, n) in C order, so each sample's 3n values are
contiguous and a sample's numbers do not depend on its block.  The helpers
reduce over the component axis (-2) and act along the node axis (-1): the
pointwise algebra broadcasts per-node scalars as (..., 1, n) rows, and the
second difference (one kernel, `_laplacian_into`) and the sine spectrum run
along contiguous node rows.

The discrete H^1 seminorm is defined through the second-difference operator,
|f|_{H^1}^2 = <-A_h f, f>, so that discrete sine eigenfields satisfy
A_h u + |f|_{H^1}^2 u = 0 exactly on the unit sphere.  That choice turns the
equilibrium tests of the wave and limit solvers into exact identities.

On one (3, 127) field the Python dispatch in front of a numpy or scipy call
costs as much as its arithmetic, so this module calls three C entries
directly and is the only module that names them: numpy's `c_einsum`, bound
once as the two contractions every module sums fields with (`_inner_sum`,
`_node_dot`), and pocketfft's DST-I binding and LAPACK's dpttrf/dpttrs,
loaded from scipy's extension files without importing scipy.fft or
scipy.linalg.  Each gives the bits of the public call, and
tests/test_fields.py pins each to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from itertools import chain
from math import ceil, inf
from pathlib import Path

import numpy as np
# numpy's C einsum: np.einsum without `optimize` calls exactly this, and its
# Python wrapper costs more than the contraction on one field
from numpy._core._multiarray_umath import c_einsum

from .errors import DegenerateFieldError, ParameterError, ShapeError

__all__ = [
    "Grid1D",
    "step_count",
    "check_output_grid",
    "fitted_step",
    "output_rows",
    "zero_field",
    "sine_field",
    "field_from_modes",
    "inner_l2",
    "inner_each",
    "pointwise_dot",
    "norm_l2",
    "norm_l2_sq",
    "laplacian",
    "h1_seminorm_sq",
    "h2_norm_sq",
    "eigenvalue",
    "eigenvalues",
    "dst_ortho",
    "spectral_weights",
    "weighted_norm",
    "sobolev_norm",
    "cross",
    "triple_cross",
    "project_tangent",
    "normalize_sphere",
    "initial_pair",
    "HelmholtzSolver",
]


def _scipy_extension(name: str):
    """The compiled scipy module `name` (dotted, below scipy), loaded from its file.

    Importing the scipy.fft and scipy.linalg packages costs about 0.4 s,
    most of a cold start, for three compiled routines.  The extension file
    is found through scipy's spec, which does not import scipy, and loaded
    under its own dotted name, so a later import of the package shares it.
    """
    scipy = find_spec("scipy")
    if scipy is None:
        raise ImportError("spherewave needs scipy, which is not installed")
    stem = Path(scipy.submodule_search_locations[0]).joinpath(*name.split("."))
    for suffix in EXTENSION_SUFFIXES:
        path = stem.with_name(stem.name + suffix)
        if path.is_file():
            spec = spec_from_file_location(f"scipy.{name}", path)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no compiled module {stem}{{{','.join(EXTENSION_SUFFIXES)}}}")


# pocketfft's binding behind scipy.fft.dst, and the very LAPACK routines
# that scipy.linalg.get_lapack_funcs(("pttrf", "pttrs"), dtype=float) returns
_dst = _scipy_extension("fft._pocketfft.pypocketfft").dst
_flapack = _scipy_extension("linalg._flapack")
_pttrf, _pttrs = _flapack.dpttrf, _flapack.dpttrs

# rows per batched evaluation along one trajectory: simulate reduces its
# recorded rows, the exact heat flow of limit computes its steps, and
# solve_limit and comparison_experiment take the norms of a limit flow's
# steps, this many at a time on (rows, 3, n) stacks; one row at a time, the
# numpy call overhead dominates the arithmetic of a field.  It is also the
# one bound of every solver's working memory: Brownian increments are
# drawn, and both limit flows keep their steps in stacks that solve_limit
# and comparison_experiment fold into rows, this many steps at a time, so
# no run holds memory in proportion to its step count
ROW_CHUNK = 64


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of n interior nodes on (0, L) with spacing h = L/(n+1)."""

    L: float = 1.0
    n: int = 127

    def __post_init__(self):
        if not 0.0 < self.L < inf:
            raise ParameterError(f"domain length must be positive and finite, got {self.L}")
        if self.n < 2:
            raise ParameterError(f"need at least 2 interior nodes, got {self.n}")

    @cached_property
    def h(self) -> float:
        return self.L / (self.n + 1)

    @cached_property
    def x(self) -> np.ndarray:
        """Interior node coordinates x_j = j*h, j = 1..n."""
        return np.arange(1, self.n + 1) * self.h


def step_count(dt: float, T: float) -> int:
    """Number of steps of size dt from 0 to T; dt must divide T.

    A dt that does not divide T would silently end the run at
    round(T/dt)*dt instead of T, so it is rejected.
    """
    if not (0.0 < dt < inf and 0.0 < T < inf):
        raise ParameterError(
            f"time step and horizon must be positive and finite, got dt={dt!r}, T={T!r}")
    n = max(1, int(round(T / dt)))
    if abs(n * dt - T) > 1e-9 * T:
        raise ParameterError(
            f"dt={dt!r} does not divide T={T!r}: {n} steps would end at t={n * dt!r}")
    return n


def check_output_grid(T: float, n_out: int) -> None:
    """Refuse a horizon and output row count that no step fits: need 0 < T < inf and n_out >= 1."""
    if not 0.0 < T < inf:
        raise ParameterError(f"horizon must be positive and finite, got T={T!r}")
    if n_out < 1:
        raise ParameterError(f"need at least one output row, got n_out={n_out}")


def _check_friction(gamma: float) -> None:
    """Refuse a friction gamma that is not positive and finite."""
    if not 0.0 < gamma < inf:
        raise ParameterError(f"friction must be positive and finite, got {gamma}")


def fitted_step(dt_max: float, T: float, n_out: int) -> float:
    """The step T / n_steps, with n_steps >= T / dt_max rounded up to a multiple of n_out."""
    check_output_grid(T, n_out)
    if not 0.0 < dt_max < inf:
        raise ParameterError(f"no step fits the bound dt_max={dt_max}")
    n_steps = ceil(T / dt_max)
    n_steps = ((n_steps + n_out - 1) // n_out) * n_out
    return T / n_steps


def output_rows(n_steps: int, stride: int) -> list[int]:
    """Step indices recorded at `stride`, plus the last step."""
    return list(_row_steps(n_steps, stride))


def _row_steps(n_steps: int, stride: int):
    """The steps of output_rows one at a time, so a run of many rows need not hold them."""
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    return chain(range(0, n_steps, stride), (n_steps,))


def _check_field(grid: Grid1D, f: np.ndarray) -> np.ndarray:
    # C order, so that a field's reductions round the same at any layout
    f = np.ascontiguousarray(f, dtype=float)
    if f.shape != (3, grid.n):
        raise ShapeError(f"expected a field of shape (3, {grid.n}), got {f.shape}")
    return f


def _check_finite(values: np.ndarray, name: str, axes=("component", "node")) -> np.ndarray:
    """values as given; one with a NaN or inf entry is refused, naming where on `axes`.

    The one refusal of non-finite input, before any arithmetic can warn or
    report it as a blow-up.
    """
    if not np.isfinite(values).all():
        index = tuple(np.argwhere(~np.isfinite(values))[0])
        where = ", ".join(f"{axis} {i}" for axis, i in zip(axes, index))
        raise ParameterError(f"{name} is not finite: {values[index]} at {where}")
    return values


def _check_block(grid: Grid1D, f: np.ndarray) -> np.ndarray:
    # C order, so that a block's flattened views share its memory
    f = np.ascontiguousarray(f, dtype=float)
    if f.shape[-2:] != (3, grid.n):
        raise ShapeError(f"expected a field (3, {grid.n}) or a block (..., 3, {grid.n}),"
                         f" got {f.shape}")
    return f


def zero_field(grid: Grid1D) -> np.ndarray:
    return np.zeros((3, grid.n))


def sine_field(grid: Grid1D, k: int, component: int, amplitude: float = 1.0) -> np.ndarray:
    """amplitude * sin(k pi x / L) along the given R^3 component (1-based)."""
    if not 1 <= k <= grid.n:
        raise ParameterError(f"mode index must lie in 1..{grid.n}, got {k}")
    if component not in (1, 2, 3):
        raise ParameterError(f"component must be 1, 2 or 3, got {component}")
    f = zero_field(grid)
    f[component - 1] = amplitude * np.sin(k * np.pi * grid.x / grid.L)
    return f


def field_from_modes(grid: Grid1D, modes) -> np.ndarray:
    """Superpose (k, component, coefficient) sine modes into one field."""
    f = zero_field(grid)
    for k, d, c in modes:
        f += sine_field(grid, int(k), int(d), float(c))
    return f


# the package's two contractions, bound once: sum_ij f_ij g_ij per field (or row) and
# f.g per node, of (..., 3, n) arrays; as partials, a call adds no Python frame
_inner_sum = partial(c_einsum, "...ij,...ij->...")
_node_dot = partial(c_einsum, "...ij,...ij->...j")


def inner_l2(grid: Grid1D, f: np.ndarray, g: np.ndarray) -> float:
    """Trapezoidal L^2 inner product; boundary nodes contribute zero."""
    f = _check_field(grid, f)
    g = _check_field(grid, g)
    return grid.h * float(_inner_sum(f, g))


def inner_each(grid: Grid1D, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """inner_l2 of each pair of fields in two blocks (..., 3, n); shape (...)."""
    return grid.h * _inner_sum(f, g)


def pointwise_dot(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """f.g at every node of fields or blocks (..., 3, n), as rows (..., 1, n)."""
    return _node_dot(f, g)[..., None, :]


def norm_l2_sq(grid: Grid1D, f: np.ndarray) -> float:
    f = _check_field(grid, f)
    return grid.h * float(_inner_sum(f, f))


def norm_l2(grid: Grid1D, f: np.ndarray) -> float:
    return np.sqrt(norm_l2_sq(grid, f))


def _laplacian_into(f: np.ndarray, out: np.ndarray, h_sq: float) -> np.ndarray:
    """A_h f of a field or block (..., 3, n) into `out`, another C-ordered array of its shape.

    (-2 f + left) + right, over h^2.  One field takes its neighbours through
    slices; a block (S, ..., 3, n), S >= 2, takes each in one flat pass and
    restores each row's end node: the same bits, and no NaN crosses rows.
    """
    np.multiply(-2.0, f, out=out)
    if out.ndim > 2 and len(out) > 1:
        flat, out_flat, rows = f.reshape(-1), out.reshape(-1), out.reshape(-1, f.shape[-1])
        first = rows[:, 0].copy()
        np.add(out_flat[1:], flat[:-1], out=out_flat[1:])
        rows[:, 0] = first
        last = rows[:, -1].copy()
        np.add(out_flat[:-1], flat[1:], out=out_flat[:-1])
        rows[:, -1] = last
    else:
        left, right = out[..., 1:], out[..., :-1]
        np.add(left, f[..., :-1], out=left)
        np.add(right, f[..., 1:], out=right)
    return np.divide(out, h_sq, out=out)


def laplacian(grid: Grid1D, f: np.ndarray) -> np.ndarray:
    """Second central difference with homogeneous Dirichlet neighbours (fields or blocks)."""
    f = _check_block(grid, f)
    return _laplacian_into(f, np.empty(f.shape), grid.h ** 2)


def h1_seminorm_sq(grid: Grid1D, f: np.ndarray) -> float:
    """Discrete |f|_{H^1}^2 = <-A_h f, f> (summation by parts)."""
    return -inner_l2(grid, laplacian(grid, f), f)


def h2_norm_sq(grid: Grid1D, f: np.ndarray) -> float:
    """Discrete |f|_{H^2}^2 = |A_h f|_{L^2}^2."""
    return norm_l2_sq(grid, laplacian(grid, f))


def eigenvalue(grid: Grid1D, k: int) -> float:
    """Eigenvalue of -A_h on the k-th discrete sine vector, k = 1..n."""
    if not 1 <= k <= grid.n:
        raise ParameterError(f"mode index must lie in 1..{grid.n}, got {k}")
    return eigenvalues(grid)[k - 1]


def eigenvalues(grid: Grid1D) -> np.ndarray:
    """Eigenvalues (2 / h^2)(1 - cos(k pi h / L)) of -A_h on the sine vectors k = 1..n."""
    k = np.arange(1, grid.n + 1)
    return (2.0 / grid.h ** 2) * (1.0 - np.cos(k * np.pi * grid.h / grid.L))


def dst_ortho(f: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the node axis (the last); it is its own inverse.

    Calls pocketfft's binding directly, the routine behind
    scipy.fft.dst(f, type=1, axis=-1, norm="ortho"), with the same result bit
    for bit but without scipy.fft's dispatch, which costs more than the
    transform on one field.  Arguments: type 1, the node axis, inorm 1
    (ortho), a new output array, one thread.
    """
    f = np.asarray(f, dtype=float)
    return _dst(f, 1, (f.ndim - 1,), 1, None, 1, None)


def spectral_weights(grid: Grid1D, delta: float) -> np.ndarray:
    """Mode weights lambda_{h,k}^delta, k = 1..n, of the order-delta spectral norm.

    lambda_{h,k} is the discrete Dirichlet eigenvalue, so delta = 0 gives
    the L^2 norm and delta = 1 the summation-by-parts H^1 seminorm exactly.
    """
    if not 0.0 <= delta <= 2.0:
        raise ParameterError(f"sobolev order must lie in [0, 2], got {delta}")
    return eigenvalues(grid) ** delta if delta > 0 else np.ones(grid.n)


def weighted_norm(grid: Grid1D, weights: np.ndarray, f: np.ndarray) -> np.ndarray:
    """sqrt(h sum_k w_k |f_k|^2) of each field of a block (..., 3, n); shape (...)."""
    return np.sqrt(grid.h * c_einsum("k,...dk,...dk->...", weights, f, f))


def sobolev_norm(grid: Grid1D, f: np.ndarray, delta: float) -> float:
    """Fractional Sobolev norm of order delta in [0, 2] via the sine spectrum.

    Mode k of the dst_ortho coefficients is weighted by spectral_weights(grid, delta).
    """
    coeffs = dst_ortho(_check_field(grid, f))
    return float(weighted_norm(grid, spectral_weights(grid, delta), coeffs))


# component c of f x g is f[I[c]] g[J[c]] - f[J[c]] g[I[c]], I = (1, 2, 0) and
# J = (2, 0, 1): f taken at I + J times g at J + I holds both products
_F_ROWS, _G_ROWS = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])


def _cross_into(f, g, out, pairs_f, pairs_g) -> np.ndarray:
    """f x g of (..., 3, n) arrays into `out` via (..., 6, n) buffers; np.cross's roundoff."""
    f.take(_F_ROWS, axis=-2, out=pairs_f, mode="wrap")
    g.take(_G_ROWS, axis=-2, out=pairs_g, mode="wrap")
    np.multiply(pairs_f, pairs_g, out=pairs_f)
    return np.subtract(pairs_f[..., :3, :], pairs_f[..., 3:, :], out=out)


def cross(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pointwise f x g of two fields or blocks (..., 3, n) of one shape."""
    pairs = np.empty((2,) + f.shape[:-2] + (6, f.shape[-1]))
    return _cross_into(f, g, np.empty(f.shape), *pairs)


def triple_cross(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """h x (h x k) evaluated as (h.k) h - (h.h) k, on (..., 3, n) arrays."""
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    return pointwise_dot(h, k) * h - pointwise_dot(h, h) * k


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


def initial_pair(grid: Grid1D, u_modes, v_modes):
    """Initial pair (u0, v0) from sine modes: u0 on the unit sphere, v0 tangent to it."""
    u0 = normalize_sphere(grid, field_from_modes(grid, u_modes))
    if v_modes:
        v0 = project_tangent(grid, u0, field_from_modes(grid, v_modes))
    else:
        v0 = zero_field(grid)
    return u0, v0


class HelmholtzSolver:
    """Prefactored solver for (c0 I - c2 A_h) x = b with Dirichlet A_h.

    c0 > 0 and c2 >= 0 make the tridiagonal matrix symmetric positive
    definite; its LDL^T factor (LAPACK pttrf) is computed once and reused for
    every right-hand side (columns of shape (n,) or (n, k)); a block
    (S, 3, n) in C order is the Fortran-ordered (n, 3S) matrix
    b.reshape(3S, n).T, solved in place.  Columns are
    solved independently, each with the arithmetic of a lone-column solve,
    so a non-finite column leaves the others intact; callers detect
    blow-ups themselves.
    """

    def __init__(self, grid: Grid1D, c0: float, c2: float):
        if c0 <= 0 or c2 < 0:
            raise ParameterError(f"need c0 > 0 and c2 >= 0, got c0={c0}, c2={c2}")
        h2 = grid.h ** 2
        self._d, self._e, info = _pttrf(np.full(grid.n, c0 + 2.0 * c2 / h2),
                                        np.full(grid.n - 1, -c2 / h2))
        if info:
            raise ParameterError(f"tridiagonal factorisation failed (LAPACK pttrf info={info})")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solution for the columns of b; a Fortran-ordered b is overwritten, not copied."""
        x, info = _pttrs(self._d, self._e, b, overwrite_b=1)
        if info:
            raise ParameterError(f"tridiagonal solve failed (LAPACK pttrs info={info})")
        return x
