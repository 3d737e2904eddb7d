"""Truncated reproducing-kernel noise basis and the multiplicative noise.

The spatial basis is the sine family with power-law amplitudes,

    xi_i(x) = i^(-p) * sqrt(2/L) * sin(i pi x / L),      i = 1..m,

whose squared sum, the reproducing kernel

    phi(x) = sum_i xi_i(x)^2,

is the only noise statistic entering the dynamics.  Summability of the
untruncated series needs p > 3/2; the constructor enforces p >= 2.

The noise acts on the velocity as the scalar field sum_i xi_i(x) dB_i(t)
multiplying the pointwise vector u x v; its Ito correction drift is the
trace field phi * (u x (u x v)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import AliasingError, HypothesisViolationError, ParameterError, ShapeError
from .fields import Grid1D, cross, triple_cross

__all__ = [
    "NoiseBasis",
    "build_basis",
    "check_grid",
    "strat_correction",
    "noise_field",
    "derive_stream",
]


@dataclass(frozen=True)
class NoiseBasis:
    """Sampled sine basis and the kernel field phi it induces."""

    grid: Grid1D
    m: int
    xi: np.ndarray                # (m, n) xi_i(x_j)
    phi: np.ndarray               # (n,) a row, which broadcasts over the components


def build_basis(grid: Grid1D, m: int, p: float) -> NoiseBasis:
    """Construct the truncated basis with m modes and decay exponent p.

    m = 0 yields the silent basis (phi = 0), used for noise-free control
    runs; p >= 2 is enforced regardless so configurations stay within the
    summability regime.
    """
    if not 2.0 <= p < inf:
        raise HypothesisViolationError(
            f"decay exponent p must be finite and >= 2 (summability needs p > 3/2), got {p}"
        )
    if m < 0:
        raise ParameterError(f"mode count must be nonnegative, got {m}")
    if m > grid.n:
        raise AliasingError(f"m = {m} noise modes exceed the {grid.n} grid modes")

    i = np.arange(1, m + 1, dtype=float)
    amp = i ** (-p)
    root = np.sqrt(2.0 / grid.L)
    omega = i * np.pi / grid.L
    xi = amp[:, None] * root * np.sin(np.outer(omega, grid.x))
    phi = (xi ** 2).sum(axis=0) if m else np.zeros(grid.n)
    return NoiseBasis(grid=grid, m=m, xi=xi, phi=phi)


def check_grid(basis: NoiseBasis, grid: Grid1D) -> None:
    """Refuse a basis built on another grid (tested by identity first, the common case)."""
    if basis.grid is not grid and basis.grid != grid:
        raise ShapeError("noise basis and parameters use different grids")


def _check_pair(grid: Grid1D, u: np.ndarray, v: np.ndarray) -> None:
    if u.shape[-2:] != (3, grid.n) or v.shape != u.shape:
        raise ShapeError(f"expected fields (3, {grid.n}) or blocks (..., 3, {grid.n}) of one"
                         f" shape, got {u.shape} and {v.shape}")


def derive_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (master seed, key...).

    The same (seed, key) always yields the same stream; distinct keys yield
    statistically independent streams.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(master_seed),) + tuple(int(k) for k in key))))


def strat_correction(u: np.ndarray, v: np.ndarray, basis: NoiseBasis) -> np.ndarray:
    """Trace field phi * (u x (u x v)) = phi * (-(u.u) v + (u.v) u).

    This is the full trace; the caller applies the Stratonovich 1/2.  u and
    v are fields (3, n) or blocks of fields (S, 3, n).
    """
    _check_pair(basis.grid, u, v)
    return basis.phi * triple_cross(u, v)


def noise_field(u: np.ndarray, v: np.ndarray, basis: NoiseBasis, values: np.ndarray) -> np.ndarray:
    """(u x v)(x) * sum_i xi_i(x) dB_i for raw increment values.

    values has shape (m,) for a field (3, n), or (S, m) for a block (S, 3, n).
    The noise sums are one stacked matmul of xi^T (n, m) with the columns
    values[..., None]; numpy runs it as one matrix-vector product per field,
    the product a lone field takes.  A matrix-matrix product over the block
    would round differently, and a sample's noise must depend neither on its
    block nor on the block size.  Each field's sums, a column (n, 1), are
    read as the row (1, n) that broadcasts over its components.
    """
    _check_pair(basis.grid, u, v)
    if values.shape[-1:] != (basis.m,) or values.shape[:-1] != u.shape[:-2]:
        raise ShapeError(f"expected {basis.m} increments per field, got shape {values.shape}")
    if basis.m == 0:
        return np.zeros_like(u)
    sums = np.matmul(basis.xi.T, values[..., None])
    return cross(u, v) * sums.reshape(values.shape[:-1] + (1, basis.grid.n))
