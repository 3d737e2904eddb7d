"""Truncated reproducing-kernel noise basis and the multiplicative noise.

The spatial basis is the sine family with power-law amplitudes,

    xi_i(x) = i^(-p) * sqrt(2/L) * sin(i pi x / L),      i = 1..m,

which is C^1 with closed-form derivatives, and whose squared sums

    phi(x)  = sum_i xi_i(x)^2,      phi1(x) = sum_i xi_i'(x)^2

are the only noise statistics entering the dynamics.  Summability of the
untruncated series needs p > 3/2; the constructor enforces p >= 2.

The noise acts on the velocity as the scalar field sum_i xi_i(x) dB_i(t)
multiplying the pointwise vector u x v; its Ito correction drift is the
trace field phi * (u x (u x v)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

from .errors import AliasingError, HypothesisViolationError, ParameterError, ShapeError
from .fields import Grid1D, cross, pointwise_dot

__all__ = [
    "NoiseBasis",
    "build_basis",
    "strat_correction",
    "noise_field",
    "derive_stream",
]


@dataclass(frozen=True)
class NoiseBasis:
    """Sampled sine basis and the kernel fields phi, phi1 it induces.

    Node arrays drive the dynamics; midpoint kernels (staggered grid) serve
    the H^1-level diagnostic functionals.  The sup bounds are the truncated
    closed forms (2/L) sum a_i^2 and (2/L) sum a_i^2 (i pi/L)^2; the tails
    are the zeta-function remainders of the untruncated series.
    """

    grid: Grid1D
    m: int
    p: float
    amplitudes: np.ndarray        # (m,)   a_i = i^-p
    xi: np.ndarray                # (m, n) xi_i(x_j)
    phi: np.ndarray               # (n,)
    half_phi: np.ndarray          # (n, 1) the column phi/2 of the limit's mobility solve
    phi1: np.ndarray              # (n,)
    phi_mid: np.ndarray           # (n+1,)
    phi1_mid: np.ndarray          # (n+1,)
    xi_dxi_mid: np.ndarray        # (n+1,) sum_i xi_i xi_i' at midpoints
    phi_sup_bound: float
    phi1_sup_bound: float
    phi_tail: float
    phi1_tail: float


def build_basis(grid: Grid1D, m: int, p: float) -> NoiseBasis:
    """Construct the truncated basis with m modes and decay exponent p.

    m = 0 yields the silent basis (phi = phi1 = 0), used for noise-free
    control runs; p >= 2 is enforced regardless so configurations stay
    within the summability regime.
    """
    if p < 2.0:
        raise HypothesisViolationError(
            f"decay exponent p must be >= 2 (summability needs p > 3/2), got {p}"
        )
    if m < 0:
        raise ParameterError(f"mode count must be nonnegative, got {m}")
    if m > grid.n:
        raise AliasingError(f"m = {m} noise modes exceed the {grid.n} grid modes")

    i = np.arange(1, m + 1, dtype=float)
    amp = i ** (-p)
    root = np.sqrt(2.0 / grid.L)
    omega = i * np.pi / grid.L

    def _sample(points: np.ndarray):
        arg = np.outer(omega, points)
        xi = amp[:, None] * root * np.sin(arg)
        dxi = (amp * omega)[:, None] * root * np.cos(arg)
        return xi, dxi

    xi, dxi = _sample(grid.x)
    xi_mid, dxi_mid = _sample(grid.x_mid)

    a2 = amp ** 2
    phi_sup = float((2.0 / grid.L) * a2.sum())
    phi1_sup = float((2.0 / grid.L) * (a2 * omega ** 2).sum())
    # untruncated sup bounds via zeta(2p), zeta(2p-2); subtract the partial sums
    full_phi = (2.0 / grid.L) * float(zeta(2.0 * p, 1))
    full_phi1 = (2.0 / grid.L) * (np.pi / grid.L) ** 2 * float(zeta(2.0 * p - 2.0, 1))
    phi1_partial = float((2.0 / grid.L) * (np.pi / grid.L) ** 2 * (i ** (2.0 - 2.0 * p)).sum())

    phi = (xi ** 2).sum(axis=0) if m else np.zeros(grid.n)
    return NoiseBasis(
        grid=grid,
        m=m,
        p=p,
        amplitudes=amp,
        xi=xi,
        phi=phi,
        half_phi=0.5 * phi[:, None],
        phi1=(dxi ** 2).sum(axis=0) if m else np.zeros(grid.n),
        phi_mid=(xi_mid ** 2).sum(axis=0) if m else np.zeros(grid.n + 1),
        phi1_mid=(dxi_mid ** 2).sum(axis=0) if m else np.zeros(grid.n + 1),
        xi_dxi_mid=(xi_mid * dxi_mid).sum(axis=0) if m else np.zeros(grid.n + 1),
        phi_sup_bound=phi_sup,
        phi1_sup_bound=phi1_sup,
        phi_tail=full_phi - phi_sup,
        phi1_tail=full_phi1 - phi1_partial,
    )


def derive_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (master seed, key...).

    The same (seed, key) always yields the same stream; distinct keys yield
    statistically independent streams.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(master_seed),) + tuple(int(k) for k in key))))


def strat_correction(u: np.ndarray, v: np.ndarray, basis: NoiseBasis, *,
                     dots: tuple | None = None) -> np.ndarray:
    """Trace field phi * (u x (u x v)) = phi * (-(u.u) v + (u.v) u).

    This is the full trace; the caller applies the Stratonovich 1/2.  u and
    v are fields (n, 3) or blocks of fields (S, n, 3); dots may pass the
    pointwise (u.u, u.v) when the caller already holds them.
    """
    grid = basis.grid
    if u.shape[-2:] != (grid.n, 3) or v.shape != u.shape:
        raise ShapeError(f"fields must have matching shapes (..., {grid.n}, 3)")
    uu, uv = dots if dots is not None else (pointwise_dot(u, u), pointwise_dot(u, v))
    return basis.phi[:, None] * (uv * u - uu * v)


def noise_field(u: np.ndarray, v: np.ndarray, basis: NoiseBasis, values: np.ndarray) -> np.ndarray:
    """(u x v)(x) * sum_i xi_i(x) dB_i for raw increment values.

    values has shape (m,) for a field (n, 3), or (S, m) for a block (S, n, 3).
    The noise sums are one stacked matmul of xi^T (n, m) with the columns
    values[..., None]; numpy runs it as one matrix-vector product per field,
    the product a lone field takes.  A matrix-matrix product over the block
    would round differently, and a sample's noise must depend neither on its
    block nor on the block size.
    """
    if values.shape[-1:] != (basis.m,) or values.shape[:-1] != u.shape[:-2]:
        raise ShapeError(f"expected {basis.m} increments per field, got shape {values.shape}")
    if basis.m == 0:
        return np.zeros_like(u)
    return cross(u, v) * np.matmul(basis.xi.T, values[..., None])
