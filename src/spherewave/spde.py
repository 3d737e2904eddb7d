"""Semi-implicit time integration of the small-mass stochastic wave system.

The system, written in Ito form for the pair (u, v = du/dt), is

    du = v dt
    dv = (1/mu) [ A_h u + |u|_{H1}^2 u - mu |v|_H^2 u - gamma v
                  + (1/2) mu^(2a-1) phi u x (u x v) ] dt
         + mu^(a-1) (u x v) sum_i xi_i dB_i,

with a the noise exponent (a = 1/2 is the reference scaling, where the
correction coefficient reduces to 1/2).  The linear stiff part (A_h and the
damping) is treated implicitly through one tridiagonal solve per component;
nonlinearities, the trace correction, and the noise are explicit.

SpdeStepper is a batched engine: it advances a block of S independent
samples held as C-ordered (S, 3, n) arrays (the layout of fields.py), with
one tridiagonal LDL^T solve on all 3S node rows per step, in place.  A
single trajectory (simulate) is one field (3, n), stepped as a field by
the same step, with numpy scalars for its norms and sups, and the numbers
of the same sample in any block.  The engine holds the
step's constants and buffers for its intermediates, built with it, and
its step takes the float operations of the public helpers in their
order.  Every operation acts on each sample separately, so a
sample's numbers do not depend on the block it shares.  A block keeps its
shape: a sample is lost at the first step whose new state has non-finite
norms, recorded as a BlowUpError with the diagnostics of the state before
the blow-up step, and steps on as NaN, which leaves the other samples'
numbers as they were.  `SpdeStepper.run` reads the Brownian increments one
step at a time, from an array or from noise.brownian_increments, which
draws them ROW_CHUNK steps at a time, and simulate reduces its rows
ROW_CHUNK at a time: the working memory of a run is bounded by that chunk,
not by its step count.

Structure diagnostics: the pathwise energy

    E(t) = |u|_{H1}^2 + mu |v|_H^2 + 2 gamma int_0^t |v|_H^2 ds

is conserved by the continuous dynamics; the tangent-bundle residuals
theta = (|u|_H^2 - 1)/2 and eta = <u, v>_H vanish identically on it.  One
function evaluates both, with the norms of DIAGNOSTICS, on any stack of
states (SpdeStepper.diagnostics on its state, simulate on a chunk of rows).
Every engine accumulates the integrals of the integrated identity used in
the small-mass comparison: six trapezoid integrals (REMAINDER_KEYS), kept as
left sums of their integrands with one add per step and given their end
correction only when `remainder` reads them, and the Ito sum of J6, whose
kick comes from one stacked matrix-vector product per step.  Its six-term
remainder,

    R(t) = (3 mu / 2 gamma) phi (u0.v0) u0 + sum_i J_i(t),
    J1 = -(3 mu/2 gamma) phi (u.v) u            J4 = (3 mu/2 gamma) phi int |v|^2 u ds
    J2 = -mu int |v|_H^2 u ds                   J5 = -(3 mu/2 gamma) phi int |v|_H^2 |u|^2 u ds
    J3 = (3 mu/2 gamma) phi int (u.v) v ds      J6 = mu^alpha int (u x v) dw

and the residual of the full identity, a pure time-discretisation quantity,
are evaluated by RemainderIdentity from those accumulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

import numpy as np

from .errors import BlowUpError, ParameterError, ShapeError
from .fields import (
    Grid1D,
    HelmholtzSolver,
    ROW_CHUNK,
    _check_finite,
    _check_friction,
    _cross_into,
    _inner_sum,
    _laplacian_into,
    _node_dot,
    check_output_grid,
    fitted_step,
    inner_each,
    laplacian,
    output_rows,
    pointwise_dot,
    step_count,
    weighted_norm,
)
from .noise import NoiseBasis, brownian_increments, check_grid

__all__ = [
    "SpdeParams",
    "SpdeTrajectory",
    "SpdeStepper",
    "REMAINDER_KEYS",
    "RemainderIdentity",
    "simulate",
]

# dt <= CFL_LIMIT * sqrt(mu) * h.  An accuracy bound, not a stability bound:
# the wave operator is implicit in the tridiagonal solve, and with the bound
# lifted the default study ran at 4x it without a blow-up (ROADMAP item 3(b)).
# It is also the step fraction of every auto step (SpdeParams.auto).
CFL_LIMIT = 0.5

# trapezoid integrals of the integrated identity: "iAN" is
# A_h u + |u|_{H1}^2 u and "iCD" is ((A_h u).u + |u|_{H1}^2 |u|^2) u, the two
# sums RemainderIdentity.norms reads; "j6", the Ito sum mu^alpha int (u x v) dw, is
# accumulated with the noise kick
REMAINDER_KEYS = ("iAN", "iCD", "j2", "j3", "j4", "j5")
# the exponent a of the weighted-H2 monitor's factor exp(-a int |v|_H^2 ds)
WEIGHT_A = 1.0
DIAGNOSTICS = ("energy", "theta", "eta", "u_h1", "u_h2", "v_h", "v_h1", "weighted_h2")
# the diagnostics a BlowUpError carries from the state before a lost sample's blow-up step
BLOWUP_DIAGNOSTICS = ("energy", "theta", "eta", "u_h1")


@dataclass(frozen=True)
class SpdeParams:
    """Physical and numerical parameters of one stochastic trajectory.

    Noise statistics are not parameters: the correction drift reads its
    kernel phi from the noise basis the engine steps on.
    """

    grid: Grid1D
    mu: float
    dt: float
    T: float
    gamma: float = 1.0
    alpha: float = 0.5
    projection: bool = False

    def __post_init__(self):
        _check_mass(self.mu)
        _check_friction(self.gamma)
        if not 0.0 <= self.alpha < np.inf:
            raise ParameterError(f"noise exponent must be nonnegative and finite, got {self.alpha}")
        bound = CFL_LIMIT * np.sqrt(self.mu) * self.grid.h
        if self.dt > bound * (1.0 + 1e-12):
            raise ParameterError(
                f"dt={self.dt} exceeds the wave accuracy bound {bound:.3e}"
                f" ({CFL_LIMIT} sqrt(mu) h) for mu={self.mu}"
            )
        step_count(self.dt, self.T)

    @property
    def n_steps(self) -> int:
        return step_count(self.dt, self.T)

    @classmethod
    def auto(cls, grid: Grid1D, mu: float, T: float, *, gamma: float = 1.0,
             alpha: float = 0.5, projection: bool = False, n_out: int = 256,
             dt: float | None = None) -> "SpdeParams":
        """Resolve the step on an n_out output grid; every configured dt is read here.

        dt=None takes the largest step under CFL_LIMIT * sqrt(mu) h whose step
        count is a multiple of n_out.  A given dt is the exact step: it must
        divide T into a multiple of n_out steps.
        """
        if dt is None:
            _check_mass(mu)   # before its square root is taken
            dt = fitted_step(CFL_LIMIT * np.sqrt(mu) * grid.h, T, n_out)
        else:
            check_output_grid(T, n_out)
            if step_count(dt, T) % n_out:
                raise ParameterError(
                    f"dt={dt!r} takes {step_count(dt, T)} steps to T={T!r},"
                    f" not a multiple of the {n_out} output rows")
        return cls(grid=grid, mu=mu, dt=dt, T=T, gamma=gamma, alpha=alpha,
                   projection=projection)


def _check_mass(mu: float) -> None:
    if not 0.0 < mu <= 1.0:
        raise ParameterError(f"mass must lie in (0, 1], got {mu}")


def _state_norms(grid: Grid1D, u: np.ndarray, v: np.ndarray):
    """A_h u, |u|_{H1}^2 and |v|_H^2 of states (..., 3, n)."""
    lap = laplacian(grid, u)
    return lap, -inner_each(grid, lap, u), inner_each(grid, v, v)


def _energy(params: SpdeParams, h1, vh2, acc_v2):
    """Pathwise energy |u|_{H1}^2 + mu |v|_H^2 + 2 gamma int |v|_H^2 ds."""
    return h1 + params.mu * vh2 + 2.0 * params.gamma * acc_v2


def _diagnostics(params: SpdeParams, u: np.ndarray, v: np.ndarray, acc_v2) -> dict:
    """Every scalar of DIAGNOSTICS for states (..., 3, n) and their int |v|_H^2 ds (...).

    weighted_h2 = exp(-a int |v|^2 ds) (|u|_{H2}^2 + mu |v|_{H1}^2
    + mu |u|_{H1}^2 |v|_H^2) with a = WEIGHT_A is a boundedness monitor
    only; never fed back into the dynamics.
    """
    grid, mu = params.grid, params.mu
    lap, h1, vh2 = _state_norms(grid, u, v)
    u_h2_sq = inner_each(grid, lap, lap)
    v_h1_sq = -inner_each(grid, laplacian(grid, v), v)
    return {
        "energy": _energy(params, h1, vh2, acc_v2),
        "theta": 0.5 * (inner_each(grid, u, u) - 1.0),
        "eta": inner_each(grid, u, v),
        "u_h1": np.sqrt(np.maximum(h1, 0.0)),
        "u_h2": np.sqrt(u_h2_sq),
        "v_h": np.sqrt(vh2),
        "v_h1": np.sqrt(np.maximum(v_h1_sq, 0.0)),
        "weighted_h2": np.exp(-WEIGHT_A * acc_v2) * (u_h2_sq + mu * v_h1_sq + mu * h1 * vh2),
    }


# a block's per-sample values (S,) as (S, 1, 1) views that broadcast over its fields
_sample_view = itemgetter((slice(None), None, None))


def _same(x):
    """A field's per-trajectory scalar, which broadcasts over the field as it is."""
    return x


def _scalar_max(sup, x):
    """np.maximum of two scalars: a NaN in either is the result."""
    return sup if sup >= x or sup != sup else x


def _all_finite(x: np.ndarray) -> bool:
    """Whether every value of a block's (S,) array is finite, in two C calls."""
    return np.logical_and.reduce(np.isfinite(x))


class SpdeStepper:
    """Prefactored semi-implicit Euler-Maruyama engine for one field or a block of samples.

    One step: (1) form the drift A_h u + N(u, v), N the explicit nonlinear
    force plus the halved trace correction, and solve (I + (gamma dt/mu) I
    - (dt^2/mu) A_h) v* = v + (dt/mu)(A_h u + N(u, v)); (2) add the noise
    kick mu^(alpha-1) (u x v) dW; (3) u* = u + dt v*; keep per sample the
    sup over steps of the step result's constraint residuals, | |u*|_H - 1 |
    in `norm_defect` and |<u*, v*>_H| in `tangent_defect`; (4) optionally
    re-project (u*, v*) onto the constraint manifold, which removes exactly
    those residuals, else take (u*, v*) as the new state; (5) read the new
    state's A_h u, norms and pointwise dots, and update the running
    integrals: the trapezoid for int |v|^2, one add of the six remainder
    integrands f_k onto their left sum, which starts at f_0 / 2 so that
    `remainder` reads the trapezoid integral as dt (sum - f_k / 2), and the
    left-point Ito sum for the noise accumulator, matching the kick, whose
    noise sums are one stacked matrix-vector product (noise_field's).  Every
    engine keeps those accumulators, and `identity` evaluates the remainder
    from them.

    Built with its state, the engine holds what a run never changes (h, -h,
    h^2, dt, dt / 2, dt / mu, mu, the correction weight 0.5 mu^(2a-1), the
    kick and Ito-sum scales mu^(a-1) and mu^a, phi, xi^T, whether the basis
    is silent, whether the step projects) and buffers for the step's
    intermediates.  `_bind` makes a state the engine's and reads its A_h u
    (`lap`), u.u, u.v and |u|_{H1}^2 u into them; `_drift`, `_kick` and
    `_integrands` read them with the float operations of the public helpers
    (laplacian, inner_each, pointwise_dot, strat_correction, noise_field),
    in their order, through the kernels of fields, and checking no shapes.
    u, v, h1, vh2, the sups and acc_noise are new each step, so a caller's
    reference keeps its values; the buffers are overwritten.  The whole step
    runs under one np.errstate, as do `run` with its rows and the
    `remainder` read: a huge but finite sample may overflow there, and it is
    recorded as a blow-up, not warned about.

    u0 and v0 are one field (3, n) or a block (S, 3, n), S >= 1, and the
    engine keeps their rank.  A field's state, buffers and accumulators are
    (3, n), its per-trajectory values (h1, vh2, acc_v2, norm_defect,
    tangent_defect, energy(), the residual of remainder_norms()) numpy
    scalars, and its increments (m,).  A block's arrays are (S, 3, n) in C
    order, its per-sample values (S,), its increments (S, m).  The few
    operations that differ, the broadcast view of a per-sample value, the
    running sups and the all-finite test, are chosen here, once; past that
    test, losing a field reads it as the block (1, 3, n).  `samples` labels
    the samples (0..S-1 by default, (0,) for a field), and `alive` (S,)
    marks those that have not blown up.  A sample is
    lost at the first step whose new state has non-finite norms, which any
    non-finite field also gives; its fields are NaN from that step on, and
    its BlowUpError carries BLOWUP_DIAGNOSTICS of the state before the
    blow-up step.  A start with a NaN or inf node is bad input, refused
    with a ParameterError that names the node (and a block's sample); a
    finite start whose norms overflow is refused as BlowUpError(0).  Each
    step does one tridiagonal LDL^T solve, with the factor computed here, on
    the right-hand side (S, 3, n), which is the Fortran-ordered (n, 3S)
    matrix of its node rows, in place.
    """

    def __init__(self, params: SpdeParams, basis: NoiseBasis, u0: np.ndarray,
                 v0: np.ndarray, *, samples=None):
        grid = params.grid
        check_grid(basis, grid)
        # C order throughout: a reduction's summation order follows the layout
        u0 = np.array(u0, dtype=float, order="C")
        v0 = np.array(v0, dtype=float, order="C")
        if u0.ndim not in (2, 3) or u0.shape[-2:] != (3, grid.n) or v0.shape != u0.shape:
            raise ShapeError(f"initial fields must have shape (3, {grid.n}) or (S, 3, {grid.n}),"
                             f" got {u0.shape} and {v0.shape}")
        # () for a field, (S,) for a block: the shape of a per-sample value
        each = u0.shape[:-2]
        size, n = (len(u0) if each else 1), grid.n
        self.samples = np.arange(size) if samples is None else np.array(samples)
        if self.samples.shape != (size,):
            raise ShapeError(f"need one label per sample, got {self.samples.shape}")
        for name, start in (("u0", u0), ("v0", v0)):
            for label, f in zip(self.samples, start.reshape(size, 3, n)):
                _check_finite(f, f"initial field {name} of sample {label}" if each
                              else f"initial field {name}")
        self.params = params
        h, dt, mu = grid.h, params.dt, params.mu
        self.solver = HelmholtzSolver(grid, 1.0 + params.gamma * dt / mu, dt ** 2 / mu)
        self._h, self._neg_h, self._h_sq = h, -h, h ** 2
        self._dt, self._half_dt, self._dt_mu, self._mu = dt, 0.5 * dt, dt / mu, mu
        self._weight = 0.5 * mu ** (2.0 * params.alpha - 1.0)
        self._kick_scale = mu ** (params.alpha - 1.0)
        self._acc_scale = mu ** params.alpha
        self._phi, self._xi_t = basis.phi, basis.xi.T
        self._silent, self._projection = basis.m == 0, params.projection
        # what differs between the forms: a field's per-trajectory values are
        # numpy scalars, a block's are (S,) arrays read through (S, 1, 1) views
        if each:
            self._each, self._sup, self._all_finite = _sample_view, np.maximum, _all_finite
        else:
            self._each, self._sup, self._all_finite = _same, _scalar_max, math.isfinite
        self.lap, self._hu, self._rhs, self._tmp, self._corr, self._cross = (
            np.empty(u0.shape) for _ in range(6))
        # the solve's Fortran-ordered (n, 3S) columns: the rhs's node rows
        self._columns = self._rhs.reshape(3 * size, n).T
        # pointwise rows (..., 1, n), written through their (..., n) views
        self._uu, self._uv, self._row, self._row2 = (np.empty(each + (1, n)) for _ in range(4))
        self._uu_flat, self._uv_flat, self._row_flat = (
            self._uu[..., 0, :], self._uv[..., 0, :], self._row[..., 0, :])
        self._pairs_f, self._pairs_g = np.empty(each + (6, n)), np.empty(each + (6, n))
        # the noise sums: columns (..., n, 1), read as rows (..., 1, n)
        self._noise_sums = np.empty(each + (n, 1))
        self._noise_rows = self._noise_sums.reshape(each + (1, n))
        # the latest remainder integrands f_k, stacked as REMAINDER_KEYS
        self._last = np.empty((len(REMAINDER_KEYS),) + u0.shape)
        self._last_rows = tuple(self._last)
        self.step_index = 0
        self.sample_steps = 0
        self.alive = np.ones(size, dtype=bool)
        self.lost: list[BlowUpError] = []
        # [()] makes a field's 0-d zeros numpy scalars and leaves a block's arrays
        self.acc_v2 = np.zeros(each)[()]
        self.norm_defect, self.tangent_defect = np.zeros(each)[()], np.zeros(each)[()]
        self.acc_noise = np.zeros_like(u0)
        with np.errstate(all="ignore"):
            self._bind(u0.copy(), v0.copy())
            # refuse a finite start whose norms overflow, the step's test of
            # a lost sample, before the integrands read them
            if not self._all_finite(self.h1 + self.vh2):
                raise BlowUpError(0, sample=int(self.samples[~self._finite_each()][0]))
            # the latest integrands f_k, and their left sum from f_0 / 2 on; a
            # huge start may overflow in them, and is lost at its first step
            self._integrands(self.u, self.v)
            self._sums = 0.5 * self._last
            self.identity = RemainderIdentity(params, basis, u0, v0)

    def _bind(self, u: np.ndarray, v: np.ndarray) -> None:
        """Make (u, v) the engine's state, with its norms |u|_{H1}^2 and |v|_H^2.

        Its A_h u (the kernel of `laplacian`), u.u, u.v and |u|_{H1}^2 u go to the buffers.
        """
        self.u, self.v = u, v
        lap = _laplacian_into(u, self.lap, self._h_sq)
        # -inner_each(lap, u), with the sign on h: -(h x) is (-h) x
        self.h1 = h1 = self._neg_h * _inner_sum(lap, u)
        self.vh2 = vh2 = self._h * _inner_sum(v, v)
        _node_dot(u, u, out=self._uu_flat)
        _node_dot(u, v, out=self._uv_flat)
        self._h1b, self._vh2b = self._each(h1), self._each(vh2)
        np.multiply(self._h1b, u, out=self._hu)

    def _drift(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """A_h u + N(u, v) of the bound state, in a buffer.

        N(u, v) = |u|_{H1}^2 u - mu |v|_H^2 u + (1/2) mu^(2a-1) phi u x (u x v)
        is the explicit force, with u x (u x v) = (u.v) u - (u.u) v.
        """
        out, tmp, corr = self._rhs, self._tmp, self._corr
        np.multiply(self._mu * self._vh2b, u, out=tmp)
        np.subtract(self._hu, tmp, out=out)
        np.multiply(self._uv, u, out=tmp)
        np.multiply(self._uu, v, out=corr)
        np.subtract(tmp, corr, out=tmp)
        np.multiply(self._phi, tmp, out=tmp)
        np.multiply(self._weight, tmp, out=tmp)
        np.add(out, tmp, out=out)
        np.add(self.lap, out, out=out)
        return out

    def _kick(self, u: np.ndarray, v: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """(u x v) sum_i xi_i dw_i for raw increments dw (m,) or (S, m), in a buffer.

        The noise sums are noise_field's stacked matrix-vector product, one
        per field; a block gemm would round differently.
        """
        np.matmul(self._xi_t, dw[..., None], out=self._noise_sums)
        kick = _cross_into(u, v, self._cross, self._pairs_f, self._pairs_g)
        return np.multiply(kick, self._noise_rows, out=kick)

    def _integrands(self, u: np.ndarray, v: np.ndarray) -> None:
        """The remainder's pointwise integrands of the bound state, into `_last`."""
        ian, icd, j2, j3, j4, j5 = self._last_rows
        row = self._row
        np.add(self._hu, self.lap, out=ian)
        _node_dot(self.lap, u, out=self._row_flat)
        np.multiply(self._h1b, self._uu, out=self._row2)
        np.add(row, self._row2, out=row)
        np.multiply(row, u, out=icd)
        np.multiply(self._vh2b, u, out=j2)
        np.multiply(self._uv, v, out=j3)
        _node_dot(v, v, out=self._row_flat)
        np.multiply(row, u, out=j4)
        np.multiply(self._vh2b, self._uu, out=row)
        np.multiply(row, u, out=j5)

    @property
    def t(self) -> float:
        return self.step_index * self.params.dt

    def step(self, dw: np.ndarray | None = None) -> list[BlowUpError]:
        """Advance one step with raw increments dw, (m,) or (S, m); None means no noise.

        Returns the blow-ups of this step: those samples' norms went
        non-finite, and they step on as NaN (they are also collected in
        `lost`, and `alive` turns False for them).
        """
        with np.errstate(all="ignore"):
            u, v, tmp, h = self.u, self.v, self._tmp, self._h
            rhs = self._drift(u, v)
            np.multiply(self._dt_mu, rhs, out=rhs)
            np.add(v, rhs, out=rhs)
            # the solve overwrites the rhs's node rows in place: rhs is now v*
            self.solver.solve(self._columns)
            v_star = rhs
            if dw is not None and not self._silent:
                kick = self._kick(u, v, dw)
                np.multiply(self._kick_scale, kick, out=tmp)
                v_star = np.add(rhs, tmp)
                np.multiply(self._acc_scale, kick, out=tmp)
                self.acc_noise = np.add(self.acc_noise, tmp)
            np.multiply(self._dt, v_star, out=tmp)
            u_new = np.add(u, tmp)
            norm = np.sqrt(h * _inner_sum(u_new, u_new))
            if self._projection:
                np.divide(u_new, self._each(norm), out=u_new)
                dot = h * _inner_sum(u_new, v_star)
                tangent = dot / (h * _inner_sum(u_new, u_new))
                np.multiply(self._each(tangent), u_new, out=tmp)
                v_new = np.subtract(v_star, tmp)
                # <u*, v*>_H = |u*|_H <u, v*>_H
                tangent_defect = abs(dot) * norm
            else:
                # without a kick v* is still the solve's buffer, and the state is a new array
                v_new = rhs.copy() if v_star is rhs else v_star
                tangent_defect = abs(h * _inner_sum(u_new, v_star))
            self.norm_defect = self._sup(self.norm_defect, abs(norm - 1.0))
            self.tangent_defect = self._sup(self.tangent_defect, tangent_defect)
            self.step_index += 1
            # the samples alive at the start of the step
            self.sample_steps += len(self.samples) - len(self.lost)

            vh2_old = self.vh2
            self._bind(u_new, v_new)
            lost = self._overflow(u, v)
            self.acc_v2 += self._half_dt * (vh2_old + self.vh2)
            self._integrands(self.u, self.v)
            self._sums += self._last
            return lost

    def _finite_each(self) -> np.ndarray:
        """Whether each sample's norms are finite, (S,) in either form."""
        return np.isfinite(np.reshape(self.h1 + self.vh2, -1))

    def _overflow(self, u, v) -> list[BlowUpError]:
        """Lose the live samples whose new norms are non-finite; the step's blow-ups.

        (u, v) is the state before the step, whose norms are finite for
        every live sample.  A lost sample's BLOWUP_DIAGNOSTICS are taken from
        it, with int |v|_H^2 ds not yet updated, and its new state becomes NaN.
        Past the common case, a field is read as the block (1, 3, n) it views.
        """
        if self._all_finite(self.h1 + self.vh2):   # the common case
            return []
        new = self.alive & ~self._finite_each()
        if not new.any():
            return []
        block = (len(self.samples),) + u.shape[-2:]
        last = _diagnostics(self.params, u.reshape(block)[new], v.reshape(block)[new],
                            np.reshape(self.acc_v2, -1)[new])
        lost = [BlowUpError(self.step_index, sample=int(self.samples[pos]),
                            diagnostics={name: float(last[name][i])
                                         for name in BLOWUP_DIAGNOSTICS})
                for i, pos in enumerate(np.flatnonzero(new))]
        self.lost += lost
        self.alive &= ~new
        self.u.reshape(block)[new] = self.v.reshape(block)[new] = np.nan
        self._bind(self.u, self.v)
        return lost

    def run(self, increments, rows: list, on_row) -> None:
        """Step to rows[-1], calling on_row(r) once step rows[r] is reached.

        rows starts at 0 (on_row(0) sees the initial state).  increments is
        read once, in order, one step's increments at a time, (m,) for a
        field and (S, m) for a block: an array (n_steps, m) or
        (n_steps, S, m), or a sequence drawn as the run reads it, such as
        noise.brownian_increments; None runs without noise.  Stops early,
        without calling on_row, once every sample has blown up.
        """
        with np.errstate(all="ignore"):
            steps = repeat(None) if increments is None else iter(increments)
            on_row(0)
            r = 1
            for k in range(1, rows[-1] + 1):
                lost = self.step(next(steps))
                if lost and not self.alive.any():
                    return
                if rows[r] == k:
                    on_row(r)
                    r += 1

    def energy(self) -> np.ndarray:
        """Pathwise energy |u|_{H1}^2 + mu |v|_H^2 + 2 gamma int |v|_H^2 ds, per sample."""
        return _energy(self.params, self.h1, self.vh2, self.acc_v2)

    def diagnostics(self) -> dict:
        """Every scalar diagnostic of DIAGNOSTICS, per sample (see _diagnostics)."""
        return _diagnostics(self.params, self.u, self.v, self.acc_v2)

    def _integrals(self, out: np.ndarray) -> np.ndarray:
        """The six trapezoid integrals, stacked as REMAINDER_KEYS, into `out`.

        Each is dt (sum - f_k / 2), its left sum started at f_0 / 2 and f_k
        the latest integrand: the end correction the step leaves out.
        """
        np.multiply(0.5, self._last, out=out)
        np.subtract(self._sums, out, out=out)
        out *= self._dt
        return out

    @property
    def remainder(self) -> dict:
        """The remainder accumulators by name (REMAINDER_KEYS and "j6"), each shaped as u.

        Each read gives the six trapezoid integrals their end correction
        (`_integrals`) in new arrays; the step itself only adds f_k to the
        sums.
        """
        with np.errstate(all="ignore"):
            acc = dict(zip(REMAINDER_KEYS, self._integrals(np.empty(self._last.shape))))
        acc["j6"] = self.acc_noise
        return acc

    def remainder_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """The J norms (..., 6) and identity residuals (...) of the state (RemainderIdentity.norms)."""
        return self.identity.norms(self.u, self.v, self.remainder)


class RemainderIdentity:
    """The integrated identity from one initial state (u0, v0).

    Holds what every evaluation shares: the kernel weight phi, scaled by
    the correction weight mu^(2 alpha - 1) of the simulated dynamics (1 at
    the reference exponent alpha = 1/2, where the identity takes its
    standard form), so the residual measures pure time discretisation
    error at any exponent; and the identity's constant part, base + const,
    from u0 and v0.  u0 and v0 are fields (3, n) or blocks that broadcast
    against the states evaluated.  The phi weights are node rows (n,), which
    broadcast over every component row.
    """

    def __init__(self, params: SpdeParams, basis: NoiseBasis, u0: np.ndarray, v0: np.ndarray):
        mu, gamma = params.mu, params.gamma
        self.params = params
        self.c = 1.5 * mu / gamma
        self.phi = mu ** (2.0 * params.alpha - 1.0) * basis.phi
        self.phi_sq = self.phi * self.phi
        self.phi_drift = (1.5 / gamma) * self.phi
        self.offset = (gamma * u0 + 0.5 * self.phi * pointwise_dot(u0, u0) * u0 + mu * v0
                       + self.c * self.phi * pointwise_dot(u0, v0) * u0)

    def norms(self, u: np.ndarray, v: np.ndarray, acc: dict) -> tuple[np.ndarray, np.ndarray]:
        """H-norms of J_1..J_6, shape (..., 6), and the identity residual, shape (...).

        u, v and the accumulators of REMAINDER_KEYS + ("j6",) hold fields
        (..., 3, n): rows of one trajectory or the samples of a block.  The
        kernel terms' norms are |c| sqrt(h sum phi^2 |f|^2), with no scaled
        copy of a field; the gap lhs - rhs of the identity is assembled in
        one array.
        """
        grid, mu, c = self.params.grid, self.params.mu, self.c
        uu, uv = pointwise_dot(u, u), pointwise_dot(u, v)
        norms = np.empty(u.shape[:-2] + (6,))
        norms[..., 0] = c * np.sqrt(grid.h * _inner_sum(self.phi_sq * uv, uv * uu))
        norms[..., 1] = mu * np.sqrt(inner_each(grid, acc["j2"], acc["j2"]))
        for i, key in enumerate(("j3", "j4", "j5"), start=2):
            norms[..., i] = c * weighted_norm(grid, self.phi_sq, acc[key])
        norms[..., 5] = np.sqrt(inner_each(grid, acc["j6"], acc["j6"]))
        # gap = (gamma + phi (uu / 2 + c uv)) u + mu (v + j2) - offset - iAN - j6
        #       - (1.5 / gamma) phi (iCD + mu (j3 + j4 - j5))
        gap = (self.params.gamma + self.phi * (0.5 * uu + c * uv)) * u
        part = v + acc["j2"]
        part *= mu
        gap += part
        np.add(acc["j3"], acc["j4"], out=part)
        part -= acc["j5"]
        part *= mu
        part += acc["iCD"]
        part *= self.phi_drift
        gap -= part
        gap -= acc["iAN"]
        gap -= acc["j6"]
        gap -= self.offset
        return norms, np.sqrt(inner_each(grid, gap, gap))


# -- trajectory driver --------------------------------------------------------

@dataclass
class SpdeTrajectory:
    """Strided diagnostics and the remainder series.

    j_norms (rows, 6) holds the H-norms of J_1..J_6 and identity_residual
    (rows,) the residual of the integrated identity.
    """

    params: SpdeParams
    t: np.ndarray
    energy: np.ndarray
    theta: np.ndarray
    eta: np.ndarray
    u_h1: np.ndarray
    u_h2: np.ndarray
    v_h: np.ndarray
    v_h1: np.ndarray
    weighted_h2: np.ndarray
    j_norms: np.ndarray
    identity_residual: np.ndarray


def simulate(u0: np.ndarray, v0: np.ndarray, params: SpdeParams, basis: NoiseBasis, *,
             rng: np.random.Generator | None = None,
             increments: np.ndarray | None = None,
             stride: int = 1) -> SpdeTrajectory:
    """Integrate one trajectory (the engine stepping a field) and record diagnostics.

    The Brownian path comes from `increments` (shape (n_steps, m)) when
    given, else from `rng`, drawn by noise.brownian_increments ROW_CHUNK
    steps at a time (the numbers of one (n_steps, m) draw; a run that blows
    up leaves the rest of its path undrawn); with neither, the run is
    noise-free.  Rows are recorded at steps 0, stride,
    2*stride, ... and always at the final step.  Each row's fields, its
    int |v|_H^2 ds and j6 are copied into buffers of ROW_CHUNK rows, and
    its six trapezoid integrals (SpdeStepper._integrals) into one more; every
    row quantity (DIAGNOSTICS, and the remainder series) is evaluated on
    the buffers whenever they fill and at the final row, with the numbers
    of a per-row evaluation.  So the run's memory is bounded by ROW_CHUNK
    rows and steps, whatever its step count; only the recorded series grow
    with the rows.  A blow-up raises BlowUpError; a NaN or inf increment is
    bad input, refused with a ParameterError that names its step and mode.
    """
    grid = params.grid
    n_steps = params.n_steps
    rows = output_rows(n_steps, stride)
    if increments is not None:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps, basis.m):
            raise ShapeError(
                f"increments must have shape ({n_steps}, {basis.m}), got {increments.shape}")
        for k in np.flatnonzero(~np.isfinite(increments).all(axis=1))[:1]:
            _check_finite(increments[k], f"the increment of step {k + 1}", ("mode",))
    elif rng is not None and basis.m > 0:
        increments = map(itemgetter(0), brownian_increments([rng], basis.m, params.dt, n_steps))

    n_rows = len(rows)
    engine = SpdeStepper(params, basis, u0, v0)
    scalars = {name: np.empty(n_rows) for name in ("t",) + DIAGNOSTICS}
    j_norms, residual = np.empty((n_rows, 6)), np.empty(n_rows)
    chunk = {key: np.empty((ROW_CHUNK, 3, grid.n)) for key in ("u", "v", "j6")}
    integrals = np.empty((len(REMAINDER_KEYS), ROW_CHUNK, 3, grid.n))
    # a row's integrals are formed in one contiguous field each, then copied
    # into their rows: ufuncs writing the strided rows cost twice as much
    row_integrals = np.empty((len(REMAINDER_KEYS), 3, grid.n))
    acc_v2 = np.empty(ROW_CHUNK)

    def record(r: int):
        scalars["t"][r] = engine.t
        i = r % ROW_CHUNK
        acc_v2[i] = engine.acc_v2
        chunk["u"][i], chunk["v"][i] = engine.u, engine.v
        chunk["j6"][i] = engine.acc_noise
        integrals[:, i] = engine._integrals(row_integrals)
        if i < ROW_CHUNK - 1 and r < n_rows - 1:
            return
        part = slice(r - i, r + 1)
        u, v = chunk["u"][:i + 1], chunk["v"][:i + 1]
        acc = dict(zip(REMAINDER_KEYS, integrals[:, :i + 1]))
        acc["j6"] = chunk["j6"][:i + 1]
        for name, values in _diagnostics(params, u, v, acc_v2[:i + 1]).items():
            scalars[name][part] = values
        j_norms[part], residual[part] = engine.identity.norms(u, v, acc)

    engine.run(increments, rows, record)
    if engine.lost:
        raise engine.lost[0]
    return SpdeTrajectory(params=params, j_norms=j_norms, identity_residual=residual, **scalars)
