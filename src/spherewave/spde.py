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
samples held as (S, n, 3) arrays, with one banded solve on all 3S columns
per step.  A single trajectory (simulate) is the block S = 1.  Every
operation acts on each sample separately, so a sample's numbers do not
depend on the block it shares; a sample that goes non-finite leaves its
block as a BlowUpError and the others step on.

Structure diagnostics: the pathwise energy

    E(t) = |u|_{H1}^2 + mu |v|_H^2 + 2 gamma int_0^t |v|_H^2 ds

is conserved by the continuous dynamics; the tangent-bundle residuals
theta = (|u|_H^2 - 1)/2 and eta = <u, v>_H vanish identically on it.  The
engine evaluates both per sample (SpdeStepper.energy, .constraints,
.diagnostics) and accumulates the integrals of the integrated identity used
in the small-mass comparison.  Its six-term remainder,

    R(t) = (3 mu / 2 gamma) phi (u0.v0) u0 + sum_i J_i(t),
    J1 = -(3 mu/2 gamma) phi (u.v) u            J4 = (3 mu/2 gamma) phi int |v|^2 u ds
    J2 = -mu int |v|_H^2 u ds                   J5 = -(3 mu/2 gamma) phi int |v|_H^2 |u|^2 u ds
    J3 = (3 mu/2 gamma) phi int (u.v) v ds      J6 = mu^alpha int (u x v) dw

and the residual of the full identity, a pure time-discretisation quantity,
are evaluated by remainder_norms from those accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ParameterError, ShapeError
from .fields import (
    Grid1D,
    HelmholtzSolver,
    cross,
    fitted_step,
    forward_diff,
    inner_each,
    laplacian,
    midpoint_average,
    output_rows,
    pointwise_dot,
    step_count,
)
from .noise import NoiseBasis, noise_field, strat_correction

__all__ = [
    "SpdeParams",
    "SpdeTrajectory",
    "SpdeStepper",
    "REMAINDER_KEYS",
    "remainder_norms",
    "simulate",
    "functional_j",
    "functional_g_norm",
]

CFL_LIMIT = 0.5  # dt <= CFL_LIMIT * sqrt(mu) * h

# trapezoid-accumulated integrands of the integrated identity; "j6", the Ito
# sum mu^alpha int (u x v) dw, is accumulated with the noise kick
REMAINDER_KEYS = ("iA", "iN", "iC", "iD", "j2", "j3", "j4", "j5")
# rows per remainder_norms call along one trajectory: a call per row costs
# about five times as much per row, the call overhead dominating
REMAINDER_CHUNK = 64
DIAGNOSTICS = ("energy", "theta", "eta", "u_h1", "u_h2", "v_h", "v_h1", "weighted_h2")


@dataclass(frozen=True)
class SpdeParams:
    """Physical and numerical parameters of one stochastic trajectory.

    correction_scale is a diagnostic knob scaling the Ito correction drift
    (1.0 is the physical value; -1.0 flips its sign, which the invariant
    suite uses as a mutation control for the energy identity).
    """

    grid: Grid1D
    mu: float
    dt: float
    T: float
    gamma: float = 1.0
    alpha: float = 0.5
    projection: bool = False
    correction_scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.mu <= 1.0:
            raise ParameterError(f"mass must lie in (0, 1], got {self.mu}")
        if self.gamma <= 0.0:
            raise ParameterError(f"friction must be positive, got {self.gamma}")
        if self.alpha < 0.0:
            raise ParameterError(f"noise exponent must be nonnegative, got {self.alpha}")
        if self.dt <= 0.0 or self.T <= 0.0:
            raise ParameterError("time step and horizon must be positive")
        if self.T < self.dt:
            raise ParameterError(f"horizon T={self.T} shorter than dt={self.dt}")
        bound = CFL_LIMIT * np.sqrt(self.mu) * self.grid.h
        if self.dt > bound * (1.0 + 1e-12):
            raise ParameterError(
                f"dt={self.dt} violates the wave CFL bound {bound:.3e}"
                f" (0.5 sqrt(mu) h) for mu={self.mu}"
            )
        step_count(self.dt, self.T)

    @property
    def n_steps(self) -> int:
        return step_count(self.dt, self.T)

    @classmethod
    def auto(cls, grid: Grid1D, mu: float, T: float, *, gamma: float = 1.0,
             alpha: float = 0.5, projection: bool = False, cfl: float = 0.25,
             n_out: int = 256, dt: float | None = None) -> "SpdeParams":
        """Resolve the step on an n_out output grid; every configured dt is read here.

        dt=None takes the largest step under cfl * sqrt(mu) h whose step count
        is a multiple of n_out.  A given dt is the exact step: it must divide
        T into a multiple of n_out steps.
        """
        if not 0.0 < cfl <= CFL_LIMIT:
            raise ParameterError(f"cfl fraction must lie in (0, {CFL_LIMIT}], got {cfl}")
        if dt is None:
            dt = fitted_step(cfl * np.sqrt(mu) * grid.h, T, n_out)
        elif step_count(dt, T) % n_out:
            raise ParameterError(
                f"dt={dt!r} takes {step_count(dt, T)} steps to T={T!r},"
                f" not a multiple of the {n_out} output rows")
        return cls(grid=grid, mu=mu, dt=dt, T=T, gamma=gamma, alpha=alpha,
                   projection=projection)


def _explicit_force(params: SpdeParams, basis: NoiseBasis, u, v, h1, vh2, *,
                    dots: tuple | None = None) -> np.ndarray:
    """|u|_{H1}^2 u - mu |v|_H^2 u + (1/2) mu^(2a-1) phi u x (u x v), explicit in every scheme."""
    coeff = 0.5 * params.mu ** (2.0 * params.alpha - 1.0) * params.correction_scale
    return h1 * u - params.mu * vh2 * u + coeff * strat_correction(u, v, basis, dots=dots)


class SpdeStepper:
    """Prefactored semi-implicit Euler-Maruyama engine for a block of samples.

    One step: (1) solve (I + (gamma dt/mu) I - (dt^2/mu) A_h) v* = v +
    (dt/mu)(A_h u + N(u, v)) with N the explicit nonlinear drift plus the
    halved trace correction; (2) add the noise kick mu^(alpha-1) (u x v) dW;
    (3) u <- u + dt v*; (4) optionally re-project onto the constraint
    manifold; (5) update the running integrals (trapezoid for int |v|^2 and
    the remainder integrands, left-point Ito sum for the noise accumulator,
    matching the kick).

    u0 and v0 are one field (n, 3) or a block (S, n, 3).  Block arrays have
    shape (S, n, 3), per-sample scalars shape (S,); `samples` labels the
    block's samples (0..S-1 by default) and shrinks as samples blow up.
    Each step does one banded solve on all 3S columns, with the factor
    computed here.
    """

    def __init__(self, params: SpdeParams, basis: NoiseBasis, u0: np.ndarray,
                 v0: np.ndarray, *, track_remainder: bool = False, samples=None):
        grid = params.grid
        if basis.grid is not grid and basis.grid != grid:
            raise ShapeError("noise basis and parameters use different grids")
        # C order throughout: a reduction's summation order follows the layout
        u0 = np.array(u0, dtype=float, order="C", ndmin=3)
        v0 = np.array(v0, dtype=float, order="C", ndmin=3)
        if u0.ndim != 3 or u0.shape[1:] != (grid.n, 3) or v0.shape != u0.shape:
            raise ShapeError(f"initial fields must have shape ({grid.n}, 3) or (S, {grid.n}, 3)")
        self.samples = np.arange(len(u0)) if samples is None else np.array(samples)
        if self.samples.shape != (len(u0),):
            raise ShapeError(f"need one label per sample, got {self.samples.shape}")
        finite = np.isfinite(u0).all(axis=(1, 2)) & np.isfinite(v0).all(axis=(1, 2))
        if not finite.all():
            raise BlowUpError(0, sample=int(self.samples[~finite][0]))
        self.params = params
        self.basis = basis
        dt, mu = params.dt, params.mu
        self.solver = HelmholtzSolver(grid, 1.0 + params.gamma * dt / mu, dt ** 2 / mu)
        self.kick_scale = mu ** (params.alpha - 1.0)
        self.acc_scale = mu ** params.alpha
        self.track_remainder = track_remainder
        self.step_index = 0
        self.sample_steps = 0
        self.lost: list[BlowUpError] = []
        self.u0, self.v0 = u0, v0
        self.acc_v2 = np.zeros(len(u0))
        self.acc_noise = np.zeros_like(u0)
        if track_remainder:
            self._acc = np.zeros((len(REMAINDER_KEYS),) + u0.shape)
            self._prev, self._spare = np.empty_like(self._acc), np.empty_like(self._acc)
        self._bind(u0.copy(), v0.copy())
        # finite fields can still overflow their norms, which every step reads
        finite = np.isfinite(self.h1) & np.isfinite(self.vh2)
        if not finite.all():
            raise BlowUpError(0, sample=int(self.samples[~finite][0]))

    def _bind(self, u: np.ndarray, v: np.ndarray) -> None:
        """Make (u, v) the block's state and cache what the next step and the rows need."""
        grid = self.params.grid
        self.u, self.v = u, v
        self.lap = laplacian(grid, u)
        self.h1 = -inner_each(grid, self.lap, u)
        self.vh2 = inner_each(grid, v, v)
        self._dots = (pointwise_dot(u, u), pointwise_dot(u, v))
        if self.track_remainder:
            self._integrands(self._spare)
            self._prev, self._spare = self._spare, self._prev

    @property
    def t(self) -> float:
        return self.step_index * self.params.dt

    def _integrands(self, out: np.ndarray) -> None:
        """Pointwise integrands of the integrated-identity remainder, stacked as REMAINDER_KEYS."""
        u, v = self.u, self.v
        h1, vh2 = self.h1[:, None, None], self.vh2[:, None, None]
        uu, uv = self._dots
        out[0] = self.lap
        np.multiply(h1, u, out=out[1])
        np.multiply(pointwise_dot(self.lap, u), u, out=out[2])
        np.multiply(h1 * uu, u, out=out[3])
        np.multiply(vh2, u, out=out[4])
        np.multiply(uv, v, out=out[5])
        np.multiply(pointwise_dot(v, v), u, out=out[6])
        np.multiply(vh2 * uu, u, out=out[7])

    def step(self, dw: np.ndarray | None = None) -> list[BlowUpError]:
        """Advance the block one step with raw increments dw (S, m); None means no noise.

        Returns the blow-ups of this step: those samples went non-finite and
        have left the block (they are also collected in `lost`).
        """
        params, grid = self.params, self.params.grid
        dt, mu = params.dt, params.mu
        u, v, S = self.u, self.v, len(self.u)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            force = _explicit_force(params, self.basis, u, v, self.h1[:, None, None],
                                    self.vh2[:, None, None], dots=self._dots)
            rhs = v + (dt / mu) * (self.lap + force)
            # the 3S columns in Fortran order, so the solve works in place
            cols = np.empty((S, 3, grid.n))
            cols[...] = rhs.transpose(0, 2, 1)
            cols = self.solver.solve(cols.reshape(3 * S, grid.n).T)
            # a view: each sample keeps the Fortran layout of a lone (n, 3)
            # solve, and with it the summation order of every later reduction
            v_star = cols.T.reshape(S, 3, grid.n).transpose(0, 2, 1)
            if dw is not None and self.basis.m > 0:
                kick = noise_field(u, v, self.basis, dw)
                v_star += self.kick_scale * kick
                self.acc_noise += self.acc_scale * kick
            u_new = u + dt * v_star
            if params.projection:
                u_new /= np.sqrt(inner_each(grid, u_new, u_new))[:, None, None]
                tangent = inner_each(grid, u_new, v_star) / inner_each(grid, u_new, u_new)
                v_new = v_star - tangent[:, None, None] * u_new
            else:
                v_new = v_star
        self.step_index += 1
        self.sample_steps += S

        lost = []
        if not (np.isfinite(u_new).all() and np.isfinite(v_new).all()):
            keep = np.isfinite(u_new).all(axis=(1, 2)) & np.isfinite(v_new).all(axis=(1, 2))
            lost = [BlowUpError(self.step_index, sample=int(s)) for s in self.samples[~keep]]
            self.lost += lost
            for name in ("samples", "u0", "v0", "vh2", "acc_v2", "acc_noise"):
                setattr(self, name, getattr(self, name)[keep])
            u_new, v_new = u_new[keep], v_new[keep]
            if self.track_remainder:
                self._acc, self._prev, self._spare = (
                    a[:, keep] for a in (self._acc, self._prev, self._spare))

        vh2_old = self.vh2
        self._bind(u_new, v_new)
        self.acc_v2 += 0.5 * dt * (vh2_old + self.vh2)
        if self.track_remainder:
            # trapezoid: acc += dt/2 (previous + current), with no temporaries
            prev, current = self._spare, self._prev
            np.add(prev, current, out=prev)
            prev *= 0.5 * dt
            self._acc += prev
        return lost

    def run(self, increments: np.ndarray | None, rows: list, on_row) -> None:
        """Step to rows[-1], calling on_row(r) once step rows[r] is reached.

        rows starts at 0 (on_row(0) sees the initial block); increments has
        shape (n_steps, S, m), or is None for a noise-free run.  Stops early
        once every sample has blown up.
        """
        on_row(0)
        r = 1
        for k in range(1, rows[-1] + 1):
            before = self.samples
            if self.step(None if increments is None else increments[k - 1]):
                if not len(self.samples):
                    return
                if increments is not None:
                    increments = increments[:, np.isin(before, self.samples)]
            if rows[r] == k:
                on_row(r)
                r += 1

    def energy(self) -> np.ndarray:
        """Pathwise energy |u|_{H1}^2 + mu |v|_H^2 + 2 gamma int |v|_H^2 ds, per sample."""
        p = self.params
        return self.h1 + p.mu * self.vh2 + 2.0 * p.gamma * self.acc_v2

    def constraints(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, eta) = ((|u|_H^2 - 1)/2, <u, v>_H), per sample."""
        grid = self.params.grid
        return 0.5 * (inner_each(grid, self.u, self.u) - 1.0), inner_each(grid, self.u, self.v)

    def diagnostics(self, weight_a: float = 1.0) -> dict:
        """Every scalar diagnostic of DIAGNOSTICS, per sample.

        weighted_h2 = exp(-a int |v|^2 ds) (|u|_{H2}^2 + mu |v|_{H1}^2
        + mu |u|_{H1}^2 |v|_H^2) with a = weight_a is a boundedness monitor
        only; never fed back into the dynamics.
        """
        if weight_a < 0:
            raise ParameterError(f"weight exponent must be nonnegative, got {weight_a}")
        grid, mu = self.params.grid, self.params.mu
        theta, eta = self.constraints()
        u_h2_sq = inner_each(grid, self.lap, self.lap)
        v_h1_sq = -inner_each(grid, laplacian(grid, self.v), self.v)
        return {
            "energy": self.energy(),
            "theta": theta,
            "eta": eta,
            "u_h1": np.sqrt(np.maximum(self.h1, 0.0)),
            "u_h2": np.sqrt(u_h2_sq),
            "v_h": np.sqrt(self.vh2),
            "v_h1": np.sqrt(np.maximum(v_h1_sq, 0.0)),
            "weighted_h2": np.exp(-weight_a * self.acc_v2) * (
                u_h2_sq + mu * v_h1_sq + mu * self.h1 * self.vh2),
        }

    @property
    def remainder(self) -> dict:
        """The remainder accumulators by name (REMAINDER_KEYS and "j6"), each (S, n, 3)."""
        if not self.track_remainder:
            raise ParameterError("the engine was built without remainder tracking")
        acc = dict(zip(REMAINDER_KEYS, self._acc))
        acc["j6"] = self.acc_noise
        return acc


def remainder_norms(params: SpdeParams, basis: NoiseBasis, u0, v0, u, v,
                    acc: dict) -> tuple[np.ndarray, np.ndarray]:
    """H-norms of J_1..J_6, shape (..., 6), and the identity residual, shape (...).

    u, v and the accumulators of REMAINDER_KEYS + ("j6",) hold fields
    (..., n, 3): rows of one trajectory or the samples of a block.  u0, v0
    broadcast against them.  Every kernel term carries the correction weight
    mu^(2 alpha - 1) of the simulated dynamics (1 at the reference exponent
    alpha = 1/2, where the identity takes its standard form), so the
    residual measures pure time discretisation error at any exponent.
    """
    grid, mu, gamma = params.grid, params.mu, params.gamma
    weight = params.correction_scale * mu ** (2.0 * params.alpha - 1.0)
    phi = weight * basis.phi[:, None]
    c = 1.5 * mu / gamma

    base = gamma * u0 + 0.5 * phi * pointwise_dot(u0, u0) * u0 + mu * v0
    const = c * phi * pointwise_dot(u0, v0) * u0

    uu, uv = pointwise_dot(u, u), pointwise_dot(u, v)
    j_fields = (
        -c * phi * uv * u,
        -mu * acc["j2"],
        c * phi * acc["j3"],
        c * phi * acc["j4"],
        -c * phi * acc["j5"],
        acc["j6"],
    )
    norms = np.stack([np.sqrt(inner_each(grid, jf, jf)) for jf in j_fields], axis=-1)
    lhs = gamma * u + 0.5 * phi * uu * u + mu * v
    rhs = (base + acc["iA"] + acc["iN"]
           + (1.5 / gamma) * phi * (acc["iC"] + acc["iD"])
           + const + sum(j_fields))
    gap = lhs - rhs
    return norms, np.sqrt(inner_each(grid, gap, gap))


# -- H^1-level functionals (noise-interaction diagnostics) -------------------
#
# Both are evaluated on the staggered midpoint grid: forward differences are
# exactly the summation-by-parts gradients of <-A_h f, g>, field values are
# node averages, and derivatives of products are expanded by the product
# rule.  Under that convention the expanded form of the functional below is
# an exact pointwise-algebra consequence of its definition, so the two code
# paths must agree to roundoff.

def _midpoint_data(grid: Grid1D, u: np.ndarray, v: np.ndarray):
    return (midpoint_average(grid, u), midpoint_average(grid, v),
            forward_diff(grid, u), forward_diff(grid, v))


def functional_j(u: np.ndarray, v: np.ndarray, basis: NoiseBasis,
                 form: str = "expanded") -> float:
    """Noise-interaction functional <v, phi u x (u x v)>_{H1} + |u x v|^2 at H^1 level.

    form="expanded" evaluates the closed form in phi, phi1 and sum xi xi';
    form="definition" evaluates the defining pairing plus Hilbert-Schmidt
    sum directly.  The two agree to roundoff by construction.
    """
    grid = basis.grid
    um, vm, du, dv = _midpoint_data(grid, u, v)
    phi, phi1, s = basis.phi_mid, basis.phi1_mid, basis.xi_dxi_mid
    uxv = cross(um, vm)
    duxv = cross(du, vm)
    if form == "expanded":
        dot = np.einsum("ij,ij->i", uxv, duxv)
        term = (np.einsum("ij,ij->i", uxv, uxv) * phi1
                + 2.0 * dot * s
                + (np.einsum("ij,ij->i", duxv, duxv)
                   - np.einsum("ij,ij->i", cross(du, um), cross(dv, vm))) * phi)
        return grid.h * float(term.sum())
    if form == "definition":
        uu = np.einsum("ij,ij->i", um, um)[:, None]
        uv = np.einsum("ij,ij->i", um, vm)[:, None]
        duu = np.einsum("ij,ij->i", du, um)[:, None]
        duv = np.einsum("ij,ij->i", du, vm)[:, None]
        udv = np.einsum("ij,ij->i", um, dv)[:, None]
        dtrace = ((uv * um - uu * vm) * (2.0 * s)[:, None]
                  + (-2.0 * duu * vm - uu * dv + duv * um + udv * um + uv * du)
                  * phi[:, None])
        pairing = grid.h * float(np.einsum("ij,ij->", dv, dtrace))
        w2 = duxv + cross(um, dv)
        hs = grid.h * float(
            (np.einsum("ij,ij->i", uxv, uxv) * phi1
             + 2.0 * np.einsum("ij,ij->i", uxv, w2) * s
             + np.einsum("ij,ij->i", w2, w2) * phi).sum())
        return pairing + hs
    raise ParameterError(f"unknown form {form!r}; use 'expanded' or 'definition'")


def functional_g_norm(u: np.ndarray, v: np.ndarray, basis: NoiseBasis) -> float:
    """sum_i <v, (u x v) xi_i>_{H1}^2, with the pairing <-A_h v, .>.

    Vanishes exactly whenever u and v are pointwise parallel.
    """
    grid = basis.grid
    lap_v = laplacian(grid, v)
    q = np.einsum("ij,ij->i", lap_v, cross(u, v))
    if basis.m == 0:
        return 0.0
    g = -grid.h * (basis.xi @ q)
    return float(g @ g)


# -- trajectory driver --------------------------------------------------------

@dataclass
class SpdeTrajectory:
    """Strided diagnostics, optional field snapshots and the remainder series.

    j_norms (rows, 6) holds the H-norms of J_1..J_6 and identity_residual
    (rows,) the residual of the integrated identity; both are None unless
    the run tracked the remainder.
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
    weight_a: float
    u_fields: np.ndarray | None = None
    v_fields: np.ndarray | None = None
    j_norms: np.ndarray | None = None
    identity_residual: np.ndarray | None = None


def simulate(u0: np.ndarray, v0: np.ndarray, params: SpdeParams, basis: NoiseBasis, *,
             rng: np.random.Generator | None = None,
             increments: np.ndarray | None = None,
             stride: int = 1,
             track_remainder: bool = False,
             keep_fields: bool = False,
             weight_a: float = 1.0) -> SpdeTrajectory:
    """Integrate one trajectory (the engine's block S = 1) and record diagnostics.

    The Brownian path comes from `increments` (shape (n_steps, m)) when
    given, else from `rng`, drawn as one (n_steps, m) block (the same numbers
    as n_steps draws of m); with neither, the run is noise-free.  Rows are
    recorded at steps 0, stride, 2*stride, ... and always at the final step.
    track_remainder also evaluates the remainder series while the run
    goes: each row's fields and accumulators are copied into a buffer of
    REMAINDER_CHUNK rows that remainder_norms reduces whenever it fills.
    A blow-up raises BlowUpError.
    """
    grid = params.grid
    n_steps = params.n_steps
    rows = output_rows(n_steps, stride)
    if increments is not None:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps, basis.m):
            raise ShapeError(
                f"increments must have shape ({n_steps}, {basis.m}), got {increments.shape}")
    elif rng is not None and basis.m > 0:
        increments = np.sqrt(params.dt) * rng.standard_normal((n_steps, basis.m))

    n_rows = len(rows)
    engine = SpdeStepper(params, basis, u0, v0, track_remainder=track_remainder)
    scalars = {name: np.empty(n_rows) for name in ("t",) + DIAGNOSTICS}
    u_rows = np.empty((n_rows, grid.n, 3)) if keep_fields else None
    v_rows = np.empty((n_rows, grid.n, 3)) if keep_fields else None
    j_norms = residual = None
    if track_remainder:
        j_norms, residual = np.empty((n_rows, 6)), np.empty(n_rows)
        chunk = {key: np.empty((REMAINDER_CHUNK, grid.n, 3))
                 for key in ("u", "v") + REMAINDER_KEYS + ("j6",)}

    def record(r: int):
        scalars["t"][r] = engine.t
        for name, values in engine.diagnostics(weight_a).items():
            scalars[name][r] = values[0]
        if keep_fields:
            u_rows[r] = engine.u[0]
            v_rows[r] = engine.v[0]
        if track_remainder:
            i = r % REMAINDER_CHUNK
            for key, values in dict(engine.remainder, u=engine.u, v=engine.v).items():
                chunk[key][i] = values[0]
            if i == REMAINDER_CHUNK - 1 or r == n_rows - 1:
                acc = {key: buf[:i + 1] for key, buf in chunk.items()}
                u, v = acc.pop("u"), acc.pop("v")
                part = slice(r - i, r + 1)
                j_norms[part], residual[part] = remainder_norms(
                    params, basis, engine.u0[0], engine.v0[0], u, v, acc)

    engine.run(None if increments is None else increments[:, None, :], rows, record)
    if engine.lost:
        raise engine.lost[0]
    return SpdeTrajectory(
        params=params,
        weight_a=weight_a,
        u_fields=u_rows,
        v_fields=v_rows,
        j_norms=j_norms,
        identity_residual=residual,
        **scalars,
    )
