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

Structure diagnostics: the pathwise energy

    E(t) = |u|_{H1}^2 + mu |v|_H^2 + 2 gamma int_0^t |v|_H^2 ds

is conserved by the continuous dynamics; the tangent-bundle residuals
theta = (|u|_H^2 - 1)/2 and eta = <u, v>_H vanish identically on it.  Both
are tracked along every trajectory, together with the accumulated integrals
needed to evaluate the six-term remainder of the integrated identity used
in the small-mass comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import BlowUpError, ParameterError, ShapeError
from .fields import (
    Grid1D,
    HelmholtzSolver,
    cross,
    forward_diff,
    h1_seminorm_sq,
    inner_l2,
    laplacian,
    midpoint_average,
    normalize_sphere,
    norm_l2_sq,
    project_tangent,
    step_count,
)
from .noise import NoiseBasis, WienerIncrement, noise_field, strat_correction

__all__ = [
    "SpdeParams",
    "State",
    "StepDiagnostics",
    "SpdeTrajectory",
    "SpdeStepper",
    "diagnostics",
    "drift",
    "step",
    "simulate",
    "energy",
    "constraint_residuals",
    "weighted_h2_energy",
    "functional_j",
    "functional_g_norm",
]

CFL_LIMIT = 0.5  # dt <= CFL_LIMIT * sqrt(mu) * h


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
             n_out: int = 256, dt_cap: float | None = None,
             correction_scale: float = 1.0) -> "SpdeParams":
        """Pick dt from the CFL bound, aligned with an n_out output grid."""
        if not 0.0 < cfl <= CFL_LIMIT:
            raise ParameterError(f"cfl fraction must lie in (0, {CFL_LIMIT}], got {cfl}")
        dt_max = cfl * np.sqrt(mu) * grid.h
        if dt_cap is not None:
            dt_max = min(dt_max, dt_cap)
        n_steps = ceil(T / dt_max)
        n_steps = ((n_steps + n_out - 1) // n_out) * n_out
        return cls(grid=grid, mu=mu, dt=T / n_steps, T=T, gamma=gamma, alpha=alpha,
                   projection=projection, correction_scale=correction_scale)


@dataclass
class State:
    """Trajectory state: the field pair plus clock and running integrals.

    acc_v2 is the trapezoidal accumulation of int |v|_H^2 ds; acc_noise is
    the Ito-sum accumulation of mu^alpha int (u x v) dw as a field.
    """

    grid: Grid1D
    u: np.ndarray
    v: np.ndarray
    t: float = 0.0
    acc_v2: float = 0.0
    acc_noise: np.ndarray = None
    step_index: int = 0

    @classmethod
    def initial(cls, grid: Grid1D, u0: np.ndarray, v0: np.ndarray) -> "State":
        if u0.shape != (grid.n, 3) or v0.shape != (grid.n, 3):
            raise ShapeError(f"initial fields must have shape ({grid.n}, 3)")
        return cls(grid=grid, u=u0.copy(), v=v0.copy(),
                   acc_noise=np.zeros((grid.n, 3)))


@dataclass(frozen=True)
class StepDiagnostics:
    """Scalar diagnostics of one state (all must be finite)."""

    t: float
    energy: float
    theta: float
    eta: float
    u_h1: float
    u_h2: float
    v_h: float
    v_h1: float
    weighted_h2: float


def diagnostics(state: State, params: SpdeParams, weight_a: float = 1.0) -> StepDiagnostics:
    """Scalar diagnostics of the current state (raises on non-finite values)."""
    grid = state.grid
    lap = laplacian(grid, state.u)
    h1 = -inner_l2(grid, lap, state.u)
    vh2 = norm_l2_sq(grid, state.v)
    row = StepDiagnostics(
        t=state.t,
        energy=h1 + params.mu * vh2 + 2.0 * params.gamma * state.acc_v2,
        theta=0.5 * (norm_l2_sq(grid, state.u) - 1.0),
        eta=inner_l2(grid, state.u, state.v),
        u_h1=np.sqrt(max(h1, 0.0)),
        u_h2=np.sqrt(norm_l2_sq(grid, lap)),
        v_h=np.sqrt(vh2),
        v_h1=np.sqrt(max(h1_seminorm_sq(grid, state.v), 0.0)),
        weighted_h2=weighted_h2_energy(state, params, weight_a),
    )
    values = [row.energy, row.theta, row.eta, row.u_h1, row.u_h2,
              row.v_h, row.v_h1, row.weighted_h2]
    if not np.isfinite(values).all():
        raise BlowUpError(state.step_index)
    return row


def drift(u: np.ndarray, v: np.ndarray, params: SpdeParams, basis: NoiseBasis):
    """Deterministic Ito drift (du, dv) of the pair system."""
    grid = params.grid
    lap = laplacian(grid, u)
    h1 = -inner_l2(grid, lap, u)
    vh2 = norm_l2_sq(grid, v)
    corr = strat_correction(u, v, basis)
    coeff = 0.5 * params.mu ** (2.0 * params.alpha - 1.0) * params.correction_scale
    dv = (lap + h1 * u - params.mu * vh2 * u - params.gamma * v + coeff * corr) / params.mu
    return v.copy(), dv


def _integrands(u, v, lap, h1, vh2):
    """Pointwise integrand fields entering the integrated-identity remainder."""
    uu = np.einsum("ij,ij->i", u, u)[:, None]
    uv = np.einsum("ij,ij->i", u, v)[:, None]
    vv = np.einsum("ij,ij->i", v, v)[:, None]
    lap_u = np.einsum("ij,ij->i", lap, u)[:, None]
    return {
        "iA": lap,
        "iN": h1 * u,
        "iC": lap_u * u,
        "iD": h1 * uu * u,
        "j2": vh2 * u,
        "j3": uv * v,
        "j4": vv * u,
        "j5": vh2 * uu * u,
    }


class SpdeStepper:
    """Prefactored semi-implicit Euler-Maruyama stepper.

    One step: (1) solve (I + (gamma dt/mu) I - (dt^2/mu) A_h) v* = v +
    (dt/mu)(A_h u + N(u, v)) with N the explicit nonlinear drift plus the
    halved trace correction; (2) add the noise kick mu^(alpha-1) (u x v) dW;
    (3) u <- u + dt v*; (4) optionally re-project onto the constraint
    manifold; (5) update the running integrals (trapezoid for int |v|^2,
    left-point Ito sum for the noise accumulator, matching the kick).
    """

    def __init__(self, params: SpdeParams, basis: NoiseBasis,
                 track_remainder: bool = False):
        grid = params.grid
        if basis.grid is not grid and basis.grid != grid:
            raise ShapeError("noise basis and parameters use different grids")
        self.params = params
        self.basis = basis
        dt, mu = params.dt, params.mu
        self.solver = HelmholtzSolver(grid, 1.0 + params.gamma * dt / mu, dt ** 2 / mu)
        self.kick_scale = mu ** (params.alpha - 1.0)
        self.acc_scale = mu ** params.alpha
        self.corr_scale = 0.5 * mu ** (2.0 * params.alpha - 1.0) * params.correction_scale
        self.track_remainder = track_remainder
        self.lap = None
        self.h1 = None
        self.vh2 = None
        self.remainder_acc = None
        self._prev = None

    def bind(self, state: State) -> None:
        """Cache the derived quantities of the current state."""
        grid = self.params.grid
        self.lap = laplacian(grid, state.u)
        self.h1 = -inner_l2(grid, self.lap, state.u)
        self.vh2 = norm_l2_sq(grid, state.v)
        if self.track_remainder:
            self.remainder_acc = {k: np.zeros((grid.n, 3)) for k in
                                  ("iA", "iN", "iC", "iD", "j2", "j3", "j4", "j5")}
            self._prev = _integrands(state.u, state.v, self.lap, self.h1, self.vh2)

    def step(self, state: State, dw_values: np.ndarray | None) -> State:
        params, basis, grid = self.params, self.basis, self.params.grid
        dt, mu = params.dt, params.mu
        u, v = state.u, state.v
        if self.lap is None:
            self.bind(state)
        lap, h1, vh2 = self.lap, self.h1, self.vh2

        with np.errstate(over="ignore", invalid="ignore"):
            nonlinear = (h1 * u - mu * vh2 * u
                         + self.corr_scale * strat_correction(u, v, basis))
            rhs = v + (dt / mu) * (lap + nonlinear)
        if not np.isfinite(rhs).all():
            raise BlowUpError(state.step_index + 1)
        v_star = self.solver.solve(rhs)

        if dw_values is not None and basis.m > 0:
            kick = noise_field(u, v, basis, dw_values)
            v_star += self.kick_scale * kick
            state.acc_noise += self.acc_scale * kick

        u_new = u + dt * v_star
        if params.projection:
            u_new = normalize_sphere(grid, u_new)
            v_new = project_tangent(grid, u_new, v_star)
        else:
            v_new = v_star

        if not (np.isfinite(u_new).all() and np.isfinite(v_new).all()):
            raise BlowUpError(state.step_index + 1)

        lap_new = laplacian(grid, u_new)
        h1_new = -inner_l2(grid, lap_new, u_new)
        vh2_new = norm_l2_sq(grid, v_new)

        state.acc_v2 += 0.5 * dt * (vh2 + vh2_new)
        if self.track_remainder:
            new = _integrands(u_new, v_new, lap_new, h1_new, vh2_new)
            acc = self.remainder_acc
            for key, val in new.items():
                acc[key] += 0.5 * dt * (self._prev[key] + val)
            self._prev = new

        state.u, state.v = u_new, v_new
        state.step_index += 1
        state.t = state.step_index * dt
        self.lap, self.h1, self.vh2 = lap_new, h1_new, vh2_new
        return state


def step(state: State, params: SpdeParams, basis: NoiseBasis,
         rng: np.random.Generator | None = None,
         dw: WienerIncrement | np.ndarray | None = None) -> State:
    """Advance one step (convenience wrapper; simulate() drives loops)."""
    stepper = SpdeStepper(params, basis)
    if dw is None and rng is not None:
        values = np.sqrt(params.dt) * rng.standard_normal(basis.m)
    elif dw is None:
        values = None
    else:
        values = dw.values if isinstance(dw, WienerIncrement) else np.asarray(dw, float)
    return stepper.step(state, values)


def energy(state: State, params: SpdeParams) -> float:
    """Pathwise energy |u|_{H1}^2 + mu |v|_H^2 + 2 gamma int |v|_H^2 ds."""
    grid = state.grid
    return (h1_seminorm_sq(grid, state.u)
            + params.mu * norm_l2_sq(grid, state.v)
            + 2.0 * params.gamma * state.acc_v2)


def constraint_residuals(state: State) -> tuple[float, float]:
    """(theta, eta) = ((|u|_H^2 - 1)/2, <u, v>_H)."""
    grid = state.grid
    theta = 0.5 * (norm_l2_sq(grid, state.u) - 1.0)
    eta = inner_l2(grid, state.u, state.v)
    return theta, eta


def weighted_h2_energy(state: State, params: SpdeParams, a: float) -> float:
    """exp(-a int |v|^2 ds) (|u|_{H2}^2 + mu |v|_{H1}^2 + mu |u|_{H1}^2 |v|_H^2).

    A boundedness monitor only; never fed back into the dynamics.
    """
    if a < 0:
        raise ParameterError(f"weight exponent must be nonnegative, got {a}")
    grid = state.grid
    lap_u = laplacian(grid, state.u)
    u_h2_sq = norm_l2_sq(grid, lap_u)
    u_h1_sq = -inner_l2(grid, lap_u, state.u)
    v_h1_sq = h1_seminorm_sq(grid, state.v)
    v_sq = norm_l2_sq(grid, state.v)
    return np.exp(-a * state.acc_v2) * (
        u_h2_sq + params.mu * v_h1_sq + params.mu * u_h1_sq * v_sq)


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
    """Strided diagnostics (and optional field/accumulator snapshots)."""

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
    remainder: dict | None = None
    final_state: State | None = None


def simulate(u0: np.ndarray, v0: np.ndarray, params: SpdeParams, basis: NoiseBasis, *,
             rng: np.random.Generator | None = None,
             increments: np.ndarray | None = None,
             stride: int = 1,
             track_remainder: bool = False,
             keep_fields: bool = False,
             weight_a: float = 1.0) -> SpdeTrajectory:
    """Integrate one trajectory and record diagnostics every `stride` steps.

    The Brownian path comes from `increments` (shape (n_steps, m)) when
    given, else from `rng`; with neither, the run is noise-free.  Rows are
    recorded at steps 0, stride, 2*stride, ... and always at the final step.
    track_remainder additionally snapshots the accumulated integrals needed
    by the integrated-identity remainder (this implies field snapshots).
    """
    grid = params.grid
    n_steps = params.n_steps
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    if increments is not None:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps, basis.m):
            raise ShapeError(
                f"increments must have shape ({n_steps}, {basis.m}), got {increments.shape}")

    rows = list(range(0, n_steps + 1, stride))
    if rows[-1] != n_steps:
        rows.append(n_steps)
    n_rows = len(rows)
    keep_fields = keep_fields or track_remainder

    state = State.initial(grid, u0, v0)
    stepper = SpdeStepper(params, basis, track_remainder=track_remainder)
    stepper.bind(state)

    scalars = {name: np.empty(n_rows) for name in
               ("t", "energy", "theta", "eta", "u_h1", "u_h2", "v_h", "v_h1", "weighted_h2")}
    u_rows = np.empty((n_rows, grid.n, 3)) if keep_fields else None
    v_rows = np.empty((n_rows, grid.n, 3)) if keep_fields else None
    snaps = ({key: np.empty((n_rows, grid.n, 3)) for key in
              ("iA", "iN", "iC", "iD", "j2", "j3", "j4", "j5", "j6")}
             if track_remainder else None)

    def record(r: int):
        u, v = state.u, state.v
        h1, vh2 = stepper.h1, stepper.vh2
        scalars["t"][r] = state.t
        scalars["energy"][r] = h1 + params.mu * vh2 + 2.0 * params.gamma * state.acc_v2
        scalars["theta"][r] = 0.5 * (norm_l2_sq(grid, u) - 1.0)
        scalars["eta"][r] = inner_l2(grid, u, v)
        scalars["u_h1"][r] = np.sqrt(max(h1, 0.0))
        scalars["u_h2"][r] = np.sqrt(norm_l2_sq(grid, stepper.lap))
        scalars["v_h"][r] = np.sqrt(vh2)
        scalars["v_h1"][r] = np.sqrt(max(h1_seminorm_sq(grid, v), 0.0))
        scalars["weighted_h2"][r] = weighted_h2_energy(state, params, weight_a)
        if keep_fields:
            u_rows[r] = u
            v_rows[r] = v
        if track_remainder:
            for key in ("iA", "iN", "iC", "iD"):
                snaps[key][r] = stepper.remainder_acc[key]
            for key in ("j2", "j3", "j4", "j5"):
                snaps[key][r] = stepper.remainder_acc[key]
            snaps["j6"][r] = state.acc_noise

    record(0)
    next_row = 1
    draw = increments is None and rng is not None and basis.m > 0
    sqrt_dt = np.sqrt(params.dt)
    for k in range(1, n_steps + 1):
        if increments is not None:
            w = increments[k - 1]
        elif draw:
            w = sqrt_dt * rng.standard_normal(basis.m)
        else:
            w = None
        stepper.step(state, w)
        if next_row < n_rows and rows[next_row] == k:
            record(next_row)
            next_row += 1

    return SpdeTrajectory(
        params=params,
        weight_a=weight_a,
        u_fields=u_rows,
        v_fields=v_rows,
        remainder=snaps,
        final_state=state,
        **scalars,
    )
