"""Deterministic limit flow on the unit sphere, in both formulations.

The evolution is written in the mobility form

    gamma du/dt = A_h u + |u|_{H1}^2 u + (1/2) phi u x (u x du/dt),

solved pointwise for du/dt through the exact Sherman-Morrison inverse of
M = (gamma + phi |u|^2 / 2) I - (phi/2) u u^T (note M u = gamma u).  The
divergence form

    d/dt [ (gamma + phi |u|^2 / 2) u ]
        = A_h u + |u|_{H1}^2 u + (3 phi / 2 gamma)([A_h u + |u|_{H1}^2 u].u) u

is kept as a residual oracle: substituting du/dt from the mobility form
makes it vanish identically, by the same algebra that proves the two
formulations equivalent.  The parabolic variant drops every phi term.

Time stepping is ETDRK2 (Cox & Matthews 2002).  The stiff part A_h u / gamma
is diagonal in the orthonormal DST-I basis and is integrated exactly; the
remainder N(u) = du/dt - A_h u / gamma (the |u|_{H1}^2 u term and the
pointwise mobility correction) is explicit.  The pointwise mobility lies in
(0, 1/gamma], so for frozen coefficients the explicit remainder only removes
part of a decay that the exact factor already applies: the scheme is stable
for every dt, and dt is chosen for accuracy alone.  The sphere repels
transversally at rate 2|u|_{H1}^2/gamma, so the stage is projected back onto
it before N is evaluated there, and so is the step result; the distance of
the unprojected result from the sphere, O(dt^3), is kept as the step's
projection defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, DegenerateFieldError, ParameterError
from .fields import (
    Grid1D,
    dst_ortho,
    eigenvalue,
    eigenvalues,
    fitted_step,
    h1_seminorm_sq,
    inner_l2,
    laplacian,
    norm_l2,
    norm_l2_sq,
    normalize_sphere,
    output_rows,
    pointwise_dot,
    step_count,
)
from .noise import NoiseBasis

__all__ = [
    "LimitParams",
    "LimitTrajectory",
    "ComparisonResult",
    "mobility_apply_inverse",
    "limit_rhs",
    "explicit_form_residual",
    "solve_limit",
    "comparison_experiment",
]

# Steps per relaxation time gamma / lambda_{h,1} of the slowest sine mode.
# Sized by the energy-inequality gate E_lhs <= E_rhs (1 + 1e-6) on the
# parabolic branch, which has no dissipative slack: with the fourth-order
# quadrature of int |u_t|^2, 200 steps keep the default run inside it with a
# margin of about 2.6, and 100 steps fail it.  The solver's own error is far
# smaller than its 1e-3 gate: about 1e-5 in H^1 against RK4 at this step.
_RELAXATION_STEPS = 200
_CONTOUR_POINTS = 32
# largest |A_h u0|_H accepted as initial data
_H2_CAP = 1.0e6


@dataclass(frozen=True)
class LimitParams:
    """Parameters of the deterministic solver.

    The exponential stepper has no stability bound, so dt only has to divide
    T.  `auto` picks the accuracy rule dt <= gamma / (200 lambda_{h,1}), with
    the step count a multiple of n_out: about 2,000 steps for T = 1 at the
    default grid.
    """

    grid: Grid1D
    dt: float
    T: float
    gamma: float = 1.0
    parabolic: bool = False

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ParameterError(f"friction must be positive, got {self.gamma}")
        if self.dt <= 0.0 or self.T <= 0.0:
            raise ParameterError("time step and horizon must be positive")
        step_count(self.dt, self.T)

    @property
    def n_steps(self) -> int:
        return step_count(self.dt, self.T)

    @classmethod
    def auto(cls, grid: Grid1D, T: float, *, gamma: float = 1.0,
             parabolic: bool = False, n_out: int = 256) -> "LimitParams":
        dt = fitted_step(gamma / (_RELAXATION_STEPS * eigenvalue(grid, 1)), T, n_out)
        return cls(grid=grid, dt=dt, T=T, gamma=gamma, parabolic=parabolic)


def mobility_apply_inverse(u: np.ndarray, phi, gamma: float, r: np.ndarray) -> np.ndarray:
    """Solve [(gamma + phi|u|^2/2) I - (phi/2) u u^T] x = r per node.

    Uses the closed form M^{-1} = (1/a)[I + (phi/2 gamma) u u^T] with
    a = gamma + phi |u|^2 / 2, valid for every gamma > 0 and phi >= 0.  u and
    r are fields (3, n); phi is the row (n,) of node values.
    """
    return _mobility_solve(u, r, gamma, 0.5 * np.asarray(phi, dtype=float))


def _mobility_solve(u: np.ndarray, r: np.ndarray, gamma: float,
                    half_phi: np.ndarray) -> np.ndarray:
    """mobility_apply_inverse given the row phi/2 (n,).

    Halving is exact, so half_phi / gamma is phi / (2 gamma) bit for bit.
    """
    uu = pointwise_dot(u, u)
    ur = pointwise_dot(u, r)
    return (r + (half_phi / gamma) * ur * u) / (gamma + half_phi * uu)


def limit_rhs(u: np.ndarray, basis: NoiseBasis, params: LimitParams) -> np.ndarray:
    """du/dt for the limit flow (or its parabolic variant)."""
    rhs, _, _ = _rhs_with_extras(u, basis, params)
    return rhs


def _rhs_with_extras(u: np.ndarray, basis: NoiseBasis, params: LimitParams):
    grid = params.grid
    if norm_l2_sq(grid, u) <= 0.0:
        raise DegenerateFieldError("limit dynamics are undefined for the zero field")
    lap = laplacian(grid, u)
    h1 = -inner_l2(grid, lap, u)
    r = lap + h1 * u
    if params.parabolic:
        return r / params.gamma, lap, h1
    return _mobility_solve(u, r, params.gamma, basis.half_phi), lap, h1


def explicit_form_residual(u: np.ndarray, ut: np.ndarray, basis: NoiseBasis,
                           params: LimitParams) -> float:
    """H-norm residual of the divergence form, with d/dt expanded via ut.

    Zero (to roundoff) exactly when ut is the mobility-form velocity of u;
    linear in perturbations of ut.
    """
    grid = params.grid
    lap = laplacian(grid, u)
    h1 = -inner_l2(grid, lap, u)
    r = lap + h1 * u
    phi = np.zeros(grid.n) if params.parabolic else basis.phi
    uu = pointwise_dot(u, u)
    u_ut = pointwise_dot(u, ut)
    lhs = (params.gamma + 0.5 * phi * uu) * ut + (phi * u_ut) * u
    ru = pointwise_dot(r, u)
    rhs = r + (1.5 / params.gamma) * (phi * ru) * u
    return norm_l2(grid, lhs - rhs)


def _repair_initial(grid: Grid1D, u0: np.ndarray) -> np.ndarray:
    u0 = normalize_sphere(grid, u0)
    h2 = np.sqrt(norm_l2_sq(grid, laplacian(grid, u0)))
    if h2 > _H2_CAP:
        raise ParameterError(
            f"initial field is too rough: |A_h u0|_H = {h2:.3e} exceeds the cap {_H2_CAP:.3e}")
    return u0


def _phi_functions(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2 for real z.

    Means over a unit circle around each z (Kassam & Trefethen 2005), which
    avoids the cancellation of the direct formulas near z = 0.
    """
    w = z[:, None] + np.exp(1j * np.pi * (np.arange(_CONTOUR_POINTS) + 0.5)
                            / _CONTOUR_POINTS)
    em1 = np.expm1(w)
    return (em1 / w).mean(axis=1).real, ((em1 - w) / w ** 2).mean(axis=1).real


class _RunningIntegral:
    """Running int_0^t f over samples f_0, f_1, ... spaced dt, to fourth order.

    The trapezoid sum plus the Euler-Maclaurin end correction
    -(dt^2/12)(f'(t) - f'(0)), with f' from second-order one-sided differences
    of the samples; the plain trapezoid until three samples exist (with three
    it is Simpson's rule).  `add` takes the next sample and returns the
    integral up to it, 0 for the first.  Zero samples give exactly 0.
    """

    def __init__(self, dt: float):
        self.dt = dt
        self._trapezoid = 0.0
        self._start: list[float] = []   # f_0, f_1, f_2
        self._end: list[float] = []     # the last three samples

    def add(self, f: float) -> float:
        if self._end:
            self._trapezoid += 0.5 * self.dt * (self._end[-1] + f)
        self._end = self._end[-2:] + [f]
        if len(self._start) < 3:
            self._start.append(f)
        if len(self._end) < 3:
            return self._trapezoid
        f0, f1, f2 = self._start
        fn2, fn1, fn = self._end
        # 2 dt f'(0) = -3 f_0 + 4 f_1 - f_2 and 2 dt f'(t) = 3 f_n - 4 f_{n-1} + f_{n-2}
        return self._trapezoid - self.dt / 24.0 * (3.0 * (fn + f0) - 4.0 * (fn1 + f1) + fn2 + f2)


class _Etd2Flow:
    """Projected ETDRK2 on the limit flow, carrying the velocity of the current state.

    With L = A_h/gamma, N(u) = du/dt - L u and P the rescaling to unit
    H-norm, one step is

        a       = e^{L dt} u + dt phi1(L dt) N(u)
        u*      = a + dt phi2(L dt) (N(P a) - N(u))
        u_next  = P u*

    and `defect` is | |u*|_H - 1 | of the last step.  `int_ut_sq` is the
    fourth-order running integral of |u_t|_H^2 over the steps taken.
    """

    def __init__(self, u0: np.ndarray, params: LimitParams, basis: NoiseBasis):
        self.params = params
        self.basis = basis
        z = -eigenvalues(params.grid) * (params.dt / params.gamma)
        phi1, phi2 = _phi_functions(z)
        # mode rows (n,), which broadcast over the components of a spectrum
        self._decay = np.exp(z)
        self._phi1 = params.dt * phi1
        self._phi2 = params.dt * phi2
        self.u = _repair_initial(params.grid, u0)
        self.ut, self.lap, self.h1 = _rhs_with_extras(self.u, basis, params)
        self.ut_sq = norm_l2_sq(params.grid, self.ut)
        self._quadrature = _RunningIntegral(params.dt)
        self.int_ut_sq = self._quadrature.add(self.ut_sq)
        self.defect = 0.0
        self.steps = 0

    def advance(self) -> None:
        params, basis = self.params, self.basis
        grid, gamma = params.grid, params.gamma
        n0 = self.ut - self.lap / gamma
        a = dst_ortho(self._decay * dst_ortho(self.u) + self._phi1 * dst_ortho(n0))
        pa = normalize_sphere(grid, a)
        n1 = limit_rhs(pa, basis, params) - laplacian(grid, pa) / gamma
        u_star = a + dst_ortho(self._phi2 * dst_ortho(n1 - n0))
        if not np.isfinite(u_star).all():
            raise BlowUpError(self.steps + 1)
        nrm = norm_l2(grid, u_star)
        u_new = u_star / nrm
        ut_new, lap_new, h1_new = _rhs_with_extras(u_new, basis, params)
        self.u, self.ut, self.lap, self.h1 = u_new, ut_new, lap_new, h1_new
        self.ut_sq = norm_l2_sq(grid, ut_new)
        self.int_ut_sq = self._quadrature.add(self.ut_sq)
        self.defect = abs(nrm - 1.0)
        self.steps += 1


@dataclass
class LimitTrajectory:
    """Strided samples of the limit flow and its structural diagnostics.

    sphere_residual is | |u|_H - 1 | of the recorded state, after projection;
    projection_defect is the largest | |u*|_H - 1 | of a step result u*
    before projection since the previous row (0 at t = 0).  energy_lhs is
    |u(t)|_{H1}^2 + 2 gamma int_0^t |u_t|_H^2, the integral taken over the
    steps to fourth order (`_RunningIntegral`), and energy_rhs is
    |u(0)|_{H1}^2; the energy inequality asks energy_lhs <= energy_rhs.
    """

    params: LimitParams
    t: np.ndarray
    u_h1: np.ndarray
    u_h2: np.ndarray
    ut_h: np.ndarray
    sphere_residual: np.ndarray
    projection_defect: np.ndarray
    energy_lhs: np.ndarray
    energy_rhs: float


def solve_limit(u0: np.ndarray, params: LimitParams, basis: NoiseBasis, *,
                stride: int = 1, on_row=None) -> LimitTrajectory:
    """Run the limit flow to T, recording every `stride` steps plus the end.

    on_row, when given, is called as on_row(r, u) once row r is recorded,
    with u the state there, so a caller can use each row before the solve ends.
    """
    grid = params.grid
    rows = output_rows(params.n_steps, stride)
    n_rows = len(rows)

    flow = _Etd2Flow(u0, params, basis)
    t = np.empty(n_rows)
    u_h1 = np.empty(n_rows)
    u_h2 = np.empty(n_rows)
    ut_h = np.empty(n_rows)
    sphere = np.empty(n_rows)
    defect = np.empty(n_rows)
    energy_lhs = np.empty(n_rows)
    energy_rhs = float(flow.h1)

    def record(r: int, worst_defect: float):
        t[r] = flow.steps * params.dt
        u_h1[r] = np.sqrt(max(flow.h1, 0.0))
        u_h2[r] = np.sqrt(norm_l2_sq(grid, flow.lap))
        ut_h[r] = np.sqrt(flow.ut_sq)
        sphere[r] = abs(norm_l2(grid, flow.u) - 1.0)
        defect[r] = worst_defect
        energy_lhs[r] = flow.h1 + 2.0 * params.gamma * flow.int_ut_sq
        if on_row is not None:
            on_row(r, flow.u)

    record(0, 0.0)
    for r in range(1, n_rows):
        worst = 0.0
        while flow.steps < rows[r]:
            flow.advance()
            worst = max(worst, flow.defect)
        record(r, worst)

    return LimitTrajectory(params=params, t=t, u_h1=u_h1, u_h2=u_h2, ut_h=ut_h,
                           sphere_residual=sphere, projection_defect=defect,
                           energy_lhs=energy_lhs, energy_rhs=energy_rhs)


@dataclass
class ComparisonResult:
    """Two-solution distance series and the fitted growth-bound constants."""

    t: np.ndarray
    dist_h1_sq: np.ndarray
    int_dv_sq: np.ndarray
    lhs: np.ndarray
    c1: float
    c2: float
    initial_dist_h1_sq: float


def comparison_experiment(u10: np.ndarray, u20: np.ndarray, params: LimitParams,
                          basis: NoiseBasis, *, stride: int = 1) -> ComparisonResult:
    """Evolve two initial fields and track |u1-u2|_{H1}^2 + int |v1-v2|_H^2.

    The integral is taken over the steps to fourth order, as the flow's
    energy integral is.

    Fits log(LHS(t)) = log(c1 |du0|_{H1}^2) + c2 t by least squares; for
    identical initial data the series is identically zero and the fitted
    constants are NaN.
    """
    grid = params.grid
    rows = output_rows(params.n_steps, stride)
    n_rows = len(rows)

    f1 = _Etd2Flow(u10, params, basis)
    f2 = _Etd2Flow(u20, params, basis)
    t = np.empty(n_rows)
    dist = np.empty(n_rows)
    int_dv = np.empty(n_rows)

    def dv_sq() -> float:
        return norm_l2_sq(grid, f1.ut - f2.ut)

    quadrature = _RunningIntegral(params.dt)
    acc = quadrature.add(dv_sq())
    t[0] = 0.0
    dist[0] = h1_seminorm_sq(grid, f1.u - f2.u)
    int_dv[0] = acc
    for r in range(1, n_rows):
        while f1.steps < rows[r]:
            f1.advance()
            f2.advance()
            acc = quadrature.add(dv_sq())
        t[r] = f1.steps * params.dt
        dist[r] = h1_seminorm_sq(grid, f1.u - f2.u)
        int_dv[r] = acc

    lhs = dist + int_dv
    d0 = dist[0]
    if d0 > 0.0 and np.all(lhs > 0.0):
        slope, intercept = np.polyfit(t, np.log(lhs), 1)
        c2 = float(slope)
        c1 = float(np.exp(intercept) / d0)
    else:
        c1 = c2 = float("nan")
    return ComparisonResult(t=t, dist_h1_sq=dist, int_dv_sq=int_dv, lhs=lhs,
                            c1=c1, c2=c2, initial_dist_h1_sq=float(d0))
