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
formulations equivalent.  The silent basis (phi = 0) gives the parabolic flow.

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

A step works on one field (3, n), so its cost is Python calls, not
arithmetic.  Each flow therefore builds one velocity kernel, `_Velocity`,
which holds everything a solve never changes, and a step evaluates it twice:
at the projected stage and at the projected result.  The step writes into
buffers it owns; with four DST calls (u and N(u) go through one) and the
kernel's two Laplacians that is the whole step.  `limit_rhs` and
`mobility_apply_inverse` run the same kernel and the same Sherman-Morrison
solve, so the public velocity and the solver's agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from .errors import BlowUpError, DegenerateFieldError, ParameterError
from .fields import (
    Grid1D,
    _check_field,
    _dst,
    c_einsum,
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
from .noise import NoiseBasis, check_grid

__all__ = [
    "LimitParams",
    "LimitTrajectory",
    "ComparisonResult",
    "mobility_apply_inverse",
    "limit_rhs",
    "explicit_form_residual",
    "limit_rows",
    "solve_limit",
    "comparison_experiment",
]

# Steps per relaxation time gamma / lambda_{h,1} of the slowest sine mode.
# Sized by the energy-inequality gate E_lhs <= E_rhs (1 + 1e-6) on the
# parabolic flow, which has no dissipative slack: with the fourth-order
# quadrature of int |u_t|^2, 200 steps keep the default run inside it with a
# margin of about 2.6, and 100 steps fail it.  The solver's own error is far
# smaller than its 1e-3 gate: about 1e-5 in H^1 against RK4 at this step.
_RELAXATION_STEPS = 200
_CONTOUR_POINTS = 32
# largest |A_h u0|_H accepted as initial data
_H2_CAP = 1.0e6
_DOT = "...ij,...ij->...j"   # pointwise_dot's contraction


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

    def __post_init__(self):
        if not 0.0 < self.gamma < inf:
            raise ParameterError(f"friction must be positive and finite, got {self.gamma}")
        step_count(self.dt, self.T)

    @property
    def n_steps(self) -> int:
        return step_count(self.dt, self.T)

    @classmethod
    def auto(cls, grid: Grid1D, T: float, *, gamma: float = 1.0,
             n_out: int = 256) -> "LimitParams":
        dt = fitted_step(gamma / (_RELAXATION_STEPS * eigenvalue(grid, 1)), T, n_out)
        return cls(grid=grid, dt=dt, T=T, gamma=gamma)


def mobility_apply_inverse(u: np.ndarray, phi, gamma: float, r: np.ndarray) -> np.ndarray:
    """Solve [(gamma + phi|u|^2/2) I - (phi/2) u u^T] x = r per node.

    Uses the closed form M^{-1} = (1/a)[I + (phi/2 gamma) u u^T] with
    a = gamma + phi |u|^2 / 2, valid for every gamma > 0 and phi >= 0.  u and
    r are fields (3, n); phi is the row (n,) of node values.
    """
    half_phi = 0.5 * np.asarray(phi, dtype=float)
    out = np.empty(np.shape(r))
    _mobility_solve(u, r, gamma, half_phi, half_phi / gamma, out, np.empty((1, out.shape[-1])))
    return out


def _mobility_solve(u, r, gamma, half_phi, half_phi_gamma, out, row) -> None:
    """(r + (phi/2 gamma)(u.r) u) / (gamma + (phi/2)(u.u)) into `out`, which is not r.

    Given the rows phi / 2 and phi / (2 gamma), with `row` (1, n) for the
    pointwise dots.
    """
    dot = row[0]
    c_einsum(_DOT, u, r, out=dot)
    np.multiply(half_phi_gamma, row, out=row)
    np.multiply(row, u, out=out)
    np.add(r, out, out=out)
    c_einsum(_DOT, u, u, out=dot)
    np.multiply(half_phi, row, out=row)
    np.add(gamma, row, out=row)
    np.divide(out, row, out=out)


class _Velocity:
    """(du/dt, A_h u, |u|_{H1}^2) of a field under the limit flow of one basis and gamma.

    Built once per flow, it holds what a solve never changes: h, gamma,
    whether the basis is silent, the mobility rows phi / 2 and
    phi / (2 gamma), and buffers.  It does not check shapes: its callers
    pass fields (3, n) they have checked or made.  `into` writes du/dt into
    the caller's array and A_h u into the buffer `lap`, which the next call
    overwrites, with the float operations of `laplacian`, `inner_l2` and
    `pointwise_dot` in their order, and does not test for a zero field.
    `norm_sq` is |f|_H^2 with the arithmetic of `norm_l2_sq`.
    """

    def __init__(self, params: LimitParams, basis: NoiseBasis):
        n = params.grid.n
        self.h = params.grid.h
        self._h_sq = self.h ** 2
        self.gamma = params.gamma
        self.silent = basis.m == 0
        self.half_phi = 0.5 * basis.phi
        self.half_phi_gamma = self.half_phi / params.gamma
        self.lap, self._r, self._row = np.empty((3, n)), np.empty((3, n)), np.empty((1, n))
        # the interior rows of A_h u: nodes with a left and with a right neighbour
        self._lap_left, self._lap_right = self.lap[:, 1:], self.lap[:, :-1]

    def norm_sq(self, f: np.ndarray) -> float:
        return self.h * float(c_einsum("ij,ij->", f, f))

    def into(self, u: np.ndarray, ut: np.ndarray) -> float:
        """Write du/dt into `ut` and A_h u into `lap`; return |u|_{H1}^2."""
        # laplacian: -2 u, plus the left neighbour, plus the right one, over h^2
        lap = self.lap
        np.multiply(-2.0, u, out=lap)
        np.add(self._lap_left, u[:, :-1], out=self._lap_left)
        np.add(self._lap_right, u[:, 1:], out=self._lap_right)
        np.divide(lap, self._h_sq, out=lap)
        h1 = -(self.h * float(c_einsum("ij,ij->", lap, u)))   # -inner_l2(lap, u)
        r = self._r
        np.multiply(h1, u, out=r)
        np.add(lap, r, out=r)
        if self.silent:   # phi = 0: M = gamma I, and the mobility solve is r / gamma
            np.divide(r, self.gamma, out=ut)
        else:
            _mobility_solve(u, r, self.gamma, self.half_phi, self.half_phi_gamma, ut, self._row)
        return h1


def limit_rhs(u: np.ndarray, basis: NoiseBasis, params: LimitParams) -> np.ndarray:
    """du/dt for the limit flow of `basis`; the silent basis gives the parabolic flow."""
    check_grid(basis, params.grid)
    u = _check_field(params.grid, u)
    velocity = _Velocity(params, basis)
    if velocity.norm_sq(u) <= 0.0:
        raise DegenerateFieldError("limit dynamics are undefined for the zero field")
    ut = np.empty(u.shape)
    velocity.into(u, ut)
    return ut


def explicit_form_residual(u: np.ndarray, ut: np.ndarray, basis: NoiseBasis,
                           params: LimitParams) -> float:
    """H-norm residual of the divergence form, with d/dt expanded via ut.

    Zero (to roundoff) exactly when ut is the mobility-form velocity of u;
    linear in perturbations of ut.
    """
    grid = params.grid
    check_grid(basis, grid)
    lap = laplacian(grid, u)
    h1 = -inner_l2(grid, lap, u)
    r = lap + h1 * u
    uu = pointwise_dot(u, u)
    u_ut = pointwise_dot(u, ut)
    lhs = (params.gamma + 0.5 * basis.phi * uu) * ut + (basis.phi * u_ut) * u
    ru = pointwise_dot(r, u)
    rhs = r + (1.5 / params.gamma) * (basis.phi * ru) * u
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
        self._count = 0
        self._start = ()                          # f_0, f_1, f_2
        self._fn2 = self._fn1 = self._fn = 0.0    # the last three samples

    def add(self, f: float) -> float:
        if self._count:
            self._trapezoid += 0.5 * self.dt * (self._fn + f)
        self._fn2, self._fn1, self._fn = self._fn1, self._fn, f
        self._count += 1
        if self._count < 3:
            return self._trapezoid
        if self._count == 3:
            self._start = (self._fn2, self._fn1, f)
        f0, f1, f2 = self._start
        # 2 dt f'(0) = -3 f_0 + 4 f_1 - f_2 and 2 dt f'(t) = 3 f_n - 4 f_{n-1} + f_{n-2}
        return self._trapezoid - self.dt / 24.0 * (3.0 * (f + f0) - 4.0 * (self._fn1 + f1)
                                                   + self._fn2 + f2)


class _Etd2Flow:
    """Projected ETDRK2 on the limit flow, carrying the velocity of the current state.

    With L = A_h/gamma, N(u) = du/dt - L u and P the rescaling to unit
    H-norm, one step is

        a       = e^{L dt} u + dt phi1(L dt) N(u)
        u*      = a + dt phi2(L dt) (N(P a) - N(u))
        u_next  = P u*

    and `defect` is | |u*|_H - 1 | of the last step.  `int_ut_sq` is the
    fourth-order running integral of |u_t|_H^2 over the steps taken.

    The flow owns its intermediates.  u and N(u) share one (2, 3, n)
    buffer, so one DST call transforms both, and a step makes four.  The
    velocity kernel evaluates P a and u_next into `ut` and its Laplacian
    buffer `lap`, which is also the A_h P a that L P a needs.  `u` is a new
    array every step, so a caller may keep it.  `ut` and `lap` are buffers
    that the next advance overwrites: solve_limit and comparison_experiment
    read them before it.  The shape of u0 is checked once, here.  A zero
    stage raises DegenerateFieldError, and a non-finite node of u* shows in
    its norm, one scalar, and raises BlowUpError; P a and u_next have unit
    norm, so the kernel does not test them for zero.
    """

    def __init__(self, u0: np.ndarray, params: LimitParams, basis: NoiseBasis):
        check_grid(basis, params.grid)
        z = -eigenvalues(params.grid) * (params.dt / params.gamma)
        phi1, phi2 = _phi_functions(z)
        # mode rows (n,), which broadcast over the components of a spectrum
        self._decay = np.exp(z)
        self._phi1 = params.dt * phi1
        self._phi2 = params.dt * phi2
        self.velocity = _Velocity(params, basis)
        self.u = _repair_initial(params.grid, u0)
        shape = self.u.shape
        self.ut = self._ut = np.empty(shape)
        self.lap = self.velocity.lap
        self.h1 = self.velocity.into(self.u, self.ut)
        self.ut_sq = self.velocity.norm_sq(self.ut)
        self._quadrature = _RunningIntegral(params.dt)
        self.int_ut_sq = self._quadrature.add(self.ut_sq)
        self.defect = 0.0
        self.steps = 0
        self._pair, self._spectra = np.empty((2,) + shape), np.empty((2,) + shape)
        self._a, self._pa = np.empty(shape), np.empty(shape)

    def advance(self) -> None:
        velocity, pair, spectra, a, pa = self.velocity, self._pair, self._spectra, self._a, self._pa
        gamma, ut, lap = velocity.gamma, self._ut, velocity.lap
        u, n0 = pair
        u[...] = self.u
        np.divide(self.lap, gamma, out=n0)
        np.subtract(self.ut, n0, out=n0)
        # orthonormal DST-I, as dst_ortho: of u and N(u) in one call
        first, second = spectra
        _dst(pair, 1, (2,), 1, spectra, 1, None)
        np.multiply(self._decay, first, out=first)
        np.multiply(self._phi1, second, out=second)
        np.add(first, second, out=first)
        _dst(first, 1, (1,), 1, a, 1, None)
        nrm = sqrt(velocity.norm_sq(a))
        if nrm <= 0.0:
            raise DegenerateFieldError("cannot normalise a zero field")
        np.divide(a, nrm, out=pa)
        velocity.into(pa, ut)
        # N(P a) - N(u), in ut
        np.divide(lap, gamma, out=lap)
        np.subtract(ut, lap, out=ut)
        np.subtract(ut, n0, out=ut)
        _dst(ut, 1, (1,), 1, first, 1, None)
        np.multiply(self._phi2, first, out=first)
        u_star = _dst(first, 1, (1,), 1, second, 1, None)
        np.add(a, u_star, out=u_star)
        nrm = sqrt(velocity.norm_sq(u_star))
        if not nrm < inf:   # NaN or inf: some node of u* is not finite
            raise BlowUpError(self.steps + 1)
        self.u = u_star / nrm
        self.h1 = velocity.into(self.u, ut)
        self.ut, self.lap = ut, lap
        self.ut_sq = velocity.norm_sq(ut)
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


def limit_rows(u0: np.ndarray, params: LimitParams, basis: NoiseBasis, *, stride: int = 1):
    """Run the limit flow to T, stopping every `stride` steps and at the end.

    Yields (r, flow, worst) once the flow stands at output row r, where
    worst is the largest projection defect of its steps since the previous
    row (0 at row 0).  The one row loop of solve_limit and of a study's
    targets, which advance together one row at a time.  The flow's `u` is
    a new array at every row; see _Etd2Flow.
    """
    rows = output_rows(params.n_steps, stride)
    flow = _Etd2Flow(u0, params, basis)
    yield 0, flow, 0.0
    for r in range(1, len(rows)):
        worst = 0.0
        while flow.steps < rows[r]:
            flow.advance()
            worst = max(worst, flow.defect)
        yield r, flow, worst


def solve_limit(u0: np.ndarray, params: LimitParams, basis: NoiseBasis, *,
                stride: int = 1, on_row=None) -> LimitTrajectory:
    """Run the limit flow to T, recording every `stride` steps plus the end.

    on_row, when given, is called as on_row(r, u) once row r is recorded,
    with u the state there, so a caller can use each row before the solve ends.
    """
    n_rows = len(output_rows(params.n_steps, stride))
    t = np.empty(n_rows)
    u_h1 = np.empty(n_rows)
    u_h2 = np.empty(n_rows)
    ut_h = np.empty(n_rows)
    sphere = np.empty(n_rows)
    defect = np.empty(n_rows)
    energy_lhs = np.empty(n_rows)

    for r, flow, worst in limit_rows(u0, params, basis, stride=stride):
        norm_sq = flow.velocity.norm_sq
        t[r] = flow.steps * params.dt
        u_h1[r] = sqrt(max(flow.h1, 0.0))
        u_h2[r] = sqrt(norm_sq(flow.lap))
        ut_h[r] = sqrt(flow.ut_sq)
        sphere[r] = abs(sqrt(norm_sq(flow.u)) - 1.0)
        defect[r] = worst
        energy_lhs[r] = flow.h1 + 2.0 * params.gamma * flow.int_ut_sq
        if on_row is not None:
            on_row(r, flow.u)

    # the integral is 0 at row 0, so energy_lhs[0] is |u(0)|_{H1}^2
    return LimitTrajectory(params=params, t=t, u_h1=u_h1, u_h2=u_h2, ut_h=ut_h,
                           sphere_residual=sphere, projection_defect=defect,
                           energy_lhs=energy_lhs, energy_rhs=float(energy_lhs[0]))


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
