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

The parabolic flow needs no stepper: gamma u_t = A_h u + |u|_{H1}^2 u only
rescales e^{t A_h / gamma} u0 onto the sphere, so its semi-discrete solution
is that field at unit H-norm, the normalised heat flow (Bao & Du 2004).
`limit_rows` solves it so, exactly in time, on the silent basis, and steps
every other basis with ETDRK2; the two flows share their state bookkeeping
(`_Flow`), and the heat flow's projection defect is 0.

An ETDRK2 step works on one field (3, n), so its cost is Python calls, not
arithmetic.  Each flow therefore builds one velocity kernel, `_Velocity`,
which holds everything a solve never changes.  An ETDRK2 step evaluates it
twice, at the projected stage and at the projected result, and writes into
buffers the flow owns; with four DST calls (u and N(u) go through one) and
the kernel's two Laplacians that is the whole step.  No step of the heat
flow depends on the arithmetic of the one before, so it computes ROW_CHUNK
steps at a time: one DST, one batched H-norm and one evaluation of the same
kernel on the stack (ROW_CHUNK, 3, n), which gives each field the bits it
gets alone.  `limit_rhs` and `mobility_apply_inverse` run the same kernel
and the same Sherman-Morrison solve, so the public velocity and the
solver's agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from .errors import BlowUpError, DegenerateFieldError, ParameterError
from .fields import (
    Grid1D,
    ROW_CHUNK,
    _check_field,
    _check_friction,
    _dst,
    _inner_sum,
    _laplacian_into,
    _node_dot,
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
# parabolic flow, which has no dissipative slack.  That flow is solved exactly
# in time, so its energy rows measure the fourth-order quadrature of
# int |u_t|^2 alone: at the defaults (n = 127, T = 1) the worst row reads
# 6.0e-8 at 200 steps, a margin of about 17, and 4.7e-7 at 100 steps, a
# margin of about 2; the T = 0.5 run of the test suite fails the gate
# (3.6e-6) at 50 steps.  The corrected flow's rows hold at 200 and 100 steps
# alike, and its ETDRK2 error is far smaller than its 1e-3 gate: about 1e-5
# in H^1 against RK4 at this step.  ETDRK2 on the silent basis sets the
# floor: its sup H^1 gap to the exact heat flow (T = 0.5, n = 63 and 127,
# gamma = 1 and 0.7) reads 5.1e-4 at 200 steps and 2.02e-3 to 2.04e-3 at
# 100, over the 1e-3 bound of the test suite, whose RK4 gate still holds
# there.  At 100 steps the benchmark's `limit` ran in about half the time
# (wall_ref 1.54 -> 0.79 with the heat flow stepped one field at a time,
# 1.32 -> 0.69 with its chunks), but seven tests failed: those four gaps and
# three that pin the step count.
_RELAXATION_STEPS = 200
_CONTOUR_POINTS = 32
# largest |A_h u0|_H accepted as initial data
_H2_CAP = 1.0e6


@dataclass(frozen=True)
class LimitParams:
    """Parameters of the deterministic solver.

    Neither solver has a stability bound, so dt only has to divide T.
    `auto` picks the accuracy rule dt <= gamma / (200 lambda_{h,1}), with
    the step count a multiple of n_out: about 2,000 steps for T = 1 at the
    default grid.
    """

    grid: Grid1D
    dt: float
    T: float
    gamma: float = 1.0

    def __post_init__(self):
        _check_friction(self.gamma)
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

    Given the rows phi / 2 and phi / (2 gamma), with `row` (..., 1, n) for
    the pointwise dots.
    """
    dot = row[..., 0, :]
    _node_dot(u, r, out=dot)
    np.multiply(half_phi_gamma, row, out=row)
    np.multiply(row, u, out=out)
    np.add(r, out, out=out)
    _node_dot(u, u, out=dot)
    np.multiply(half_phi, row, out=row)
    np.add(gamma, row, out=row)
    np.divide(out, row, out=out)


class _Velocity:
    """(du/dt, A_h u, |u|_{H1}^2) under the limit flow of one basis and gamma.

    Built once per flow, it holds what a solve never changes: h, gamma,
    whether the basis is silent, the mobility rows phi / 2 and
    phi / (2 gamma), and scratch for one field.  It does not check shapes:
    its callers pass a field (3, n) or a stack of fields (K, 3, n) that they
    have checked or made.  `into` writes du/dt and A_h u (the kernel of
    `laplacian`) into the caller's arrays, with the float operations of
    `inner_l2` and `pointwise_dot` in their order, so each field of a stack
    gets the bits it gets alone; no zero-field test.  `norm_sq` is |f|_H^2
    with the arithmetic of `norm_l2_sq`.  As in SpdeStepper, the forms
    differ only in their scalars, floats for a field and (K,) arrays for a
    stack, read over its fields through (K, 1, 1) views, and in the
    scratch of the mobility solve, the velocity's own for a field and new
    for a stack; on the silent basis the solve needs none.
    """

    def __init__(self, params: LimitParams, basis: NoiseBasis):
        n = params.grid.n
        self.h = params.grid.h
        self._h_sq = self.h ** 2
        self.gamma = params.gamma
        self.silent = basis.m == 0
        self.half_phi = 0.5 * basis.phi
        self.half_phi_gamma = self.half_phi / params.gamma
        self._r, self._row = np.empty((3, n)), np.empty((1, n))

    def norm_sq(self, f: np.ndarray):
        sq = _inner_sum(f, f)
        return self.h * (float(sq) if f.ndim == 2 else sq)

    def into(self, u: np.ndarray, ut: np.ndarray, lap: np.ndarray):
        """Write du/dt into `ut` and A_h u into `lap`; return |u|_{H1}^2."""
        _laplacian_into(u, lap, self._h_sq)
        dot = _inner_sum(lap, u)
        if u.ndim == 2:
            h1 = each = -(self.h * float(dot))   # -inner_l2(lap, u)
        else:
            h1 = -(self.h * dot)
            each = h1[:, None, None]
        # r = A_h u + |u|_{H1}^2 u, in scratch the mobility solve reads
        if self.silent:   # phi = 0: M = gamma I, and the solve is r / gamma, in place
            r, row = ut, None
        elif u.ndim == 2:
            r, row = self._r, self._row
        else:
            r, row = np.empty(u.shape), np.empty((len(u), 1, u.shape[-1]))
        np.multiply(each, u, out=r)
        np.add(lap, r, out=r)
        if self.silent:
            np.divide(r, self.gamma, out=ut)
        else:
            _mobility_solve(u, r, self.gamma, self.half_phi, self.half_phi_gamma, ut, row)
        return h1


def limit_rhs(u: np.ndarray, basis: NoiseBasis, params: LimitParams) -> np.ndarray:
    """du/dt for the limit flow of `basis`; the silent basis gives the parabolic flow."""
    check_grid(basis, params.grid)
    u = _check_field(params.grid, u)
    velocity = _Velocity(params, basis)
    if velocity.norm_sq(u) <= 0.0:
        raise DegenerateFieldError("limit dynamics are undefined for the zero field")
    ut = np.empty(u.shape)
    velocity.into(u, ut, np.empty(u.shape))
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


class _Flow:
    """The state of a limit flow and its bookkeeping, shared by both solvers.

    `u` is the state on the unit sphere, `ut` its velocity, `lap` its
    Laplacian A_h u, `h1` = |u|_{H1}^2, `ut_sq` = |u_t|_H^2, `int_ut_sq` the
    fourth-order running integral of |u_t|_H^2 over the steps taken,
    `defect` the last step's distance from the sphere before projection,
    and `steps` the steps taken.  The shape of u0 is checked once, here, and
    `_repair_initial` refuses a zero or over-rough field.  `_z` is the mode
    row -lambda_{h,k} dt / gamma, the exponent of the exact solution
    operator of u_t = A_h u / gamma over one step.  `_evaluate` runs the
    velocity kernel at `u` into the flow's `ut` and `lap` and records the
    state; ETDRK2 ends each step in it, and the heat flow evaluates its
    steps a chunk at a time.
    """

    def __init__(self, u0: np.ndarray, params: LimitParams, basis: NoiseBasis):
        check_grid(basis, params.grid)
        self._z = -eigenvalues(params.grid) * (params.dt / params.gamma)
        self.velocity = _Velocity(params, basis)
        self.u = _repair_initial(params.grid, u0)
        self.ut, self.lap = np.empty(self.u.shape), np.empty(self.u.shape)
        self._quadrature = _RunningIntegral(params.dt)
        self.defect = 0.0
        self.steps = 0
        self._evaluate()

    def _evaluate(self) -> None:
        self.h1 = self.velocity.into(self.u, self.ut, self.lap)
        self.ut_sq = self.velocity.norm_sq(self.ut)
        self.int_ut_sq = self._quadrature.add(self.ut_sq)


class _Etd2Flow(_Flow):
    """Projected ETDRK2 on the limit flow, carrying the velocity of the current state.

    With L = A_h/gamma, N(u) = du/dt - L u and P the rescaling to unit
    H-norm, one step is

        a       = e^{L dt} u + dt phi1(L dt) N(u)
        u*      = a + dt phi2(L dt) (N(P a) - N(u))
        u_next  = P u*

    and `defect` is | |u*|_H - 1 | of the last step.

    The flow owns its intermediates.  u and N(u) share one (2, 3, n)
    buffer, so one DST call transforms both, and a step makes four.  The
    velocity kernel evaluates P a and u_next into the flow's buffers `ut`
    and `lap`; the second is also the A_h P a that L P a needs.  `u` is a
    new array every step, so a caller may keep it.  `ut` and `lap` are buffers that
    the next advance overwrites: the callers of limit_rows read them before
    they resume it.  A zero stage raises DegenerateFieldError, and a
    non-finite node of u* shows in its norm, one scalar, and raises
    BlowUpError; P a and u_next have unit norm, so the kernel does not test
    them for zero.
    """

    def __init__(self, u0: np.ndarray, params: LimitParams, basis: NoiseBasis):
        super().__init__(u0, params, basis)
        self._decay = np.exp(self._z)
        phi1, phi2 = _phi_functions(self._z)
        self._phi1 = params.dt * phi1
        self._phi2 = params.dt * phi2
        shape = self.u.shape
        self._pair, self._spectra = np.empty((2,) + shape), np.empty((2,) + shape)
        self._a, self._pa = np.empty(shape), np.empty(shape)

    def advance(self) -> None:
        velocity, pair, spectra, a, pa = self.velocity, self._pair, self._spectra, self._a, self._pa
        gamma, ut, lap = velocity.gamma, self.ut, self.lap
        u, n0 = pair
        u[...] = self.u
        np.divide(lap, gamma, out=n0)
        np.subtract(ut, n0, out=n0)
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
        velocity.into(pa, ut, lap)
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
        self.defect = abs(nrm - 1.0)
        self.u = u_star / nrm
        self._evaluate()
        self.steps += 1


class _HeatFlow(_Flow):
    """The parabolic flow (the silent basis), solved exactly as the normalised heat flow.

    With phi = 0 the flow gamma u_t = A_h u + |u|_{H1}^2 u keeps the
    direction of e^{t A_h / gamma} u0 and only rescales it to the sphere, so
    its semi-discrete solution is that field at unit H-norm (the continuous
    normalised gradient flow of Bao & Du 2004).  No step depends on the
    arithmetic of the one before, so the flow computes its steps ROW_CHUNK
    at a time (fewer in the last chunk before T, one at a time past it), and
    `advance` hands them out one by one.  From the sine spectrum `s` of the
    last step computed, a refill forms the stack of spectra p_j s, with the
    power rows p_j = e^{j (z - z*)}, j = 1..ROW_CHUNK, built once per flow:
    z is the mode row -lambda_{h,k} dt / gamma and z* its entry at the
    slowest mode of u0.  Normalisation removes the factor e^{-j z*}, which
    holds the power of that mode, the one that survives longest, at 1, so
    that no power underflows where the flow does not.  One DST gives the
    fields, one batched H-norm puts them on the sphere, and one evaluation
    of the velocity kernel on the stack gives their `ut`, `lap`, `h1` and
    `ut_sq`; the last field's spectrum, at unit norm, is the next `s`.
    `u`, `ut` and `lap` are views of arrays that each refill makes new, so
    a held state keeps its values.  No projection is made, so `defect`
    stays 0.  A non-finite node of a field shows in its norm: the fields
    before it are handed out, and the advance that reaches it raises
    BlowUpError, naming its step, as does every advance after it.
    """

    def __init__(self, u0: np.ndarray, params: LimitParams, basis: NoiseBasis):
        super().__init__(u0, params, basis)
        self._spectrum = dst_ortho(self.u)
        slowest = np.flatnonzero(self._spectrum.any(axis=0))[0]
        # modes slower than u0's slowest are 0 in every spectrum: their power is 1
        z = np.minimum(self._z - self._z[slowest], 0.0)
        self._powers = np.exp(np.arange(1, ROW_CHUNK + 1)[:, None] * z)
        self._n_steps = params.n_steps
        self._rows, self._next, self._count = [], 0, 0

    def _refill(self) -> None:
        """Compute the next chunk of steps from the spectrum of the last."""
        count = min(ROW_CHUNK, max(self._n_steps - self.steps, 1))
        u = self._powers[:count, None] * self._spectrum
        end = u[-1].copy()   # the last step's spectrum; the DST overwrites the stack
        _dst(u, 1, (2,), 1, u, 1, None)
        nrm = np.sqrt(self.velocity.norm_sq(u))
        finite = nrm < inf   # NaN or inf: some node of that field is not finite
        live = count if finite.all() else int(finite.argmin())
        self._spectrum = np.divide(end, nrm[-1], out=end)   # no refill follows a non-finite field
        u, nrm = u[:live], nrm[:live]
        np.divide(u, nrm[:, None, None], out=u)
        ut, lap = np.empty(u.shape), np.empty(u.shape)
        h1 = self.velocity.into(u, ut, lap)
        ut_sq = self.velocity.norm_sq(ut)
        self._rows = list(zip(u, ut, lap, h1.tolist(), ut_sq.tolist()))
        self._next, self._count = 0, count

    def advance(self) -> None:
        if self._next == self._count:
            self._refill()
        if self._next == len(self._rows):
            raise BlowUpError(self.steps + 1)
        self.u, self.ut, self.lap, self.h1, self.ut_sq = self._rows[self._next]
        self._next += 1
        self.int_ut_sq = self._quadrature.add(self.ut_sq)
        self.steps += 1


@dataclass
class LimitTrajectory:
    """Strided samples of the limit flow and its structural diagnostics.

    sphere_residual is | |u|_H - 1 | of the recorded state, after projection;
    projection_defect is the largest | |u*|_H - 1 | of a step result u*
    before projection since the previous row (0 at t = 0), and 0 at every
    row of the parabolic flow, which is solved exactly and not projected.
    energy_lhs is |u(t)|_{H1}^2 + 2 gamma int_0^t |u_t|_H^2, the integral
    taken over the steps to fourth order (`_RunningIntegral`), and
    energy_rhs is |u(0)|_{H1}^2; the energy inequality asks
    energy_lhs <= energy_rhs.
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
    row (0 at row 0).  The flow is _HeatFlow, the exact parabolic flow, on
    the silent basis (m = 0) and _Etd2Flow on every other.  The one driver
    of the limit flow: the row loop of solve_limit, of a study's targets,
    which advance together one row at a time, and of comparison_experiment,
    whose two flows advance together at stride 1.  The heat flow computes
    its steps a chunk at a time, but it stands at each row as the stepper
    does, with the same bits at any stride.  The flow's `u` is an array no
    later step writes, so a caller may keep it; its `ut` and `lap` are to be
    read before the generator resumes (see _Etd2Flow and _HeatFlow).
    """
    rows = output_rows(params.n_steps, stride)
    flow = _HeatFlow(u0, params, basis) if basis.m == 0 else _Etd2Flow(u0, params, basis)
    yield 0, flow, 0.0
    for r in range(1, len(rows)):
        worst = 0.0
        while flow.steps < rows[r]:
            flow.advance()
            worst = max(worst, flow.defect)
        yield r, flow, worst


def solve_limit(u0: np.ndarray, params: LimitParams, basis: NoiseBasis, *,
                stride: int = 1) -> LimitTrajectory:
    """Run the limit flow to T, recording every `stride` steps plus the end."""
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
    t = np.empty(len(rows))
    dist = np.empty(len(rows))
    int_dv = np.empty(len(rows))

    quadrature = _RunningIntegral(params.dt)
    r = 0
    # the two flows advance in lockstep, one step per row of limit_rows
    for (k, f1, _), (_, f2, _) in zip(limit_rows(u10, params, basis),
                                      limit_rows(u20, params, basis)):
        acc = quadrature.add(norm_l2_sq(grid, f1.ut - f2.ut))
        if k == rows[r]:
            t[r] = k * params.dt
            dist[r] = h1_seminorm_sq(grid, f1.u - f2.u)
            int_dv[r] = acc
            r += 1

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
