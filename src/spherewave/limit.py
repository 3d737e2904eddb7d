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

Time stepping is ETDRK4 (Cox & Matthews 2002).  The stiff part A_h u / gamma
is diagonal in the orthonormal DST-I basis and is integrated exactly; the
remainder N(u) = du/dt - A_h u / gamma (the |u|_{H1}^2 u term and the
pointwise mobility correction) is explicit.  The pointwise mobility lies in
(0, 1/gamma], so for frozen coefficients the explicit remainder only removes
part of a decay that the exact factor already applies: the scheme is stable
for every dt, and dt is chosen for accuracy alone.  The sphere repels
transversally at rate 2|u|_{H1}^2/gamma, so each of the three stages is
projected back onto it before N is evaluated there, and so is the step
result; the distance of the unprojected result from the sphere is kept as
the step's projection defect.

The parabolic flow needs no stepper: gamma u_t = A_h u + |u|_{H1}^2 u only
rescales e^{t A_h / gamma} u0 onto the sphere, so its semi-discrete solution
is that field at unit H-norm, the normalised heat flow (Bao & Du 2004).
`limit_rows` solves it so, exactly in time, on the silent basis, and steps
every other basis with ETDRK4; the two flows share their state (`_Flow`)
and their step rule (`LimitParams.auto`), and the heat flow's projection
defect is 0.  Its step sets only the rows and how finely the energy
integral samples |u_t|_H^2.  A flow only steps: the quantities only
`solve_limit` reports, |u_t|_H^2, its running integral and each row's
worst projection defect, are formed there, from every step, and folded
into the rows a chunk of steps at a time, so no solver holds memory in
proportion to its step count.

An ETDRK4 step works on one field (3, n), so its cost is Python calls, not
arithmetic.  Each flow therefore builds one velocity kernel, `_Velocity`,
which holds everything a solve never changes.  An ETDRK4 step evaluates it
four times, at the three projected stages and at the projected result, and
writes into buffers the flow owns; with eight DST calls (u and N(u) go
through one) and the kernel's four Laplacians that is the whole step.  No
step of the heat flow depends on the arithmetic of the one before, so it
computes ROW_CHUNK steps at a time: one DST, one batched H-norm and one
evaluation of the same kernel on the stack (ROW_CHUNK, 3, n), which gives
each field the bits it gets alone.  `solve_limit` reads the steps by the
same rule, on either flow: it takes the H-norms of a stack of steps in one
call, on the heat flow's own chunk once per refill, and on ETDRK4 steps
copied into stacks of ROW_CHUNK.
`limit_rhs` and `mobility_apply_inverse` run the same kernel and the same
Sherman-Morrison solve, so the public velocity and the solver's agree bit
for bit.
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
    _check_finite,
    _check_friction,
    _dst,
    _inner_sum,
    _laplacian_into,
    _node_dot,
    _row_steps,
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

# Steps per relaxation time gamma / lambda_{h,1} of the slowest sine mode,
# on every basis.  On the silent basis, whose exact heat flow has no step
# error, one gate sizes it: the energy inequality E_lhs <= E_rhs (1 + 1e-6),
# which has no dissipative slack there, so its rows measure the fourth-order
# quadrature of int |u_t|^2 alone.  At the defaults (n = 127, T = 1, 494
# steps) the worst row reads 1.2e-7 here with the cubic start, against
# 3.7e-6 with the trapezoid start and 1.8e-6 at 25 steps.  On every other
# basis, which ETDRK4 steps, the sup-in-time H^1 error against ETDRK4 at 4x
# the steps reads 1.0e-6, against 1.4e-5 for ETDRK2 at 200 steps; the sup
# errors of the u_h1, u_h2 and ut_h columns of solve_limit read 5.5e-9,
# 1.0e-7 and 3.4e-7 (ETDRK2: 5.2e-7, 1.1e-5, 2.3e-5), and of energy_lhs
# 5.3e-6 (ETDRK2: 7.6e-6).  At 25 steps energy_lhs reads 2.9e-4.
_RELAXATION_STEPS = 50
_CONTOUR_POINTS = 32
# largest |A_h u0|_H accepted as initial data
_H2_CAP = 1.0e6


@dataclass(frozen=True)
class LimitParams:
    """Parameters of the deterministic solver.

    Neither solver has a stability bound, so dt only has to divide T.
    `auto` picks one accuracy rule for both flows, with the step count a
    multiple of n_out: dt <= gamma / (50 lambda_{h,1}), which sizes the
    ETDRK4 step and the heat flow's energy quadrature alike.  For T = 1 at
    the default grid that is 494 steps.
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
        """The step rule of both flows: 50 steps per relaxation time."""
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
    u = _check_finite(_check_field(params.grid, u), "field u")
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
    u0 = normalize_sphere(grid, _check_finite(_check_field(grid, u0), "initial field u0"))
    h2 = np.sqrt(norm_l2_sq(grid, laplacian(grid, u0)))
    if h2 > _H2_CAP:
        raise ParameterError(
            f"initial field is too rough: |A_h u0|_H = {h2:.3e} exceeds the cap {_H2_CAP:.3e}")
    return u0


def _phi_functions(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi1(z) = (e^z - 1)/z, phi2(z) = (e^z - 1 - z)/z^2 and
    phi3(z) = (e^z - 1 - z - z^2/2)/z^3 for real z.

    Means over a unit circle around each z (Kassam & Trefethen 2005), which
    avoids the cancellation of the direct formulas near z = 0.
    """
    w = z[:, None] + np.exp(1j * np.pi * (np.arange(_CONTOUR_POINTS) + 0.5)
                            / _CONTOUR_POINTS)
    em1 = np.expm1(w)
    phi1, phi2 = em1 / w, (em1 - w) / w ** 2
    phi3 = (em1 - w - 0.5 * w ** 2) / w ** 3
    return tuple(phi.mean(axis=1).real for phi in (phi1, phi2, phi3))


class _RunningIntegral:
    """Running int_0^t f over samples f_0, f_1, ... spaced dt, to fourth order, a chunk at a time.

    `extend` takes the next samples and returns the value after each: the
    trapezoid sum plus the Euler-Maclaurin end correction
    -(dt^2/12)(f'(t) - f'(0)), with f' from second-order one-sided
    differences of the samples; the plain trapezoid until three samples
    exist (with three it is Simpson's rule), 0 after the first.  With four
    samples or more, the value after the second is instead the integral of
    the cubic through the first four, (dt/24)(9 f_0 + 19 f_1 - 5 f_2 + f_3),
    fourth order like the rest; the trapezoid's error there grows as dt^3.
    Across chunks it carries the trapezoid sum, the first three samples and
    the last two, and the trapezoid sums in order: one np.cumsum over the
    sum so far followed by the chunk's terms.  So the values do not depend
    on how the samples are chunked, provided the chunk that holds f_1 also
    holds f_3 or is the last.  All-zero samples give exactly 0.
    """

    def __init__(self, dt: float):
        self.dt = dt
        self._count = 0            # samples so far
        self._sum = 0.0            # their trapezoid sum
        self._head = np.empty(0)   # the first three samples
        self._tail = np.empty(0)   # the last two samples

    def extend(self, samples) -> np.ndarray:
        dt, seen, before = self.dt, self._count, len(self._tail)
        # the last two samples so far, then the chunk's
        f = np.concatenate((self._tail, np.asarray(samples, dtype=float)))
        new = len(f) - before
        first = max(before, 1)
        run = np.cumsum(np.concatenate(([self._sum], 0.5 * dt * (f[first - 1:-1] + f[first:]))))
        self._sum = run[-1]
        values = run[len(run) - new:]
        if seen < 3:
            self._head = np.concatenate((self._head, f[before:]))[:3]
        if len(f) >= 3:
            # 2 dt f'(0) = -3 f_0 + 4 f_1 - f_2 and 2 dt f'(t) = 3 f_n - 4 f_{n-1} + f_{n-2}
            f0, f1, f2 = self._head
            values[2 - before:] -= dt / 24.0 * (3.0 * (f[2:] + f0) - 4.0 * (f[1:-1] + f1)
                                                + f[:-2] + f2)
            if seen <= 1 and seen + new >= 4:   # the chunk holds f_1 and f_3 (f[3] here)
                values[1 - seen] = dt / 24.0 * (9.0 * f0 + 19.0 * f1 - 5.0 * f2 + f[3])
        self._count, self._tail = seen + new, f[-2:].copy()
        return values


class _Flow:
    """The state of a limit flow, shared by both solvers; a flow only steps.

    `u` is the state on the unit sphere, `ut` its velocity, `lap` its
    Laplacian A_h u, `h1` = |u|_{H1}^2, `defect` the last step's distance
    from the sphere before projection, and `steps` the steps taken.  The
    shape of u0 is checked once, here, and `_repair_initial` refuses a
    non-finite, zero or over-rough field.  `_z` is the mode row
    -lambda_{h,k} dt / gamma, the exponent of the exact solution operator of
    u_t = A_h u / gamma over one step.
    """

    def __init__(self, u0: np.ndarray, params: LimitParams, basis: NoiseBasis):
        check_grid(basis, params.grid)
        self._z = -eigenvalues(params.grid) * (params.dt / params.gamma)
        self.velocity = _Velocity(params, basis)
        self.u = _repair_initial(params.grid, u0)
        self.ut, self.lap = np.empty(self.u.shape), np.empty(self.u.shape)
        self.h1 = self.velocity.into(self.u, self.ut, self.lap)
        self.defect = 0.0
        self.steps = 0


class _Etd4Flow(_Flow):
    """Projected ETDRK4 on the limit flow, carrying the velocity of the current state.

    With L = A_h/gamma, N(u) = du/dt - L u, P the rescaling to unit H-norm,
    E = e^{L dt}, E2 = e^{L dt / 2}, Q = (dt/2) phi1(L dt / 2) and the
    phi-functions at L dt, one step of Cox & Matthews (2002) is

        a       = E2 u + Q N(u)
        b       = E2 u + Q N(P a)
        c       = E2 a + Q (2 N(P b) - N(u))
        u*      = E u + dt [f1 N(u) + 2 f2 (N(P a) + N(P b)) + f3 N(P c)]
        u_next  = P u*

    with f1 = phi1 - 3 phi2 + 4 phi3, f2 = phi2 - 2 phi3 and
    f3 = 4 phi3 - phi2, and `defect` is | |u*|_H - 1 | of the last step.

    A step result within sqrt(n) eps of u in H-norm is rounding, and the
    flow stays at u: it keeps u, u_t, A_h u and h1 (evaluated again at u,
    with the same bits), and `defect` is the step's own.  At a sine
    eigenfield, an exact equilibrium, the step moves u by the rounding of
    its DST round trip and normalisation alone, which grows with n: at most
    0.6 sqrt(n) eps for modes 1 to 7 (n = 31 to 1,023, L = 0.2 to 3,
    gamma = 0.1 to 10, 0 and 16 noise modes, one or three components),
    2.7 eps at n = 127 for modes 1 to 3.  A state d from an equilibrium
    that the flow leaves or nears at rate s moves about d (e^{s dt} - 1) a
    step, so the flow stays only within rounding of one: at n = 127, with
    248 steps for T = 0.5 and 512 for T = 1, a mode-1 departure of 96 eps
    in H-norm from the mode-3 eigenfield leaves it, one of 32 eps stays.
    Without this an unstable equilibrium is held only if the rounded map
    happens to reach a floating-point fixed point, since the rounding of
    its node values is a perturbation the flow amplifies: the mode-3
    eigenfield at n = 127 leaves toward mode 2 at rate
    (lambda_3 - lambda_2) / gamma, about 49, and at 512 steps for T = 1
    ETDRK4 (and ETDRK2) drift off it, where ETDRK4 at 1,024 steps and
    ETDRK2 at 2,048 happen to stay.

    The flow owns its intermediates and forms every stage in the sine basis.
    u and N(u) share one (2, 3, n) buffer, so one DST call transforms both;
    each stage takes one DST to the nodes and one of its N back, and u* one,
    so a step makes eight.  The velocity kernel evaluates each projected
    stage and u_next into the flow's buffers `ut` and `lap`; the second is
    also the A_h P x that L P x needs.  `u` is an array no step writes, so
    a caller may keep it.  `ut` and `lap` are buffers that the next advance
    overwrites: the callers of limit_rows read them before they resume it.
    A zero stage raises DegenerateFieldError, and a non-finite node of u*
    shows in its norm, one scalar, and raises BlowUpError; u_next has unit
    norm, so the kernel does not test it for zero.
    """

    def __init__(self, u0: np.ndarray, params: LimitParams, basis: NoiseBasis):
        super().__init__(u0, params, basis)
        dt, z = params.dt, self._z
        self._decay, self._half_decay = np.exp(z), np.exp(0.5 * z)
        self._half_phi1 = 0.5 * dt * _phi_functions(0.5 * z)[0]
        phi1, phi2, phi3 = _phi_functions(z)
        self._f1 = dt * (phi1 - 3.0 * phi2 + 4.0 * phi3)
        self._f2 = 2.0 * dt * (phi2 - 2.0 * phi3)
        self._f3 = dt * (4.0 * phi3 - phi2)
        self._still_sq = params.grid.n * np.finfo(float).eps ** 2
        shape = self.u.shape
        self._pair = np.empty((2,) + shape)
        # the spectra of u, N(u), a, N(P a), N(P b), N(P c), E2 u and a scratch
        self._spectra = np.empty((8,) + shape)
        self._x, self._px = np.empty(shape), np.empty(shape)

    def _stage(self, spectrum: np.ndarray, out: np.ndarray) -> None:
        """The sine spectrum of N(P x) into `out`, given that of the stage x."""
        velocity, x, px, ut, lap = self.velocity, self._x, self._px, self.ut, self.lap
        _dst(spectrum, 1, (1,), 1, x, 1, None)
        nrm = sqrt(velocity.norm_sq(x))
        if nrm <= 0.0:
            raise DegenerateFieldError("cannot normalise a zero field")
        np.divide(x, nrm, out=px)
        velocity.into(px, ut, lap)
        np.divide(lap, velocity.gamma, out=lap)
        np.subtract(ut, lap, out=ut)
        _dst(ut, 1, (1,), 1, out, 1, None)

    def advance(self) -> None:
        velocity, pair, ut, lap = self.velocity, self._pair, self.ut, self.lap
        su, sn, sa, sna, snb, snc, half_u, tmp = self._spectra
        half_decay, half_phi1 = self._half_decay, self._half_phi1
        u, n0 = pair
        u[...] = self.u
        np.divide(lap, velocity.gamma, out=n0)
        np.subtract(ut, n0, out=n0)
        # orthonormal DST-I, as dst_ortho: of u and N(u) in one call
        _dst(pair, 1, (2,), 1, self._spectra[:2], 1, None)
        np.multiply(half_decay, su, out=half_u)
        np.multiply(half_phi1, sn, out=tmp)
        np.add(half_u, tmp, out=sa)
        self._stage(sa, sna)
        np.multiply(half_phi1, sna, out=tmp)
        np.add(half_u, tmp, out=tmp)
        self._stage(tmp, snb)
        np.multiply(2.0, snb, out=tmp)
        np.subtract(tmp, sn, out=tmp)
        np.multiply(half_phi1, tmp, out=tmp)
        np.multiply(half_decay, sa, out=sa)
        np.add(sa, tmp, out=sa)
        self._stage(sa, snc)
        # the spectrum of u*, in half_u
        np.multiply(self._decay, su, out=half_u)
        np.multiply(self._f1, sn, out=tmp)
        np.add(half_u, tmp, out=half_u)
        np.add(sna, snb, out=tmp)
        np.multiply(self._f2, tmp, out=tmp)
        np.add(half_u, tmp, out=half_u)
        np.multiply(self._f3, snc, out=tmp)
        np.add(half_u, tmp, out=half_u)
        u_star = _dst(half_u, 1, (1,), 1, self._x, 1, None)
        nrm = sqrt(velocity.norm_sq(u_star))
        if not nrm < inf:   # NaN or inf: some node of u* is not finite
            raise BlowUpError(self.steps + 1)
        self.defect = abs(nrm - 1.0)
        u_next = u_star / nrm
        if velocity.norm_sq(np.subtract(u_next, self.u, out=u_star)) > self._still_sq:
            self.u = u_next
        self.h1 = velocity.into(self.u, ut, lap)
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
    of the velocity kernel on the stack gives their `ut`, `lap` and `h1`;
    the last field's spectrum, at unit norm, is the next `s`.
    `u`, `ut` and `lap` are views of arrays that each refill makes new, so
    a held state keeps its values.  `chunk` holds those arrays, the stacks
    (u, ut, lap, h1) of the steps the last refill computed, and of step 0
    alone before the first refill; `advance` hands out their entries, and
    solve_limit reads them whole where the flow stands at the end of a
    refill.  No projection is made, so `defect` stays 0.  A non-finite
    node of a field shows in its norm: the fields before it are handed out,
    and the advance that reaches it raises BlowUpError, naming its step, as
    does every advance after it.
    """

    def __init__(self, u0: np.ndarray, params: LimitParams, basis: NoiseBasis):
        super().__init__(u0, params, basis)
        self._spectrum = dst_ortho(self.u)
        slowest = np.flatnonzero(self._spectrum.any(axis=0))[0]
        # modes slower than u0's slowest are 0 in every spectrum: their power is 1
        z = np.minimum(self._z - self._z[slowest], 0.0)
        self._powers = np.exp(np.arange(1, ROW_CHUNK + 1)[:, None] * z)
        self._n_steps = params.n_steps
        self._next = self._count = 0
        self.chunk = (self.u[None], self.ut[None], self.lap[None], np.array([self.h1]))

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
        self.chunk = u, ut, lap, self.velocity.into(u, ut, lap)
        self._next, self._count = 0, count

    def advance(self) -> None:
        if self._next == self._count:
            self._refill()
        u, ut, lap, h1 = self.chunk
        i = self._next
        if i == len(h1):
            raise BlowUpError(self.steps + 1)
        self.u, self.ut, self.lap, self.h1 = u[i], ut[i], lap[i], h1.item(i)
        self._next += 1
        self.steps += 1


@dataclass
class LimitTrajectory:
    """Strided samples of the limit flow and its structural diagnostics.

    sphere_residual is | |u|_H - 1 | of the recorded state: after projection
    on the corrected flow, after the exact normalisation on the parabolic
    flow.  projection_defect is the largest | |u*|_H - 1 | of a step result
    u* before projection over the steps since the previous row (0 at t = 0),
    and 0 at every row of the parabolic flow, which is solved exactly and
    not projected.  energy_lhs is |u(t)|_{H1}^2 + 2 gamma int_0^t |u_t|_H^2,
    the integral taken over every step to fourth order (`_RunningIntegral`),
    and energy_rhs is |u(0)|_{H1}^2; the energy inequality asks
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

    Yields (r, flow) once the flow stands at output row r.  The flow is
    _HeatFlow, the exact parabolic flow, on the silent basis (m = 0) and
    _Etd4Flow on every other.  The one driver of the limit flow: it only
    steps and picks rows.  It is the step loop of solve_limit and of
    comparison_experiment, which read every step (stride 1), and the row
    loop of a study's targets, which advance together one row at a time.
    The heat flow computes its steps a chunk at a time, but it stands at
    each row as the stepper does, with the same bits at any stride.  The
    flow's `u` is an array no later step writes, so a caller may keep it;
    its `ut` and `lap` are to be read before the generator resumes (see
    _Etd4Flow and _HeatFlow).
    """
    steps = _row_steps(params.n_steps, stride)
    flow = _HeatFlow(u0, params, basis) if basis.m == 0 else _Etd4Flow(u0, params, basis)
    for r, step in enumerate(steps):
        while flow.steps < step:
            flow.advance()
        yield r, flow


def _chunks(u0: np.ndarray, params: LimitParams, basis: NoiseBasis):
    """Every step of the limit flow, as (velocity, stacks) of consecutive steps from step 0.

    The stacks are (u, u_t, A_h u, |u|_{H1}^2, defect), one entry per step.
    On the heat flow they are the flow's own `chunk`: step 0, then each
    refill, read where limit_rows stops every ROW_CHUNK steps, which is
    where a refill ends (a refill computes ROW_CHUNK steps, fewer only up
    to T); its defect is 0.  Reading the chunk spares the heat flow the
    copy of every step and the three stacks it goes into, which cost the
    benchmark's `limit` workload 1.8% of its wall time and 0.5 MB of its
    peak RSS on a 2-core x86_64 host.  ETDRK4 steps are read at stride 1
    and copied into stacks of ROW_CHUNK steps, which the next chunk
    overwrites (the flow overwrites u_t and A_h u at the next step).
    """
    if basis.m == 0:
        for _, flow in limit_rows(u0, params, basis, stride=ROW_CHUNK):
            yield flow.velocity, [*flow.chunk, np.zeros(len(flow.chunk[3]))]
        return
    n = params.n_steps
    u, ut, lap = (np.empty((ROW_CHUNK, 3, params.grid.n)) for _ in range(3))
    h1, defect = np.empty(ROW_CHUNK), np.empty(ROW_CHUNK)
    for k, flow in limit_rows(u0, params, basis):
        i = k % ROW_CHUNK
        u[i], ut[i], lap[i], h1[i], defect[i] = flow.u, flow.ut, flow.lap, flow.h1, flow.defect
        if i == ROW_CHUNK - 1 or k == n:
            # a list, not tuple() of a generator: that tuple is resized, not
            # taken from CPython's free list, but is kept on it when freed, so
            # one per chunk would hold up to 2,000 of them (160 kB)
            yield flow.velocity, [stack[:i + 1] for stack in (u, ut, lap, h1, defect)]


def solve_limit(u0: np.ndarray, params: LimitParams, basis: NoiseBasis, *,
                stride: int = 1) -> LimitTrajectory:
    """Run the limit flow to T, recording every `stride` steps plus the end.

    One path serves both flows, and it reads every step, a chunk of
    consecutive steps at a time (`_chunks`): the heat flow's own chunk of
    each refill, or ROW_CHUNK ETDRK4 steps copied into stacks.  Each chunk
    is folded into the rows it holds and dropped, so the solve's memory is
    bounded by the chunk and the rows, not by the step count.  One call of
    the velocity's `norm_sq` on a stack gives the steps' |u_t|_H^2, and on
    a chunk that holds rows their |A_h u|_H^2 and |u|_H^2, each with the
    bits it gets alone.  A row's projection defect is the largest over its
    steps since the previous row, carried across chunks as a running max,
    and the energy integral is `_RunningIntegral` over the |u_t|_H^2 of
    every step, extended by each chunk and started with the cubic through
    the first four.  At the auto step the trapezoid's first step reads
    4.5e-5 from the converged energy on the corrected flow at the defaults,
    against 2.3e-6 for the cubic and 5.3e-6 on every later row; on the heat
    flow, whose energy is exact, the cubic start keeps every row within
    1.2e-7 of it, where the trapezoid's first step reads 3.7e-6.
    """
    rows = np.array(output_rows(params.n_steps, stride))
    u_h1, u_h2, ut_h, residual, worst, energy_lhs = np.empty((6, len(rows)))
    integral = _RunningIntegral(params.dt)
    first = r = 0
    since = 0.0   # the worst defect of the steps since the last row
    for velocity, (u, ut, lap, h1, defect) in _chunks(u0, params, basis):
        ut_sq = velocity.norm_sq(ut)
        integrals = integral.extend(ut_sq)
        end = r + int(np.searchsorted(rows[r:], first + len(ut)))
        carried = np.concatenate(([since], defect))
        if end > r:   # the chunk holds rows r..end-1, at its steps `at`
            at, picked = rows[r:end] - first, slice(r, end)
            u_h1[picked] = np.sqrt(np.maximum(h1[at], 0.0))
            u_h2[picked] = np.sqrt(velocity.norm_sq(lap)[at])
            ut_h[picked] = np.sqrt(ut_sq[at])
            residual[picked] = np.abs(np.sqrt(velocity.norm_sq(u)[at]) - 1.0)
            energy_lhs[picked] = h1[at] + 2.0 * params.gamma * integrals[at]
            # each row's segment of [since, defects...] ends at its step
            worst[picked] = np.maximum.reduceat(carried[:at[-1] + 2],
                                                np.concatenate(([0], at[:-1] + 2)))
            carried = carried[at[-1] + 2:]
        since = carried.max(initial=0.0)
        first, r = first + len(ut), end
    return LimitTrajectory(params=params, t=np.multiply(rows, params.dt), u_h1=u_h1, u_h2=u_h2,
                           ut_h=ut_h, sphere_residual=residual, projection_defect=worst,
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

    The two flows advance in lockstep through `limit_rows` at stride 1;
    |v1-v2|_H^2 is kept for the steps of a chunk of ROW_CHUNK and
    integrated to fourth order, started with the cubic as solve_limit's
    energy, by one `_RunningIntegral` that each full chunk extends; the
    rows the chunk holds take their values, and the chunk is dropped.

    Fits log(LHS(t)) = log(c1 |du0|_{H1}^2) + c2 t by least squares; for
    identical initial data the series is identically zero and the fitted
    constants are NaN.
    """
    grid, n = params.grid, params.n_steps
    rows = np.array(output_rows(n, stride))
    dv_sq, dist, int_dv = np.empty(ROW_CHUNK), np.empty(len(rows)), np.empty(len(rows))
    integral = _RunningIntegral(params.dt)
    done = r = 0   # the rows with their integral, and with their distance
    for (k, f1), (_, f2) in zip(limit_rows(u10, params, basis), limit_rows(u20, params, basis)):
        i = k % ROW_CHUNK
        dv_sq[i] = norm_l2_sq(grid, f1.ut - f2.ut)
        if k == rows[r]:
            dist[r] = h1_seminorm_sq(grid, f1.u - f2.u)
            r += 1
        if i == ROW_CHUNK - 1 or k == n:
            int_dv[done:r] = integral.extend(dv_sq[:i + 1])[rows[done:r] - (k - i)]
            done = r

    t = np.multiply(rows, params.dt)
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
