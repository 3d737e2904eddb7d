"""Deterministic limit flow: mobility algebra, equivalence, structure."""

import math
import warnings
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

import spherewave as sw
from spherewave import config
from spherewave.fields import ROW_CHUNK, dst_ortho, output_rows
from spherewave.limit import (LimitParams, _Etd4Flow, _HeatFlow, _phi_functions, _RunningIntegral,
                              _Velocity, limit_rows)

RNG = np.random.default_rng(55)


@pytest.fixture(scope="module")
def grid():
    return sw.Grid1D(1.0, 127)


@pytest.fixture(scope="module")
def basis(grid):
    return sw.build_basis(grid, 16, 2.0)


@pytest.fixture(scope="module")
def silent(grid):
    # m = 0, phi = 0: the limit flow of this basis is the parabolic flow
    return sw.build_basis(grid, 0, 2.0)


@pytest.fixture(scope="module")
def params(grid):
    return LimitParams.auto(grid, 0.25, n_out=128)


def rk4_oracle(u0, params, basis, n_out):
    """Classical RK4 on limit_rhs, as the solver ran before the exponential
    stepper, under its diffusive bound 0.9 h^2 gamma / (2 (gamma + max phi / 2)).
    Returns u at n_out + 1 equally spaced times."""
    grid, gamma = params.grid, params.gamma
    phi_max = float(basis.phi.max())
    bound = 0.9 * grid.h ** 2 * gamma / (2.0 * (gamma + 0.5 * phi_max))
    n_steps = n_out * int(np.ceil(params.T / (bound * n_out)))
    rk = LimitParams(grid=grid, dt=params.T / n_steps, T=params.T, gamma=gamma)
    dt, stride = rk.dt, n_steps // n_out
    u = sw.normalize_sphere(grid, u0)
    out = [u]
    for k in range(1, n_steps + 1):
        k1 = sw.limit_rhs(u, basis, rk)
        k2 = sw.limit_rhs(u + 0.5 * dt * k1, basis, rk)
        k3 = sw.limit_rhs(u + 0.5 * dt * k2, basis, rk)
        k4 = sw.limit_rhs(u + dt * k3, basis, rk)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k % stride == 0:
            out.append(u)
    return np.array(out)


class ListIntegral:
    """The running fourth-order integral in lists; `_RunningIntegral` matches it bit for bit.

    `add` takes the next sample and `values` holds the value after each
    sample so far; the fourth sample rewrites the value after the second
    with the cubic start.
    """

    def __init__(self, dt):
        self.dt = dt
        self.values = []
        self._trapezoid = 0.0
        self._start = []
        self._end = []

    def add(self, f):
        if self._end:
            self._trapezoid += 0.5 * self.dt * (self._end[-1] + f)
        self._end = self._end[-2:] + [f]
        if len(self._start) < 3:
            self._start.append(f)
        if len(self._end) < 3:
            self.values.append(self._trapezoid)
            return
        f0, f1, f2 = self._start
        fn2, fn1, fn = self._end
        self.values.append(self._trapezoid - self.dt / 24.0
                           * (3.0 * (fn + f0) - 4.0 * (fn1 + f1) + fn2 + f2))
        if len(self.values) == 4:
            self.values[1] = self.dt / 24.0 * (9.0 * f0 + 19.0 * f1 - 5.0 * f2 + fn)


def _running_integral(samples, dt):
    """The value after each sample, from one `_RunningIntegral` extended once."""
    return _RunningIntegral(dt).extend(samples)


def etd4_oracle(u0, params, basis):
    """The projected ETDRK4 step composed from the public helpers, one state per step.

    Yields (u, ut, lap, h1, defect) after each step, starting from the
    projected initial field; a step result within sqrt(n) eps of u in
    H-norm leaves u where it is, with the step's defect.
    """
    grid, dt, gamma = params.grid, params.dt, params.gamma
    z = -sw.eigenvalues(grid) * (dt / gamma)
    decay, half_decay = np.exp(z), np.exp(0.5 * z)
    q = 0.5 * dt * _phi_functions(0.5 * z)[0]
    phi1, phi2, phi3 = _phi_functions(z)
    f1 = dt * (phi1 - 3.0 * phi2 + 4.0 * phi3)
    f2 = 2.0 * dt * (phi2 - 2.0 * phi3)
    f3 = dt * (4.0 * phi3 - phi2)
    still_sq = grid.n * np.finfo(float).eps ** 2

    def remainder(spectrum):
        # the spectrum of N(P x), given that of the stage x
        px = sw.normalize_sphere(grid, dst_ortho(spectrum))
        return dst_ortho(sw.limit_rhs(px, basis, params) - sw.laplacian(grid, px) / gamma)

    def state(u, defect):
        return (u, sw.limit_rhs(u, basis, params), sw.laplacian(grid, u),
                sw.h1_seminorm_sq(grid, u), defect)

    u, ut, lap, *_ = current = state(sw.normalize_sphere(grid, u0), 0.0)
    while True:
        yield current
        su, sn = dst_ortho(u), dst_ortho(ut - lap / gamma)
        half_u = half_decay * su
        sa = half_u + q * sn
        sna = remainder(sa)
        snb = remainder(half_u + q * sna)
        snc = remainder(half_decay * sa + q * (2.0 * snb - sn))
        u_star = dst_ortho(decay * su + f1 * sn + f2 * (sna + snb) + f3 * snc)
        nrm = sw.norm_l2(grid, u_star)
        u_next = u_star / nrm
        if sw.norm_l2_sq(grid, u_next - u) > still_sq:
            u = u_next
        u, ut, lap, *_ = current = state(u, abs(nrm - 1.0))


def comparison_oracle(u10, u20, params, basis, stride):
    """comparison_experiment's series and fit, its two flows stepped by hand in lockstep.

    Returns (t, dist_h1_sq, int_dv_sq, lhs, c1, c2).
    """
    grid, rows = params.grid, output_rows(params.n_steps, stride)
    flow = _HeatFlow if basis.m == 0 else _Etd4Flow   # the flow limit_rows builds
    f1, f2 = flow(u10, params, basis), flow(u20, params, basis)
    quadrature = ListIntegral(params.dt)
    quadrature.add(sw.norm_l2_sq(grid, f1.ut - f2.ut))
    t, dist = [0.0], [sw.h1_seminorm_sq(grid, f1.u - f2.u)]
    for row in rows[1:]:
        while f1.steps < row:
            f1.advance()
            f2.advance()
            quadrature.add(sw.norm_l2_sq(grid, f1.ut - f2.ut))
        t.append(f1.steps * params.dt)
        dist.append(sw.h1_seminorm_sq(grid, f1.u - f2.u))
    t, dist, int_dv = np.array(t), np.array(dist), np.array(quadrature.values)[rows]
    lhs = dist + int_dv
    slope, intercept = np.polyfit(t, np.log(lhs), 1)
    return t, dist, int_dv, lhs, float(np.exp(intercept) / dist[0]), float(slope)


# each limit flow on the bases it runs on: ETDRK4 on any basis, the exact heat
# flow on the silent one, where limit_rows builds it
FLOWS = [(_Etd4Flow, 8), (_Etd4Flow, 0), (_HeatFlow, 0)]
FLOW_IDS = ["corrected", "parabolic", "heat"]


def random_field(grid, rng=RNG):
    return rng.standard_normal((3, grid.n))


def smooth_perturbation(grid, rng):
    modes = [(k, d, rng.standard_normal()) for k in range(1, 9) for d in (1, 2, 3)]
    w = sw.field_from_modes(grid, modes)
    return w / sw.norm_l2(grid, w)


class TestMobility:
    def test_zero_kernel(self, grid):
        u, r = random_field(grid), random_field(grid)
        out = sw.mobility_apply_inverse(u, np.zeros(grid.n), 2.0, r)
        assert np.allclose(out, r / 2.0)

    def test_field_direction_eigenvalue(self, grid):
        # M u = gamma u, hence M^{-1} u = u / gamma, for any phi
        u = random_field(grid)
        phi = 10.0 * RNG.random(grid.n)
        out = sw.mobility_apply_inverse(u, phi, 3.0, u)
        assert np.abs(out - u / 3.0).max() <= 1e-13 * (1 + np.abs(u).max())

    def test_multiply_back(self, grid):
        for _ in range(100):
            u, r = random_field(grid), random_field(grid)
            phi = 10.0 * RNG.random(grid.n)
            gamma = 0.5 + 2.0 * RNG.random()
            x = sw.mobility_apply_inverse(u, phi, gamma, r)
            uu = np.einsum("ij,ij->j", u, u)
            ux = np.einsum("ij,ij->j", u, x)
            back = (gamma + 0.5 * phi * uu) * x - 0.5 * phi * ux * u
            assert np.abs(back - r).max() <= 1e-13 * (1 + np.abs(r).max())


class TestLimitRhs:
    def test_eigenfield_equilibrium(self, grid, basis, params):
        # zero up to node-coordinate roundoff amplified by the stencil
        for k in (1, 2, 5):
            u = sw.normalize_sphere(grid, sw.sine_field(grid, k, 1))
            rhs = sw.limit_rhs(u, basis, params)
            assert sw.norm_l2(grid, rhs) <= 2e-15 / grid.h ** 2

    def test_rhs_is_the_public_mobility_solve(self, grid, basis, silent):
        # limit_rhs reads the basis's phi row; alternating the basis and
        # gamma must give each flow the public solve of its own phi and gamma,
        # the silent basis's r / gamma shortcut included, bit for bit
        other = sw.build_basis(grid, 4, 3.0)
        u = sw.normalize_sphere(grid, random_field(grid))
        lap = sw.laplacian(grid, u)
        r = lap + sw.h1_seminorm_sq(grid, u) * u
        for _ in range(2):
            for b in (basis, other, silent):
                for gamma in (1.0, 2.5):
                    p = LimitParams.auto(grid, 0.25, gamma=gamma, n_out=128)
                    assert np.array_equal(sw.limit_rhs(u, b, p),
                                          sw.mobility_apply_inverse(u, b.phi, gamma, r))

    def test_stack_is_each_field(self, grid, basis, silent, params):
        # the velocity kernel on a stack (K, 3, n) gives each field the bits
        # it gets alone, on the corrected and on the silent basis
        stack = RNG.standard_normal((5, 3, grid.n))
        for b in (basis, silent):
            velocity = _Velocity(params, b)
            ut, lap = np.empty(stack.shape), np.empty(stack.shape)
            h1 = velocity.into(stack, ut, lap)
            ut_sq = velocity.norm_sq(ut)
            assert h1.shape == ut_sq.shape == (5,)
            for j, u in enumerate(stack):
                assert np.array_equal(ut[j], sw.limit_rhs(u, b, params))
                assert np.array_equal(lap[j], sw.laplacian(grid, u))
                assert h1[j] == sw.h1_seminorm_sq(grid, u)
                assert ut_sq[j] == sw.norm_l2_sq(grid, ut[j])

    def test_zero_field_rejected(self, grid, basis, params):
        with pytest.raises(sw.DegenerateFieldError):
            sw.limit_rhs(sw.zero_field(grid), basis, params)

    def test_sphere_invariance_generator(self, grid, basis):
        # <u, du/dt> = |u|_{H1}^2 (|u|_H^2 - 1) / gamma, exactly in the algebra
        for gamma in (1.0, 2.5):
            p = LimitParams.auto(grid, 0.25, gamma=gamma, n_out=128)
            for _ in range(30):
                u = 0.7 * random_field(grid)
                lhs = sw.inner_l2(grid, u, sw.limit_rhs(u, basis, p))
                rhs = sw.h1_seminorm_sq(grid, u) * (sw.norm_l2_sq(grid, u) - 1.0) / gamma
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestFormulationEquivalence:
    def test_mobility_velocity_cancels(self, grid, basis, params):
        for _ in range(100):
            u = sw.normalize_sphere(grid, random_field(grid))
            resid = sw.explicit_form_residual(u, sw.limit_rhs(u, basis, params), basis, params)
            assert resid <= 1e-10 * (1.0 + sw.h2_norm_sq(grid, u))

    def test_equilibrium_both_sides_vanish(self, grid, basis, params):
        u = sw.normalize_sphere(grid, sw.sine_field(grid, 2, 2))
        assert sw.explicit_form_residual(u, sw.zero_field(grid), basis, params) <= 1e-10

    def test_linear_in_velocity_perturbation(self, grid, basis, params):
        u = sw.normalize_sphere(grid, random_field(grid))
        ut = sw.limit_rhs(u, basis, params)
        w = sw.normalize_sphere(grid, random_field(grid))
        r1 = sw.explicit_form_residual(u, ut + 1e-3 * w, basis, params)
        r2 = sw.explicit_form_residual(u, ut + 2e-3 * w, basis, params)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-6)


class TestSolveLimit:
    def test_eigenfield_is_stationary(self, grid, basis):
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 3))
        p = LimitParams.auto(grid, 1.0, n_out=128)
        traj = sw.solve_limit(u0, p, basis, stride=p.n_steps // 128)
        states = [flow.u for _, flow in limit_rows(u0, p, basis, stride=p.n_steps // 128)]
        assert np.abs(states[-1] - u0).max() <= 1e-10
        assert traj.ut_h.max() <= 1e-10

    def test_sphere_residual_small_and_energy_inequality(self, grid, basis, silent):
        # every step is projected, so the recorded states sit on the sphere;
        # the parabolic flow (the silent basis) has no dissipative slack, so
        # its energy rows hold only at a step the auto rule resolves
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                 + sw.sine_field(grid, 2, 2, 0.1))
        for b in (basis, silent):
            p = LimitParams.auto(grid, 0.5, n_out=128)
            traj = sw.solve_limit(u0, p, b, stride=p.n_steps // 128)
            assert traj.sphere_residual.max() <= 1e-13
            assert np.all(traj.energy_lhs <= traj.energy_rhs * (1.0 + 1e-6))

    def test_step_rule_is_set_by_the_energy_quadrature(self, grid, silent):
        # the parabolic flow (the silent basis) has no dissipative slack and
        # is solved exactly in time, so its energy rows measure the quadrature
        # of |u_t|^2 alone: with the default initial data they hold at the
        # auto step (1.2e-7) and fail at twice it (1.8e-6), and the plain
        # trapezoid fails them at the auto step (3.3e-5)
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                 + sw.sine_field(grid, 2, 2, 0.1))
        auto = LimitParams.auto(grid, 0.5, n_out=4)
        coarse_params = LimitParams(grid=grid, dt=2.0 * auto.dt, T=0.5)
        fine, coarse = (sw.solve_limit(u0, p, silent)
                        for p in (auto, coarse_params))

        def worst(energy_lhs, traj):
            return (energy_lhs / traj.energy_rhs - 1.0).max()

        assert worst(fine.energy_lhs, fine) <= 1e-6
        assert worst(coarse.energy_lhs, coarse) > 1e-6
        ut_sq = fine.ut_h ** 2
        trapezoid = np.concatenate(
            [[0.0], np.cumsum(0.5 * auto.dt * (ut_sq[1:] + ut_sq[:-1]))])
        assert worst(fine.u_h1 ** 2 + 2.0 * auto.gamma * trapezoid, fine) > 1e-6

    @pytest.mark.parametrize("raw", [{}, {"grid": {"n": 63}, "physics": {"gamma": 0.7}}],
                             ids=["defaults", "n63-gamma0.7"])
    def test_parabolic_energy_column_is_exact_to_the_quadrature(self, raw):
        # on the normalised heat flow 2 gamma int_0^t |u_t|^2 = h1(0) - h1(t)
        # holds exactly, so every row's energy_lhs / energy_rhs - 1 is the
        # quadrature's error alone, pinned here from both sides: 1.2e-7 in
        # both cases at the auto step (the trapezoid start reads 3.7e-6)
        cfg = config.resolve_config(raw)
        g = config.build_grid(cfg)
        u0, _ = config.initial_fields_from(cfg, g)
        traj = sw.solve_limit(u0, config.limit_params_from(cfg, g),
                              sw.build_basis(g, 0, cfg["noise"]["p"]))
        assert np.abs(traj.energy_lhs / traj.energy_rhs - 1.0).max() <= 2.5e-7

    def test_h1_norm_nonincreasing(self, grid, basis):
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                 + sw.sine_field(grid, 3, 2, 0.2))
        p = LimitParams.auto(grid, 0.5, n_out=128)
        traj = sw.solve_limit(u0, p, basis, stride=p.n_steps // 128)
        h1_sq = traj.u_h1 ** 2
        assert np.all(np.diff(h1_sq) <= 1e-8 * h1_sq[0])

    def test_projection_defect_resolves_the_step(self, grid, basis):
        # the defect before projection is the step's normal local error:
        # nonzero at the default step and about 400x larger at 4x the step
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                 + sw.sine_field(grid, 2, 2, 0.1))
        fine = LimitParams.auto(grid, 1.0, n_out=4)   # 4 | n_steps, so 4 dt divides T
        coarse = LimitParams(grid=grid, dt=4.0 * fine.dt, T=1.0)
        d_fine, d_coarse = (
            sw.solve_limit(u0, p, basis, stride=p.n_steps)
            .projection_defect for p in (fine, coarse))
        assert d_fine[0] == 0.0 and d_fine[-1] > 0.0
        assert d_coarse[-1] > 20.0 * d_fine[-1]

    def test_rough_initial_data_rejected(self):
        # on a short interval white noise has |A_h u0|_H of about 1e8
        grid = sw.Grid1D(0.01, 127)
        rough = random_field(grid)
        basis = sw.build_basis(grid, 8, 2.0)
        p = LimitParams.auto(grid, 1e-6, n_out=1)
        with pytest.raises(sw.ParameterError, match="too rough"):
            sw.solve_limit(rough, p, basis)

    def test_coarse_step_stays_stable(self, grid, basis):
        # 100x the diffusive bound h^2 gamma / (2 (gamma + max phi / 2)) that
        # explicit RK4 needed: no step bound applies to the exponential stepper
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                 + sw.sine_field(grid, 3, 2, 0.2))
        explicit_bound = grid.h ** 2 / (2.0 * (1.0 + 0.5 * basis.phi.max()))
        T = 0.5
        p = LimitParams(grid=grid, dt=T / int(T / (100.0 * explicit_bound)), T=T)
        assert p.dt >= 100.0 * explicit_bound
        traj = sw.solve_limit(u0, p, basis)
        assert np.isfinite(traj.u_h2).all()
        assert traj.sphere_residual.max() <= 1e-13
        h1_sq = traj.u_h1 ** 2
        assert np.all(np.diff(h1_sq) <= 1e-12 * h1_sq[0])

    @pytest.mark.parametrize("other", [sw.Grid1D(2.0, 127), sw.Grid1D(1.0, 63)],
                             ids=["length", "nodes"])
    def test_basis_on_another_grid_rejected(self, grid, other):
        # a basis sampled on another domain would silently bend the flow, and
        # one with another node count would fail inside numpy broadcasting;
        # the solver, the flow's velocity and the residual oracle all refuse it
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1))
        p = LimitParams.auto(grid, 0.01, n_out=1)
        calls = (lambda b: sw.solve_limit(u0, p, b),
                 lambda b: sw.limit_rhs(u0, b, p),
                 lambda b: sw.explicit_form_residual(u0, u0, b, p))
        for m in (8, 4, 0):
            for call in calls:
                with pytest.raises(sw.ShapeError, match="different grids"):
                    call(sw.build_basis(other, m, 2.0))

    def test_final_time_must_be_reached(self, grid):
        with pytest.raises(sw.ParameterError, match=r"dt=0\.0007.*T=1\.0.*t=1\.0003"):
            LimitParams(grid=grid, dt=7e-4, T=1.0)
        assert LimitParams(grid=grid, dt=1e-3, T=1.0).n_steps == 1000

    def test_matches_rk4_oracle(self):
        # sup-in-time H1 distance to the explicit RK4 solution of the
        # corrected flow and of the parabolic one (the silent basis)
        g = sw.Grid1D(1.0, 63)
        u0 = sw.normalize_sphere(g, sw.sine_field(g, 1, 1)
                                 + sw.sine_field(g, 2, 2, 0.1))
        for b in (sw.build_basis(g, 16, 2.0), sw.build_basis(g, 0, 2.0)):
            p = LimitParams.auto(g, 0.25, n_out=64)
            states = [flow.u for _, flow in limit_rows(u0, p, b, stride=p.n_steps // 64)]
            ref = rk4_oracle(u0, p, b, 64)
            err = max(sw.sobolev_norm(g, a - r, 1.0) for a, r in zip(states, ref))
            assert err <= 1e-3

    def test_default_rule_is_as_accurate_as_etdrk2_was(self):
        # at the CLI defaults (n = 127, m = 16, T = 1, 494 steps) the sup-in-time
        # H1 error of the corrected flow against ETDRK4 at 4x the steps reads
        # 1.0e-6; ETDRK2 at 1,974 steps, the rule it replaced, read 1.4e-5
        cfg = config.resolve_config({})
        g = config.build_grid(cfg)
        b = config.build_noise_basis(cfg, g)
        u0, _ = config.initial_fields_from(cfg, g)
        p = config.limit_params_from(cfg, g)
        fine = replace(p, dt=0.25 * p.dt)
        states = [flow.u for _, flow in limit_rows(u0, p, b)]
        ref = [flow.u for _, flow in limit_rows(u0, fine, b, stride=4)]
        assert p.n_steps == 494 and len(states) == len(ref)
        assert max(sw.sobolev_norm(g, a - r, 1.0) for a, r in zip(states, ref)) <= 1.3e-5

    @pytest.mark.parametrize("n", [63, 127])
    @pytest.mark.parametrize("gamma", [1.0, 0.7])
    def test_parabolic_flow_is_the_normalised_heat_flow(self, n, gamma):
        # on the silent basis the flow is e^{t A_h / gamma} u0 at unit H-norm:
        # limit_rows solves it to roundoff at every row, and ETDRK4 built on
        # the same basis converges to it at fourth order (the gap falls 15.9x
        # per halving of the step at n = 63 and 127, gamma = 1 and 0.7)
        g = sw.Grid1D(1.0, n)
        u0 = sw.normalize_sphere(g, sw.sine_field(g, 1, 1) + sw.sine_field(g, 2, 2, 0.1)
                                 + sw.sine_field(g, 5, 3, 0.3))
        silent = sw.build_basis(g, 0, 2.0)
        spectrum = dst_ortho(u0)

        def gap(u, t):
            exact = sw.normalize_sphere(
                g, dst_ortho(np.exp(-sw.eigenvalues(g) * t / gamma) * spectrum))
            return sw.sobolev_norm(g, u - exact, 1.0)

        params = LimitParams.auto(g, 0.5, gamma=gamma, n_out=4)
        assert max(gap(flow.u, flow.steps * params.dt)
                   for _, flow in limit_rows(u0, params, silent)) <= 1e-13

        etd4 = []
        for p in (params, replace(params, dt=0.5 * params.dt)):
            flow = _Etd4Flow(u0, p, silent)
            worst = 0.0
            while flow.steps < p.n_steps:
                flow.advance()
                worst = max(worst, gap(flow.u, flow.steps * p.dt))
            etd4.append(worst)
        assert etd4[1] < etd4[0] <= 1e-3
        assert 14.0 <= etd4[0] / etd4[1] <= 18.0

    def test_memory_does_not_grow_with_the_steps(self, traced_peak):
        # solve_limit folds each chunk of steps into its rows and drops it: at
        # one row per run, 10x the steps peak within 10% of the traced bytes
        g = sw.Grid1D(1.0, 15)
        u0 = sw.normalize_sphere(g, sw.sine_field(g, 1, 1) + sw.sine_field(g, 2, 2, 0.1))
        silent = sw.build_basis(g, 0, 2.0)

        def run(n_steps):
            params = LimitParams(grid=g, dt=1.0 / n_steps, T=1.0)
            return lambda: sw.solve_limit(u0, params, silent, stride=n_steps)

        run(10 ** 3)()   # first calls fill caches
        short, long = traced_peak(run(10 ** 4)), traced_peak(run(10 ** 5))
        assert long <= 1.1 * short, (short, long)

    def test_corrected_memory_does_not_grow_with_the_steps(self, traced_peak):
        # the ETDRK4 flow makes new stacks for each chunk of steps, and
        # solve_limit drops each chunk once it is folded: as for the heat
        # flow, 10x the steps peak within 10% of the traced bytes
        g = sw.Grid1D(1.0, 15)
        u0 = sw.normalize_sphere(g, sw.sine_field(g, 1, 1) + sw.sine_field(g, 2, 2, 0.1))
        basis = sw.build_basis(g, 8, 2.0)

        def run(n_steps):
            params = LimitParams(grid=g, dt=1.0 / n_steps, T=1.0)
            return lambda: sw.solve_limit(u0, params, basis, stride=n_steps)

        run(100)()   # first calls fill caches
        short, long = traced_peak(run(150)), traced_peak(run(1500))
        assert long <= 1.1 * short, (short, long)


class TestPhiFunctions:
    """The contour means of `_phi_functions` against the direct formulas and the Taylor series."""

    @staticmethod
    def direct(z):
        em1 = np.expm1(z)
        return em1 / z, (em1 - z) / z ** 2, (em1 - z - 0.5 * z ** 2) / z ** 3

    def test_direct_formulas_away_from_zero(self):
        # the grid's largest lambda dt / gamma at the default rule, about 133, and
        # moderate z where the direct formulas lose at most a few digits
        g = sw.Grid1D(1.0, 127)
        p = LimitParams.auto(g, 1.0, n_out=1)
        z = np.array([-sw.eigenvalues(g)[-1] * p.dt / p.gamma, -20.0, -3.0, -1.0, 1.0])
        assert z[0] < -100.0
        for got, want in zip(_phi_functions(z), self.direct(z)):
            assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_taylor_series_near_zero(self):
        # phi_k(z) = sum_j z^j / (j + k)!; the direct formulas cancel here
        z = np.array([-1e-8, 0.0])
        for k, got in enumerate(_phi_functions(z), start=1):
            series = sum(z ** j / math.factorial(j + k) for j in range(4))
            assert np.allclose(got, series, rtol=1e-14, atol=0.0)


class TestEtd2Step:
    """Steps of `_Etd4Flow`, projected ETDRK4; the class keeps the name of the
    ETDRK2 flow it replaced, so the ids of its tests stay."""

    @pytest.mark.parametrize("m, n", [(8, 63), (0, 63), (8, 127), (0, 127)],
                             ids=["corrected", "parabolic", "corrected-127", "parabolic-127"])
    @pytest.mark.parametrize("gamma", [1.0, 0.7])
    def test_step_is_the_composed_oracle(self, m, n, gamma):
        # the flow's cached kernel takes the same float operations in the
        # same order as the public helpers, so every state agrees bit for bit;
        # n = 127 is the grid of the CLI's limit run
        g = sw.Grid1D(1.0, n)
        u0 = sw.normalize_sphere(g, sw.sine_field(g, 1, 1) + sw.sine_field(g, 2, 2, 0.1)
                                 + sw.sine_field(g, 5, 3, 0.3))
        basis = sw.build_basis(g, m, 2.0)
        params = LimitParams.auto(g, 0.5, gamma=gamma, n_out=4)
        flow = _Etd4Flow(u0, params, basis)
        oracle = etd4_oracle(u0, params, basis)
        for step in range(301):
            if step:
                flow.advance()
            u, ut, lap, h1, defect = next(oracle)
            assert flow.steps == step
            assert np.array_equal(flow.u, u) and np.array_equal(flow.ut, ut)
            assert np.array_equal(flow.lap, lap)
            assert flow.h1 == h1 and flow.defect == defect

    @pytest.mark.parametrize("m", [16, 0], ids=["corrected", "parabolic"])
    def test_an_equilibrium_stays(self, m):
        # the mode-3 eigenfield at n = 127 is unstable: every step is taken and
        # moves it by rounding alone, so the flow stays there bit for bit, as
        # the oracle does; a mode-1 departure of 1e-13 (about 300 eps in
        # H-norm) moves more than that and leaves it for the ground state
        g = sw.Grid1D(1.0, 127)
        basis = sw.build_basis(g, m, 2.0)
        params = LimitParams.auto(g, 0.5, n_out=4)
        u0 = sw.normalize_sphere(g, sw.sine_field(g, 3, 2))
        oracle = etd4_oracle(u0, params, basis)
        flow = _Etd4Flow(u0, params, basis)
        for step in range(params.n_steps + 1):
            if step:
                flow.advance()
            u, ut, lap, h1, defect = next(oracle)
            assert np.array_equal(flow.u, u0) and np.array_equal(flow.u, u)
            assert np.array_equal(flow.ut, ut) and flow.h1 == h1 and flow.defect == defect
        flow = _Etd4Flow(sw.normalize_sphere(g, u0 + 1e-13 * sw.sine_field(g, 1, 2)), params, basis)
        while flow.steps < params.n_steps:
            flow.advance()
        assert abs(math.sqrt(flow.h1) - math.sqrt(sw.eigenvalue(g, 1))) <= 1e-3

    @staticmethod
    def flow(grid, basis, flow_class=_Etd4Flow, steps=3):
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1) + sw.sine_field(grid, 2, 2, 0.1))
        flow = flow_class(u0, LimitParams.auto(grid, 0.5, n_out=4), basis)
        for _ in range(steps):
            flow.advance()
        return flow

    @pytest.mark.parametrize("flow_class, m", FLOWS, ids=FLOW_IDS)
    def test_handed_out_states_keep_their_values(self, flow_class, m):
        # the flow steps on buffers it owns, but every state it hands out,
        # through limit_rows or as flow.u, flow.ut and flow.lap, is an array
        # that later steps leave alone
        g = sw.Grid1D(1.0, 63)
        basis = sw.build_basis(g, m, 2.0)
        params = LimitParams.auto(g, 0.5, n_out=4)
        u0 = sw.normalize_sphere(g, sw.sine_field(g, 1, 1) + sw.sine_field(g, 2, 2, 0.1))

        def hold(flow):
            return [(a, a.copy()) for a in (flow.u, flow.ut, flow.lap)]

        rows = [hold(flow) for _, flow in limit_rows(u0, params, basis,
                                                     stride=params.n_steps // 4)]
        flow = flow_class(u0, params, basis)
        held = [hold(flow)]
        for _ in range(3):
            flow.advance()
            held.append(hold(flow))
        for states in (rows, held):
            assert not np.array_equal(states[0][0][1], states[-1][0][1])
            assert all(np.array_equal(a, kept) for state in states for a, kept in state)

    @pytest.mark.parametrize("flow_class, m", FLOWS, ids=FLOW_IDS)
    def test_non_finite_state_is_a_blow_up(self, flow_class, m):
        # the next step reads the state: _Etd4Flow's field after any step, and
        # _HeatFlow's spectrum once it has handed out its chunk of steps
        g = sw.Grid1D(1.0, 63)
        steps = ROW_CHUNK if flow_class is _HeatFlow else 3
        flow = self.flow(g, sw.build_basis(g, m, 2.0), flow_class, steps)
        name = "_spectrum" if flow_class is _HeatFlow else "u"
        state = getattr(flow, name).copy()
        state[1, 10] = np.nan
        setattr(flow, name, state)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sw.BlowUpError) as info:
                flow.advance()
        assert info.value.step == flow.steps + 1 == steps + 1

    def test_non_finite_step_in_mid_chunk(self):
        # a NaN in the tenth power row makes the tenth field of every chunk
        # non-finite: limit_rows yields the nine rows before it, as the flow
        # left alone computes them, and the advance that reaches it raises,
        # and raises again if called again
        g = sw.Grid1D(1.0, 63)
        silent = sw.build_basis(g, 0, 2.0)
        params = LimitParams.auto(g, 0.5, n_out=4)
        u0 = sw.normalize_sphere(g, sw.sine_field(g, 1, 1) + sw.sine_field(g, 2, 2, 0.1))
        clean = [flow.u for _, flow in islice(limit_rows(u0, params, silent), 10)]
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sw.BlowUpError) as info:
                for r, flow in limit_rows(u0, params, silent):
                    if r == 0:
                        flow._powers[9, 5] = np.nan
                    seen.append((r, flow.u))
            assert info.value.step == 10
            with pytest.raises(sw.BlowUpError) as again:
                flow.advance()
        assert again.value.step == 10 and flow.steps == 9
        assert [r for r, _ in seen] == list(range(10))
        assert all(np.array_equal(u, want) for (_, u), want in zip(seen, clean))
        # at stride 7 the jump from row 7 to row 14 crosses step 10: the flow
        # stops at step 9 and raises there, and rows 0 and 7 keep their bits
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sw.BlowUpError) as info:
                for r, flow in limit_rows(u0, params, silent, stride=7):
                    if r == 0:
                        flow._powers[9, 5] = np.nan
                    seen.append((flow.steps, flow.u))
        assert info.value.step == 10 and flow.steps == 9
        assert [k for k, _ in seen] == [0, 7]
        assert all(np.array_equal(u, clean[k]) for k, u in seen)

    @pytest.mark.parametrize("flow_class, m", FLOWS, ids=FLOW_IDS)
    def test_initial_field_is_repaired_or_refused(self, flow_class, m):
        # both flows start from _repair_initial: a field off the sphere is
        # rescaled onto it, and a zero or over-rough one is refused
        g = sw.Grid1D(1.0, 63)
        basis = sw.build_basis(g, m, 2.0)
        params = LimitParams.auto(g, 0.5, n_out=4)
        u0 = sw.sine_field(g, 1, 1) + sw.sine_field(g, 2, 2, 0.1)
        assert np.array_equal(flow_class(3.0 * u0, params, basis).u, sw.normalize_sphere(g, 3.0 * u0))
        with pytest.raises(sw.DegenerateFieldError):
            flow_class(sw.zero_field(g), params, basis)
        short = sw.Grid1D(0.01, 127)
        with pytest.raises(sw.ParameterError, match="too rough"):
            short_basis = sw.build_basis(short, m, 2.0)
            flow_class(random_field(short), LimitParams.auto(short, 1e-6, n_out=1),
                       short_basis)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("flow_class, m", FLOWS, ids=FLOW_IDS)
    def test_non_finite_field_refused(self, flow_class, m, bad):
        # a NaN or inf node is bad input, refused by name before any division
        # warns: not a blow-up at step 1, and not a non-finite velocity
        g = sw.Grid1D(1.0, 63)
        basis = sw.build_basis(g, m, 2.0)
        params = LimitParams.auto(g, 0.5, n_out=4)
        u0 = sw.sine_field(g, 1, 1) + sw.sine_field(g, 2, 2, 0.1)
        u0[0, 5] = bad
        calls = {"initial field u0": (lambda: flow_class(u0, params, basis),
                                      lambda: sw.solve_limit(u0, params, basis)),
                 "field u": (lambda: sw.limit_rhs(u0, basis, params),)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, each in calls.items():
                for call in each:
                    with pytest.raises(sw.ParameterError,
                                       match=f"{name} is not finite: {bad} at component 0, node 5"):
                        call()

    @pytest.mark.parametrize("m", [8, 0], ids=["corrected", "parabolic"])
    def test_zero_stage_is_degenerate(self, m):
        g = sw.Grid1D(1.0, 63)
        flow = self.flow(g, sw.build_basis(g, m, 2.0))
        flow.u, flow.ut, flow.lap = (sw.zero_field(g) for _ in range(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sw.DegenerateFieldError):
                flow.advance()


def heat_gap(grid, u0, gamma):
    """H1 distance of a state at time t to the normalised heat flow of u0: a function (u, t).

    The closed form normalize(e^{t A_h / gamma} u0), its decay taken
    relative to the slowest sine mode so that no mode of it underflows first.
    """
    spectrum = dst_ortho(sw.normalize_sphere(grid, u0))
    lam = sw.eigenvalues(grid)

    def gap(u, t):
        exact = sw.normalize_sphere(grid, dst_ortho(np.exp(-(lam - lam[0]) * t / gamma)
                                                    * spectrum))
        return sw.sobolev_norm(grid, u - exact, 1.0)

    return gap


class TestHeatChunks:
    """The exact heat flow hands out ROW_CHUNK steps per refill: its chunk edges are invisible."""

    GRID = sw.Grid1D(1.0, 63)

    @classmethod
    def setup(cls, n_steps, gamma=1.0, dt=5e-4):
        g = cls.GRID
        u0 = sw.normalize_sphere(g, sw.sine_field(g, 1, 1) + sw.sine_field(g, 2, 2, 0.1)
                                 + sw.sine_field(g, 5, 3, 0.3))
        return u0, LimitParams(grid=g, dt=dt, T=n_steps * dt, gamma=gamma), sw.build_basis(g, 0, 2.0)

    @pytest.mark.parametrize("n_steps", [ROW_CHUNK - 24, 2 * ROW_CHUNK, 2 * ROW_CHUNK + 22],
                             ids=["below", "multiple", "tail"])
    @pytest.mark.parametrize("gamma", [1.0, 0.7])
    def test_every_step_is_the_closed_form(self, n_steps, gamma):
        u0, params, silent = self.setup(n_steps, gamma)
        gap = heat_gap(self.GRID, u0, gamma)
        steps = [(flow.steps, gap(flow.u, flow.steps * params.dt))
                 for _, flow in limit_rows(u0, params, silent)]
        assert [k for k, _ in steps] == list(range(n_steps + 1))
        assert max(g for _, g in steps) <= 1e-13

    def test_strides_share_their_steps_bit_for_bit(self):
        # a stride jumps through the chunk by index, and 100 and n_steps - 1
        # jump across refills
        u0, params, silent = self.setup(2 * ROW_CHUNK + 22)
        every = {flow.steps: (flow.u, flow.ut, flow.lap, flow.h1)
                 for _, flow in limit_rows(u0, params, silent)}
        for stride in (8, 7, 100, params.n_steps - 1):
            strided = [(flow.steps, flow.u, flow.ut, flow.lap, flow.h1)
                       for _, flow in limit_rows(u0, params, silent, stride=stride)]
            assert [k for k, *_ in strided] == output_rows(params.n_steps, stride)
            for k, *state in strided:
                assert all(np.array_equal(a, b) for a, b in zip(state, every[k])), (stride, k)

    def test_every_step_is_the_public_helpers(self):
        # each field of a refill's stack gets the bits of the field helpers on it alone
        g = self.GRID
        u0, params, silent = self.setup(2 * ROW_CHUNK + 22, gamma=0.7)
        for _, flow in limit_rows(u0, params, silent):
            u = flow.u
            assert np.array_equal(flow.ut, sw.limit_rhs(u, silent, params))
            assert np.array_equal(flow.lap, sw.laplacian(g, u))
            assert flow.h1 == sw.h1_seminorm_sq(g, u)

    def test_steps_past_the_range_of_raw_powers(self):
        # dt lambda_1 / gamma = 12: e^{64 z} of the slowest mode, about e^-768,
        # underflows to 0, so the powers must be taken relative to that mode
        gamma = 0.7
        dt = 12.0 * gamma / sw.eigenvalue(self.GRID, 1)
        u0, params, silent = self.setup(2 * ROW_CHUNK + 22, gamma, dt)
        gap = heat_gap(self.GRID, u0, gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gaps = [gap(flow.u, flow.steps * dt) for _, flow in limit_rows(u0, params, silent)]
        assert len(gaps) == params.n_steps + 1 and max(gaps) <= 1e-13


class TestRowReads:
    """solve_limit reads every step ROW_CHUNK at a time, then picks its rows: a per-step read's bits."""

    GRID = sw.Grid1D(1.0, 63)
    COLUMNS = ("t", "u_h1", "u_h2", "ut_h", "sphere_residual", "projection_defect", "energy_lhs")

    @classmethod
    def setup(cls, n_steps, m):
        g = cls.GRID
        u0 = sw.normalize_sphere(g, sw.sine_field(g, 1, 1) + sw.sine_field(g, 2, 2, 0.1)
                                 + sw.sine_field(g, 5, 3, 0.3))
        params = LimitParams(grid=g, dt=5e-4, T=n_steps * 5e-4, gamma=0.7)
        return u0, params, sw.build_basis(g, m, 2.0)

    @staticmethod
    def per_step_reads(u0, params, basis):
        """The COLUMNS at every step, read one field at a time from limit_rows at stride 1.

        The integral is the list form over |u_t|_H^2 of every step, and
        the defect is the step's own.
        """
        g = params.grid
        quadrature, steps, h1 = ListIntegral(params.dt), [], []
        for _, flow in limit_rows(u0, params, basis):
            ut_sq = sw.norm_l2_sq(g, flow.ut)
            quadrature.add(ut_sq)
            h1.append(flow.h1)
            steps.append((flow.steps * params.dt, math.sqrt(max(flow.h1, 0.0)),
                          math.sqrt(sw.norm_l2_sq(g, flow.lap)), math.sqrt(ut_sq),
                          abs(sw.norm_l2(g, flow.u) - 1.0), flow.defect))
        energy = [e + 2.0 * params.gamma * q for e, q in zip(h1, quadrature.values)]
        return np.column_stack([np.array(steps), energy])

    @pytest.mark.parametrize("n_steps, stride", [
        (ROW_CHUNK - 24, 1), (2 * ROW_CHUNK - 1, 1), (2 * ROW_CHUNK + 22, 1),
        (7 * ROW_CHUNK + 3, 7), (7 * ROW_CHUNK + 3, 1), (7 * ROW_CHUNK + 3, 5000)],
        ids=["below", "two-chunks", "tail", "stride", "long", "past-the-end"])
    @pytest.mark.parametrize("m", [0, 16], ids=["parabolic", "corrected"])
    def test_columns_are_the_per_row_reads(self, n_steps, stride, m):
        u0, params, basis = self.setup(n_steps, m)
        traj = sw.solve_limit(u0, params, basis, stride=stride)
        steps = self.per_step_reads(u0, params, basis)
        rows = output_rows(n_steps, stride)
        # limit_rows stops at the recorded rows
        assert ([(r, flow.steps) for r, flow in limit_rows(u0, params, basis, stride=stride)]
                == list(enumerate(rows)))
        expected = steps[rows]
        # a row's defect is the worst of its steps since the previous row
        expected[1:, 5] = [steps[a + 1:b + 1, 5].max() for a, b in zip(rows, rows[1:])]
        assert len(steps) == n_steps + 1 and expected[0, 5] == 0.0
        for k, name in enumerate(self.COLUMNS):
            assert np.array_equal(getattr(traj, name), expected[:, k]), name
        assert traj.energy_rhs == expected[0, -1]

    @pytest.mark.parametrize("m", [0, 16], ids=["parabolic", "corrected"])
    def test_a_stride_picks_rows_of_the_stride_one_solve(self, m):
        # every column of a strided solve is the stride-1 solve at its rows,
        # except the defect, the worst of each row's steps
        n_steps = 2 * ROW_CHUNK + 22
        u0, params, basis = self.setup(n_steps, m)
        every = sw.solve_limit(u0, params, basis)
        for stride in (5, ROW_CHUNK, n_steps - 1):
            rows = output_rows(n_steps, stride)
            traj = sw.solve_limit(u0, params, basis, stride=stride)
            for name in self.COLUMNS[:5] + self.COLUMNS[6:]:
                assert np.array_equal(getattr(traj, name), getattr(every, name)[rows]), name
            worst = [0.0] + [every.projection_defect[a + 1:b + 1].max()
                             for a, b in zip(rows, rows[1:])]
            assert np.array_equal(traj.projection_defect, worst)
            assert traj.energy_rhs == every.energy_rhs
        if m:
            assert every.projection_defect[1:].min() > 0.0


def exact_integral(t):
    """int_0^t e^{-3s} cos 5s ds."""
    return (3.0 + np.exp(-3.0 * t) * (5.0 * np.sin(5.0 * t) - 3.0 * np.cos(5.0 * t))) / 34.0


class TestRunningIntegral:
    """`_RunningIntegral`: the value after each sample, in one call or chunk by chunk."""

    def test_fourth_order(self):
        # int_0^t e^{-3s} cos 5s ds at t = 1/4, 1/2, 1: the error falls about
        # 16x per halving of dt, against 4x for the trapezoid
        exact = exact_integral
        errors = []
        for n in (32, 64, 128, 256):
            t = np.linspace(0.0, 1.0, n + 1)
            values = _running_integral(np.exp(-3.0 * t) * np.cos(5.0 * t), 1.0 / n)
            at = [n // 4, n // 2, n]
            errors.append(np.abs(values[at] - exact(t[at])))
        for coarse, fine in zip(errors, errors[1:]):
            assert np.all(coarse >= 12.0 * fine)

    def test_value_after_every_sample(self):
        # 0 after the first sample, the cubic through the first four after
        # the second, Simpson after the third
        dt, samples = 0.1, [1.0, 2.0, 5.0, 3.0]
        values = _running_integral(samples, dt)
        assert len(values) == len(samples)
        assert values[0] == 0.0
        assert values[1] == pytest.approx(dt / 24.0 * (9.0 + 38.0 - 25.0 + 3.0), rel=1e-15)
        assert values[2] == pytest.approx(dt / 3.0 * (1.0 + 8.0 + 5.0), rel=1e-14)

    @pytest.mark.parametrize("count", [0, 1, 2, 3])
    def test_few_samples(self, count):
        # no value for no sample, then 0, the trapezoid and Simpson's rule,
        # each with the bits of the list form
        dt, samples = 0.1, [1.0, 2.0, 5.0][:count]
        values = _running_integral(samples, dt)
        reference = ListIntegral(dt)
        for f in samples:
            reference.add(f)
        assert values.shape == (count,)
        assert np.array_equal(values, reference.values)
        assert np.allclose(values, [0.0, 0.15, dt / 3.0 * 14.0][:count], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("sizes", [[ROW_CHUNK] * 5, [1] + [ROW_CHUNK] * 5, [4, 1, 2, 3, 290]],
                             ids=["chunks", "step-0-alone", "uneven"])
    def test_chunks_give_the_bits_of_one_call(self, sizes):
        # one integral extended chunk by chunk, as solve_limit and
        # comparison_experiment extend it, against the list form over all samples
        samples = np.random.default_rng(9).standard_normal(300)
        integral, values = _RunningIntegral(0.03), []
        for lo, hi in zip(np.cumsum([0] + sizes[:-1]), np.cumsum(sizes)):
            values += list(integral.extend(samples[lo:hi]))
        reference = ListIntegral(0.03)
        for f in samples:
            reference.add(f)
        assert np.array_equal(values, reference.values)

    def test_zero_samples_give_zero(self):
        assert np.all(_running_integral(np.zeros(50), 0.01) == 0.0)

    def test_same_bits_as_the_list_form(self):
        samples = np.random.default_rng(8).standard_normal(50)
        reference = ListIntegral(0.03)
        for f in samples:
            reference.add(f)
        assert np.array_equal(_running_integral(samples, 0.03), reference.values)

    def test_cubic_start(self):
        # with four samples the cubic rewrites only the value after the
        # second, whose error then falls about 32x per halving of dt, against
        # 8x for the trapezoid over the first step; every later value is the
        # trapezoid sum with its Euler-Maclaurin end correction
        dt, samples = 0.1, np.array([1.0, 2.0, 5.0, 3.0, 4.0])
        values = _running_integral(samples, dt)
        f0, f1, f2 = samples[:3]
        for k in range(2, len(samples)):
            trapezoid = dt * (samples[:k + 1].sum() - 0.5 * (f0 + samples[k]))
            end = dt / 24.0 * (3.0 * (samples[k] + f0) - 4.0 * (samples[k - 1] + f1)
                               + samples[k - 2] + f2)
            assert values[k] == pytest.approx(trapezoid - end, rel=1e-14)
        # the cubic through four samples of a cubic integrates it exactly
        t = dt * np.arange(4)
        assert _running_integral(1.0 - t + 2.0 * t ** 3, dt)[1] == pytest.approx(
            dt - dt ** 2 / 2.0 + dt ** 4 / 2.0, rel=1e-14)
        cubic, trapezoid = [], []
        for n in (32, 64, 128, 256):
            t = np.linspace(0.0, 1.0, n + 1)
            f = np.exp(-3.0 * t) * np.cos(5.0 * t)
            cubic.append(abs(_running_integral(f, 1.0 / n)[1] - exact_integral(t[1])))
            trapezoid.append(abs(0.5 / n * (f[0] + f[1]) - exact_integral(t[1])))
        for coarse, fine in zip(cubic, cubic[1:]):
            assert coarse >= 28.0 * fine
        for coarse, fine in zip(trapezoid, trapezoid[1:]):
            assert 7.0 <= coarse / fine <= 9.0


class TestComparison:
    @pytest.mark.parametrize("stride", [1, 10])
    def test_same_bits_as_lockstep_flows(self, grid, basis, params, stride):
        assert params.n_steps % 10 == 8   # stride 10 leaves a last row of 8 steps
        u10 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                  + sw.sine_field(grid, 2, 2, 0.1))
        u20 = sw.normalize_sphere(grid, u10 + 1e-2 * smooth_perturbation(
            grid, np.random.default_rng(4)))
        comp = sw.comparison_experiment(u10, u20, params, basis, stride=stride)
        t, dist, int_dv, lhs, c1, c2 = comparison_oracle(u10, u20, params, basis, stride)
        for got, want in ((comp.t, t), (comp.dist_h1_sq, dist), (comp.int_dv_sq, int_dv),
                          (comp.lhs, lhs), (comp.c1, c1), (comp.c2, c2)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("stride", [1, 7, 5000])
    @pytest.mark.parametrize("n_steps, m", [
        (ROW_CHUNK - 24, 8), (2 * ROW_CHUNK + 22, 8), (ROW_CHUNK - 24, 0), (2 * ROW_CHUNK + 22, 0)],
        ids=["below", "tail", "below-parabolic", "tail-parabolic"])
    def test_chunks_keep_the_bits_of_every_step(self, n_steps, m, stride):
        # the series is folded ROW_CHUNK steps at a time from the chunks of
        # either flow; the oracle steps the flows one step at a time and
        # integrates every step's |v1 - v2|^2 in one list
        grid = sw.Grid1D(1.0, 31)
        basis = sw.build_basis(grid, m, 2.0)
        params = LimitParams(grid=grid, dt=5e-4, T=n_steps * 5e-4, gamma=0.7)
        u10 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1) + sw.sine_field(grid, 2, 2, 0.1))
        u20 = sw.normalize_sphere(grid, u10 + 1e-2 * smooth_perturbation(
            grid, np.random.default_rng(5)))
        comp = sw.comparison_experiment(u10, u20, params, basis, stride=stride)
        t, dist, int_dv, lhs, c1, c2 = comparison_oracle(u10, u20, params, basis, stride)
        assert params.n_steps == n_steps
        for got, want in ((comp.t, t), (comp.dist_h1_sq, dist), (comp.int_dv_sq, int_dv),
                          (comp.lhs, lhs), (comp.c1, c1), (comp.c2, c2)):
            assert np.array_equal(got, want)

    def test_identical_initial_data(self, grid, basis, params):
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                 + sw.sine_field(grid, 2, 2, 0.1))
        comp = sw.comparison_experiment(u0, u0, params, basis,
                                        stride=params.n_steps // 32)
        assert np.all(comp.lhs == 0.0)
        assert np.isnan(comp.c1) and np.isnan(comp.c2)

    def test_epsilon_homogeneity_and_c2_stability(self, grid, basis):
        u10 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                  + sw.sine_field(grid, 2, 2, 0.1))
        w = smooth_perturbation(grid, np.random.default_rng(3))
        p = LimitParams.auto(grid, 0.25, n_out=64)
        results = {}
        for eps in (1e-2, 1e-3):
            u20 = sw.normalize_sphere(grid, u10 + eps * w)
            results[eps] = sw.comparison_experiment(u10, u20, p, basis,
                                                    stride=p.n_steps // 64)
        a = results[1e-2].lhs / results[1e-2].initial_dist_h1_sq
        b = results[1e-3].lhs / results[1e-3].initial_dist_h1_sq
        assert np.abs(a - b).max() <= 0.1 * a.max()
        c2a, c2b = results[1e-2].c2, results[1e-3].c2
        assert abs(c2a - c2b) <= 0.2 * abs(c2a)
