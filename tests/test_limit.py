"""Deterministic limit flow: mobility algebra, equivalence, structure."""

import warnings

import numpy as np
import pytest

import spherewave as sw
from spherewave.fields import dst_ortho
from spherewave.limit import LimitParams, _Etd2Flow, _phi_functions, _RunningIntegral

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
def params(grid, basis):
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
    """The running fourth-order integral in lists; `_RunningIntegral` matches it bit for bit."""

    def __init__(self, dt):
        self.dt = dt
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
            return self._trapezoid
        f0, f1, f2 = self._start
        fn2, fn1, fn = self._end
        return self._trapezoid - self.dt / 24.0 * (3.0 * (fn + f0) - 4.0 * (fn1 + f1) + fn2 + f2)


def etd2_oracle(u0, params, basis):
    """The projected ETDRK2 step composed from the public helpers, one state per step.

    Yields (u, ut, lap, h1, defect, int_ut_sq) after each step, starting from
    the projected initial field.
    """
    grid, dt, gamma = params.grid, params.dt, params.gamma
    z = -sw.eigenvalues(grid) * (dt / gamma)
    phi1, phi2 = _phi_functions(z)
    decay, phi1, phi2 = np.exp(z), dt * phi1, dt * phi2
    quadrature = ListIntegral(dt)

    def state(u, defect):
        ut = sw.limit_rhs(u, basis, params)
        lap = sw.laplacian(grid, u)
        return (u, ut, lap, sw.h1_seminorm_sq(grid, u), defect,
                quadrature.add(sw.norm_l2_sq(grid, ut)))

    u, ut, lap, *_ = current = state(sw.normalize_sphere(grid, u0), 0.0)
    while True:
        yield current
        n0 = ut - lap / gamma
        a = dst_ortho(decay * dst_ortho(u) + phi1 * dst_ortho(n0))
        pa = sw.normalize_sphere(grid, a)
        n1 = sw.limit_rhs(pa, basis, params) - sw.laplacian(grid, pa) / gamma
        u_star = a + dst_ortho(phi2 * dst_ortho(n1 - n0))
        nrm = sw.norm_l2(grid, u_star)
        u, ut, lap, *_ = current = state(u_star / nrm, abs(nrm - 1.0))


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
        states = []
        traj = sw.solve_limit(u0, p, basis, stride=p.n_steps // 128,
                              on_row=lambda r, u: states.append(u))
        assert np.abs(states[-1] - u0).max() <= 1e-10
        assert traj.ut_h.max() <= 1e-10

    def test_on_row_sees_each_recorded_row(self, grid, basis):
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                 + sw.sine_field(grid, 2, 2, 0.1))
        p = LimitParams.auto(grid, 0.25, n_out=32)
        seen = []
        traj = sw.solve_limit(u0, p, basis, stride=p.n_steps // 32,
                              on_row=lambda r, u: seen.append((r, u.copy())))
        assert [r for r, _ in seen] == list(range(33))
        assert all(np.sqrt(sw.h1_seminorm_sq(grid, u)) == traj.u_h1[r] for r, u in seen)

    def test_sphere_residual_small_and_energy_inequality(self, grid, basis, silent):
        # every step is projected, so the recorded states sit on the sphere;
        # the parabolic flow (the silent basis) has no dissipative slack, so
        # its energy rows hold only at a step the auto rule resolves
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                 + sw.sine_field(grid, 2, 2, 0.1))
        p = LimitParams.auto(grid, 0.5, n_out=128)
        for b in (basis, silent):
            traj = sw.solve_limit(u0, p, b, stride=p.n_steps // 128)
            assert traj.sphere_residual.max() <= 1e-13
            assert np.all(traj.energy_lhs <= traj.energy_rhs * (1.0 + 1e-6))

    def test_step_rule_is_set_by_the_energy_quadrature(self, grid, silent):
        # the parabolic flow (the silent basis) has no dissipative slack: with
        # the default initial data its energy rows hold at the auto step and
        # fail at twice it, and the plain trapezoid of |u_t|^2 fails them at
        # the auto step
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                 + sw.sine_field(grid, 2, 2, 0.1))
        auto = LimitParams.auto(grid, 0.5, n_out=2)
        double = LimitParams(grid=grid, dt=2.0 * auto.dt, T=0.5)
        fine, coarse = (sw.solve_limit(u0, p, silent)
                        for p in (auto, double))

        def worst(energy_lhs, traj):
            return (energy_lhs / traj.energy_rhs - 1.0).max()

        assert worst(fine.energy_lhs, fine) <= 1e-6
        assert worst(coarse.energy_lhs, coarse) > 1e-6
        ut_sq = fine.ut_h ** 2
        trapezoid = np.concatenate(
            [[0.0], np.cumsum(0.5 * auto.dt * (ut_sq[1:] + ut_sq[:-1]))])
        assert worst(fine.u_h1 ** 2 + 2.0 * auto.gamma * trapezoid, fine) > 1e-6

    def test_h1_norm_nonincreasing(self, grid, basis):
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                 + sw.sine_field(grid, 3, 2, 0.2))
        p = LimitParams.auto(grid, 0.5, n_out=128)
        traj = sw.solve_limit(u0, p, basis, stride=p.n_steps // 128)
        h1_sq = traj.u_h1 ** 2
        assert np.all(np.diff(h1_sq) <= 1e-8 * h1_sq[0])

    def test_projection_defect_resolves_the_step(self, grid, basis):
        # the defect before projection is the step's normal local error,
        # O(dt^3): nonzero at the default step and ~64x larger at 4x the step
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
        p = LimitParams.auto(grid, 1e-6, n_out=1)
        with pytest.raises(sw.ParameterError, match="too rough"):
            sw.solve_limit(rough, p, sw.build_basis(grid, 8, 2.0))

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
        p = LimitParams.auto(g, 0.25, n_out=64)
        for b in (sw.build_basis(g, 16, 2.0), sw.build_basis(g, 0, 2.0)):
            states = []
            sw.solve_limit(u0, p, b, stride=p.n_steps // 64, on_row=lambda r, u: states.append(u))
            ref = rk4_oracle(u0, p, b, 64)
            err = max(sw.sobolev_norm(g, a - r, 1.0) for a, r in zip(states, ref))
            assert err <= 1e-3


class TestEtd2Step:
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
        flow = _Etd2Flow(u0, params, basis)
        oracle = etd2_oracle(u0, params, basis)
        for step in range(301):
            if step:
                flow.advance()
            u, ut, lap, h1, defect, int_ut_sq = next(oracle)
            assert flow.steps == step
            assert np.array_equal(flow.u, u) and np.array_equal(flow.ut, ut)
            assert np.array_equal(flow.lap, lap)
            assert flow.h1 == h1 and flow.defect == defect and flow.int_ut_sq == int_ut_sq

    @staticmethod
    def flow(grid, basis):
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1) + sw.sine_field(grid, 2, 2, 0.1))
        flow = _Etd2Flow(u0, LimitParams.auto(grid, 0.5, n_out=4), basis)
        for _ in range(3):
            flow.advance()
        return flow

    @pytest.mark.parametrize("m", [8, 0], ids=["corrected", "parabolic"])
    def test_handed_out_states_keep_their_values(self, m):
        # the flow steps on buffers it owns, but every state it hands out,
        # to on_row or as flow.u, is a new array that later steps leave alone
        g = sw.Grid1D(1.0, 63)
        basis = sw.build_basis(g, m, 2.0)
        params = LimitParams.auto(g, 0.5, n_out=4)
        u0 = sw.normalize_sphere(g, sw.sine_field(g, 1, 1) + sw.sine_field(g, 2, 2, 0.1))
        rows = []
        sw.solve_limit(u0, params, basis, stride=params.n_steps // 4,
                       on_row=lambda r, u: rows.append((u, u.copy())))
        flow = _Etd2Flow(u0, params, basis)
        held = [(flow.u, flow.u.copy())]
        for _ in range(3):
            flow.advance()
            held.append((flow.u, flow.u.copy()))
        for states in (rows, held):
            assert not np.array_equal(states[0][1], states[-1][1])
            assert all(np.array_equal(u, kept) for u, kept in states)

    @pytest.mark.parametrize("m", [8, 0], ids=["corrected", "parabolic"])
    def test_non_finite_state_is_a_blow_up(self, m):
        g = sw.Grid1D(1.0, 63)
        flow = self.flow(g, sw.build_basis(g, m, 2.0))
        flow.u = flow.u.copy()
        flow.u[1, 10] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sw.BlowUpError) as info:
                flow.advance()
        assert info.value.step == flow.steps + 1 == 4

    @pytest.mark.parametrize("m", [8, 0], ids=["corrected", "parabolic"])
    def test_zero_stage_is_degenerate(self, m):
        g = sw.Grid1D(1.0, 63)
        flow = self.flow(g, sw.build_basis(g, m, 2.0))
        flow.u, flow.ut, flow.lap = (sw.zero_field(g) for _ in range(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sw.DegenerateFieldError):
                flow.advance()


class TestRunningIntegral:
    @staticmethod
    def running(samples, dt):
        quadrature = _RunningIntegral(dt)
        return np.array([quadrature.add(f) for f in samples])

    def test_fourth_order(self):
        # int_0^t e^{-3s} cos 5s ds at t = 1/4, 1/2, 1: the error falls about
        # 16x per halving of dt, against 4x for the trapezoid
        def exact(t):
            return (3.0 + np.exp(-3.0 * t) * (5.0 * np.sin(5.0 * t) - 3.0 * np.cos(5.0 * t))) / 34.0

        errors = []
        for n in (32, 64, 128, 256):
            t = np.linspace(0.0, 1.0, n + 1)
            values = self.running(np.exp(-3.0 * t) * np.cos(5.0 * t), 1.0 / n)
            at = [n // 4, n // 2, n]
            errors.append(np.abs(values[at] - exact(t[at])))
        for coarse, fine in zip(errors, errors[1:]):
            assert np.all(coarse >= 12.0 * fine)

    def test_value_after_every_sample(self):
        # 0 after the first sample, the trapezoid after the second, Simpson
        # after the third
        dt, samples = 0.1, [1.0, 2.0, 5.0, 3.0]
        values = self.running(samples, dt)
        assert len(values) == len(samples)
        assert values[0] == 0.0
        assert values[1] == pytest.approx(0.15, rel=1e-15)
        assert values[2] == pytest.approx(dt / 3.0 * (1.0 + 8.0 + 5.0), rel=1e-14)

    def test_zero_samples_give_zero(self):
        assert np.all(self.running(np.zeros(50), 0.01) == 0.0)

    def test_same_bits_as_the_list_form(self):
        samples = np.random.default_rng(8).standard_normal(50)
        reference = ListIntegral(0.03)
        assert np.array_equal(self.running(samples, 0.03),
                              [reference.add(f) for f in samples])


class TestComparison:
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
