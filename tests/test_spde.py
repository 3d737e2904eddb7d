"""Stochastic stepper: structure preservation, diagnostics, functionals."""

import numpy as np
import pytest

import spherewave as sw
from spherewave.spde import SpdeStepper, _explicit_force

RNG = np.random.default_rng(9)


@pytest.fixture(scope="module")
def grid():
    return sw.Grid1D(1.0, 127)


@pytest.fixture(scope="module")
def basis(grid):
    return sw.build_basis(grid, 16, 2.0)


@pytest.fixture(scope="module")
def gentle_data(grid):
    u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                             + sw.sine_field(grid, 2, 2, 0.1))
    return u0, sw.zero_field(grid)


def random_field(grid, rng=RNG):
    return rng.standard_normal((grid.n, 3))


class TestParams:
    def test_cfl_guard(self, grid):
        bound = 0.5 * np.sqrt(0.1) * grid.h
        with pytest.raises(sw.ParameterError):
            sw.SpdeParams(grid=grid, mu=0.1, dt=2.0 * bound, T=1.0)

    def test_mass_range(self, grid):
        with pytest.raises(sw.ParameterError):
            sw.SpdeParams(grid=grid, mu=1.5, dt=1e-5, T=1.0)
        with pytest.raises(sw.ParameterError):
            sw.SpdeParams(grid=grid, mu=0.0, dt=1e-5, T=1.0)

    def test_final_time_must_be_reached(self, grid):
        # 1429 steps of 7e-4 would end at t=1.0003, not T
        with pytest.raises(sw.ParameterError, match=r"dt=0\.0007.*T=1\.0.*t=1\.0003"):
            sw.SpdeParams(grid=grid, mu=0.1, dt=7e-4, T=1.0)
        assert sw.SpdeParams(grid=grid, mu=0.1, dt=5e-4, T=1.0).n_steps == 2000

    def test_auto_alignment(self, grid):
        params = sw.SpdeParams.auto(grid, 0.05, 1.0, n_out=256)
        assert params.n_steps % 256 == 0
        assert params.dt <= 0.25 * np.sqrt(0.05) * grid.h * (1 + 1e-12)

    def test_auto_takes_a_given_dt_exactly(self, grid):
        params = sw.SpdeParams.auto(grid, 0.05, 1.0, n_out=256, dt=1.0 / 2048)
        assert params.dt == 1.0 / 2048 and params.n_steps == 2048
        # 2000 steps do not fill a 256-row output grid
        with pytest.raises(sw.ParameterError, match="not a multiple of the 256 output rows"):
            sw.SpdeParams.auto(grid, 0.05, 1.0, n_out=256, dt=5e-4)


class TestDrift:
    """The explicit force of the engine's step, N(u, v) with the halved trace correction."""

    def test_eigenfield_equilibrium(self, grid, basis):
        # normalized sine eigenfields null the elastic drift exactly
        for k in (1, 3, 7):
            u = sw.normalize_sphere(grid, sw.sine_field(grid, k, 2))
            params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1.0)
            force = _explicit_force(params, basis, u, sw.zero_field(grid),
                                    sw.h1_seminorm_sq(grid, u), 0.0)
            dv = (sw.laplacian(grid, u) + force) / params.mu
            # zero up to node-coordinate roundoff amplified by the stencil
            # (eps / h^2) and the 1/mu factor
            tol = 2e-14 / (grid.h ** 2 * params.mu)
            assert np.abs(dv).max() <= tol

    def test_parallel_velocity_formula(self, grid, basis):
        # v parallel to u carries no trace correction, since u x v = 0
        u = sw.normalize_sphere(grid, random_field(grid))
        v = 0.8 * u
        params = sw.SpdeParams(grid=grid, mu=0.2, dt=1e-4, T=1.0, gamma=1.5)
        h1 = sw.h1_seminorm_sq(grid, u)
        vh2 = sw.norm_l2_sq(grid, v)
        force = _explicit_force(params, basis, u, v, h1, vh2)
        expected = (h1 - 0.2 * vh2) * u
        assert np.abs(force - expected).max() <= 1e-10 * (1 + np.abs(expected).max())

    def test_term_bookkeeping_at_zero_velocity(self, grid, basis):
        u = random_field(grid)
        params = sw.SpdeParams(grid=grid, mu=0.3, dt=1e-4, T=1.0)
        h1 = sw.h1_seminorm_sq(grid, u)
        recovered = sw.laplacian(grid, u) + _explicit_force(
            params, basis, u, sw.zero_field(grid), h1, 0.0)
        expected = sw.laplacian(grid, u) + h1 * u
        assert np.abs(recovered - expected).max() <= 1e-10 * (1 + np.abs(expected).max())


class TestStep:
    def test_equilibrium_fixed_point_per_step(self, grid, basis):
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 3, 1))
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1.0)
        stepper = SpdeStepper(params, basis, u0, sw.zero_field(grid))
        rng = sw.derive_stream(1, 0)
        for _ in range(20):
            u_prev = stepper.u.copy()
            stepper.step(np.sqrt(params.dt) * rng.standard_normal((1, basis.m)))
            assert np.abs(stepper.u - u_prev).max() <= 1e-12
            assert np.abs(stepper.v).max() <= 1e-12

    def test_strong_self_convergence(self, grid, basis, gentle_data):
        # same Brownian path, halved step: the endpoint error must shrink
        u0, v0 = gentle_data
        T, mu = 0.25, 0.1
        dts = [2e-4, 1e-4, 5e-5]
        n_fine = int(round(T / dts[-1]))
        rng = sw.derive_stream(21, 0)
        fine = np.sqrt(dts[-1]) * rng.standard_normal((n_fine, basis.m))
        incs = {
            dts[2]: fine,
            dts[1]: fine.reshape(-1, 2, basis.m).sum(axis=1),
            dts[0]: fine.reshape(-1, 4, basis.m).sum(axis=1),
        }
        finals = []
        for dt in dts:
            params = sw.SpdeParams(grid=grid, mu=mu, dt=dt, T=T, gamma=5.0)
            traj = sw.simulate(u0, v0, params, basis, increments=incs[dt], keep_fields=True)
            finals.append(traj.u_fields[-1])
        d_coarse = sw.norm_l2(grid, finals[0] - finals[2])
        d_mid = sw.norm_l2(grid, finals[1] - finals[2])
        assert d_mid < d_coarse

    def test_overdamped_velocity_decay(self, grid, gentle_data):
        # strong friction, no noise: |v|_H decays monotonically after the ramp
        u0, v0 = gentle_data
        silent = sw.build_basis(grid, 0, 2.0)
        params = sw.SpdeParams(grid=grid, mu=0.05, dt=5e-5, T=0.5, gamma=20.0)
        traj = sw.simulate(u0, v0, params, silent, stride=100)
        v_h = traj.v_h
        peak = int(v_h.argmax())
        tail = v_h[peak:]
        assert peak < len(v_h) // 4
        assert np.all(np.diff(tail) <= 1e-10 + 1e-3 * tail[:-1])

    def test_blowup_reports_step(self, grid, basis, gentle_data):
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1e-3)
        with pytest.raises(sw.BlowUpError) as err:
            sw.simulate(1e200 * u0, v0, params, basis)
        # the field is finite but its H1 norm overflows, so no step is taken
        assert err.value.step == 0 and err.value.sample == 0

    def test_blowup_leaves_the_block(self, grid, basis, gentle_data):
        # one sample of three blows up; the other two step on, bit for bit as
        # in a block without it, and the step matches the lone trajectory's
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=2e-3)
        rng = sw.derive_stream(3, 0)
        incs = np.sqrt(params.dt) * rng.standard_normal((params.n_steps, 3, basis.m))
        incs[4, 1] = 1e200
        with pytest.raises(sw.BlowUpError) as err:
            sw.simulate(u0, v0, params, basis, increments=incs[:, 1])
        rows = list(range(params.n_steps + 1))
        trio = SpdeStepper(params, basis, np.stack([u0] * 3), np.stack([v0] * 3),
                           track_remainder=True, samples=[7, 8, 9])
        pair = SpdeStepper(params, basis, np.stack([u0] * 2), np.stack([v0] * 2),
                           track_remainder=True, samples=[7, 9])
        trio.run(incs, rows, lambda r: None)
        pair.run(incs[:, [0, 2]], rows, lambda r: None)
        # step 5 takes the kick and stays finite (unprojected); step 6 overflows
        assert [(e.sample, e.step) for e in trio.lost] == [(8, err.value.step)]
        assert err.value.step == 6 and err.value.sample == 0
        assert trio.samples.tolist() == [7, 9] and not pair.lost
        assert np.array_equal(trio.u, pair.u) and np.array_equal(trio.v, pair.v)
        for key, acc in trio.remainder.items():
            assert np.array_equal(acc, pair.remainder[key])
        assert np.array_equal(trio.energy(), pair.energy())

    def test_determinism(self, grid, basis, gentle_data):
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=0.05)
        a = sw.simulate(u0, v0, params, basis, rng=sw.derive_stream(8, 1), stride=10,
                        keep_fields=True)
        b = sw.simulate(u0, v0, params, basis, rng=sw.derive_stream(8, 1), stride=10,
                        keep_fields=True)
        assert np.array_equal(a.energy, b.energy)
        assert np.array_equal(a.u_fields[-1], b.u_fields[-1])


class TestDiagnostics:
    def test_energy_at_time_zero(self, grid, basis, gentle_data):
        u0, _ = gentle_data
        v0 = sw.project_tangent(grid, u0, random_field(grid))
        params = sw.SpdeParams(grid=grid, mu=0.37, dt=1e-4, T=1.0)
        expected = sw.h1_seminorm_sq(grid, u0) + 0.37 * sw.norm_l2_sq(grid, v0)
        energy = SpdeStepper(params, basis, u0, v0).energy()
        assert energy.shape == (1,)
        assert energy[0] == pytest.approx(expected, rel=1e-14)

    def test_constraint_residuals_on_manifold(self, grid, basis, gentle_data):
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1.0)
        theta, eta = SpdeStepper(params, basis, u0, v0).constraints()
        assert abs(theta[0]) <= 1e-14 and abs(eta[0]) <= 1e-14

    def test_constraint_residuals_scaled_field(self, grid, basis, gentle_data):
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1.0)
        theta, _ = SpdeStepper(params, basis, np.sqrt(3.0) * u0, v0).constraints()
        assert theta[0] == pytest.approx(1.0, rel=1e-12)

    def test_weighted_h2_initial_value(self, grid, basis, gentle_data):
        u0, _ = gentle_data
        v0 = sw.project_tangent(grid, u0, random_field(grid))
        mu = 0.2
        params = sw.SpdeParams(grid=grid, mu=mu, dt=1e-4, T=1.0)
        expected = (sw.h2_norm_sq(grid, u0) + mu * sw.h1_seminorm_sq(grid, v0)
                    + mu * sw.h1_seminorm_sq(grid, u0) * sw.norm_l2_sq(grid, v0))
        stepper = SpdeStepper(params, basis, u0, v0)
        for weight_a in (0.0, 10.0):
            weighted = stepper.diagnostics(weight_a)["weighted_h2"][0]
            assert weighted == pytest.approx(expected, rel=1e-13)
        with pytest.raises(sw.ParameterError):
            stepper.diagnostics(-1.0)

    def test_weighted_h2_constant_on_equilibrium(self, grid, basis):
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 2, 3))
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=0.02)
        traj = sw.simulate(u0, sw.zero_field(grid), params, basis,
                           rng=sw.derive_stream(5, 0), stride=20)
        assert np.abs(traj.weighted_h2 - traj.weighted_h2[0]).max() <= 1e-9

    def test_weighted_h2_bounded_on_noisy_run(self, grid, basis, gentle_data):
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=0.5, gamma=5.0)
        traj = sw.simulate(u0, v0, params, basis, rng=sw.derive_stream(14, 0),
                           stride=100, weight_a=10.0)
        assert np.isfinite(traj.weighted_h2).all()
        assert traj.weighted_h2.max() <= 10.0 * traj.weighted_h2[0]

    def test_projection_mode_pins_constraints(self, grid, basis, gentle_data):
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=0.1, projection=True)
        traj = sw.simulate(u0, v0, params, basis, rng=sw.derive_stream(6, 0), stride=10)
        assert np.abs(traj.theta).max() <= 1e-12
        assert np.abs(traj.eta).max() <= 1e-12

    def test_simulate_row_contract(self, grid, basis, gentle_data):
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1e-2)  # 100 steps
        traj = sw.simulate(u0, v0, params, basis, stride=7)
        ks = np.rint(traj.t / params.dt).astype(int)
        expected = list(range(0, 101, 7)) + [100]
        assert ks.tolist() == expected

    def test_diagnostics_row(self, grid, basis, gentle_data):
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1.0)
        stepper = SpdeStepper(params, basis, u0, v0)
        row = stepper.diagnostics()
        assert stepper.t == 0.0
        assert row["energy"][0] == pytest.approx(sw.h1_seminorm_sq(grid, u0), rel=1e-13)
        assert abs(row["theta"][0]) <= 1e-14 and row["v_h"][0] == 0.0
        with pytest.raises(sw.BlowUpError):
            SpdeStepper(params, basis, np.full((grid.n, 3), np.nan), v0)

    def test_acc_v2_nondecreasing(self, grid, basis, gentle_data):
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=0.05)
        traj = sw.simulate(u0, v0, params, basis, rng=sw.derive_stream(31, 0), stride=10)
        backed_out = (traj.energy - traj.u_h1 ** 2 - params.mu * traj.v_h ** 2) / (2 * params.gamma)
        assert np.all(np.diff(backed_out) >= -1e-14)


class TestFunctionals:
    def test_two_code_paths_agree(self, grid, basis):
        for _ in range(50):
            u, v = random_field(grid), random_field(grid)
            a = sw.functional_j(u, v, basis, form="definition")
            b = sw.functional_j(u, v, basis, form="expanded")
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_parallel_fields_reduce(self, grid, basis):
        u = random_field(grid)
        a = sw.functional_j(u, 3.0 * u, basis, form="definition")
        b = sw.functional_j(u, 3.0 * u, basis, form="expanded")
        scale = sw.h1_seminorm_sq(grid, u) ** 2
        assert abs(a) <= 1e-10 * scale and abs(b) <= 1e-10 * scale

    def test_g_norm_vanishes_for_parallel(self, grid, basis):
        u = random_field(grid)
        lam = RNG.standard_normal(grid.n)[:, None]
        # u x (lam u) is zero up to the rounding of the scaled components
        assert sw.functional_g_norm(u, lam * u, basis) <= 1e-20

    def test_g_norm_silent_basis(self, grid):
        silent = sw.build_basis(grid, 0, 2.0)
        u, v = random_field(grid), random_field(grid)
        assert sw.functional_g_norm(u, v, silent) == 0.0
