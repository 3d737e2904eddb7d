"""Stochastic stepper: structure preservation, diagnostics, functionals."""

import numpy as np
import pytest

import spherewave as sw
from spherewave.spde import (
    CFL_LIMIT,
    DIAGNOSTICS,
    WEIGHT_A,
    RemainderIdentity,
    SpdeStepper,
    _explicit_force,
)

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
    return rng.standard_normal((3, grid.n))


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
        bound = CFL_LIMIT * np.sqrt(0.05) * grid.h
        assert params.dt <= bound * (1 + 1e-12)
        # the largest aligned step: 256 steps fewer would overshoot the bound
        assert 1.0 / (params.n_steps - 256) > bound
        assert params.n_steps == 1280

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
            engine = SpdeStepper(params, basis, u0, v0)
            engine.run(incs[dt][:, None], [0, params.n_steps], lambda r: None)
            finals.append(engine.u[0])
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
        u0, _ = gentle_data
        v0 = sw.project_tangent(grid, u0, sw.sine_field(grid, 2, 1))
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1e-3)
        # finite fields whose norm overflows, or a NaN or inf node: the one
        # norms test refuses the start, so no step is taken and no remainder
        # integrand is evaluated (the suite errors on their warnings)
        nan_u0, inf_u0 = u0.copy(), u0.copy()
        nan_u0[1, 7] = np.nan
        inf_u0[0, 3] = np.inf
        for start in ((1e200 * u0, v0), (1e200 * u0, sw.zero_field(grid)), (u0, 1e200 * v0),
                      (nan_u0, v0), (inf_u0, v0)):
            with pytest.raises(sw.BlowUpError) as err:
                sw.simulate(*start, params, basis)
            assert err.value.step == 0 and err.value.sample == 0
        # in a block the error names the one bad sample
        for bad in (nan_u0, inf_u0):
            with pytest.raises(sw.BlowUpError) as err:
                SpdeStepper(params, basis, np.stack([u0, bad, u0]), np.stack([v0] * 3))
            assert err.value.step == 0 and err.value.sample == 1

    @pytest.mark.parametrize("projection", [False, True])
    def test_overflowing_start_is_lost_not_warned(self, grid, basis, gentle_data, projection):
        # finite norms, but the remainder integrands and the identity's
        # constant part overflow at the start: the sample is lost at its
        # first step, with no RuntimeWarning (the suite errors on them)
        u0, _ = gentle_data
        v0 = sw.project_tangent(grid, u0, sw.sine_field(grid, 2, 1))
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1e-3, projection=projection)
        for scale in (1e80, 1e110):
            with pytest.raises(sw.BlowUpError) as err:
                sw.simulate(scale * u0, v0, params, basis, rng=sw.derive_stream(1, 0))
            assert err.value.step == 1 and err.value.sample == 0

    def test_blowup_stays_in_the_block_as_nan(self, grid, basis, gentle_data):
        # sample 1 of the block blows up and steps on as NaN; the others step
        # on bit for bit as in blocks without it in state, remainder and
        # defects, and the blow-up step and its last finite diagnostics match
        # the lone trajectory's.  Two inputs: a trio against a pair, and an
        # S = 16 block against S = 1 runs of the same samples
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=2e-3)
        rows = list(range(params.n_steps + 1))
        for size, parts in ((3, [[0, 2]]), (16, [[j] for j in range(16) if j != 1])):
            rng = sw.derive_stream(3, 0)
            incs = np.sqrt(params.dt) * rng.standard_normal((params.n_steps, size, basis.m))
            incs[4, 1] = 1e200
            with pytest.raises(sw.BlowUpError) as err:
                sw.simulate(u0, v0, params, basis, increments=incs[:, 1])
            labels = np.arange(7, 7 + size)
            block = SpdeStepper(params, basis, np.stack([u0] * size), np.stack([v0] * size),
                                samples=labels)
            block.run(incs, rows, lambda r: None)
            # step 5 takes the kick: its fields stay finite (unprojected), its norms overflow
            assert [(e.sample, e.step) for e in block.lost] == [(8, err.value.step)]
            assert err.value.step == 5 and err.value.sample == 0
            # the diagnostics of the state before step 5, which are finite
            assert block.lost[0].diagnostics == err.value.diagnostics
            assert np.isfinite(list(err.value.diagnostics.values())).all()
            assert block.alive.tolist() == [j != 1 for j in range(size)]
            assert block.samples.tolist() == labels.tolist()
            assert np.isnan(block.u[1]).all() and np.isnan(block.v[1]).all()
            for part in parts:
                alone = SpdeStepper(params, basis, np.stack([u0] * len(part)),
                                    np.stack([v0] * len(part)), samples=labels[part])
                alone.run(incs[:, part], rows, lambda r: None)
                assert not alone.lost
                assert np.array_equal(block.u[part], alone.u)
                assert np.array_equal(block.v[part], alone.v)
                for key, acc in block.remainder.items():
                    assert np.array_equal(acc[part], alone.remainder[key]), key
                assert np.array_equal(block.energy()[part], alone.energy())
                assert np.array_equal(block.norm_defect[part], alone.norm_defect)
                assert np.array_equal(block.tangent_defect[part], alone.tangent_defect)
                assert alone.sample_steps == 20 * len(part)
            # samples alive at the start of each step: 20 for each survivor,
            # and the lost sample's 5 up to and including its blow-up step
            assert block.sample_steps == 20 * (size - 1) + 5

    def test_block_stops_when_every_sample_is_lost(self, grid, basis, gentle_data):
        # both samples blow up at step 5, so run stops there, short of T
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=2e-3)
        incs = np.sqrt(params.dt) * sw.derive_stream(3, 0).standard_normal(
            (params.n_steps, 2, basis.m))
        incs[4] = 1e200
        seen = []
        duo = SpdeStepper(params, basis, np.stack([u0] * 2), np.stack([v0] * 2))
        duo.run(incs, list(range(params.n_steps + 1)), seen.append)
        assert [(e.sample, e.step) for e in duo.lost] == [(0, 5), (1, 5)]
        assert not duo.alive.any()
        assert duo.step_index == 5 < params.n_steps and seen == list(range(5))
        assert duo.sample_steps == 10

    def test_fused_accumulators_match_trapezoid(self, grid, basis):
        # "iAN" and "iCD" against this test's own trapezoid sums of
        # A_h u + |u|_{H1}^2 u and ((A_h u).u + |u|_{H1}^2 |u|^2) u, from data
        # far from an eigenfield, where the first would cancel to roundoff
        u0 = sw.normalize_sphere(grid, sw.field_from_modes(
            grid, [(1, 1, 1.0), (2, 2, 0.6), (3, 3, 0.4)]))
        v0 = sw.project_tangent(grid, u0, sw.sine_field(grid, 2, 1))
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=3e-3)
        rng = sw.derive_stream(4, 0)
        engine = SpdeStepper(params, basis, np.stack([u0] * 2), np.stack([v0] * 2))
        states = [engine.u.copy()]
        for _ in range(params.n_steps):
            engine.step(np.sqrt(params.dt) * rng.standard_normal((2, basis.m)))
            states.append(engine.u.copy())
        u = np.stack(states)                      # (steps + 1, 2, 3, n)
        lap = np.stack([sw.laplacian(grid, f) for f in u])
        lap_u = (lap * u).sum(axis=-2, keepdims=True)
        h1 = -grid.h * lap_u.sum(axis=(-2, -1), keepdims=True)
        uu = (u * u).sum(axis=-2, keepdims=True)
        integrands = {"iAN": lap + h1 * u, "iCD": (lap_u + h1 * uu) * u}
        assert not np.allclose(u[-1, 0], u[-1, 1])   # the two samples differ
        for key, values in integrands.items():
            expected = 0.5 * params.dt * (values[1:] + values[:-1]).sum(axis=0)
            got = engine.remainder[key]
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max(), key

    @pytest.mark.parametrize("size", [1, 16])
    def test_block_state_is_c_ordered(self, grid, basis, gentle_data, size):
        # one layout per block: the solver's Fortran-ordered output is copied back
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1e-3)
        rng = sw.derive_stream(5, 0)
        engine = SpdeStepper(params, basis, np.stack([u0] * size), np.stack([v0] * size))
        for _ in range(3):
            engine.step(np.sqrt(params.dt) * rng.standard_normal((size, basis.m)))
        for key, field in dict(engine.remainder, u=engine.u, v=engine.v).items():
            assert field.flags.c_contiguous, key

    def test_determinism(self, grid, basis, gentle_data):
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=0.05)
        a, b = (sw.simulate(u0, v0, params, basis, rng=sw.derive_stream(8, 1), stride=10)
                for _ in range(2))
        assert np.array_equal(a.energy, b.energy)
        finals = []
        for _ in range(2):
            dw = np.sqrt(params.dt) * sw.derive_stream(8, 1).standard_normal(
                (params.n_steps, 1, basis.m))
            engine = SpdeStepper(params, basis, u0, v0)
            engine.run(dw, [0, params.n_steps], lambda r: None)
            finals.append(engine.u)
        assert np.array_equal(*finals)


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
        row = SpdeStepper(params, basis, u0, v0).diagnostics()
        assert abs(row["theta"][0]) <= 1e-14 and abs(row["eta"][0]) <= 1e-14

    def test_constraint_residuals_scaled_field(self, grid, basis, gentle_data):
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1.0)
        theta = SpdeStepper(params, basis, np.sqrt(3.0) * u0, v0).diagnostics()["theta"]
        assert theta[0] == pytest.approx(1.0, rel=1e-12)

    def test_weighted_h2_initial_value(self, grid, basis, gentle_data):
        # exp(-WEIGHT_A int |v|_H^2 ds) (|u|_{H2}^2 + mu |v|_{H1}^2 + mu |u|_{H1}^2 |v|_H^2),
        # at t = 0 and after steps that make int |v|_H^2 ds positive
        u0, _ = gentle_data
        v0 = sw.project_tangent(grid, u0, random_field(grid))
        mu = 0.2
        params = sw.SpdeParams(grid=grid, mu=mu, dt=1e-4, T=1.0)
        stepper = SpdeStepper(params, basis, u0, v0)
        rng = sw.derive_stream(12, 0)
        for steps in (0, 5):
            for _ in range(steps):
                stepper.step(np.sqrt(params.dt) * rng.standard_normal((1, basis.m)))
            u, v = stepper.u[0], stepper.v[0]
            expected = np.exp(-WEIGHT_A * stepper.acc_v2[0]) * (
                sw.h2_norm_sq(grid, u) + mu * sw.h1_seminorm_sq(grid, v)
                + mu * sw.h1_seminorm_sq(grid, u) * sw.norm_l2_sq(grid, v))
            weighted = stepper.diagnostics()["weighted_h2"][0]
            assert weighted == pytest.approx(expected, rel=1e-13)
        assert stepper.acc_v2[0] > 0.0

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
                           stride=100)
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
            SpdeStepper(params, basis, np.full((3, grid.n), np.nan), v0)

    def test_acc_v2_nondecreasing(self, grid, basis, gentle_data):
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=0.05)
        traj = sw.simulate(u0, v0, params, basis, rng=sw.derive_stream(31, 0), stride=10)
        backed_out = (traj.energy - traj.u_h1 ** 2 - params.mu * traj.v_h ** 2) / (2 * params.gamma)
        assert np.all(np.diff(backed_out) >= -1e-14)


class TestRowChunks:
    @pytest.mark.parametrize("projection", [False, True])
    @pytest.mark.parametrize("n_rows", [63, 64, 65, 129])
    def test_rows_equal_a_per_row_evaluation(self, n_rows, projection):
        # simulate reduces its rows ROW_CHUNK at a time; the oracle evaluates
        # each row alone, on the engine's state as the row is reached
        grid = sw.Grid1D(1.0, 31)
        basis = sw.build_basis(grid, 8, 2.0)
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                 + sw.sine_field(grid, 2, 2, 0.1))
        v0 = sw.project_tangent(grid, u0, sw.sine_field(grid, 3, 3, 0.5))
        dt = 2.0 ** -10
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=dt, T=(n_rows - 1) * dt,
                               projection=projection)
        dw = np.sqrt(dt) * sw.derive_stream(3, n_rows).standard_normal((n_rows - 1, basis.m))
        traj = sw.simulate(u0, v0, params, basis, increments=dw)

        engine = SpdeStepper(params, basis, u0, v0)
        identity = RemainderIdentity(params, basis, engine.u0[0], engine.v0[0])
        rows = []

        def on_row(r):
            row = engine.diagnostics()
            acc = {key: a[0] for key, a in engine.remainder.items()}
            row["j"], row["res"] = identity.norms(engine.u[0], engine.v[0], acc)
            rows.append(row)

        engine.run(dw[:, None, :], list(range(n_rows)), on_row)
        assert len(rows) == len(traj.t) == n_rows
        oracle = {key: np.array([row[key] for row in rows]) for key in rows[0]}
        for name in DIAGNOSTICS:
            assert np.array_equal(getattr(traj, name), oracle[name][:, 0]), name
        assert np.array_equal(traj.j_norms, oracle["j"])
        assert np.array_equal(traj.identity_residual, oracle["res"])
