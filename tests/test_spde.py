"""Stochastic stepper: structure preservation, diagnostics, functionals."""

import warnings

import numpy as np
import pytest

import spherewave as sw
from spherewave.config import (build_grid, build_noise_basis, initial_fields_from,
                               resolve_config, spde_params_from)
from spherewave.fields import HelmholtzSolver, pointwise_dot
from spherewave.noise import noise_field
from spherewave.spde import (
    CFL_LIMIT,
    DIAGNOSTICS,
    WEIGHT_A,
    REMAINDER_KEYS,
    RemainderIdentity,
    SpdeStepper,
    _state_norms,
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

    @pytest.mark.parametrize("mu", [-0.5, 0.0, 1.5])
    def test_auto_step_refuses_the_mass_first(self, grid, mu):
        # no step is fitted to a mass outside (0, 1]: a negative one would
        # warn in its square root
        with pytest.raises(sw.ParameterError, match=r"mass must lie in \(0, 1\]"):
            sw.SpdeParams.auto(grid, mu, 1.0)

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


def drift(params, basis, u, v):
    """A_h u + N(u, v) as the step forms it: the drift of an engine started at (u, v)."""
    engine = SpdeStepper(params, basis, u, v)
    return engine._drift(engine.u, engine.v).copy(), engine


def step_oracle(params, basis, u0, v0, increments):
    """The tracked step composed from the public helpers, one state per step.

    Yields (u, v, lap, h1, vh2, acc_v2, acc_noise, remainder, norm_defect,
    tangent_defect) after each step of increments (each (S, m) or None),
    from blocks u0, v0 (S, 3, n).  A_h u and the two norms are
    _state_norms', the force is built on strat_correction, the kick is
    noise_field and the solve HelmholtzSolver.solve; the remainder
    integrals are trapezoids kept as left sums from f_0 / 2.
    """
    grid, dt, mu, size = params.grid, params.dt, params.mu, len(u0)
    solver = HelmholtzSolver(grid, 1.0 + params.gamma * dt / mu, dt ** 2 / mu)
    coeff = 0.5 * mu ** (2.0 * params.alpha - 1.0)

    def state(u, v):
        lap, h1, vh2 = _state_norms(grid, u, v)
        h1b, vh2b = h1[:, None, None], vh2[:, None, None]
        uu, uv = pointwise_dot(u, u), pointwise_dot(u, v)
        integrands = np.stack([h1b * u + lap, (pointwise_dot(lap, u) + h1b * uu) * u,
                               vh2b * u, uv * v, pointwise_dot(v, v) * u, (vh2b * uu) * u])
        return lap, h1, vh2, integrands

    u, v = u0.copy(), v0.copy()
    lap, h1, vh2, f = state(u, v)
    sums, acc_v2, acc_noise = 0.5 * f, np.zeros(size), np.zeros_like(u)
    norm_defect, tangent_defect = np.zeros(size), np.zeros(size)
    for dw in increments:
        h1b, vh2b = h1[:, None, None], vh2[:, None, None]
        force = h1b * u - mu * vh2b * u + coeff * sw.strat_correction(u, v, basis)
        rhs = v + (dt / mu) * (lap + force)
        v_star = solver.solve(rhs.reshape(3 * size, grid.n).T).T.reshape(u.shape)
        if dw is not None and basis.m > 0:
            kick = noise_field(u, v, basis, dw)
            v_star = v_star + mu ** (params.alpha - 1.0) * kick
            acc_noise = acc_noise + mu ** params.alpha * kick
        u_new = u + dt * v_star
        norm = np.sqrt(sw.inner_each(grid, u_new, u_new))
        if params.projection:
            u_new = u_new / norm[:, None, None]
            dot = sw.inner_each(grid, u_new, v_star)
            tangent = dot / sw.inner_each(grid, u_new, u_new)
            v_new = v_star - tangent[:, None, None] * u_new
            defect = np.abs(dot) * norm
        else:
            v_new, defect = v_star, np.abs(sw.inner_each(grid, u_new, v_star))
        norm_defect = np.maximum(norm_defect, np.abs(norm - 1.0))
        tangent_defect = np.maximum(tangent_defect, defect)
        vh2_old = vh2
        u, v = u_new, v_new
        lap, h1, vh2, f = state(u, v)
        acc_v2 = acc_v2 + 0.5 * dt * (vh2_old + vh2)
        sums = sums + f
        remainder = dict(zip(REMAINDER_KEYS, dt * (sums - 0.5 * f)), j6=acc_noise)
        yield (u, v, lap, h1, vh2, acc_v2, acc_noise, remainder, norm_defect,
               tangent_defect)


class TestDrift:
    """The drift of the engine's step, A_h u + N(u, v) with the halved trace correction."""

    def test_eigenfield_equilibrium(self, grid, basis):
        # normalized sine eigenfields null the elastic drift exactly
        for k in (1, 3, 7):
            u = sw.normalize_sphere(grid, sw.sine_field(grid, k, 2))
            params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1.0)
            dv = drift(params, basis, u, sw.zero_field(grid))[0] / params.mu
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
        force = drift(params, basis, u, v)[0] - sw.laplacian(grid, u)
        expected = (h1 - 0.2 * vh2) * u
        assert np.abs(force - expected).max() <= 1e-10 * (1 + np.abs(expected).max())

    def test_term_bookkeeping_at_zero_velocity(self, grid, basis):
        u = random_field(grid)
        params = sw.SpdeParams(grid=grid, mu=0.3, dt=1e-4, T=1.0)
        recovered, engine = drift(params, basis, u, sw.zero_field(grid))
        expected = sw.laplacian(grid, u) + sw.h1_seminorm_sq(grid, u) * u
        assert np.abs(recovered - expected).max() <= 1e-10 * (1 + np.abs(expected).max())
        # the engine's A_h u and |u|_{H1}^2 are those of _state_norms, bit for bit
        lap, h1, vh2 = _state_norms(grid, engine.u, engine.v)
        assert np.array_equal(engine.lap, lap)
        assert np.array_equal(engine.h1, h1) and np.array_equal(engine.vh2, vh2)


class TestStep:
    def test_equilibrium_fixed_point_per_step(self, grid, basis):
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 3, 1))
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1.0)
        stepper = SpdeStepper(params, basis, u0, sw.zero_field(grid))
        rng = sw.derive_stream(1, 0)
        for _ in range(20):
            u_prev = stepper.u.copy()
            stepper.step(np.sqrt(params.dt) * rng.standard_normal(basis.m))
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
            engine.run(incs[dt], [0, params.n_steps], lambda r: None)
            finals.append(engine.u)
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
        # finite fields whose norm overflows: the norms test refuses the
        # start, so no step is taken and no remainder integrand is evaluated
        # (the suite errors on their warnings)
        for start in ((1e200 * u0, v0), (1e200 * u0, sw.zero_field(grid)), (u0, 1e200 * v0)):
            with pytest.raises(sw.BlowUpError) as err:
                sw.simulate(*start, params, basis)
            assert err.value.step == 0 and err.value.sample == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_input_refused(self, grid, basis, gentle_data, bad):
        # a NaN or inf node or increment is bad input, refused by name before
        # any arithmetic warns: not a blow-up at step 0 or 1
        u0, _ = gentle_data
        v0 = sw.project_tangent(grid, u0, sw.sine_field(grid, 2, 1))
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1e-3)
        bad_u0, bad_v0 = u0.copy(), v0.copy()
        bad_u0[1, 7] = bad_v0[2, 4] = bad
        increments = np.zeros((params.n_steps, basis.m))
        increments[3, 5] = increments[6, 1] = bad
        calls = {
            f"initial field u0 is not finite: {bad} at component 1, node 7":
                lambda: sw.simulate(bad_u0, v0, params, basis),
            f"initial field v0 is not finite: {bad} at component 2, node 4":
                lambda: sw.simulate(u0, bad_v0, params, basis),
            # in a block the error names the bad sample's label
            f"initial field u0 of sample 8 is not finite: {bad} at component 1, node 7":
                lambda: SpdeStepper(params, basis, np.stack([u0, bad_u0, u0]),
                                    np.stack([v0] * 3), samples=[7, 8, 9]),
            f"initial field v0 of sample 2 is not finite: {bad} at component 2, node 4":
                lambda: SpdeStepper(params, basis, np.stack([u0] * 3),
                                    np.stack([v0, v0, bad_v0])),
            # the first bad step: row 3 of increments drives step 4
            f"the increment of step 4 is not finite: {bad} at mode 5":
                lambda: sw.simulate(u0, v0, params, basis, increments=increments),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for message, call in calls.items():
                with pytest.raises(sw.ParameterError, match=f"^{message}$"):
                    call()

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

    @pytest.mark.parametrize("m", [8, 0], ids=["noisy", "silent"])
    @pytest.mark.parametrize("projection", [False, True])
    @pytest.mark.parametrize("size", [1, 16])
    def test_step_is_the_composed_oracle(self, size, projection, m):
        # the engine's kernel takes the float operations of the public
        # helpers in their order, so every state agrees bit for bit; every
        # seventh step has no noise (dw=None)
        g = sw.Grid1D(1.0, 63)
        basis = sw.build_basis(g, m, 2.0)
        u0, v0 = sw.initial_pair(g, [(1, 1, 1.0), (2, 2, 0.1), (5, 3, 0.3)],
                                 [(1, 2, 2.0), (2, 3, 1.0)])
        steps = 300
        params = sw.SpdeParams(grid=g, mu=0.1, dt=2.0 ** -10, T=steps * 2.0 ** -10,
                               projection=projection)
        u0 = np.stack([u0] * size) + 1e-3 * sw.derive_stream(2, size).standard_normal(
            (size, 3, g.n))
        v0 = np.stack([v0] * size)
        rng = sw.derive_stream(1, size)
        increments = [None if k % 7 == 6 else
                      np.sqrt(params.dt) * rng.standard_normal((size, m))
                      for k in range(steps)]
        engine = SpdeStepper(params, basis, u0, v0)
        for k, (dw, expected) in enumerate(zip(increments, step_oracle(
                params, basis, u0, v0, increments))):
            engine.step(dw)
            u, v, lap, h1, vh2, acc_v2, acc_noise, remainder, nd, td = expected
            got = (engine.u, engine.v, engine.lap, engine.h1, engine.vh2, engine.acc_v2,
                   engine.acc_noise, engine.norm_defect, engine.tangent_defect)
            want = (u, v, lap, h1, vh2, acc_v2, acc_noise, nd, td)
            names = ("u", "v", "lap", "h1", "vh2", "acc_v2", "acc_noise", "norm_defect",
                     "tangent_defect")
            for name, a, b in zip(names, got, want):
                assert np.array_equal(a, b), (k, name)
            for key, acc in engine.remainder.items():
                assert np.array_equal(acc, remainder[key]), (k, key)
        assert engine.step_index == steps and not engine.lost

    @pytest.mark.parametrize("noise", [True, False], ids=["noisy", "no-noise"])
    @pytest.mark.parametrize("projection", [False, True])
    @pytest.mark.parametrize("size", [1, 16])
    def test_steps_leave_earlier_arrays_alone(self, grid, basis, gentle_data, size, projection,
                                              noise):
        # the state, the remainder and the diagnostics a caller holds keep
        # their values while the engine steps on: the step's buffers hold
        # intermediates only
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1e-2, projection=projection)
        engine = SpdeStepper(params, basis, np.stack([u0] * size), np.stack([v0] * size))
        rng = sw.derive_stream(6, size)

        def advance(count):
            for _ in range(count):
                engine.step(np.sqrt(params.dt) * rng.standard_normal((size, basis.m))
                            if noise else None)

        advance(2)
        held = {"u": engine.u, "v": engine.v, "u[0]": engine.u[0],
                **{f"remainder[{key}]": acc for key, acc in engine.remainder.items()},
                **{f"diagnostics[{key}]": x for key, x in engine.diagnostics().items()}}
        copies = {name: a.copy() for name, a in held.items()}
        advance(3)
        assert not np.array_equal(engine.u, copies["u"])
        for name, a in held.items():
            assert np.array_equal(a, copies[name]), name

    def test_determinism(self, grid, basis, gentle_data):
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=0.05)
        a, b = (sw.simulate(u0, v0, params, basis, rng=sw.derive_stream(8, 1), stride=10)
                for _ in range(2))
        assert np.array_equal(a.energy, b.energy)
        finals = []
        for _ in range(2):
            dw = np.sqrt(params.dt) * sw.derive_stream(8, 1).standard_normal(
                (params.n_steps, basis.m))
            engine = SpdeStepper(params, basis, u0, v0)
            engine.run(dw, [0, params.n_steps], lambda r: None)
            finals.append(engine.u)
        assert np.array_equal(*finals)


class TestFieldForm:
    """A field (3, n) is stepped as a field, with numpy scalars for its per-trajectory values."""

    @staticmethod
    def _values(engine, pick):
        """Every value a caller reads off the engine, with `pick` taking its sample."""
        norms, residual = engine.remainder_norms()
        return {"u": pick(engine.u), "v": pick(engine.v), "j6": pick(engine.acc_noise),
                **{key: pick(acc) for key, acc in engine.remainder.items() if key != "j6"},
                "acc_v2": pick(engine.acc_v2), "energy": pick(engine.energy()),
                "norm_defect": pick(engine.norm_defect),
                "tangent_defect": pick(engine.tangent_defect),
                "j_norms": pick(norms), "residual": pick(residual)}

    @pytest.mark.parametrize("alpha", [0.5, 0.75])
    @pytest.mark.parametrize("noise", ["m16", "silent", "none"])
    @pytest.mark.parametrize("projection", [False, True])
    def test_field_is_its_sample_in_a_block(self, projection, noise, alpha):
        # the middle sample of a trio with other neighbours, stepped on the
        # same increments, agrees with the field bit for bit at every step
        g = sw.Grid1D(1.0, 63)
        basis = sw.build_basis(g, 0 if noise == "silent" else 16, 2.0)
        u0, v0 = sw.initial_pair(g, [(1, 1, 1.0), (2, 2, 0.1), (5, 3, 0.3)],
                                 [(1, 2, 2.0), (2, 3, 1.0)])
        params = sw.SpdeParams(grid=g, mu=0.1, dt=2.0 ** -10, T=120 * 2.0 ** -10,
                               alpha=alpha, projection=projection)
        us = np.stack([u0] * 3) + 1e-3 * sw.derive_stream(2, 3).standard_normal((3, 3, g.n))
        vs = np.stack([v0, 1.1 * v0, 0.9 * v0])
        field = SpdeStepper(params, basis, us[1], vs[1])
        block = SpdeStepper(params, basis, us, vs)
        dw = (None if noise == "none" else np.sqrt(params.dt)
              * sw.derive_stream(1, 3).standard_normal((params.n_steps, 3, basis.m)))
        for k in range(params.n_steps + 1):
            if k:
                field.step(None if dw is None else dw[k - 1, 1])
                block.step(None if dw is None else dw[k - 1])
            got = self._values(field, lambda a: a)
            want = self._values(block, lambda a: a[1])
            for name, value in got.items():
                assert np.array_equal(value, want[name]), (k, name)
        assert field.step_index == block.step_index == params.n_steps
        assert not field.lost and not block.lost

    def test_field_values_are_numpy_scalars(self, grid, basis, gentle_data):
        # a field engine keeps a field's shape, and no block of one: its
        # per-trajectory values are numpy scalars before and after a step
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1e-3, projection=True)
        engine = SpdeStepper(params, basis, u0, v0)
        for _ in range(2):
            assert engine.u.shape == engine.v.shape == engine.acc_noise.shape == (3, grid.n)
            for name, value in (("energy", engine.energy()), ("h1", engine.h1),
                                ("vh2", engine.vh2), ("acc_v2", engine.acc_v2),
                                ("norm_defect", engine.norm_defect),
                                ("tangent_defect", engine.tangent_defect),
                                ("residual", engine.remainder_norms()[1])):
                assert type(value) is np.float64, name
            engine.step(np.sqrt(params.dt) * sw.derive_stream(7, 0).standard_normal(basis.m))

    @pytest.mark.parametrize("pair", [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (0.0, np.inf),
                                      (np.nan, 1.0), (1.0, np.nan), (np.nan, np.inf),
                                      (np.inf, np.nan)])
    def test_scalar_sup_is_maximum(self, grid, basis, gentle_data, pair):
        # a field's running sups take np.maximum's value, a NaN in either included
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1e-3)
        engine = SpdeStepper(params, basis, *gentle_data)
        a, b = (np.float64(x) for x in pair)
        assert np.array_equal(engine._sup(a, b), np.maximum(a, b), equal_nan=True)

    def test_field_blowup_is_the_block_of_ones(self):
        # the CLI's default trajectory, unprojected at mu = 0.05, overflows at
        # step 1120; a field loses it there with the block of one's error:
        # step, sample 0, last finite diagnostics and message
        cfg = resolve_config({"physics": {"mu": 0.05}, "time": {"projection": False}})
        grid = build_grid(cfg)
        basis = build_noise_basis(cfg, grid)
        params = spde_params_from(cfg, grid)
        u0, v0 = initial_fields_from(cfg, grid)
        dw = np.sqrt(params.dt) * sw.derive_stream(cfg["study"]["master_seed"], 0, 0) \
            .standard_normal((params.n_steps, basis.m))
        with pytest.raises(sw.BlowUpError) as err:
            sw.simulate(u0, v0, params, basis, increments=dw)
        rows = list(range(params.n_steps + 1))
        field = SpdeStepper(params, basis, u0, v0)
        field.run(dw, rows, lambda r: None)
        block = SpdeStepper(params, basis, u0[None], v0[None])
        block.run(dw[:, None], rows, lambda r: None)
        assert err.value.step == 1120 and err.value.sample == 0
        assert field.step_index == block.step_index == 1120
        assert [str(e) for e in field.lost] == [str(e) for e in block.lost] == [str(err.value)]
        assert field.lost[0].diagnostics == block.lost[0].diagnostics
        assert np.isfinite(list(field.lost[0].diagnostics.values())).all()
        assert field.alive.tolist() == block.alive.tolist() == [False]
        assert np.isnan(field.u).all() and np.isnan(field.v).all()
        # the sups of the blow-up step's result, as np.maximum keeps them
        for name in ("norm_defect", "tangent_defect"):
            assert np.array_equal(getattr(field, name), getattr(block, name)[0],
                                  equal_nan=True), name


class TestDiagnostics:
    def test_energy_at_time_zero(self, grid, basis, gentle_data):
        u0, _ = gentle_data
        v0 = sw.project_tangent(grid, u0, random_field(grid))
        params = sw.SpdeParams(grid=grid, mu=0.37, dt=1e-4, T=1.0)
        expected = sw.h1_seminorm_sq(grid, u0) + 0.37 * sw.norm_l2_sq(grid, v0)
        energy = SpdeStepper(params, basis, u0, v0).energy()
        assert isinstance(energy, np.float64)
        assert energy == pytest.approx(expected, rel=1e-14)

    def test_constraint_residuals_on_manifold(self, grid, basis, gentle_data):
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1.0)
        row = SpdeStepper(params, basis, u0, v0).diagnostics()
        assert abs(row["theta"]) <= 1e-14 and abs(row["eta"]) <= 1e-14

    def test_constraint_residuals_scaled_field(self, grid, basis, gentle_data):
        u0, v0 = gentle_data
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1.0)
        theta = SpdeStepper(params, basis, np.sqrt(3.0) * u0, v0).diagnostics()["theta"]
        assert theta == pytest.approx(1.0, rel=1e-12)

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
                stepper.step(np.sqrt(params.dt) * rng.standard_normal(basis.m))
            u, v = stepper.u, stepper.v
            expected = np.exp(-WEIGHT_A * stepper.acc_v2) * (
                sw.h2_norm_sq(grid, u) + mu * sw.h1_seminorm_sq(grid, v)
                + mu * sw.h1_seminorm_sq(grid, u) * sw.norm_l2_sq(grid, v))
            weighted = stepper.diagnostics()["weighted_h2"]
            assert weighted == pytest.approx(expected, rel=1e-13)
        assert stepper.acc_v2 > 0.0

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
        assert row["energy"] == pytest.approx(sw.h1_seminorm_sq(grid, u0), rel=1e-13)
        assert abs(row["theta"]) <= 1e-14 and row["v_h"] == 0.0
        with pytest.raises(sw.ParameterError, match="initial field u0 is not finite: nan"):
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
        identity = RemainderIdentity(params, basis, u0, v0)
        rows = []

        def on_row(r):
            row = engine.diagnostics()
            row["j"], row["res"] = identity.norms(engine.u, engine.v, engine.remainder)
            rows.append(row)

        engine.run(dw, list(range(n_rows)), on_row)
        assert len(rows) == len(traj.t) == n_rows
        oracle = {key: np.array([row[key] for row in rows]) for key in rows[0]}
        for name in DIAGNOSTICS:
            assert np.array_equal(getattr(traj, name), oracle[name]), name
        assert np.array_equal(traj.j_norms, oracle["j"])
        assert np.array_equal(traj.identity_residual, oracle["res"])

    def test_rng_path_is_one_whole_draw(self):
        # the rng is drawn ROW_CHUNK steps at a time, and 810 steps end in a
        # part chunk; the oracle draws the whole path at once and passes it in
        grid = sw.Grid1D(1.0, 31)
        basis = sw.build_basis(grid, 8, 2.0)
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1) + sw.sine_field(grid, 2, 2, 0.1))
        v0 = sw.project_tangent(grid, u0, sw.sine_field(grid, 3, 3, 0.5))
        dt = 2.0 ** -10
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=dt, T=810 * dt, projection=True)
        chunked = sw.simulate(u0, v0, params, basis, rng=sw.derive_stream(6, 0), stride=3)
        whole = np.sqrt(dt) * sw.derive_stream(6, 0).standard_normal((810, basis.m))
        oracle = sw.simulate(u0, v0, params, basis, increments=whole, stride=3)
        assert params.n_steps == 810 and len(chunked.t) == 271
        for name in ("t",) + DIAGNOSTICS + ("j_norms", "identity_residual"):
            assert np.array_equal(getattr(chunked, name), getattr(oracle, name)), name

    def test_memory_does_not_grow_with_the_steps(self, traced_peak):
        # simulate holds ROW_CHUNK rows and steps of increments, not its path:
        # at one row per run, 10x the steps peak within 10% of the traced bytes
        grid = sw.Grid1D(1.0, 15)
        basis = sw.build_basis(grid, 15, 2.0)
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1) + sw.sine_field(grid, 2, 2, 0.1))
        v0 = sw.project_tangent(grid, u0, sw.sine_field(grid, 3, 3, 0.5))

        def run(T):
            params = sw.SpdeParams(grid=grid, mu=0.5, dt=2.0 ** -8, T=T, projection=True)
            return lambda: sw.simulate(u0, v0, params, basis, rng=sw.derive_stream(7, 0),
                                       stride=params.n_steps)

        run(1.0)()   # first calls fill caches
        short, long = traced_peak(run(1.0)), traced_peak(run(10.0))
        assert long <= 1.1 * short, (short, long)
