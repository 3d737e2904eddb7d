"""Mass-sweep orchestration: remainder terms, coupling, determinism."""

import numpy as np
import pytest

import spherewave as sw
from spherewave.study import StudyConfig, run_study, trend_check


@pytest.fixture(scope="module")
def small_config():
    # coarse grid and short horizon keep unit tests fast; the acceptance
    # suite exercises the full default configuration
    return StudyConfig(n=63, m=8, ensemble=2, mu_values=(0.2, 0.05), T=0.5,
                       n_out=64, master_seed=321)


@pytest.fixture(scope="module")
def small_result(small_config):
    return run_study(small_config)


class TestConfig:
    def test_delta_range(self):
        with pytest.raises(sw.ConfigError):
            StudyConfig(delta=2.0)

    def test_mass_values_decreasing(self):
        with pytest.raises(sw.ConfigError):
            StudyConfig(mu_values=(0.1, 0.2))

    def test_mass_range(self):
        with pytest.raises(sw.ConfigError):
            StudyConfig(mu_values=(1.5, 0.1))

    def test_ensemble_positive(self):
        with pytest.raises(sw.ConfigError):
            StudyConfig(ensemble=0)

    def test_initial_data_on_manifold(self):
        cfg = StudyConfig()
        grid = cfg.grid()
        u0, v0 = cfg.initial_data(grid)
        assert sw.norm_l2(grid, u0) == pytest.approx(1.0, abs=1e-13)
        assert abs(sw.inner_l2(grid, u0, v0)) <= 1e-12 * sw.norm_l2(grid, v0)

    def test_levels_share_each_samples_stream(self, small_config, small_result):
        # common random numbers: every level steps sample j on one stream
        for row in small_result.rows:
            assert row.seed_key == (small_config.master_seed, 0, row.sample)
        keys = {row.seed_key for row in small_result.rows}
        assert len(keys) == small_config.ensemble
        assert small_result.provenance["child_keys"] == [
            list(row.seed_key) for row in small_result.rows]


class TestRemainderTerms:
    def test_equilibrium_all_terms_vanish(self):
        grid = sw.Grid1D(1.0, 63)
        basis = sw.build_basis(grid, 8, 2.0)
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 2, 1))
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=0.02)
        traj = sw.simulate(u0, sw.zero_field(grid), params, basis,
                           rng=sw.derive_stream(1, 0), stride=20, track_remainder=True)
        assert traj.j_norms.max() <= 1e-12
        assert traj.identity_residual.max() <= 1e-10

    def test_missing_accumulators_rejected(self):
        grid = sw.Grid1D(1.0, 63)
        basis = sw.build_basis(grid, 8, 2.0)
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1))
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=0.01)
        traj = sw.simulate(u0, sw.zero_field(grid), params, basis, stride=10)
        assert traj.j_norms is None and traj.identity_residual is None

    def test_streamed_rows_independent_of_stride(self):
        # 151 rows at stride 1 span three remainder chunks, the last one partial
        grid = sw.Grid1D(1.0, 63)
        basis = sw.build_basis(grid, 8, 2.0)
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                 + sw.sine_field(grid, 2, 2, 0.1))
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=0.015)
        runs = {stride: sw.simulate(u0, sw.zero_field(grid), params, basis,
                                    rng=sw.derive_stream(5, 0), stride=stride,
                                    track_remainder=True)
                for stride in (1, 3)}
        assert len(runs[1].t) == 151 and len(runs[3].t) == 51
        fine, coarse = runs[1], runs[3]
        np.testing.assert_allclose(fine.j_norms[::3], coarse.j_norms, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(fine.identity_residual[::3], coarse.identity_residual,
                                   rtol=1e-12, atol=0.0)
        assert fine.j_norms[-1, 5] > 0.0 and fine.identity_residual[-1] > 0.0

    def test_remainder_keeps_no_fields(self):
        grid = sw.Grid1D(1.0, 63)
        basis = sw.build_basis(grid, 8, 2.0)
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1))
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=0.01)
        runs = [sw.simulate(u0, sw.zero_field(grid), params, basis, rng=sw.derive_stream(6, 0),
                            stride=10, track_remainder=True, keep_fields=keep)
                for keep in (False, True)]
        assert runs[0].u_fields is None and runs[0].v_fields is None
        assert runs[1].u_fields.shape == (11, grid.n, 3)
        assert np.array_equal(runs[0].j_norms, runs[1].j_norms)
        assert np.array_equal(runs[0].identity_residual, runs[1].identity_residual)

    def test_instantaneous_term_halves_with_mass(self):
        # fixed path: the leading remainder term carries an explicit mass factor
        cfg = StudyConfig(n=63, m=8, T=0.5, n_out=64, master_seed=11)
        grid = cfg.grid()
        basis = cfg.basis(grid)
        u0, v0 = cfg.initial_data(grid)
        sups = []
        for mu in (0.2, 0.1):
            params = sw.SpdeParams.auto(grid, mu, cfg.T, projection=True,
                                        n_out=cfg.n_out)
            traj = sw.simulate(u0, v0, params, basis,
                               rng=sw.derive_stream(*cfg.child_key(0)),
                               stride=params.n_steps // cfg.n_out,
                               track_remainder=True)
            sups.append(traj.j_norms[:, 0].max())
        ratio = sups[0] / sups[1]
        assert 1.5 <= ratio <= 2.7

    def test_identity_residual_alpha_one(self):
        # the identity carries the exponent-scaled correction weight, so the
        # residual stays a pure discretisation quantity away from alpha = 1/2
        grid = sw.Grid1D(1.0, 63)
        basis = sw.build_basis(grid, 8, 2.0)
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                 + sw.sine_field(grid, 2, 2, 0.1))
        v0 = sw.zero_field(grid)
        rng = sw.derive_stream(19, 0)
        fine = np.sqrt(1e-4) * rng.standard_normal((2500, basis.m))
        sups = []
        for dt, inc in ((2e-4, fine.reshape(-1, 2, basis.m).sum(axis=1)),
                        (1e-4, fine)):
            params = sw.SpdeParams(grid=grid, mu=0.1, dt=dt, T=0.25,
                                   gamma=5.0, alpha=1.0)
            traj = sw.simulate(u0, v0, params, basis, increments=inc,
                               stride=params.n_steps // 50,
                               track_remainder=True)
            sups.append(traj.identity_residual.max())
        assert sups[1] < 0.75 * sups[0]

    def test_identity_residual_refines_with_dt(self):
        grid = sw.Grid1D(1.0, 63)
        basis = sw.build_basis(grid, 8, 2.0)
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                 + sw.sine_field(grid, 2, 2, 0.1))
        v0 = sw.zero_field(grid)
        T, mu = 0.25, 0.1
        dts = [2e-4, 1e-4]
        n_fine = int(round(T / dts[-1]))
        rng = sw.derive_stream(17, 0)
        fine = np.sqrt(dts[-1]) * rng.standard_normal((n_fine, basis.m))
        incs = {dts[1]: fine, dts[0]: fine.reshape(-1, 2, basis.m).sum(axis=1)}
        sups = []
        for dt in dts:
            params = sw.SpdeParams(grid=grid, mu=mu, dt=dt, T=T, gamma=5.0)
            traj = sw.simulate(u0, v0, params, basis, increments=incs[dt],
                               stride=params.n_steps // 50, track_remainder=True)
            sups.append(traj.identity_residual.max())
        assert sups[1] < 0.75 * sups[0]


class TestRunStudy:
    def test_determinism(self, small_config, small_result):
        again = run_study(small_config)
        assert again.to_json_dict() == small_result.to_json_dict()

    def test_rows_ordered_and_complete(self, small_result):
        res = small_result
        keys = [(r.mu_index, r.sample) for r in res.rows]
        assert keys == [(i, j) for i in range(2) for j in range(2)]
        assert all(r.errors["corrected"] >= 0.0 for r in res.rows)

    def test_aggregates_recomputable(self, small_config, small_result):
        res = small_result
        for i, lev in enumerate(res.levels):
            vals = [r.errors["corrected"] for r in res.rows
                    if r.mu_index == i and not r.failed]
            assert lev.mean_errors["corrected"] == pytest.approx(np.mean(vals), rel=1e-14)
            assert lev.count == small_config.ensemble

    def test_error_means_decrease(self, small_result):
        res = small_result
        means = res.mean_error_curve()
        assert means[1] < means[0]

    def test_extra_targets(self, small_config):
        res = run_study(small_config, extra_targets=("parabolic",))
        assert res.targets == ("corrected", "parabolic")
        assert all("parabolic" in r.errors for r in res.rows)

    def test_workers_match_sequential(self, small_config, small_result):
        par = run_study(small_config, workers=2)
        assert par.to_json_dict() == small_result.to_json_dict()

    def test_noise_free_small_mass_tracks_limit(self):
        # no noise and a tiny mass: the overdamped wave follows the limit flow
        cfg = StudyConfig(n=63, m=0, ensemble=1, mu_values=(1e-4,), T=0.5,
                          n_out=64)
        res = run_study(cfg)
        assert res.rows[0].errors["corrected"] <= 1e-2

    def test_mean_bounded_by_max(self, small_result):
        for i, lev in enumerate(small_result.levels):
            vals = [r.errors["corrected"] for r in small_result.rows
                    if r.mu_index == i]
            assert lev.mean_errors["corrected"] <= max(vals) + 1e-15

    def test_trend_check_fields(self, small_result):
        res = small_result
        tc = trend_check(res)
        assert set(tc) == {"mean_errors", "strictly_decreasing", "decay_factor", "passed"}


class TestScaling:
    def test_alpha_above_half_targets_parabolic(self):
        cfg = StudyConfig(n=63, m=8, ensemble=1, mu_values=(0.1,), T=0.25,
                          n_out=32, alpha=1.0)
        res = run_study(cfg)
        assert res.target == "parabolic"

    def test_small_alpha_needs_exploratory_flag(self):
        cfg = StudyConfig(n=63, m=8, ensemble=1, mu_values=(0.1,), T=0.25,
                          n_out=32, alpha=0.25)
        with pytest.raises(sw.ParameterError):
            run_study(cfg)
        res = run_study(cfg, exploratory=True, target="parabolic")
        assert res.rows[0].errors["parabolic"] >= 0.0


class TestBlockEngine:
    """The batched ensemble path against single trajectories and other blocks."""

    @pytest.fixture(scope="class")
    def config(self):
        return StudyConfig(n=63, m=8, ensemble=3, mu_values=(0.2, 0.05), T=0.5,
                           n_out=64, master_seed=321)

    @pytest.fixture(scope="class")
    def result(self, config):
        return run_study(config, extra_targets=("parabolic",))

    def test_rows_match_single_trajectory_oracle(self, config, result):
        grid = config.grid()
        basis = config.basis(grid)
        u0, v0 = config.initial_data(grid)
        targets = {}
        for name in ("corrected", "parabolic"):
            lp = sw.LimitParams.auto(grid, config.T, parabolic=(name == "parabolic"),
                                     n_out=config.n_out)
            targets[name] = sw.solve_limit(u0, lp, basis, stride=lp.n_steps // config.n_out,
                                           keep_fields=True).u_fields
        for row in result.rows:
            params = config.spde_params(row.mu, grid)
            traj = sw.simulate(u0, v0, params, basis, rng=sw.derive_stream(*row.seed_key),
                               stride=params.n_steps // config.n_out, track_remainder=True,
                               keep_fields=True)
            expected = {
                "energy_residual": np.abs(traj.energy - traj.energy[0]).max() / traj.energy[0],
                "identity_sup": traj.identity_residual.max(),
            }
            for name, fields in targets.items():
                expected[name] = max(sw.sobolev_norm(grid, traj.u_fields[r] - fields[r],
                                                     config.delta) for r in range(len(traj.t)))
            got = dict(row.errors, energy_residual=row.energy_residual,
                       identity_sup=row.identity_sup)
            for key, value in expected.items():
                assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
            assert np.allclose(row.j_sups, traj.j_norms.max(axis=0), rtol=1e-12, atol=0.0)
            assert row.theta_sup == pytest.approx(np.abs(traj.theta).max(), abs=1e-14)
            assert row.eta_sup == pytest.approx(np.abs(traj.eta).max(), abs=1e-14)

    def test_row_independent_of_block(self, config, result):
        # 3 samples form one block; 9 split into blocks [0, 4) and [4, 9);
        # 1 sample is a block of its own
        wider = run_study(StudyConfig(**{**vars(config), "ensemble": 9}),
                          extra_targets=("parabolic",))
        alone = run_study(StudyConfig(**{**vars(config), "ensemble": 1}),
                          extra_targets=("parabolic",))
        assert wider.work["blocks"] == 4 and result.work["blocks"] == 2
        by_key = {(r.mu_index, r.sample): r for r in wider.rows + alone.rows}
        for row in result.rows:
            assert by_key[(row.mu_index, row.sample)] == row
        assert [r.sample for r in alone.rows] == [0, 0]
        assert alone.rows == [r for r in result.rows if r.sample == 0]

    def test_blowup_is_per_sample(self, config, result, monkeypatch):
        # crafted increments: sample 1 gets one 1e200 kick (at every level,
        # since common random numbers share its stream)
        import spherewave.study as study_module

        real = study_module.derive_stream
        bad_key = config.child_key(1)

        class Crafted:
            def __init__(self, key):
                self.gen, self.key = real(*key), key

            def standard_normal(self, shape):
                draws = self.gen.standard_normal(shape)
                if self.key == bad_key:
                    draws[40] = 1e200
                return draws

        monkeypatch.setattr(study_module, "derive_stream", lambda *key: Crafted(key))
        crafted = run_study(config, extra_targets=("parabolic",))
        grid = config.grid()
        basis = config.basis(grid)
        u0, v0 = config.initial_data(grid)
        for row in crafted.rows:
            if row.seed_key != bad_key:
                continue
            params = config.spde_params(row.mu, grid)
            incs = np.sqrt(params.dt) * Crafted(bad_key).standard_normal(
                (params.n_steps, basis.m))
            with pytest.raises(sw.BlowUpError) as err:
                sw.simulate(u0, v0, params, basis, increments=incs)
            # step 41 takes the kick; its projection divides by an infinite norm
            assert row.blowup_step == err.value.step == 41
            assert row.failed and not row.errors
        others = [r for r in crafted.rows if r.seed_key != bad_key]
        assert others == [r for r in result.rows if r.seed_key != bad_key]
        assert [lev.failures for lev in crafted.levels] == [1, 1]
        assert not crafted.failed_checks

    def test_work_counters(self, config, result):
        steps = [config.spde_params(mu).n_steps for mu in config.mu_values]
        assert result.work == {
            "blocks": 2,
            "block_size": 8,
            "sample_steps": config.ensemble * sum(steps),
            "helmholtz_solves": sum(steps),
            "limit_steps": 2 * sw.LimitParams.auto(config.grid(), config.T,
                                                   n_out=config.n_out).n_steps,
        }
