"""Mass-sweep orchestration: remainder terms, coupling, determinism."""

import collections
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spherewave as sw
import spherewave.study as study_module
from spherewave.config import build_grid, resolve_config, spde_params_from
from spherewave.fields import step_count
from spherewave.limit import limit_rows
from spherewave.noise import brownian_increments
from spherewave.spde import BLOWUP_DIAGNOSTICS, SpdeStepper
from spherewave.study import (
    BLOCK_SIZE,
    REFINEMENT_STREAM,
    StudyConfig,
    _blocks,
    _run,
    _run_block,
    refinement_bias,
    run_study,
    trend_check,
)


def block_increments(config, params, samples, stream, draws_per_step):
    """A block's increments (n_steps, S, m), all of them, as its run reads them."""
    streams = [sw.derive_stream(*config.child_key(j, stream)) for j in samples]
    return np.array(list(brownian_increments(streams, config.m, params.dt, params.n_steps,
                                             draws_per_step)))


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

    @pytest.mark.parametrize("fields, reason", [
        ({"n_out": 0}, "n_out=0"),
        ({"n_out": -4}, "n_out=-4"),
        ({"n": 31, "m": 40}, "exceed the 31 grid modes"),
        ({"p": 1.0}, "decay exponent"),
        ({"m": -1}, "mode count"),
        ({"u_modes": ((128, 1, 1.0),)}, "mode index"),
        ({"v_modes": ((1, 4, 1.0),)}, "component"),
        ({"u_modes": ((1, 1, 0.0),)}, "zero field"),
        ({"n_out": 0, "dt": 1 / 2048}, "n_out=0"),
        ({"n_out": -4, "dt": 1 / 2048, "ensemble": 1, "mu_values": (0.2,)}, "n_out=-4"),
        ({"T": 0.0}, "T=0.0"),
        ({"T": -1.0}, "T=-1.0"),
        ({"T": 0.0, "dt": 1 / 2048}, "T=0.0"),
        ({"gamma": math.nan}, "friction"),
        ({"p": math.nan}, "decay exponent"),
        ({"alpha": math.inf}, "noise exponent"),
        ({"dt": math.nan}, "dt=nan"),
        ({"L": math.nan}, "domain length"),
        ({"T": math.inf}, "T=inf"),
        ({"master_seed": -1}, "master seed must be >= 0"),
    ])
    def test_refused_at_construction(self, fields, reason):
        # refused when the config is built, naming the fault, not inside the first pool job
        with pytest.raises(sw.ConfigError, match=reason):
            StudyConfig(**fields)

    @pytest.mark.parametrize("build, reason", [
        (lambda: sw.Grid1D(L=math.nan), "domain length"),
        (lambda: sw.Grid1D(L=math.inf), "domain length"),
        (lambda: sw.build_basis(sw.Grid1D(), 4, math.nan), "decay exponent"),
        (lambda: sw.LimitParams(sw.Grid1D(), 1 / 1024, 1.0, gamma=math.nan), "friction"),
        (lambda: sw.LimitParams(sw.Grid1D(), 1 / 1024, 1.0, gamma=math.inf), "friction"),
        (lambda: sw.SpdeParams(sw.Grid1D(), 0.1, 1 / 2048, 1.0, gamma=math.nan), "friction"),
        (lambda: sw.SpdeParams(sw.Grid1D(), 0.1, 1 / 2048, 1.0, alpha=math.inf), "noise exponent"),
        (lambda: step_count(math.nan, 1.0), "dt=nan"),
        (lambda: step_count(1e-3, math.inf), "T=inf"),
        (lambda: sw.LimitParams(sw.Grid1D(), math.nan, 1.0), "dt=nan"),
        (lambda: sw.LimitParams.auto(sw.Grid1D(), 1.0, gamma=math.nan), "dt_max=nan"),
        (lambda: sw.LimitParams.auto(sw.Grid1D(), math.inf), "T=inf"),
        (lambda: sw.SpdeParams.auto(sw.Grid1D(), 0.1, math.inf, dt=1 / 2048), "T=inf"),
    ], ids=["L-nan", "L-inf", "p-nan", "limit-gamma-nan", "limit-gamma-inf", "spde-gamma-nan",
            "spde-alpha-inf", "step-dt-nan", "step-T-inf", "limit-dt-nan", "limit-auto-gamma-nan",
            "limit-auto-T-inf", "spde-auto-T-inf"])
    def test_non_finite_numbers_refused(self, build, reason):
        # NaN fails every comparison, so each rule is written to fail on it
        with pytest.raises(sw.ParameterError, match=reason):
            build()

    def test_auto_steps_need_an_output_row(self):
        with pytest.raises(sw.ParameterError, match="n_out=0"):
            sw.SpdeParams.auto(sw.Grid1D(), 0.1, 1.0, n_out=0)
        with pytest.raises(sw.ParameterError, match="n_out=0"):
            sw.LimitParams.auto(sw.Grid1D(), 1.0, n_out=0)
        # a given step obeys the same rule as a fitted one, and so does the horizon
        with pytest.raises(sw.ParameterError, match="n_out=0"):
            sw.SpdeParams.auto(sw.Grid1D(), 0.1, 1.0, n_out=0, dt=1 / 2048)
        for T in (0.0, -1.0):
            with pytest.raises(sw.ParameterError, match=f"T={T}"):
                sw.SpdeParams.auto(sw.Grid1D(), 0.1, T)
            with pytest.raises(sw.ParameterError, match=f"T={T}"):
                sw.SpdeParams.auto(sw.Grid1D(), 0.1, T, dt=1 / 2048)
            with pytest.raises(sw.ParameterError, match=f"T={T}"):
                sw.LimitParams.auto(sw.Grid1D(), T)

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


class TestRemainderTerms:
    def test_equilibrium_all_terms_vanish(self):
        grid = sw.Grid1D(1.0, 63)
        basis = sw.build_basis(grid, 8, 2.0)
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 2, 1))
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=0.02)
        traj = sw.simulate(u0, sw.zero_field(grid), params, basis,
                           rng=sw.derive_stream(1, 0), stride=20)
        assert traj.j_norms.max() <= 1e-12
        assert traj.identity_residual.max() <= 1e-10

    def test_streamed_rows_independent_of_stride(self):
        # 151 rows at stride 1 span three remainder chunks, the last one partial
        grid = sw.Grid1D(1.0, 63)
        basis = sw.build_basis(grid, 8, 2.0)
        u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                                 + sw.sine_field(grid, 2, 2, 0.1))
        params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=0.015)
        runs = {stride: sw.simulate(u0, sw.zero_field(grid), params, basis,
                                    rng=sw.derive_stream(5, 0), stride=stride)
                for stride in (1, 3)}
        assert len(runs[1].t) == 151 and len(runs[3].t) == 51
        fine, coarse = runs[1], runs[3]
        np.testing.assert_allclose(fine.j_norms[::3], coarse.j_norms, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(fine.identity_residual[::3], coarse.identity_residual,
                                   rtol=1e-12, atol=0.0)
        assert fine.j_norms[-1, 5] > 0.0 and fine.identity_residual[-1] > 0.0

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
                               stride=params.n_steps // cfg.n_out)
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
                               stride=params.n_steps // 50)
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
                               stride=params.n_steps // 50)
            sups.append(traj.identity_residual.max())
        assert sups[1] < 0.75 * sups[0]


class TestRunStudy:
    @pytest.mark.parametrize("projection", [True, False])
    def test_determinism(self, small_config, projection):
        config = replace(small_config, projection=projection)
        first, again = (run_study(config).to_json_dict() for _ in range(2))
        assert again == first

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
        # workers=4 gives a process to each of the two blocks; both start
        # while the caller solves the two targets, and wait on their rows
        seq, par = (run_study(small_config, extra_targets=("parabolic",), workers=workers)
                    for workers in (1, 4))
        assert par.targets == ("corrected", "parabolic")
        assert par.to_json_dict() == seq.to_json_dict()

    @pytest.mark.parametrize("workers", [0, -3])
    @pytest.mark.parametrize("run", [run_study, refinement_bias])
    def test_workers_below_one_refused(self, small_config, run, workers):
        with pytest.raises(sw.ParameterError, match=f"need at least one worker, got {workers}"):
            run(small_config, workers=workers)

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

    def test_trend_check_refuses_one_level(self, small_result):
        # one mean is trivially "strictly decreasing" with decay factor 1
        with pytest.raises(sw.ParameterError, match="at least two mass levels, got 1"):
            trend_check(replace(small_result, levels=small_result.levels[:1]))


class TestScaling:
    def test_alpha_above_half_targets_parabolic(self):
        cfg = StudyConfig(n=63, m=8, ensemble=1, mu_values=(0.1,), T=0.25,
                          n_out=32, alpha=1.0)
        res = run_study(cfg)
        assert res.target == "parabolic"

    def test_small_alpha_needs_exploratory_flag(self):
        # below 1/2 no limit is proven, so no study configuration admits it
        with pytest.raises(sw.ConfigError, match="exploratory"):
            StudyConfig(n=63, m=8, ensemble=1, mu_values=(0.1,), T=0.25, n_out=32, alpha=0.25)


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
        # the parabolic target is the limit flow of the silent basis, and
        # both targets take the one step rule of the limit flows
        lp = sw.LimitParams.auto(grid, config.T, n_out=config.n_out)
        for name, b in (("corrected", basis), ("parabolic", sw.build_basis(grid, 0, config.p))):
            targets[name] = [flow.u for _, flow in
                             limit_rows(u0, lp, b, stride=lp.n_steps // config.n_out)]
        for row in result.rows:
            params = config.spde_params(row.mu, grid)
            stride = params.n_steps // config.n_out
            dw = np.sqrt(params.dt) * sw.derive_stream(*row.seed_key).standard_normal(
                (params.n_steps, basis.m))
            traj = sw.simulate(u0, v0, params, basis, increments=dw, stride=stride)
            engine = SpdeStepper(params, basis, u0, v0)
            states = []
            engine.run(dw, list(range(0, params.n_steps + 1, stride)),
                       lambda r: states.append(engine.u.copy()))
            expected = {
                "energy_residual": np.abs(traj.energy - traj.energy[0]).max() / traj.energy[0],
                "identity_sup": traj.identity_residual.max(),
            }
            for name, fields in targets.items():
                expected[name] = max(sw.sobolev_norm(grid, states[r] - fields[r],
                                                     config.delta) for r in range(len(traj.t)))
            got = dict(row.errors, energy_residual=row.energy_residual,
                       identity_sup=row.identity_sup)
            for key, value in expected.items():
                assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
            assert np.allclose(row.j_sups, traj.j_norms.max(axis=0), rtol=1e-12, atol=0.0)

    def test_row_independent_of_block(self, config, result, monkeypatch):
        # 3 samples form one block; under a cap of 5, 9 split into blocks
        # [0, 4) and [4, 9); 1 sample is a block of its own
        monkeypatch.setattr("spherewave.study.BLOCK_SIZE", 5)
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

    @pytest.mark.parametrize("projection", [True, False], ids=["projected", "unprojected"])
    def test_blowup_is_per_sample(self, config, result, monkeypatch, projection):
        # crafted increments: sample 1 gets one 1e200 kick (at every level,
        # since common random numbers share its stream)
        if not projection:
            config = replace(config, projection=False)
            result = run_study(config, extra_targets=("parabolic",))
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
            # projected, the kick's step divides by an infinite norm; unprojected,
            # that step stays finite and the next one overflows
            assert row.blowup_step == err.value.step
            assert row.failed and not row.errors
        others = [r for r in crafted.rows if r.seed_key != bad_key]
        assert others == [r for r in result.rows if r.seed_key != bad_key]
        assert [lev.failures for lev in crafted.levels] == [1, 1]
        assert not crafted.failed_checks

    def test_work_counters(self, config, result):
        grid = config.grid()
        steps = [config.spde_params(mu).n_steps for mu in config.mu_values]
        assert result.work == {
            "blocks": 2,
            "block_size": BLOCK_SIZE,
            "sample_steps": config.ensemble * sum(steps),
            "helmholtz_solves": sum(steps),
            "limit_steps": 2 * sw.LimitParams.auto(grid, config.T, n_out=config.n_out).n_steps,
        }

    def test_default_levels_are_whole_blocks(self):
        assert _blocks(StudyConfig()) == [(i, range(0, 16)) for i in range(4)]

    def test_default_schedule(self):
        # the step counts and work of the default study, read off its parameters
        config = StudyConfig()
        grid = config.grid()
        steps = [config.spde_params(mu, grid).n_steps for mu in config.mu_values]
        assert steps == [768, 1024, 1280, 1792]
        blocks = _blocks(config)
        assert [i for i, _ in blocks] == [0, 1, 2, 3]
        assert sum(steps[i] * len(samples) for i, samples in blocks) == 77_824
        assert sum(steps[i] for i, _ in blocks) == 4_864   # helmholtz_solves
        # simulate's auto step follows the same rule (SpdeParams.auto)
        cfg = resolve_config({})
        assert spde_params_from(cfg, build_grid(cfg)).n_steps == 810

    def test_large_ensemble_splits_near_equal(self):
        config = StudyConfig(ensemble=40)
        blocks = _blocks(config)
        assert [i for i, _ in blocks] == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
        for level in range(len(config.mu_values)):
            mine = [s for i, s in blocks if i == level]
            assert [len(s) for s in mine] == [13, 13, 14]
            assert all(len(s) <= BLOCK_SIZE for s in mine)
            assert [x for s in mine for x in s] == list(range(40))


class TestConstraintDefects:
    """The step results' residuals | |u*|_H - 1 | and |<u*, v*>_H|, what a projection removes."""

    @pytest.mark.parametrize("mu", [0.2, 0.025])
    def test_defects_resolve_the_step(self, mu):
        # one path per sample, drawn at dt/4 and summed onto dt, dt/2 and dt/4
        config = StudyConfig(ensemble=4)
        params = config.spde_params(mu)
        sups = []
        for k in (1, 2, 4):
            rows, _ = _run_block(config, replace(params, dt=params.dt / k), {}, 0,
                                 range(config.ensemble), 0, 4 // k)
            sups.append([np.mean([row.norm_defect_sup for row in rows]),
                         np.mean([row.tangent_defect_sup for row in rows])])
        norm_order, tangent_order = np.polyfit(np.log2([1.0, 0.5, 0.25]), np.log2(sups), 1)[0]
        assert norm_order >= 1.8 and tangent_order >= 1.0, sups

    def test_unprojected_defects_are_the_state_residuals(self):
        # without projection u* is the state, so the defects are the sups over
        # every step of | |u|_H - 1 | = |sqrt(1 + 2 theta) - 1| and |eta|
        config = StudyConfig(n=63, m=8, ensemble=2, mu_values=(0.2, 0.1), T=0.5, n_out=64,
                             projection=False)
        grid = config.grid()
        basis = config.basis(grid)
        u0, v0 = config.initial_data(grid)
        for row in run_study(config).rows:
            params = config.spde_params(row.mu, grid)
            traj = sw.simulate(u0, v0, params, basis, rng=sw.derive_stream(*row.seed_key))
            norm_defect = np.abs(np.sqrt(1.0 + 2.0 * traj.theta) - 1.0)
            assert row.norm_defect_sup == pytest.approx(norm_defect.max(), rel=1e-12, abs=0.0)
            assert row.tangent_defect_sup == pytest.approx(np.abs(traj.eta).max(),
                                                           rel=1e-12, abs=0.0)
            # to first order the row-stride sups of |theta| and |eta|, which
            # the rows carried before the defects replaced them
            rows = slice(None, None, params.n_steps // config.n_out)
            assert row.norm_defect_sup == pytest.approx(np.abs(traj.theta[rows]).max(), rel=0.01)
            assert row.tangent_defect_sup == pytest.approx(np.abs(traj.eta[rows]).max(),
                                                           rel=0.01)
            assert row.norm_defect_sup > 1e-6   # the drift off the sphere shows

    @pytest.fixture(scope="class")
    def unprojected(self):
        # the study of {"study": {"ensemble": 5, "projection": false}} at its
        # two smallest masses, where every blow-up of that run happens
        config = StudyConfig(ensemble=5, projection=False, mu_values=(0.05, 0.025))
        return config, run_study(config)

    def test_unprojected_blowups_are_recorded_not_warned(self, unprojected):
        # huge but finite states overflow in the remainder integrands, their
        # left sums and the row reduction before they go non-finite; under
        # the suite's error::RuntimeWarning any warning there would raise
        _, result = unprojected
        blowups = [(row.mu, row.sample, row.blowup_step) for row in result.rows
                   if row.blowup_step is not None]
        assert blowups == [(0.05, 0, 1265), (0.05, 1, 1243), (0.025, 0, 1381),
                           (0.025, 1, 1356), (0.025, 2, 1389), (0.025, 3, 1408),
                           (0.025, 4, 1388)]
        assert len(result.failed_checks) == 2

    def test_blowups_carry_the_last_finite_diagnostics(self, unprojected):
        # each blown-up row records energy, theta, eta and u_h1 of the state
        # before its blow-up step: finite, and those of a lone run of the
        # sample stopped one step short of it; a healthy row records none
        config, result = unprojected
        for row in result.rows:
            if row.blowup_step is None:
                assert row.last_finite == {}
                continue
            assert list(row.last_finite) == list(BLOWUP_DIAGNOSTICS)
            assert np.isfinite(list(row.last_finite.values())).all(), row
        row = next(row for row in result.rows if (row.mu, row.sample) == (0.05, 1))
        grid = config.grid()
        basis = config.basis(grid)
        params = config.spde_params(row.mu, grid)
        increments = block_increments(config, params, range(row.sample, row.sample + 1), 0, 1)
        engine = SpdeStepper(params, basis, *config.initial_data(grid))
        for k in range(row.blowup_step - 1):
            engine.step(increments[k, 0])
        with np.errstate(all="ignore"):   # |u|_{H2} of this state overflows
            last = engine.diagnostics()
        assert [err.step for err in engine.step(increments[row.blowup_step - 1, 0])] == [
            row.blowup_step]
        assert row.last_finite == {name: float(last[name]) for name in BLOWUP_DIAGNOSTICS}


class TestBlockIncrements:
    @pytest.mark.parametrize("draws_per_step", [1, 2])
    def test_chunked_draws_are_one_whole_draw(self, small_config, monkeypatch, draws_per_step):
        # a block reads its increments ROW_CHUNK steps at a time (320 steps
        # end in a part chunk); the oracle draws each sample's stream whole
        # and sums draws_per_step draws onto each step
        def whole(streams, m, dt, n_steps, draws_per_step):
            draws = np.empty((n_steps * draws_per_step, len(streams), m))
            for pos, stream in enumerate(streams):
                draws[:, pos] = stream.standard_normal((len(draws), m))
            draws *= np.sqrt(dt / draws_per_step)
            if draws_per_step > 1:
                draws = draws.reshape(n_steps, draws_per_step, len(streams), m).sum(axis=1)
            return draws

        params = small_config.spde_params(small_config.mu_values[-1])
        args = (small_config, params, (), 1, range(2), REFINEMENT_STREAM, draws_per_step)
        chunked = _run_block(*args)
        monkeypatch.setattr(study_module, "brownian_increments", whole)
        assert params.n_steps == 320 and _run_block(*args) == chunked

    def test_memory_does_not_grow_with_the_steps(self, traced_peak):
        # the increments of a default block at the smallest mass, 1,792 steps,
        # and at 10x the steps, drawn as a run reads them: one chunk at a time
        config = StudyConfig()
        dt = config.spde_params(config.mu_values[-1]).dt

        def drain(T):
            params = replace(config, T=T, dt=dt).spde_params(config.mu_values[-1])
            streams = [sw.derive_stream(*config.child_key(j)) for j in range(BLOCK_SIZE)]
            return lambda: collections.deque(
                brownian_increments(streams, config.m, params.dt, params.n_steps), maxlen=0)

        drain(1.0)()   # first calls fill caches
        short, long = traced_peak(drain(1.0)), traced_peak(drain(10.0))
        assert long <= 1.1 * short, (short, long)


class TestRefinementBias:
    def test_coarse_path_sums_the_fine_one(self, small_config):
        grid = small_config.grid()
        params = small_config.spde_params(0.2, grid)
        fine = block_increments(small_config, replace(params, dt=params.dt / 2), range(2),
                                REFINEMENT_STREAM, 1)
        coarse = block_increments(small_config, params, range(2), REFINEMENT_STREAM, 2)
        assert np.array_equal(coarse, fine[0::2] + fine[1::2])
        # the study's own paths are another stream
        study = block_increments(small_config, params, range(2), 0, 1)
        assert not np.any(study == coarse)

    def test_default_step_passes(self):
        # the stream is REFINEMENT_STREAM at the default master seed, fixed beforehand
        levels = refinement_bias(StudyConfig(), workers=2)
        assert [lev["pairs"] for lev in levels] == [16] * 4
        assert all(lev["passed"] for lev in levels), levels

    def test_inflated_coarse_increments_fail(self, small_config, monkeypatch):
        # 16 samples: with 2 the SE is too wide to resolve a 10% louder noise
        config = replace(small_config, ensemble=16)
        assert all(lev["passed"] for lev in refinement_bias(config))
        real = study_module.brownian_increments

        def inflated(streams, m, dt, n_steps, draws_per_step):
            for dw in real(streams, m, dt, n_steps, draws_per_step):
                yield 1.1 * dw if draws_per_step > 1 else dw

        monkeypatch.setattr(study_module, "brownian_increments", inflated)
        levels = refinement_bias(config)
        assert not any(lev["passed"] for lev in levels), levels

    def test_small_alpha_refused(self, small_config):
        with pytest.raises(sw.ConfigError, match="no proven limit"):
            replace(small_config, alpha=0.25)


# A limit flow whose 51st step blows up, installed before the run starts.
# The first target fails, so the blocks must not wait on the second one,
# which is never finished.
FAILING_TARGET = """
import multiprocessing, sys
import spherewave.limit as limit
from spherewave import cli
from spherewave.errors import BlowUpError
from spherewave.study import StudyConfig, run_study

real = limit._Etd4Flow.advance

def advance(self, to=0):
    # the steps up to the 50th, then the 51st blows up
    if self.steps < 50:
        real(self, min(to, 50))
    if self.steps == 50 and to > 50:
        raise BlowUpError(self.steps + 1)

limit._Etd4Flow.advance = advance
workers = int(sys.argv[2])
try:
    run_study(StudyConfig(n=63, m=8, ensemble=2, mu_values=(0.2, 0.05), T=0.5, n_out=64),
              extra_targets=("parabolic",), workers=workers)
except BlowUpError as exc:
    print(type(exc).__name__, exc.step, exc.sample, str(exc), sep="|")
print("children", len(multiprocessing.active_children()))
print("exit", cli.main(["study", "-c", sys.argv[1], "--workers", str(workers)]))
print("children", len(multiprocessing.active_children()))
"""


class TestTargetJobs:
    """The limit targets solved by the caller, their rows shared with the block jobs."""

    def test_blowup_error_survives_pickling(self):
        last = {"energy": 1.5e300, "theta": 0.25, "eta": -3.0, "u_h1": 7.0}
        for err in (sw.BlowUpError(51, sample=3), sw.BlowUpError(7),
                    sw.BlowUpError(12, sample=0, diagnostics=last)):
            back = pickle.loads(pickle.dumps(err))
            assert type(back) is sw.BlowUpError
            assert ((str(back), back.step, back.sample, back.diagnostics)
                    == (str(err), err.step, err.sample, err.diagnostics))
        assert str(sw.BlowUpError(7)) == "non-finite field at step 7"
        assert str(back) == ("non-finite field at step 12 of sample 0 (last finite diagnostics:"
                             " energy=1.5e+300, theta=0.25, eta=-3, u_h1=7)")

    def test_blowups_name_their_mass_level(self):
        # unprojected, every sample of both levels blows up; a pool of 2
        # sends back each block's rows, which name the level, the blow-up
        # step and the last finite diagnostics, and its work counters alone
        config = StudyConfig(mu_values=(0.05, 0.025), ensemble=2, projection=False)
        blocks = [(config.spde_params(mu), i, range(2), 0, 1)
                  for i, mu in enumerate(config.mu_values)]
        _, done = _run(config, ("corrected",), blocks, workers=2)
        for (_, mu_index, *_), (rows, work) in zip(blocks, done):
            assert sorted(work) == ["block_steps", "sample_steps"]
            assert [row.sample for row in rows] == [0, 1]
            for row in rows:
                assert row.mu_index == mu_index and row.blowup_step > 0
                assert list(row.last_finite) == list(BLOWUP_DIAGNOSTICS)
                assert np.isfinite(list(row.last_finite.values())).all()
        # a refused start raises out of the pool with its level: the
        # costlier mu = 0.025 block is the first block job
        huge = replace(config, v_modes=((1, 2, 1e200),))
        with pytest.raises(sw.BlowUpError) as info:
            run_study(huge, workers=2)
        assert (info.value.step, info.value.sample, info.value.mu_index) == (0, 0, 1)
        assert str(info.value) == "non-finite field at step 0 of sample 0 at mass level 1"

    def test_caller_publishes_the_targets_row_by_row(self, small_config, monkeypatch):
        # row r of every target goes out at once, before row r + 1, all from
        # the caller, so no block waits on one target while another runs to T
        published = []
        real = study_module._TargetRows.publish

        def recorded(self, r, fields):
            published.append((os.getpid(), r, len(fields)))
            real(self, r, fields)

        monkeypatch.setattr(study_module._TargetRows, "publish", recorded)
        run_study(small_config, extra_targets=("parabolic",), workers=2)
        assert published == [(os.getpid(), r, 2) for r in range(small_config.n_out + 1)]

    def test_blocks_run_costliest_first(self, small_config, monkeypatch):
        calls = []
        real = study_module._run_block

        def recorded(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(study_module, "_run_block", recorded)
        run_study(small_config, extra_targets=("parabolic",))
        study_calls = calls[:]
        calls.clear()
        refinement_bias(small_config)
        for blocks, targets in ((study_calls, ("corrected", "parabolic")),
                                (calls, ("corrected",))):
            assert [args[2] for args in blocks] == [targets] * len(blocks)
            costs = [args[1].n_steps * len(args[4]) for args in blocks]
            assert costs == sorted(costs, reverse=True)
        # refinement_bias lists each level's fine grid (1 draw per step) next
        # to its coarse one (2 draws); the steps are 192 and 320 at the two
        # levels and twice that at the fine grids, so both fine grids lead
        assert [(args[3], args[-1]) for args in calls] == [(1, 1), (0, 1), (1, 2), (0, 2)]

    def test_pool_has_at_most_one_process_per_block(self, small_config, small_result,
                                                    monkeypatch):
        asked = []

        class LazyPool:
            """Runs the jobs here; its map is lazy, as a real pool's results are."""

            def __init__(self, max_workers, initializer, initargs, **_):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *_):
                return None

            def map(self, fn, *columns):
                return map(fn, *columns)

        monkeypatch.setattr(study_module, "ProcessPoolExecutor", LazyPool)
        result = run_study(small_config, workers=10_000)
        assert asked == [len(_blocks(small_config))]
        assert result.to_json_dict() == small_result.to_json_dict()

    def test_results_come_back_in_the_callers_order(self, small_config):
        # two blocks, cheapest first: the driver runs the costlier one first
        # and must still hand back the cheap block's result first
        blocks = [(small_config.spde_params(mu), i, range(1), 0, 1)
                  for i, mu in enumerate(small_config.mu_values)]
        assert blocks[0][0].n_steps < blocks[1][0].n_steps
        limit_steps, results = _run(small_config, ("corrected",), blocks, workers=1)
        assert limit_steps == sw.LimitParams.auto(small_config.grid(), small_config.T,
                                                  n_out=small_config.n_out).n_steps
        assert len(results) == 2
        for (params, mu_index, *_), (rows, _) in zip(blocks, results):
            assert [(row.mu_index, row.dt) for row in rows] == [(mu_index, params.dt)]

    def test_mixed_block_lengths_are_refused(self, small_config, monkeypatch):
        # a block without its stream and draws per step would be cut to the
        # shortest block's length by the transpose, and run on the study's
        # stream: the list is refused before any job or target runs
        ran = []
        monkeypatch.setattr(study_module, "_run_block", lambda *args: ran.append(args))
        monkeypatch.setattr(study_module, "_solve_targets", lambda *args: ran.append(args))
        params = small_config.spde_params(small_config.mu_values[0])
        blocks = [(params, 0, range(1), REFINEMENT_STREAM, 2), (params, 0, range(1))]
        with pytest.raises(ValueError, match="zip"):
            _run(small_config, ("corrected",), blocks, workers=1)
        assert ran == []

    def test_closing_fails_every_unfinished_target(self):
        # when a target fails after row 0, a block may already wait on row 1,
        # which is never published
        rows = study_module._TargetRows(multiprocessing.get_context(), (2, 2, 3, 4))
        fields = [np.ones((3, 4)), np.full((3, 4), 2.0)]
        rows.publish(0, fields)
        assert np.array_equal(rows.row(0), fields)
        errors = []

        def read():
            try:
                rows.row(1)
            except RuntimeError as exc:
                errors.append(str(exc))

        waiter = threading.Thread(target=read, daemon=True)
        waiter.start()
        rows.close()
        waiter.join(timeout=10)
        assert errors == ["the limit targets failed"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_target_raises_its_own_error(self, tmp_path, workers):
        # in a subprocess with a timeout, so that a deadlock fails instead of hanging
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "grid": {"n": 63}, "noise": {"m": 8}, "physics": {"mu_list": [0.2, 0.05]},
            "time": {"T": 0.5}, "study": {"ensemble": 2, "n_out": 64},
            "output": {"directory": str(tmp_path / "out")}}))
        src = str(Path(sw.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        with subprocess.Popen([sys.executable, "-c", FAILING_TARGET, str(config), str(workers)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=env, start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)   # the pool workers too
                pytest.fail("the failed target left the run hanging")
        assert proc.returncode == 0, err
        assert out.splitlines() == [
            "BlowUpError|51|None|non-finite field at step 51", "children 0", "exit 2",
            "children 0"]
        assert err == "numerical failure: non-finite field at step 51\n"
        assert not (tmp_path / "out" / "study.json").exists()
