"""The six-term remainder behind the small-mass convergence.

Integrating the velocity equation in time and rearranging yields an exact
identity: the mass-weighted state equals the limit-equation integrals plus
a remainder R = (3 mu/2 gamma) phi (u0.v0) u0 + J_1 + ... + J_6, every term
carrying an explicit power of the mass.  This script shows, on one coupled
Brownian path, (a) each |J_i| shrinking as the mass is halved and (b) the
residual of the full identity - a pure time-discretisation quantity -
vanishing at first order under step refinement at fixed mass.
"""

import numpy as np

import spherewave as sw
from spherewave.study import StudyConfig


def main():
    config = StudyConfig()
    grid = config.grid()
    basis = config.basis(grid)
    u0, v0 = config.initial_data(grid)

    print("sup-in-time H-norms of the remainder terms (same stream per level):")
    print(f"{'mu':>7} {'J1':>9} {'J2':>9} {'J3':>9} {'J4':>9} {'J5':>9} {'J6':>9}")
    for mu in (0.2, 0.1, 0.05, 0.025):
        params = sw.SpdeParams.auto(grid, mu, config.T, projection=True,
                                    n_out=config.n_out)
        traj = sw.simulate(u0, v0, params, basis,
                           rng=sw.derive_stream(*config.child_key(0)),
                           stride=params.n_steps // config.n_out,
                           track_remainder=True)
        sups = traj.j_norms.max(axis=0)
        print(f"{mu:7.3f} " + " ".join(f"{s:9.4f}" for s in sups))

    print("\nidentity residual under step refinement (fixed mass 0.1, one path):")
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
                           stride=params.n_steps // 128, track_remainder=True)
        sups.append(traj.identity_residual.max())
        print(f"  dt={dt:7.1e}: sup residual = {sups[-1]:.3e}")
    slope = np.polyfit(np.log2(dts), np.log2(sups), 1)[0]
    print(f"empirical order in dt: {slope:.2f}")


if __name__ == "__main__":
    main()
