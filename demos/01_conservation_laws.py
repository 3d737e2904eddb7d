"""Pathwise conservation laws of the constrained stochastic wave system.

The Stratonovich noise (u x v) dw is pointwise orthogonal to the velocity,
so along every Brownian path the energy

    E(t) = |u|_{H1}^2 + mu |v|_H^2 + 2 gamma int_0^t |v|_H^2 ds

is exactly conserved and the pair (u, v) stays on the tangent bundle
{|u|_H = 1, <u,v>_H = 0}.  This script integrates one path at three nested
time steps (coarser steps reuse the same increments, summed pairwise) and
prints how the discrete defects of both laws shrink.
"""

import numpy as np

import spherewave as sw


def main():
    grid = sw.Grid1D(1.0, 127)
    basis = sw.build_basis(grid, m=16, p=2.0)
    u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                             + sw.sine_field(grid, 2, 2, 0.1))
    v0 = sw.zero_field(grid)
    mu, gamma, T = 0.1, 5.0, 1.0

    dts = [1e-4, 5e-5, 2.5e-5]
    n_fine = int(round(T / dts[-1]))
    rng = sw.derive_stream(2024, 0, 0)
    fine = np.sqrt(dts[-1]) * rng.standard_normal((n_fine, basis.m))
    increments = {
        dts[2]: fine,
        dts[1]: fine.reshape(-1, 2, basis.m).sum(axis=1),
        dts[0]: fine.reshape(-1, 4, basis.m).sum(axis=1),
    }

    print(f"one Brownian path, mu={mu}, gamma={gamma}, T={T}")
    print(f"{'dt':>9} {'energy drift':>14} {'sup |theta|':>12} {'sup |eta|':>12}")
    for dt in dts:
        params = sw.SpdeParams(grid=grid, mu=mu, dt=dt, T=T, gamma=gamma)
        traj = sw.simulate(u0, v0, params, basis, increments=increments[dt],
                           stride=params.n_steps // 256)
        drift = np.abs(traj.energy - traj.energy[0]).max() / traj.energy[0]
        print(f"{dt:9.1e} {drift:14.3e} {np.abs(traj.theta).max():12.3e} "
              f"{np.abs(traj.eta).max():12.3e}")

    params = sw.SpdeParams(grid=grid, mu=mu, dt=dts[0], T=T, gamma=gamma,
                           projection=True)
    traj = sw.simulate(u0, v0, params, basis, increments=increments[dts[0]],
                       stride=params.n_steps // 256)
    print(f"\nwith per-step projection: sup |theta| = {np.abs(traj.theta).max():.2e},"
          f" sup |eta| = {np.abs(traj.eta).max():.2e}")

    energy0 = sw.SpdeStepper(params, basis, u0, v0).energy()
    print(f"\nenergy at t=0 reproduces |u0|_H1^2 + mu |v0|_H^2:"
          f" {energy0:.6f} vs"
          f" {sw.h1_seminorm_sq(grid, u0) + mu * sw.norm_l2_sq(grid, v0):.6f}")


if __name__ == "__main__":
    main()
