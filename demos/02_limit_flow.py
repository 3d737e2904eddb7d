"""The deterministic limit flow and its structural identities.

The limit evolution can be written two ways: a divergence form whose time
derivative hides inside a product, and a mobility form in which du/dt is
obtained by inverting the pointwise 3x3 matrix

    M = (gamma + phi |u|^2 / 2) I - (phi/2) u u^T,       M u = gamma u.

The solver steps the mobility form with ETDRK2: A_h/gamma exactly in the
sine basis, the rest explicitly, each step projected back onto the sphere.
There is no step bound; dt follows the accuracy rule
dt <= gamma / (200 lambda_{h,1}), which the energy inequality's row gate
sets: its dissipation integral int |u_t|^2 is taken to fourth order (the
trapezoid plus the Euler-Maclaurin end correction).  The divergence form is
kept as a residual oracle.  This script demonstrates: the equivalence of the
two forms, exact equilibria at discrete sine eigenfields, sphere invariance
and the projection defect, the energy inequality, and the two-solution
comparison bound.
"""

import numpy as np

import spherewave as sw
from spherewave.limit import LimitParams


def main():
    grid = sw.Grid1D(1.0, 127)
    basis = sw.build_basis(grid, m=16, p=2.0)
    params = LimitParams.auto(grid, T=1.0, n_out=256)
    rng = np.random.default_rng(7)

    u = sw.normalize_sphere(grid, rng.standard_normal((3, grid.n)))
    resid = sw.explicit_form_residual(u, sw.limit_rhs(u, basis, params), basis, params)
    print(f"divergence-form residual at the mobility velocity: {resid:.2e}")

    eig = sw.normalize_sphere(grid, sw.sine_field(grid, 2, 1))
    print(f"mobility velocity at a sine eigenfield: "
          f"{sw.norm_l2(grid, sw.limit_rhs(eig, basis, params)):.2e}")

    u0 = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1)
                             + sw.sine_field(grid, 2, 2, 0.1))
    traj = sw.solve_limit(u0, params, basis, stride=params.n_steps // 256)
    print(f"\nrelaxation run to T=1 ({params.n_steps} steps, dt={params.dt:.2e}):")
    print(f"  |u|_H1: {traj.u_h1[0]:.4f} -> {traj.u_h1[-1]:.4f}"
          f"  (ground state: {np.sqrt(sw.eigenvalue(grid, 1)):.4f})")
    print(f"  sup | |u|_H - 1 | = {traj.sphere_residual.max():.2e} after projection,"
          f" {traj.projection_defect.max():.2e} before")
    slack = (traj.energy_lhs - traj.energy_rhs).max()
    print(f"  energy inequality: max(LHS - RHS) = {slack:.2e} (must be <= 0)")

    w = sw.field_from_modes(grid, [(k, d, rng.standard_normal())
                                   for k in range(1, 9) for d in (1, 2, 3)])
    w /= sw.norm_l2(grid, w)
    comp_params = LimitParams.auto(grid, T=0.25, n_out=64)
    print("\ntwo-solution comparison (perturbed initial data):")
    for eps in (1e-2, 1e-3):
        u20 = sw.normalize_sphere(grid, u0 + eps * w)
        comp = sw.comparison_experiment(u0, u20, comp_params, basis,
                                        stride=comp_params.n_steps // 64)
        print(f"  eps={eps:7.0e}: |du0|_H1^2 = {comp.initial_dist_h1_sq:.3e},"
              f" fitted c1 = {comp.c1:.3f}, c2 = {comp.c2:.3f}")
    print("  (overlaying normalized curves and stable c2 verify the "
          "exponential comparison bound)")


if __name__ == "__main__":
    main()
