"""Self-contained invariant suite behind the `check` subcommand.

Every structural identity the library relies on is exercised once, at small
fixed sizes: the algebraic oracles (triple cross, trace summation, mobility
inverse, formulation equivalence), the quadrature and spectrum identities,
the noise statistics, an exact equilibrium and one short dynamic run, which
the energy-identity and tangent-residual checks both read.  CHECKS is the
one table of them: each entry names a check once, and the check draws from
its own stream, keyed by CHECK_SEED and its name, so adding, removing or
reordering a check moves no other check's numbers.  The dynamic run is made
once per `mutate` value, on its own stream keyed "dynamic-run".  With
`mutate` the wave checks step on a kernel phi of the wrong sign
(_wave_basis), so a flipped Ito correction demonstrates that the
energy-identity check detects it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .fields import (
    Grid1D,
    cross,
    dst_ortho,
    eigenvalue,
    h1_seminorm_sq,
    inner_l2,
    laplacian,
    norm_l2,
    norm_l2_sq,
    normalize_sphere,
    project_tangent,
    sine_field,
    sobolev_norm,
    triple_cross,
    zero_field,
)
from .limit import (
    LimitParams,
    explicit_form_residual,
    limit_rhs,
    limit_rows,
    mobility_apply_inverse,
)
from .noise import build_basis, derive_stream, noise_field, strat_correction
from .spde import SpdeParams, SpdeStepper, simulate

__all__ = ["CheckResult", "CHECK_NAMES", "run_check", "run_all"]

CHECK_SEED = 20240811


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_field(grid: Grid1D, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((3, grid.n))


def _grid() -> Grid1D:
    return Grid1D(1.0, 63)


def _check_quadrature(rng) -> tuple[bool, str]:
    grid = _grid()
    worst = 0.0
    for _ in range(50):
        f, g, w = (_random_field(grid, rng) for _ in range(3))
        a, b = rng.standard_normal(2)
        sym = abs(inner_l2(grid, f, g) - inner_l2(grid, g, f))
        lin = abs(inner_l2(grid, a * f + b * g, w)
                  - a * inner_l2(grid, f, w) - b * inner_l2(grid, g, w))
        scale = 1.0 + norm_l2(grid, f) * norm_l2(grid, g) + norm_l2(grid, w)
        worst = max(worst, sym / scale, lin / scale)
    return worst <= 1e-13, f"max residual {worst:.2e}"


def _check_adjointness(rng) -> tuple[bool, str]:
    grid = _grid()
    worst = 0.0
    for _ in range(50):
        f, g = _random_field(grid, rng), _random_field(grid, rng)
        left = inner_l2(grid, -laplacian(grid, f), g)
        right = inner_l2(grid, f, -laplacian(grid, g))
        worst = max(worst, abs(left - right) / (1.0 + abs(left)))
    return worst <= 1e-12, f"max relative defect {worst:.2e}"


def _check_eigenvectors(_rng) -> tuple[bool, str]:
    grid = _grid()
    worst = 0.0
    for k in range(1, grid.n + 1):
        f = sine_field(grid, k, 1 + (k % 3))
        defect = laplacian(grid, f) + eigenvalue(grid, k) * f
        worst = max(worst, float(np.abs(defect).max()) / eigenvalue(grid, k))
    return worst <= 1e-12, f"max scaled defect over all modes {worst:.2e}"


def _check_triple_cross(rng) -> tuple[bool, str]:
    h = rng.standard_normal((3, 1000))
    k = rng.standard_normal((3, 1000))
    err = float(np.abs(triple_cross(h, k) - np.cross(h, np.cross(h, k, axis=0), axis=0)).max())
    return err <= 1e-13, f"max error {err:.2e}"


def _check_spectrum_roundtrip(rng) -> tuple[bool, str]:
    grid = _grid()
    f = _random_field(grid, rng)
    back = dst_ortho(dst_ortho(f))
    err = float(np.abs(back - f).max() / np.abs(f).max())
    return err <= 1e-12, f"relative error {err:.2e}"


def _check_sobolev(rng) -> tuple[bool, str]:
    grid = _grid()
    worst = 0.0
    for _ in range(20):
        f = _random_field(grid, rng)
        l2 = abs(sobolev_norm(grid, f, 0.0) - norm_l2(grid, f)) / norm_l2(grid, f)
        h1 = np.sqrt(h1_seminorm_sq(grid, f))
        h1_err = abs(sobolev_norm(grid, f, 1.0) - h1) / h1
        worst = max(worst, l2, h1_err)
    return worst <= 1e-10, f"max relative gap {worst:.2e}"


def _check_projection(rng) -> tuple[bool, str]:
    grid = _grid()
    worst = 0.0
    for _ in range(50):
        u, v = _random_field(grid, rng), _random_field(grid, rng)
        w = project_tangent(grid, u, v)
        scale = norm_l2(grid, u) * norm_l2(grid, v)
        worst = max(worst, abs(inner_l2(grid, u, w)) / scale,
                    norm_l2(grid, project_tangent(grid, u, w) - w) / (1.0 + norm_l2(grid, v)))
    return worst <= 1e-12, f"max orthogonality/idempotence defect {worst:.2e}"


def _check_normalization(rng) -> tuple[bool, str]:
    grid = _grid()
    worst = 0.0
    for _ in range(20):
        u = _random_field(grid, rng)
        worst = max(worst, abs(norm_l2(grid, normalize_sphere(grid, u)) - 1.0),
                    float(np.abs(normalize_sphere(grid, 7.0 * u)
                                 - normalize_sphere(grid, u)).max()))
    return worst <= 1e-13, f"max defect {worst:.2e}"


def _check_trace_oracle(rng) -> tuple[bool, str]:
    grid = _grid()
    basis = build_basis(grid, 12, 2.0)
    worst = 0.0
    for _ in range(100):
        u, v = _random_field(grid, rng), _random_field(grid, rng)
        direct = zero_field(grid)
        for i in range(basis.m):
            xi = basis.xi[i]
            direct += cross(u, cross(u, v) * xi) * xi
        fast = strat_correction(u, v, basis)
        worst = max(worst, float(np.abs(fast - direct).max() / (1.0 + np.abs(fast).max())))
    return worst <= 1e-12, f"max relative gap over 100 pairs {worst:.2e}"


def _check_energy_neutrality(rng) -> tuple[bool, str]:
    grid = _grid()
    basis = build_basis(grid, 12, 2.0)
    worst = 0.0
    for _ in range(50):
        u, v = _random_field(grid, rng), _random_field(grid, rng)
        uxv = cross(u, v)
        lhs = np.einsum("ij,ij->j", uxv, uxv) * basis.phi
        rhs = np.einsum("ij,ij->j", v, strat_correction(u, v, basis))
        scale = 1.0 + np.abs(lhs).max()
        worst = max(worst, float(np.abs(lhs + rhs).max() / scale))
    return worst <= 1e-12, f"max pointwise defect {worst:.2e}"


def _check_noise_orthogonality(rng) -> tuple[bool, str]:
    grid = _grid()
    basis = build_basis(grid, 12, 2.0)
    worst = 0.0
    for _ in range(20):
        u, v = _random_field(grid, rng), _random_field(grid, rng)
        kick = noise_field(u, v, basis, np.sqrt(1e-3) * rng.standard_normal(basis.m))
        scale = 1.0 + float(np.abs(kick).max())
        worst = max(worst,
                    float(np.abs(np.einsum("ij,ij->j", u, kick)).max() / scale),
                    float(np.abs(np.einsum("ij,ij->j", v, kick)).max() / scale))
    return worst <= 1e-12, f"max pointwise component {worst:.2e}"


def _check_phi_monotone(_rng) -> tuple[bool, str]:
    grid = _grid()
    phis = [build_basis(grid, m, 2.0).phi for m in (1, 2, 4, 8, 16)]
    ok = all(np.all(b >= a - 1e-15) for a, b in zip(phis, phis[1:]))
    return ok, "phi nondecreasing in mode count"


def _check_increments(_rng) -> tuple[bool, str]:
    grid = _grid()
    basis = build_basis(grid, 4, 2.0)
    dt = 2.5e-3
    s1 = derive_stream(99, 0, 1)
    s2 = derive_stream(99, 0, 1)
    same = np.array_equal(s1.standard_normal(basis.m), s2.standard_normal(basis.m))
    draws = derive_stream(99, 0, 2).standard_normal(100_000) * np.sqrt(dt)
    mean_ok = abs(draws.mean()) <= 4.0 * np.sqrt(dt / len(draws))
    var_ok = abs(draws.var() / dt - 1.0) <= 0.05
    a = derive_stream(99, 1, 0).standard_normal(10_000)
    b = derive_stream(99, 2, 0).standard_normal(10_000)
    corr_ok = abs(np.corrcoef(a, b)[0, 1]) < 0.05
    passed = same and mean_ok and var_ok and corr_ok
    return passed, (f"replay={same}, mean-in-4sigma={mean_ok}, var-within-5%={var_ok}, "
                    f"cross-stream-corr<0.05={corr_ok}")


def _check_mobility(rng) -> tuple[bool, str]:
    grid = _grid()
    worst = 0.0
    for _ in range(100):
        u, r = _random_field(grid, rng), _random_field(grid, rng)
        phi = 10.0 * rng.random(grid.n)
        gamma = 0.5 + 2.0 * rng.random()
        x = mobility_apply_inverse(u, phi, gamma, r)
        uu = np.einsum("ij,ij->j", u, u)
        ux = np.einsum("ij,ij->j", u, x)
        back = (gamma + 0.5 * phi * uu) * x - 0.5 * phi * ux * u
        worst = max(worst, float(np.abs(back - r).max() / (1.0 + np.abs(r).max())))
    return worst <= 1e-13, f"max multiply-back error over 100 draws {worst:.2e}"


def _check_formulation(rng) -> tuple[bool, str]:
    grid = _grid()
    basis = build_basis(grid, 12, 2.0)
    params = LimitParams.auto(grid, 0.1)
    worst = 0.0
    for _ in range(100):
        u = normalize_sphere(grid, _random_field(grid, rng))
        resid = explicit_form_residual(u, limit_rhs(u, basis, params), basis, params)
        scale = 1.0 + norm_l2_sq(grid, laplacian(grid, u))
        worst = max(worst, resid / scale)
    return worst <= 1e-10, f"max scaled residual over 100 sphere fields {worst:.2e}"


def _check_sphere_generator(rng) -> tuple[bool, str]:
    grid = _grid()
    basis = build_basis(grid, 12, 2.0)
    worst = 0.0
    for gamma in (1.0, 2.5):
        params = LimitParams.auto(grid, 0.1, gamma=gamma)
        for _ in range(50):
            u = _random_field(grid, rng) * 0.5
            lhs = inner_l2(grid, u, limit_rhs(u, basis, params))
            rhs = h1_seminorm_sq(grid, u) * (norm_l2_sq(grid, u) - 1.0) / gamma
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return worst <= 1e-10, f"max relative defect {worst:.2e}"


def _wave_basis(basis, mutate: bool):
    """The basis a wave check steps on: `basis`, or with mutate its kernel phi negated."""
    return replace(basis, phi=-basis.phi) if mutate else basis


def _check_equilibrium(rng, mutate: bool) -> tuple[bool, str]:
    grid = _grid()
    basis = build_basis(grid, 8, 2.0)
    u0 = normalize_sphere(grid, sine_field(grid, 3, 2))
    params = SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1e-3)
    stepper = SpdeStepper(params, _wave_basis(basis, mutate), u0, zero_field(grid))
    increments = np.sqrt(params.dt) * rng.standard_normal((params.n_steps, basis.m))
    drifts = []   # |u - u0| and |v| at every step, from the start (0 and 0)
    stepper.run(increments, range(params.n_steps + 1), lambda _r: drifts.extend(
        (float(np.abs(stepper.u - u0).max()), float(np.abs(stepper.v).max()))))
    drift_sup = max(drifts)
    # the flow's state is a new array at every row
    states = [flow.u for _, flow in limit_rows(u0, LimitParams.auto(grid, 0.1), basis)]
    limit_drift = float(np.abs(np.diff(states, axis=0)).max())
    passed = drift_sup <= 1e-12 and limit_drift <= 1e-12
    return passed, f"stepper drift {drift_sup:.2e}, limit per-step drift {limit_drift:.2e}"


def _stream(name: str) -> np.random.Generator:
    """The stream keyed by CHECK_SEED and `name`."""
    return derive_stream(CHECK_SEED, zlib.crc32(name.encode()))


@cache
def _dynamic_run(mutate: bool):
    """The trajectory of both dynamic checks, run once per `mutate` value on its own stream."""
    # gamma = 5 keeps the transverse constraint amplification e^{s t} mild,
    # so the correct correction passes cleanly and a flipped sign fails loudly
    grid = _grid()
    basis = _wave_basis(build_basis(grid, 8, 2.0), mutate)
    u0 = normalize_sphere(grid, sine_field(grid, 1, 1) + sine_field(grid, 2, 2, 0.2))
    params = SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=0.25, gamma=5.0)
    return simulate(u0, zero_field(grid), params, basis, rng=_stream("dynamic-run"), stride=50)


def _check_energy_identity(_rng, mutate: bool) -> tuple[bool, str]:
    traj = _dynamic_run(mutate)
    drift = float(np.abs(traj.energy - traj.energy[0]).max() / traj.energy[0])
    return drift <= 2e-3, f"relative energy drift {drift:.2e} (tolerance 2e-3)"


def _check_constraint_drift(_rng, mutate: bool) -> tuple[bool, str]:
    traj = _dynamic_run(mutate)
    sup = float((np.abs(traj.theta) + np.abs(traj.eta)).max())
    return sup <= 2e-3, f"sup |theta|+|eta| = {sup:.2e} (tolerance 2e-3)"


# name: (check, whether the check takes the mutation); every check
# returns (passed, detail)
CHECKS = {
    "quadrature-bilinearity": (_check_quadrature, False),
    "summation-by-parts-adjointness": (_check_adjointness, False),
    "laplacian-eigenvectors": (_check_eigenvectors, False),
    "triple-cross-identity": (_check_triple_cross, False),
    "sine-spectrum-roundtrip": (_check_spectrum_roundtrip, False),
    "sobolev-norm-consistency": (_check_sobolev, False),
    "tangent-projection": (_check_projection, False),
    "sphere-normalization": (_check_normalization, False),
    "trace-oracle-equivalence": (_check_trace_oracle, False),
    "noise-energy-neutrality": (_check_energy_neutrality, False),
    "noise-orthogonality": (_check_noise_orthogonality, False),
    "phi-monotone-in-modes": (_check_phi_monotone, False),
    "increment-determinism": (_check_increments, False),
    "mobility-inverse": (_check_mobility, False),
    "formulation-equivalence": (_check_formulation, False),
    "sphere-invariance-generator": (_check_sphere_generator, False),
    "equilibrium-fixed-point": (_check_equilibrium, True),
    "energy-identity": (_check_energy_identity, True),
    "constraint-residual-drift": (_check_constraint_drift, True),
}
CHECK_NAMES = tuple(CHECKS)


def run_check(name: str, mutate: bool = False) -> CheckResult:
    """Run the check called `name` on its own stream; mutate flips the wave checks' kernel."""
    check, mutable = CHECKS[name]
    rng = _stream(name)
    passed, detail = check(rng, mutate) if mutable else check(rng)
    return CheckResult(name, passed, detail)


def run_all(mutate: bool = False) -> list[CheckResult]:
    """Run every invariant check once, in the order of CHECKS."""
    return [run_check(name, mutate) for name in CHECK_NAMES]
