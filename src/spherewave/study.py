"""Small-mass Monte Carlo studies: mass sweeps, error decay, remainder terms.

For a decreasing grid of masses and an ensemble of Brownian paths, each
stochastic trajectory is compared against the deterministic limit flow
(solved once per target) in the sup-in-time fractional Sobolev norm.  Mass
levels share random numbers: the child stream of sample j is derived from
(master seed, 0, j), so every level draws the same N(0, 1) sequence for
sample j; criterion 7 compares each sample's remainder sups across levels
under this pairing.  Each level consumes that sequence on its own time
grid, one number per step and mode scaled by sqrt(dt), so the Brownian path
W(t) of sample j differs between levels and the coupling is partial: in
the default study the per-sample errors of level 0 correlate with those of
levels 1-3 at 0.62, 0.11 and -0.21.

The six-term remainder of the integrated identity (spde.remainder_norms) is
evaluated along every trajectory together with the residual of the full
identity, which is a pure time-discretisation quantity.

The ensemble runs on the batched engine of spde: each mass level is split
into near-equal contiguous blocks of at most BLOCK_SIZE samples, and a block
is stepped as one (S, n, 3) array.  At each output row the block is reduced
in place to running per-sample maxima (Sobolev errors against every target,
the six J norms, the identity residual, energy and constraint residuals), so
no field snapshots are kept.  The split depends only on the configuration,
so every worker count gives the same bytes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, ParameterError
from .fields import Grid1D, dst_ortho, initial_pair, spectral_norm
from .limit import LimitParams, solve_limit
from .noise import NoiseBasis, build_basis, derive_stream
from .spde import SpdeParams, SpdeStepper, remainder_norms

__all__ = [
    "StudyConfig",
    "SampleRow",
    "LevelSummary",
    "StudyResult",
    "run_study",
    "trend_check",
]

TARGET_NAMES = ("corrected", "parabolic")
BLOCK_SIZE = 8           # most samples of one level stepped together
MAX_ENERGY_DRIFT = 0.1   # relative energy deviation that gates a sample out
FAILURE_BUDGET = 0.5     # share of failed samples a level may have


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of one mass sweep."""

    L: float = 1.0
    n: int = 127
    m: int = 16
    p: float = 2.0
    gamma: float = 1.0
    alpha: float = 0.5
    mu_values: tuple = (0.2, 0.1, 0.05, 0.025)
    ensemble: int = 16
    delta: float = 1.0
    T: float = 1.0
    u_modes: tuple = ((1, 1, 1.0), (2, 2, 0.1))
    # nonzero tangent v0 puts a mass-linear initial layer in the error budget,
    # which is what makes the decay across the mass grid steep at desk scale
    v_modes: tuple = ((1, 2, 2.0), (2, 3, 1.0))
    master_seed: int = 20240811
    n_out: int = 256
    cfl: float = 0.25
    dt: float | None = None
    # long-horizon production default: re-project each step so the unstable
    # transverse direction of the constraint manifold cannot amplify scheme
    # defects over T (rate ~ sqrt(2 |u|_{H1}^2 / mu) at small gamma)
    projection: bool = True

    def __post_init__(self):
        if not 0.0 <= self.delta < 2.0:
            raise ConfigError(f"error-norm order delta must lie in [0, 2), got {self.delta}")
        mus = tuple(self.mu_values)
        if not mus or any(not 0.0 < mu <= 1.0 for mu in mus):
            raise ConfigError(f"mass values must lie in (0, 1], got {mus}")
        if any(b >= a for a, b in zip(mus, mus[1:])):
            raise ConfigError(f"mass values must be strictly decreasing, got {mus}")
        if self.ensemble < 1:
            raise ConfigError(f"ensemble size must be >= 1, got {self.ensemble}")
        if self.alpha < 0.0:
            raise ConfigError(f"noise exponent must be nonnegative, got {self.alpha}")
        if not self.u_modes:
            raise ConfigError("initial data needs at least one mode")
        grid = self.grid()
        for mu in mus:
            try:
                self.spde_params(mu, grid)
            except ParameterError as exc:
                raise ConfigError(f"mass {mu}: {exc}") from exc

    def grid(self) -> Grid1D:
        return Grid1D(self.L, self.n)

    def basis(self, grid: Grid1D | None = None) -> NoiseBasis:
        return build_basis(grid or self.grid(), self.m, self.p)

    def initial_data(self, grid: Grid1D | None = None):
        return initial_pair(grid or self.grid(), self.u_modes, self.v_modes)

    def spde_params(self, mu: float, grid: Grid1D | None = None) -> SpdeParams:
        """Step parameters of one mass level; dt, when set, is the exact step."""
        return SpdeParams.auto(grid or self.grid(), mu, self.T, gamma=self.gamma,
                               alpha=self.alpha, projection=self.projection, cfl=self.cfl,
                               n_out=self.n_out, dt=self.dt)

    def child_key(self, sample: int) -> tuple:
        """Stream key of sample j, the same at every mass level."""
        return (self.master_seed, 0, sample)


@dataclass
class SampleRow:
    """Per-(mass, sample) outcome of the sweep."""

    mu_index: int
    mu: float
    sample: int
    seed_key: tuple
    dt: float
    errors: dict
    energy_residual: float
    theta_sup: float
    eta_sup: float
    j_sups: tuple
    identity_sup: float
    blowup_step: int | None = None
    gates: tuple = ()

    @property
    def failed(self) -> bool:
        return self.blowup_step is not None or bool(self.gates)


@dataclass
class LevelSummary:
    mu: float
    count: int
    failures: int
    mean_errors: dict
    std_errors: dict
    max_j_sup: float


@dataclass
class StudyResult:
    """Aggregated sweep output; rows are ordered by (mass index, sample)."""

    config: dict
    target: str
    targets: tuple
    rows: list
    levels: list
    provenance: dict
    failed_checks: tuple = ()
    work: dict = field(default_factory=dict)

    def mean_error_curve(self, target: str | None = None) -> np.ndarray:
        name = target or self.target
        return np.array([lev.mean_errors[name] for lev in self.levels])

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "target": self.target,
            "targets": list(self.targets),
            "mu_values": [lev.mu for lev in self.levels],
            "mean_error": [lev.mean_errors[self.target] for lev in self.levels],
            "levels": [asdict(lev) for lev in self.levels],
            "rows": [asdict(row) for row in self.rows],
            "failed_checks": list(self.failed_checks),
            "provenance": self.provenance,
        }


def _resolve_targets(config: StudyConfig, target: str, extra_targets) -> tuple[str, tuple]:
    if target == "auto":
        target = "parabolic" if config.alpha > 0.5 else "corrected"
    names = (target,) + tuple(extra_targets)
    for name in names:
        if name not in TARGET_NAMES:
            raise ParameterError(f"unknown target {name!r}; expected one of {TARGET_NAMES}")
    # preserve order, drop duplicates
    uniq = tuple(dict.fromkeys(names))
    return target, uniq


def _solve_targets(config: StudyConfig, grid: Grid1D, basis: NoiseBasis,
                   u0: np.ndarray, names: tuple) -> tuple[dict, int]:
    """Fields (rows, n, 3) of every target at the output rows, and the limit steps."""
    fields, steps = {}, 0
    for name in names:
        lp = LimitParams.auto(grid, config.T, gamma=config.gamma,
                              parabolic=(name == "parabolic"), n_out=config.n_out)
        traj = solve_limit(u0, lp, basis, stride=lp.n_steps // config.n_out,
                           keep_fields=True)
        fields[name] = traj.u_fields
        steps += lp.n_steps
    return fields, steps


def _blocks(config: StudyConfig, grid: Grid1D) -> list[tuple[int, range]]:
    """(mass index, samples) of every block, costliest first.

    Each level is split into near-equal contiguous blocks of at most
    BLOCK_SIZE samples; the split depends on the configuration only.
    """
    count = -(-config.ensemble // BLOCK_SIZE)
    bounds = [config.ensemble * b // count for b in range(count + 1)]
    steps = [config.spde_params(mu, grid).n_steps for mu in config.mu_values]
    blocks = [(i, range(lo, hi)) for i in range(len(config.mu_values))
              for lo, hi in zip(bounds, bounds[1:])]
    return sorted(blocks, key=lambda block: -steps[block[0]] * len(block[1]))


def _run_block(config: StudyConfig, grid: Grid1D, basis: NoiseBasis,
               u0: np.ndarray, v0: np.ndarray, targets: dict,
               mu_index: int, samples: range) -> tuple[list, dict]:
    """Step one block of a mass level and reduce it to one SampleRow per sample."""
    mu = config.mu_values[mu_index]
    params = config.spde_params(mu, grid)
    size = len(samples)
    increments = np.empty((params.n_steps, size, basis.m))
    for pos, sample in enumerate(samples):
        key = config.child_key(sample)
        increments[:, pos] = derive_stream(*key).standard_normal((params.n_steps, basis.m))
    increments *= np.sqrt(params.dt)
    engine = SpdeStepper(params, basis, np.broadcast_to(u0, (size,) + u0.shape),
                         np.broadcast_to(v0, (size,) + v0.shape),
                         track_remainder=True, samples=samples)

    errors = {name: np.zeros(size) for name in targets}
    energy0 = engine.energy()
    energy_dev, theta_sup, eta_sup = np.zeros(size), np.zeros(size), np.zeros(size)
    j_sup, identity_sup = np.zeros((size, 6)), np.zeros(size)

    def reduce_row(r: int):
        live = engine.samples - samples.start
        for name, fields in targets.items():
            err = spectral_norm(grid, dst_ortho(engine.u - fields[r]), config.delta)
            errors[name][live] = np.maximum(errors[name][live], err)
        dev = np.abs(engine.energy() - energy0[live])
        energy_dev[live] = np.maximum(energy_dev[live], dev)
        theta, eta = engine.constraints()
        theta_sup[live] = np.maximum(theta_sup[live], np.abs(theta))
        eta_sup[live] = np.maximum(eta_sup[live], np.abs(eta))
        norms, residual = remainder_norms(params, basis, engine.u0, engine.v0,
                                          engine.u, engine.v, engine.remainder)
        j_sup[live] = np.maximum(j_sup[live], norms)
        identity_sup[live] = np.maximum(identity_sup[live], residual)

    stride = params.n_steps // config.n_out
    engine.run(increments, list(range(0, params.n_steps + 1, stride)), reduce_row)

    blowups = {err.sample: err.step for err in engine.lost}
    rows = []
    for pos, sample in enumerate(samples):
        common = dict(mu_index=mu_index, mu=mu, sample=sample,
                      seed_key=config.child_key(sample), dt=params.dt)
        if sample in blowups:
            nan = float("nan")
            rows.append(SampleRow(**common, errors={}, energy_residual=nan, theta_sup=nan,
                                  eta_sup=nan, j_sups=(nan,) * 6, identity_sup=nan,
                                  blowup_step=blowups[sample]))
            continue
        energy_residual = float(energy_dev[pos] / energy0[pos])
        rows.append(SampleRow(
            **common,
            errors={name: float(sup[pos]) for name, sup in errors.items()},
            energy_residual=energy_residual,
            theta_sup=float(theta_sup[pos]),
            eta_sup=float(eta_sup[pos]),
            j_sups=tuple(float(x) for x in j_sup[pos]),
            identity_sup=float(identity_sup[pos]),
            gates=("energy-residual",) if energy_residual > MAX_ENERGY_DRIFT else (),
        ))
    work = {"block_steps": engine.step_index, "sample_steps": engine.sample_steps}
    return rows, work


def run_study(config: StudyConfig, *, target: str = "auto", extra_targets=(),
              exploratory: bool = False, workers: int = 1) -> StudyResult:
    """Run the mass sweep against one or more limit targets.

    target="auto" compares against the corrected flow at alpha = 1/2 and the
    parabolic flow above.  alpha < 1/2 has no proven limit and is admitted
    only with exploratory=True (no acceptance claims attach).

    The blocks of every level go to `workers` processes, costliest first;
    the rows do not depend on the worker count.  Per-trajectory blow-ups
    and gate violations are recorded, not fatal;
    a failed check is raised into StudyResult.failed_checks when any mass
    level exceeds the failure budget.
    """
    if config.alpha < 0.5 and not exploratory:
        raise ParameterError(
            "noise exponents below 1/2 are exploratory; pass exploratory=True")
    primary, names = _resolve_targets(config, target, extra_targets)
    grid = config.grid()
    basis = config.basis(grid)
    u0, v0 = config.initial_data(grid)
    targets, limit_steps = _solve_targets(config, grid, basis, u0, names)

    blocks = _blocks(config, grid)
    jobs = [(config, grid, basis, u0, v0, targets, i, samples) for i, samples in blocks]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_block, *zip(*jobs)))
    else:
        done = [_run_block(*job) for job in jobs]
    rows = sorted((row for block_rows, _ in done for row in block_rows),
                  key=lambda row: (row.mu_index, row.sample))
    work = {
        "blocks": len(blocks),
        "block_size": BLOCK_SIZE,
        "sample_steps": sum(counts["sample_steps"] for _, counts in done),
        # one banded solve on all columns of a block per step
        "helmholtz_solves": sum(counts["block_steps"] for _, counts in done),
        "limit_steps": limit_steps,
    }

    levels = []
    failed_checks = []
    for i, mu in enumerate(config.mu_values):
        level_rows = [row for row in rows if row.mu_index == i]
        good = [row for row in level_rows if not row.failed]
        failures = len(level_rows) - len(good)
        if failures > FAILURE_BUDGET * len(level_rows):
            names_failed = {g for row in level_rows for g in row.gates}
            if any(row.blowup_step is not None for row in level_rows):
                names_failed.add("blow-up")
            failed_checks.append(f"mu={mu}: {failures}/{len(level_rows)} failures"
                                 f" ({', '.join(sorted(names_failed)) or 'unknown'})")
        mean_errors, std_errors = {}, {}
        for name in names:
            vals = np.array([row.errors[name] for row in good]) if good else np.array([np.nan])
            mean_errors[name] = float(vals.mean())
            std_errors[name] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        max_j = max((max(row.j_sups) for row in good), default=float("nan"))
        levels.append(LevelSummary(mu=mu, count=len(level_rows), failures=failures,
                                   mean_errors=mean_errors, std_errors=std_errors,
                                   max_j_sup=float(max_j)))

    provenance = {
        "master_seed": config.master_seed,
        "child_keys": [list(row.seed_key) for row in rows],
    }
    return StudyResult(config=asdict(config), target=primary, targets=names,
                       rows=rows, levels=levels, provenance=provenance,
                       failed_checks=tuple(failed_checks), work=work)


def trend_check(result: StudyResult, *, target: str | None = None,
                decay_factor: float = 0.5) -> dict:
    """Check the mean-error decay across the mass grid.

    Passes when the means are strictly decreasing and the last level is at
    most decay_factor times the first.
    """
    means = result.mean_error_curve(target)
    decreasing = bool(np.all(np.diff(means) < 0.0))
    decayed = bool(means[-1] <= decay_factor * means[0])
    return {
        "mean_errors": [float(x) for x in means],
        "strictly_decreasing": decreasing,
        "decay_factor": float(means[-1] / means[0]) if means[0] > 0 else float("nan"),
        "passed": decreasing and decayed,
    }
