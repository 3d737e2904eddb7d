"""Small-mass Monte Carlo studies: mass sweeps, error decay, remainder terms.

For a decreasing grid of masses and an ensemble of Brownian paths, each
stochastic trajectory is compared against the deterministic limit flow
(solved once per target, by one job of the run) in the sup-in-time
fractional Sobolev norm.  Mass
levels share random numbers: the child stream of sample j is derived from
(master seed, 0, j), so every level draws the same N(0, 1) sequence for
sample j; criterion 7 compares each sample's remainder sups across levels
under this pairing.  Each level consumes that sequence on its own time
grid, one number per step and mode scaled by sqrt(dt), so the Brownian path
W(t) of sample j differs between levels and the coupling is partial: in
the default study the per-sample errors of level 0 correlate with those of
levels 1-3 at 0.41, -0.15 and -0.29.

The six-term remainder of the integrated identity (spde.RemainderIdentity) is
evaluated along every trajectory together with the residual of the full
identity, which is a pure time-discretisation quantity.

The ensemble runs on the batched engine of spde: each mass level is split
into near-equal contiguous blocks of at most BLOCK_SIZE samples, and a block
is stepped as one (S, 3, n) array; a level of the default 16-sample
ensemble is one block.  A run is one job list: a job per limit target
first, then the blocks, costliest first, so the default study gives the
pool one target job and four block jobs.  A target job publishes each
output row of its target into memory shared with the pool as soon as it is
recorded, and a block reads row r only when it reaches it, so the targets
are solved alongside the first blocks.  At each output row the block is
reduced in place to running per-sample maxima (Sobolev errors against
every target, the six J norms, the identity residual and the energy; the
engine keeps the constraint residuals' sups over every step), so no field
snapshots are kept.  A block keeps its shape when a sample blows up: the
sample steps on as NaN, and its row records the blow-up step and the
diagnostics of the state before the blow-up step in place of its maxima.
The split depends only on the configuration, so every worker count gives
the same bytes.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError, ParameterError
from .fields import Grid1D, dst_ortho, initial_pair, output_rows, spectral_weights, weighted_norm
from .limit import LimitParams, solve_limit
from .noise import NoiseBasis, build_basis, derive_stream
from .spde import SpdeParams, SpdeStepper

__all__ = [
    "StudyConfig",
    "SampleRow",
    "LevelSummary",
    "StudyResult",
    "run_study",
    "trend_check",
    "refinement_bias",
]

TARGET_NAMES = ("corrected", "parabolic")
BLOCK_SIZE = 16          # most samples of one level stepped together
MAX_ENERGY_DRIFT = 0.1   # relative energy deviation that gates a sample out
FAILURE_BUDGET = 0.5     # share of failed samples a level may have
DECAY_BOUND = 0.5        # largest last-to-first ratio of mean errors trend_check passes
REFINEMENT_STREAM = 1    # stream of the refinement_bias paths; the study draws stream 0
BIAS_SHARE = 0.02        # share of the level mean the bias gate admits beyond 2 SE


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of one mass sweep, at a noise exponent alpha >= 1/2 (a proven limit)."""

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
        if self.alpha < 0.5:
            raise ConfigError(f"noise exponents below 1/2 are exploratory, with no proven"
                              f" limit to study, got alpha={self.alpha}")
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
                               alpha=self.alpha, projection=self.projection,
                               n_out=self.n_out, dt=self.dt)

    def child_key(self, sample: int, stream: int = 0) -> tuple:
        """Stream key of sample j, the same at every mass level; the study's paths are stream 0."""
        return (self.master_seed, stream, sample)


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
    # sups over steps of | |u*|_H - 1 | and |<u*, v*>_H| of each step result
    # (u*, v*): what the projection removes, or the state's own residuals
    # when the study does not project
    norm_defect_sup: float
    tangent_defect_sup: float
    j_sups: tuple
    identity_sup: float
    blowup_step: int | None = None
    gates: tuple = ()
    # a blown-up sample's spde.BLOWUP_DIAGNOSTICS of the state before the blow-up step
    last_finite: dict = field(default_factory=dict)

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
            "work": self.work,
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


class _TargetRows:
    """The limit targets' fields (targets, rows, 3, n), in memory shared with the pool.

    A target job writes each row and then publishes it: the target's count
    of published rows goes up under one condition, which wakes every
    waiting block.  A count of -1 marks a target whose solve failed.  The
    buffer, the counts and the condition reach the workers through the
    pool's initializer, never through a pickled job.
    """

    def __init__(self, context, shape: tuple):
        self.shape = shape
        self._buffer = context.RawArray("d", int(np.prod(shape)))
        self._counts = context.RawArray("i", shape[0])
        self._ready = context.Condition()
        self._seen = [0] * shape[0]   # rows of each target this process knows are published

    def _fields(self, k: int) -> np.ndarray:
        return np.frombuffer(self._buffer).reshape(self.shape)[k]

    def publish(self, k: int, r: int, u: np.ndarray) -> None:
        self._fields(k)[r] = u
        with self._ready:
            self._counts[k] = r + 1
            self._ready.notify_all()

    def close(self, k: int) -> None:
        """Mark target k failed unless all of its rows are published."""
        with self._ready:
            if self._counts[k] < self.shape[1]:
                self._counts[k] = -1
                self._ready.notify_all()

    def row(self, k: int, r: int) -> np.ndarray:
        """Row r of target k, waiting until it is published."""
        if r >= self._seen[k]:
            with self._ready:
                self._ready.wait_for(lambda: not 0 <= self._counts[k] <= r)
                count = self._counts[k]
            if count < 0:
                raise RuntimeError(f"limit target {k} failed")
            self._seen[k] = count
        return self._fields(k)[r]


_target_rows: _TargetRows | None = None   # this process's view of the run's targets


def _attach(rows: _TargetRows | None) -> None:
    """Pool initializer: give this process the run's target rows."""
    global _target_rows
    _target_rows = rows


def _solve_target(config: StudyConfig, basis: NoiseBasis, u0: np.ndarray,
                  k: int, name: str) -> int:
    """Solve target k and publish each row as it is recorded; the limit steps."""
    lp = LimitParams.auto(basis.grid, config.T, gamma=config.gamma,
                          parabolic=(name == "parabolic"), n_out=config.n_out)
    try:
        solve_limit(u0, lp, basis, stride=lp.n_steps // config.n_out,
                    on_row=lambda r, u: _target_rows.publish(k, r, u))
    finally:
        _target_rows.close(k)
    return lp.n_steps


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


def _increments(config: StudyConfig, params: SpdeParams, m: int, samples: range,
                stream: int, draws_per_step: int) -> np.ndarray:
    """Brownian increments (n_steps, S, m) of a block.

    Each sample's stream is drawn as one N(0, 1) per mode on the grid of
    step dt / draws_per_step, and draws_per_step consecutive draws are
    summed onto each step.
    """
    draws = np.empty((params.n_steps * draws_per_step, len(samples), m))
    for pos, sample in enumerate(samples):
        key = config.child_key(sample, stream)
        draws[:, pos] = derive_stream(*key).standard_normal((len(draws), m))
    draws *= np.sqrt(params.dt / draws_per_step)
    if draws_per_step > 1:
        draws = draws.reshape(params.n_steps, draws_per_step, len(samples), m).sum(axis=1)
    return draws


def _run_block(config: StudyConfig, params: SpdeParams, basis: NoiseBasis,
               u0: np.ndarray, v0: np.ndarray, targets: tuple,
               mu_index: int, samples: range, stream: int = 0,
               draws_per_step: int = 1) -> tuple[list, dict]:
    """Step one block of a mass level and reduce it to one SampleRow per sample.

    targets names the run's targets in the order of their jobs; row r of
    target k is read from the shared rows when the block reaches it.  The
    increments are drawn here, in the worker, from the samples' keys
    (master_seed, stream, j); see _increments.  The error norms' mode
    weights are computed once here, and the engine's RemainderIdentity holds
    the identity's constant part, so a row recomputes neither.
    """
    grid, mu = params.grid, params.mu
    size = len(samples)
    increments = _increments(config, params, basis.m, samples, stream, draws_per_step)
    engine = SpdeStepper(params, basis, np.broadcast_to(u0, (size,) + u0.shape),
                         np.broadcast_to(v0, (size,) + v0.shape), samples=samples)

    weights = spectral_weights(grid, config.delta)
    errors = {name: np.zeros(size) for name in targets}
    energy0 = engine.energy()
    energy_dev = np.zeros(size)
    j_sup, identity_sup = np.zeros((size, 6)), np.zeros(size)

    def reduce_row(r: int):
        for k, name in enumerate(targets):
            err = weighted_norm(grid, weights, dst_ortho(engine.u - _target_rows.row(k, r)))
            np.maximum(errors[name], err, out=errors[name])
        np.maximum(energy_dev, np.abs(engine.energy() - energy0), out=energy_dev)
        norms, residual = engine.remainder_norms()
        np.maximum(j_sup, norms, out=j_sup)
        np.maximum(identity_sup, residual, out=identity_sup)

    engine.run(increments, output_rows(params.n_steps, params.n_steps // config.n_out),
               reduce_row)

    blowups = {err.sample: err for err in engine.lost}
    rows = []
    for pos, sample in enumerate(samples):
        common = dict(mu_index=mu_index, mu=mu, sample=sample,
                      seed_key=config.child_key(sample, stream), dt=params.dt)
        if sample in blowups:
            nan = float("nan")
            rows.append(SampleRow(**common, errors={}, energy_residual=nan,
                                  norm_defect_sup=nan, tangent_defect_sup=nan,
                                  j_sups=(nan,) * 6, identity_sup=nan,
                                  blowup_step=blowups[sample].step,
                                  last_finite=blowups[sample].diagnostics))
            continue
        energy_residual = float(energy_dev[pos] / energy0[pos])
        rows.append(SampleRow(
            **common,
            errors={name: float(sup[pos]) for name, sup in errors.items()},
            energy_residual=energy_residual,
            norm_defect_sup=float(engine.norm_defect[pos]),
            tangent_defect_sup=float(engine.tangent_defect[pos]),
            j_sups=tuple(float(x) for x in j_sup[pos]),
            identity_sup=float(identity_sup[pos]),
            gates=("energy-residual",) if energy_residual > MAX_ENERGY_DRIFT else (),
        ))
    work = {"block_steps": engine.step_index, "sample_steps": engine.sample_steps}
    return rows, work


def _jobs(config: StudyConfig, basis: NoiseBasis, u0: np.ndarray, targets: tuple,
          blocks: list) -> list:
    """The run's job list: one job per target, in order, then the blocks, costliest first.

    Each job is (function, arguments); blocks holds _run_block arguments.
    """
    blocks = sorted(blocks, key=lambda args: -args[1].n_steps * len(args[7]))
    return ([(_solve_target, (config, basis, u0, k, name)) for k, name in enumerate(targets)]
            + [(_run_block, args) for args in blocks])


def _run_job(job: tuple):
    function, args = job
    return function(*args)


def _run_jobs(config: StudyConfig, targets: tuple, jobs: list, workers: int) -> list:
    """The result of every job, in `workers` processes when more than one.

    The pool takes jobs in order, so every target job has started before any
    block can wait on one of its rows, and target jobs never wait: the run
    cannot deadlock.  A failed target wakes the blocks waiting on it, and
    its own exception, the first in the job order, is the one raised.
    """
    context = multiprocessing.get_context()
    rows = _TargetRows(context, (len(targets), config.n_out + 1, 3, config.n))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, mp_context=context,
                                 initializer=_attach, initargs=(rows,)) as pool:
            return list(pool.map(_run_job, jobs))
    _attach(rows)
    try:
        return [_run_job(job) for job in jobs]
    finally:
        _attach(None)


def run_study(config: StudyConfig, *, target: str = "auto", extra_targets=(),
              workers: int = 1) -> StudyResult:
    """Run the mass sweep against one or more limit targets.

    target="auto" compares against the corrected flow at alpha = 1/2 and the
    parabolic flow above.

    The target solves and then the blocks of every level, costliest first,
    go to `workers` processes (see _run_jobs); the rows do not depend on
    the worker count.  A target that fails, such as a limit blow-up, raises
    its own error.  Per-trajectory blow-ups and gate violations are
    recorded, not fatal; a failed check is raised into
    StudyResult.failed_checks when any mass level exceeds the failure
    budget.
    """
    primary, names = _resolve_targets(config, target, extra_targets)
    grid = config.grid()
    basis = config.basis(grid)
    u0, v0 = config.initial_data(grid)

    params = [config.spde_params(mu, grid) for mu in config.mu_values]
    blocks = [(config, params[i], basis, u0, v0, names, i, samples)
              for i, samples in _blocks(config, grid)]
    done = _run_jobs(config, names, _jobs(config, basis, u0, names, blocks), workers)
    limit_steps, done = sum(done[:len(names)]), done[len(names):]
    rows = sorted((row for block_rows, _ in done for row in block_rows),
                  key=lambda row: (row.mu_index, row.sample))
    work = {
        "blocks": len(blocks),
        "block_size": BLOCK_SIZE,
        "sample_steps": sum(counts["sample_steps"] for _, counts in done),
        # one tridiagonal solve on all columns of a block per step
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

    # each row carries its own seed_key
    return StudyResult(config=asdict(config), target=primary, targets=names, rows=rows,
                       levels=levels, provenance={"master_seed": config.master_seed},
                       failed_checks=tuple(failed_checks), work=work)


def trend_check(result: StudyResult) -> dict:
    """Check the mean-error decay of the primary target across the mass grid.

    Passes when the means are strictly decreasing and the last level is at
    most DECAY_BOUND times the first.
    """
    means = result.mean_error_curve()
    decreasing = bool(np.all(np.diff(means) < 0.0))
    decayed = bool(means[-1] <= DECAY_BOUND * means[0])
    return {
        "mean_errors": [float(x) for x in means],
        "strictly_decreasing": decreasing,
        "decay_factor": float(means[-1] / means[0]) if means[0] > 0 else float("nan"),
        "passed": decreasing and decayed,
    }


def refinement_bias(config: StudyConfig, *, workers: int = 1) -> list[dict]:
    """Bias of each level's step against half of it, on coupled Brownian paths.

    Sample j's path is drawn once, on the grid of half the level's step,
    from the stream (master_seed, REFINEMENT_STREAM, j), which no study
    draws, and summed onto the level's own grid.  Both grids run through
    the study's block engine against the study's primary target; as in
    run_study, the target's solve is the first job and the blocks of both
    grids follow, costliest first.  Per level: the mean
    sup error at the fine step, the paired mean of coarse minus fine
    errors (the bias), its standard error, and whether
    |bias| <= 2 SE + BIAS_SHARE x fine mean.  Pairs with a failed sample
    are left out.
    """
    primary, names = _resolve_targets(config, "auto", ())
    grid = config.grid()
    basis = config.basis(grid)
    u0, v0 = config.initial_data(grid)

    blocks = []
    for i, samples in _blocks(config, grid):
        coarse = config.spde_params(config.mu_values[i], grid)
        fine = replace(coarse, dt=coarse.dt / 2)
        blocks += [(config, fine, basis, u0, v0, names, i, samples, REFINEMENT_STREAM, 1),
                   (config, coarse, basis, u0, v0, names, i, samples, REFINEMENT_STREAM, 2)]
    jobs = _jobs(config, basis, u0, names, blocks)
    done = _run_jobs(config, names, jobs, workers)
    errors = {}   # (draws per step, mass index, sample) -> sup error
    for (_, args), (rows, _) in zip(jobs[len(names):], done[len(names):]):
        for row in rows:
            errors[args[-1], row.mu_index, row.sample] = (
                float("nan") if row.failed else row.errors[primary])

    levels = []
    for i, mu in enumerate(config.mu_values):
        fine_err, coarse_err = (np.array([errors[per_step, i, j] for j in range(config.ensemble)])
                                for per_step in (1, 2))
        paired = np.isfinite(fine_err) & np.isfinite(coarse_err)
        diff = coarse_err[paired] - fine_err[paired]
        count = len(diff)
        fine_mean = float(fine_err[paired].mean()) if count else float("nan")
        bias = float(diff.mean()) if count else float("nan")
        se = float(diff.std(ddof=1) / np.sqrt(count)) if count > 1 else float("nan")
        levels.append({"mu": mu, "pairs": count, "fine_mean": fine_mean, "bias": bias,
                       "se": se, "passed": bool(abs(bias) <= 2.0 * se + BIAS_SHARE * fine_mean)})
    return levels
