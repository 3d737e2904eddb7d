"""Small-mass Monte Carlo studies: mass sweeps, error decay, remainder terms.

For a decreasing grid of masses and an ensemble of Brownian paths, each
stochastic trajectory is compared against the deterministic limit flow
(solved once per target, by the calling process) in the sup-in-time
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
ensemble is one block.  A block carries only what the StudyConfig does not
fix and builds its noise basis and initial data from the config.  One
driver, _run, runs the blocks of the study and of refinement_bias,
costliest first, and returns each block's result in its caller's order.
The blocks are the only jobs of the pool (the default study gives it four);
meanwhile the calling process solves the limit targets together, one output
row at a time, and publishes row r of every target at once, under one count,
into memory shared with the pool; a block reads row r only when it reaches
it.  At each output row the block is reduced in place to running
per-sample maxima (Sobolev errors against every target, the six J norms,
the identity residual and the energy; the engine keeps the constraint
residuals' sups over every step), so no field snapshots are kept, and a
block draws its Brownian increments ROW_CHUNK steps at a time as it steps
(noise.brownian_increments): its memory does not grow with its step
count.  A block keeps its shape when a sample blows up: the sample steps
on as NaN, and its row records the blow-up step and the diagnostics of
the state before the blow-up step in place of its maxima.  The split
depends only on the configuration, so every worker count gives the same
bytes.
"""

from __future__ import annotations

import builtins
import contextlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import BlowUpError, ConfigError, DegenerateFieldError, ParameterError
from .fields import Grid1D, dst_ortho, initial_pair, output_rows, spectral_weights, weighted_norm
from .limit import LimitParams, limit_rows
from .noise import NoiseBasis, brownian_increments, build_basis, derive_stream
from .spde import SpdeParams, SpdeStepper

__all__ = [
    "StudyConfig",
    "SampleRow",
    "LevelSummary",
    "StudyResult",
    "run_study",
    "check_workers",
    "check_trend_levels",
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
    # the default of every command (config key time.projection, which simulate
    # reads too): re-project each step so the unstable transverse direction of
    # the constraint manifold cannot amplify scheme defects over T
    # (rate ~ sqrt(2 |u|_{H1}^2 / mu) at small gamma)
    projection: bool = True

    def __post_init__(self):
        if not 0.0 <= self.delta < 2.0:
            raise ConfigError(f"error-norm order delta must lie in [0, 2), got {self.delta}")
        mus = tuple(self.mu_values)
        if not mus:
            raise ConfigError("need at least one mass value")
        if any(b >= a for a, b in zip(mus, mus[1:])):
            raise ConfigError(f"mass values must be strictly decreasing, got {mus}")
        if self.ensemble < 1:
            raise ConfigError(f"ensemble size must be >= 1, got {self.ensemble}")
        if self.master_seed < 0:
            raise ConfigError(f"master seed must be >= 0, got {self.master_seed}")
        if self.alpha < 0.5:
            raise ConfigError(f"noise exponents below 1/2 are exploratory, with no proven"
                              f" limit to study, got alpha={self.alpha}")
        try:
            grid = self.grid()
            self.basis(grid)
            self.initial_data(grid)
        except (ParameterError, DegenerateFieldError) as exc:
            raise ConfigError(str(exc)) from exc
        for mu in mus:
            try:
                self.spde_params(mu, grid)
            except ParameterError as exc:
                raise ConfigError(f"mass {mu}: {exc}") from exc

    def grid(self) -> Grid1D:
        return Grid1D(self.L, self.n)

    def basis(self, grid: Grid1D) -> NoiseBasis:
        return build_basis(grid, self.m, self.p)

    def initial_data(self, grid: Grid1D):
        return initial_pair(grid, self.u_modes, self.v_modes)

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
    # the sample standard deviation std(ddof=1) of each target's errors, not a standard error
    std_devs: dict
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
    """The limit targets' fields (rows, targets, 3, n), in memory shared with the pool.

    The calling process writes row r of every target and then publishes it:
    the one count of published rows goes up under one condition, which
    wakes every waiting block.  A count of -1 marks targets whose solve
    failed or never ran.  The buffer, the count and the condition reach the
    workers through the pool's initializer, never through a pickled job.
    """

    def __init__(self, context, shape: tuple):
        self.shape = shape
        self._buffer = context.RawArray("d", int(np.prod(shape)))
        self._count = context.RawValue("i")
        self._ready = context.Condition()

    def publish(self, r: int, fields: list) -> None:
        """Write row r of every target, in the run's target order, and publish it."""
        np.frombuffer(self._buffer).reshape(self.shape)[r] = fields
        with self._ready:
            self._count.value = r + 1
            self._ready.notify_all()

    def close(self) -> None:
        """Mark the targets failed unless every row is published."""
        with self._ready:
            if self._count.value < self.shape[0]:
                self._count.value = -1
            self._ready.notify_all()

    def row(self, r: int) -> np.ndarray:
        """Row r of every target (targets, 3, n), waiting until it is published."""
        with self._ready:
            self._ready.wait_for(lambda: not 0 <= self._count.value <= r)
            count = self._count.value
        if count < 0:
            raise RuntimeError("the limit targets failed")
        return np.frombuffer(self._buffer).reshape(self.shape)[r]


_target_rows: _TargetRows | None = None   # this process's view of the run's targets


def _attach(rows: _TargetRows | None) -> None:
    """Give this process the run's target rows; the pool's initializer."""
    global _target_rows
    _target_rows = rows


def _solve_targets(config: StudyConfig, targets: tuple) -> int:
    """Solve the targets together and publish each row of all of them; the limit steps.

    The targets advance one output row at a time, and row r of every target
    is published at once, so no block waits on one target while another
    runs to T.  "parabolic" is the limit flow of the silent basis,
    "corrected" that of the config's; every target takes the one step rule
    of the limit flows (LimitParams.auto), so all have the same steps and
    rows.
    """
    grid = config.grid()
    u0, _ = config.initial_data(grid)
    bases = [build_basis(grid, 0, config.p) if name == "parabolic" else config.basis(grid)
             for name in targets]
    params = LimitParams.auto(grid, config.T, gamma=config.gamma, n_out=config.n_out)
    solves = [limit_rows(u0, params, basis, stride=params.n_steps // config.n_out)
              for basis in bases]
    for r, flows in enumerate(zip(*solves)):
        _target_rows.publish(r, [flow.u for _, flow in flows])
    return len(targets) * params.n_steps


def _blocks(config: StudyConfig) -> list[tuple[int, range]]:
    """(mass index, samples) of every block, in level order.

    Each level is split into near-equal contiguous blocks of at most
    BLOCK_SIZE samples; the split depends on the configuration only.
    """
    count = -(-config.ensemble // BLOCK_SIZE)
    bounds = [config.ensemble * b // count for b in range(count + 1)]
    return [(i, range(lo, hi)) for i in range(len(config.mu_values))
            for lo, hi in zip(bounds, bounds[1:])]


def _run_block(config: StudyConfig, params: SpdeParams, targets: tuple, mu_index: int,
               samples: range, stream: int, draws_per_step: int) -> tuple[list, dict]:
    """Step one block of a mass level and reduce it to one SampleRow per sample.

    The noise basis and the initial data are the config's, on the grid of
    params.  targets names the run's targets in their order in a published
    row; row r is read from the shared rows when the block reaches it, and
    a block without targets never reads them.  The increments are drawn
    here, in the worker, from the samples' keys (master_seed, stream, j),
    by noise.brownian_increments: each sample's stream gives one N(0, 1)
    per mode on the grid of step dt / draws_per_step, draws_per_step
    consecutive draws are summed onto each step, and the draws are made
    ROW_CHUNK steps at a time as the engine reads them.  The error norms'
    mode weights are computed once here, and the engine's RemainderIdentity
    holds the identity's constant part, so a row recomputes neither.  A refused
    start raises its BlowUpError, stamped with the mass level; a lost
    sample's row carries its blow-up step and last finite diagnostics.
    """
    grid, mu = params.grid, params.mu
    size = len(samples)
    u0, v0 = config.initial_data(grid)
    streams = [derive_stream(*config.child_key(j, stream)) for j in samples]
    increments = brownian_increments(streams, config.m, params.dt, params.n_steps, draws_per_step)
    try:
        engine = SpdeStepper(params, config.basis(grid), np.broadcast_to(u0, (size,) + u0.shape),
                             np.broadcast_to(v0, (size,) + v0.shape), samples=samples)
    except BlowUpError as err:   # a refused start
        raise err.at_level(mu_index)

    weights = spectral_weights(grid, config.delta)
    errors = {name: np.zeros(size) for name in targets}
    energy0 = engine.energy()
    energy_dev = np.zeros(size)
    j_sup, identity_sup = np.zeros((size, 6)), np.zeros(size)

    def reduce_row(r: int):
        for k, name in enumerate(targets):
            err = weighted_norm(grid, weights, dst_ortho(engine.u - _target_rows.row(r)[k]))
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
    return rows, {"block_steps": engine.step_index, "sample_steps": engine.sample_steps}


def check_workers(workers: int) -> None:
    if workers < 1:
        raise ParameterError(f"need at least one worker, got {workers}")


def _run(config: StudyConfig, targets: tuple, blocks: list, workers: int) -> tuple[int, list]:
    """Solve the targets and run the blocks: (limit steps, each block's result).

    Each block is (params, mass index, samples, stream, draws per step), and
    blocks of other lengths raise ValueError before any job runs; its result
    is (rows, work counters), returned in the order of `blocks`.  The
    blocks, costliest first, are the only jobs: with more than one
    worker (fewer than one is refused) they go to a pool of at most one
    process per block, and with one the builtin map runs them here after
    the targets.  Either way the calling process solves the targets, row
    by row, while the blocks run; a block waits only on rows the caller
    publishes, and the caller never waits on a block.  A failed solve
    wakes every waiting block, and its own exception is the one raised.
    """
    check_workers(workers)
    order = sorted(range(len(blocks)),
                   key=lambda b: -blocks[b][0].n_steps * len(blocks[b][2]))
    columns = zip(*[(config, blocks[b][0], targets) + blocks[b][1:] for b in order], strict=True)
    context = multiprocessing.get_context()
    rows = _TargetRows(context, (config.n_out + 1, len(targets), 3, config.n))
    _attach(rows)
    try:
        with (ProcessPoolExecutor(max_workers=min(workers, len(blocks)), mp_context=context,
                                  initializer=_attach, initargs=(rows,))
              if workers > 1 else contextlib.nullcontext(builtins)) as pool:
            done = pool.map(_run_block, *columns)
            try:
                limit_steps = _solve_targets(config, targets)
            finally:
                rows.close()
            results = dict(zip(order, done))
    finally:
        _attach(None)
    return limit_steps, [results[b] for b in range(len(blocks))]


def run_study(config: StudyConfig, *, target: str = "auto", extra_targets=(),
              workers: int = 1) -> StudyResult:
    """Run the mass sweep against one or more limit targets.

    target="auto" compares against the corrected flow at alpha = 1/2 and above
    it the parabolic flow: the limit flow of the silent basis (phi = 0, M = gamma I).

    The blocks of every level, costliest first, go to at most `workers`
    processes while the calling process solves the targets (see _run); the
    rows do not depend on the worker count.  A target that fails, such as a
    limit blow-up, raises its own error.  Per-trajectory blow-ups and gate
    violations are recorded, not fatal; a failed check is raised into
    StudyResult.failed_checks when any mass level exceeds the failure
    budget.
    """
    primary, names = _resolve_targets(config, target, extra_targets)
    params = [config.spde_params(mu) for mu in config.mu_values]
    blocks = [(params[i], i, samples, 0, 1) for i, samples in _blocks(config)]
    limit_steps, done = _run(config, names, blocks, workers)
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
        mean_errors, std_devs = {}, {}
        for name in names:
            vals = np.array([row.errors[name] for row in good]) if good else np.array([np.nan])
            mean_errors[name] = float(vals.mean())
            std_devs[name] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        max_j = max((max(row.j_sups) for row in good), default=float("nan"))
        levels.append(LevelSummary(mu=mu, count=len(level_rows), failures=failures,
                                   mean_errors=mean_errors, std_devs=std_devs,
                                   max_j_sup=float(max_j)))

    # each row carries its own seed_key
    return StudyResult(config=asdict(config), target=primary, targets=names, rows=rows,
                       levels=levels, provenance={"master_seed": config.master_seed},
                       failed_checks=tuple(failed_checks), work=work)


def check_trend_levels(levels: int) -> None:
    """Refuse a trend check on fewer than two mass levels, where no decay can show."""
    if levels < 2:
        raise ParameterError(f"the trend check needs at least two mass levels, got {levels}")


def trend_check(result: StudyResult) -> dict:
    """Check the mean-error decay of the primary target across the mass grid.

    Passes when the means are strictly decreasing and the last level is at
    most DECAY_BOUND times the first; fewer than two levels are refused.
    """
    check_trend_levels(len(result.levels))
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
    run_study, the calling process solves the target while the blocks of
    both grids run, costliest first.  Per level: the mean sup error at the
    fine step, the paired mean of coarse minus fine errors (the bias), its
    standard error, and whether
    |bias| <= 2 SE + BIAS_SHARE x fine mean.  Pairs with a failed sample
    are left out.
    """
    primary, names = _resolve_targets(config, "auto", ())
    blocks = []
    for i, samples in _blocks(config):
        coarse = config.spde_params(config.mu_values[i])
        blocks += [(replace(coarse, dt=coarse.dt / 2), i, samples, REFINEMENT_STREAM, 1),
                   (coarse, i, samples, REFINEMENT_STREAM, 2)]
    _, done = _run(config, names, blocks, workers)
    errors = {}   # (draws per step, mass index, sample) -> sup error
    for (*_, per_step), (rows, _) in zip(blocks, done):
        for row in rows:
            errors[per_step, row.mu_index, row.sample] = (
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
