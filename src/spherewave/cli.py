"""Command-line front end: simulate, limit, study, check.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 acceptance-trend failure (study --check).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__
from .config import (
    build_grid,
    build_noise_basis,
    config_hash,
    initial_fields_from,
    limit_params_from,
    load_config,
    output_directory,
    spde_params_from,
    study_config_from,
    write_csv,
    write_json,
)
from .errors import BlowUpError, ConfigError, ParameterError
from .limit import solve_limit
from .noise import build_basis, derive_stream
from .spde import DIAGNOSTICS, simulate
from .study import TARGET_NAMES, check_trend_levels, check_workers, run_study, trend_check

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_ACCEPTANCE = 3


def _manifest(cfg: dict, seeds: dict, wall: float, outputs: list[str], work: dict,
              checks: dict | None = None) -> dict:
    return {
        "config": cfg,
        "config_hash": config_hash(cfg),
        "code_version": __version__,
        "seeds": seeds,
        "wall_time_s": wall,
        "outputs": outputs,
        "checks": checks or {},
        "work": work,   # deterministic counters only: reruns stay byte-identical
    }


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    basis = build_noise_basis(cfg, grid)
    params = spde_params_from(cfg, grid)
    u0, v0 = initial_fields_from(cfg, grid)
    seed = cfg["study"]["master_seed"]
    rng = derive_stream(seed, 0, 0)
    out = output_directory(cfg)
    start = time.perf_counter()
    traj = simulate(u0, v0, params, basis, rng=rng,
                    stride=cfg["output"]["stride"])
    names = ("t",) + DIAGNOSTICS
    header = list(names) + [f"j{i}" for i in range(1, traj.j_norms.shape[1] + 1)]
    columns = [getattr(traj, name) for name in names] + list(traj.j_norms.T)
    write_csv(out / "simulate.csv", header, columns)
    write_json(out / "simulate.manifest.json",
               _manifest(cfg, {"master_seed": seed, "stream_key": [seed, 0, 0]},
                         time.perf_counter() - start, ["simulate.csv"],
                         {"steps": params.n_steps, "helmholtz_solves": params.n_steps}))
    return EXIT_OK


def cmd_limit(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    basis = (build_basis(grid, 0, cfg["noise"]["p"]) if cfg["physics"]["parabolic"]
             else build_noise_basis(cfg, grid))
    params = limit_params_from(cfg, grid)
    u0, _ = initial_fields_from(cfg, grid)
    out = output_directory(cfg)
    start = time.perf_counter()
    traj = solve_limit(u0, params, basis, stride=cfg["output"]["stride"])
    header = [f.name for f in fields(traj)][1:]
    columns = [np.broadcast_to(getattr(traj, name), traj.t.shape) for name in header]
    write_csv(out / "limit.csv", header, columns)
    write_json(out / "limit.manifest.json",
               _manifest(cfg, {}, time.perf_counter() - start, ["limit.csv"],
                         {"limit_steps": params.n_steps}))
    return EXIT_OK


def _study_csv(result) -> tuple[list[str], list]:
    header = ["mu", "sample", "dt", "energy_residual", "norm_defect_sup",
              "tangent_defect_sup", "identity_sup", "blowup_step", "failed"]
    header += [f"j{i}_sup" for i in range(1, 7)]
    header += [f"error_{name}" for name in result.targets]
    rows = result.rows
    columns = [
        [row.mu for row in rows],
        [row.sample for row in rows],
        [row.dt for row in rows],
        [row.energy_residual for row in rows],
        [row.norm_defect_sup for row in rows],
        [row.tangent_defect_sup for row in rows],
        [row.identity_sup for row in rows],
        [-1 if row.blowup_step is None else row.blowup_step for row in rows],
        [1.0 if row.failed else 0.0 for row in rows],
    ]
    columns += [[row.j_sups[i] for row in rows] for i in range(6)]
    columns += [[row.errors.get(name, float("nan")) for row in rows]
                for name in result.targets]
    return header, columns


def _blowup_lines(result) -> list[str]:
    """One line per mass level that lost samples: the count and the earliest blow-up."""
    lines = []
    for i, level in enumerate(result.levels):
        lost = [row for row in result.rows if row.mu_index == i and row.blowup_step is not None]
        if lost:
            first = min(lost, key=lambda row: (row.blowup_step, row.sample))
            lines.append(f"blow-ups: mu_index={i} (mu={level.mu}) lost {len(lost)}/{level.count}"
                         f" samples; the first was sample {first.sample}, at step"
                         f" {first.blowup_step}")
    return lines


def cmd_study(args) -> int:
    cfg = load_config(args.config)
    study_cfg = study_config_from(cfg)
    check_workers(args.workers)
    if args.check:
        check_trend_levels(len(study_cfg.mu_values))
    out = output_directory(cfg)
    start = time.perf_counter()
    result = run_study(study_cfg, target=args.target, workers=args.workers)
    for line in _blowup_lines(result):
        print(line, file=sys.stderr)
    write_json(out / "study.json", result.to_json_dict())
    header, columns = _study_csv(result)
    write_csv(out / "study_samples.csv", header, columns)
    checks = {"trend": trend_check(result)} if args.check else {}
    write_json(out / "study.manifest.json",
               _manifest(cfg, result.provenance, time.perf_counter() - start,
                         ["study.json", "study_samples.csv"], result.work, checks))
    if result.failed_checks:
        for name in result.failed_checks:
            print(f"numerical failure: {name}", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.check and not checks["trend"]["passed"]:
        print(f"acceptance failure: mass-sweep trend {checks['trend']}", file=sys.stderr)
        return EXIT_ACCEPTANCE
    return EXIT_OK


def cmd_check(args) -> int:
    # imported here: the check suite is the package's costliest module to
    # compile, and no other command reads it
    from .checks import run_all

    results = run_all(mutate=args.mutate_correction_sign)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}\t{res.name}\t{res.detail}")
    return EXIT_OK if all(res.passed for res in results) else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherewave",
        description="Sphere-constrained stochastic wave laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate one stochastic trajectory")
    sim.add_argument("-c", "--config", required=True)
    sim.set_defaults(func=cmd_simulate)

    lim = sub.add_parser("limit", help="solve the deterministic limit flow")
    lim.add_argument("-c", "--config", required=True)
    lim.set_defaults(func=cmd_limit)

    stu = sub.add_parser("study", help="run the small-mass Monte Carlo sweep")
    stu.add_argument("-c", "--config", required=True)
    stu.add_argument("--check", action="store_true",
                     help="exit nonzero unless the error-decay trend holds")
    stu.add_argument("--target", default="auto",
                     choices=("auto",) + TARGET_NAMES)
    stu.add_argument("--workers", type=int, default=1,
                     help="block processes, at most one per block; the limit targets"
                          " are solved in the calling process")
    stu.set_defaults(func=cmd_study)

    chk = sub.add_parser("check", help="run the invariant suite")
    chk.add_argument("--mutate-correction-sign", action="store_true",
                     help="dev mode: flip the Ito correction to demonstrate detection")
    chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except (ConfigError, ParameterError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except BlowUpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
