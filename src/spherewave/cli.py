"""Command-line front end: simulate, limit, study, check.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 acceptance-trend failure (study --check).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import __version__
from .checks import run_all
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
from .noise import derive_stream
from .spde import simulate
from .study import run_study, trend_check

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_ACCEPTANCE = 3


def _manifest(cfg: dict, seeds: dict, wall: float, outputs: list[str],
              checks: dict | None = None, work: dict | None = None) -> dict:
    doc = {
        "config": cfg,
        "config_hash": config_hash(cfg),
        "code_version": __version__,
        "seeds": seeds,
        "wall_time_s": wall,
        "outputs": outputs,
        "checks": checks or {},
    }
    if work is not None:
        doc["work"] = work   # deterministic counters only: reruns stay byte-identical
    return doc


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    basis = build_noise_basis(cfg, grid)
    params = spde_params_from(cfg, grid)
    u0, v0 = initial_fields_from(cfg, grid)
    seed = cfg["study"]["master_seed"]
    rng = derive_stream(seed, 0, 0)
    start = time.perf_counter()
    traj = simulate(u0, v0, params, basis, rng=rng,
                    stride=cfg["output"]["stride"])
    out = output_directory(cfg)
    header = ["t", "energy", "theta", "eta", "u_h1", "u_h2", "v_h", "v_h1",
              "weighted_h2", "j1", "j2", "j3", "j4", "j5", "j6"]
    columns = [traj.t, traj.energy, traj.theta, traj.eta, traj.u_h1, traj.u_h2,
               traj.v_h, traj.v_h1, traj.weighted_h2]
    columns += [traj.j_norms[:, i] for i in range(6)]
    write_csv(out / "simulate.csv", header, columns)
    write_json(out / "simulate.manifest.json",
               _manifest(cfg, {"master_seed": seed, "stream_key": [seed, 0, 0]},
                         time.perf_counter() - start, ["simulate.csv"],
                         work={"steps": params.n_steps, "helmholtz_solves": params.n_steps}))
    return EXIT_OK


def cmd_limit(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    basis = build_noise_basis(cfg, grid)
    params = limit_params_from(cfg, grid, basis)
    u0, _ = initial_fields_from(cfg, grid)
    start = time.perf_counter()
    traj = solve_limit(u0, params, basis, stride=cfg["output"]["stride"])
    out = output_directory(cfg)
    header = ["t", "u_h1", "u_h2", "ut_h", "sphere_residual", "projection_defect",
              "energy_lhs", "energy_rhs"]
    rows = len(traj.t)
    columns = [traj.t, traj.u_h1, traj.u_h2, traj.ut_h, traj.sphere_residual,
               traj.projection_defect, traj.energy_lhs, np.full(rows, traj.energy_rhs)]
    write_csv(out / "limit.csv", header, columns)
    write_json(out / "limit.manifest.json",
               _manifest(cfg, {}, time.perf_counter() - start, ["limit.csv"],
                         work={"limit_steps": params.n_steps}))
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


def cmd_study(args) -> int:
    cfg = load_config(args.config)
    study_cfg = study_config_from(cfg)
    start = time.perf_counter()
    result = run_study(study_cfg, target=args.target, workers=args.workers)
    out = output_directory(cfg)
    write_json(out / "study.json", result.to_json_dict())
    header, columns = _study_csv(result)
    write_csv(out / "study_samples.csv", header, columns)
    checks = {"trend": trend_check(result)} if args.check else {}
    write_json(out / "study.manifest.json",
               _manifest(cfg, result.provenance, time.perf_counter() - start,
                         ["study.json", "study_samples.csv"], checks, result.work))
    if result.failed_checks:
        for name in result.failed_checks:
            print(f"numerical failure: {name}", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.check and not checks["trend"]["passed"]:
        print(f"acceptance failure: mass-sweep trend {checks['trend']}", file=sys.stderr)
        return EXIT_ACCEPTANCE
    return EXIT_OK


def cmd_check(args) -> int:
    scale = -1.0 if args.mutate_correction_sign else 1.0
    results = run_all(correction_scale=scale)
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
                     choices=["auto", "corrected", "parabolic"])
    stu.add_argument("--workers", type=int, default=1)
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
