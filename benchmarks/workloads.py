"""The three benchmark workloads: their CLI invocations and output checks.

One operation of a workload runs its invocations back to back, each with its
own configuration file and output directory.  The configuration is generated
from the benchmark seed, which becomes ``study.master_seed``; everything else
stays at the package defaults.

Checks read only the files the CLI wrote.  Each returns a list of problems
(empty when the output is correct) and the numbers it observed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

LIMIT_REFERENCE = json.loads((Path(__file__).with_name("limit_reference.json")).read_text())
WORKERS = 2                    # the study's pool; the benchmark machine has 2 cores
ENERGY_RTOL = 1e-6             # acceptance criterion 5: E_lhs <= E_rhs (1 + 1e-6)
TIME_RTOL = 1e-12              # last recorded t must be T up to roundoff


@dataclass
class Checked:
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Invocation:
    label: str            # names the config file and the output directory
    command: tuple        # CLI words after "spherewave"; the config goes after the first
    overrides: dict       # configuration sections beyond the seed

    def config(self, seed: int) -> dict:
        doc = {section: dict(values) for section, values in self.overrides.items()}
        doc.setdefault("study", {})["master_seed"] = seed
        return doc

    def argv(self, config_path: Path) -> list[str]:
        return [self.command[0], "-c", str(config_path), *self.command[1:]]


WORKLOADS = {
    # the headline mass sweep: pool, ensemble stepping, serial limit targets
    "study": (Invocation("study", ("study", "--check", "--workers", str(WORKERS)), {}),),
    # both limit branches, every RK4 step written to CSV; no stochastic stepping
    "limit": (Invocation("corrected", ("limit",), {}),
              Invocation("parabolic", ("limit",), {"physics": {"parabolic": True}})),
    # one record-heavy trajectory (S=1), no limit solve
    "simulate": (Invocation("simulate", ("simulate",), {}),),
}


def expected(package, label: str, cfg: dict) -> dict:
    """What a correct run of this invocation must produce, from its config."""
    config = package.config
    grid = config.build_grid(cfg)
    if label == "study":
        study_cfg = config.study_config_from(cfg)
        return {"rows": len(study_cfg.mu_values) * study_cfg.ensemble}
    if label == "simulate":
        return {"rows": config.spde_params_from(cfg, grid).n_steps + 1,
                "T": cfg["time"]["T"]}
    config.limit_params_from(cfg, grid, config.build_noise_basis(cfg, grid))
    return {"T": cfg["time"]["T"]}


def _read_csv(path: Path):
    """Header and an iterator of float rows, streamed to keep memory flat."""
    fh = path.open()
    header = fh.readline().rstrip("\n").split(",")

    def rows():
        with fh:
            for line in fh:
                yield [float(x) for x in line.split(",")]

    return header, rows()


def _same_time(t: float, T: float) -> bool:
    return abs(t - T) <= TIME_RTOL * T


def check_study(out: Path, want: dict) -> Checked:
    res = Checked()
    doc = json.loads((out / "study.json").read_text())
    rows = doc["rows"]
    failed = sum(1 for row in rows if row["gates"] or row["blowup_step"] is not None)
    res.values = {"study.samples": len(rows), "study.samples_failed": failed}
    if len(rows) != want["rows"]:
        res.problems.append(f"study.json has {len(rows)} rows, expected {want['rows']}")
    if failed:
        res.problems.append(f"{failed} study sample rows failed")
    trend = json.loads((out / "study.manifest.json").read_text())["checks"].get("trend", {})
    if not trend.get("passed"):
        res.problems.append(f"trend check did not pass: {trend}")
    return res


def check_limit(out: Path, want: dict, branch: str) -> Checked:
    res = Checked()
    header, rows = _read_csv(out / "limit.csv")
    col = {name: header.index(name) for name in
           ("t", "u_h1", "u_h2", "sphere_residual", "energy_lhs", "energy_rhs")}
    sphere_max, violations, last = 0.0, 0, None
    for row in rows:
        sphere_max = max(sphere_max, row[col["sphere_residual"]])
        if not row[col["energy_lhs"]] <= row[col["energy_rhs"]] * (1.0 + ENERGY_RTOL):
            violations += 1
        last = row
    res.values = {f"limit.sphere_residual_{branch}": sphere_max}
    if last is None:
        res.problems.append("limit.csv has no rows")
        return res
    if violations:
        res.problems.append(f"energy inequality fails on {violations} rows")
    if not _same_time(last[col["t"]], want["T"]):
        res.problems.append(f"last t = {last[col['t']]!r}, expected T = {want['T']!r}")
    ref, rtol = LIMIT_REFERENCE[branch], LIMIT_REFERENCE["rtol"]
    for name in ("u_h1", "u_h2"):
        got = last[col[name]]
        if not abs(got - ref[name]) <= rtol * abs(ref[name]):
            res.problems.append(f"final {name} = {got!r}, reference {ref[name]!r}")
    return res


def check_simulate(out: Path, want: dict) -> Checked:
    res = Checked()
    header, rows = _read_csv(out / "simulate.csv")
    energy = header.index("energy")
    count, finite, e0, drift, last = 0, True, None, 0.0, None
    for row in rows:
        count += 1
        finite = finite and all(math.isfinite(x) for x in row)
        e0 = row[energy] if e0 is None else e0
        drift = max(drift, abs(row[energy] - e0))
        last = row
    # reported, not gated: the CLI default runs unprojected (see README)
    res.values = {"spde.energy_drift": drift / e0 if e0 else float("nan")}
    if count != want["rows"]:
        res.problems.append(f"simulate.csv has {count} rows, expected {want['rows']}")
    if not finite:
        res.problems.append("simulate.csv holds non-finite values")
    if last is not None and not _same_time(last[header.index("t")], want["T"]):
        res.problems.append(f"last t = {last[header.index('t')]!r}, expected T = {want['T']!r}")
    return res


def check(label: str, out: Path, want: dict) -> Checked:
    if label == "study":
        return check_study(out, want)
    if label == "simulate":
        return check_simulate(out, want)
    return check_limit(out, want, label)


def output_digest(out: Path) -> str:
    """Hash of every output file; manifests without their wall_time_s."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0")
        if path.name.endswith(".manifest.json"):
            doc = json.loads(path.read_text())
            doc.pop("wall_time_s", None)
            digest.update(json.dumps(doc, sort_keys=True).encode())
        else:
            with path.open("rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
        digest.update(b"\0")
    return digest.hexdigest()
