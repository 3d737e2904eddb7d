"""Run-configuration schema, resolution, hashing, and file emission.

A run is described by one JSON document with the sections grid, noise,
physics, time, initial_data, study, output.  Unknown keys and non-finite
numbers are rejected; the merged document's grid, noise basis and initial
data are built once, so their builders' rules refuse a bad one up front.
Emitted CSV floats use the shortest representation that parses back to the
same value, so output files are byte-stable across reruns.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateFieldError, ParameterError
from .fields import Grid1D, initial_pair
from .limit import LimitParams
from .noise import build_basis
from .spde import SpdeParams
from .study import StudyConfig

__all__ = [
    "DEFAULT_CONFIG",
    "CONFIG_SCHEMA",
    "load_config",
    "resolve_config",
    "config_hash",
    "build_grid",
    "build_noise_basis",
    "initial_fields_from",
    "study_config_from",
    "spde_params_from",
    "limit_params_from",
    "output_directory",
    "format_float",
    "write_csv",
    "write_json",
]

_MODE = {
    "type": "array",
    "minItems": 3,
    "maxItems": 3,
    "items": {"type": "number"},
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "L": {"type": "number", "exclusiveMinimum": 0},
                "n": {"type": "integer", "minimum": 2},
            },
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "m": {"type": "integer", "minimum": 0},
                "p": {"type": "number", "minimum": 2},
            },
        },
        "physics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gamma": {"type": "number", "exclusiveMinimum": 0},
                "mu": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "mu_list": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                },
                "alpha": {"type": "number", "minimum": 0},
                "parabolic": {"type": "boolean"},
            },
        },
        "time": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dt": {
                    "anyOf": [
                        {"type": "number", "exclusiveMinimum": 0},
                        {"const": "auto"},
                    ]
                },
                "T": {"type": "number", "exclusiveMinimum": 0},
                "projection": {"type": "boolean"},
            },
        },
        "initial_data": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "u_modes": {"type": "array", "minItems": 1, "items": _MODE},
                "v_modes": {"type": "array", "items": _MODE},
            },
        },
        "study": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "ensemble": {"type": "integer", "minimum": 1},
                "delta": {"type": "number", "minimum": 0, "exclusiveMaximum": 2},
                "master_seed": {"type": "integer", "minimum": 0},
                "projection": {"type": "boolean"},
                "n_out": {"type": "integer", "minimum": 1},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string"},
                "stride": {"type": "integer", "minimum": 1},
            },
        },
    },
}

DEFAULT_CONFIG = {
    "grid": {"L": 1.0, "n": 127},
    "noise": {"m": 16, "p": 2.0},
    "physics": {"gamma": 1.0, "mu": 0.1,
                "mu_list": [0.2, 0.1, 0.05, 0.025],
                "alpha": 0.5, "parabolic": False},
    "time": {"dt": "auto", "T": 1.0, "projection": False},
    "initial_data": {"u_modes": [[1, 1, 1.0], [2, 2, 0.1]],
                     "v_modes": [[1, 2, 2.0], [2, 3, 1.0]]},
    "study": {"ensemble": 16, "delta": 1.0, "master_seed": 20240811,
              "projection": True, "n_out": 256},
    "output": {"directory": "spherewave-out", "stride": 1},
}


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration {path} is not valid JSON: {exc}") from exc
    return resolve_config(raw)


def resolve_config(raw: dict) -> dict:
    """Validate a user document and merge it over the defaults."""
    import jsonschema   # about 0.1 s of a cold start, paid only by commands that read a config

    bad = _non_finite(raw)
    if bad:
        raise ConfigError("configuration rejected: " + "; ".join(
            f"{'/'.join(str(p) for p in path)}: non-finite number" for path in bad))
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    problems = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if problems:
        lines = "; ".join(
            f"{'/'.join(str(p) for p in err.absolute_path) or '<root>'}: {err.message}"
            for err in problems)
        raise ConfigError(f"configuration rejected: {lines}")
    resolved = {section: dict(values) for section, values in DEFAULT_CONFIG.items()}
    for section, values in raw.items():
        resolved[section].update(values)
    _cross_check(resolved)
    return resolved


def _non_finite(doc, path=()) -> list[tuple]:
    """Key paths of the NaN and infinite floats anywhere in a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path] if isinstance(doc, float) and not math.isfinite(doc) else []
    return [bad for key, value in items for bad in _non_finite(value, path + (key,))]


def _cross_check(cfg: dict) -> None:
    """The rules no builder states, then one build of the grid, basis and initial data."""
    mus = cfg["physics"]["mu_list"]
    if any(b >= a for a, b in zip(mus, mus[1:])):
        raise ConfigError(f"physics.mu_list must be strictly decreasing, got {mus}")
    for k, d, _ in cfg["initial_data"]["u_modes"] + cfg["initial_data"]["v_modes"]:
        if int(k) != k or int(d) != d:
            raise ConfigError("mode indices must be integers")
    try:
        grid = build_grid(cfg)
        build_noise_basis(cfg, grid)
        initial_fields_from(cfg, grid)
    except (ParameterError, DegenerateFieldError) as exc:
        raise ConfigError(str(exc)) from exc


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def build_grid(cfg: dict) -> Grid1D:
    return Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])


def build_noise_basis(cfg: dict, grid: Grid1D):
    return build_basis(grid, cfg["noise"]["m"], cfg["noise"]["p"])


def study_config_from(cfg: dict) -> StudyConfig:
    try:
        return StudyConfig(
            L=cfg["grid"]["L"],
            n=cfg["grid"]["n"],
            m=cfg["noise"]["m"],
            p=cfg["noise"]["p"],
            gamma=cfg["physics"]["gamma"],
            alpha=cfg["physics"]["alpha"],
            mu_values=tuple(cfg["physics"]["mu_list"]),
            ensemble=cfg["study"]["ensemble"],
            delta=cfg["study"]["delta"],
            T=cfg["time"]["T"],
            u_modes=tuple(tuple(mode) for mode in cfg["initial_data"]["u_modes"]),
            v_modes=tuple(tuple(mode) for mode in cfg["initial_data"]["v_modes"]),
            master_seed=cfg["study"]["master_seed"],
            n_out=cfg["study"]["n_out"],
            dt=None if cfg["time"]["dt"] == "auto" else cfg["time"]["dt"],
            projection=cfg["study"]["projection"],
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def initial_fields_from(cfg: dict, grid: Grid1D):
    """Initial pair (u0, v0): u0 normalised, v0 projected onto the tangent."""
    return initial_pair(grid, cfg["initial_data"]["u_modes"], cfg["initial_data"]["v_modes"])


def spde_params_from(cfg: dict, grid: Grid1D) -> SpdeParams:
    """Parameters of the single trajectory; time.dt is the exact step, as in study.

    The auto step is the one every study level takes (SpdeParams.auto).
    """
    phys, time = cfg["physics"], cfg["time"]
    return SpdeParams.auto(grid, phys["mu"], time["T"], gamma=phys["gamma"],
                           alpha=phys["alpha"], projection=time["projection"], n_out=1,
                           dt=None if time["dt"] == "auto" else time["dt"])


def limit_params_from(cfg: dict, grid: Grid1D, basis) -> LimitParams:
    """Limit-solver parameters; the step rule does not depend on the kernel of `basis`."""
    phys, time = cfg["physics"], cfg["time"]
    if time["dt"] == "auto":
        return LimitParams.auto(grid, time["T"], gamma=phys["gamma"], n_out=1)
    return LimitParams(grid=grid, dt=time["dt"], T=time["T"], gamma=phys["gamma"])


def output_directory(cfg: dict) -> Path:
    """Configured output directory, overridable by SPHEREWAVE_OUTPUT only."""
    override = os.environ.get("SPHEREWAVE_OUTPUT")
    path = Path(override) if override else Path(cfg["output"]["directory"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def format_float(x) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def write_csv(path: Path, header: list[str], columns: list) -> None:
    """One row per entry of the equal-length columns, each cell format_float's string.

    Each column is turned into Python floats once, and repr of a float is
    format_float's string, without a numpy scalar per cell.
    """
    cells = [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells, strict=True)]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")
