"""Run configuration: resolution, hashing, and file emission.

A run is described by one JSON document with the sections grid, noise,
physics, time, initial_data, study, output.  One walk refuses unknown keys,
wrong JSON types and non-finite numbers; each value bound is its builder's,
called once on the merged document.  Emitted CSV floats use the shortest
representation that parses back to the same value, so output files are
byte-stable across reruns.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import Field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParameterError
from .fields import Grid1D, initial_pair, output_rows, step_count
from .limit import LimitParams
from .noise import build_basis
from .spde import SpdeParams
from .study import StudyConfig

__all__ = [
    "DEFAULT_CONFIG",
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
    "write_csv",
    "write_json",
]

_FIELDS = {f.name: f for f in fields(StudyConfig)}

# The document's keys in their order; a key holding a StudyConfig field takes
# that field's default, and study_config_from reads it back into the field.
_LAYOUT = {
    "grid": {"L": _FIELDS["L"], "n": _FIELDS["n"]},
    "noise": {"m": _FIELDS["m"], "p": _FIELDS["p"]},
    "physics": {"gamma": _FIELDS["gamma"], "mu": 0.1, "mu_list": _FIELDS["mu_values"],
                "alpha": _FIELDS["alpha"], "parabolic": False},
    "time": {"dt": _FIELDS["dt"], "T": _FIELDS["T"], "projection": _FIELDS["projection"]},
    "initial_data": {"u_modes": _FIELDS["u_modes"], "v_modes": _FIELDS["v_modes"]},
    "study": {"ensemble": _FIELDS["ensemble"], "delta": _FIELDS["delta"],
              "master_seed": _FIELDS["master_seed"], "n_out": _FIELDS["n_out"]},
    "output": {"directory": "spherewave-out", "stride": 1},
}


def _as_json(value):
    """A StudyConfig default as JSON: lists for tuples, "auto" for the unset dt."""
    if isinstance(value, tuple):
        return [_as_json(item) for item in value]
    return "auto" if value is None else value


def _from_json(value):
    """The inverse of _as_json."""
    if isinstance(value, list):
        return tuple(_from_json(item) for item in value)
    return None if value == "auto" else value


DEFAULT_CONFIG = {section: {key: _as_json(value.default) if isinstance(value, Field) else value
                             for key, value in keys.items()} for section, keys in _LAYOUT.items()}

# The shapes the defaults cannot show; every other key takes its default's
# JSON type.  A list of one rule takes any number of such items, a tuple
# exactly those items.
_SHAPES = {"dt": "auto", "mu_list": [float], "u_modes": [(float,) * 3], "v_modes": [(float,) * 3]}
_RULES = {section: {key: _SHAPES.get(key, type(value)) for key, value in keys.items()}
          for section, keys in DEFAULT_CONFIG.items()}
_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
          "auto": 'a number or "auto"'}


def _is(value, kind) -> bool:
    """JSON type test: a bool is no number, a float is no integer, and "auto" takes a number."""
    if kind == "auto":
        return value == "auto" or _is(value, float)
    return type(value) in ((int, float) if kind is float else (kind,))


def _faults(doc, rule, path: str = "") -> list[str]:
    """Every structural fault of `doc` against `rule`, each with its key path."""
    where = path or "<root>"
    if isinstance(rule, dict):
        if not _is(doc, dict):
            return [f"{where}: expected an object, got {json.dumps(doc)}"]
        return [fault for key, value in doc.items() for fault in (
            _faults(value, rule[key], f"{path}/{key}".lstrip("/")) if key in rule
            else [f"{where}: unknown key {key!r}"])]
    if isinstance(rule, (list, tuple)):
        if not _is(doc, list) or isinstance(rule, tuple) and len(doc) != len(rule):
            size = f"{len(rule)} " if isinstance(rule, tuple) else ""
            return [f"{where}: expected a list of {size}items, got {json.dumps(doc)}"]
        rules = rule if isinstance(rule, tuple) else rule * len(doc)
        return [fault for i, (value, item) in enumerate(zip(doc, rules))
                for fault in _faults(value, item, f"{path}/{i}")]
    if not _is(doc, rule):
        return [f"{where}: expected {_KINDS[rule]}, got {json.dumps(doc)}"]
    if _is(doc, float) and not abs(doc) <= sys.float_info.max:   # also an int past every float
        return [f"{where}: non-finite number"]
    return []


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
    """Check a user document's structure, merge it over the defaults, then its values."""
    faults = _faults(raw, _RULES)
    if faults:
        raise ConfigError("configuration rejected: " + "; ".join(faults))
    resolved = {section: dict(values) for section, values in DEFAULT_CONFIG.items()}
    for section, values in raw.items():
        resolved[section].update(values)
    _cross_check(resolved)
    return resolved


def _cross_check(cfg: dict) -> None:
    """The one rule no builder states, then each value bound's owner, called once.

    alpha and dt keep StudyConfig's defaults: alpha >= 1/2 and the per-level
    step rules are the study command's, applied by study_config_from.
    """
    for k, d, _ in cfg["initial_data"]["u_modes"] + cfg["initial_data"]["v_modes"]:
        if int(k) != k or int(d) != d:
            raise ConfigError("mode indices must be integers")
    phys, time = cfg["physics"], cfg["time"]
    try:
        SpdeParams.auto(build_grid(cfg), phys["mu"], time["T"], gamma=phys["gamma"],
                        alpha=phys["alpha"], n_out=1)
        if time["dt"] != "auto":
            step_count(time["dt"], time["T"])
        output_rows(0, cfg["output"]["stride"])   # its stride rule
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    _study_config(cfg, exclude=("alpha", "dt"))


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def build_grid(cfg: dict) -> Grid1D:
    return Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])


def build_noise_basis(cfg: dict, grid: Grid1D):
    return build_basis(grid, cfg["noise"]["m"], cfg["noise"]["p"])


def study_config_from(cfg: dict) -> StudyConfig:
    return _study_config(cfg)


def _study_config(cfg: dict, exclude=()) -> StudyConfig:
    """StudyConfig of the document's keys, but the `exclude`d fields at their defaults."""
    return StudyConfig(**{value.name: _from_json(cfg[section][key])
                          for section, keys in _LAYOUT.items() for key, value in keys.items()
                          if isinstance(value, Field) and value.name not in exclude})


def initial_fields_from(cfg: dict, grid: Grid1D):
    """Initial pair (u0, v0): u0 normalised, v0 projected onto the tangent."""
    return initial_pair(grid, cfg["initial_data"]["u_modes"], cfg["initial_data"]["v_modes"])


def spde_params_from(cfg: dict, grid: Grid1D) -> SpdeParams:
    """Parameters of the single trajectory; time.dt and time.projection as in study.

    time.dt is the exact step, and the auto step is the one every study level
    takes (SpdeParams.auto); time.projection, on by default, re-projects each step.
    """
    phys, time = cfg["physics"], cfg["time"]
    return SpdeParams.auto(grid, phys["mu"], time["T"], gamma=phys["gamma"],
                           alpha=phys["alpha"], projection=time["projection"], n_out=1,
                           dt=None if time["dt"] == "auto" else time["dt"])


def limit_params_from(cfg: dict, grid: Grid1D, _basis=None) -> LimitParams:
    """Limit-solver parameters: time.dt is the exact step, and the auto step is
    the one accuracy rule of both flows (LimitParams.auto).

    The third slot, a noise basis, is read nowhere: the step rule no longer
    depends on the basis, and it stays so that callers that still pass one
    keep working.
    """
    phys, time = cfg["physics"], cfg["time"]
    if time["dt"] == "auto":
        return LimitParams.auto(grid, time["T"], gamma=phys["gamma"], n_out=1)
    return LimitParams(grid=grid, dt=time["dt"], T=time["T"], gamma=phys["gamma"])


def output_directory(cfg: dict) -> Path:
    """Configured output directory, overridable by SPHEREWAVE_OUTPUT only."""
    override = os.environ.get("SPHEREWAVE_OUTPUT")
    path = Path(override) if override else Path(cfg["output"]["directory"])
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {str(path)!r}: {exc.strerror}") from exc
    return path


def write_csv(path: Path, header: list[str], columns: list) -> None:
    """One row per entry of the equal-length columns, each cell repr of its Python float.

    Each column becomes Python floats in one call, not a numpy scalar per cell.
    """
    cells = [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells, strict=True)]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")
