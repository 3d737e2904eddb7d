"""Command-line layer: config validation, file emission, exit codes."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from spherewave import cli
from spherewave.checks import CHECK_NAMES, CheckResult, run_check
from spherewave.config import (
    DEFAULT_CONFIG,
    build_grid,
    config_hash,
    load_config,
    resolve_config,
    spde_params_from,
    study_config_from,
    write_csv,
)
from spherewave.errors import BlowUpError, ConfigError
from spherewave.limit import LimitParams
from spherewave.study import BLOCK_SIZE, MAX_ENERGY_DRIFT, StudyConfig


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def sim_config(tmp_path, **overrides):
    payload = {
        "grid": {"n": 63},
        "noise": {"m": 8},
        "physics": {"mu": 0.1},
        "time": {"dt": 1e-4, "T": 0.05},
        "output": {"directory": str(tmp_path / "out"), "stride": 50},
    }
    for section, values in overrides.items():
        payload.setdefault(section, {}).update(values)
    return write_config(tmp_path / "config.json", payload)


def simulate_columns(out):
    """simulate.csv in `out` as a dict of columns."""
    lines = (out / "simulate.csv").read_text().splitlines()
    values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return dict(zip(lines[0].split(","), values.T))


class TestConfigResolution:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"grids": {"n": 63}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"grid": {"n": 63, "spacing": 0.1}})

    def test_physical_constraints_rechecked(self):
        with pytest.raises(ConfigError):
            resolve_config({"noise": {"p": 1.0}})
        with pytest.raises(ConfigError):
            resolve_config({"physics": {"mu_list": [0.1, 0.2]}})
        with pytest.raises(ConfigError):
            resolve_config({"study": {"delta": 2.0}})

    def test_mode_indices_validated(self):
        with pytest.raises(ConfigError):
            resolve_config({"grid": {"n": 15}, "initial_data": {"u_modes": [[16, 1, 1.0]]}})

    def test_default_study_is_the_api_default(self):
        # config.DEFAULT_CONFIG takes StudyConfig's defaults; the default
        # study must be one study
        assert study_config_from(resolve_config({})) == StudyConfig()

    def test_defaults_filled(self):
        cfg = resolve_config({})
        assert cfg["grid"]["n"] == 127
        assert cfg["study"]["ensemble"] == 16

    def test_hash_is_stable(self):
        a = resolve_config({})
        b = resolve_config({})
        assert config_hash(a) == config_hash(b)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_one_projection_key(self):
        # time.projection, on by default, is the one switch of simulate and study
        keys = [(section, key) for section, values in DEFAULT_CONFIG.items()
                for key in values if "projection" in key]
        assert keys == [("time", "projection")] and DEFAULT_CONFIG["time"]["projection"]
        for on in (True, False):
            cfg = resolve_config({"time": {"projection": on}})
            assert study_config_from(cfg).projection is on
            assert spde_params_from(cfg, build_grid(cfg)).projection is on

    def test_readme_shows_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == DEFAULT_CONFIG


# one document per bound of the configuration contract: the document's
# structure, then each value bound, whichever owner states it
REFUSED = {
    "grid-L-0": {"grid": {"L": 0}},
    "grid-n-1": {"grid": {"n": 1}},
    "noise-m-negative": {"noise": {"m": -1}},
    "noise-p-1.5": {"noise": {"p": 1.5}},
    "gamma-0": {"physics": {"gamma": 0}},
    "mu-0": {"physics": {"mu": 0}},
    "mu-negative": {"physics": {"mu": -0.5}},
    "mu-1.5": {"physics": {"mu": 1.5}},
    "alpha-negative": {"physics": {"alpha": -0.1}},
    "mu_list-empty": {"physics": {"mu_list": []}},
    "mu_list-0": {"physics": {"mu_list": [0]}},
    "mu_list-1.5": {"physics": {"mu_list": [1.5]}},
    "dt-0": {"time": {"dt": 0}},
    "dt-negative": {"time": {"dt": -1}},
    "dt-string": {"time": {"dt": "fast"}},
    "T-0": {"time": {"T": 0}},
    "u_modes-empty": {"initial_data": {"u_modes": []}},
    "mode-2-numbers": {"initial_data": {"u_modes": [[1, 1]]}},
    "mode-4-numbers": {"initial_data": {"v_modes": [[1, 2, 1.0, 0.5]]}},
    "ensemble-0": {"study": {"ensemble": 0}},
    "delta-negative": {"study": {"delta": -0.1}},
    "delta-2": {"study": {"delta": 2}},
    "master_seed-negative": {"study": {"master_seed": -1}},
    "n_out-0": {"study": {"n_out": 0}},
    "stride-0": {"output": {"stride": 0}},
    "directory-number": {"output": {"directory": 5}},
    "parabolic-string": {"physics": {"parabolic": "yes"}},
    "projection-number": {"time": {"projection": 1}},
    "bool-for-number": {"physics": {"gamma": True}},
    "unknown-section": {"grids": {"n": 63}},
    "unknown-key": {"grid": {"spacing": 0.1}},
    "root-list": [],
    "section-list": {"grid": []},
}


@pytest.mark.parametrize("doc", list(REFUSED.values()), ids=list(REFUSED))
def test_refusal_corpus(doc):
    with pytest.raises(ConfigError):
        resolve_config(doc)


# documents every command accepts, with the sha256 of json.dumps of their
# resolved form: the key order, the values and their JSON types (an int stays
# an int) are pinned
ACCEPTED = {
    "defaults": ({}, "34ff0be55313bca932dcdd0d292b0ebc1d5b5970d4597882bde83c92043e884b"),
    "sim_config": ({"grid": {"n": 63}, "noise": {"m": 8}, "physics": {"mu": 0.1},
                    "time": {"dt": 1e-4, "T": 0.05},
                    "output": {"directory": "out", "stride": 50}},
                   "25440c1c206d8c4d63a952ca3e63d8718b4a2513799e280063a2418de846472f"),
    "alpha-0.25": ({"physics": {"alpha": 0.25}},
                   "8076a79de70d2fc24f4564f7d402cc33a905eb894b4d7ce39bf406a2326b364b"),
    "dt-0.01": ({"time": {"dt": 0.01}},
                "b4a24094f4f7404874364850755684dfc3dffdc87ecaac19e986d69e69ef6af8"),
    "ints-for-floats": ({"physics": {"gamma": 1, "mu_list": [1, 0.5]}, "time": {"T": 1}},
                        "5b8961af9ea1af45e15c7f65a600a8c516139a4164662c2e2580ff2be02bc3f7"),
}


@pytest.mark.parametrize("doc, digest", list(ACCEPTED.values()), ids=list(ACCEPTED))
def test_acceptance_corpus(doc, digest):
    cfg = resolve_config(doc)
    assert cfg == {section: {**values, **doc.get(section, {})}
                   for section, values in DEFAULT_CONFIG.items()}
    assert hashlib.sha256(json.dumps(cfg).encode()).hexdigest() == digest


# a config whose u_modes add up to the zero field, and non-finite literals that
# Python's json reads as floats (1e999 overflows to inf), or as an int past
# every float
ZERO_FIELD = {"initial_data": {"u_modes": [[1, 1, 1.0], [1, 1, -1.0]]}}
NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e999",
              pytest.param("1" + "0" * 400, id="integer-1e400"))
NON_FINITE_KEYS = {
    "physics/gamma": {"physics": {"gamma": "X"}},
    "time/T": {"time": {"T": "X"}},
    "initial_data/u_modes/0/2": {"initial_data": {"u_modes": [[1, 1, "X"]]}},
}


def refused(tmp_path, capsys, command, text, *options):
    """Run `command` (with `options`) on a config of this JSON text; it must stop at the config."""
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main([command, "-c", str(path), *options]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()
    return err


@pytest.mark.parametrize("command", ["simulate", "limit"])
@pytest.mark.parametrize("key", list(NON_FINITE_KEYS))
@pytest.mark.parametrize("literal", NON_FINITE)
def test_non_finite_numbers_refused(tmp_path, capsys, command, key, literal):
    # json reads these; the range rules pass NaN (every comparison is false) and inf
    payload = dict(NON_FINITE_KEYS[key], output={"directory": str(tmp_path / "out")})
    text = json.dumps(payload).replace('"X"', literal)
    err = refused(tmp_path, capsys, command, text)
    assert f"{key}: non-finite number" in err


# a small study; each case sets one integer key to an integral float
SMALL_RUN = {"grid": {"n": 31}, "noise": {"m": 4}, "physics": {"mu_list": [0.2]},
             "time": {"T": 0.05}, "study": {"ensemble": 1, "n_out": 8}}


@pytest.mark.parametrize("command, section, key, value", [
    ("simulate", "grid", "n", 63.0), ("study", "grid", "n", 63.0),
    ("simulate", "noise", "m", 4.0), ("study", "noise", "m", 4.0),
    ("simulate", "output", "stride", 2.0), ("study", "study", "ensemble", 2.0),
    ("simulate", "study", "master_seed", 5.0), ("study", "study", "master_seed", 5.0),
])
def test_integral_floats_refused_in_integer_keys(tmp_path, capsys, command, section, key,
                                                 value):
    payload = {name: dict(values) for name, values in SMALL_RUN.items()}
    payload.setdefault(section, {})[key] = value
    payload.setdefault("output", {})["directory"] = str(tmp_path / "out")
    err = refused(tmp_path, capsys, command, json.dumps(payload))
    assert f"{section}/{key}: expected an integer, got {value}" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_refused(tmp_path, capsys, workers):
    payload = dict(SMALL_RUN, output={"directory": str(tmp_path / "out")})
    err = refused(tmp_path, capsys, "study", json.dumps(payload), "--workers", workers)
    assert f"need at least one worker, got {workers}" in err


@pytest.mark.parametrize("command", ["simulate", "limit", "study"])
def test_zero_initial_field_refused(tmp_path, capsys, command):
    payload = dict(ZERO_FIELD, output={"directory": str(tmp_path / "out")})
    err = refused(tmp_path, capsys, command, json.dumps(payload))
    assert "zero field" in err


# what each command computes, and the name under which cli calls it
COMMAND_RUNS = {"simulate": "simulate", "limit": "solve_limit", "study": "run_study"}


@pytest.mark.parametrize("via_env", [False, True], ids=["config", "environment"])
@pytest.mark.parametrize("command", list(COMMAND_RUNS))
def test_unusable_output_directory_refused_before_the_run(tmp_path, monkeypatch, capsys,
                                                          command, via_env):
    # an output path naming an existing file stops the command before it
    # computes anything, with one line naming the path
    blocker = tmp_path / "afile"
    blocker.write_text("")

    def computed(*args, **kwargs):
        raise AssertionError(f"{command} computed before checking its output directory")

    monkeypatch.setattr(cli, COMMAND_RUNS[command], computed)
    directory = tmp_path / "out"
    if via_env:
        monkeypatch.setenv("SPHEREWAVE_OUTPUT", str(blocker))
    else:
        directory = blocker
    payload = dict(SMALL_RUN, output={"directory": str(directory)})
    err = refused(tmp_path, capsys, command, json.dumps(payload))
    assert f"output directory {str(blocker)!r}" in err


class TestSimulateCommand:
    def test_outputs_and_reproducibility(self, tmp_path):
        cfg = sim_config(tmp_path)
        assert cli.main(["simulate", "-c", cfg]) == 0
        out = tmp_path / "out"
        first = (out / "simulate.csv").read_bytes()
        manifest1 = json.loads((out / "simulate.manifest.json").read_text())
        assert cli.main(["simulate", "-c", cfg]) == 0
        assert (out / "simulate.csv").read_bytes() == first
        manifest2 = json.loads((out / "simulate.manifest.json").read_text())
        assert manifest1["config_hash"] == manifest2["config_hash"]

    def test_manifest_reproduces_run(self, tmp_path):
        # the resolved config embedded in the manifest regenerates the files
        cfg = sim_config(tmp_path)
        cli.main(["simulate", "-c", cfg])
        out = tmp_path / "out"
        first = (out / "simulate.csv").read_bytes()
        manifest = json.loads((out / "simulate.manifest.json").read_text())
        replay = write_config(tmp_path / "replay.json", manifest["config"])
        assert cli.main(["simulate", "-c", replay]) == 0
        assert (out / "simulate.csv").read_bytes() == first

    def test_manifest_work_counters(self, tmp_path):
        # 500 steps of 1e-4 to T = 0.05, one tridiagonal solve each
        cfg = sim_config(tmp_path)
        assert cli.main(["simulate", "-c", cfg]) == 0
        manifest = json.loads((tmp_path / "out" / "simulate.manifest.json").read_text())
        assert manifest["work"] == {"steps": 500, "helmholtz_solves": 500}

    def test_float_round_trip_and_stride(self, tmp_path):
        cfg = sim_config(tmp_path)
        cli.main(["simulate", "-c", cfg])
        lines = (tmp_path / "out" / "simulate.csv").read_text().strip().split("\n")
        assert lines[0].split(",") == ["t", "energy", "theta", "eta", "u_h1", "u_h2", "v_h",
                                       "v_h1", "weighted_h2", "j1", "j2", "j3", "j4", "j5",
                                       "j6"]
        # 500 steps at stride 50: rows at steps 0, 50, ..., 500
        assert len(lines) - 1 == 11
        for line in lines[1:]:
            for tok in line.split(","):
                assert repr(float(tok)) == tok
        t_first = float(lines[1].split(",")[0])
        t_last = float(lines[-1].split(",")[0])
        assert t_first == 0.0 and t_last == pytest.approx(0.05, rel=1e-12)

    def test_write_csv_cells_are_float_reprs(self, tmp_path):
        # write_csv formats whole columns at once; each cell must still be
        # the shortest round-trip string of that entry, repr of its float
        columns = [
            [1, -2, 3, 0],
            np.array([True, False, True, False]),
            np.array([-0.0, np.nan, np.inf, -np.inf]),
            [5e-324, 1e22, 2 ** 60 + 1, -(2 ** 60 + 1)],
            np.broadcast_to(np.float64(0.1), (4,)),
            np.arange(4, dtype=np.int64) * (2 ** 53 + 1),
        ]
        write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e", "f"], columns)
        expected = ["a,b,c,d,e,f"] + [",".join(repr(float(col[r])) for col in columns)
                                      for r in range(4)]
        assert (tmp_path / "t.csv").read_text() == "\n".join(expected) + "\n"

    def test_equilibrium_energy_column_constant(self, tmp_path):
        cfg = sim_config(tmp_path, initial_data={"u_modes": [[3, 1, 1.0]],
                                                 "v_modes": []})
        cli.main(["simulate", "-c", cfg])
        lines = (tmp_path / "out" / "simulate.csv").read_text().strip().split("\n")
        energies = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.abs(energies - energies[0]).max() <= 1e-12 * energies[0]

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "bad.json", {"grid": {"n": 1}})
        assert cli.main(["simulate", "-c", cfg]) == 1

    def test_overflowing_start_refused_cleanly(self, tmp_path, capsys):
        # finite modes whose norm overflows: one line on stderr, no RuntimeWarning first
        cfg = sim_config(tmp_path, initial_data={"v_modes": [[1, 2, 1e200]]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["simulate", "-c", cfg]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "numerical failure: non-finite field at step 0 of sample 0\n")

    def test_blowup_message_carries_last_finite_diagnostics(self, tmp_path, capsys):
        # the default trajectory at mu = 0.05, unprojected, overflows at step
        # 1120; its one stderr line names the diagnostics of the state
        # before that step, all finite
        cfg = write_config(tmp_path / "blowup.json", {
            "physics": {"mu": 0.05}, "time": {"projection": False},
            "output": {"directory": str(tmp_path / "out")}})
        assert cli.main(["simulate", "-c", cfg]) == 2
        err = capsys.readouterr().err
        match = re.fullmatch(r"numerical failure: non-finite field at step 1120 of sample 0"
                             r" \(last finite diagnostics: energy=(\S+), theta=(\S+),"
                             r" eta=(\S+), u_h1=(\S+)\)\n", err)
        assert match, err
        assert np.isfinite([float(x) for x in match.groups()]).all(), err

    @pytest.mark.parametrize("mu", StudyConfig().mu_values)
    def test_defaults_stay_on_the_sphere(self, tmp_path, mu):
        # projected by default: at each default study mass the trajectory keeps
        # its constraints to roundoff and its energy inside the sample gate
        cfg = write_config(tmp_path / "run.json", {
            "physics": {"mu": mu}, "output": {"directory": str(tmp_path / "out")}})
        assert cli.main(["simulate", "-c", cfg]) == 0
        columns = simulate_columns(tmp_path / "out")
        assert np.abs(columns["theta"]).max() <= 1e-12
        assert np.abs(columns["eta"]).max() <= 1e-12
        energy = columns["energy"]
        assert np.abs(energy - energy[0]).max() / energy[0] < MAX_ENERGY_DRIFT

    def test_unprojected_defaults_leave_the_sphere(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", {
            "time": {"projection": False}, "output": {"directory": str(tmp_path / "out")}})
        assert cli.main(["simulate", "-c", cfg]) == 0
        assert np.abs(simulate_columns(tmp_path / "out")["theta"]).max() > 0.1

    def test_env_output_override(self, tmp_path, monkeypatch):
        cfg = sim_config(tmp_path)
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("SPHEREWAVE_OUTPUT", str(override))
        cli.main(["simulate", "-c", cfg])
        assert (override / "simulate.csv").exists()
        assert not (tmp_path / "out" / "simulate.csv").exists()


class TestLimitCommand:
    def test_eigenfield_velocity_column(self, tmp_path):
        cfg = sim_config(tmp_path, initial_data={"u_modes": [[1, 2, 1.0]],
                                                 "v_modes": []},
                         time={"dt": "auto", "T": 0.1})
        assert cli.main(["limit", "-c", cfg]) == 0
        lines = (tmp_path / "out" / "limit.csv").read_text().strip().split("\n")
        idx = lines[0].split(",").index("ut_h")
        ut = np.array([float(l.split(",")[idx]) for l in lines[1:]])
        assert ut.max() <= 1e-10

    def test_output_schema(self, tmp_path):
        # the header follows the LimitTrajectory fields; reordering one reorders the CSV
        cfg = sim_config(tmp_path, time={"dt": "auto", "T": 0.1})
        assert cli.main(["limit", "-c", cfg]) == 0
        lines = (tmp_path / "out" / "limit.csv").read_text().splitlines()
        assert lines[0].split(",") == ["t", "u_h1", "u_h2", "ut_h", "sphere_residual",
                                       "projection_defect", "energy_lhs", "energy_rhs"]
        assert len({line.split(",")[-1] for line in lines[1:]}) == 1

    def test_manifest_work_counter(self, tmp_path):
        # 50 steps per relaxation time 1/lambda_{h,1} on both flows:
        # ceil(50 * 9.8676 * 0.2)
        for parabolic, steps in ((False, 99), (True, 99)):
            run = tmp_path / str(parabolic)
            run.mkdir()
            cfg = sim_config(run, time={"dt": "auto", "T": 0.2}, physics={"parabolic": parabolic})
            assert cli.main(["limit", "-c", cfg]) == 0
            manifest = json.loads((run / "out" / "limit.manifest.json").read_text())
            assert manifest["work"] == {"limit_steps": steps}

    @pytest.mark.parametrize("parabolic", [False, True], ids=["corrected", "parabolic"])
    def test_energy_inequality_rowwise(self, tmp_path, parabolic):
        # the parabolic flow, the limit flow of the silent basis, is the one
        # with no dissipative slack
        texts = {}
        for flag in (parabolic, not parabolic):
            run = tmp_path / str(flag)
            run.mkdir()
            cfg = sim_config(run, time={"dt": "auto", "T": 0.2},
                             physics={"parabolic": flag})
            assert cli.main(["limit", "-c", cfg]) == 0
            texts[flag] = (run / "out" / "limit.csv").read_text()
        lines = texts[parabolic].strip().split("\n")
        cols = lines[0].split(",")
        il, ir = cols.index("energy_lhs"), cols.index("energy_rhs")
        for line in lines[1:]:
            vals = line.split(",")
            assert float(vals[il]) <= float(vals[ir]) * (1 + 1e-6)
        # the config key must reach the solver: the two flows differ
        assert texts[True] != texts[False]


@pytest.mark.parametrize("command, solver", [("simulate", "simulate"),
                                             ("limit", "solve_limit")])
def test_blowup_exit_code(tmp_path, monkeypatch, capsys, command, solver):
    def blow_up(*args, **kwargs):
        raise BlowUpError(5)

    monkeypatch.setattr(cli, solver, blow_up)
    assert cli.main([command, "-c", sim_config(tmp_path)]) == 2
    assert capsys.readouterr().err == "numerical failure: non-finite field at step 5\n"


class TestStudyCommand:
    def study_config(self, tmp_path, **overrides):
        payload = {
            "grid": {"n": 63},
            "noise": {"m": 8},
            "physics": {"mu_list": [0.2, 0.025]},
            "time": {"T": 0.5},
            "study": {"ensemble": 2, "n_out": 64, "master_seed": 99},
            "output": {"directory": str(tmp_path / "study-out")},
        }
        for section, values in overrides.items():
            payload.setdefault(section, {}).update(values)
        return write_config(tmp_path / "study.json", payload)

    def test_study_outputs_and_trend(self, tmp_path, capsys):
        cfg = self.study_config(tmp_path)
        assert cli.main(["study", "-c", cfg, "--check"]) == 0
        assert capsys.readouterr().err == ""   # no level lost a sample
        out = tmp_path / "study-out"
        payload = json.loads((out / "study.json").read_text())
        means = payload["mean_error"]
        assert means[1] < means[0]
        first = (out / "study.json").read_bytes()
        assert cli.main(["study", "-c", cfg]) == 0
        assert (out / "study.json").read_bytes() == first

    def test_output_schema(self, tmp_path):
        # study.SampleRow and cli._study_csv must agree on the row format
        cfg = self.study_config(tmp_path)
        assert cli.main(["study", "-c", cfg]) == 0
        out = tmp_path / "study-out"
        header = (out / "study_samples.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "mu", "sample", "dt", "energy_residual", "norm_defect_sup", "tangent_defect_sup",
            "identity_sup", "blowup_step", "failed", "j1_sup", "j2_sup", "j3_sup", "j4_sup",
            "j5_sup", "j6_sup", "error_corrected"]
        rows = json.loads((out / "study.json").read_text())["rows"]
        assert {frozenset(row) for row in rows} == {frozenset({
            "mu_index", "mu", "sample", "seed_key", "dt", "errors", "energy_residual",
            "norm_defect_sup", "tangent_defect_sup", "j_sups", "identity_sup", "blowup_step",
            "gates", "last_finite"})}
        manifest = json.loads((out / "study.manifest.json").read_text())
        assert manifest["seeds"] == {"master_seed": 99}
        # study.json carries the manifest's work counters
        study = json.loads((out / "study.json").read_text())
        assert list(study) == ["config", "target", "targets", "mu_values", "mean_error",
                               "levels", "rows", "failed_checks", "provenance", "work"]
        assert study["work"] == manifest["work"]

    def test_manifest_work_counters(self, tmp_path):
        cfg = self.study_config(tmp_path)
        assert cli.main(["study", "-c", cfg, "--workers", "2"]) == 0
        out = tmp_path / "study-out"
        work = json.loads((out / "study.manifest.json").read_text())["work"]
        study = study_config_from(load_config(cfg))
        steps = [study.spde_params(mu).n_steps for mu in study.mu_values]
        assert work["blocks"] == 2 and work["block_size"] == BLOCK_SIZE
        assert work["sample_steps"] == 2 * sum(steps)
        assert work["helmholtz_solves"] == sum(steps)
        targets = json.loads((out / "study.json").read_text())["targets"]
        assert work["limit_steps"] == len(targets) * LimitParams.auto(
            study.grid(), study.T, gamma=study.gamma, n_out=study.n_out).n_steps

    def test_energy_gate_exit_code(self, tmp_path, monkeypatch):
        # deliberately coarse explicit step with a tight energy gate
        monkeypatch.setattr("spherewave.study.MAX_ENERGY_DRIFT", 1e-8)
        cfg = self.study_config(
            tmp_path,
            physics={"mu_list": [0.2]},
            time={"dt": 0.5 / 384, "T": 0.5, "projection": False},
            study={"ensemble": 1, "n_out": 64, "master_seed": 99},
        )
        assert cli.main(["study", "-c", cfg]) == 2

    @pytest.mark.parametrize("key, value", [("crn", False), ("failure_budget", 0.9),
                                            ("max_energy_drift", 0.5), ("cfl", 0.25),
                                            ("projection", False)])
    def test_removed_keys_rejected(self, tmp_path, capsys, key, value):
        # the CRN pairing, the energy gate, the failure budget and the step
        # fraction are constants; the projection switch is time.projection
        cfg = self.study_config(tmp_path, study={key: value})
        assert cli.main(["study", "-c", cfg]) == 1
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "study-out" / "study.json").exists()

    def test_dt_must_fill_the_output_grid(self, tmp_path, capsys):
        # time.dt is the exact step in study as in simulate: 1.5e-3 does not
        # divide T = 0.5, and 0.5/100 gives 100 steps for 64 output rows
        for dt, reason in ((1.5e-3, "does not divide"), (0.5 / 100, "not a multiple")):
            cfg = self.study_config(tmp_path, time={"dt": dt, "T": 0.5})
            assert cli.main(["study", "-c", cfg]) == 1
            assert reason in capsys.readouterr().err
            with pytest.raises(ConfigError, match=reason):
                study_config_from(load_config(cfg))

    def test_check_on_one_level_refused(self, tmp_path, capsys):
        # one mean cannot decay: study --check on one mass level is refused
        # before anything runs or is written
        cfg = self.study_config(tmp_path, physics={"mu_list": [0.2]})
        assert cli.main(["study", "-c", cfg, "--check"]) == 1
        assert capsys.readouterr().err == (
            "configuration error: the trend check needs at least two mass levels, got 1\n")
        assert not (tmp_path / "study-out").exists()

    def test_small_alpha_needs_exploratory(self, tmp_path, capsys):
        # below 1/2 no limit is proven: the CLI refuses before any output
        cfg = self.study_config(tmp_path, physics={"alpha": 0.25})
        assert cli.main(["study", "-c", cfg]) == 1
        assert "exploratory" in capsys.readouterr().err
        assert not (tmp_path / "study-out" / "study.json").exists()

    def test_acceptance_trend_exit_code(self, tmp_path):
        # comparing against the wrong target gives a plateau, failing --check
        cfg = self.study_config(
            tmp_path,
            physics={"mu_list": [0.05, 0.0125], "alpha": 1.0, "gamma": 5.0},
            initial_data={"v_modes": []},
        )
        assert cli.main(["study", "-c", cfg, "--check", "--target", "corrected"]) == 3

    def test_unprojected_blowups_exit_without_traceback(self, tmp_path):
        # every sample of this level blows up; with RuntimeWarnings as errors
        # the run must still record them and exit with the failed check
        cfg = write_config(tmp_path / "blowup.json", {
            "physics": {"mu_list": [0.025]},
            "time": {"projection": False},
            "study": {"ensemble": 5},
            "output": {"directory": str(tmp_path / "out")}})
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "spherewave.cli", "study",
             "-c", cfg], capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr == (
            "blow-ups: mu_index=0 (mu=0.025) lost 5/5 samples; the first was sample 1,"
            " at step 1356\n"
            "numerical failure: mu=0.025: 5/5 failures (blow-up)\n")

    def test_partial_blowups_print_their_level(self, tmp_path, monkeypatch, capsys):
        # unprojected, mu = 0.05 loses two of five samples, inside the failure
        # budget once the energy gate is off, and mu = 0.1 none: one line names
        # the level, the count and the earliest blow-up, and the run passes
        monkeypatch.setattr("spherewave.study.MAX_ENERGY_DRIFT", np.inf)
        cfg = write_config(tmp_path / "partial.json", {
            "physics": {"mu_list": [0.1, 0.05]},
            "time": {"projection": False},
            "study": {"ensemble": 5},
            "output": {"directory": str(tmp_path / "out")}})
        assert cli.main(["study", "-c", cfg]) == 0
        assert capsys.readouterr().err == (
            "blow-ups: mu_index=1 (mu=0.05) lost 2/5 samples; the first was sample 1,"
            " at step 1243\n")


class TestCheckCommand:
    @pytest.fixture(scope="class")
    def check_lines(self):
        # one run of the full suite, shared by the tests that read it
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["check"])
        return code, out.getvalue().strip().split("\n")

    def test_all_pass(self, check_lines):
        code, lines = check_lines
        assert code == 0
        names = [line.split("\t")[1] for line in lines]
        assert names == list(CHECK_NAMES)
        assert all(line.startswith("PASS") for line in lines)

    def test_mutated_correction_detected(self, capsys):
        assert cli.main(["check", "--mutate-correction-sign"]) == 2
        lines = capsys.readouterr().out.strip().split("\n")
        failed = [line.split("\t")[1] for line in lines if not line.startswith("PASS")]
        assert failed == ["energy-identity"]

    def test_each_check_runs_alone_on_its_own_stream(self, check_lines):
        # no check shares a stream with another, so each check run alone, in
        # reverse order, repeats the result run_all gave it in the full suite
        alone = [run_check(name) for name in reversed(CHECK_NAMES)][::-1]
        suite = [CheckResult(name, verdict == "PASS", detail)
                 for verdict, name, detail in (line.split("\t") for line in check_lines[1])]
        assert suite == alone
