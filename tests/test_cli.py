"""Command-line layer: config validation, file emission, exit codes."""

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
from spherewave.config import config_hash, load_config, resolve_config, study_config_from
from spherewave.errors import BlowUpError, ConfigError
from spherewave.limit import LimitParams
from spherewave.study import BLOCK_SIZE, StudyConfig


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
        # the CLI's defaults (config.DEFAULT_CONFIG) and StudyConfig's fields
        # state every default twice; the default study must be one study
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
        header = lines[0].split(",")
        assert header[:4] == ["t", "energy", "theta", "eta"]
        assert header[-6:] == ["j1", "j2", "j3", "j4", "j5", "j6"]
        # 500 steps at stride 50: rows at steps 0, 50, ..., 500
        assert len(lines) - 1 == 11
        for line in lines[1:]:
            for tok in line.split(","):
                assert repr(float(tok)) == tok
        t_first = float(lines[1].split(",")[0])
        t_last = float(lines[-1].split(",")[0])
        assert t_first == 0.0 and t_last == pytest.approx(0.05, rel=1e-12)

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
        # the default unprojected trajectory at mu = 0.05 overflows at step
        # 1120; its one stderr line names the diagnostics of the state
        # before that step, all finite
        cfg = write_config(tmp_path / "blowup.json", {
            "physics": {"mu": 0.05}, "output": {"directory": str(tmp_path / "out")}})
        assert cli.main(["simulate", "-c", cfg]) == 2
        err = capsys.readouterr().err
        match = re.fullmatch(r"numerical failure: non-finite field at step 1120 of sample 0"
                             r" \(last finite diagnostics: energy=(\S+), theta=(\S+),"
                             r" eta=(\S+), u_h1=(\S+)\)\n", err)
        assert match, err
        assert np.isfinite([float(x) for x in match.groups()]).all(), err

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

    def test_manifest_work_counter(self, tmp_path):
        # 200 steps per relaxation time 1/lambda_{h,1}: ceil(200 * 9.8676 * 0.2)
        cfg = sim_config(tmp_path, time={"dt": "auto", "T": 0.2})
        assert cli.main(["limit", "-c", cfg]) == 0
        manifest = json.loads((tmp_path / "out" / "limit.manifest.json").read_text())
        assert manifest["work"] == {"limit_steps": 395}

    def test_energy_inequality_rowwise(self, tmp_path):
        cfg = sim_config(tmp_path, time={"dt": "auto", "T": 0.2})
        assert cli.main(["limit", "-c", cfg]) == 0
        lines = (tmp_path / "out" / "limit.csv").read_text().strip().split("\n")
        cols = lines[0].split(",")
        il, ir = cols.index("energy_lhs"), cols.index("energy_rhs")
        for line in lines[1:]:
            vals = line.split(",")
            assert float(vals[il]) <= float(vals[ir]) * (1 + 1e-6)


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

    def test_study_outputs_and_trend(self, tmp_path):
        cfg = self.study_config(tmp_path)
        assert cli.main(["study", "-c", cfg, "--check"]) == 0
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
        assert work["limit_steps"] == sum(
            LimitParams.auto(study.grid(), study.T, gamma=study.gamma,
                             parabolic=(name == "parabolic"), n_out=study.n_out).n_steps
            for name in targets)

    def test_energy_gate_exit_code(self, tmp_path, monkeypatch):
        # deliberately coarse explicit step with a tight energy gate
        monkeypatch.setattr("spherewave.study.MAX_ENERGY_DRIFT", 1e-8)
        cfg = self.study_config(
            tmp_path,
            physics={"mu_list": [0.2]},
            time={"dt": 0.5 / 384, "T": 0.5},
            study={"ensemble": 1, "n_out": 64, "master_seed": 99, "projection": False},
        )
        assert cli.main(["study", "-c", cfg]) == 2

    @pytest.mark.parametrize("key, value", [("crn", False), ("failure_budget", 0.9),
                                            ("max_energy_drift", 0.5), ("cfl", 0.25)])
    def test_removed_keys_rejected(self, tmp_path, capsys, key, value):
        # the CRN pairing, the energy gate, the failure budget and the step
        # fraction are constants
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
            "study": {"ensemble": 5, "projection": False},
            "output": {"directory": str(tmp_path / "out")}})
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "spherewave.cli", "study",
             "-c", cfg], capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr == "numerical failure: mu=0.025: 5/5 failures (blow-up)\n"


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
