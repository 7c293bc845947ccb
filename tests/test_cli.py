"""Harness tests: config validation, hashing, dispatch, manifests, tables."""

import csv
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from snse_lab import cli, config, deviation, noise, solvers, spectral
from snse_lab.cli import emit_tables, main
from snse_lab.config import (
    ConfigError,
    admissibility_check,
    build_control,
    build_grid,
    build_ledger,
    build_noise,
    build_sim_config,
    config_hash,
    example_config,
    validate_config,
)
from snse_lab.deviation import ConstantsLedger
from snse_lab.persist import (
    read_report,
    sha256_file,
    write_trajectory,
)
from snse_lab.lil import build_probe
from snse_lab.rng import substream
from snse_lab.solvers import IntegrationError, SimConfig, solve_deterministic, solve_skeleton
from snse_lab.spectral import full_spectrum, single_mode_field
from snse_lab.verification import CheckRow, run_invariant_suite

from helpers import ScaledNormals, h_norm_sq_array, read_trajectory


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_example_configs_validate(self):
        for kind in ("simulate", "skeleton", "rate", "mdp-scaling", "fw-probe",
                     "moments", "lil-strassen", "lil-classical", "verify"):
            validate_config(example_config(kind))

    @pytest.mark.parametrize("kind", ["simulate", "skeleton", "rate",
                                      "mdp-scaling", "fw-probe", "moments",
                                      "lil-strassen", "lil-classical"])
    def test_example_configs_run_end_to_end(self, tmp_path, kind):
        cfg = example_config(kind)
        # shrink the Monte Carlo load; structural settings stay as shipped
        if "samples" in cfg["experiment"]:
            cfg["experiment"]["samples"] = 30
        if "replicates" in cfg["experiment"]:
            cfg["experiment"]["replicates"] = 2
        path = _write(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", "--config", path, "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["status"] == "ok"
        assert manifest["outputs"]

    @pytest.mark.parametrize("kind", ["simulate", "skeleton", "rate", "mdp-scaling",
                                      "fw-probe", "moments", "lil-strassen",
                                      "lil-classical", "verify"])
    def test_norms_read_conjugate_symmetric_inputs(self, tmp_path, kind, monkeypatch):
        # every norm and the blow-up guard read a field through its kx >= 0
        # columns (`half_spectrum`), which hold its whole norm only if it is
        # conjugate symmetric: every example kind, nonlinear but for rate's
        # slow optimizer, passes them nothing else
        from snse_lab import deviation, solvers, spectral

        half_spectrum = spectral.half_spectrum
        seen, asymmetric = [], []

        def checked(coeffs):
            defect = np.max(np.abs(coeffs - np.conj(coeffs[..., ::-1, ::-1])), initial=0.0)
            if defect > 1e-12 * max(np.max(np.abs(coeffs), initial=0.0), 1e-300):
                asymmetric.append((coeffs.shape, defect))
            seen.append(coeffs.shape)
            return half_spectrum(coeffs)

        for module in (spectral, solvers, deviation):
            monkeypatch.setattr(module, "half_spectrum", checked)
        cfg = example_config(kind)
        cfg["solver"]["nonlinear"] = kind != "rate"
        if "samples" in cfg["experiment"]:
            cfg["experiment"]["samples"] = 30
        if "replicates" in cfg["experiment"]:
            cfg["experiment"]["replicates"] = 2
        assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0
        assert seen and not asymmetric

    @pytest.mark.parametrize("kind", ["skeleton", "rate", "lil-strassen"])
    def test_example_skeletons_couple(self, kind):
        # each example control's nonlinear skeleton differs from its linear
        # one, so the nonlinear example runs exercise the linearization
        # around u0; relative sup-in-time L2 distance per control
        images = {}
        for nonlinear in (False, True):
            cfg = example_config(kind)
            cfg["solver"]["nonlinear"] = nonlinear
            exp = cfg["experiment"]
            grid = build_grid(cfg)
            noise = build_noise(cfg, grid)
            sim = build_sim_config(cfg, grid, noise)
            u0 = solve_deterministic(replace(sim, record_stride=1))
            if kind == "lil-strassen":
                probe = build_probe(sim, u0, exp["probe_directions"], exp["probe_shapes"])
                images[nonlinear] = probe.frames[1:]  # the zero control's image is zero
            else:
                control = build_control(exp["target_control" if kind == "rate" else "control"],
                                        noise, sim)
                images[nonlinear] = solve_skeleton(control, u0, sim).frames[None]
        diff = np.max(h_norm_sq_array(grid, full_spectrum(images[True] - images[False])), axis=-1)
        size = np.max(h_norm_sq_array(grid, full_spectrum(images[False])), axis=-1)
        assert np.all(np.sqrt(diff / size) >= 1e-3)

    def test_schema_violation_names_keys(self):
        cfg = example_config("simulate")
        cfg["solver"]["dt"] = -1.0
        cfg["grid"]["max_wavenumber"] = 0
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        keys = " ".join(exc.value.offending)
        assert "solver/dt" in keys and "grid/max_wavenumber" in keys

    def test_unknown_key_rejected(self):
        cfg = example_config("simulate")
        cfg["bogus"] = 1
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_hash_stable_under_reordering(self):
        cfg = example_config("simulate")
        reordered = json.loads(json.dumps(cfg, sort_keys=True))
        items = list(reordered.items())[::-1]
        assert config_hash(cfg) == config_hash(dict(items))

    def test_hash_ignores_output_dir(self):
        a = example_config("simulate")
        b = json.loads(json.dumps(a))
        b["output"] = {"dir": "elsewhere"}
        assert config_hash(a) == config_hash(b)
        b["seed"] = a["seed"] + 1
        assert config_hash(a) != config_hash(b)

    @pytest.mark.parametrize("kind", ["lil-strassen", "lil-classical"])
    def test_default_j_min_is_admissible(self, kind):
        cfg = example_config(kind)
        del cfg["experiment"]["j_min"]
        validate_config(cfg)
        admissibility_check(cfg, ConstantsLedger())

    def test_admissibility_threshold_named(self):
        cfg = example_config("mdp-scaling")
        cfg["constants"] = {"K9": 1000.0}
        with pytest.raises(ConfigError) as exc:
            admissibility_check(cfg, build_ledger(cfg))
        assert "78" in str(exc.value)


class TestTrajectoryFiles:
    def test_round_trip(self, tmp_path, grid1, noise1):
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.02, dt=1e-3,
                        initial=single_mode_field(grid1, (1, 0), (0.0, 1.0)),
                        nonlinear=False, record_stride=5)
        traj = solve_deterministic(cfg, provenance={"tag": "round-trip"})
        path = str(tmp_path / "t.bin")
        write_trajectory(path, traj)
        back = read_trajectory(path)
        np.testing.assert_array_equal(back.frames, traj.frames)
        np.testing.assert_array_equal(back.times, traj.times)
        assert back.sup_h2 == traj.sup_h2
        assert back.provenance["tag"] == "round-trip"


class TestRunVerb:
    def test_simulate_writes_manifest_and_trajectory(self, tmp_path):
        cfg = example_config("simulate")
        cfg["solver"]["horizon"] = 0.05
        path = _write(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", "--config", path, "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["status"] == "ok"
        names = [o["path"] for o in manifest["outputs"]]
        assert "trajectory.bin" in names and "simulate_report.json" in names
        traj = read_trajectory(os.path.join(out, "trajectory.bin"))
        assert traj.n_records >= 2

    def test_zero_horizon_trajectory_has_initial_only(self, tmp_path):
        cfg = example_config("simulate")
        cfg["solver"]["horizon"] = 0.0
        cfg["solver"]["epsilon"] = 0.0
        path = _write(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", "--config", path, "--out", out]) == 0
        traj = read_trajectory(os.path.join(out, "trajectory.bin"))
        assert traj.n_records == 1

    def test_determinism_byte_identical(self, tmp_path):
        cfg = example_config("moments")
        cfg["experiment"]["samples"] = 30
        cfg["solver"]["horizon"] = 0.05
        path = _write(tmp_path, cfg)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", path, "--out", out1]) == 0
        assert main(["run", "--config", path, "--out", out2]) == 0
        m1 = json.load(open(os.path.join(out1, "manifest.json")))
        m2 = json.load(open(os.path.join(out2, "manifest.json")))
        sums1 = {o["path"]: o["sha256"] for o in m1["outputs"]}
        sums2 = {o["path"]: o["sha256"] for o in m2["outputs"]}
        assert sums1 == sums2

    def test_moments_follows_experiment_control(self, tmp_path):
        # the control steers the shifted process and the steered path; the
        # noisy state it does not touch
        cfg = example_config("moments")
        cfg["experiment"]["samples"] = 10
        cfg["solver"]["horizon"] = 0.05
        results = []
        for control in (None, {"type": "single_direction", "direction": 0, "amplitude": 1.0}):
            if control is not None:
                cfg["experiment"]["control"] = control
            out = str(tmp_path / f"out{len(results)}")
            assert main(["run", "--config", _write(tmp_path, cfg), "--out", out]) == 0
            results.append(read_report(os.path.join(out, "moments_report.json"))["results"])
        zero, steered = results
        assert zero["deterministic"]["steered_sup_sq_plus_int"] == 0.0
        assert steered["deterministic"]["steered_sup_sq_plus_int"] > 0.0

        def rows(res, prefix):
            return [r for r in res["rows"] if r["section"].startswith(prefix)]

        assert rows(steered, "state_") == rows(zero, "state_")
        assert rows(steered, "shifted_") != rows(zero, "shifted_")

    def test_admissibility_error_writes_failed_manifest(self, tmp_path):
        cfg = example_config("mdp-scaling")
        cfg["constants"] = {"K9": 1000.0}
        cfg["experiment"]["samples"] = 10
        path = _write(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", "--config", path, "--out", out]) == 3
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["status"] == "failed"
        assert "78" in manifest["error"]["message"]

    @pytest.mark.parametrize("kind", ["lil-strassen", "lil-classical"])
    def test_schedule_below_admissibility_floor(self, tmp_path, capsys, kind):
        # default constants: eps0 = 1/78, so base-2 schedules must start above log2(78)
        cfg = example_config(kind)
        cfg["experiment"]["j_min"] = 5
        path = _write(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", "--config", path, "--out", out]) == 3
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["status"] == "failed" and "j_min=5" in manifest["error"]["message"]
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["offending_keys"] == ["experiment/j_min"]

    def test_incompatible_dyadic_depth_is_config_error(self, tmp_path, capsys):
        # 2^6 = 64 dyadic cells cannot tile the example's 32 recorded steps
        cfg = example_config("fw-probe")
        cfg["experiment"]["dyadic_depth"] = 6
        path = _write(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", "--config", path, "--out", out]) == 3
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["status"] == "failed" and "64 cells" in manifest["error"]["message"]
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["offending_keys"] == ["experiment/dyadic_depth"]

    # K=4: at N=12 = 3K the product modes at |k| = 2K alias onto |k| = K;
    # N=10 is the smallest grid SpectralGrid accepts at all
    @pytest.mark.parametrize("resolution", [10, 12])
    def test_nonlinear_below_product_margin_is_config_error(self, tmp_path, capsys, resolution):
        cfg = example_config("simulate")
        cfg["grid"]["physical_resolution"] = resolution
        cfg["solver"]["nonlinear"] = True
        path = _write(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", "--config", path, "--out", out]) == 3
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["status"] == "failed" and "3K + 1 = 13" in manifest["error"]["message"]
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["offending_keys"] == ["grid/physical_resolution"]

    # configs that pass the schema but name a run that cannot be built: each
    # is an admissibility failure (exit 3) naming its section, not a run-time one
    @pytest.mark.parametrize("kind, changes, offending", [
        ("moments", {"constants": {"K1": 0.05, "K2": 0.05, "K9": 0.05},
                     "experiment/epsilon_grid": [0.1]}, "experiment/epsilon_grid"),
        ("simulate", {"solver/initial": {"type": "single_mode", "k": [9, 0]}}, "solver"),
        ("simulate", {"noise/num_directions": 10000}, "noise"),
        ("simulate", {"grid/physical_resolution": 5}, "grid"),
        ("simulate", {"solver/horizon": 0.2505}, "solver"),
    ], ids=["moments-loglog", "mode-outside-K", "too-many-directions",
            "resolution-5", "horizon-not-multiple-of-dt"])
    def test_unbuildable_config_is_admissibility_error(self, tmp_path, capsys, kind,
                                                       changes, offending):
        cfg = example_config(kind)
        for key, value in changes.items():
            *sections, name = key.split("/")
            target = cfg
            for section in sections:
                target = target[section]
            target[name] = value
        validate_config(cfg)
        path = _write(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["stage"] == "admissibility"
        assert err["offending_keys"] == [offending]

    # the gate builds the schedule, the fw config and a(eps) once and the
    # dispatch uses what it built
    @pytest.mark.parametrize("kind, builder", [
        ("lil-classical", "build_schedule"), ("fw-probe", "build_fw_config"),
        ("mdp-scaling", "build_a_spec"),
    ])
    def test_experiment_objects_built_once(self, tmp_path, monkeypatch, kind, builder):
        calls = {name: 0 for name in ("build_schedule", "build_fw_config", "build_a_spec")}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(config, name)):
                calls[_name] += 1
                return _fn(*args)

            for module in (config, cli):
                monkeypatch.setattr(module, name, counted, raising=False)
        cfg = example_config(kind)
        if "samples" in cfg["experiment"]:
            cfg["experiment"]["samples"] = 20
        path = _write(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert calls == {name: int(name == builder) for name in calls}

    def test_constant_no_threshold_reads_is_config_error(self, tmp_path, capsys):
        cfg = example_config("simulate")
        cfg["constants"]["K5"] = 1.0
        path = _write(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["stage"] == "config" and err["offending_keys"] == ["constants"]

    def test_linear_run_needs_no_product_margin(self, tmp_path):
        cfg = example_config("simulate")
        cfg["grid"]["physical_resolution"] = 10
        cfg["solver"]["horizon"] = 0.05
        path = _write(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0

    def test_seed_override_changes_hashless_outputs(self, tmp_path):
        cfg = example_config("simulate")
        cfg["solver"]["horizon"] = 0.05
        path = _write(tmp_path, cfg)
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        assert main(["run", "--config", path, "--out", out1, "--seed", "1"]) == 0
        assert main(["run", "--config", path, "--out", out2, "--seed", "2"]) == 0
        t1 = read_trajectory(os.path.join(out1, "trajectory.bin"))
        t2 = read_trajectory(os.path.join(out2, "trajectory.bin"))
        assert not np.array_equal(t1.frames, t2.frames)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = example_config("simulate")
        cfg["solver"]["horizon"] = 0.05
        path = _write(tmp_path, cfg)
        out1 = str(tmp_path / "e1")
        out2 = str(tmp_path / "e2")
        monkeypatch.setenv("SNSE_LAB_SEED", "777")
        assert main(["run", "--config", path, "--out", out1]) == 0
        monkeypatch.delenv("SNSE_LAB_SEED")
        assert main(["run", "--config", path, "--out", out2, "--seed", "777"]) == 0
        s1 = sha256_file(os.path.join(out1, "trajectory.bin"))
        s2 = sha256_file(os.path.join(out2, "trajectory.bin"))
        assert s1 == s2

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_workers_below_one_is_config_error(self, tmp_path, monkeypatch, capsys, source):
        path = _write(tmp_path, example_config("simulate"))
        argv = ["run", "--config", path, "--out", str(tmp_path / "o")]
        if source == "flag":
            argv += ["--workers", "0"]
        else:
            monkeypatch.setenv("SNSE_LAB_WORKERS", "0")
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        name = "--workers" if source == "flag" else "SNSE_LAB_WORKERS"
        assert err["stage"] == "config" and err["offending_keys"] == [name]

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_seed_is_config_error(self, tmp_path, monkeypatch, capsys, source):
        path = _write(tmp_path, example_config("simulate"))
        out = str(tmp_path / "o")
        argv = ["run", "--config", path, "--out", out]
        if source == "flag":
            argv += ["--seed", "-5"]
        else:
            monkeypatch.setenv("SNSE_LAB_SEED", "-5")
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        name = "--seed" if source == "flag" else "SNSE_LAB_SEED"
        assert err["stage"] == "config" and err["offending_keys"] == [name]
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["status"] == "failed" and manifest["outputs"] == []

    def test_invalid_env_integer_is_config_error(self, tmp_path, monkeypatch, capsys):
        path = _write(tmp_path, example_config("simulate"))
        monkeypatch.setenv("SNSE_LAB_SEED", "abc")
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["stage"] == "config"
        assert err["offending_keys"] == ["SNSE_LAB_SEED"]

    def test_rate_experiment_end_to_end(self, tmp_path):
        cfg = example_config("rate")
        cfg["solver"]["horizon"] = 0.1
        cfg["solver"]["dt"] = 2e-3
        cfg["noise"]["num_directions"] = 2
        cfg["experiment"]["feasibility_tol"] = 1e-6
        path = _write(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", "--config", path, "--out", out]) == 0
        rep = read_report(os.path.join(out, "rate_report.json"))
        res = rep["results"]
        assert res["feasible"]
        # target was generated by a known control: the forward map is
        # invertible per mode, so the optimum matches its half energy
        from snse_lab.config import (build_control, build_grid, build_noise,
                                     build_sim_config)
        from snse_lab.noise import control_energy

        grid = build_grid(cfg)
        noise = build_noise(cfg, grid)
        sim = build_sim_config(cfg, grid, noise)
        h = build_control(cfg["experiment"]["target_control"], noise, sim)
        truth = 0.5 * control_energy(h)
        assert abs(res["value"] - truth) <= 1e-3 * truth


class TestVerifyVerb:
    def test_verify_passes_on_default_preset(self, tmp_path, capsys):
        cfg = example_config("verify")
        path = _write(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["verify", "--config", path, "--out", out]) == 0
        assert "wrote 1 output file(s)" in capsys.readouterr().out
        rep = read_report(os.path.join(out, "verify_report.json"))
        assert rep["results"]["all_passed"]
        names = [r["name"] for r in rep["results"]["rows"]]
        assert "corrupted_field_detected" in names
        neg = [r for r in rep["results"]["rows"]
               if r["name"] == "corrupted_field_detected"][0]
        assert "offending mode" in neg["detail"]


class TestInvariantRows:
    """The rows that check the advection kernel against the gradient form,
    the skeleton's adjoint sweep against the skeleton and against central
    differences, the noise directions' divergence, and the variance of the
    stepper's Wiener increments, each with a negative control that breaks
    what it checks."""

    @staticmethod
    def _rows(nonlinear: bool, family: str = "additive") -> dict:
        cfg = example_config("verify")
        cfg["solver"]["nonlinear"] = nonlinear
        cfg["noise"]["family"] = family
        grid = build_grid(cfg)
        sim = build_sim_config(cfg, grid, build_noise(cfg, grid))
        return {row.name: row for row in run_invariant_suite(sim, 0)}

    @pytest.mark.parametrize("family", ["additive", "saturated"])
    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_rows_pass(self, nonlinear, family):
        rows = self._rows(nonlinear, family)
        assert "advection_divergence_free" not in rows
        for name, threshold in (("advection_gradient_form_agreement", 1e-13),
                                ("adjoint_dot_identity", 1e-12),
                                ("adjoint_gradient_check", 1e-4),
                                ("sigma_output_divergence_free", 1e-12),
                                ("wiener_increment_variance", 4.0)):
            assert rows[name].passed and rows[name].threshold == threshold
            assert rows[name].value <= threshold

    def test_sign_flipped_adjoint_fails_the_dot_row(self, monkeypatch):
        adjoint = deviation.linearized_advection_adjoint_array
        monkeypatch.setattr(deviation, "linearized_advection_adjoint_array",
                            lambda grid, p, a: -adjoint(grid, p, a))
        row = self._rows(nonlinear=True)["adjoint_dot_identity"]
        assert not row.passed and row.value > 1e-6

    @pytest.mark.parametrize("family", ["additive", "saturated"])
    def test_sign_flipped_adjoint_fails_the_gradient_row(self, monkeypatch, family):
        # the row's u0 starts from a random field, so the linearization
        # around it couples and the central differences see the flip
        adjoint = deviation.linearized_advection_adjoint_array
        monkeypatch.setattr(deviation, "linearized_advection_adjoint_array",
                            lambda grid, p, a: -adjoint(grid, p, a))
        row = self._rows(nonlinear=True, family=family)["adjoint_gradient_check"]
        assert not row.passed and row.value > 1e-2

    def test_tilted_direction_fails_the_divergence_row(self, monkeypatch):
        # pair 0, k = (1, 0), its one slot on the kx >= 0 half at row K,
        # column 1: its direction tilted toward k in every model built
        post_init = noise.NoiseModel.__post_init__

        def tilted(model):
            post_init(model)
            assert tuple(model.pair_k[0]) == (1, 0)
            direction = model._half_direction.copy()
            direction[0, model.grid.max_wavenumber, 1] += 0.1
            object.__setattr__(model, "_half_direction", direction)

        monkeypatch.setattr(noise.NoiseModel, "__post_init__", tilted)
        row = self._rows(nonlinear=False)["sigma_output_divergence_free"]
        assert not row.passed and row.value > 1e-3

    def test_scaled_normals_fail_the_increment_row(self, monkeypatch):
        # every normal the stepper draws scaled by 1.1: the increments'
        # variance is 1.21 lambda dt, about 21 standard errors off
        monkeypatch.setattr(
            solvers, "substream", lambda seed, i: ScaledNormals(substream(seed, i), 1.1))
        row = self._rows(nonlinear=False)["wiener_increment_variance"]
        assert not row.passed and row.value > 4.0

    def test_swapped_product_fails_the_gradient_form_row(self, monkeypatch):
        advect = spectral.advection_array
        monkeypatch.setattr(spectral, "advection_array", lambda grid, u, v: advect(grid, v, u))
        row = self._rows(nonlinear=True)["advection_gradient_form_agreement"]
        assert not row.passed and row.value > 1e-3



def _last_stderr_line(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


_VERBS = pytest.mark.parametrize("verb", ["run", "verify"])


class TestFailurePaths:
    """Every failure exits with its code and writes a failed manifest that
    lists the files written before it, whichever verb ran."""

    def _manifest(self, out):
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["status"] == "failed"
        return manifest

    @_VERBS
    def test_config_load_error(self, tmp_path, capsys, verb):
        cfg = example_config("verify")
        cfg["solver"]["dt"] = -1
        out = str(tmp_path / "out")
        assert main([verb, "--config", _write(tmp_path, cfg), "--out", out]) == 2
        manifest = self._manifest(out)
        assert manifest["config_hash"] is None and manifest["outputs"] == []
        err = _last_stderr_line(capsys)
        assert err["stage"] == "config" and err["offending_keys"] == ["solver/dt"]

    # a key that the experiment kind reads without a default is required by
    # the schema: its absence is a config error, not a KeyError at run time
    @pytest.mark.parametrize("kind, key", [
        ("fw-probe", "rho"), ("mdp-scaling", "radius"), ("moments", "epsilon_grid"),
        ("mdp-scaling", "epsilon_grid"), ("fw-probe", "epsilon_grid"),
    ])
    def test_missing_kind_key_is_config_error(self, tmp_path, capsys, kind, key):
        cfg = example_config(kind)
        del cfg["experiment"][key]
        out = str(tmp_path / "out")
        assert main(["run", "--config", _write(tmp_path, cfg), "--out", out]) == 2
        assert self._manifest(out)["outputs"] == []
        err = _last_stderr_line(capsys)
        assert err["stage"] == "config" and err["offending_keys"] == ["experiment"]
        assert repr(key) in err["message"]

    # a repeated epsilon would run one more ensemble on the same paths
    @pytest.mark.parametrize("kind", ["moments", "mdp-scaling", "fw-probe"])
    def test_repeated_epsilon_is_config_error(self, tmp_path, capsys, kind):
        cfg = example_config(kind)
        eps_grid = cfg["experiment"]["epsilon_grid"]
        cfg["experiment"]["epsilon_grid"] = eps_grid + eps_grid[:1]
        out = str(tmp_path / "out")
        assert main(["run", "--config", _write(tmp_path, cfg), "--out", out]) == 2
        assert self._manifest(out)["outputs"] == []
        err = _last_stderr_line(capsys)
        assert err["stage"] == "config"
        assert err["offending_keys"] == ["experiment/epsilon_grid"]

    # an integer key takes a JSON integer literal only: an integer-valued
    # float would fail at run time (exit 4) or run on as a float
    @pytest.mark.parametrize("kind, key, value", [
        ("simulate", "grid/max_wavenumber", 4.0), ("mdp-scaling", "experiment/samples", 8.0),
        ("simulate", "seed", 3.0), ("simulate", "workers", 2.0),
        ("lil-classical", "experiment/replicates", 2.0), ("simulate", "solver/initial/k", [1.0, 0]),
        ("simulate", "solver/record_stride", 2.0), ("fw-probe", "experiment/dyadic_depth", 1.0),
        ("simulate", "noise/num_directions", 2.0),
    ])
    def test_integer_valued_float_is_config_error(self, tmp_path, capsys, kind, key, value):
        cfg = example_config(kind)
        *sections, name = key.split("/")
        target = cfg
        for section in sections:
            target = target[section]
        target[name] = value
        out = str(tmp_path / "out")
        assert main(["run", "--config", _write(tmp_path, cfg), "--out", out]) == 2
        assert self._manifest(out)["outputs"] == []
        err = _last_stderr_line(capsys)
        assert err["stage"] == "config"
        assert err["offending_keys"] == [key + "/0" if isinstance(value, list) else key]

    @_VERBS
    def test_admissibility_error(self, tmp_path, capsys, verb):
        cfg = example_config("verify")
        cfg["grid"]["physical_resolution"] = 12
        cfg["solver"]["nonlinear"] = True
        out = str(tmp_path / "out")
        assert main([verb, "--config", _write(tmp_path, cfg), "--out", out]) == 3
        assert "3K + 1 = 13" in self._manifest(out)["error"]["message"]
        err = _last_stderr_line(capsys)
        assert err["stage"] == "admissibility"
        assert err["offending_keys"] == ["grid/physical_resolution"]

    @_VERBS
    def test_unexpected_error(self, tmp_path, monkeypatch, capsys, verb):
        def broken(config, seed=0):
            raise ValueError("injected")

        monkeypatch.setattr("snse_lab.cli.run_invariant_suite", broken)
        path, out = _write(tmp_path, example_config("verify")), str(tmp_path / "out")
        assert main([verb, "--config", path, "--out", out]) == 4
        manifest = self._manifest(out)
        # the innermost frame is the raise in `broken`, one line below its def
        assert manifest["error"] == {
            "type": "ValueError",
            "message": "injected",
            "raised_at": {"file": "test_cli.py", "function": "broken",
                          "line": broken.__code__.co_firstlineno + 1},
        }
        err = _last_stderr_line(capsys)
        assert err["stage"] == "runtime" and err["type"] == "ValueError"

    @_VERBS
    def test_solver_blowup(self, tmp_path, monkeypatch, capsys, verb):
        def blow_up(config, seed=0):
            raise IntegrationError(7, "amplitude exceeded blowup guard")

        monkeypatch.setattr("snse_lab.cli.run_invariant_suite", blow_up)
        path, out = _write(tmp_path, example_config("verify")), str(tmp_path / "out")
        assert main([verb, "--config", path, "--out", out]) == 4
        manifest = self._manifest(out)
        assert manifest["error"]["type"] == "IntegrationError"
        assert manifest["error"]["step"] == 7
        err = _last_stderr_line(capsys)
        assert err["stage"] == "runtime" and err["type"] == "IntegrationError"

    @_VERBS
    def test_invariant_failure(self, tmp_path, monkeypatch, capsys, verb):
        def failing(config, seed=0):
            return [CheckRow("injected", False, 1.0, 0.5, "forced failure")]

        monkeypatch.setattr("snse_lab.cli.run_invariant_suite", failing)
        path, out = _write(tmp_path, example_config("verify")), str(tmp_path / "out")
        assert main([verb, "--config", path, "--out", out]) == 1
        manifest = self._manifest(out)
        assert [o["path"] for o in manifest["outputs"]] == ["verify_report.json"]
        assert manifest["error"]["type"] == "InvariantFailure"
        assert _last_stderr_line(capsys)["stage"] == "invariants"
        rep = read_report(os.path.join(out, "verify_report.json"))
        assert rep["results"]["all_passed"] is False

    # experiment keys checked before the experiment builds what they describe
    # (`verify` replaces the experiment block, so only `run` reads them)
    @pytest.mark.parametrize("kind, update, offending", [
        ("lil-classical", {"j_min": 9, "j_max": 8}, "experiment/j_min"),
        ("mdp-scaling", {"a_spec": {"kind": "power", "theta": 0.7}}, "experiment/a_spec/theta"),
        ("lil-strassen", {"probe_directions": [0, 999]}, "experiment/probe_directions"),
    ], ids=["empty-schedule", "power-theta", "probe-direction"])
    def test_experiment_admissibility_error(self, tmp_path, capsys, kind, update, offending):
        cfg = example_config(kind)
        cfg["experiment"].update(update)
        out = str(tmp_path / "out")
        assert main(["run", "--config", _write(tmp_path, cfg), "--out", out]) == 3
        assert self._manifest(out)["outputs"] == []
        err = _last_stderr_line(capsys)
        assert err["stage"] == "admissibility" and err["type"] == "ConfigError"
        assert err["offending_keys"] == [offending]


# experiment kind -> its report and the tables made from it:
# (CSV name, rows of `results`, header)
REPORT_TABLES = {
    "mdp-scaling": ("mdp_scaling_report.json", [
        ("mdp_scaling.csv", "rows", "epsilon,p_hat,lo,hi,a2_log_p,neg_rate")]),
    "fw-probe": ("fw_report.json", [
        ("fw_probe.csv", "rows", "epsilon,p_hat,lo,hi,upper_bound,bound,below_bound")]),
    "moments": ("moments_report.json", [
        ("moments.csv", "rows", "section,epsilon,p,mean,se"),
        ("moment_fits.csv", "fits", "section,fitted_exponent,stated_power,implied_constant")]),
    "lil-strassen": ("strassen_report.json", [
        ("strassen.csv", "rows", "replicate,j,epsilon,distance,nearest,within_tolerance")]),
    "lil-classical": ("ratio_report.json", [
        ("ratio.csv", "rows", "replicate,j,epsilon,ratio"),
        ("ratio_quantiles.csv", "per_j_quantiles", "j,epsilon,q10,q50,q90,mean")]),
    "verify": ("verify_report.json", [
        ("verify.csv", "rows", "name,passed,value,threshold,detail")]),
}


class TestEmitTables:
    # the linear mdp-scaling probe has a rate (neg_rate), the nonlinear one null
    @pytest.mark.parametrize("kind, nonlinear", [
        ("mdp-scaling", False), ("mdp-scaling", True), ("fw-probe", False),
        ("moments", False), ("lil-strassen", False), ("lil-classical", False),
        ("verify", False)])
    def test_tables_follow_report_rows(self, tmp_path, kind, nonlinear):
        cfg = example_config(kind)
        cfg["solver"]["nonlinear"] = nonlinear
        for key, n in (("samples", 40), ("replicates", 2)):
            if key in cfg["experiment"]:
                cfg["experiment"][key] = n
        out = str(tmp_path / "out")
        assert main(["run", "--config", _write(tmp_path, cfg), "--out", out]) == 0
        emit_tables(os.path.join(out, "manifest.json"))
        report, tables = REPORT_TABLES[kind]
        results = read_report(os.path.join(out, report))["results"]
        if kind == "mdp-scaling":
            assert (results["neg_rate"] is None) == nonlinear
        for csv_name, key, header in tables:
            with open(os.path.join(out, csv_name), newline="") as fh:
                lines = list(csv.reader(fh))
            columns = header.split(",")
            assert lines[0] == columns
            rows = results[key]
            if isinstance(rows, dict):
                rows = [{"section": k, **v} for k, v in sorted(rows.items())]
            assert len(lines) - 1 == len(rows)
            for row, cells in zip(rows, lines[1:]):
                assert len(cells) == len(columns)
                for col, cell in zip(columns, cells):
                    value = row.get(col, results.get(col))
                    if isinstance(value, bool):
                        assert cell == str(int(value))  # 0/1
                    elif value is None:
                        assert cell == ""
                    else:
                        assert cell == str(value)

    def test_mdp_tables_schema(self, tmp_path):
        cfg = example_config("mdp-scaling")
        cfg["experiment"]["samples"] = 40
        cfg["solver"]["horizon"] = 0.05
        path = _write(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", "--config", path, "--out", out]) == 0
        produced = emit_tables(os.path.join(out, "manifest.json"))
        assert "mdp_scaling.csv" in produced
        header = open(os.path.join(out, "mdp_scaling.csv")).readline().strip()
        assert header == "epsilon,p_hat,lo,hi,a2_log_p,neg_rate"

    def test_idempotent_re_emission(self, tmp_path):
        cfg = example_config("lil-classical")
        cfg["experiment"].update({"replicates": 2, "j_min": 8, "j_max": 9})
        cfg["solver"]["horizon"] = 0.05
        path = _write(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", "--config", path, "--out", out]) == 0
        manifest = os.path.join(out, "manifest.json")
        first = emit_tables(manifest)
        sums = {n: sha256_file(os.path.join(out, n)) for n in first}
        second = emit_tables(manifest)
        assert first == second
        for n in second:
            assert sha256_file(os.path.join(out, n)) == sums[n]

    def test_empty_manifest_warns_exit_zero(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"outputs": []}))
        assert main(["emit-tables", "--manifest", str(manifest)]) == 0
        assert "warning" in capsys.readouterr().err

    def test_missing_report_errors(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"outputs": [{"path": "ratio_report.json", "sha256": "x", "bytes": 1}]}
        ))
        assert main(["emit-tables", "--manifest", str(manifest)]) == 2

    @pytest.mark.parametrize("content", [
        "{not json", json.dumps({"outputs": [{"sha256": "x", "bytes": 1}]})],
        ids=["invalid-json", "entry-without-path"])
    def test_malformed_manifest_errors(self, tmp_path, capsys, content):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(content)
        assert main(["emit-tables", "--manifest", str(manifest)]) == 2
        assert _last_stderr_line(capsys)["stage"] == "emit-tables"

    @pytest.mark.parametrize("report", [
        {"experiment": "x"},
        {"results": {"rows": []}},
        {"results": {"rows": [], "per_j_quantiles": [{"j": 7}, 3]}},
        {"results": {"rows": [], "per_j_quantiles": {"j": [7]}}},
    ], ids=["no-results", "no-rows-key", "row-not-object", "rows-not-list"])
    def test_malformed_report_errors(self, tmp_path, capsys, report):
        # ratio_report.json has two tables: rows and per_j_quantiles
        (tmp_path / "ratio_report.json").write_text(json.dumps(report))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"outputs": [{"path": "ratio_report.json"}]}))
        assert main(["emit-tables", "--manifest", str(manifest)]) == 2
        err = _last_stderr_line(capsys)
        assert err["stage"] == "emit-tables" and err["type"] == "ValueError"
        assert "ratio_report.json" in err["message"]
        assert not (tmp_path / "ratio.csv").exists()


class TestSchemaVerb:
    def test_prints_schema_and_example(self, capsys):
        assert main(["print-config-schema", "--kind", "fw-probe"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "schema" in doc and "example" in doc
        validate_config(doc["example"])
