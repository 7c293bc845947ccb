"""Iterated-logarithm study tests: rescaled process, probes, studies."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from snse_lab import lil, solvers
from snse_lab.deviation import AdmissibilityError, ConstantsLedger, DiffEnergyObserver
from snse_lab.lil import (
    GeometricSchedule,
    LimitSetProbe,
    build_probe,
    classical_ratio_study,
    limit_set_distance,
    strassen_cluster_study,
    z_process,
)
from snse_lab.noise import Control, NoiseModel, control_energy, zero_control
from snse_lab.rng import substream
from snse_lab.solvers import (
    GridMismatchError,
    ParameterError,
    SimConfig,
    TrajectoryObserver,
    ensemble_run,
    loglog,
    skeleton_forward,
    solve_deterministic,
    solve_skeleton,
    solve_snse,
)
from snse_lab.spectral import (
    default_grid,
    full_spectrum,
    random_solenoidal_field,
    single_mode_field,
    taylor_green,
)

import helpers
from helpers import energy_norm, trajectories_from_ensemble


@pytest.fixture(scope="module")
def study_setup():
    g = default_grid(1)
    m = NoiseModel(grid=g, num_directions=2)
    cfg = SimConfig(
        grid=g, noise=m, horizon=0.25, dt=1e-3,
        initial=single_mode_field(g, (1, 0), (0.0, 1.0)),
        nonlinear=False, record_stride=25,
    )
    cfg1 = SimConfig(
        grid=g, noise=m, horizon=0.25, dt=1e-3,
        initial=single_mode_field(g, (1, 0), (0.0, 1.0)),
        nonlinear=False, record_stride=1,
    )
    u0_full = solve_deterministic(cfg1)
    u0_rec = solve_deterministic(cfg)
    return g, m, cfg, cfg1, u0_full, u0_rec


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ParameterError):
            GeometricSchedule(base=0.9, j_min=1, j_max=3)
        with pytest.raises(ParameterError):
            GeometricSchedule(base=2.0, j_min=5, j_max=4)
        with pytest.raises(ParameterError):
            GeometricSchedule(base=2.0, j_min=1, j_max=4)  # eps too large

    def test_epsilons(self):
        s = GeometricSchedule(base=2.0, j_min=5, j_max=8)
        assert s.epsilon(5) == 2.0**-5
        assert s.indices == [5, 6, 7, 8]

    def test_admissibility_floor(self):
        # eps0 = 1/78: a base-2 schedule must start above log2(78), about 6.3
        led = ConstantsLedger()
        s = GeometricSchedule(base=2.0, j_min=5, j_max=8)
        with pytest.raises(AdmissibilityError):
            led.require([s.epsilon(s.j_min)])
        s = GeometricSchedule(base=2.0, j_min=7, j_max=9)
        led.require([s.epsilon(s.j_min)])


class TestRescaledProcess:
    def test_identical_trajectories_give_zero(self, study_setup):
        _, _, cfg, _, _, u0_rec = study_setup
        z = z_process(u0_rec, u0_rec, 1e-3)
        assert np.max(np.abs(z.frames)) == 0.0
        assert energy_norm(z) == 0.0

    def test_exact_homogeneity(self, study_setup):
        _, _, cfg, _, _, u0_rec = study_setup
        eps = 1e-3
        ue = solve_snse(cfg.with_epsilon(eps), seed=3)
        z = z_process(ue, u0_rec, eps)
        blend = helpers.combine_trajectories(ue, u0_rec, 0.25, 0.75)
        z_blend = z_process(blend, u0_rec, eps)
        np.testing.assert_allclose(z_blend.frames, 0.25 * z.frames, atol=1e-16)

    def test_epsilon_domain(self, study_setup):
        _, _, cfg, _, _, u0_rec = study_setup
        with pytest.raises(ParameterError):
            z_process(u0_rec, u0_rec, 0.2)

    def test_linear_regime_variance_oracle(self, study_setup):
        # fixed-mode variance of the rescaled process matches the diagonal
        # recursion variance divided by the fluctuation scaling
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        eps = 1e-3
        n = 2000
        # path i draws from substream(900, i); the terminal frame of each
        cfg_eps = cfg.with_epsilon(eps)
        out = ensemble_run(cfg_eps, 900, n, lambda: TrajectoryObserver(cfg_eps))
        ue = full_spectrum(out["frames"][:, -1])
        z = (ue - full_spectrum(u0_rec.frames[-1])) / math.sqrt(2 * eps * loglog(eps))
        arr = z[:, 1, 1, 2]
        A = math.sqrt(2.0) / (2 * math.pi)
        noise_rms = math.sqrt(eps) * (A / 2.0) * math.sqrt(m.eigenvalues[0] * cfg.dt)
        _, var = helpers.ou_discrete_moments(
            1.0, cfg.dt, cfg.n_steps, 0.0, noise_rms
        )
        var_z = var / (2 * eps * loglog(eps))
        se = var_z * math.sqrt(2.0 / n)
        assert abs(arr.real.var() - var_z) <= 3.0 * se


class TestLimitSetProbe:
    def test_candidates_validated(self, study_setup):
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        too_big = Control(m, cfg.horizon, 10.0 * np.ones((10, 2)))
        x = solve_skeleton(too_big, u0_full, cfg)
        with pytest.raises(ParameterError):
            LimitSetProbe((too_big,), x.frames[None], x.times, 0.5)

    def test_frames_need_one_row_per_control(self, study_setup):
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        probe = build_probe(cfg, u0_full, n_shapes=1)
        with pytest.raises(ParameterError, match="row per control"):
            LimitSetProbe(probe.controls, probe.frames[1:], probe.times, 0.5)

    def test_frames_must_be_halves(self, study_setup):
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        probe = build_probe(cfg, u0_full, n_shapes=1)
        with pytest.raises(ParameterError, match="kx >= 0 halves"):
            LimitSetProbe(probe.controls, full_spectrum(probe.frames), probe.times, 0.5)

    def test_times_need_one_per_record(self, study_setup):
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        probe = build_probe(cfg, u0_full, n_shapes=1)
        with pytest.raises(ParameterError, match="recording times"):
            LimitSetProbe(probe.controls, probe.frames, probe.times[:-1], 0.5)

    def test_distance_needs_the_recording_grid(self, study_setup):
        # the rule of the aligned-trajectory distance: same record count and
        # times within 1e-12
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        probe = build_probe(cfg, u0_full, n_shapes=1)
        with pytest.raises(GridMismatchError):
            limit_set_distance(z_process(u0_full, u0_full, 1e-3), probe)
        shifted = replace(u0_rec, times=u0_rec.times + 1e-9)
        with pytest.raises(GridMismatchError):
            limit_set_distance(z_process(shifted, shifted, 1e-3), probe)

    def test_build_probe_on_boundary(self, study_setup):
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        probe = build_probe(cfg, u0_full, n_shapes=2, tolerance=0.5)
        assert probe.size >= 3
        for h in probe.controls[1:]:
            assert abs(0.5 * control_energy(h) - 1.0) <= 1e-10

    @pytest.mark.parametrize("stride", [1, 25])
    def test_controls_view_one_values_array(self, study_setup, monkeypatch, stride):
        # every candidate's values are one row of one array, and the skeleton
        # solve reads the nonzero rows of that array, not a stacked copy
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        seen = []

        def spy(h_values, *args, **kwargs):
            seen.append(h_values)
            return skeleton_forward(h_values, *args, **kwargs)

        monkeypatch.setattr(lil, "skeleton_forward", spy)
        cfg_s = replace(cfg, record_stride=stride)
        probe = build_probe(cfg_s, u0_full, n_shapes=2)
        assert len(seen) == 1 and seen[0].shape == (probe.size - 1, cfg.n_steps, 2)
        steps = np.arange(cfg.n_steps) * cfg.dt
        for h, row in zip(probe.controls[1:], seen[0]):
            assert np.shares_memory(h.values, seen[0])
            assert np.array_equal(h.value_at(steps), row)
        assert np.shares_memory(probe.controls[0].values, probe.controls[-1].values.base)

    @pytest.mark.parametrize("include_zero", [True, False])
    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_images_equal_single_solves(self, include_zero, nonlinear):
        # one batched solve of the nonzero controls (and an unintegrated zero
        # solution) gives each control's solve_skeleton trajectory bit for
        # bit, recorded from the every-step probe, and the recorded probe
        # holds its frames and times
        g = default_grid(3)
        m = NoiseModel(grid=g, family="saturated", num_directions=6)
        cfg = SimConfig(grid=g, noise=m, horizon=0.02, dt=1e-3,
                        initial=random_solenoidal_field(g, np.random.default_rng(5), amplitude=0.5),
                        nonlinear=nonlinear, record_stride=5)
        u0 = solve_deterministic(replace(cfg, record_stride=1))
        probe = build_probe(cfg, u0, directions=[0, 3], n_shapes=2, include_zero=include_zero)
        every = build_probe(replace(cfg, record_stride=1), u0, directions=[0, 3], n_shapes=2,
                            include_zero=include_zero)
        assert probe.size == 4 + include_zero
        images = helpers.skeleton_trajectories(every.frames, cfg)
        for h, image, row in zip(probe.controls, images, probe.frames):
            single = solve_skeleton(h, u0, cfg)
            for name in ("times", "frames", "h2", "v2", "sup_h2", "int_v2"):
                assert np.array_equal(getattr(image, name), getattr(single, name))
            assert np.array_equal(row, single.frames)
            assert np.array_equal(probe.times, single.times)

    def test_distance_zero_on_candidates(self, study_setup):
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        probe = build_probe(cfg, u0_full, n_shapes=2, tolerance=0.5)
        for i in (0, probe.size - 1):
            image = helpers.derived_trajectory(g, probe.times, probe.frames[i], cfg.dt,
                                               cfg.record_stride)
            d, nearest = limit_set_distance(image, probe)
            assert d <= 1e-12
            assert nearest == i or d == 0.0

    def test_zero_function_with_zero_candidate(self, study_setup):
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        probe = build_probe(cfg, u0_full, include_zero=True)
        z = z_process(u0_rec, u0_rec, 1e-3)
        d, nearest = limit_set_distance(z, probe)
        assert d == 0.0 and nearest == 0

    def test_refinement_never_increases_distance(self, study_setup):
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        small = build_probe(cfg, u0_full, n_shapes=1, tolerance=0.5)
        big = build_probe(cfg, u0_full, n_shapes=3, tolerance=0.5)
        assert big.size > small.size
        eps = 1e-3
        for seed in range(5):
            ue = solve_snse(cfg.with_epsilon(eps), seed=seed)
            z = z_process(ue, u0_rec, eps)
            d_small, _ = limit_set_distance(z, small)
            d_big, _ = limit_set_distance(z, big)
            assert d_big <= d_small + 1e-15


class TestClusterStudy:
    def test_degenerate_schedule_single_candidate(self, study_setup):
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        probe = build_probe(cfg, u0_full, directions=[], include_zero=True,
                            tolerance=10.0)
        assert probe.size == 1
        sched = GeometricSchedule(base=2.0, j_min=8, j_max=8)
        rep = strassen_cluster_study(sched, probe, 3, cfg, seed=4)
        assert len(rep.rows) == 3
        assert all(r["nearest"] == 0 for r in rep.rows)

    def test_tolerance_infinite_hits_everything(self, study_setup):
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        probe = build_probe(cfg, u0_full, n_shapes=1, tolerance=1e9)
        sched = GeometricSchedule(base=2.0, j_min=8, j_max=10)
        rep = strassen_cluster_study(sched, probe, 2, cfg, seed=5)
        assert all(r["within_tolerance"] for r in rep.rows)
        assert abs(sum(rep.candidate_hit_fraction) - 1.0) <= 1e-12

    def test_common_scaffold_coupling(self, study_setup):
        # same replicate, adjacent schedule indices: paths share the scaffold,
        # so the rescaled processes differ only through the scaling factors
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        sched = GeometricSchedule(base=2.0, j_min=8, j_max=9)
        probe = build_probe(cfg, u0_full, n_shapes=1, tolerance=0.5)
        rep = strassen_cluster_study(sched, probe, 1, cfg, seed=6)
        assert len(rep.rows) == 2

    def test_workers_do_not_change_results(self, study_setup):
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        probe = build_probe(cfg, u0_full, n_shapes=1, tolerance=0.5)
        sched = GeometricSchedule(base=2.0, j_min=8, j_max=9)
        # 2 schedule indices, one thread each at 2 workers and at 3, one
        # more worker than indices, however few the replicates
        for n_reps in (2, 5):
            a = strassen_cluster_study(sched, probe, n_reps, cfg, seed=7, workers=1)
            for workers in (2, 3):
                b = strassen_cluster_study(sched, probe, n_reps, cfg, seed=7, workers=workers)
                assert a.rows == b.rows, (n_reps, workers)

    @pytest.mark.parametrize("kind", ["strassen", "classical"])
    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_rows_independent_of_workers_and_chunk(self, monkeypatch, kind, nonlinear):
        # 5 replicates as one ensemble per schedule index, the 3 indices on
        # 1, 2 (two threads share three indices), 3 and 4 workers (more than
        # indices), and at 1, 7 and 256 paths per ensemble chunk: every row
        # is bit for bit the same
        g = default_grid(2)
        m = NoiseModel(grid=g, num_directions=3)
        cfg = SimConfig(grid=g, noise=m, horizon=0.02, dt=1e-3,
                        initial=random_solenoidal_field(g, np.random.default_rng(5), amplitude=0.5),
                        nonlinear=nonlinear, record_stride=4)
        sched = GeometricSchedule(base=2.0, j_min=7, j_max=9)
        if kind == "strassen":
            probe = build_probe(cfg, solve_deterministic(replace(cfg, record_stride=1)),
                                n_shapes=2, tolerance=0.25)

            def study(workers):
                return strassen_cluster_study(sched, probe, 5, cfg, seed=3, workers=workers)
        else:
            def study(workers):
                return classical_ratio_study(sched, 5, cfg, seed=3, workers=workers)

        def table(report):
            return np.array([list(row.values()) for row in report.rows], dtype=float)

        expected = table(study(1))
        assert expected.shape[0] == 15
        for workers in (2, 3, 4):
            assert np.array_equal(table(study(workers)), expected), workers
        for chunk in (1, 7):
            monkeypatch.setattr(solvers, "_CHUNK_PATHS", chunk)
            assert np.array_equal(table(study(1)), expected), chunk

    @pytest.mark.parametrize("stride", [1, 25])
    def test_probe_held_once(self, study_setup, monkeypatch, stride):
        # the probe builds no trajectory per candidate, its one frames array
        # is the skeleton solve's output at record stride 1, and the study
        # compares against that array itself, not a stacked copy, in one
        # observer per schedule index for both replicates
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        cfg_s = replace(cfg, record_stride=stride)
        built, solved = [], []
        init = solvers.Trajectory.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def spy(h_values, u0_frames, config, out):
            solved.append(out)
            return skeleton_forward(h_values, u0_frames, config, out=out)

        monkeypatch.setattr(solvers.Trajectory, "__init__", counting_init)
        monkeypatch.setattr(lil, "skeleton_forward", spy)
        probe = build_probe(cfg_s, u0_full, n_shapes=1, tolerance=0.5)
        monkeypatch.undo()
        assert built == [] and len(solved) == 1
        assert probe.frames.shape == (probe.size, cfg.n_steps // stride + 1, 2, 3, 2)
        assert np.shares_memory(solved[0], probe.frames) == (stride == 1)
        assert np.array_equal(probe.times, cfg.dt * np.arange(0, cfg.n_steps + 1, stride))
        seen = []

        class Recording(DiffEnergyObserver):
            def __init__(self, config, ref, scale=1.0, targets=None):
                seen.append(targets)
                super().__init__(config, ref, scale, targets)

        monkeypatch.setattr(lil, "DiffEnergyObserver", Recording)
        sched = GeometricSchedule(base=2.0, j_min=8, j_max=9)
        strassen_cluster_study(sched, probe, 2, cfg_s, seed=7, u0_traj=u0_full)
        assert len(seen) == 2 and all(t is probe.frames for t in seen)

    def test_probe_and_study_peak_traced_allocation(self):
        # a 5-control probe of 65 frames at K=10 (2.4 MB as kx >= 0 halves,
        # lil-k10's shape) and a 16-replicate study on it, one batch-16
        # ensemble per schedule index: 5.64 MB peak traced allocation on
        # numpy 2.4 (7.94 MB when the probe held full frames), reached in the
        # probe's skeleton solve; pinned with 5% margin
        g = default_grid(10)
        cfg = SimConfig(grid=g, noise=NoiseModel(grid=g), horizon=64e-3, dt=1e-3,
                        initial=taylor_green(g), nonlinear=True, record_stride=1)
        u0 = solve_deterministic(cfg)
        sched = GeometricSchedule(base=2.0, j_min=7, j_max=10)

        def study():
            probe = build_probe(cfg, u0, directions=[0, 1], n_shapes=2, tolerance=1.0)
            assert probe.size == 5
            strassen_cluster_study(sched, probe, 16, cfg, seed=3, u0_traj=u0)

        study()  # caches and FFT plans outside the trace
        tracemalloc.start()
        try:
            study()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 5_641_800

    def test_rows_equal_reference_distances(self):
        # streamed distances against limit_set_distance(z_process(...)) on
        # paths driven by the same scaffold normals (nonlinear, stride > 1)
        g = default_grid(2)
        m = NoiseModel(grid=g, num_directions=3)
        cfg = SimConfig(grid=g, noise=m, horizon=0.04, dt=1e-3,
                        initial=random_solenoidal_field(g, np.random.default_rng(5), amplitude=0.5),
                        nonlinear=True, record_stride=4)
        u0_rec = solve_deterministic(cfg)
        # without the zero candidate the nearest image differs between replicates
        probe = build_probe(cfg, solve_deterministic(replace(cfg, record_stride=1)),
                            n_shapes=2, tolerance=0.25, include_zero=False)
        sched = GeometricSchedule(base=2.0, j_min=7, j_max=9)
        seed, n_reps = 3, 3
        expected = []
        for rep in range(n_reps):
            for j in sched.indices:
                eps = sched.epsilon(j)
                u = _solve_path(cfg, eps, seed, rep)
                dist, nearest = limit_set_distance(z_process(u, u0_rec, eps), probe)
                expected.append({"replicate": rep, "j": j, "epsilon": eps, "distance": dist,
                                 "nearest": nearest, "within_tolerance": dist <= 0.25})
        assert strassen_cluster_study(sched, probe, n_reps, cfg, seed).rows == expected


class TestRatioStudy:
    def test_noise_off_zero_ratios(self, study_setup):
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        # epsilon enters through the schedule; shrink the noise map instead
        from snse_lab.noise import SigmaParams

        silent = NoiseModel(grid=g, num_directions=2,
                            params=SigmaParams(amplitude=1e-300))
        cfg_silent = SimConfig(
            grid=g, noise=silent, horizon=0.25, dt=1e-3,
            initial=cfg.initial, nonlinear=False, record_stride=25,
        )
        sched = GeometricSchedule(base=2.0, j_min=8, j_max=9)
        rep = classical_ratio_study(sched, 2, cfg_silent, seed=8)
        assert all(r["ratio"] <= 1e-140 for r in rep.rows)

    def test_ratios_nonnegative(self, study_setup):
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        sched = GeometricSchedule(base=2.0, j_min=8, j_max=10)
        rep = classical_ratio_study(sched, 3, cfg, seed=9)
        assert all(r["ratio"] >= 0.0 for r in rep.rows)
        assert rep.running_min >= 0.0

    def test_quantiles_match_oversampled_oracle(self, study_setup):
        # single-mode linear regime: the ratio distribution can be sampled
        # directly from the diagonal recursion at 10x the replicates
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        j = 9
        sched = GeometricSchedule(base=2.0, j_min=j, j_max=j)
        n_study = 60
        rep = classical_ratio_study(sched, n_study, cfg, seed=10)
        ratios = np.array([r["ratio"] for r in rep.rows])
        eps = 2.0**-j
        oracle = _ratio_oracle(cfg, m, eps, n_paths=600, seed=77)
        # compare the empirical CDF at the oracle quartiles
        for q in (0.25, 0.5, 0.75):
            x = np.quantile(oracle, q)
            f_hat = np.mean(ratios <= x)
            se = math.sqrt(q * (1 - q) / n_study)
            assert abs(f_hat - q) <= 3.0 * se + 0.5 / n_study

    def test_workers_do_not_change_results(self, study_setup):
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        sched = GeometricSchedule(base=2.0, j_min=8, j_max=9)
        # 2 schedule indices, one thread each at 2 workers and at 3, one
        # more worker than indices, however few the replicates
        for n_reps in (2, 5):
            a = classical_ratio_study(sched, n_reps, cfg, seed=11, workers=1)
            for workers in (2, 3):
                b = classical_ratio_study(sched, n_reps, cfg, seed=11, workers=workers)
                assert a.rows == b.rows, (n_reps, workers)


def _ratio_oracle(cfg, model, eps, n_paths, seed):
    """Direct scalar-recursion sampling of the normalized deviation ratio.

    In the diagonal regime the deviation path is a complex recursion per
    noise pair; the trajectory norm is assembled from the recorded values
    exactly as the study does, but without the PDE machinery.
    """
    rng = substream(seed, 0)
    dt = cfg.dt
    n_steps = cfg.n_steps
    A = math.sqrt(2.0) / (2 * math.pi)
    lam = model.eigenvalues[0]
    decay, phi = helpers.scheme_weights(1.0, dt)
    w = (phi / dt) * math.sqrt(eps) * (A / 2.0) * math.sqrt(lam * dt)
    record = cfg.record_stride
    out = np.zeros(n_paths)
    for i in range(n_paths):
        c = 0.0 + 0.0j
        h2 = [0.0]
        for n in range(n_steps):
            xi = rng.standard_normal() + 1j * rng.standard_normal()
            c = decay * c + w * xi
            if (n + 1) % record == 0 or n + 1 == n_steps:
                h2.append(2.0 * (2 * math.pi) ** 2 * abs(c) ** 2)
        h2 = np.asarray(h2)
        v2 = h2  # |k| = 1
        dt_rec = dt * record
        e2 = float(np.max(h2) + np.sum(v2[:-1]) * dt_rec)
        out[i] = math.sqrt(e2) / math.sqrt(2 * eps * loglog(eps))
    return out


class TestDenseSamplingOracle:
    def test_probe_distance_validated_by_dense_ball_sampling(self, study_setup):
        # the structured probe's distance is an upper bound on the distance to
        # the unit rate ball; combining it with many randomly sampled
        # boundary elements (the dense oracle) can only tighten it, and the
        # tightening at 10x candidates stays moderate for typical paths
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        probe = build_probe(cfg, u0_full, n_shapes=3, tolerance=0.75)
        rng = substream(99, 0)
        extra_controls = []
        extra_images = []
        for _ in range(10 * probe.size):
            values = rng.standard_normal((10, m.n_directions))
            h = Control(m, cfg.horizon, values)
            scale = math.sqrt(2.0 / control_energy(h))
            h = Control(m, cfg.horizon, values * scale)  # boundary: half-energy 1
            extra_controls.append(h)
            extra_images.append(solve_skeleton(h, u0_full, cfg))
        dense = helpers.refined_probe(probe, extra_controls, extra_images)
        eps = 2.0**-9
        for seed in range(5):
            ue = solve_snse(cfg.with_epsilon(eps), seed=seed)
            z = z_process(ue, u0_rec, eps)
            d_probe, _ = limit_set_distance(z, probe)
            d_dense, _ = limit_set_distance(z, dense)
            assert d_dense <= d_probe + 1e-15
            assert d_dense >= 0.25 * d_probe  # sanity: same order


class TestShiftedProcessLaw:
    def test_per_mode_variance_matches_ou_oracle(self, study_setup):
        # h = 0, zero deterministic limit, additive noise: the shifted process
        # is the diagonal recursion scaled by 1/sqrt(2 log log(1/eps))
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        from snse_lab.noise import zero_control

        eps = 1e-3
        n = 4000

        class Terminal:
            def on_start(self, prop, n_paths, n_steps):
                pass

            def on_state(self, idx, t, coeffs):
                self.last = full_spectrum(coeffs)[:, 1, 1, 2]

            def finish(self):
                return {"c": self.last}

        out = helpers.shifted_ensemble(
            cfg1, zero_control(m, cfg1.horizon, 10), eps, u0_full.frames, 31, n, Terminal)
        c = out["c"]
        A = math.sqrt(2.0) / (2 * math.pi)
        noise_rms = (A / 2.0) * math.sqrt(m.eigenvalues[0] * cfg1.dt)
        _, var = helpers.ou_discrete_moments(1.0, cfg1.dt, cfg1.n_steps, 0.0, noise_rms)
        var_shifted = var / (2.0 * loglog(eps))
        se = var_shifted * math.sqrt(2.0 / n)
        assert abs(c.real.var() - var_shifted) <= 3.0 * se
        assert abs(c.imag.var() - var_shifted) <= 3.0 * se
        assert abs(c.mean()) <= 3.0 * math.sqrt(2 * var_shifted / n)


class TestCompactnessSurrogates:
    def test_cross_level_distance_shrinks(self, study_setup):
        # common noise across levels: the rescaled processes at adjacent
        # levels get closer as the level decreases
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        eps_grid = [2.0**-j for j in (7, 9, 11, 13)]
        zs = []
        for eps in eps_grid:
            frames = _solve_path(cfg, eps, 12, 0)
            z = z_process(frames, u0_rec, eps)
            zs.append(z)
        gaps = [helpers.energy_distance(zs[i], zs[i + 1]) for i in range(len(zs) - 1)]
        assert gaps[0] >= gaps[1] >= gaps[2]

    def test_short_time_mass_vanishes_pathwise(self, study_setup):
        # the trajectory norm restricted to [0, S] is nondecreasing in S, so
        # exceedance probabilities decrease as S -> 0, pathwise and exactly
        g, m, cfg, cfg1, u0_full, u0_rec = study_setup
        eps = 2.0**-9
        ue = solve_snse(cfg1.with_epsilon(eps), seed=13)
        z = z_process(ue, solve_deterministic(cfg1), eps)
        norms = []
        for n_keep in (251, 126, 63):
            h2 = z.h2[:n_keep]
            v2 = z.v2[:n_keep]
            e2 = float(np.max(h2) + np.sum(v2[:-1]) * cfg1.dt)
            norms.append(e2)
        assert norms[0] >= norms[1] >= norms[2]


def _solve_path(cfg, eps, seed, path):
    """Path `path` of seed's ensemble at eps, solved as a one-path ensemble
    whose generator, in place of substream(seed, 0), is substream(seed, path)."""
    cfg = cfg.with_epsilon(eps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "substream", lambda s, i: substream(seed, path))
        out = ensemble_run(cfg, seed=seed, n_paths=1,
                           observer_factory=lambda: TrajectoryObserver(cfg))
    return trajectories_from_ensemble(out, cfg, seed=-1)[0]
