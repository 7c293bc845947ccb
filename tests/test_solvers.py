"""Integrator tests: exact linear behavior, stochastic moments, reductions."""

import itertools
import math
import sys
import threading
import tracemalloc
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

from snse_lab import deviation, solvers
from snse_lab.deviation import (
    ASpec,
    DiffEnergyObserver,
    FWConfig,
    _MomentObserver,
    _RemainderObserver,
    fw_conditional_probe,
    mdp_scaling_probe,
    moment_bound_suite,
)
from snse_lab.lil import GeometricSchedule, build_probe, classical_ratio_study
from snse_lab.noise import Control, NoiseModel, zero_control
from snse_lab.persist import write_trajectory
from snse_lab.rng import substream
from snse_lab.solvers import (
    IntegrationError,
    ParameterError,
    Propagator,
    SimConfig,
    ensemble_run,
    loglog,
    propagator,
    solve_deterministic,
    solve_skeleton,
    solve_snse,
    TrajectoryObserver,
)
from snse_lab.spectral import (
    SpectralGrid,
    abs_sq,
    default_grid,
    divergence_defect,
    full_spectrum,
    half_spectrum,
    random_solenoidal_field,
    single_mode_field,
    taylor_green,
    to_scalar,
    to_velocity,
    zero_field,
    TWO_PI,
)

import helpers
from helpers import (
    h_norm_sq_array,
    mc_probability,
    shifted_ensemble,
    step_snse,
    trajectories_from_ensemble,
    v_norm_sq_array,
)


def _mode_index(grid, k):
    K = grid.max_wavenumber
    return (K + k[1], K + k[0])


def _one_step(noise, dt, initial=None, nonlinear=True) -> np.ndarray:
    """State after one deterministic solver step, as a full two-component array."""
    cfg = SimConfig(grid=noise.grid, noise=noise, horizon=dt, dt=dt, initial=initial,
                    nonlinear=nonlinear)
    return solve_deterministic(cfg).field_at(-1).coeffs


class TestSteps:
    def test_zero_state_zero_forcing(self, grid3, noise3):
        out = _one_step(noise3, 1e-3, zero_field(grid3))
        assert np.max(np.abs(out)) == 0.0

    def test_pure_decay_exact(self, grid1, noise1):
        u = single_mode_field(grid1, (1, 0), (0.0, 1.0))
        out = _one_step(noise1, 0.25, u, nonlinear=False)
        iy, ix = _mode_index(grid1, (1, 0))
        assert abs(out[1, iy, ix] - u.coeffs[1, iy, ix] * math.exp(-0.25)) < 1e-16

    def test_taylor_green_remains_pure_decay(self):
        g = default_grid(4)
        tg = taylor_green(g, 0.8)
        out = _one_step(NoiseModel(grid=g), 0.1, tg, nonlinear=True)
        np.testing.assert_allclose(
            out, tg.coeffs * math.exp(-2 * 0.1), atol=1e-15
        )

    def test_snse_step_reduces_at_zero_noise(self, grid3, noise3, rng):
        u = random_solenoidal_field(grid3, rng)
        cfg = SimConfig(grid=grid3, noise=noise3, horizon=1e-3, dt=1e-3, initial=u)
        a = solve_deterministic(cfg)
        b = solve_snse(cfg.with_epsilon(0.0), seed=3)
        assert np.array_equal(a.frames, b.frames)

    def test_propagator_shared_and_read_only(self, grid3):
        prop = propagator(grid3, 1e-3)
        assert propagator(default_grid(3), 1e-3) is prop
        assert propagator(grid3, 2e-3) is not prop
        for arr in (prop.half_decay, prop.half_phi, prop.half_phi_rate, prop.half_int_weight):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0


class TestDeterministicSolve:
    def test_zero_horizon(self, grid1, noise1):
        u0 = single_mode_field(grid1, (1, 0), (0.0, 1.0))
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.0, dt=1e-3, initial=u0)
        traj = solve_deterministic(cfg)
        assert traj.n_records == 1
        np.testing.assert_array_equal(traj.field_at(0).coeffs, u0.coeffs)

    def test_horizon_must_divide(self, grid1, noise1):
        with pytest.raises(ParameterError):
            SimConfig(grid=grid1, noise=noise1, horizon=1.0, dt=3e-4)

    def test_forcing_must_be_a_field(self, grid1, noise1):
        f = single_mode_field(grid1, (1, 0), (0.0, 1.0))
        with pytest.raises(ParameterError):
            SimConfig(grid=grid1, noise=noise1, horizon=1.0, dt=1e-3, forcing=lambda t: f)

    def test_stokes_energy_identity(self, linear_config):
        # |u(T)|^2 + 2 int ||u||^2 == |u(0)|^2, exact for the per-step
        # integrating-factor quadrature of the running integral
        traj = solve_deterministic(linear_config)
        defect = abs(traj.h2[-1] + 2.0 * traj.int_v2 - traj.h2[0]) / traj.h2[0]
        assert defect <= 1e-12

    def test_left_endpoint_defect_shrinks_with_dt(self, grid1, noise1):
        # the recording-grid left-endpoint quadrature has an O(dt) defect
        u0 = single_mode_field(grid1, (1, 0), (0.0, 1.0))
        defects = []
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = SimConfig(
                grid=grid1, noise=noise1, horizon=0.5, dt=dt,
                initial=u0, nonlinear=False, record_stride=1,
            )
            t = solve_deterministic(cfg)
            left = float(np.sum(t.v2[:-1]) * dt)
            defects.append(abs(t.h2[-1] + 2 * left - t.h2[0]) / t.h2[0])
        assert defects[0] > defects[1] > defects[2]
        assert 1.5 <= defects[0] / defects[1] <= 2.5

    def test_deterministic_given_config(self, linear_config):
        a = solve_deterministic(linear_config)
        b = solve_deterministic(linear_config)
        assert np.array_equal(a.frames, b.frames)

    def test_running_integral_nondecreasing(self, grid3, noise3, rng):
        cfg = SimConfig(
            grid=grid3, noise=noise3, horizon=0.1, dt=1e-3,
            initial=random_solenoidal_field(grid3, rng, amplitude=0.1),
            record_stride=1,
        )
        traj = solve_deterministic(cfg)
        ints = np.cumsum(
            [helpers.step_int_v2(Propagator(grid3, cfg.dt), traj.frames[i])
             for i in range(traj.n_records - 1)]
        )
        assert np.all(np.diff(ints) >= 0)
        assert abs(ints[-1] - traj.int_v2) <= 1e-12 * max(traj.int_v2, 1.0)

    def test_strong_order_one(self, noise3):
        # halving dt halves the terminal error against a dt/8 reference
        g = default_grid(3)
        u0 = taylor_green(g, 1.0)
        forcing = single_mode_field(g, (2, 1), (0.5, -1.0))
        base_dt = 2e-3

        def terminal(dt):
            cfg = SimConfig(
                grid=g, noise=NoiseModel(grid=g), horizon=0.25, dt=dt,
                initial=u0, forcing=forcing, nonlinear=True, record_stride=10**9,
            )
            return solve_deterministic(cfg).frames[-1]

        ref = terminal(base_dt / 8)
        e1 = np.max(np.abs(terminal(base_dt) - ref))
        e2 = np.max(np.abs(terminal(base_dt / 2) - ref))
        assert 1.6 <= e1 / e2 <= 2.6


class TestStochasticSolve:
    def test_bit_exact_reduction(self, linear_config):
        det = solve_deterministic(linear_config)
        sto = solve_snse(linear_config.with_epsilon(0.0), seed=5)
        assert np.array_equal(det.frames, sto.frames)

    def test_zero_noise_steps_the_noisy_path(self, linear_config, monkeypatch):
        # at epsilon 0 the path still consumes its normals in the noisy
        # stepper, so the bit-exact reductions compare two different runs
        seen = []
        integrate = solvers._integrate_batch

        def spy(config, state, normals, hooks):
            seen.append(normals)
            return integrate(config, state, normals, hooks)

        monkeypatch.setattr(solvers, "_integrate_batch", spy)
        solve_snse(linear_config.with_epsilon(0.0), seed=5)
        assert len(seen) == 1 and seen[0] is not None

    def test_determinism(self, linear_config):
        cfg = linear_config.with_epsilon(1e-3)
        a = solve_snse(cfg, seed=9)
        b = solve_snse(cfg, seed=9)
        assert np.array_equal(a.frames, b.frames)
        c = solve_snse(cfg, seed=10)
        assert not np.array_equal(a.frames, c.frames)

    def test_observer_norms_equal_separate_calls(self, grid3, noise3, rng):
        # both observers square |c| once per state; every norm stays bitwise
        # equal to the one-norm-per-call definitions on the kx >= 0 half, and
        # within 1e-14 of the sums over the whole spectrum
        cfg = SimConfig(grid=grid3, noise=noise3, horizon=0.03, dt=1e-3, epsilon=1e-2,
                        initial=random_solenoidal_field(grid3, rng, amplitude=0.1),
                        record_stride=1)
        u0 = solve_deterministic(cfg)
        traj = ensemble_run(cfg, 3, 4, lambda: TrajectoryObserver(cfg))
        mom = ensemble_run(cfg, 3, 4, lambda: _MomentObserver(cfg, [1.0, 2.0], u0.frames))
        frames = traj["frames"]
        full = full_spectrum(frames)
        h2, v2 = h_norm_sq_array(grid3, frames), v_norm_sq_array(grid3, frames)
        assert np.array_equal(traj["h2"], h2) and np.array_equal(traj["v2"], v2)
        assert np.array_equal(traj["sup_h2"], h2.max(axis=1))
        assert np.array_equal(mom["sup"][:, 0], h2.max(axis=1))
        prop = Propagator(grid3, cfg.dt)
        int_weight = helpers.full_propagator(grid3, cfg.dt).int_weight
        int_v2, int_h2v2, int_a2 = np.zeros(4), np.zeros(4), np.zeros(4)
        full_int_v2, full_int_a2 = np.zeros(4), np.zeros(4)
        for i in range(frames.shape[1] - 1):
            int_v2 += helpers.step_int_v2(prop, frames[:, i])
            int_h2v2 += h2[:, i] * v2[:, i] * cfg.dt
            a2 = abs_sq(frames[:, i])
            a_weight = grid3.half_k2 * half_spectrum(grid3.k2)
            a_sq = TWO_PI**2 * np.sum(a_weight * a2, axis=(-2, -1))
            int_a2 += a_sq * cfg.dt
            full_int_v2 += helpers.full_norm_sq(full[:, i], int_weight)
            full_int_a2 += helpers.full_norm_sq(full[:, i], grid3.k2**2) * cfg.dt
        assert np.array_equal(traj["int_v2"], int_v2)
        assert np.array_equal(mom["int"][:, 1], int_h2v2)
        assert np.array_equal(mom["int_a2"], int_a2)
        # and the two-component fields the trajectory's edges emit
        velocity = to_velocity(grid3, frames)
        for ours, full in (
            (h2, helpers.full_norm_sq(full)), (v2, helpers.full_norm_sq(full, grid3.k2)),
            (int_v2, full_int_v2), (int_a2, full_int_a2),
            (h2, helpers.full_norm_sq(velocity, axes=(-3, -2, -1))),
            (v2, helpers.full_norm_sq(velocity, grid3.k2, axes=(-3, -2, -1))),
        ):
            np.testing.assert_allclose(ours, full, rtol=1e-14, atol=0)

    def test_on_noise_sees_pre_step_state(self, grid3):
        # the batched step updates the state in place only after the hooks:
        # a hook's copy is the pre-step state of each path stepped on its own
        noise = NoiseModel(grid=grid3, family="saturated")
        eps, seed, n_paths = 1e-2, 4, 3
        rng = np.random.default_rng(6)
        cfg = SimConfig(
            grid=grid3, noise=noise, horizon=0.01, dt=1e-3, epsilon=eps,
            initial=random_solenoidal_field(grid3, rng, amplitude=0.5),
            forcing=random_solenoidal_field(grid3, rng, amplitude=0.3),
        )

        class Copies:
            def on_start(self, prop, n, n_steps):
                self.pre = []

            def on_noise(self, step, t, coeffs, dW):
                self.pre.append(full_spectrum(coeffs))

            def finish(self):
                return {"pre": np.stack(self.pre, axis=1)}

        pre = ensemble_run(cfg, seed, n_paths, Copies)["pre"]
        sqrt_lam_dt = np.sqrt(noise.eigenvalues * cfg.dt)
        forcing = full_spectrum(to_scalar(grid3, cfg.forcing.coeffs))
        for path in range(n_paths):
            dW = substream(seed, path).standard_normal((cfg.n_steps, noise.n_directions))
            c = full_spectrum(to_scalar(grid3, cfg.initial.coeffs))
            for step in range(cfg.n_steps):
                assert np.array_equal(pre[path, step], c)
                t = step * cfg.dt
                c = step_snse(c, forcing, eps, dW[step] * sqrt_lam_dt, cfg.dt, noise, t)

    @staticmethod
    def _traced_peak(n_steps: int, K: int = 10) -> int:
        """Peak traced allocation of one 64-path ensemble of n_steps at K."""
        g = default_grid(K)
        cfg = SimConfig(
            grid=g, noise=NoiseModel(grid=g), horizon=n_steps * 1e-3, dt=1e-3, epsilon=1e-2,
            initial=random_solenoidal_field(g, np.random.default_rng(0)),
        )

        class Noop:
            def on_start(self, prop, n, n_steps):
                pass

            def finish(self):
                return {}

        ensemble_run(cfg, 0, 64, Noop)  # caches and FFT plans outside the trace
        tracemalloc.start()
        try:
            ensemble_run(cfg, 0, 64, Noop)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_step_peak_traced_allocation(self):
        # one 64-path, K=10, 8-step run, stepped as two chunks of 32 paths:
        # 1.61 MB peak traced allocation on numpy 2.4 (1,610,608 to
        # 1,610,672 B; 1.84 MB with two-component states, 3.58 MB in one
        # chunk of 64 with the advection formed before the noise); pinned
        # with 5% margin
        assert self._traced_peak(8) <= 1.05 * 1_610_700

    def test_peak_traced_allocation_independent_of_horizon(self):
        # the normals are drawn one noise block at a time, so a chunk holds
        # the same memory at both horizons: at K=10 a 32-path chunk's block
        # is 2 steps, at K=1 it is 64 (512 normals over 8 directions; its byte
        # budget is 308), and the K=1 horizons span 7 and 49 blocks
        for K, short_steps, long_steps in ((10, 8, 128), (1, 392, 3136)):
            short = self._traced_peak(short_steps, K)
            long = self._traced_peak(long_steps, K)
            assert abs(long - short) <= 0.05 * short, K

    @pytest.mark.parametrize("K, n_dirs, n_paths, n_steps, block", [
        (10, None, 256, 16, 2), (10, None, 16, 64, 2), (10, None, 1, 64, 2),
        (10, None, 1, 2, 2), (1, 2, 256, 1000, 77), (2, None, 256, 40, 22),
        (3, 48, 9, 20, 11),
    ], ids=["fw-k10", "k10-batch-16", "k10-batch-1", "k10-batch-1-2-steps",
            "k1-j2-batch-256", "k2-batch-256", "k3-j48-batch-9"])
    def test_noise_block_steps(self, K, n_dirs, n_paths, n_steps, block):
        # a block holds at most 512 scalar halves of K=10 (1.9 MB) of noise
        # field and no more steps than fill 512 normals per path: the byte
        # budget binds on the wide batches at K=1, the draw at K=10 and at
        # K=2 and 3
        model = NoiseModel(grid=default_grid(K), num_directions=n_dirs)
        assert solvers._noise_block_steps(model, n_paths, n_steps) == block

    def test_small_grid_draws_normals_by_the_block(self, grid1, noise1, monkeypatch):
        # a noise block is sized in bytes: at K=1 a 256-path block holds
        # 1892352 // (256 * 96) = 77 steps of scalar halves (under the 256
        # steps that fill 512 normals of 2 directions), so each path of a
        # 1000-step chunk draws its normals in 13 calls, not in one call per
        # step
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=1.0, dt=1e-3, epsilon=1e-2,
                        initial=single_mode_field(grid1, (1, 0), (0.0, 1.0)), nonlinear=False)
        u0 = solve_deterministic(cfg)
        calls = []

        class Counting(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                calls.append(kwargs["out"].shape)
                return super().standard_normal(*args, **kwargs)

        expected = ensemble_run(cfg, 3, 256, lambda: DiffEnergyObserver(cfg, u0.frames))
        monkeypatch.setattr(
            solvers, "substream", lambda seed, i: Counting(substream(seed, i).bit_generator))
        out = ensemble_run(cfg, 3, 256, lambda: DiffEnergyObserver(cfg, u0.frames))
        assert len(calls) == 256 * 13
        assert sorted(set(calls)) == [(76, 2), (77, 2)]
        _assert_identical(out, expected)

    @pytest.mark.parametrize("glibc", [True, False], ids=["glibc", "other-libc"])
    def test_allocator_policy(self, monkeypatch, request, glibc):
        # mallopt is called through glibc only, with one fixed setting (the
        # 32 MiB mmap threshold, glibc's ceiling, and a 128 MiB trim
        # threshold) once per process, by its first ensemble, however many
        # ensembles run and whatever their batch; the values do not depend
        # on it
        g = default_grid(10)
        cfg = SimConfig(
            grid=g, noise=NoiseModel(grid=g), horizon=2e-3, dt=1e-3, epsilon=1e-2,
            initial=random_solenoidal_field(g, np.random.default_rng(0)),
        )
        batches = (1, 16, 256, 1, 16, 256)
        seen = []

        def mallopt(param, value):
            seen.append((param, value))
            return 1

        def confstr(name):
            if not glibc:
                raise ValueError(f"unrecognized configuration name {name!r}")
            return "glibc 2.36"

        expected = [ensemble_run(cfg, 3, n, lambda: TrajectoryObserver(cfg)) for n in batches]
        monkeypatch.setattr(solvers.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        monkeypatch.setattr(solvers.os, "confstr", confstr)
        # forget that this process has the setting, for the test and again
        # after it, so that the next ensemble applies the real one
        solvers._reuse_step_memory.cache_clear()
        request.addfinalizer(solvers._reuse_step_memory.cache_clear)
        for n, want in zip(batches, expected):
            _assert_identical(ensemble_run(cfg, 3, n, lambda: TrajectoryObserver(cfg)), want)
        if glibc:
            assert seen == [(solvers._M_MMAP_THRESHOLD, 32 * 1024 * 1024),
                            (solvers._M_TRIM_THRESHOLD, 128 * 1024 * 1024)]
        else:
            assert seen == []

    def test_ou_moments_exact_discrete(self, grid1, noise1):
        # B off, additive noise: each mode follows the closed-form Gaussian
        # recursion; compare terminal mean/variance over an ensemble
        eps, dt, T = 1e-2, 1e-3, 0.5
        u0 = single_mode_field(grid1, (1, 0), (0.0, 1.0))
        cfg = SimConfig(
            grid=grid1, noise=noise1, horizon=T, dt=dt, epsilon=eps,
            initial=u0, nonlinear=False, record_stride=10**9,
        )
        n = 6000

        class Terminal:
            def on_start(self, prop, n_paths, n_steps):
                pass

            def on_state(self, idx, t, coeffs):
                self.last = coeffs  # the terminal state at finish

            def finish(self):
                iy, ix = _mode_index(cfg.grid, (1, 0))
                return {"c": to_velocity(cfg.grid, self.last)[:, 1, iy, ix]}

        out = ensemble_run(cfg, seed=21, n_paths=n, observer_factory=Terminal)
        c = out["c"]
        A = math.sqrt(2.0) / TWO_PI
        lam = noise1.eigenvalues[0]
        c0 = u0.coeffs[1, 1, 2]
        noise_rms = math.sqrt(eps) * (A / 2.0) * math.sqrt(lam * dt)
        mean, var = helpers.ou_discrete_moments(1.0, dt, round(T / dt), c0, noise_rms)
        se_mean = math.sqrt(var / n)
        assert abs(c.real.mean() - mean.real) <= 3.0 * se_mean
        assert abs(c.imag.mean() - mean.imag) <= 3.0 * se_mean
        se_var = var * math.sqrt(2.0 / n)
        assert abs(c.real.var() - var) <= 3.0 * se_var
        assert abs(c.imag.var() - var) <= 3.0 * se_var
        # continuous-time moments agree within the same tolerance at this dt
        var_cont = helpers.ou_continuous_variance(
            1.0, T, math.sqrt(eps) * (A / 2.0) * math.sqrt(lam)
        )
        assert abs(c.real.var() - var_cont) <= 3.0 * se_var

    def test_terminal_variance_linear_in_epsilon(self, grid1, noise1):
        u0 = single_mode_field(grid1, (1, 0), (0.0, 1.0))
        iy, ix = _mode_index(grid1, (1, 0))
        variances = []
        eps_grid = [1e-4, 1e-3, 1e-2]
        for eps in eps_grid:
            cfg = SimConfig(
                grid=grid1, noise=noise1, horizon=0.25, dt=1e-3, epsilon=eps,
                initial=u0, nonlinear=False, record_stride=10**9,
            )
            # path i draws from substream(77, i); the terminal frame of each
            out = ensemble_run(cfg, 77, 400, lambda: TrajectoryObserver(cfg))
            vals = to_velocity(grid1, out["frames"][:, -1])[:, 1, iy, ix]
            variances.append(np.var(np.real(vals)))
        slope = np.polyfit(np.log(eps_grid), np.log(variances), 1)[0]
        assert abs(slope - 1.0) <= 0.1

    @pytest.mark.parametrize("solver", [
        "solve_snse", "ensemble_run", "shifted_observer", "remainder_observer",
    ])
    def test_blowup_guard(self, grid1, noise1, solver):
        # every stochastic solver applies the same guard, scaled by |u(0)|
        huge = single_mode_field(grid1, (1, 0), (0.0, 1.0))
        cfg = SimConfig(
            grid=grid1, noise=noise1, horizon=0.1, dt=1e-3, epsilon=1e-3,
            initial=huge, nonlinear=False, record_stride=1, blowup_factor=1e-12,
        )
        u0 = solve_deterministic(replace(cfg, blowup_factor=1e6))
        h = zero_control(noise1, cfg.horizon, 10)
        runs = {
            "solve_snse": lambda: solve_snse(cfg, seed=0),
            "ensemble_run": lambda: ensemble_run(
                cfg, 0, 3, lambda: TrajectoryObserver(cfg)),
            "shifted_observer": lambda: shifted_ensemble(
                cfg, h, cfg.epsilon, u0.frames, 0, 3, lambda: _MomentObserver(cfg, [1.0])),
            "remainder_observer": lambda: ensemble_run(
                cfg, 0, 3, lambda: _RemainderObserver(cfg, u0.frames)),
        }
        with pytest.raises(IntegrationError) as exc:
            runs[solver]()
        assert exc.value.step >= 0

    @pytest.mark.parametrize("solver", ["solve_snse", "ensemble_run"])
    def test_guard_fails_at_the_full_spectrum_step(self, grid3, noise3, solver, monkeypatch):
        # the guard reads the scalar half, where a conjugate-symmetric state
        # holds its largest amplitude max_k |c_k|: a forced blow-up and an
        # overflow to NaN fail at the same steps, 130 and 9, as a guard over
        # every mode (153 and 9 under the former per-component amplitude)
        rng = np.random.default_rng(2)
        forced = SimConfig(
            grid=grid3, noise=noise3, horizon=0.2, dt=1e-3, epsilon=1e-3,
            initial=random_solenoidal_field(grid3, rng, amplitude=0.05),
            forcing=single_mode_field(grid3, (1, 2), (3.0, -1.5)), blowup_factor=2.0,
        )
        unstable = SimConfig(
            grid=grid3, noise=noise3, horizon=5.0, dt=0.05, epsilon=1e-3,
            initial=random_solenoidal_field(grid3, np.random.default_rng(5), amplitude=50.0),
            blowup_factor=math.inf,
        )
        runs = {
            "solve_snse": lambda cfg: solve_snse(cfg, seed=1),
            "ensemble_run": lambda cfg: ensemble_run(cfg, 1, 5, lambda: TrajectoryObserver(cfg)),
        }

        def full_guard(coeffs, scale, step):
            peak = np.max(np.abs(full_spectrum(coeffs)))
            if not np.isfinite(peak):
                raise IntegrationError(step, "non-finite coefficients")
            if peak > scale:
                raise IntegrationError(step, f"amplitude {peak:.3e} exceeded blowup guard")

        for cfg, step, message in ((forced, 130, "amplitude 3.191e-01 exceeded"),
                                   (unstable, 9, "non-finite")):
            steps = []
            for guard in (solvers._blowup_guard, full_guard):
                monkeypatch.setattr(solvers, "_blowup_guard", guard)
                with pytest.raises(IntegrationError, match=message) as exc, \
                        np.errstate(over="ignore", invalid="ignore"):
                    runs[solver](cfg)
                steps.append(exc.value.step)
            assert steps == [step, step]

    def test_divergence_preserved_nonlinear(self, rng):
        g = default_grid(5)
        m = NoiseModel(grid=g)
        cfg = SimConfig(
            grid=g, noise=m, horizon=0.2, dt=1e-3, epsilon=1e-3,
            initial=random_solenoidal_field(g, rng, amplitude=0.5),
            forcing=single_mode_field(g, (1, 2), (2.0, -1.0)),
            nonlinear=True, record_stride=20,
        )
        traj = solve_snse(cfg, seed=3)
        for i in range(traj.n_records):
            div, amp = divergence_defect(traj.field_at(i))
            assert div <= 1e-12 * max(amp, 1e-300)


_ENSEMBLE_KINDS = [
    "ensemble_run", "diff_energy_observer", "mc_probability",
    "fw_conditional_probe", "shifted_observer", "remainder_observer",
    "moment_bound_suite", "mdp_scaling_probe", "lil_schedule_study", "solve_snse",
]

# the kinds that take `workers`: one ensemble per epsilon or schedule index
_WORKER_KINDS = {
    "fw_conditional_probe", "moment_bound_suite", "mdp_scaling_probe", "lil_schedule_study",
}


def _check_chunking_invariance(noise, kind, n_steps, monkeypatch):
    """Run one ensemble entry point at chunk 1, 7 and 256 paths, each with
    noise blocks of 1, 7 and 256 path-steps, and assert that every per-path
    output of every ensemble it runs is identical.  The kinds that take
    `workers` run on two-entry epsilon grids (two schedule indices) at
    1, 2 and 3 workers as well; their ensembles may finish in any order,
    so they are compared by epsilon.  solve_snse, the verify suite's
    solver, runs no ensemble and is compared on its result."""
    eps, seed, n = 1e-2, 8, 9
    eps_grid = [eps, 5e-3]
    grid = noise.grid
    cfg = SimConfig(
        grid=grid, noise=noise, horizon=n_steps * 1e-3, dt=1e-3, epsilon=eps,
        initial=random_solenoidal_field(grid, np.random.default_rng(3), amplitude=0.5),
        nonlinear=True, record_stride=5,
    )
    u0 = solve_deterministic(replace(cfg, record_stride=1))
    h = Control(noise, cfg.horizon, np.random.default_rng(4).standard_normal(
        (4, noise.n_directions)))
    # at increment threshold 0.185 the two epsilons' increment counts differ
    # (1 and 0 of 9 additive, 2 and 1 saturated; the additive joint counts
    # are 1 and 3 as well), so a row built from the other epsilon's
    # ensemble would show
    fw = FWConfig(rho=0.18, eta=0.9, target_exponent=0.5, increment_threshold=0.185,
                  dyadic_depth=1, eps_grid=tuple(eps_grid), n_samples=n)
    runs = {
        "ensemble_run": lambda w: solvers.ensemble_run(
            cfg, seed, n, lambda: TrajectoryObserver(cfg)),
        "diff_energy_observer": lambda w: solvers.ensemble_run(
            cfg, seed, n, lambda: DiffEnergyObserver(cfg, u0.frames)),
        "mc_probability": lambda w: asdict(mc_probability(
            lambda tr: tr.h2[-1] > u0.h2[-1], eps, n, cfg, seed)),
        "fw_conditional_probe": lambda w: asdict(fw_conditional_probe(
            h, fw, cfg, seed, workers=w)),
        "shifted_observer": lambda w: shifted_ensemble(
            cfg, h, eps, u0.frames, seed, n, lambda: _MomentObserver(cfg, [1.0, 2.0])),
        "remainder_observer": lambda w: solvers.ensemble_run(
            cfg, seed, n, lambda: _RemainderObserver(cfg, u0.frames)),
        "moment_bound_suite": lambda w: asdict(moment_bound_suite(
            eps_grid, [2.0], n, cfg, seed, control=h, with_remainder=True, workers=w)),
        # at radius 0.19 the two epsilons' hit counts differ (3 and 2 of 9
        # additive, 8 and 7 saturated), so a row built from the other
        # epsilon's ensemble would show
        "mdp_scaling_probe": lambda w: asdict(mdp_scaling_probe(
            0.19, eps_grid, ASpec("lil"), cfg, n, seed, workers=w)),
        "lil_schedule_study": lambda w: asdict(classical_ratio_study(
            GeometricSchedule(base=2.0, j_min=7, j_max=8), 3, cfg, seed, workers=w)),
        "solve_snse": lambda w: asdict(solve_snse(cfg, seed)),
    }
    captured = {}

    def spy(config, *args, **kwargs):
        out = ensemble_run(config, *args, **kwargs)
        captured.setdefault(config.epsilon, []).append(out)
        return out

    monkeypatch.setattr(solvers, "ensemble_run", spy)
    outputs = []
    # one path-step's noise field, an (S, K + 1) scalar half
    path_step_nbytes = grid.n_coeff * (grid.max_wavenumber + 1) * 16
    workers = (1, 2, 3) if kind in _WORKER_KINDS else (1,)
    for w, chunk, block in itertools.product(workers, (1, 7, 256), (1, 7, 256)):
        monkeypatch.setattr(solvers, "_CHUNK_PATHS", chunk)
        monkeypatch.setattr(solvers, "_NOISE_BLOCK_BYTES", block * path_step_nbytes)
        captured.clear()
        result = runs[kind](w)
        assert captured or kind == "solve_snse"
        if kind in _WORKER_KINDS:
            assert len(captured) == 2 and all(len(c) == 1 for c in captured.values())
        if kind == "fw_conditional_probe":
            # per-path statistics only: no ensemble returns recorded frames
            assert all(v.ndim <= 2 for c in captured.values() for out in c
                       for v in out.values())
            rows = result["rows"]
            assert rows[0]["increment_p_hat"] != rows[1]["increment_p_hat"]
        outputs.append((result, dict(sorted(captured.items()))))
    for other in outputs[1:]:
        _assert_identical(outputs[0], other)


def _assert_identical(a, b):
    """Exact equality of nested dicts, sequences and arrays."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_identical(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_identical(x, y)
    else:
        np.testing.assert_array_equal(a, b)


def _count_calls_by_caller(monkeypatch, module, *names):
    """Wrap module-level functions so that calls are counted per calling
    function name: {name: {caller: count}}."""
    calls = {name: {} for name in names}
    for name in names:
        def wrapper(*args, _name=name, _fn=getattr(module, name), **kwargs):
            caller = sys._getframe(1).f_code.co_name
            calls[_name][caller] = calls[_name].get(caller, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def _advection_batches(monkeypatch) -> list:
    """Wrap solvers.advection_array so that each call appends its batch, the
    product of the leading axes of u, a batch of scalar halves, to the
    returned list."""
    batches = []
    advect = solvers.advection_array

    def spy(grid, u, v):
        batches.append(math.prod(u.shape[:-2]))
        return advect(grid, u, v)

    monkeypatch.setattr(solvers, "advection_array", spy)
    return batches


class _Recorder:
    """Copies of every hook input of one batch."""

    def __init__(self):
        self.noise, self.states = [], []

    def on_noise(self, step, t, coeffs, dW):
        self.noise.append((step, t, coeffs.copy(), dW.copy()))

    def on_state(self, idx, t, coeffs):
        self.states.append((idx, t, coeffs.copy()))


class TestHalfSpectrumStepper:
    # the stepper holds the scalar half of its paths' states: its hooks'
    # inputs and its final states are bitwise the halves of those of the
    # full-spectrum loop of the scalar, over 12 steps in two noise blocks
    @pytest.mark.parametrize("N", [10, 11])
    @pytest.mark.parametrize("batch", [1, 7, 256])
    @pytest.mark.parametrize("nonlinear", [False, True])
    @pytest.mark.parametrize("family", ["additive", "saturated"])
    @pytest.mark.parametrize("forced", [False, True])
    def test_matches_full_spectrum_loop(self, N, batch, nonlinear, family, forced):
        g = SpectralGrid(3, N)
        rng = np.random.default_rng(N + batch)
        noise = NoiseModel(grid=g, family=family)
        cfg = SimConfig(
            grid=g, noise=noise, horizon=12e-3, dt=1e-3, epsilon=1e-2,
            initial=random_solenoidal_field(g, rng, amplitude=0.5),
            forcing=random_solenoidal_field(g, rng, amplitude=0.3) if forced else None,
            nonlinear=nonlinear,
        )
        assert solvers._noise_block_steps(noise, batch, cfg.n_steps) < cfg.n_steps
        c0 = full_spectrum(to_scalar(g, cfg.initial.coeffs))
        full = np.broadcast_to(c0, (batch, 7, 7)).copy()
        half = half_spectrum(full).copy()
        runs = []
        for state, integrate in ((half, solvers._integrate_batch),
                                 (full, helpers.integrate_batch_full)):
            runs.append(_Recorder())
            integrate(cfg, state, [substream(5, i) for i in range(batch)], runs[-1])
        ours, oracle = runs
        assert len(ours.noise) == len(oracle.noise) == cfg.n_steps
        assert len(ours.states) == len(oracle.states) == cfg.n_steps + 1
        for (step, t, c, dW), (step_f, t_f, c_f, dW_f) in zip(ours.noise, oracle.noise):
            assert (step, t) == (step_f, t_f) and np.array_equal(dW, dW_f)
            assert c.shape == half.shape and np.array_equal(c, half_spectrum(c_f))
        for (idx, t, c), (idx_f, t_f, c_f) in zip(ours.states, oracle.states):
            assert (idx, t) == (idx_f, t_f)
            assert c.shape == half.shape and np.array_equal(c, half_spectrum(c_f))
        assert np.array_equal(half, half_spectrum(full))

    def test_matches_two_component_stepper(self):
        # the scalar layout against the two-component one it replaced, on one
        # nonlinear, saturated, forced run of 3 paths over 40 steps: every
        # expanded state agrees with the two-component state within 1e-13 of
        # the largest amplitude, the rounding of two layouts and of two
        # advection routes (curl form against gradient form)
        g = default_grid(3)
        rng = np.random.default_rng(8)
        cfg = SimConfig(
            grid=g, noise=NoiseModel(grid=g, family="saturated"), horizon=40e-3, dt=1e-3,
            epsilon=1e-2, initial=random_solenoidal_field(g, rng, amplitude=0.5),
            forcing=random_solenoidal_field(g, rng, amplitude=0.3),
        )
        c = np.broadcast_to(to_scalar(g, cfg.initial.coeffs), (3, 7, 4)).copy()
        u = np.broadcast_to(cfg.initial.coeffs, (3, 2, 7, 7)).copy()
        runs = []
        for state, integrate in ((c, solvers._integrate_batch),
                                 (u, helpers.integrate_batch_two_component)):
            runs.append(_Recorder())
            integrate(cfg, state, [substream(5, i) for i in range(3)], runs[-1])
        ours, oracle = runs[0].states, runs[1].states
        assert len(ours) == len(oracle) == cfg.n_steps + 1
        scale = max(np.max(np.abs(state)) for _, _, state in oracle)
        worst = max(np.max(np.abs(to_velocity(g, c) - u))
                    for (_, _, c), (_, _, u) in zip(ours, oracle))
        assert 0.0 < worst <= 1e-13 * scale

    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_one_self_advection_per_step_per_chunk(self, monkeypatch, nonlinear):
        # a traced run counts `spectral.advection_array` calls inside
        # `ensemble_run`, each on a batch of scalar halves, u.shape[:-2]: the
        # stepper makes one self-advection call per step per chunk, on the
        # chunk's paths (9 paths at chunk 7: batches of 7, then 2), and a
        # linear run makes none
        g = default_grid(2)
        cfg = SimConfig(
            grid=g, noise=NoiseModel(grid=g), horizon=3e-3, dt=1e-3, epsilon=1e-2,
            initial=random_solenoidal_field(g, np.random.default_rng(1), amplitude=0.5),
            nonlinear=nonlinear,
        )
        batches = []
        advect = solvers.advection_array

        def spy(grid, u, v):
            assert v is u
            batches.append(math.prod(u.shape[:-2]))
            return advect(grid, u, v)

        monkeypatch.setattr(solvers, "advection_array", spy)
        monkeypatch.setattr(solvers, "_CHUNK_PATHS", 7)
        ensemble_run(cfg, 0, 9, lambda: TrajectoryObserver(cfg))
        assert batches == ([7] * 3 + [2] * 3 if nonlinear else [])

    @pytest.mark.parametrize("K, chunks", [(10, [32] * 8), (2, [256])])
    def test_chunks_sized_by_the_padded_array(self, monkeypatch, K, chunks):
        # a chunk holds as many paths as fill _CHUNK_BYTES (512 KiB) with one
        # padded (N, N) complex array of the self-advection each, at most
        # 256: 32 at K=10 (N=32), so a 256-path ensemble advects in eight
        # batches per step, and all 256 at K=2 (N=8)
        g = default_grid(K)
        cfg = SimConfig(
            grid=g, noise=NoiseModel(grid=g), horizon=2e-3, dt=1e-3, epsilon=1e-2,
            initial=random_solenoidal_field(g, np.random.default_rng(1), amplitude=0.5),
            nonlinear=True,
        )
        batches = _advection_batches(monkeypatch)
        ensemble_run(cfg, 0, 256, lambda: TrajectoryObserver(cfg))
        assert batches == [n for n in chunks for _ in range(cfg.n_steps)]

    @pytest.mark.parametrize("family", ["additive", "saturated"])
    def test_k10_output_independent_of_the_working_set_chunk(self, monkeypatch, family):
        # 150 paths at K=10 step in four chunks of 32 and one of 22, and
        # give the same per-path output, bit for bit, as one chunk of all 150
        g = default_grid(10)
        cfg = SimConfig(
            grid=g, noise=NoiseModel(grid=g, family=family), horizon=3e-3, dt=1e-3,
            epsilon=1e-2, nonlinear=True,
            initial=random_solenoidal_field(g, np.random.default_rng(2), amplitude=0.5),
        )
        batches = _advection_batches(monkeypatch)
        outputs = []
        for budget, chunks in ((solvers._CHUNK_BYTES, [32] * 4 + [22]), (150 * 32**2 * 16, [150])):
            monkeypatch.setattr(solvers, "_CHUNK_BYTES", budget)
            batches.clear()
            outputs.append(ensemble_run(cfg, 4, 150, lambda: TrajectoryObserver(cfg)))
            assert batches == [n for n in chunks for _ in range(cfg.n_steps)]
        _assert_identical(*outputs)


class TestSkeleton:
    def test_zero_control_zero_solution(self, linear_config, noise1):
        cfg = linear_config
        u0 = solve_deterministic(
            SimConfig(grid=cfg.grid, noise=cfg.noise, horizon=cfg.horizon,
                      dt=cfg.dt, initial=cfg.initial, nonlinear=False, record_stride=1)
        )
        h = zero_control(noise1, cfg.horizon, 10)
        x = solve_skeleton(h, u0, cfg)
        assert np.max(np.abs(x.frames)) == 0.0

    def test_duhamel_closed_form(self, grid1, noise1, rng):
        # zero deterministic limit: exact per-mode formula for piecewise h
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=1.0, dt=1e-3,
                        nonlinear=False, record_stride=1)
        u0 = solve_deterministic(cfg)
        hv = rng.standard_normal((20, 2))
        h = Control(noise1, 1.0, hv)
        x = solve_skeleton(h, u0, cfg)
        A = math.sqrt(2.0) / TWO_PI
        decay, phi = helpers.scheme_weights(1.0, cfg.dt)
        c = 0.0 + 0.0j
        for n in range(cfg.n_steps):
            hc, hs = hv[min(int(n * cfg.dt / (1.0 / 20)), 19)]
            c = decay * c + phi * (A / 2.0) * (hc - 1j * hs)
        iy, ix = _mode_index(grid1, (1, 0))
        err = abs(x.field_at(-1).coeffs[1, iy, ix] - c)
        assert err <= 1e-6 * max(abs(c), 1e-12)

    def test_linearity_in_control(self, grid1, noise1, rng):
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.5, dt=1e-3,
                        nonlinear=False, record_stride=25)
        u0 = solve_deterministic(
            SimConfig(grid=grid1, noise=noise1, horizon=0.5, dt=1e-3,
                      nonlinear=False, record_stride=1)
        )
        hv = rng.standard_normal((10, 2))
        x1 = solve_skeleton(Control(noise1, 0.5, hv), u0, cfg)
        x3 = solve_skeleton(Control(noise1, 0.5, 3.0 * hv), u0, cfg)
        assert np.max(np.abs(x3.frames - 3.0 * x1.frames)) <= 1e-12 * np.max(
            np.abs(x3.frames) + 1e-300
        )

    def test_continuity_slope_one(self, grid3, noise3, rng):
        # response to a control perturbation scales linearly (log-log slope 1)
        g, m = grid3, noise3
        u0_init = random_solenoidal_field(g, rng, amplitude=0.4)
        cfg1 = SimConfig(grid=g, noise=m, horizon=0.25, dt=1e-3,
                         initial=u0_init, nonlinear=True, record_stride=1)
        u0 = solve_deterministic(cfg1)
        base = rng.standard_normal((10, m.n_directions))
        pert = rng.standard_normal((10, m.n_directions))
        x_base = solve_skeleton(Control(m, 0.25, base), u0, cfg1)
        sizes = [1e-2, 1e-3, 1e-4]
        responses = []
        for s in sizes:
            x = solve_skeleton(Control(m, 0.25, base + s * pert), u0, cfg1)
            responses.append(helpers.energy_distance(x, x_base))
        slope = np.polyfit(np.log(sizes), np.log(responses), 1)[0]
        assert abs(slope - 1.0) <= 0.05

    @pytest.mark.parametrize("family", ["additive", "saturated"])
    @pytest.mark.parametrize("nonlinear", [False, True])
    @pytest.mark.parametrize("control_axes", [(), (1,), (3,)])
    def test_forward_matches_per_step_oracle(self, grid3, family, nonlinear, control_axes):
        # the noise map applied to all steps in one call gives the frames of
        # the per-step loop bit for bit, control by control
        m = NoiseModel(grid=grid3, family=family, num_directions=7)
        rng = np.random.default_rng(11)
        cfg = SimConfig(grid=grid3, noise=m, horizon=0.013, dt=1e-3,
                        initial=random_solenoidal_field(grid3, rng, amplitude=0.5),
                        nonlinear=nonlinear, record_stride=1)
        u0 = solve_deterministic(cfg).frames
        h = rng.standard_normal(control_axes + (cfg.n_steps, m.n_directions))
        frames = solvers.skeleton_forward(h, u0, cfg)
        assert frames.shape == control_axes + (cfg.n_steps + 1, 7, 4)
        flat_h = h.reshape((-1,) + h.shape[-2:])
        flat_frames = frames.reshape((-1,) + frames.shape[-3:])
        for hv, got in zip(flat_h, flat_frames):
            assert np.array_equal(got, helpers.skeleton_forward_per_step(hv, u0, cfg))
        # written into a view: the frames of a larger array, one spare at each end
        big = np.full(control_axes + (cfg.n_steps + 3, 7, 4), np.nan, dtype=np.complex128)
        view = big[..., 1:-1, :, :]
        assert solvers.skeleton_forward(h, u0, cfg, out=view) is view
        assert np.array_equal(view, frames)
        assert np.isnan(big[..., 0, :, :]).all() and np.isnan(big[..., -1, :, :]).all()

    def test_grid_mismatch_rejected(self, grid1, noise1):
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.5, dt=1e-3,
                        nonlinear=False, record_stride=5)
        u0_coarse = solve_deterministic(cfg)  # not stride 1
        from snse_lab.solvers import GridMismatchError

        with pytest.raises(GridMismatchError):
            solve_skeleton(zero_control(noise1, 0.5, 10), u0_coarse, cfg)


class TestShiftedProcess:
    def test_degenerate_zero(self, grid1, noise1, monkeypatch):
        # zero increments and a zero control leave the shifted process at zero
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.25, dt=1e-3,
                        nonlinear=False, record_stride=1)
        u0 = solve_deterministic(cfg)
        h = zero_control(noise1, 0.25, 10)
        # the shifted observer, on all-zero increments: every normal scaled by 0
        cfg_eps = cfg.with_epsilon(1e-4)
        h_field = solvers._control_fields(h, cfg)
        monkeypatch.setattr(
            solvers, "substream", lambda seed, i: helpers.ScaledNormals(substream(seed, i), 0.0))
        z = ensemble_run(
            cfg_eps, 0, 1,
            lambda: solvers._ShiftedObserver(cfg_eps, h_field, u0.frames, TrajectoryObserver(cfg)),
        )["frames"]
        assert np.max(np.abs(z)) == 0.0

    def test_epsilon_domain(self, grid1, noise1):
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.25, dt=1e-3,
                        nonlinear=False, record_stride=1)
        u0 = solve_deterministic(cfg)
        h = zero_control(noise1, 0.25, 10)
        with pytest.raises(ParameterError):
            shifted_ensemble(  # above exp(-e)
                cfg, h, 0.5, u0.frames, 1, 1, lambda: TrajectoryObserver(cfg))
        with pytest.raises(ParameterError):
            loglog(0.0)

    def test_girsanov_shift_structure(self, grid1, noise1, rng):
        # additive linear regime: the controlled shifted process equals the
        # uncontrolled one plus the steered path, pathwise
        eps = 1e-4
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.25, dt=1e-3,
                        nonlinear=False, record_stride=1)
        u0 = solve_deterministic(cfg)
        hv = 0.7 * rng.standard_normal((5, 2))
        h = Control(noise1, 0.25, hv)
        observe = lambda: TrajectoryObserver(cfg)  # noqa: E731
        z_h = shifted_ensemble(cfg, h, eps, u0.frames, 13, 1, observe)["frames"][0]
        z_0 = shifted_ensemble(
            cfg, zero_control(noise1, 0.25, 5), eps, u0.frames, 13, 1, observe)["frames"][0]
        x = solve_skeleton(h, u0, cfg)
        dev = np.max(np.abs(z_h - z_0 - x.frames))
        assert dev <= 1e-12 * max(np.max(np.abs(z_h)), 1.0)

    @pytest.mark.parametrize("family", ["additive", "saturated"])
    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_replay_matches_per_step_oracle(self, grid3, family, nonlinear):
        # one factor per step for both fields and the control scattered once
        # give the values of two noise-map calls per step
        noise = NoiseModel(grid=grid3, family=family)
        cfg = SimConfig(
            grid=grid3, noise=noise, horizon=0.02, dt=1e-3, nonlinear=nonlinear,
            initial=random_solenoidal_field(grid3, np.random.default_rng(3), amplitude=0.5),
            record_stride=1,
        )
        eps, seed, n_paths = 1e-3, 9, 3
        u0 = solve_deterministic(cfg)
        h = Control(noise, cfg.horizon, np.random.default_rng(4).standard_normal(
            (4, noise.n_directions)))
        z = shifted_ensemble(
            cfg, h, eps, u0.frames, seed, n_paths, lambda: TrajectoryObserver(cfg))["frames"]
        # the noisy paths the shifted process was stepped along
        ue = ensemble_run(cfg.with_epsilon(eps), seed, n_paths,
                          lambda: TrajectoryObserver(cfg))["frames"]
        h_values = h.value_at(np.arange(cfg.n_steps) * cfg.dt)
        for path in range(n_paths):
            dW = substream(seed, path).standard_normal((cfg.n_steps, noise.n_directions))
            dW = dW * np.sqrt(noise.eigenvalues * cfg.dt)
            oracle = helpers.tilde_z_per_step(h_values, ue[path], u0.frames, eps, dW, cfg)
            assert np.array_equal(z[path], oracle)

    def test_observer_factor_once_per_step_and_one_control_scatter(
        self, grid3, monkeypatch
    ):
        noise = NoiseModel(grid=grid3, family="saturated")
        cfg = SimConfig(
            grid=grid3, noise=noise, horizon=0.02, dt=1e-3,
            initial=random_solenoidal_field(grid3, np.random.default_rng(3), amplitude=0.5),
            record_stride=1,
        )
        u0 = solve_deterministic(cfg)
        h = Control(noise, cfg.horizon, np.ones((4, noise.n_directions)))
        calls = _count_calls_by_caller(monkeypatch, solvers, "sigma_factor", "scatter_coefficients")
        shifted_ensemble(cfg, h, 1e-3, u0.frames, 2, 9, lambda: _MomentObserver(cfg, [1.0]))
        # the stepper takes the noisy path's factor once per step, the observer
        # the recentred state's; the control is scattered once for all steps,
        # the stepper's noise once per block (20 steps of 48 directions in
        # blocks of ceil(512 / 48) = 11 steps: 2 blocks)
        assert calls["sigma_factor"] == {"_integrate_batch": 20, "on_noise": 20}
        assert calls["scatter_coefficients"] == {
            "_integrate_batch": 2, "_control_fields": 1, "on_noise": 20,
        }

    def test_moment_stability_across_epsilon(self, grid1, noise1):
        # second moments finite and stable within a factor two across levels
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.25, dt=1e-3,
                        nonlinear=False, record_stride=1)
        u0 = solve_deterministic(cfg)
        h = zero_control(noise1, 0.25, 10)
        means = []
        for eps in (1e-3, 1e-4, 1e-5):
            out = shifted_ensemble(
                cfg, h, eps, u0.frames, 41, 300, lambda: _MomentObserver(cfg, [1.0]))
            means.append(float(np.mean(out["sup"][:, 0] + out["int"][:, 0])))
        assert max(means) <= 2.0 * min(means)


class TestTrajectoryCombinators:
    def test_combination_matches_manual(self, linear_config):
        a = solve_snse(linear_config.with_epsilon(1e-3), seed=1)
        b = solve_deterministic(linear_config)
        diff = helpers.combine_trajectories(a, b, 1.0, -1.0)
        np.testing.assert_allclose(diff.frames, a.frames - b.frames, atol=1e-16)
        assert diff.sup_h2 >= 0

    @pytest.mark.parametrize("kind", _ENSEMBLE_KINDS)
    def test_ensemble_chunking_invariance(self, noise3, kind, monkeypatch):
        # every per-path output of every ensemble an entry point runs is
        # identical whatever the chunk size
        _check_chunking_invariance(noise3, kind, 20, monkeypatch)

    @pytest.mark.parametrize("kind", _ENSEMBLE_KINDS)
    def test_ensemble_chunking_invariance_state_dependent(self, grid3, kind, monkeypatch):
        # the saturated family takes its factor per step from the state; at
        # 256 path-steps per noise block the 40 steps split into blocks of 28
        # steps (chunk 256: 9 paths), 36 and 128 (chunk 7: 7 and 2 paths) and
        # 256 (chunk 1), at 7 path-steps into blocks of 1, 1 and 3, and 7
        noise = NoiseModel(grid=grid3, family="saturated")
        _check_chunking_invariance(noise, kind, 40, monkeypatch)

    @pytest.mark.parametrize("family", ["additive", "saturated"])
    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_remainder_matches_per_step_oracle(self, grid3, family, nonlinear, monkeypatch):
        # the frozen noise map's factor is taken once per chunk for all steps
        noise = NoiseModel(grid=grid3, family=family)
        cfg = SimConfig(
            grid=grid3, noise=noise, horizon=0.02, dt=1e-3, nonlinear=nonlinear,
            initial=random_solenoidal_field(grid3, np.random.default_rng(3), amplitude=0.5),
            record_stride=1,
        )
        eps = 1e-2
        u0 = solve_deterministic(cfg)
        calls = _count_calls_by_caller(monkeypatch, deviation, "sigma_factor")
        cfg = cfg.with_epsilon(eps)
        ours = ensemble_run(cfg, 5, 9, lambda: _RemainderObserver(cfg, u0.frames))["sup"]
        assert calls["sigma_factor"] == {"on_start": 1}
        oracle = ensemble_run(
            cfg, 5, 9, lambda: helpers.RemainderObserverPerStep(cfg, u0.frames))["sup"]
        assert np.array_equal(ours, oracle)

    def test_trajectories_from_ensemble(self, grid1, noise1):
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.05, dt=1e-3,
                        epsilon=1e-3, nonlinear=False, record_stride=10)
        out = ensemble_run(cfg, seed=8, n_paths=3,
                           observer_factory=lambda: TrajectoryObserver(cfg))
        trajs = trajectories_from_ensemble(out, cfg, seed=8)
        assert len(trajs) == 3
        single = solve_snse(cfg, seed=8)  # path 0 uses substream(seed, 0)
        np.testing.assert_array_equal(trajs[0].frames, single.frames)


class TestEpsilonEnsembles:
    EPSILONS = [1e-2, 5e-3, 2e-3]

    @staticmethod
    def _run(monkeypatch, noise, n_paths, workers, epsilons=EPSILONS):
        """Outputs, thread pool sizes and the threads that made observers."""
        import concurrent.futures

        sizes, threads = [], set()

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        cfg = SimConfig(grid=noise.grid, noise=noise, horizon=0.01, dt=1e-3, record_stride=5,
                        initial=random_solenoidal_field(noise.grid, np.random.default_rng(2)))

        def factory(c):
            threads.add(threading.get_ident())
            return TrajectoryObserver(c)

        outs = solvers._epsilon_ensembles(cfg, epsilons, 4, n_paths, factory, workers)
        return outs, sizes, threads

    def test_one_thread_runs_inline(self, noise3, monkeypatch):
        # one worker over three epsilons, or three workers over one epsilon:
        # no pool, every ensemble on this thread
        _, sizes, threads = self._run(monkeypatch, noise3, 9, 1)
        assert sizes == [] and threads == {threading.get_ident()}
        _, sizes, threads = self._run(monkeypatch, noise3, 9, 3, self.EPSILONS[:1])
        assert sizes == [] and threads == {threading.get_ident()}

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_threads_capped_by_the_grid(self, noise3, monkeypatch, workers):
        # the three epsilons run on min(workers, 3) threads, none of them
        # this one, and the outputs keep the order of the epsilons
        monkeypatch.setattr(solvers, "_CHUNK_PATHS", 7)
        outs, sizes, threads = self._run(monkeypatch, noise3, 9, workers)
        assert sizes == [min(workers, 3)]
        assert 1 <= len(threads) <= min(workers, 3) and threading.get_ident() not in threads
        serial, sizes, _ = self._run(monkeypatch, noise3, 9, 1)
        assert sizes == []
        _assert_identical(outs, serial)


class TestHalfLayout:
    """Every trajectory, skeleton and probe frame is held as the scalar half
    (..., S, K + 1); two-component arrays exist only at the edges: a field
    read out of a trajectory and the trajectory file."""

    @staticmethod
    def _config(grid3, noise3, nonlinear=True):
        return SimConfig(
            grid=grid3, noise=noise3, horizon=0.01, dt=1e-3, epsilon=1e-2,
            initial=random_solenoidal_field(grid3, np.random.default_rng(7), amplitude=0.5),
            nonlinear=nonlinear, record_stride=1,
        )

    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_frames_are_halves(self, grid3, noise3, nonlinear):
        cfg = self._config(grid3, noise3, nonlinear)
        half = (7, 4)
        u0 = solve_deterministic(cfg)
        h = Control(noise3, cfg.horizon, np.ones((5, noise3.n_directions)))
        trajectories = {
            "solve_deterministic": u0,
            "solve_snse": solve_snse(cfg, seed=2),
            "solve_skeleton": solve_skeleton(h, u0, cfg),
        }
        for name, traj in trajectories.items():
            assert traj.frames.shape == (cfg.n_steps + 1,) + half, name
        out = ensemble_run(cfg, 2, 3, lambda: TrajectoryObserver(cfg))
        assert out["frames"].shape == (3, cfg.n_steps + 1) + half
        x = solvers.skeleton_forward(np.ones((2, cfg.n_steps, noise3.n_directions)), u0.frames, cfg)
        assert x.shape == (2, cfg.n_steps + 1) + half
        probe = build_probe(cfg, u0, directions=[0, 1], n_shapes=1)
        assert probe.frames.shape == (probe.size, cfg.n_steps + 1) + half

    def test_field_at_mirrors_the_half(self, grid3, noise3):
        traj = solve_snse(self._config(grid3, noise3), seed=4)
        for i in range(traj.n_records):
            assert np.array_equal(traj.field_at(i).coeffs, to_velocity(grid3, traj.frames[i]))

    def test_trajectory_file_holds_the_full_frames(self, tmp_path, grid3, noise3):
        traj = solve_snse(replace(self._config(grid3, noise3), record_stride=3), seed=4)
        path = tmp_path / "t.bin"
        write_trajectory(str(path), traj)
        data = path.read_bytes()
        block = np.ascontiguousarray(to_velocity(grid3, traj.frames), dtype="<c16").tobytes()
        assert to_velocity(grid3, traj.frames).shape == (traj.n_records, 2, 7, 7)
        assert data.endswith(block)
        # header line, then times, h2 and v2, then the frames
        assert len(data) == data.index(b"\n") + 1 + 3 * 8 * traj.n_records + len(block)
