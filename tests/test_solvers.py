"""Integrator tests: exact linear behavior, stochastic moments, reductions."""

import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from snse_lab import deviation, solvers
from snse_lab.deviation import (
    FWConfig,
    _MomentObserver,
    deviation_energy_samples,
    first_order_remainder_samples,
    fw_conditional_probe,
    mc_probability,
)
from snse_lab.noise import Control, NoiseModel, zero_control
from snse_lab.rng import substream
from snse_lab.solvers import (
    IntegrationError,
    ParameterError,
    Propagator,
    SimConfig,
    combine_trajectories,
    ensemble_run,
    loglog,
    propagator,
    shifted_ensemble_run,
    solve_deterministic,
    solve_skeleton,
    solve_snse,
    solve_tilde_z,
    step_deterministic,
    step_snse,
    trajectories_from_ensemble,
    TrajectoryObserver,
)
from snse_lab.spectral import (
    default_grid,
    divergence_defect,
    h_norm_sq_array,
    random_solenoidal_field,
    single_mode_field,
    taylor_green,
    v_norm_sq_array,
    zero_field,
    TWO_PI,
)

import helpers


def _mode_index(grid, k):
    K = grid.max_wavenumber
    return (K + k[1], K + k[0])


class TestSteps:
    def test_zero_state_zero_forcing(self, grid3, noise3):
        z = zero_field(grid3)
        out = step_deterministic(z, None, 1e-3)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_pure_decay_exact(self, grid1):
        u = single_mode_field(grid1, (1, 0), (0.0, 1.0))
        out = step_deterministic(u, None, 0.25, nonlinear=False)
        iy, ix = _mode_index(grid1, (1, 0))
        assert abs(out.coeffs[1, iy, ix] - u.coeffs[1, iy, ix] * math.exp(-0.25)) < 1e-16

    def test_taylor_green_remains_pure_decay(self):
        g = default_grid(4)
        tg = taylor_green(g, 0.8)
        out = step_deterministic(tg, None, 0.1, nonlinear=True)
        np.testing.assert_allclose(
            out.coeffs, tg.coeffs * math.exp(-2 * 0.1), atol=1e-15
        )

    def test_snse_step_reduces_at_zero_noise(self, grid3, noise3, rng):
        u = random_solenoidal_field(grid3, rng)
        dW = np.zeros(noise3.n_directions)
        a = step_deterministic(u, None, 1e-3)
        b = step_snse(u, None, 0.0, dW, 1e-3, noise3)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_propagator_shared_and_read_only(self, grid3):
        prop = propagator(grid3, 1e-3)
        assert propagator(default_grid(3), 1e-3) is prop
        assert propagator(grid3, 2e-3) is not prop
        for arr in (prop.decay, prop.phi, prop.phi_rate, prop.int_weight):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0


class TestDeterministicSolve:
    def test_zero_horizon(self, grid1, noise1):
        u0 = single_mode_field(grid1, (1, 0), (0.0, 1.0))
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.0, dt=1e-3, initial=u0)
        traj = solve_deterministic(cfg)
        assert traj.n_records == 1
        np.testing.assert_array_equal(traj.frames[0], u0.coeffs)

    def test_horizon_must_divide(self, grid1, noise1):
        with pytest.raises(ParameterError):
            SimConfig(grid=grid1, noise=noise1, horizon=1.0, dt=3e-4)

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
            [Propagator(grid3, cfg.dt).step_int_v2(traj.frames[i]) for i in range(traj.n_records - 1)]
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

    def test_determinism(self, linear_config):
        cfg = linear_config.with_epsilon(1e-3)
        a = solve_snse(cfg, seed=9)
        b = solve_snse(cfg, seed=9)
        assert np.array_equal(a.frames, b.frames)
        c = solve_snse(cfg, seed=10)
        assert not np.array_equal(a.frames, c.frames)

    def test_observer_norms_equal_separate_calls(self, grid3, noise3, rng):
        # both observers square |c| once per state; every norm stays bitwise
        # equal to the one-norm-per-call definitions
        cfg = SimConfig(grid=grid3, noise=noise3, horizon=0.03, dt=1e-3, epsilon=1e-2,
                        initial=random_solenoidal_field(grid3, rng, amplitude=0.1),
                        record_stride=1)
        u0 = solve_deterministic(cfg)
        traj = ensemble_run(cfg, 3, 4, lambda: TrajectoryObserver(cfg))
        mom = ensemble_run(cfg, 3, 4, lambda: _MomentObserver(cfg, [1.0], u0.frames))
        frames = traj["frames"]
        h2, v2 = h_norm_sq_array(grid3, frames), v_norm_sq_array(grid3, frames)
        assert np.array_equal(traj["h2"], h2) and np.array_equal(traj["v2"], v2)
        assert np.array_equal(traj["sup_h2"], h2.max(axis=1))
        assert np.array_equal(mom["sup_h2"], h2.max(axis=1))
        prop = Propagator(grid3, cfg.dt)
        int_v2, int_h2v2, int_a2 = np.zeros(4), np.zeros(4), np.zeros(4)
        for i in range(frames.shape[1] - 1):
            int_v2 += prop.step_int_v2(frames[:, i])
            int_h2v2 += h2[:, i] * v2[:, i] * cfg.dt
            a_sq = TWO_PI**2 * np.sum(grid3.k2**2 * np.abs(frames[:, i]) ** 2, axis=(-3, -2, -1))
            int_a2 += a_sq * cfg.dt
        assert np.array_equal(traj["int_v2"], int_v2)
        assert np.array_equal(mom["int_v2"], int_v2)
        assert np.array_equal(mom["int_h2v2"], int_h2v2)
        assert np.array_equal(mom["int_a2"], int_a2)

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
                self.pre.append(coeffs.copy())

            def finish(self):
                return {"pre": np.stack(self.pre, axis=1)}

        pre = ensemble_run(cfg, seed, n_paths, Copies)["pre"]
        sqrt_lam_dt = np.sqrt(noise.eigenvalues * cfg.dt)
        for path in range(n_paths):
            dW = substream(seed, path).standard_normal((cfg.n_steps, noise.n_directions))
            u = cfg.initial
            for step in range(cfg.n_steps):
                assert np.array_equal(pre[path, step], u.coeffs)
                t = step * cfg.dt
                u = step_snse(u, cfg.forcing, eps, dW[step] * sqrt_lam_dt, cfg.dt, noise, t)

    def test_step_peak_traced_allocation(self):
        # one batch-64, K=10, 8-step run: 11.22 MB peak traced allocation on
        # numpy 2.4 (12.80 MB with an out-of-place step, a full assembled
        # spectrum and fresh forward-transform output); pinned with 5% margin
        g = default_grid(10)
        cfg = SimConfig(
            grid=g, noise=NoiseModel(grid=g), horizon=8e-3, dt=1e-3, epsilon=1e-2,
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
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 11_218_216

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
                self.last = coeffs[:, 1, _mode_index(cfg.grid, (1, 0))[0], _mode_index(cfg.grid, (1, 0))[1]].copy()

            def finish(self):
                return {"c": self.last}

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
            vals = []
            for i in range(400):
                traj = _fast_path(cfg, seed=77, path=i)
                vals.append(traj[1, iy, ix])
            variances.append(np.var(np.real(vals)))
        slope = np.polyfit(np.log(eps_grid), np.log(variances), 1)[0]
        assert abs(slope - 1.0) <= 0.1

    @pytest.mark.parametrize("solver", [
        "solve_snse", "ensemble_run", "shifted_ensemble_run", "solve_tilde_z",
        "first_order_remainder_samples",
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
            "shifted_ensemble_run": lambda: shifted_ensemble_run(
                cfg, h, cfg.epsilon, u0, 0, 3, lambda: _MomentObserver(cfg, [1.0])),
            "solve_tilde_z": lambda: solve_tilde_z(h, u0, u0, cfg.epsilon, 0, cfg),
            "first_order_remainder_samples": lambda: first_order_remainder_samples(
                cfg, cfg.epsilon, u0, 3, seed=0),
        }
        with pytest.raises(IntegrationError) as exc:
            runs[solver]()
        assert exc.value.step >= 0

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
    "ensemble_run", "deviation_energy_samples", "mc_probability",
    "fw_conditional_probe", "shifted_ensemble_run",
    "first_order_remainder_samples",
]


def _check_chunking_invariance(noise, kind, n_steps, monkeypatch):
    """Run one ensemble entry point at chunk 1, 7 and 256 and assert that every
    per-path output of every ensemble it runs is identical."""
    eps, seed, n = 1e-2, 8, 9
    grid = noise.grid
    cfg = SimConfig(
        grid=grid, noise=noise, horizon=n_steps * 1e-3, dt=1e-3, epsilon=eps,
        initial=random_solenoidal_field(grid, np.random.default_rng(3), amplitude=0.5),
        nonlinear=True, record_stride=5,
    )
    u0 = solve_deterministic(replace(cfg, record_stride=1))
    h = Control(noise, cfg.horizon, np.random.default_rng(4).standard_normal(
        (4, noise.n_directions)))
    fw = FWConfig(rho=0.18, eta=0.9, target_exponent=0.5, increment_threshold=0.01,
                  dyadic_depth=1, eps_grid=(eps,), n_samples=n)
    runs = {
        "ensemble_run": lambda c: solvers.ensemble_run(
            cfg, seed, n, lambda: TrajectoryObserver(cfg), chunk=c),
        "deviation_energy_samples": lambda c: deviation_energy_samples(
            cfg, eps, u0, n, seed, chunk=c),
        "mc_probability": lambda c: mc_probability(
            lambda tr: tr.h2[-1] > u0.h2[-1], eps, n, cfg, seed, chunk=c).to_dict(),
        "fw_conditional_probe": lambda c: fw_conditional_probe(
            h, fw, cfg, seed, chunk=c).to_dict(),
        "shifted_ensemble_run": lambda c: shifted_ensemble_run(
            cfg, h, eps, u0, seed, n, lambda: _MomentObserver(cfg, [1.0, 2.0]), chunk=c),
        "first_order_remainder_samples": lambda c: first_order_remainder_samples(
            cfg, eps, u0, n, seed, chunk=c),
    }
    captured = []

    def spy(*args, **kwargs):
        captured.append(ensemble_run(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(solvers, "ensemble_run", spy)
    monkeypatch.setattr(deviation, "ensemble_run", spy)
    outputs = []
    for chunk in (1, 7, 256):
        captured.clear()
        result = runs[kind](chunk)
        assert captured
        if kind == "fw_conditional_probe":
            # per-path statistics only: no ensemble returns recorded frames
            assert all(v.ndim <= 2 for out in captured for v in out.values())
        outputs.append((result, list(captured)))
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


def _fast_path(cfg, seed, path):
    """Terminal frame of one ensemble path (scalar-speed helper)."""
    class Last:
        def on_start(self, prop, n, n_steps):
            pass

        def on_state(self, idx, t, coeffs):
            self.c = coeffs[0].copy()

        def finish(self):
            return {"c": self.c[None]}

    out = ensemble_run(
        cfg, seed=seed, n_paths=1, observer_factory=Last,
        normal_source=lambda i: substream(seed, path).standard_normal(
            (cfg.n_steps, cfg.noise.n_directions)
        ),
    )
    return out["c"][0]


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
        err = abs(x.frames[-1][1, iy, ix] - c)
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
        from snse_lab.deviation import energy_distance

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
            responses.append(energy_distance(x, x_base))
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
        assert frames.shape == control_axes + (cfg.n_steps + 1, 2, 7, 7)
        flat_h = h.reshape((-1,) + h.shape[-2:])
        flat_frames = frames.reshape((-1,) + frames.shape[-4:])
        for hv, got in zip(flat_h, flat_frames):
            assert np.array_equal(got, helpers.skeleton_forward_per_step(hv, u0, cfg))

    def test_grid_mismatch_rejected(self, grid1, noise1):
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.5, dt=1e-3,
                        nonlinear=False, record_stride=5)
        u0_coarse = solve_deterministic(cfg)  # not stride 1
        from snse_lab.solvers import GridMismatchError

        with pytest.raises(GridMismatchError):
            solve_skeleton(zero_control(noise1, 0.5, 10), u0_coarse, cfg)


class TestShiftedProcess:
    def test_degenerate_zero(self, grid1, noise1):
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.25, dt=1e-3,
                        nonlinear=False, record_stride=1)
        u0 = solve_deterministic(cfg)
        h = zero_control(noise1, 0.25, 10)
        z = solve_tilde_z(h, u0, u0, 1e-4, None, cfg)
        assert np.max(np.abs(z.frames)) == 0.0

    def test_epsilon_domain(self, grid1, noise1):
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.25, dt=1e-3,
                        nonlinear=False, record_stride=1)
        u0 = solve_deterministic(cfg)
        h = zero_control(noise1, 0.25, 10)
        with pytest.raises(ParameterError):
            solve_tilde_z(h, u0, u0, 0.5, 1, cfg)  # above exp(-e)
        with pytest.raises(ParameterError):
            loglog(0.0)

    def test_girsanov_shift_structure(self, grid1, noise1, rng):
        # additive linear regime: the controlled shifted process equals the
        # uncontrolled one plus the steered path, pathwise
        eps = 1e-4
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.25, dt=1e-3,
                        nonlinear=False, record_stride=1)
        u0 = solve_deterministic(cfg)
        ue = solve_snse(cfg.with_epsilon(eps), seed=31)
        hv = 0.7 * rng.standard_normal((5, 2))
        h = Control(noise1, 0.25, hv)
        z_h = solve_tilde_z(h, ue, u0, eps, 13, cfg)
        z_0 = solve_tilde_z(zero_control(noise1, 0.25, 5), ue, u0, eps, 13, cfg)
        x = solve_skeleton(h, u0, cfg)
        dev = np.max(np.abs(z_h.frames - z_0.frames - x.frames))
        assert dev <= 1e-12 * max(np.max(np.abs(z_h.frames)), 1.0)

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
        eps = 1e-3
        u0 = solve_deterministic(cfg)
        ue = solve_snse(cfg.with_epsilon(eps), seed=5)
        h = Control(noise, cfg.horizon, np.random.default_rng(4).standard_normal(
            (4, noise.n_directions)))
        z = solve_tilde_z(h, ue, u0, eps, 9, cfg)
        dW = substream(9, 0).standard_normal((cfg.n_steps, noise.n_directions))
        dW = dW * np.sqrt(noise.eigenvalues * cfg.dt)
        h_values = h.value_at(np.arange(cfg.n_steps) * cfg.dt)
        oracle = helpers.tilde_z_per_step(h_values, ue.frames, u0.frames, eps, dW, cfg)
        assert np.array_equal(z.frames, oracle)

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
        shifted_ensemble_run(
            cfg, h, 1e-3, u0, seed=2, n_paths=9,
            observer_factory=lambda: _MomentObserver(cfg, [1.0]),
        )
        # the stepper takes the noisy path's factor once per step, the observer
        # the recentred state's; the control is scattered once for all steps
        assert calls["sigma_factor"] == {"_integrate_batch": 20, "on_noise": 20}
        assert calls["scatter_coefficients"] == {
            "_integrate_batch": 1, "_control_fields": 1, "on_noise": 20,
        }

    def test_moment_stability_across_epsilon(self, grid1, noise1):
        # second moments finite and stable within a factor two across levels
        from snse_lab.solvers import shifted_ensemble_run
        from snse_lab.deviation import _MomentObserver

        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.25, dt=1e-3,
                        nonlinear=False, record_stride=1)
        u0 = solve_deterministic(cfg)
        h = zero_control(noise1, 0.25, 10)
        means = []
        for eps in (1e-3, 1e-4, 1e-5):
            out = shifted_ensemble_run(
                cfg, h, eps, u0, seed=41, n_paths=300,
                observer_factory=lambda: _MomentObserver(cfg, [1.0]),
            )
            means.append(float(np.mean(out["sup_h2"] + out["int_v2"])))
        assert max(means) <= 2.0 * min(means)


class TestTrajectoryCombinators:
    def test_combination_matches_manual(self, linear_config):
        a = solve_snse(linear_config.with_epsilon(1e-3), seed=1)
        b = solve_deterministic(linear_config)
        diff = combine_trajectories(a, b, 1.0, -1.0)
        np.testing.assert_allclose(diff.frames, a.frames - b.frames, atol=1e-16)
        assert diff.sup_h2 >= 0

    @pytest.mark.parametrize("kind", _ENSEMBLE_KINDS)
    def test_ensemble_chunking_invariance(self, noise3, kind, monkeypatch):
        # every per-path output of every ensemble an entry point runs is
        # identical whatever the chunk size
        _check_chunking_invariance(noise3, kind, 20, monkeypatch)

    @pytest.mark.parametrize("kind", _ENSEMBLE_KINDS)
    def test_ensemble_chunking_invariance_state_dependent(self, grid3, kind, monkeypatch):
        # the saturated family takes its factor per step from the state; the
        # 40 steps split into noise blocks of 28 steps (chunk 256: 9 paths),
        # 36 and 128 (chunk 7: 7 and 2 paths) and 256 (chunk 1)
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
        ours = first_order_remainder_samples(cfg, eps, u0, 9, seed=5)
        assert calls["sigma_factor"] == {"on_start": 1}
        oracle = ensemble_run(
            cfg.with_epsilon(eps), 5, 9,
            lambda: helpers.RemainderObserverPerStep(cfg.with_epsilon(eps), u0.frames),
        )["sup"]
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
