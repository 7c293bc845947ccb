"""Rate functional, thresholds, Monte Carlo estimators, moment suite."""

import math
import tracemalloc

import numpy as np
import pytest

from snse_lab import solvers
from snse_lab.deviation import (
    ASpec,
    AdmissibilityError,
    ConstantsLedger,
    FWConfig,
    OptParams,
    fw_conditional_probe,
    max_energy_response,
    mdp_scaling_probe,
    moment_bound_suite,
    rate_function,
    rate_gradient_check,
    wilson_interval,
    _adjoint_sweep,
)
from snse_lab.lil import z_process
from snse_lab.noise import Control, NoiseModel, control_energy, zero_control
from snse_lab.rng import substream
from snse_lab.solvers import (
    LOGLOG_LIMIT,
    SimConfig,
    TrajectoryObserver,
    ensemble_run,
    skeleton_forward,
    solve_deterministic,
    solve_skeleton,
)
from snse_lab.spectral import (
    TWO_PI,
    default_grid,
    full_spectrum,
    half_spectrum,
    random_solenoidal_field,
    single_mode_field,
    taylor_green,
    to_scalar,
)

import helpers
from helpers import (
    dyadic_increment_stat,
    energy_norm,
    mc_probability,
    trajectories_from_ensemble,
)


class TestThresholds:
    def test_hand_values(self):
        led = ConstantsLedger()
        e0, e1, e2 = led.epsilon0, led.epsilon1, led.epsilon2(1.0)
        assert e0 == 1.0 / 78.0
        assert e1 == 1.0 / 36.0
        assert e2 == 1.0 / 38.0

    def test_against_independent_arithmetic(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            K1, K2, K9 = 10.0 ** rng.uniform(-2, 2, size=3)
            p = float(rng.uniform(1.0, 5.0))
            led = ConstantsLedger(K1=K1, K2=K2, K9=K9)
            e0_oracle = min(
                1.0 / (2.0 * K1 * K1), 1.0 / (4.0 * K1), 1.0 / (2.0 * K2),
                1.0 / (78.0 * K9),
            )
            e1_oracle = min(
                1.0 / (2.0 * K1 * K1), 1.0 / (4.0 * K1), 1.0 / (2.0 * K2),
                1.0 / (36.0 * K9),
            )
            e2_oracle = min(e1_oracle, 1.0 / (K9 * (36.0 * p + 2.0)))
            e0, e1, e2 = led.epsilon0, led.epsilon1, led.epsilon2(p)
            assert e0 == e0_oracle and e1 == e1_oracle and e2 == e2_oracle

    def test_monotone_in_constants(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            K1, K2, K9 = 10.0 ** rng.uniform(-1, 1, size=3)
            a = ConstantsLedger(K1=K1, K2=K2, K9=K9)
            b = ConstantsLedger(K1=2 * K1, K2=2 * K2, K9=2 * K9)
            assert b.epsilon0 <= a.epsilon0 / 2.0 + 1e-300
            assert b.epsilon1 <= a.epsilon1
            assert b.epsilon2(2.0) <= a.epsilon2(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(AdmissibilityError):
            ConstantsLedger(K1=-1.0)
        with pytest.raises(AdmissibilityError):
            ConstantsLedger().epsilon2(0.5)

    # one row per bound, each on a ledger where it is the smallest: eps0 under
    # the default constants, exp(-e) under small ones, eps2(3) = 1/110 below
    # eps0 = 1/78, and 2/(1 + 2p) at p = 20 below exp(-e) and eps2(20)
    @pytest.mark.parametrize("ledger, p_list, bound", [
        (ConstantsLedger(), (), 1.0 / 78.0),
        (ConstantsLedger(K1=0.05, K2=0.05, K9=0.05), (), LOGLOG_LIMIT),
        (ConstantsLedger(), (1.0, 3.0), 1.0 / 110.0),
        (ConstantsLedger(K1=1e-3, K2=1e-3, K9=1e-3), (1.0, 20.0), 2.0 / 41.0),
    ], ids=["eps0", "loglog", "eps2", "2p-moment"])
    def test_require_rejects_at_each_bound(self, ledger, p_list, bound):
        with pytest.raises(AdmissibilityError):
            ledger.require([1e-6, bound], p_list)
        ledger.require([1e-6, math.nextafter(bound, 0.0)], p_list)


class TestEnergyNorm:
    def test_zero_trajectory(self, grid1, noise1):
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.1, dt=1e-3,
                        nonlinear=False, record_stride=10)
        traj = solve_deterministic(cfg)
        assert energy_norm(traj) == 0.0

    def test_constant_trajectory_analytic(self, grid1, noise1):
        # T = 0 run holds only the initial state: norm reduces to |u(0)|
        u0 = single_mode_field(grid1, (1, 0), (0.0, 2.0))
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.0, dt=1e-3, initial=u0)
        traj = solve_deterministic(cfg)
        assert abs(energy_norm(traj) ** 2 - traj.h2[0]) <= 1e-14 * traj.h2[0]

    def test_decay_matches_geometric_closed_form(self, linear_config):
        traj = solve_deterministic(linear_config)
        h2_0 = float(traj.h2[0])
        dt_rec = linear_config.dt * linear_config.record_stride
        oracle = h2_0 + helpers.decay_energy_left_sum(
            h2_0, 1.0, linear_config.horizon, dt_rec
        )
        ours = energy_norm(traj) ** 2
        assert abs(ours - oracle) <= 1e-10 * oracle
        # and the closed-form left sum sits within O(dt_rec) of the integral
        exact = h2_0 + h2_0 * (1 - math.exp(-2 * linear_config.horizon)) / 2.0
        assert abs(ours - exact) <= 2.0 * dt_rec * h2_0


@pytest.fixture(scope="module")
def setup():
    g = default_grid(1)
    m = NoiseModel(grid=g, num_directions=4)
    cfg = SimConfig(grid=g, noise=m, horizon=0.25, dt=2e-3,
                    nonlinear=False, record_stride=1)
    u0 = solve_deterministic(cfg)
    return g, m, cfg, u0


class TestRateFunction:

    def test_adjoint_gradient(self, setup):
        g, m, cfg, u0 = setup
        rng = substream(2, 0)
        h = Control(m, cfg.horizon, 0.4 * rng.standard_normal((cfg.n_steps, 4)))
        target = solve_skeleton(h, u0, cfg)
        err = rate_gradient_check(target, u0, cfg, n_directions=20, seed=3)
        assert err <= 1e-4

    def test_gradient_with_advective_coupling(self, grid3, noise3, rng):
        # nonzero deterministic limit exercises the linearization's adjoint
        cfg = SimConfig(
            grid=grid3, noise=noise3, horizon=0.04, dt=2e-3,
            initial=single_mode_field(grid3, (1, 1), (0.5, -0.5)),
            nonlinear=True, record_stride=1,
        )
        u0 = solve_deterministic(cfg)
        h = Control(noise3, cfg.horizon,
                    0.3 * rng.standard_normal((cfg.n_steps, noise3.n_directions)))
        target = solve_skeleton(h, u0, cfg)
        err = rate_gradient_check(target, u0, cfg, n_directions=10, seed=4)
        assert err <= 1e-4

    @pytest.mark.parametrize("family", ["additive", "saturated"])
    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_adjoint_sweep_matches_per_step_oracle(self, grid3, family, nonlinear):
        # the noise adjoint applied to all steps after the loop gives the
        # gradient of the per-step loop bit for bit
        m = NoiseModel(grid=grid3, family=family, num_directions=7)
        rng = np.random.default_rng(12)
        cfg = SimConfig(grid=grid3, noise=m, horizon=0.013, dt=1e-3,
                        initial=random_solenoidal_field(grid3, rng, amplitude=0.5),
                        nonlinear=nonlinear, record_stride=1)
        u0 = solve_deterministic(cfg).frames
        x = skeleton_forward(rng.standard_normal((cfg.n_steps, 7)), u0, cfg)
        sources = rng.standard_normal(x[:-1].shape) * x[:-1]
        grad = _adjoint_sweep(cfg, u0, x[-1], sources)
        assert grad.shape == (cfg.n_steps, 7)
        assert np.array_equal(grad, helpers.adjoint_sweep_per_step(cfg, u0, x[-1], sources))

    @pytest.mark.parametrize("family", ["additive", "saturated"])
    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_adjoint_sweep_is_adjoint_of_skeleton_forward(self, grid3, family, nonlinear):
        # dot test: sum_n,j grad h equals <p_end, x_N> + sum_n <sources[n], x_n>
        # in the L2 pairing (2 pi)^2 Re sum conj(a) b over the whole square,
        # for any conjugate-symmetric scalars p_end and sources, around a u0
        # that couples
        m = NoiseModel(grid=grid3, family=family, num_directions=7)
        rng = np.random.default_rng(12)
        cfg = SimConfig(grid=grid3, noise=m, horizon=0.02, dt=1e-3,
                        initial=random_solenoidal_field(grid3, rng, amplitude=2.0),
                        nonlinear=nonlinear, record_stride=1)
        u0 = solve_deterministic(cfg).frames
        h = rng.standard_normal((cfg.n_steps, 7))
        x = skeleton_forward(h, u0, cfg)
        fields = helpers.symmetric_batch(grid3, rng, cfg.n_steps + 1, components=())
        p_end, sources = fields[-1], fields[:-1]
        grad = _adjoint_sweep(cfg, u0, half_spectrum(p_end), half_spectrum(sources))
        x = full_spectrum(x)
        paired = TWO_PI**2 * (np.vdot(p_end, x[-1]).real + np.vdot(sources, x[:-1]).real)
        assert abs(np.sum(grad * h) - paired) <= 1e-12 * abs(paired)

    def test_zero_target_zero_rate(self, setup):
        g, m, cfg, u0 = setup
        target = solve_skeleton(zero_control(m, cfg.horizon, 5), u0, cfg)
        res = rate_function(target, u0, cfg)
        assert res.value == 0.0
        assert res.feasible
        assert np.all(res.control.values == 0.0)

    def test_reachable_target_matches_least_norm_oracle(self, setup):
        # the forward map is mode-wise lower triangular and invertible, so the
        # generating control is the unique (hence least-norm) preimage
        g, m, cfg, u0 = setup
        rng = substream(5, 0)
        h_true = Control(m, cfg.horizon, 0.3 * rng.standard_normal((cfg.n_steps, 4)))
        target = solve_skeleton(h_true, u0, cfg)
        truth = 0.5 * control_energy(h_true)
        res = rate_function(
            target, u0, cfg,
            OptParams(feasibility_tol=1e-6, penalty_max=1e12, maxiter=600),
        )
        assert res.feasible
        assert abs(res.value - truth) <= 1e-3 * truth
        # optimizer-simulator consistency: re-solving with the returned
        # control reproduces the reported residual
        x = solve_skeleton(res.control, u0, cfg)
        re_resid = helpers.energy_distance(x, target)
        assert abs(re_resid - res.residual) <= 1e-10

    def test_unreachable_target_flagged_infeasible(self, setup):
        g, m, cfg, u0 = setup
        # target excites the pair the noise map cannot reach (zero gain there)
        from snse_lab.noise import SigmaParams

        m0 = NoiseModel(grid=g, num_directions=2,
                        params=SigmaParams(amplitude=1.0))
        cfg0 = SimConfig(grid=g, noise=m0, horizon=0.25, dt=2e-3,
                         nonlinear=False, record_stride=1)
        u0_0 = solve_deterministic(cfg0)
        target_mode = single_mode_field(g, (0, 1), (1.0, 0.0))
        frames = np.repeat(to_scalar(g, target_mode.coeffs)[None], cfg0.n_steps + 1, axis=0)
        target = helpers.derived_trajectory(
            g, cfg0.dt * np.arange(cfg0.n_steps + 1), frames, cfg0.dt, 1
        )
        res = rate_function(target, u0_0, cfg0,
                            OptParams(penalty_max=1e6, maxiter=100))
        assert not res.feasible
        assert res.value == math.inf
        assert res.residual > 0.1

    def test_penalty_monotone_in_tolerance(self, setup):
        g, m, cfg, u0 = setup
        rng = substream(6, 0)
        h_true = Control(m, cfg.horizon, 0.3 * rng.standard_normal((cfg.n_steps, 4)))
        target = solve_skeleton(h_true, u0, cfg)
        values = []
        for tol in (1e-1, 1e-3, 1e-5):
            res = rate_function(target, u0, cfg,
                                OptParams(feasibility_tol=tol, penalty_max=1e12))
            assert res.feasible
            values.append(res.value)
        assert values[0] <= values[1] + 1e-12 <= values[2] + 2e-12

    @pytest.mark.parametrize("n_iter", [1, 2, 5])
    def test_max_energy_response_returns_the_measured_direction(self, n_iter):
        # the value is the trajectory-norm response of the returned unit
        # direction, not of the ascent direction one step past it (at K=2
        # and full J the two still differ by 1e-5 relative after 5 steps)
        g = default_grid(2)
        m = NoiseModel(grid=g)
        cfg = SimConfig(grid=g, noise=m, horizon=0.25, dt=2e-3, nonlinear=False)
        u0 = solve_deterministic(cfg)
        value, h = max_energy_response(u0, cfg, n_iter=n_iter, seed=1)
        a2 = np.abs(full_spectrum(skeleton_forward(h, u0.frames, cfg))) ** 2
        x = TWO_PI**2 * np.sum(a2, axis=(1, 2))
        v = TWO_PI**2 * np.sum(g.k2 * a2, axis=(1, 2))
        assert value == pytest.approx(np.max(x) + cfg.dt * np.sum(v[:-1]), rel=1e-12)
        assert np.sum(h**2 * cfg.dt / m.eigenvalues) == pytest.approx(1.0, rel=1e-12)

    def test_max_energy_response_dominates_samples(self, setup):
        g, m, cfg, u0 = setup
        sigma2, h_star = max_energy_response(u0, cfg, n_iter=40, seed=1)
        assert sigma2 > 0
        rng = substream(7, 0)
        w_diag = cfg.dt / m.eigenvalues
        for _ in range(10):
            h = rng.standard_normal((cfg.n_steps, 4))
            h /= math.sqrt(float(np.sum(h**2 * w_diag)))
            x = solve_skeleton(Control(m, cfg.horizon, h), u0, cfg)
            val = energy_norm(x) ** 2
            # recorded-grid norm can only under-report the optimizer's value
            assert val <= sigma2 * 1.05


class TestMCProbability:
    def test_always_true(self, linear_config):
        est = mc_probability(lambda t: True, 1e-3, 50, linear_config, seed=1)
        assert est.p_hat == 1.0 and est.lo > 0.9

    def test_gaussian_tail_oracle(self, grid1, noise1):
        # event on the terminal modulus of the noise-driven mode: the modulus
        # is Rayleigh, so the exceedance probability is exp(-r^2 / (2 var))
        eps, dt, T = 1e-2, 1e-3, 0.25
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=T, dt=dt, epsilon=eps,
                        nonlinear=False, record_stride=10**9)
        A = math.sqrt(2.0) / TWO_PI
        lam = noise1.eigenvalues[0]
        noise_rms = math.sqrt(eps) * (A / 2.0) * math.sqrt(lam * dt)
        _, var = helpers.ou_discrete_moments(1.0, dt, round(T / dt), 0.0, noise_rms)
        r = math.sqrt(2.0 * var * math.log(1.0 / 0.2))  # oracle p = 0.2
        iy, ix = 1, 2

        def event(traj):
            return abs(traj.field_at(-1).coeffs[1, iy, ix]) >= r

        n = 4000
        est = mc_probability(event, eps, n, cfg, seed=11)
        p_oracle = 0.2
        se = math.sqrt(p_oracle * (1 - p_oracle) / n)
        assert abs(est.p_hat - p_oracle) <= 3.0 * se

    def test_nesting_on_common_random_numbers(self, linear_config):
        def make_event(r):
            return lambda traj: traj.sup_h2 >= r

        e1 = mc_probability(make_event(1.0), 1e-3, 300, linear_config, seed=5)
        e2 = mc_probability(make_event(0.5), 1e-3, 300, linear_config, seed=5)
        assert e1.p_hat <= e2.p_hat

    def test_zero_hit_upper_bound(self, linear_config):
        est = mc_probability(lambda t: False, 1e-3, 200, linear_config, seed=6)
        assert est.p_hat == 0.0
        assert est.zero_hit
        assert 0.0 < est.upper_bound < 1.0
        assert math.isfinite(est.log_p_or_bound())
        assert abs(est.upper_bound - (1.0 - 0.05 ** (1.0 / 200))) < 1e-15

    def test_wilson_interval_against_oracle(self):
        for hits, n in ((0, 10), (3, 10), (50, 100), (999, 1000)):
            lo, hi = wilson_interval(hits, n)
            olo, ohi = helpers.wilson_oracle(hits, n)
            assert abs(lo - max(olo, 0.0)) < 1e-12
            assert abs(hi - min(ohi, 1.0)) < 1e-12
            assert 0.0 <= lo <= hi <= 1.0

    def test_wilson_coverage_calibration(self, grid1, noise1):
        # repeated small-sample estimates of a known probability: the nominal
        # 95% interval must cover the oracle in at least 95% of runs
        eps, dt, T = 1e-2, 2e-3, 0.1
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=T, dt=dt, epsilon=eps,
                        nonlinear=False, record_stride=10**9)
        A = math.sqrt(2.0) / TWO_PI
        noise_rms = math.sqrt(eps) * (A / 2.0) * math.sqrt(noise1.eigenvalues[0] * dt)
        _, var = helpers.ou_discrete_moments(1.0, dt, round(T / dt), 0.0, noise_rms)
        p_oracle = 0.3
        r = math.sqrt(2.0 * var * math.log(1.0 / p_oracle))

        def event(traj):
            return abs(traj.field_at(-1).coeffs[1, 1, 2]) >= r

        covered = 0
        runs = 120
        for k in range(runs):
            est = mc_probability(event, eps, 150, cfg, seed=1000 + k)
            covered += int(est.lo <= p_oracle <= est.hi)
        assert covered / runs >= 0.95


class TestDyadicStat:
    def test_constant_trajectory(self, grid1, noise1):
        u0 = single_mode_field(grid1, (1, 0), (0.0, 1.0))
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.0, dt=1e-3, initial=u0)
        traj = solve_deterministic(cfg)
        with pytest.raises(ValueError):
            dyadic_increment_stat(traj, 0)  # single record: no increments

    def test_depth_zero_vs_initial_anchor(self, linear_config):
        traj = solve_deterministic(linear_config)
        stat = dyadic_increment_stat(traj, 0)
        d0 = traj.frames - traj.frames[0]
        manual = helpers.derived_trajectory(traj.grid, traj.times, d0, traj.dt, traj.record_stride)
        assert abs(stat - energy_norm(manual)) <= 1e-12 * max(stat, 1e-12)

    def test_decay_closed_form(self, linear_config):
        traj = solve_deterministic(linear_config)
        # single decaying mode: D(t) = c0 (e^(-t) - e^(-t_i)) per dyadic cell
        c0_h2 = float(traj.h2[0])
        T = linear_config.horizon
        depth = 2
        times = traj.times
        cells = 2**depth
        anchors = np.minimum((times / (T / cells)).astype(int), cells - 1) * (T / cells)
        fac = np.exp(-times) - np.exp(-anchors)
        h2 = c0_h2 * fac**2
        v2 = h2  # |k| = 1
        oracle = math.sqrt(np.max(h2) + np.sum(v2[:-1] * np.diff(times)))
        ours = dyadic_increment_stat(traj, depth)
        assert abs(ours - oracle) <= 1e-6 * max(oracle, 1e-12)

    def test_monotone_in_depth_on_decay(self, linear_config):
        traj = solve_deterministic(linear_config)
        stats = [dyadic_increment_stat(traj, n) for n in range(0, 3)]
        assert stats[0] >= stats[1] - 1e-9 >= stats[2] - 2e-9

    def test_rejects_incompatible_depth(self, linear_config):
        traj = solve_deterministic(linear_config)  # 20 recorded cells
        with pytest.raises(ValueError):
            dyadic_increment_stat(traj, 6)  # 64 cells > 20 steps


class TestScalingProbe:
    def test_radius_zero_full_probability(self, linear_config):
        led = ConstantsLedger()
        rep = mdp_scaling_probe(0.0, [1e-3, 1e-4], ASpec("lil"), linear_config,
                                50, seed=2, ledger=led)
        for row in rep.rows:
            assert row["p_hat"] == 1.0
            assert row["a2_log_p"] == 0.0

    def test_admissibility_enforced(self, linear_config):
        led = ConstantsLedger(K9=100.0)  # epsilon0 about 1.3e-4
        with pytest.raises(AdmissibilityError):
            mdp_scaling_probe(1.0, [1e-3], ASpec("lil"), linear_config, 10,
                              seed=2, ledger=led)

    def test_default_ledger_enforced(self, linear_config):
        # 0.05 lies below exp(-e) but above the default eps0 = 1/78
        with pytest.raises(AdmissibilityError):
            mdp_scaling_probe(1.0, [0.05], ASpec("lil"), linear_config, 10, seed=2)

    def test_power_a_spec_validation(self):
        with pytest.raises(ValueError):
            ASpec("power", theta=0.7)
        a = ASpec("power", theta=0.25)
        assert a.value(1e-4) == 1e-1

    def test_threshold_monotone_on_common_numbers(self, linear_config):
        led = ConstantsLedger()
        rows = {}
        for r in (0.5, 1.0):
            rep = mdp_scaling_probe(r, [1e-4], ASpec("lil"), linear_config,
                                    400, seed=3, ledger=led)
            rows[r] = rep.rows[0]["p_hat"]
        assert rows[1.0] <= rows[0.5]


class TestConditionalProbe:
    def test_huge_rho_zero_hits_below_bound(self, linear_config, noise1):
        fw = FWConfig(rho=100.0, eta=1e6, target_exponent=0.2,
                      increment_threshold=50.0, dyadic_depth=2,
                      eps_grid=(1e-4, 1e-3), n_samples=100)
        h = zero_control(noise1, linear_config.horizon, 10)
        rep = fw_conditional_probe(h, fw, linear_config, seed=4)
        for row in rep.rows:
            assert row["p_hat"] == 0.0
            assert row["zero_hit"]
            assert math.isfinite(math.log(row["upper_bound"]))
        assert rep.below_bound_at_smallest

    def test_default_ledger_enforced(self, linear_config, noise1):
        # 0.05 lies below exp(-e) but above the default eps0 = 1/78
        fw = FWConfig(rho=1.0, eta=1.0, target_exponent=0.5, increment_threshold=1.0,
                      dyadic_depth=2, eps_grid=(0.05,), n_samples=4)
        h = zero_control(noise1, linear_config.horizon, 10)
        with pytest.raises(AdmissibilityError):
            fw_conditional_probe(h, fw, linear_config, seed=0)

    def test_joint_probability_against_oversampled_oracle(self, linear_config, noise1):
        # additive linear regime: a second run of the same estimator at 10x
        # the samples (independent streams) serves as the dense oracle
        fw_small = FWConfig(rho=0.3, eta=1.5, target_exponent=0.2,
                            increment_threshold=50.0, dyadic_depth=2,
                            eps_grid=(1e-4,), n_samples=300)
        fw_big = FWConfig(rho=0.3, eta=1.5, target_exponent=0.2,
                          increment_threshold=50.0, dyadic_depth=2,
                          eps_grid=(1e-4,), n_samples=3000)
        h = zero_control(noise1, linear_config.horizon, 10)
        small = fw_conditional_probe(h, fw_small, linear_config, seed=21).rows[0]
        big = fw_conditional_probe(h, fw_big, linear_config, seed=4422).rows[0]
        se = math.sqrt(
            small["p_hat"] * (1 - small["p_hat"]) / 300
            + big["p_hat"] * (1 - big["p_hat"]) / 3000
        )
        assert abs(small["p_hat"] - big["p_hat"]) <= 3.0 * se + 1e-12

    def test_vacuous_conditioning_matches_plain_probability(self, linear_config, noise1):
        # h = 0 and huge eta: the joint event reduces to the deviation event
        eps = 1e-4
        rho = 0.35
        fw = FWConfig(rho=rho, eta=1e9, target_exponent=0.2,
                      increment_threshold=50.0, dyadic_depth=2,
                      eps_grid=(eps,), n_samples=400)
        h = zero_control(noise1, linear_config.horizon, 10)
        rep = fw_conditional_probe(h, fw, linear_config, seed=9)
        ll = math.log(math.log(1.0 / eps))
        scale = 1.0 / math.sqrt(2.0 * eps * ll)
        u0 = solve_deterministic(linear_config)

        def event(traj):
            z = helpers.combine_trajectories(traj, u0, scale, -scale)
            return energy_norm(z) > rho

        est = mc_probability(event, eps, 400, linear_config, seed=9)
        assert abs(rep.rows[0]["p_hat"] - est.p_hat) <= 1e-12

    def test_streamed_increment_statistic_matches_reference(self):
        # the observer's running-anchor statistic against dyadic_increment_stat
        # of z_process on the same paths (nonlinear, stride > 1)
        g = default_grid(2)
        m = NoiseModel(grid=g, num_directions=3)
        cfg = SimConfig(grid=g, noise=m, horizon=0.04, dt=1e-3,
                        initial=random_solenoidal_field(g, np.random.default_rng(5), amplitude=0.5),
                        nonlinear=True, record_stride=5)
        eps, seed, n, depth = 1e-2, 6, 8, 2
        u0_rec = solve_deterministic(cfg)
        out = ensemble_run(cfg.with_epsilon(eps), seed, n, lambda: TrajectoryObserver(cfg))
        stats = np.array([
            dyadic_increment_stat(z_process(u, u0_rec, eps), depth)
            for u in trajectories_from_ensemble(out, cfg, seed)
        ])
        threshold = float(np.median(stats))
        fw = FWConfig(rho=1.0, eta=1.0, target_exponent=0.5, increment_threshold=threshold,
                      dyadic_depth=depth, eps_grid=(eps,), n_samples=n)
        h = zero_control(m, cfg.horizon, 4)
        row = fw_conditional_probe(h, fw, cfg, seed).rows[0]
        assert 0.0 < row["increment_p_hat"] < 1.0
        assert row["increment_p_hat"] == np.sum(stats > threshold) / n

    def test_fw_k10_peak_traced_allocation(self):
        # the fw-k10 benchmark's shape: K=10, 16 steps, 256 paths at each of
        # two epsilons, dyadic depth 2, stepped in chunks of 32 paths, both
        # epsilons from one draw: 2.45 MB peak traced allocation on numpy 2.4
        # (2,447,463 to 2,447,515 B), reached in a self-advection.  Over one
        # ensemble per epsilon (2.07 MB) the grid holds a second chunk state
        # and a second observer, whose anchor frame and noise sum are as large
        # as a state (0.12 MB each), and holds a block's increments until
        # both epsilons have stepped it.  2.55 MB with two-component states,
        # 4.65 MB in chunks of 64 paths with the advection formed before the
        # noise, 12.78 MB in chunks of 256; pinned with 5% margin
        g = default_grid(10)
        cfg = SimConfig(grid=g, noise=NoiseModel(grid=g), horizon=16e-3, dt=1e-3,
                        epsilon=1e-3, initial=taylor_green(g), nonlinear=True,
                        record_stride=1)
        fw = FWConfig(rho=0.15, eta=10.0, target_exponent=0.5, increment_threshold=0.085,
                      dyadic_depth=2, eps_grid=(1e-4, 1e-3), n_samples=256)
        h = zero_control(cfg.noise, cfg.horizon, cfg.n_steps)
        fw_conditional_probe(h, fw, cfg, seed=1)  # caches and FFT plans outside the trace
        tracemalloc.start()
        try:
            fw_conditional_probe(h, fw, cfg, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 2_447_520

    def test_fw_grid_peak_traced_allocation_independent_of_paths(self):
        # a K=10 two-epsilon grid holds one chunk state and one observer per
        # epsilon, not per path: its traced peak at 1024 paths, 32 chunks,
        # is within 5% of that at 256, where only the per-path outputs grow
        g = default_grid(10)
        cfg = SimConfig(grid=g, noise=NoiseModel(grid=g), horizon=8e-3, dt=1e-3,
                        epsilon=1e-3, initial=taylor_green(g), nonlinear=True,
                        record_stride=1)
        h = zero_control(cfg.noise, cfg.horizon, cfg.n_steps)

        def peak(n):
            fw = FWConfig(rho=0.15, eta=10.0, target_exponent=0.5, increment_threshold=0.085,
                          dyadic_depth=2, eps_grid=(1e-4, 1e-3), n_samples=n)
            fw_conditional_probe(h, fw, cfg, seed=1)  # caches and FFT plans outside the trace
            tracemalloc.start()
            try:
                fw_conditional_probe(h, fw, cfg, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(256), peak(1024)
        assert abs(large - small) <= 0.05 * small

    def test_incompatible_dyadic_depth_fails_before_integrating(self, linear_config, noise1,
                                                                monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("ensemble_run called")

        monkeypatch.setattr(solvers, "ensemble_run", no_run)
        # more cells than recorded steps, then a cell count that does not divide them
        for depth in (12, 3):
            fw = FWConfig(rho=1.0, eta=1.0, target_exponent=0.5, increment_threshold=1.0,
                          dyadic_depth=depth, eps_grid=(1e-3,), n_samples=4)
            h = zero_control(noise1, linear_config.horizon, 10)
            with pytest.raises(ValueError, match="dyadic depth"):
                fw_conditional_probe(h, fw, linear_config, seed=0)


@pytest.fixture(scope="module")
def small_cfg():
    g = default_grid(1)
    m = NoiseModel(grid=g, num_directions=2)
    return SimConfig(grid=g, noise=m, horizon=0.1, dt=1e-3,
                     nonlinear=False, record_stride=1)


class TestMomentSuite:

    def test_admissibility(self, small_cfg):
        with pytest.raises(AdmissibilityError):
            moment_bound_suite([0.5], [1.0], 100, small_cfg, seed=1)

    def test_p1_reduces_bit_for_bit(self, small_cfg):
        rep = moment_bound_suite([1e-3], [1.0, 2.0], 50, small_cfg, seed=2)
        base = [r for r in rep.rows
                if r["section"] == "shifted_sup_sq_plus_int"][0]
        p1 = [r for r in rep.rows
              if r["section"] == "shifted_moment_2p" and r["p"] == 1.0][0]
        assert base["mean"] == p1["mean"] and base["se"] == p1["se"]

    def test_one_fit_per_order_of_each_2p_section(self, small_cfg):
        # each order is fitted on its own means; order 1's means are those of
        # the section's sup-plus-integral row, so its exponent is the same
        rep = moment_bound_suite([1e-4, 1e-3], [1.0, 1.5, 3.0], 20, small_cfg, seed=8)
        for section, base in (("state_moment_2p", "state_sup_sq_plus_int"),
                              ("shifted_moment_2p", "shifted_sup_sq_plus_int")):
            assert {k for k in rep.fits if k.startswith(section)} == {
                f"{section}[p=1]", f"{section}[p=1.5]", f"{section}[p=3]"}
            got = rep.fits[f"{section}[p=1]"]["fitted_exponent"]
            assert got == rep.fits[base]["fitted_exponent"]

    def test_noise_driven_exponents(self, small_cfg):
        # zero initial state and forcing: second moments scale linearly
        rep = moment_bound_suite([1e-3, 1e-4, 1e-5], [1.0], 60, small_cfg, seed=3)
        f = rep.fits
        assert abs(f["state_sup_sq_plus_int"]["fitted_exponent"] - 1.0) <= 0.05
        assert abs(f["grad_sup_plus_dissipation"]["fitted_exponent"] - 1.0) <= 0.05
        # the deviation functional also scales linearly; the stated power is
        # recorded as 2 and the measured exponent is reported as-is
        assert f["deviation_sup_sq_plus_int"]["stated_power"] == 2.0
        assert abs(f["deviation_sup_sq_plus_int"]["fitted_exponent"] - 1.0) <= 0.05

    def test_deterministic_quantities(self, grid1, noise1):
        cfg = SimConfig(grid=grid1, noise=noise1, horizon=0.1, dt=1e-3,
                        initial=single_mode_field(grid1, (1, 0), (0.0, 1.0)),
                        nonlinear=False, record_stride=1)
        rep = moment_bound_suite([1e-3], [1.0], 20, cfg, seed=4)
        det = rep.deterministic
        assert det["u0_sup_sq_plus_int"] > 0
        # interpolation chain: L4 integral below the sup-times-integral product
        assert det["u0_l4_integral"] <= det["u0_interpolation_product"]

    def test_remainder_vanishes_in_linear_additive_regime(self, small_cfg):
        rep = moment_bound_suite([1e-3], [1.0], 20, small_cfg, seed=5,
                                 with_remainder=True)
        rows = [r for r in rep.rows
                if r["section"] == "second_order_remainder_sup_sq"]
        assert rows and rows[0]["mean"] <= 1e-25

    def test_remainder_quadratic_in_nonlinear_regime(self):
        g = default_grid(2)
        m = NoiseModel(grid=g)
        cfg = SimConfig(grid=g, noise=m, horizon=0.05, dt=1e-3,
                        initial=single_mode_field(g, (1, 1), (0.5, -0.5)),
                        nonlinear=True, record_stride=1)
        rep = moment_bound_suite([1e-3, 1e-4], [1.0], 40, cfg, seed=6,
                                 with_remainder=True)
        fit = rep.fits["second_order_remainder_sup_sq"]
        assert abs(fit["fitted_exponent"] - 2.0) <= 0.2

    @pytest.mark.parametrize("family", ["additive", "saturated"])
    @pytest.mark.parametrize("with_remainder", [False, True])
    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_one_ensemble_per_epsilon_matches_separate_ensembles(
        self, grid3, monkeypatch, nonlinear, with_remainder, family
    ):
        # the state moments, the shifted fluctuation and the remainder observe
        # one noisy ensemble per epsilon, all stepped in one grid call from one
        # draw, with the values of one separate ensemble each
        noise = NoiseModel(grid=grid3, family=family)
        cfg = SimConfig(
            grid=grid3, noise=noise, horizon=0.02, dt=1e-3, nonlinear=nonlinear,
            initial=random_solenoidal_field(grid3, np.random.default_rng(3), amplitude=0.5),
            record_stride=5,
        )
        h = Control(noise, cfg.horizon, np.random.default_rng(4).standard_normal(
            (4, noise.n_directions)))
        args = ([1e-3, 1e-4], [2.0], 9, cfg, 7)
        expected = helpers.moment_rows_by_separate_ensembles(*args, h, with_remainder)
        grids = []

        def spy(config, seed, n_paths, factory, epsilons=None):
            grids.append(epsilons)
            return ensemble_run(config, seed, n_paths, factory, epsilons)

        monkeypatch.setattr(solvers, "ensemble_run", spy)
        rep = moment_bound_suite(*args, control=h, with_remainder=with_remainder)
        # one grid call steps both epsilons from one draw
        assert grids == [[1e-4, 1e-3]]
        assert rep.rows == expected
