"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.  The deviation-exponent criterion asserts the quadratic power
stated for the second moment of the deviation from the zero-noise limit; for
square-root-scaled nondegenerate noise that moment is linear in the noise
intensity (variance scaling), so the test is expected to fail and is marked
strict-xfail with the measured exponent printed; see the "deliberate,
documented red" passage of README.md.
"""

import json
import math
import os

import numpy as np
import pytest

from snse_lab.deviation import (
    ASpec,
    ConstantsLedger,
    FWConfig,
    OptParams,
    fw_conditional_probe,
    mdp_scaling_probe,
    moment_bound_suite,
    rate_function,
    rate_gradient_check,
)
from snse_lab.lil import (
    GeometricSchedule,
    build_probe,
    classical_ratio_study,
    limit_set_distance,
    z_process,
)
from snse_lab.noise import Control, NoiseModel, control_energy, zero_control
from snse_lab.rng import substream
from snse_lab.solvers import (
    SimConfig,
    ensemble_run,
    loglog,
    solve_deterministic,
    solve_skeleton,
    solve_snse,
)
from snse_lab.spectral import (
    TWO_PI,
    advection_form,
    advection_term,
    default_grid,
    divergence_defect,
    full_spectrum,
    random_solenoidal_field,
    single_mode_field,
)

import helpers

DESK_K = 10
DESK_DT = 1e-3
DESK_T = 1.0


def report_line(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def desk_grid():
    g = default_grid(DESK_K)
    assert g.physical_resolution == 32
    return g


@pytest.fixture(scope="module")
def single_mode_setup():
    """Single retained noise pair on the smallest grid, diagonal dynamics."""
    g = default_grid(1)
    m = NoiseModel(grid=g, num_directions=2)
    cfg = SimConfig(grid=g, noise=m, horizon=DESK_T, dt=DESK_DT,
                    nonlinear=False, record_stride=25)
    return g, m, cfg


def _oracle_deviation_samples(cfg, n, seed):
    """Vectorized scalar recursion for ||u^eps - u0||_E / sqrt(eps).

    Independent of the PDE machinery: the single-pair diagonal law is sampled
    directly and the trajectory norm is assembled on the recording grid.
    """
    rng = substream(seed, 0)
    dt, stride = cfg.dt, cfg.record_stride
    steps = cfg.n_steps
    A = math.sqrt(2.0) / TWO_PI
    lam = cfg.noise.eigenvalues[0]
    decay, phi = helpers.scheme_weights(1.0, dt)
    w = (phi / dt) * (A / 2.0) * math.sqrt(lam * dt)  # per unit sqrt(eps)
    c = np.zeros(n, dtype=np.complex128)
    h2 = [np.zeros(n)]
    for s in range(steps):
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = decay * c + w * xi
        if (s + 1) % stride == 0 or s + 1 == steps:
            h2.append(2.0 * TWO_PI**2 * np.abs(c) ** 2)
    H = np.stack(h2)
    e2 = H.max(axis=0) + np.sum(H[:-1], axis=0) * (dt * stride)
    return np.sqrt(e2)


class TestCriterionSpectralOracle:
    def test_trilinear_and_bilinear_match_quadrature(self, desk_grid):
        rng = substream(101, 0)
        worst_b = worst_diag = worst_B = 0.0
        for i in range(100):
            u = random_solenoidal_field(desk_grid, rng)
            v = random_solenoidal_field(desk_grid, rng)
            w = random_solenoidal_field(desk_grid, rng)
            ours = advection_form(u, v, w)
            oracle = helpers.trilinear_quadrature(u, v, w)
            worst_b = max(worst_b, abs(ours - oracle) / max(abs(oracle), 1e-12))
            diag = advection_form(u, v, v)
            worst_diag = max(worst_diag, abs(diag) / (abs(ours) + 1.0))
            if i < 25:
                b_ours = advection_term(u, v).coeffs
                b_oracle = helpers.advection_oracle(u, v)
                worst_B = max(
                    worst_B,
                    np.max(np.abs(b_ours - b_oracle)) / np.max(np.abs(b_oracle)),
                )
        ok = worst_b <= 1e-8 and worst_diag <= 1e-10 and worst_B <= 1e-8
        report_line(
            "spectral-oracle-equivalence", ok,
            f"trilinear rel {worst_b:.2e}, diagonal {worst_diag:.2e}, "
            f"bilinear rel {worst_B:.2e}",
        )
        assert worst_b <= 1e-8
        assert worst_diag <= 1e-10
        assert worst_B <= 1e-8


class TestCriterionDivergencePreservation:
    def test_thousand_step_nonlinear_run(self, desk_grid):
        m = NoiseModel(grid=desk_grid)
        rng = substream(102, 0)
        cfg = SimConfig(
            grid=desk_grid, noise=m, horizon=DESK_T, dt=DESK_DT, epsilon=1e-3,
            initial=random_solenoidal_field(desk_grid, rng, amplitude=0.5),
            forcing=single_mode_field(desk_grid, (2, 1), (0.5, -1.0)),
            nonlinear=True, record_stride=1,
        )
        traj = solve_snse(cfg, seed=7)
        assert traj.n_records == 1001
        worst = 0.0
        for i in range(traj.n_records):
            div, amp = divergence_defect(traj.field_at(i))
            worst = max(worst, div / max(amp, 1e-300))
        ok = worst <= 1e-12
        report_line("divergence-free-preservation", ok,
                    f"worst relative divergence {worst:.2e} over 1000 steps")
        assert ok


class TestCriterionOUOracle:
    def test_per_mode_moments_and_reduction(self):
        g = default_grid(2)
        m = NoiseModel(grid=g)
        eps = 1e-2
        u0 = single_mode_field(g, (1, 0), (0.0, 1.0))
        cfg = SimConfig(grid=g, noise=m, horizon=DESK_T, dt=DESK_DT, epsilon=eps,
                        initial=u0, nonlinear=False, record_stride=10**9)
        n = 10_000

        class Terminal:
            def on_start(self, prop, n_paths, n_steps):
                pass

            def on_state(self, idx, t, coeffs):
                self.last = full_spectrum(coeffs)

            def finish(self):
                return {"c": self.last}

        out = ensemble_run(cfg, seed=103, n_paths=n, observer_factory=Terminal)
        A = math.sqrt(2.0) / TWO_PI
        K = g.max_wavenumber
        failures = []
        checked = 0
        for p in range(m.n_pairs):
            kx, ky = m.pair_k[p]
            k2 = float(kx * kx + ky * ky)
            lam = m.eigenvalues[2 * p]
            d = m.pair_direction[p]
            c = out["c"][:, :, K + ky, K + kx] @ d  # scalar amplitude along d
            c0 = complex(u0.coeffs[:, K + ky, K + kx] @ d)
            rate = math.sqrt(eps) * (A / 2.0) * math.sqrt(lam)
            mean = c0 * math.exp(-k2 * DESK_T)
            var = helpers.ou_continuous_variance(k2, DESK_T, rate)
            se_mean = math.sqrt(var / n)
            se_var = var * math.sqrt(2.0 / n)
            checked += 1
            for label, got, want, se in (
                ("mean-re", c.real.mean(), mean.real, se_mean),
                ("mean-im", c.imag.mean(), mean.imag, se_mean),
                ("var-re", c.real.var(), var, se_var),
                ("var-im", c.imag.var(), var, se_var),
            ):
                if abs(got - want) > 3.0 * se:
                    failures.append(f"pair {p} {label}: {got:.3e} vs {want:.3e}")
        det = solve_deterministic(
            SimConfig(grid=g, noise=m, horizon=0.1, dt=DESK_DT, initial=u0,
                      nonlinear=False, record_stride=1)
        )
        sto = solve_snse(
            SimConfig(grid=g, noise=m, horizon=0.1, dt=DESK_DT, epsilon=0.0,
                      initial=u0, nonlinear=False, record_stride=1),
            seed=9,
        )
        bit_exact = bool(np.array_equal(det.frames, sto.frames))
        ok = not failures and bit_exact
        report_line(
            "ou-oracle", ok,
            f"{checked} mode pairs within 3 SE over {n} paths; "
            f"zero-noise reduction bit-exact: {bit_exact}"
            + (f"; failures: {failures}" if failures else ""),
        )
        assert bit_exact
        assert not failures


@pytest.fixture(scope="module")
def scaling_fits(single_mode_setup):
    """Shared moment-suite regression over the acceptance noise grid."""
    g, m, cfg = single_mode_setup
    rep = moment_bound_suite(
        [1e-2, 1e-3, 1e-4, 1e-5], [1.0], 400, cfg, seed=104,
        ledger=ConstantsLedger(K1=0.05, K2=0.05, K9=0.05),
    )
    return rep.fits


class TestCriterionMomentScaling:
    def test_second_moment_exponent_one(self, scaling_fits):
        got = scaling_fits["state_sup_sq_plus_int"]["fitted_exponent"]
        ok = abs(got - 1.0) <= 0.15
        report_line("second-moment-scaling", ok,
                    f"fitted exponent {got:.4f}, required 1 +- 0.15")
        assert ok

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the deviation from the zero-noise limit carries one factor of "
            "sqrt(intensity) from the noise term, so its second moment is "
            "linear in the intensity; the quadratic power stated for this "
            "bound is not attainable for nondegenerate square-root-scaled "
            "noise (see the 'deliberate, documented red' passage of README.md)"
        ),
    )
    def test_deviation_second_moment_exponent_two(self, scaling_fits):
        entry = scaling_fits["deviation_sup_sq_plus_int"]
        got = entry["fitted_exponent"]
        ok = abs(got - entry["stated_power"]) <= 0.15
        report_line("deviation-moment-scaling", ok,
                    f"fitted exponent {got:.4f}, required 2 +- 0.15 "
                    "(expected red: deviation variance is linear in intensity)")
        assert ok


class TestCriterionSkeleton:
    def test_duhamel_closed_form(self, single_mode_setup):
        g, m, cfg = single_mode_setup
        cfg1 = SimConfig(grid=g, noise=m, horizon=DESK_T, dt=DESK_DT,
                         nonlinear=False, record_stride=1)
        u0 = solve_deterministic(cfg1)
        rng = substream(105, 0)
        hv = rng.standard_normal((20, 2))
        h = Control(m, DESK_T, hv)
        x = solve_skeleton(h, u0, cfg1)
        A = math.sqrt(2.0) / TWO_PI
        decay, phi = helpers.scheme_weights(1.0, cfg1.dt)
        c = 0.0 + 0.0j
        cell = DESK_T / 20
        for n in range(cfg1.n_steps):
            hc, hs = hv[min(int(n * cfg1.dt / cell), 19)]
            c = decay * c + phi * (A / 2.0) * (hc - 1j * hs)
        got = full_spectrum(x.frames[-1])[1, 1, 2]
        rel = abs(got - c) / max(abs(c), 1e-300)
        ok = rel <= 1e-6
        report_line("skeleton-duhamel", ok, f"terminal relative error {rel:.2e}")
        assert ok

    def test_continuity_slope(self, single_mode_setup):
        g, m, _ = single_mode_setup
        cfg1 = SimConfig(grid=g, noise=m, horizon=0.5, dt=DESK_DT,
                         initial=single_mode_field(g, (1, 0), (0.0, 0.7)),
                         nonlinear=False, record_stride=1)
        u0 = solve_deterministic(cfg1)
        rng = substream(106, 0)
        base = rng.standard_normal((10, 2))
        pert = rng.standard_normal((10, 2))
        x_base = solve_skeleton(Control(m, 0.5, base), u0, cfg1)
        sizes = [1e-2, 1e-3, 1e-4]
        resp = []
        for s in sizes:
            x = solve_skeleton(Control(m, 0.5, base + s * pert), u0, cfg1)
            resp.append(helpers.energy_distance(x, x_base))
        slope = float(np.polyfit(np.log(sizes), np.log(resp), 1)[0])
        ok = abs(slope - 1.0) <= 0.05
        report_line("skeleton-continuity", ok, f"log-log slope {slope:.4f}")
        assert ok


@pytest.fixture(scope="module")
def rate_setup():
    g = default_grid(1)
    m = NoiseModel(grid=g, num_directions=4)
    cfg = SimConfig(grid=g, noise=m, horizon=0.25, dt=2e-3,
                    nonlinear=False, record_stride=1)
    u0 = solve_deterministic(cfg)
    return g, m, cfg, u0


class TestCriterionRateFunction:

    def test_gradient_check(self, rate_setup):
        g, m, cfg, u0 = rate_setup
        rng = substream(107, 0)
        h = Control(m, cfg.horizon, 0.4 * rng.standard_normal((cfg.n_steps, 4)))
        target = solve_skeleton(h, u0, cfg)
        err = rate_gradient_check(target, u0, cfg, n_directions=20, step=1e-5,
                                  seed=107)
        ok = err <= 1e-4
        report_line("rate-gradient", ok,
                    f"max relative error {err:.2e} over 20 perturbations")
        assert ok

    def test_linear_diagonal_value(self, rate_setup):
        g, m, cfg, u0 = rate_setup
        rng = substream(108, 0)
        h_true = Control(m, cfg.horizon, 0.3 * rng.standard_normal((cfg.n_steps, 4)))
        target = solve_skeleton(h_true, u0, cfg)
        truth = 0.5 * control_energy(h_true)
        res = rate_function(target, u0, cfg,
                            OptParams(feasibility_tol=1e-6, penalty_max=1e12,
                                      maxiter=600))
        rel = abs(res.value - truth) / truth
        ok = res.feasible and rel <= 1e-3
        report_line("rate-value", ok,
                    f"relative error {rel:.2e} against the per-mode oracle")
        assert ok

    def test_zero_target(self, rate_setup):
        g, m, cfg, u0 = rate_setup
        target = solve_skeleton(zero_control(m, cfg.horizon, 5), u0, cfg)
        res = rate_function(target, u0, cfg)
        ok = res.value == 0.0 and res.feasible
        report_line("rate-zero", ok, f"value {res.value!r}")
        assert ok


class TestCriterionScalingProbe:
    def test_tracks_oracle_and_gap_shrinks(self, single_mode_setup):
        g, m, cfg = single_mode_setup
        n = 8000
        oracle = _oracle_deviation_samples(cfg, 10 * n // 4, seed=555)
        eps_grid = [1e-2, 1e-3, 1e-5]
        r = float(np.quantile(oracle, 0.80)) / math.sqrt(2.0 * loglog(1e-2))
        rep = mdp_scaling_probe(
            r, eps_grid, ASpec("lil"), cfg, n, seed=109,
            ledger=ConstantsLedger(K1=0.05, K2=0.05, K9=0.05),
        )
        mismatches = []
        for row in rep.rows:
            x = r * math.sqrt(2.0 * loglog(row["epsilon"]))
            p_o = float(np.mean(oracle >= x))
            se = math.sqrt(
                row["p_hat"] * (1 - row["p_hat"]) / n
                + p_o * (1 - p_o) / len(oracle)
            )
            if abs(row["p_hat"] - p_o) > 3.0 * se:
                mismatches.append(
                    f"eps {row['epsilon']:g}: {row['p_hat']:.4f} vs {p_o:.4f}"
                )
        ok = not mismatches and bool(rep.gap_monotone)
        report_line(
            "mdp-scaling-probe", ok,
            f"gaps {['%.4f' % x for x in rep.gaps]} monotone={rep.gap_monotone}"
            + (f"; oracle mismatches: {mismatches}" if mismatches else ""),
        )
        assert not mismatches
        assert rep.gap_monotone


class TestCriterionConditionalProbe:
    def test_below_bound_at_smallest_epsilon(self, single_mode_setup):
        g, m, cfg = single_mode_setup
        oracle = _oracle_deviation_samples(cfg, 4000, seed=556)
        rho = float(np.quantile(oracle, 0.95)) / math.sqrt(2.0 * loglog(1e-2))
        fw = FWConfig(rho=rho, eta=2.0, target_exponent=0.5,
                      increment_threshold=2.0 * rho, dyadic_depth=2,
                      eps_grid=(1e-2, 1e-3, 1e-5), n_samples=2000)
        h = zero_control(m, DESK_T, 10)
        rep = fw_conditional_probe(
            h, fw, cfg, seed=110,
            ledger=ConstantsLedger(K1=0.05, K2=0.05, K9=0.05),
        )
        smallest = rep.rows[0]
        comparison = smallest["p_hat"] if not smallest["zero_hit"] else smallest["upper_bound"]
        ok = rep.below_bound_at_smallest
        report_line(
            "fw-conditional-probe", ok,
            f"empirical {comparison:.4g} vs bound {smallest['bound']:.4g} "
            f"at eps {smallest['epsilon']:g}",
        )
        assert ok

    def test_zero_hit_rows_report_finite_bounds(self, single_mode_setup):
        g, m, cfg = single_mode_setup
        fw = FWConfig(rho=1e6, eta=1e6, target_exponent=0.5,
                      increment_threshold=1e6, dyadic_depth=2,
                      eps_grid=(1e-3, 1e-5), n_samples=200)
        rep = fw_conditional_probe(zero_control(m, DESK_T, 10), fw, cfg, seed=111)
        ok = all(
            row["zero_hit"] and math.isfinite(math.log(row["upper_bound"]))
            for row in rep.rows
        )
        report_line("fw-zero-hit-bounds", ok,
                    f"one-sided bounds {[row['upper_bound'] for row in rep.rows]}")
        assert ok


class TestCriterionThresholds:
    def test_hundred_random_ledgers(self):
        rng = np.random.default_rng(112)
        bad = 0
        for _ in range(100):
            K1, K2, K9 = (10.0 ** rng.uniform(-3, 3, size=3)).tolist()
            led = ConstantsLedger(K1=K1, K2=K2, K9=K9)
            # independent arithmetic, written out term by term
            candidates = [
                1.0 / (2.0 * K1 * K1),
                1.0 / (4.0 * K1),
                1.0 / (2.0 * K2),
                1.0 / (78.0 * K9),
            ]
            expected = candidates[0]
            for c in candidates[1:]:
                if c < expected:
                    expected = c
            e0 = led.epsilon0
            if e0 != expected:
                bad += 1
        ok = bad == 0
        report_line("epsilon-thresholds", ok, f"{100 - bad}/100 exact matches")
        assert ok


class TestCriterionLilStudies:
    def test_strassen_monotone_under_refinement(self, single_mode_setup):
        g, m, cfg = single_mode_setup
        cfg1 = SimConfig(grid=g, noise=m, horizon=DESK_T, dt=DESK_DT,
                         nonlinear=False, record_stride=1)
        u0_full = solve_deterministic(cfg1)
        u0_rec = solve_deterministic(cfg)
        coarse = build_probe(cfg, u0_full, n_shapes=1, tolerance=0.75)
        fine = build_probe(cfg, u0_full, n_shapes=3, tolerance=0.75)
        worst_jump = -math.inf
        for seed in range(12):
            ue = solve_snse(cfg.with_epsilon(2.0**-9), seed=seed)
            z = z_process(ue, u0_rec, 2.0**-9)
            d_c, _ = limit_set_distance(z, coarse)
            d_f, _ = limit_set_distance(z, fine)
            worst_jump = max(worst_jump, d_f - d_c)
        ok = worst_jump <= 0.0
        report_line("lil-strassen-refinement", ok,
                    f"max distance increase under refinement {worst_jump:.2e}")
        assert ok

    def test_classical_quantiles_against_oversampled_oracle(self, single_mode_setup):
        g, m, cfg = single_mode_setup
        j = 9
        sched = GeometricSchedule(base=2.0, j_min=j, j_max=j)
        n_study = 120
        rep = classical_ratio_study(sched, n_study, cfg, seed=113)
        ratios = np.array([row["ratio"] for row in rep.rows])
        eps = 2.0**-j
        oracle_d = _oracle_deviation_samples(cfg, 10 * n_study, seed=557)
        oracle = oracle_d * math.sqrt(eps) / math.sqrt(2.0 * eps * loglog(eps))
        bad = []
        for q in (0.25, 0.5, 0.75):
            x = float(np.quantile(oracle, q))
            f_hat = float(np.mean(ratios <= x))
            se = math.sqrt(q * (1 - q) / n_study)
            if abs(f_hat - q) > 3.0 * se + 0.5 / n_study:
                bad.append(f"q{q}: cdf {f_hat:.3f}")
        no_limit_asserted = rep.running_min >= 0.0  # a negative limit cannot occur
        ok = not bad and no_limit_asserted
        report_line(
            "lil-classical-quantiles", ok,
            f"quartile CDF agreement within 3 SE over {n_study} replicates; "
            "ratio limits reported, not asserted"
            + (f"; mismatches {bad}" if bad else ""),
        )
        assert not bad
        assert no_limit_asserted


class TestCriterionDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        from snse_lab.cli import main
        from snse_lab.config import example_config

        cfg = example_config("moments")
        cfg["experiment"]["samples"] = 40
        cfg["solver"]["horizon"] = 0.05
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        sums = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["run", "--config", str(path), "--out", out]) == 0
            manifest = json.load(open(os.path.join(out, "manifest.json")))
            sums.append({o["path"]: o["sha256"] for o in manifest["outputs"]})
        ok = sums[0] == sums[1]
        report_line("end-to-end-determinism", ok,
                    f"{len(sums[0])} report file(s) byte-identical")
        assert ok
