"""Noise model tests: spectrum, increments, sigma families, controls."""

import math

import numpy as np
import pytest

from snse_lab.noise import (
    Control,
    NoiseConfigError,
    NoiseModel,
    SigmaParams,
    control_energy,
    declared_constants,
    gather_coefficients,
    kernel_norm_sq,
    saturation_factor,
    scatter_coefficients,
    sigma_apply_array,
    sigma_adjoint_array,
    sigma_hs_norm,
    verify_assumptions,
    zero_control,
)
from snse_lab.rng import substream
from snse_lab.solvers import SimConfig, ensemble_run
from snse_lab.spectral import (
    TWO_PI,
    SpectralField,
    SpectralGrid,
    divergence_defect,
    full_spectrum,
    half_spectrum,
    random_solenoidal_field,
    zero_field,
)

import helpers
from helpers import h_norm_sq_array, v_norm_sq_array

class TestModel:
    def test_trace_class_and_ordering(self, noise3):
        lam = noise3.eigenvalues
        assert np.all(lam > 0)
        assert np.all(np.diff(lam) <= 0)
        assert np.isfinite(helpers.noise_trace(noise3))

    def test_basis_unit_norm_divergence_free(self, noise3):
        for j in range(0, noise3.n_directions, 7):
            e = helpers.basis_field(noise3, j)
            assert abs(math.sqrt(h_norm_sq_array(e.grid, e.coeffs)) - 1.0) < 1e-12
            div, amp = divergence_defect(e)
            assert div <= 1e-14 * amp

    def test_truncation_bounds(self, grid3):
        with pytest.raises(NoiseConfigError):
            NoiseModel(grid=grid3, num_directions=0)
        m = NoiseModel(grid=grid3, num_directions=5)
        assert m.n_directions == 5

    def test_scatter_gather_adjoint(self, noise3, rng):
        xi = rng.standard_normal(noise3.n_directions)
        y = random_solenoidal_field(noise3.grid, rng)
        lhs = TWO_PI**2 * float(np.vdot(full_spectrum(scatter_coefficients(noise3, xi)), y.coeffs).real)
        rhs = float(xi @ gather_coefficients(noise3, y.coeffs))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


    # full J and an odd J, which ends on a cosine, at K = 1, 3 and 10
    @pytest.mark.parametrize("K, J", [(1, None), (1, 3), (3, None), (3, 9), (10, None), (10, 21)])
    def test_half_scatter_is_half_of_full(self, rng, K, J):
        m = NoiseModel(grid=SpectralGrid(K, 3 * K + 2), num_directions=J)
        xi = rng.standard_normal((4, 3, m.n_directions))
        full = full_spectrum(scatter_coefficients(m, xi, weights=m.gains))
        half = np.empty(xi.shape[:-1] + (2, 2 * K + 1, K + 1), dtype=np.complex128)
        assert scatter_coefficients(m, xi, weights=m.gains, out=half) is half
        assert np.array_equal(half, half_spectrum(full))
        oracle = helpers.fancy_index_scatter(m, xi, weights=m.gains)
        assert np.array_equal(half, half_spectrum(oracle))

    # full J = 2 * 24 = 48 at K=3; 10 directions end on a sine, 9 on a cosine
    @pytest.mark.parametrize("J", [None, 10, 9])
    @pytest.mark.parametrize("batch", [(), (1,), (256,)])
    def test_scatter_matches_fancy_index_oracle(self, grid3, rng, J, batch):
        m = NoiseModel(grid=grid3, num_directions=J)
        xi = rng.standard_normal(batch + (m.n_directions,))
        ours = full_spectrum(scatter_coefficients(m, xi, weights=m.gains))
        assert np.array_equal(ours, helpers.fancy_index_scatter(m, xi, weights=m.gains))


class _Increments:
    """Every increment the stepper hands on_noise, (n, n_steps, J)."""

    def on_start(self, prop, n_paths, n_steps):
        self.dW = []

    def on_noise(self, step, t, coeffs, dW):
        self.dW.append(dW.copy())

    def finish(self):
        return {"dW": np.stack(self.dW, axis=1)}


def _stepper_increments(model, dt, seed, n_paths=10_000, n_steps=10):
    cfg = SimConfig(grid=model.grid, noise=model, horizon=n_steps * dt, dt=dt,
                    epsilon=1e-2, nonlinear=False)
    return ensemble_run(cfg, seed, n_paths, _Increments)["dW"]


class TestWienerIncrements:
    # the increments the stepper hands its observers: 10000 paths of 10
    # steps, 100000 draws per direction

    def test_coefficient_variance(self, noise3):
        dt = 0.05
        draws = _stepper_increments(noise3, dt, 1).reshape(-1, noise3.n_directions)
        n = len(draws)
        var = draws.var(axis=0)
        expected = noise3.eigenvalues * dt
        se = expected * math.sqrt(2.0 / n)
        assert np.all(np.abs(var - expected) <= 3.5 * se)

    def test_total_h_variance(self, noise3):
        dt = 0.03
        draws = _stepper_increments(noise3, dt, 2).reshape(-1, noise3.n_directions)
        n = len(draws)
        # increments land on unit-norm directions, so |dW|_H^2 = sum_j dw_j^2
        total = np.sum(draws**2, axis=1)
        expected = helpers.noise_trace(noise3) * dt
        se = np.std(total) / math.sqrt(n)
        assert abs(total.mean() - expected) <= 3.0 * se

    def test_uncorrelated_across_steps_and_paths(self, noise3):
        dW = _stepper_increments(noise3, 0.01, 3)[..., 0]
        # even against odd steps of each path, even against odd paths
        for a, b in ((dW[:, 0::2], dW[:, 1::2]), (dW[0::2], dW[1::2])):
            corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
            assert abs(corr) <= 3.0 / math.sqrt(a.size)


class TestSigmaFamilies:
    def test_additive_independent_of_state(self, noise3, rng):
        xi = np.zeros(noise3.n_directions)
        xi[4] = 1.0
        u = random_solenoidal_field(noise3.grid, rng)
        out_u = sigma_apply_array(noise3, 0.0, half_spectrum(u.coeffs), xi)
        out_0 = sigma_apply_array(noise3, 0.3, half_spectrum(zero_field(noise3.grid).coeffs), xi)
        np.testing.assert_array_equal(out_u, out_0)
        # equals the gain times the basis direction
        e = helpers.basis_field(noise3, 4)
        np.testing.assert_allclose(full_spectrum(out_u), noise3.gains[4] * e.coeffs, atol=1e-15)

    def test_saturated_vanishes_at_zero_state(self, grid3, rng):
        m = NoiseModel(grid=grid3, family="saturated")
        xi = rng.standard_normal(m.n_directions)
        out = sigma_apply_array(m, 0.0, half_spectrum(zero_field(grid3).coeffs), xi)
        factor = saturation_factor(m.params, 0.0)
        assert factor == 0.0
        assert np.max(np.abs(out)) == 0.0

    def test_saturation_factor_shape(self):
        p = SigmaParams(saturation_scale=2.0, smoothing_delta=0.1)
        r = np.logspace(-3, 3, 40)
        m = saturation_factor(p, r)
        assert np.all(np.diff(m) >= -1e-12)  # monotone
        assert np.all(m <= 2.0 + 1e-12)  # plateau at the configured scale
        assert np.all(m <= r + 1e-12)  # at most linear growth

    def test_outputs_divergence_free(self, rng):
        for family in ("additive", "saturated"):
            m = NoiseModel(grid=helpers_grid(), family=family)
            u = random_solenoidal_field(m.grid, rng)
            xi = rng.standard_normal(m.n_directions)
            out = sigma_apply_array(m, 0.1, half_spectrum(u.coeffs), xi)
            div, amp = divergence_defect(SpectralField(m.grid, full_spectrum(out)))
            assert div <= 1e-13 * max(amp, 1e-300)

    def test_lipschitz_bound_sampled(self, grid3, rng):
        m = NoiseModel(grid=grid3, family="saturated")
        declared = declared_constants(m)
        worst = 0.0
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-2, 2)
            u = random_solenoidal_field(grid3, rng, amplitude=scale)
            v = random_solenoidal_field(grid3, rng, amplitude=scale)
            du = math.sqrt(v_norm_sq_array(grid3, u.coeffs - v.coeffs))
            if du < 1e-12:
                continue
            ds = abs(sigma_hs_norm(m, 0.0, half_spectrum(u.coeffs))
                     - sigma_hs_norm(m, 0.0, half_spectrum(v.coeffs)))
            worst = max(worst, ds / du)
        assert worst <= 1.05 * declared["lipschitz"]

    def test_growth_bound_every_sample(self, grid3, rng):
        for family in ("additive", "saturated"):
            m = NoiseModel(grid=grid3, family=family)
            declared = declared_constants(m)
            for _ in range(100):
                u = random_solenoidal_field(grid3, rng, amplitude=10 ** rng.uniform(-2, 2))
                nu2 = float(v_norm_sq_array(grid3, u.coeffs))
                s_u = sigma_hs_norm(m, 0.0, half_spectrum(u.coeffs))
                assert s_u**2 <= declared["growth"] * (1 + nu2) * (1 + 1e-12)

    def test_dimension_mismatch_rejected(self, noise3, rng):
        u = random_solenoidal_field(noise3.grid, rng)
        with pytest.raises(NoiseConfigError):
            sigma_apply_array(noise3, 0.0, half_spectrum(u.coeffs), np.ones(noise3.n_directions + 1))

    def test_batched_apply_matches_loop(self, noise3, rng):
        n = 5
        us = np.stack(
            [half_spectrum(random_solenoidal_field(noise3.grid, rng).coeffs) for _ in range(n)]
        )
        xis = rng.standard_normal((n, noise3.n_directions))
        batched = sigma_apply_array(noise3, 0.2, us, xis)
        for i in range(n):
            single = sigma_apply_array(noise3, 0.2, us[i], xis[i])
            np.testing.assert_allclose(batched[i], single, atol=1e-15)

    def test_adjoint_identity(self, rng):
        m = NoiseModel(grid=helpers_grid(), family="saturated")
        u = random_solenoidal_field(m.grid, rng)
        y = random_solenoidal_field(m.grid, rng)
        xi = rng.standard_normal(m.n_directions)
        u = half_spectrum(u.coeffs)
        lhs = TWO_PI**2 * float(
            np.vdot(full_spectrum(sigma_apply_array(m, 0.0, u, xi)), y.coeffs).real
        )
        rhs = float(xi @ sigma_adjoint_array(m, 0.0, u, y.coeffs))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


class TestVerifyAssumptions:
    def test_additive_report(self, noise3):
        rep = verify_assumptions(noise3, 150, substream(5, 0))
        assert rep.ok
        assert rep.lipschitz_est == 0.0
        # closed-form bound estimate: sqrt(sum lambda g^2), verified by
        # applying the map to every basis direction (quadrature route)
        total = 0.0
        for j in range(noise3.n_directions):
            xi = np.zeros(noise3.n_directions)
            xi[j] = 1.0
            col = scatter_coefficients(noise3, xi, weights=noise3.gains)
            total += noise3.eigenvalues[j] * float(
                h_norm_sq_array(noise3.grid, full_spectrum(col))
            )
        assert abs(rep.bound_est - math.sqrt(total)) <= 1e-10 * rep.bound_est

    def test_saturated_sweep_plateau(self, grid3):
        m = NoiseModel(
            grid=grid3,
            family="saturated",
            params=SigmaParams(saturation_scale=3.0),
        )
        rep = verify_assumptions(m, 150, substream(6, 0))
        assert rep.ok
        sweep = np.array(rep.sweep_norm)
        assert np.all(np.diff(sweep) >= -1e-12)
        declared = declared_constants(m)
        assert abs(sweep[-1] - declared["bound"]) <= 0.05 * declared["bound"]

    def test_needs_enough_samples(self, noise3):
        with pytest.raises(NoiseConfigError):
            verify_assumptions(noise3, 50, substream(7, 0))


class TestControls:
    def test_zero_energy(self, noise3):
        assert control_energy(zero_control(noise3, 1.0, 10)) == 0.0

    def test_constant_control_analytic(self, noise3):
        # |h(t)|_0^2 = c^2 constant gives energy c^2 T exactly
        J = noise3.n_directions
        values = np.zeros((8, J))
        values[:, 3] = 2.0
        h = Control(noise3, 1.5, values)
        expected = (2.0**2 / noise3.eigenvalues[3]) * 1.5
        assert abs(control_energy(h) - expected) <= 1e-12 * expected

    def test_refinement_invariance(self, noise3, rng):
        values = rng.standard_normal((12, noise3.n_directions))
        h = Control(noise3, 2.0, values)
        h10 = Control(noise3, 2.0, np.repeat(values, 10, axis=0))
        assert abs(control_energy(h) - control_energy(h10)) <= 1e-12

    def test_energy_matches_manual_loop(self, noise3, rng):
        values = 0.1 * rng.standard_normal((5, noise3.n_directions))
        h = Control(noise3, 1.0, values)
        manual = sum(
            float(kernel_norm_sq(noise3, values[m])) * h.cell_width
            for m in range(5)
        )
        assert abs(control_energy(h) - manual) <= 1e-12 * max(manual, 1.0)

    def test_cumulative_primitive(self, noise3):
        values = np.zeros((4, noise3.n_directions))
        values[:, 0] = 1.0
        h = Control(noise3, 1.0, values)
        times = np.array([0.0, 0.125, 0.25, 0.9, 1.0])
        prim = h.cumulative(times)
        np.testing.assert_allclose(prim[:, 0], times, atol=1e-14)

    @pytest.mark.parametrize(
        "n_cells,horizon,dt", [(1, 1.0, 0.1), (7, 0.3, 1e-3), (10, 0.25, 1e-3), (3, 0.0, 1e-3)]
    )
    def test_vectorized_sampling_matches_loop(self, noise3, rng, n_cells, horizon, dt):
        h = Control(noise3, horizon, rng.standard_normal((n_cells, noise3.n_directions)))
        times = np.arange(max(round(horizon / dt), 1) + 1) * dt
        w = h.cell_width
        cells = [0 if horizon == 0 else min(int(t / w), n_cells - 1) for t in times]
        csum = np.concatenate([np.zeros((1, noise3.n_directions)), np.cumsum(h.values, axis=0) * w])
        values = np.array([h.values[m] for m in cells])
        prim = np.array([csum[m] + (t - m * w) * h.values[m] for t, m in zip(times, cells)])
        if horizon == 0:
            prim = np.zeros_like(prim)
        np.testing.assert_array_equal(h.value_at(times), values)
        np.testing.assert_array_equal(h.cumulative(times), prim)


def helpers_grid():
    from snse_lab.spectral import default_grid

    return default_grid(3)
