"""Spectral operator tests against hand values and independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snse_lab.spectral import (
    FieldFormatError,
    GridConfigError,
    SpectralGrid,
    advection_array,
    advection_form,
    advection_gradient_transpose_array,
    advection_term,
    apply_stokes,
    curl,
    default_grid,
    divergence_defect,
    field_from_record,
    field_to_record,
    from_physical,
    h_norm_sq_array,
    hv_norm_sq_array,
    leray_project,
    norm_bundle,
    random_solenoidal_field,
    scalar_l2_norm,
    single_mode_field,
    taylor_green,
    to_physical,
    v_norm_sq_array,
    zero_field,
    TWO_PI,
)

import helpers


class TestGrid:
    def test_rejects_small_quadrature(self):
        with pytest.raises(GridConfigError):
            SpectralGrid(4, 9)  # below 2(K+1)

    def test_mode_set_symmetric(self, grid3):
        assert np.array_equal(grid3.kx, -grid3.kx[:, ::-1])
        assert np.array_equal(grid3.ky, -grid3.ky[::-1, :])

    def test_default_grid_supports_products(self):
        for K in (1, 2, 5, 10):
            g = default_grid(K)
            assert g.supports_products()
            assert g.physical_resolution >= 2 * (K + 1)


class TestLerayProjection:
    def test_divergence_free_unchanged(self, grid3, rng):
        u = random_solenoidal_field(grid3, rng)
        again = leray_project(grid3, u.coeffs)
        np.testing.assert_allclose(again.coeffs, u.coeffs, atol=1e-15)

    def test_single_mode_hand_value(self):
        # mode (1,1) with amplitude (1,0): projector I - kk^T/|k|^2 gives (1/2,-1/2)
        g = default_grid(2)
        S = g.n_coeff
        raw = np.zeros((2, S, S), dtype=np.complex128)
        raw[0, 2 + 1, 2 + 1] = 1.0
        raw[0, 2 - 1, 2 - 1] = 1.0
        out = leray_project(g, raw)
        np.testing.assert_allclose(
            out.coeffs[:, 3, 3], np.array([0.5, -0.5]), atol=1e-15
        )
        div, amp = divergence_defect(out)
        assert div <= 1e-15 * amp
        # removed part is parallel to k
        removed = raw - out.coeffs
        assert abs(removed[0, 3, 3] - removed[1, 3, 3]) < 1e-15

    def test_pure_gradient_maps_to_zero(self, grid3):
        S = grid3.n_coeff
        raw = np.zeros((2, S, S), dtype=np.complex128)
        for kx, ky in helpers.mode_list(3):
            raw[:, 3 + ky, 3 + kx] = 0.3j * np.array([kx, ky])  # gradient of a real potential
        out = leray_project(grid3, raw)
        assert np.max(np.abs(out.coeffs)) < 1e-15

    def test_rejects_broken_symmetry(self, grid3):
        S = grid3.n_coeff
        raw = np.zeros((2, S, S), dtype=np.complex128)
        raw[0, 3, 4] = 1.0  # no conjugate partner
        with pytest.raises(FieldFormatError):
            leray_project(grid3, raw)


class TestStokes:
    def test_zero_field(self, grid3):
        z = zero_field(grid3)
        assert np.max(np.abs(apply_stokes(z).coeffs)) == 0.0

    def test_single_mode_scaling(self):
        g = default_grid(3)
        u = single_mode_field(g, (1, 2), (2.0, -1.0))
        out = apply_stokes(u)
        np.testing.assert_allclose(out.coeffs, 5.0 * u.coeffs, rtol=1e-15)

    def test_quadratic_form_matches_gradient_quadrature(self, grid3, rng):
        u = random_solenoidal_field(grid3, rng)
        v = random_solenoidal_field(grid3, rng)
        au_v = float(np.vdot(apply_stokes(u).coeffs, v.coeffs).real) * TWO_PI**2
        n = 3 * grid3.max_wavenumber + 5
        du = helpers.eval_gradient(u, n)
        dv = helpers.eval_gradient(v, n)
        oracle = helpers.quadrature_integral(np.sum(du * dv, axis=(0, 1)))
        assert abs(au_v - oracle) <= 1e-10 * max(abs(oracle), 1.0)

    def test_energy_identity(self, grid3, rng):
        u = random_solenoidal_field(grid3, rng)
        nb = norm_bundle(u)
        au_u = float(np.vdot(apply_stokes(u).coeffs, u.coeffs).real) * TWO_PI**2
        assert abs(au_u - nb.v_norm_sq) <= 1e-10 * nb.v_norm_sq


class TestAdvection:
    def test_bilinear_zero_slots(self, grid3, rng):
        u = random_solenoidal_field(grid3, rng)
        z = zero_field(grid3)
        assert np.max(np.abs(advection_term(u, z).coeffs)) == 0.0
        assert np.max(np.abs(advection_term(z, u).coeffs)) == 0.0

    def test_against_quadrature_oracle(self, rng):
        g = default_grid(3)
        u = random_solenoidal_field(g, rng)
        v = random_solenoidal_field(g, rng)
        ours = advection_term(u, v).coeffs
        oracle = helpers.advection_oracle(u, v)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(ours - oracle)) <= 1e-11 * scale

    def test_against_convolution_oracle(self, rng):
        g = default_grid(2)
        u = random_solenoidal_field(g, rng)
        v = random_solenoidal_field(g, rng)
        ours = advection_term(u, v).coeffs
        oracle = helpers.advection_convolution(u, v)
        assert np.max(np.abs(ours - oracle)) <= 1e-11 * np.max(np.abs(oracle))

    def test_taylor_green_self_advection_is_gradient(self):
        g = default_grid(3)
        tg = taylor_green(g, 1.3)
        assert np.max(np.abs(advection_term(tg, tg).coeffs)) < 1e-15

    def test_energy_orthogonality(self, grid3, rng):
        for _ in range(20):
            u = random_solenoidal_field(grid3, rng)
            v = random_solenoidal_field(grid3, rng)
            ip = float(np.vdot(advection_term(u, v).coeffs, v.coeffs).real) * TWO_PI**2
            nu, nv = norm_bundle(u), norm_bundle(v)
            assert abs(ip) <= 1e-10 * nu.v_norm * nv.v_norm_sq

    def test_dealiasing_margin_enforced(self):
        g = SpectralGrid(4, 10)  # >= 2(K+1) but < 3K
        u = single_mode_field(g, (1, 0), (0.0, 1.0))
        with pytest.raises(GridConfigError):
            advection_term(u, u)


class TestTrilinearForm:
    def test_antisymmetry_and_zero_diagonal(self, grid3, rng):
        for _ in range(25):
            u = random_solenoidal_field(grid3, rng)
            v = random_solenoidal_field(grid3, rng)
            w = random_solenoidal_field(grid3, rng)
            bv = advection_form(u, v, w)
            bw = advection_form(u, w, v)
            assert abs(bv + bw) <= 1e-10 * (abs(bv) + 1.0)
            assert abs(advection_form(u, v, v)) <= 1e-10 * (1.0 + abs(bv))
        z = zero_field(grid3)
        assert advection_form(z, u, w) == 0.0

    def test_two_independent_oracles_agree(self, rng):
        g = default_grid(2)
        u = random_solenoidal_field(g, rng)
        v = random_solenoidal_field(g, rng)
        w = random_solenoidal_field(g, rng)
        ours = advection_form(u, v, w)
        quad = helpers.trilinear_quadrature(u, v, w)
        conv = helpers.trilinear_convolution(u, v, w)
        assert abs(ours - quad) <= 1e-8 * max(abs(quad), 1e-12)
        assert abs(ours - conv) <= 1e-8 * max(abs(conv), 1e-12)

    def test_three_mode_triple(self):
        g = default_grid(2)
        u = single_mode_field(g, (1, 0), (0.0, 1.0))
        v = single_mode_field(g, (0, 1), (1.0, 0.0))
        w = single_mode_field(g, (1, 1), (1.0, -1.0))
        ours = advection_form(u, v, w)
        conv = helpers.trilinear_convolution(u, v, w)
        assert abs(ours - conv) <= 1e-12 * max(abs(conv), 1e-12)

    def test_quadratic_form_inequalities_fitted_constants(self, grid3, rng):
        # structure checks with fitted constants:
        #   |b(u,u,v)|        <= 1/2 ||u||^2      + c1 |u|^2 ||v||_L4^4
        #   |(B(u)-B(v),u-v)| <= 1/2 ||u-v||^2    + c2 |u-v|^2 ||v||_L4^4
        from snse_lab.spectral import SpectralField

        c1 = c2 = 0.0
        for _ in range(100):
            u = random_solenoidal_field(grid3, rng)
            v = random_solenoidal_field(grid3, rng)
            nu, nv = norm_bundle(u), norm_bundle(v)
            excess = abs(advection_form(u, u, v)) - 0.5 * nu.v_norm_sq
            if excess > 0:
                c1 = max(c1, excess / (nu.h_norm_sq * nv.l4_norm**4))
            d = SpectralField(grid3, u.coeffs - v.coeffs)
            nd = norm_bundle(d)
            lhs = (
                float(
                    np.vdot(
                        advection_term(u, u).coeffs - advection_term(v, v).coeffs,
                        d.coeffs,
                    ).real
                )
                * TWO_PI**2
            )
            excess2 = abs(lhs) - 0.5 * nd.v_norm_sq
            if excess2 > 0:
                c2 = max(c2, excess2 / (nd.h_norm_sq * nv.l4_norm**4))
        assert np.isfinite(c1) and np.isfinite(c2)
        assert 0.0 <= c1 < 10.0 and 0.0 <= c2 < 10.0

    def test_structure_inequality_constant_is_stable(self, grid3, rng):
        # |b(u,v,w)| <= C ||u||^(1/2) |u|^(1/2) ||v||^(1/2) |v|^(1/2) ||w||
        # with a single fitted constant over the sample suite
        worst = 0.0
        for _ in range(200):
            u = random_solenoidal_field(grid3, rng)
            v = random_solenoidal_field(grid3, rng)
            w = random_solenoidal_field(grid3, rng)
            nu, nv, nw = norm_bundle(u), norm_bundle(v), norm_bundle(w)
            denom = (
                math.sqrt(nu.v_norm * nu.h_norm)
                * math.sqrt(nv.v_norm * nv.h_norm)
                * nw.v_norm
            )
            worst = max(worst, abs(advection_form(u, v, w)) / denom)
        assert 0.0 < worst < 10.0


class TestCurl:
    def test_zero(self, grid3):
        assert np.max(np.abs(curl(zero_field(grid3)))) == 0.0

    def test_single_mode_hand_value(self):
        g = default_grid(2)
        u = single_mode_field(g, (1, 0), (0.0, 1.0))
        w = curl(u)
        assert abs(w[2, 2 + 1] - 1j) < 1e-15

    def test_l2_norm_equals_gradient_norm(self, grid3, rng):
        u = random_solenoidal_field(grid3, rng)
        nb = norm_bundle(u)
        assert abs(scalar_l2_norm(grid3, curl(u)) - nb.v_norm) <= 1e-10 * nb.v_norm

    def test_matches_finite_differences(self):
        g = default_grid(2)
        u = single_mode_field(g, (1, 2), (1.0, 0.5))
        n = 256
        vals = helpers.eval_field(u, n)
        h = TWO_PI / n
        dvdx = (np.roll(vals[1], -1, axis=1) - np.roll(vals[1], 1, axis=1)) / (2 * h)
        dudy = (np.roll(vals[0], -1, axis=0) - np.roll(vals[0], 1, axis=0)) / (2 * h)
        omega_grid = dvdx - dudy
        omega_spec = helpers.dft_coefficients(
            np.stack([omega_grid, np.zeros_like(omega_grid)]), g.max_wavenumber
        )[0]
        ours = curl(u)
        assert np.max(np.abs(ours - omega_spec)) < 5e-3  # second-order differences


class TestNorms:
    def test_zero_field(self, grid3):
        nb = norm_bundle(zero_field(grid3))
        assert nb.h_norm == nb.v_norm == nb.l4_norm == 0.0

    def test_parseval_vs_quadrature(self, rng):
        g = default_grid(3)
        u = single_mode_field(g, (2, 1), (1.0, 0.25))
        nb = norm_bundle(u)
        n = 64
        vals = helpers.eval_field(u, n)
        quad = math.sqrt(helpers.quadrature_integral(vals[0] ** 2 + vals[1] ** 2))
        assert abs(nb.h_norm - quad) <= 1e-10 * quad

    def test_poincare(self, grid3, rng):
        for _ in range(10):
            u = random_solenoidal_field(grid3, rng)
            nb = norm_bundle(u)
            assert nb.v_norm >= nb.h_norm

    def test_interpolation_inequality_constant(self, grid3, rng):
        worst = 0.0
        for _ in range(100):
            u = random_solenoidal_field(grid3, rng)
            nb = norm_bundle(u)
            worst = max(worst, nb.l4_norm**4 / (nb.h_norm_sq * nb.v_norm_sq))
        assert 0.0 < worst < 1.0  # fitted constant, convention-dependent


class TestAdjointHelper:
    def test_gradient_transpose_pairing(self, grid3, rng):
        # <B(x, a), y> == <x, P[(grad a)^T y]> for divergence-free x, y
        a = random_solenoidal_field(grid3, rng)
        x = random_solenoidal_field(grid3, rng)
        y = random_solenoidal_field(grid3, rng)
        lhs = float(np.vdot(advection_term(x, a).coeffs, y.coeffs).real)
        g = advection_gradient_transpose_array(grid3, a.coeffs, y.coeffs)
        rhs = float(np.vdot(x.coeffs, g).real)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def _symmetric_batch(grid, rng, batch):
    """Random conjugate-symmetric, mean-free coefficients; not divergence free."""
    S = grid.n_coeff
    raw = rng.standard_normal((batch, 2, S, S)) + 1j * rng.standard_normal((batch, 2, S, S))
    raw = 0.5 * (raw + np.conj(raw[..., ::-1, ::-1]))
    raw[..., grid.max_wavenumber, grid.max_wavenumber] = 0.0
    return raw


def _solenoidal_batch(grid, rng, batch):
    return np.stack([random_solenoidal_field(grid, rng).coeffs for _ in range(batch)])


class TestRealTransforms:
    # the default grids (even N) and one odd N, whose half spectrum has no
    # Nyquist column
    @pytest.mark.parametrize("K, N", [(3, 12), (10, 32), (16, 50), (3, 11)])
    def test_match_complex_fft_oracle(self, rng, K, N):
        g = SpectralGrid(K, N)
        coeffs = _symmetric_batch(g, rng, 5)
        phys = to_physical(g, coeffs)
        oracle = helpers.complex_to_physical(g, coeffs)
        assert np.max(np.abs(phys - oracle)) <= 1e-14 * np.max(np.abs(oracle))
        values = rng.standard_normal((5, 2, g.physical_resolution, g.physical_resolution))
        back = from_physical(g, values)
        oracle = helpers.complex_from_physical(g, values)
        assert np.max(np.abs(back - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("K, N", [(3, 12), (10, 32), (16, 50), (3, 11)])
    def test_from_physical_exactly_conjugate_symmetric(self, rng, K, N):
        g = SpectralGrid(K, N)
        values = rng.standard_normal((5, 2, g.physical_resolution, g.physical_resolution))
        out = from_physical(g, values)
        assert np.array_equal(out, np.conj(out[..., ::-1, ::-1]))

    @pytest.mark.parametrize("K", [3, 10])
    def test_advection_batch_invariant(self, rng, K):
        g = default_grid(K)
        u = _solenoidal_batch(g, rng, 256)
        v = _solenoidal_batch(g, rng, 256)
        self_full = advection_array(g, u, u)
        cross_full = advection_array(g, u, v)
        for lo, hi in ((0, 1), (100, 101), (0, 7), (249, 256)):
            x = u[lo:hi].copy()
            assert np.array_equal(advection_array(g, x, x), self_full[lo:hi])
            assert np.array_equal(advection_array(g, u[lo:hi], v[lo:hi]), cross_full[lo:hi])

    @pytest.mark.parametrize("K", [3, 10, 16])
    def test_self_path_matches_cross_path(self, rng, K):
        g = default_grid(K)
        u = _solenoidal_batch(g, rng, 7)
        ours = advection_array(g, u, u)
        gradient_form = advection_array(g, u, u.copy())
        assert np.max(np.abs(ours - gradient_form)) <= 1e-14 * np.max(np.abs(gradient_form))


class TestCurlFormSelfAdvection:
    # (4, 13) is the smallest grid with the product margin N >= 3K + 1 at K=4
    @pytest.mark.parametrize("K, N", [(3, 10), (3, 11), (4, 13), (10, 32), (16, 50)])
    def test_matches_convolution_oracle(self, rng, K, N):
        g = SpectralGrid(K, N)
        u = random_solenoidal_field(g, rng)
        ours = advection_array(g, u.coeffs, u.coeffs)
        oracle = helpers.advection_convolution(u, u)
        assert np.max(np.abs(ours - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("K, N", [(3, 10), (3, 11), (10, 32)])
    def test_exactly_symmetric_and_mean_free(self, rng, K, N):
        g = SpectralGrid(K, N)
        u = _solenoidal_batch(g, rng, 7)
        out = advection_array(g, u, u)
        assert np.array_equal(out, np.conj(out[..., ::-1, ::-1]))
        assert np.all(out[..., K, K] == 0.0)

    # odd N, the margin N = 3K + 1 (N = 10, 13) and the smallest grid (1, 4)
    @pytest.mark.parametrize(
        "K, N", [(1, 4), (3, 10), (3, 11), (4, 13), (10, 32), (10, 33), (16, 50)]
    )
    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_half_spectrum_matches_assembled_oracle(self, rng, K, N, batch):
        # the weights on the kx >= 0 columns plus a conjugate mirror give the
        # same values as the weights on the assembled whole mode square
        g = SpectralGrid(K, N)
        u = _solenoidal_batch(g, rng, batch)
        assert np.array_equal(advection_array(g, u, u), helpers.self_advection_assembled(g, u))

    def test_half_weights_are_read_only_column_blocks(self):
        g = SpectralGrid(3, 10)
        K = g.max_wavenumber
        for half, full in (
            (g.half_curl, np.stack([g.curl_b, g.curl_a])),
            (g.half_curl_k, np.stack([g.ky, -g.kx])),
        ):
            assert half.shape == (2, g.n_coeff, K + 1) and not half.flags.writeable
            assert np.array_equal(half, full[..., K:])

    def test_below_product_margin_rejected(self, rng):
        assert not SpectralGrid(4, 12).supports_products()
        assert SpectralGrid(4, 13).supports_products()
        g = SpectralGrid(4, 12)
        u = random_solenoidal_field(g, rng).coeffs
        with pytest.raises(GridConfigError, match="3K \\+ 1 = 13"):
            advection_array(g, u, u)


class TestNormPair:
    @pytest.mark.parametrize("shape", [(), (1,), (7, 3)])
    def test_equals_separate_norms_bitwise(self, rng, shape):
        g = default_grid(5)
        S = g.n_coeff
        c = rng.standard_normal(shape + (2, S, S)) + 1j * rng.standard_normal(shape + (2, S, S))
        h2, v2 = hv_norm_sq_array(g, c)
        assert np.array_equal(h2, h_norm_sq_array(g, c))
        assert np.array_equal(v2, v_norm_sq_array(g, c))


class TestSerialization:
    def test_round_trip(self, grid3, rng):
        u = random_solenoidal_field(grid3, rng)
        back = field_from_record(field_to_record(u))
        np.testing.assert_array_equal(back.coeffs, u.coeffs)

    def test_physical_transform_matches_mode_sum(self, rng):
        g = default_grid(2)
        u = random_solenoidal_field(g, rng)
        ours = to_physical(g, u.coeffs)
        oracle = helpers.eval_field(u, g.physical_resolution)
        assert np.max(np.abs(ours - oracle)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 5))
def test_property_operations_preserve_divergence(seed, K):
    g = default_grid(K)
    rng = np.random.default_rng(seed)
    u = random_solenoidal_field(g, rng)
    v = random_solenoidal_field(g, rng)
    for f in (u, v, advection_term(u, v), apply_stokes(u)):
        div, amp = divergence_defect(f)
        assert div <= 1e-12 * max(amp, 1e-300)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_trilinear_antisymmetry(seed):
    g = default_grid(3)
    rng = np.random.default_rng(seed)
    u = random_solenoidal_field(g, rng)
    v = random_solenoidal_field(g, rng)
    w = random_solenoidal_field(g, rng)
    assert abs(advection_form(u, v, w) + advection_form(u, w, v)) <= 1e-10 * (
        abs(advection_form(u, v, w)) + 1.0
    )
