"""Spectral operator tests against hand values and independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snse_lab.spectral import (
    FieldFormatError,
    GridConfigError,
    SpectralGrid,
    advection_array,
    advection_form,
    advection_term,
    apply_stokes,
    default_grid,
    divergence_defect,
    from_physical,
    abs_sq,
    full_spectrum,
    half_norms_sq,
    half_spectrum,
    leray_project,
    linearized_advection_adjoint_array,
    linearized_advection_array,
    norm_bundle,
    random_solenoidal_field,
    single_mode_field,
    taylor_green,
    to_physical,
    weighted_norm_sq,
    zero_field,
    TWO_PI,
    _curl_form,
    _padded_values,
)

from snse_lab.verification import advection_gradient_form

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
        g = helpers.advection_gradient_transpose(grid3, a.coeffs, y.coeffs)
        rhs = float(np.vdot(x.coeffs, g).real)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def _solenoidal_batch(grid, rng, batch):
    return np.stack([random_solenoidal_field(grid, rng).coeffs for _ in range(batch)])


class TestHalfSpectrum:
    @pytest.mark.parametrize("K", [1, 3, 10])
    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_full_spectrum_inverts_half(self, rng, K, batch):
        g = default_grid(K)
        c = _solenoidal_batch(g, rng, batch)
        half = half_spectrum(c)
        assert half.shape == (batch, 2, 2 * K + 1, K + 1)
        assert np.array_equal(full_spectrum(half), c)
        # into the array whose kx >= 0 columns the half already is
        out = c.copy()
        out[..., :K] = np.nan
        assert full_spectrum(half_spectrum(out), out=out) is out
        assert np.array_equal(out, c)

    @pytest.mark.parametrize("K", [1, 3, 10])
    def test_reject_each_others_shapes(self, rng, K):
        c = _solenoidal_batch(default_grid(K), rng, 2)
        with pytest.raises(ValueError):
            half_spectrum(half_spectrum(c))
        with pytest.raises(ValueError):
            full_spectrum(c)

    @pytest.mark.parametrize("K, N", [(1, 4), (1, 5), (3, 10), (3, 11), (10, 32), (10, 31)])
    def test_self_advection_of_half_is_half_of_full(self, rng, K, N):
        g = SpectralGrid(K, N)
        u = _solenoidal_batch(g, rng, 7)
        half = half_spectrum(u).copy()
        ours = advection_array(g, half, half)
        assert ours.shape == half.shape
        assert np.array_equal(ours, half_spectrum(advection_array(g, u, u)))


class TestRealTransforms:
    # the default grids (even N) and one odd N, whose half spectrum has no
    # Nyquist column
    @pytest.mark.parametrize("K, N", [(3, 12), (10, 32), (16, 50), (3, 11)])
    def test_match_complex_fft_oracle(self, rng, K, N):
        g = SpectralGrid(K, N)
        coeffs = helpers.symmetric_batch(g, rng, 5)
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
        gradient_form = advection_gradient_form(g, u, u.copy())
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
    GRIDS = [(1, 4), (3, 10), (3, 11), (4, 13), (10, 32), (10, 33), (16, 50)]

    @pytest.mark.parametrize("K, N", GRIDS)
    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_half_spectrum_matches_assembled_oracle(self, rng, K, N, batch):
        # the weights on the kx >= 0 columns plus a conjugate mirror give the
        # same values as the weights on the assembled whole mode square
        g = SpectralGrid(K, N)
        u = _solenoidal_batch(g, rng, batch)
        assert np.array_equal(advection_array(g, u, u), helpers.self_advection_assembled(g, u))

    @pytest.mark.parametrize("K, N", GRIDS)
    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_packed_field_matches_two_real_transforms(self, rng, K, N, batch):
        # one complex transform of u_x + i u_y against two real ones
        g = SpectralGrid(K, N)
        u = _solenoidal_batch(g, rng, batch)
        oracle = helpers.self_advection_half_spectrum(g, u)
        ours = advection_array(g, u, u)
        assert np.max(np.abs(ours - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("K, N", GRIDS)
    @pytest.mark.parametrize("batch", [1, 16, 64, 256])
    def test_padded_values_match_fill_by_parts(self, rng, K, N, batch):
        # the block filled from u_x + i u_y and the mirrored conj(u_x - i u_y),
        # each formed on the contiguous half, holds the same values as one
        # filled a real or imaginary part at a time
        g = SpectralGrid(K, N)
        u = half_spectrum(_solenoidal_batch(g, rng, batch))
        assert np.array_equal(_padded_values(g, u), helpers.padded_values_by_parts(g, u))

    def test_half_weights_are_read_only_column_blocks(self):
        # alpha, beta and (ky, -kx) on the kx >= 0 columns, and the phase
        # exp(-2 pi i (N//2)(x + y) / N) of the packed square, real +-1 for
        # even N; one even and one odd N
        for K, N in ((3, 10), (3, 11)):
            g = SpectralGrid(K, N)
            curl_a, curl_b = helpers.curl_weights(g)
            for half, full in (
                (g.half_alpha, 0.5j * curl_a + 0.25 * curl_b),
                (g.half_beta, 0.5j * curl_a - 0.25 * curl_b),
                (g.half_curl_k, np.stack([g.ky, -g.kx])),
                (g.half_weight, np.where(g.kx > 0, 2.0, 1.0)),
                (g.half_k2, np.where(g.kx > 0, 2.0, 1.0) * g.k2),
            ):
                assert half.shape[-2:] == (g.n_coeff, K + 1) and not half.flags.writeable
                assert np.array_equal(half, full[..., K:])
            xy = np.add.outer(np.arange(N), np.arange(N))
            phase = g.packed_phase
            assert phase.shape == (N, N) and not phase.flags.writeable
            assert np.iscomplexobj(phase) == bool(N % 2)
            assert np.allclose(phase, np.exp(-2j * np.pi * (N // 2) * xy / N), rtol=0, atol=1e-14)

    def test_self_call_peak_traced_allocation(self, rng):
        # one K=10, batch-256 call: the padded complex array (1.16 times the
        # 3.6 MB state) and the two (2K+1) x (K+1) temporaries of s, freed
        # before the output; 6.22 MB peak traced allocation on numpy 2.4
        # (13.0 MB for two real transforms), pinned with 5% margin
        g = default_grid(10)
        u = _solenoidal_batch(g, rng, 256)
        advection_array(g, u, u)  # FFT plans outside the trace
        tracemalloc.start()
        try:
            advection_array(g, u, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 6_217_608

    def test_below_product_margin_rejected(self, rng):
        assert not SpectralGrid(4, 12).supports_products()
        assert SpectralGrid(4, 13).supports_products()
        g = SpectralGrid(4, 12)
        u = random_solenoidal_field(g, rng).coeffs
        with pytest.raises(GridConfigError, match="3K \\+ 1 = 13"):
            advection_array(g, u, u)


def _on_full(kernel):
    """A kernel of kx >= 0 halves, called on full arrays: their halves in,
    the full mirror of its half out."""
    return lambda g, x, a: full_spectrum(kernel(g, half_spectrum(x).copy(), half_spectrum(a).copy()))


class TestLinearization:
    """B(x, a) + B(a, x) and its L2 adjoint, each one packed product on the
    padded grid, against the gradient-form pairs they replace.  The kernels
    take and return kx >= 0 halves; these checks mirror their outputs."""

    GRIDS = TestCurlFormSelfAdvection.GRIDS
    forward = staticmethod(_on_full(linearized_advection_array))
    adjoint = staticmethod(_on_full(linearized_advection_adjoint_array))

    @staticmethod
    def _fields(K, N, rng, batch):
        g = SpectralGrid(K, N)
        return g, _solenoidal_batch(g, rng, batch), random_solenoidal_field(g, rng).coeffs

    @pytest.mark.parametrize("K, N", GRIDS)
    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_matches_two_call_oracles(self, rng, K, N, batch):
        g, x, a = self._fields(K, N, rng, batch)
        oracle = advection_gradient_form(g, x, a) + advection_gradient_form(g, a, x)
        ours = self.forward(g, x, a)
        assert np.max(np.abs(ours - oracle)) <= 1e-14 * np.max(np.abs(oracle))
        # the adjoint of B(., a) is the gradient transpose, of B(a, .) -B(a, .)
        oracle = helpers.advection_gradient_transpose(g, a, x) - advection_gradient_form(g, a, x)
        ours = self.adjoint(g, x, a)
        assert np.max(np.abs(ours - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("K, N", GRIDS)
    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_dot_identity(self, rng, K, N, batch):
        # <L x, p> = <x, L^T p> per path, for divergence-free x and any
        # conjugate-symmetric p, relative to |L x| |p|
        g, x, a = self._fields(K, N, rng, batch)
        p = helpers.symmetric_batch(g, rng, batch)
        lx = self.forward(g, x, a)
        lhs = np.sum(np.conj(lx) * p, axis=(-3, -2, -1)).real
        rhs = np.sum(np.conj(x) * self.adjoint(g, p, a), axis=(-3, -2, -1)).real
        scale = np.sqrt(helpers.full_norm_sq(lx) * helpers.full_norm_sq(p)) / TWO_PI**2
        assert np.all(np.abs(lhs - rhs) <= 1e-13 * scale)

    @pytest.mark.parametrize("K, N", GRIDS)
    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_symmetric_mean_free_and_batch_invariant(self, rng, K, N, batch):
        g, x, a = self._fields(K, N, rng, batch)
        p = helpers.symmetric_batch(g, rng, batch)
        for kernel, arg in ((self.forward, x), (self.adjoint, p)):
            out = kernel(g, arg, a)
            assert np.array_equal(out, np.conj(out[..., ::-1, ::-1]))
            assert np.all(out[..., K, K] == 0.0)
            for lo, hi in ((0, 1), (batch - 1, batch), (batch // 2, batch)):
                assert np.array_equal(kernel(g, arg[lo:hi].copy(), a), out[lo:hi])


class TestCurlFormGeneralKernel:
    """B(a, b) and the shifted drift B(u, z) + B(z, u0), each one curl-form
    call with an antisymmetric part, against the gradient form."""

    GRIDS = TestCurlFormSelfAdvection.GRIDS

    @staticmethod
    def _check(ours, oracle, kernel, args):
        assert np.max(np.abs(ours - oracle)) <= 1e-14 * np.max(np.abs(oracle))
        batch = len(ours)
        for lo, hi in ((0, 1), (batch - 1, batch), (batch // 2, batch)):
            assert np.array_equal(kernel(*(x[lo:hi].copy() for x in args)), ours[lo:hi])

    @pytest.mark.parametrize("K, N", GRIDS)
    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_bilinear_matches_gradient_form(self, rng, K, N, batch):
        g = SpectralGrid(K, N)
        a, b = _solenoidal_batch(g, rng, batch), _solenoidal_batch(g, rng, batch)
        ours = advection_array(g, a, b)
        self._check(ours, advection_gradient_form(g, a, b),
                    lambda a, b: advection_array(g, a, b), (a, b))
        # the halves give the half of the full result
        half = advection_array(g, half_spectrum(a).copy(), half_spectrum(b).copy())
        assert np.array_equal(half, half_spectrum(ours))

    @pytest.mark.parametrize("K, N", GRIDS)
    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_shifted_drift_matches_gradient_form(self, rng, K, N, batch):
        g = SpectralGrid(K, N)
        u, z = _solenoidal_batch(g, rng, batch), _solenoidal_batch(g, rng, batch)
        u0 = random_solenoidal_field(g, rng).coeffs

        def drift(u, z):
            u, z, v0 = half_spectrum(u), half_spectrum(z), half_spectrum(u0)
            return full_spectrum(_curl_form(g, z, u + v0, d=v0 - u))

        oracle = advection_gradient_form(g, u, z) + advection_gradient_form(g, z, u0)
        ours = drift(u, z)
        assert np.array_equal(ours, np.conj(ours[..., ::-1, ::-1]))
        assert np.all(ours[..., K, K] == 0.0)
        self._check(ours, oracle, drift, (u, z))


class TestNormPair:
    @pytest.mark.parametrize("shape", [(), (1,), (7, 3)])
    def test_equals_separate_norms_bitwise(self, rng, shape):
        g = default_grid(5)
        S = g.n_coeff
        c = helpers.symmetric_batch(g, rng, math.prod(shape)).reshape(shape + (2, S, S))
        half = half_spectrum(c)
        h2, v2 = half_norms_sq(g, half)
        assert np.array_equal(h2, weighted_norm_sq(abs_sq(half), g.half_weight))
        assert np.array_equal(v2, weighted_norm_sq(abs_sq(half), g.half_k2))


class TestHalfSpectrumNorms:
    @pytest.mark.parametrize("K", [1, 3, 10])
    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_match_full_spectrum_oracle(self, rng, K, batch):
        # the kx >= 0 columns, kx > 0 counted twice, against the sum over
        # every mode of a conjugate-symmetric batch
        g = default_grid(K)
        c = helpers.symmetric_batch(g, rng, batch)
        h2, v2 = half_norms_sq(g, half_spectrum(c))
        np.testing.assert_allclose(h2, helpers.full_norm_sq(c), rtol=1e-14, atol=0)
        np.testing.assert_allclose(v2, helpers.full_norm_sq(c, g.k2), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("K", [1, 3, 10])
    def test_rows_bitwise_batch_invariant(self, rng, K):
        # a path's norms do not depend on the batch it is stepped in
        g = default_grid(K)
        c = half_spectrum(helpers.symmetric_batch(g, rng, 256))
        h2, v2 = half_norms_sq(g, c)
        for lo, hi in ((0, 1), (3, 10), (100, 256)):
            part = half_norms_sq(g, c[lo:hi])
            assert np.array_equal(part[0], h2[lo:hi]) and np.array_equal(part[1], v2[lo:hi])


class TestSerialization:
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
