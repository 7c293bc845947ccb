"""Divergence-free spectral velocity fields on the periodic torus [0, 2*pi)^2.

Fields are truncated Fourier series over the square mode set |kx|, |ky| <= K
with the zero mode removed (mean-free), stored as centered coefficient arrays
of shape (2, 2K+1, 2K+1).  The convention is

    u_c(x, y) = sum_k  coeffs[c, K + ky, K + kx] * exp(i (kx x + ky y)),

with conjugate symmetry coeffs(-k) = conj(coeffs(k)) so that velocities are
real.  All operators in this module are pure functions; nonlinear products are
evaluated pseudo-spectrally on an N x N grid with the truncation back to the
retained modes acting as the 2/3-rule dealiasing step.

The grid transforms are real-to-complex.  They work on the half spectrum of a
real N x N array, shape (..., N, N//2 + 1), whose entry [ky mod N, kx] holds
the coefficient of mode (kx, ky) for kx >= 0 only; the kx < 0 half is implied
by conjugate symmetry.  Conjugate symmetry of the coefficients is therefore a
precondition of every transform: `to_physical` reads only the kx >= 0 half and
`from_physical` writes the kx < 0 half as its conjugate mirror.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Relative tolerances for structural validation of incoming coefficient data.
SYMMETRY_RTOL = 1e-10
DIVERGENCE_RTOL = 1e-10


class FieldFormatError(ValueError):
    """Malformed spectral data: broken conjugate symmetry, shape, or mean."""


class GridConfigError(ValueError):
    """Grid cannot support the requested operation (e.g. dealiasing margin)."""


@dataclass(frozen=True)
class SpectralGrid:
    """Truncated Fourier lattice on the 2*pi-periodic square.

    Parameters
    ----------
    max_wavenumber : int
        Cutoff K; retained modes are k in Z^2 with |kx|, |ky| <= K, k != 0.
    physical_resolution : int
        Quadrature/dealiasing grid size N.  Must satisfy N >= 2(K+1); forming
        nonlinear products additionally requires N >= 3K + 1, so that no mode
        of a product (|k| <= 2K per axis) aliases onto a retained one.
    """

    max_wavenumber: int
    physical_resolution: int

    def __post_init__(self):
        K, N = self.max_wavenumber, self.physical_resolution
        if K < 1:
            raise GridConfigError(f"max_wavenumber must be >= 1, got {K}")
        if N < 2 * (K + 1):
            raise GridConfigError(
                f"physical_resolution {N} < 2(K+1) = {2 * (K + 1)}: "
                "quadrature grid cannot resolve the retained modes"
            )
        S = 2 * K + 1
        order = np.arange(-K, K + 1)
        kx = np.broadcast_to(order[None, :], (S, S)).copy()
        ky = np.broadcast_to(order[:, None], (S, S)).copy()
        k2 = (kx**2 + ky**2).astype(np.float64)
        k2safe = np.where(k2 > 0, k2, 1.0)
        # weights of the curl-form self-advection, both 0 at k = 0
        curl_a = kx * ky / k2safe
        curl_b = (ky**2 - kx**2) / k2safe
        # the kx >= 0 columns, where self-advection is formed, of the weights
        # (b, a) of (q0, q1) and of the output factors (ky, -kx), each stacked
        # for one operation over both
        half_curl = np.stack([curl_b, curl_a])[:, :, K:].copy()
        half_curl_k = np.stack([ky, -kx])[:, :, K:].copy()
        for name, arr in (
            ("kx", kx), ("ky", ky), ("k2", k2), ("curl_a", curl_a), ("curl_b", curl_b),
            ("half_curl", half_curl), ("half_curl_k", half_curl_k),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_coeff(self) -> int:
        return 2 * self.max_wavenumber + 1

    def supports_products(self) -> bool:
        return self.physical_resolution >= 3 * self.max_wavenumber + 1


def default_grid(max_wavenumber: int) -> SpectralGrid:
    """Grid with an even N large enough for exactly dealiased products."""
    K = max_wavenumber
    N = max(3 * K + 2, 2 * (K + 1))
    if N % 2:
        N += 1
    return SpectralGrid(K, N)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Immutable divergence-free velocity field in spectral representation."""

    grid: SpectralGrid
    coeffs: np.ndarray  # (2, S, S) complex128

    def __post_init__(self):
        S = self.grid.n_coeff
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if c.shape != (2, S, S):
            raise FieldFormatError(f"coefficient shape {c.shape} != (2, {S}, {S})")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def copy_coeffs(self) -> np.ndarray:
        out = self.coeffs.copy()
        out.setflags(write=True)
        return out


def _check_symmetry(grid: SpectralGrid, coeffs: np.ndarray) -> None:
    scale = np.max(np.abs(coeffs))
    defect = np.max(np.abs(coeffs - np.conj(coeffs[..., ::-1, ::-1])))
    if defect > SYMMETRY_RTOL * max(scale, 1e-300):
        raise FieldFormatError(
            f"conjugate symmetry violated: defect {defect:.3e} vs scale {scale:.3e}"
        )
    K = grid.max_wavenumber
    mean = np.max(np.abs(coeffs[..., K, K]))
    if mean > SYMMETRY_RTOL * max(scale, 1e-300):
        raise FieldFormatError(f"zero mode must vanish (|mean| = {mean:.3e})")


def divergence_defect(field: SpectralField) -> tuple[float, float]:
    """Return (max_k |k . u_k|, max_k |u_k|) for divergence diagnostics."""
    g, c = field.grid, field.coeffs
    div = g.kx * c[0] + g.ky * c[1]
    return float(np.max(np.abs(div))), float(np.max(np.abs(c)))


def worst_divergence_mode(field: SpectralField) -> tuple[int, int, float]:
    """Mode (kx, ky) with the largest divergence amplitude, plus that amplitude."""
    g, c = field.grid, field.coeffs
    div = np.abs(g.kx * c[0] + g.ky * c[1])
    iy, ix = np.unravel_index(int(np.argmax(div)), div.shape)
    K = g.max_wavenumber
    return ix - K, iy - K, float(div[iy, ix])


def leray_project_array(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Mode-wise projection onto k-orthogonal amplitudes, mean mode zeroed;
    batched over leading axes."""
    kx, ky, k2 = grid.kx, grid.ky, grid.k2
    k2safe = np.where(k2 > 0, k2, 1.0)
    kdot = (kx * coeffs[..., 0, :, :] + ky * coeffs[..., 1, :, :]) / k2safe
    out = np.empty_like(coeffs)
    out[..., 0, :, :] = coeffs[..., 0, :, :] - kdot * kx
    out[..., 1, :, :] = coeffs[..., 1, :, :] - kdot * ky
    K = grid.max_wavenumber
    out[..., :, K, K] = 0.0
    return out


def leray_project(grid: SpectralGrid, raw: np.ndarray) -> SpectralField:
    """Project raw conjugate-symmetric coefficients onto divergence-free fields.

    The discarded part is mode-wise parallel to k (a pure gradient).  Raises
    FieldFormatError if the input is not conjugate symmetric.
    """
    raw = np.asarray(raw, dtype=np.complex128)
    _check_symmetry(grid, raw)
    return SpectralField(grid, leray_project_array(grid, raw))


def apply_stokes(field: SpectralField) -> SpectralField:
    """Multiply each mode by |k|^2 (the dissipation operator on this basis)."""
    return SpectralField(field.grid, field.coeffs * field.grid.k2)


def _inverse_half(grid: SpectralGrid, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid values of conjugate-symmetric coefficients (..., S, S), and the
    half-spectrum buffer (..., N, N//2 + 1) they were inverted from.

    The kx >= 0 columns fill columns 0..K of the half spectrum, rows ky mod N;
    the complex pass along y runs in place on those K + 1 columns only (the
    others are zero), then the real pass along x.  The buffer is spent once
    the values exist, so a caller may write a forward transform into it.
    """
    K, N = grid.max_wavenumber, grid.physical_resolution
    half = np.zeros(coeffs.shape[:-2] + (N, N // 2 + 1), dtype=np.complex128)
    cols = half[..., : K + 1]
    cols[..., : K + 1, :] = coeffs[..., K:, K:]
    cols[..., N - K :, :] = coeffs[..., :K, K:]
    np.fft.ifft(cols, axis=-2, norm="forward", out=cols)
    return np.fft.irfft(half, n=N, axis=-1, norm="forward"), half


def _forward_columns(grid: SpectralGrid, values: np.ndarray, out=None) -> np.ndarray:
    """Columns kx = 0..K, all N rows ky mod N, of the half spectrum of real
    grid data (..., N, N): the real pass along x (into `out` if given), then
    the complex pass along y in place on the kept columns only."""
    half = np.fft.rfft(values, axis=-1, norm="forward", out=out)
    cols = half[..., : grid.max_wavenumber + 1]
    # in place: a fresh output array page-faults on every call at batch 256
    np.fft.fft(cols, axis=-2, norm="forward", out=cols)
    return cols


def to_physical(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Evaluate coefficient arrays (..., S, S) on the N x N grid (batched).

    The coefficients must be conjugate symmetric, coeffs(-k) = conj(coeffs(k)):
    only the kx >= 0 columns are read.  The transform is a complex inverse
    FFT along y on the K + 1 retained columns of the half spectrum, then a
    real inverse FFT along x (`_inverse_half`).
    """
    return _inverse_half(grid, coeffs)[0]


def from_physical(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """Fourier coefficients of real grid data, truncated to the retained modes.

    The kx >= 0 half is read from a real FFT along x followed by a complex FFT
    along y on the kept columns 0..K only.  The rest is its conjugate mirror,
    so the output is exactly conjugate symmetric.
    """
    K, N = grid.max_wavenumber, grid.physical_resolution
    cols = _forward_columns(grid, values)
    S = grid.n_coeff
    out = np.empty(cols.shape[:-2] + (S, S), dtype=np.complex128)
    out[..., K:, K:] = cols[..., : K + 1, :]
    out[..., :K, K + 1 :] = cols[..., N - K :, 1:]
    np.conjugate(cols[..., K:0:-1, 0], out=out[..., :K, K])
    np.conjugate(out[..., ::-1, :K:-1], out=out[..., :, :K])
    return out


def _check_product_margin(grid: SpectralGrid) -> None:
    if not grid.supports_products():
        raise GridConfigError(
            f"physical_resolution {grid.physical_resolution} < 3K + 1 = "
            f"{3 * grid.max_wavenumber + 1}: dealiasing margin violated"
        )


def _self_advection(grid: SpectralGrid, u: np.ndarray) -> np.ndarray:
    """P div(u u) of divergence-free u (..., 2, S, S) in curl form, formed on
    the kx >= 0 columns and mirrored onto the kx < 0 ones."""
    K, N = grid.max_wavenumber, grid.physical_resolution
    u_phys, half = _inverse_half(grid, u)
    ux, uy = u_phys[..., 0, :, :], u_phys[..., 1, :, :]
    # both products go straight into one array; u_phys is ours to reuse
    q = np.empty_like(u_phys)
    np.multiply(ux, uy, out=q[..., 0, :, :])
    np.subtract(ux, uy, out=q[..., 1, :, :])
    ux += uy
    q[..., 1, :, :] *= ux
    # grid-space buffers are freed as soon as they are spent: a lower peak
    del u_phys, ux, uy
    # the forward transform reuses the inverse's spent half-spectrum buffer
    cols = _forward_columns(grid, q, out=half)
    del q
    # the kx = 0 entries of rows ky < 0 are the conjugate mirror of ky = K..1,
    # as in `from_physical`
    np.conjugate(cols[..., K:0:-1, 0], out=cols[..., N - K :, 0])
    # s = i (a q1 + b q0) on rows ky = 0..K (FFT rows 0..K) and on rows
    # ky = -K..-1 (FFT rows N-K..N-1)
    s = np.empty(cols.shape[:-3] + (grid.n_coeff, K + 1), dtype=np.complex128)
    for rows, src in ((slice(K, None), slice(None, K + 1)), (slice(None, K), slice(N - K, None))):
        bq0_aq1 = grid.half_curl[:, rows] * cols[..., src, :]
        np.add(bq0_aq1[..., 1, :, :], bq0_aq1[..., 0, :, :], out=s[..., rows, :])
    s *= 1j
    out = np.empty(u.shape, dtype=np.complex128)
    np.multiply(grid.half_curl_k, s[..., None, :, :], out=out[..., K:])
    np.conjugate(out[..., ::-1, :K:-1], out=out[..., :, :K])
    return out


def advection_array(grid: SpectralGrid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dealiased, projected advective product P((u . grad) v) on coefficient arrays.

    Batched over leading axes.  Exact Galerkin truncation for N >= 3K + 1.
    Self-advection (`v is u`, the stepper's call) requires a divergence-free u
    and is formed in curl (stream-function) form: two inverse transforms, the
    products q0 = u_x u_y and q1 = (u_x - u_y)(u_x + u_y) = u_x^2 - u_y^2, two
    forward transforms, then s = i (a q1 + b q0) with a = kx ky / |k|^2 and
    b = (ky^2 - kx^2) / |k|^2, and the result (ky s, -kx s), which is
    P div(u u) exactly.  The weights are applied on the kx >= 0 columns only,
    read straight from the transform's rows, and the kx < 0 columns are their
    conjugate mirror, so the result is divergence free, mean free and exactly
    conjugate symmetric by construction and no projection pass follows.
    Other pairs take the gradient form, u_x dv/dx + u_y dv/dy, with no
    condition on div u, and are Leray projected.
    """
    _check_product_margin(grid)
    if v is u:
        return _self_advection(grid, u)
    u_phys = to_physical(grid, u)
    dvdx = to_physical(grid, 1j * grid.kx * v)
    dvdy = to_physical(grid, 1j * grid.ky * v)
    w = u_phys[..., 0:1, :, :] * dvdx + u_phys[..., 1:2, :, :] * dvdy
    return leray_project_array(grid, from_physical(grid, w))


def advection_term(u: SpectralField, v: SpectralField) -> SpectralField:
    """Projected advection P((u . grad) v); bilinear in (u, v)."""
    if u.grid != v.grid:
        raise GridConfigError("advection_term requires a common grid")
    return SpectralField(u.grid, advection_array(u.grid, u.coeffs, v.coeffs))


def advection_gradient_transpose_array(
    grid: SpectralGrid, a: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Projected field with components sum_j (d_i a_j) y_j (batched).

    This is the L2 adjoint of x -> P((x . grad) a) on divergence-free fields,
    used by the adjoint sweep of the controlled linearization.
    """
    _check_product_margin(grid)
    dadx = to_physical(grid, 1j * grid.kx * a)
    dady = to_physical(grid, 1j * grid.ky * a)
    y_phys = to_physical(grid, y)
    g = np.stack(
        [
            np.sum(dadx * y_phys, axis=-3),
            np.sum(dady * y_phys, axis=-3),
        ],
        axis=-3,
    )
    return leray_project_array(grid, from_physical(grid, g))


def advection_form(u: SpectralField, v: SpectralField, w: SpectralField) -> float:
    """Trilinear form integral of (u . grad) v . w over the torus.

    Antisymmetric in its last two slots for divergence-free arguments.
    """
    grid = u.grid
    if not (grid == v.grid == w.grid):
        raise GridConfigError("advection_form requires a common grid")
    ikx = 1j * grid.kx
    iky = 1j * grid.ky
    u_phys = to_physical(grid, u.coeffs)
    w_phys = to_physical(grid, w.coeffs)
    dvdx = to_physical(grid, ikx * v.coeffs)
    dvdy = to_physical(grid, iky * v.coeffs)
    integrand = (u_phys[0] * dvdx + u_phys[1] * dvdy) * w_phys
    return float(integrand.sum() / integrand[0].size * TWO_PI**2)


def curl(field: SpectralField) -> np.ndarray:
    """Scalar vorticity coefficients i (kx u_y - ky u_x), shape (S, S)."""
    g, c = field.grid, field.coeffs
    return 1j * (g.kx * c[1] - g.ky * c[0])


def scalar_l2_norm(grid: SpectralGrid, coeffs: np.ndarray) -> float:
    """L2 norm of a scalar spectral field via Parseval."""
    return float(np.sqrt(TWO_PI**2 * np.sum(np.abs(coeffs) ** 2)))


def weighted_norm_sq(a2: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
    """(2 pi)^2 sum_k weight_k a2_k over the (2, S, S) axes, batched.

    `a2` is |c|^2 of a state, computed once and shared by every norm of it.
    """
    return TWO_PI**2 * np.sum(a2 if weight is None else weight * a2, axis=(-3, -2, -1))


def h_norm_sq_array(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Squared L2 velocity norm, batched: (..., 2, S, S) -> (...)."""
    return weighted_norm_sq(np.abs(coeffs) ** 2)


def v_norm_sq_array(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Squared gradient norm, batched."""
    return weighted_norm_sq(np.abs(coeffs) ** 2, grid.k2)


def hv_norm_sq_array(grid: SpectralGrid, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both squared norms, (h_norm_sq_array, v_norm_sq_array), from one |c|^2."""
    a2 = np.abs(coeffs)
    a2 *= a2
    h2 = weighted_norm_sq(a2)
    a2 *= grid.k2
    return h2, weighted_norm_sq(a2)


@dataclass(frozen=True)
class NormBundle:
    """The three norms carried by every field: L2, gradient, and L4."""

    h_norm: float
    v_norm: float
    l4_norm: float

    @property
    def h_norm_sq(self) -> float:
        return self.h_norm**2

    @property
    def v_norm_sq(self) -> float:
        return self.v_norm**2


def norm_bundle(field: SpectralField) -> NormBundle:
    """L2 and gradient norms by Parseval; L4 by quadrature at resolution N."""
    g, c = field.grid, field.coeffs
    h2, v2 = hv_norm_sq_array(g, c)
    phys = to_physical(g, c)
    speed_sq = phys[0] ** 2 + phys[1] ** 2
    l4_4 = float(np.mean(speed_sq**2) * TWO_PI**2)
    return NormBundle(float(np.sqrt(h2)), float(np.sqrt(v2)), l4_4**0.25)


def zero_field(grid: SpectralGrid) -> SpectralField:
    S = grid.n_coeff
    return SpectralField(grid, np.zeros((2, S, S), dtype=np.complex128))


def _symmetrize(coeffs: np.ndarray) -> np.ndarray:
    return 0.5 * (coeffs + np.conj(coeffs[..., ::-1, ::-1]))


def single_mode_field(
    grid: SpectralGrid, k: tuple[int, int], amplitude
) -> SpectralField:
    """Real field from one conjugate mode pair: coeff `amplitude` at +k.

    The amplitude (complex 2-vector) is Leray-projected, so any input yields a
    valid divergence-free field; passing an amplitude parallel to k gives zero.
    """
    kx, ky = k
    K = grid.max_wavenumber
    if not (abs(kx) <= K and abs(ky) <= K) or (kx == 0 and ky == 0):
        raise GridConfigError(f"mode {k} outside the retained set for K={K}")
    S = grid.n_coeff
    raw = np.zeros((2, S, S), dtype=np.complex128)
    amp = np.asarray(amplitude, dtype=np.complex128).reshape(2)
    raw[:, K + ky, K + kx] = amp
    raw[:, K - ky, K - kx] = np.conj(amp)
    return SpectralField(grid, leray_project_array(grid, raw))


def taylor_green(grid: SpectralGrid, amplitude: float = 1.0) -> SpectralField:
    """Taylor-Green vortex (sin x cos y, -cos x sin y): a steady-advection field."""
    K = grid.max_wavenumber
    if K < 1:
        raise GridConfigError("Taylor-Green needs K >= 1")
    S = grid.n_coeff
    c = np.zeros((2, S, S), dtype=np.complex128)
    a = amplitude / 4.0
    for sx in (1, -1):
        for sy in (1, -1):
            # u1 = sin x cos y, u2 = -cos x sin y expanded in exponentials
            c[0, K + sy, K + sx] = -1j * a * sx
            c[1, K + sy, K + sx] = 1j * a * sy
    return SpectralField(grid, c)


def random_solenoidal_field(
    grid: SpectralGrid,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    decay: float = 2.0,
) -> SpectralField:
    """Random divergence-free field with |k|^-decay spectral falloff."""
    S = grid.n_coeff
    raw = rng.standard_normal((2, S, S)) + 1j * rng.standard_normal((2, S, S))
    k2safe = np.where(grid.k2 > 0, grid.k2, 1.0)
    raw *= amplitude * k2safe ** (-decay / 2.0)
    raw = _symmetrize(raw)
    K = grid.max_wavenumber
    raw[:, K, K] = 0.0
    return SpectralField(grid, leray_project_array(grid, raw))


def field_to_record(field: SpectralField) -> dict:
    """Flat JSON-serializable record: grid header + interleaved coefficients."""
    c = field.coeffs
    flat = np.empty(c.size * 2, dtype=np.float64)
    flat[0::2] = c.real.ravel()
    flat[1::2] = c.imag.ravel()
    return {
        "max_wavenumber": field.grid.max_wavenumber,
        "physical_resolution": field.grid.physical_resolution,
        "coeffs_interleaved": flat.tolist(),
    }


def field_from_record(record: dict) -> SpectralField:
    grid = SpectralGrid(record["max_wavenumber"], record["physical_resolution"])
    S = grid.n_coeff
    flat = np.asarray(record["coeffs_interleaved"], dtype=np.float64)
    if flat.size != 2 * 2 * S * S:
        raise FieldFormatError("coefficient record has wrong length")
    c = (flat[0::2] + 1j * flat[1::2]).reshape(2, S, S)
    _check_symmetry(grid, c)
    return SpectralField(grid, c)
