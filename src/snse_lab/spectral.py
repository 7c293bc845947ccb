"""Divergence-free spectral velocity fields on the periodic torus [0, 2*pi)^2.

Fields are truncated Fourier series over the square mode set |kx|, |ky| <= K
with the zero mode removed (mean-free).  At the edges of the package a field
is a centered coefficient array of shape (2, 2K+1, 2K+1), with the convention

    u_c(x, y) = sum_k  coeffs[c, K + ky, K + kx] * exp(i (kx x + ky y)),

and conjugate symmetry coeffs(-k) = conj(coeffs(k)) so that velocities are
real.  All operators in this module are pure functions; nonlinear products are
evaluated pseudo-spectrally on an N x N grid with the truncation back to the
retained modes acting as the 2/3-rule dealiasing step.

A divergence-free, mean-free mode has one degree of freedom: with the stream
function psi, u_k = i (ky, -kx) psi_k.  Inside the package a field is held as
the scalar c_k = |k| psi_k = -i (ky u_x - kx u_y) / |k| on the kx >= 0
columns, shape (..., S, K + 1), c = 0 at k = 0; then u_k = i (ky, -kx) c_k / |k|
(`SpectralGrid.half_velocity`) and |u_k|^2 = |c_k|^2.  c is conjugate
symmetric as the transform of a real field is, so its kx >= 0 columns hold
all of it: `half_spectrum` takes them and `full_spectrum` mirrors them back.
This scalar half is the one layout that arrays hold inside the package: the
stepper's states, noise and advection, every trajectory's frames, the
controlled skeleton and its adjoint, the observers' references and targets,
and the probe's frames.  `to_scalar` takes a two-component field to it and
`to_velocity` expands it back.  Two-component arrays exist only at the
edges: `SpectralField` (so the config's initial and forcing fields),
`Trajectory.field_at`, the trajectory files, the field-level rows of the
invariant suite, and the full arrays that the benchmark's kernels pass to
`advection_array` (which also takes scalar halves, the stepper's call),
`to_physical` (the moment report's L4 integral expands u0's frames once for
it), `from_physical`, `leray_project_array` and the noise map's
`sigma_apply_array` and `sigma_adjoint_array`.

The grid transforms are real-to-complex.  They work on the half spectrum of a
real N x N array, shape (..., N, N//2 + 1), whose entry [ky mod N, kx] holds
the coefficient of mode (kx, ky) for kx >= 0 only; the kx < 0 half is implied
by conjugate symmetry.  Conjugate symmetry of the coefficients is therefore a
precondition of every transform: `to_physical` reads only the kx >= 0 half and
`from_physical` writes the kx < 0 half as its conjugate mirror.  The
exception is the one kernel of every advection product (`_curl_form`), which
transforms complex fields such as u_x + i u_y on a full N x N grid with their
modes centered (`_padded_values`); such a field is a fixed factor per mode
times c, packed from the kx >= 0 half of c, its kx < 0 block columns from the
conjugate mirror.  Conjugate symmetry is a precondition of the squared norms
as well: by Parseval they read only the kx >= 0 columns of c, with weights
that count kx > 0 twice and kx = 0 once (`SpectralGrid.half_weight`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Relative tolerances for structural validation of incoming coefficient data.
SYMMETRY_RTOL = 1e-10


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
        # 1/|k|, 0 at k = 0: every scalar factor below vanishes at the mean
        inv_k = np.where(k2 > 0, 1.0 / np.sqrt(np.where(k2 > 0, k2, 1.0)), 0.0)
        # on the kx >= 0 columns, where every scalar is held: the velocity
        # i (ky, -kx) / |k| of a unit c, and 1 / |k|
        half_velocity = (1j * np.stack([ky, -kx]) * inv_k)[:, :, K:].copy()
        half_inv_k = inv_k[:, K:].copy()
        # the packed complex fields of `_padded_values`, each a factor times
        # c on the kx >= 0 columns and the conjugate of a mirror factor times
        # c, read at -k, on the kx < 0 ones: w = u_x + i u_y of the velocity
        # (its conjugate packs -conj(w), that of (-u_x, u_y)), and
        # D_xx + i D_xy of its symmetric gradient D
        pack = (kx + 1j * ky) * inv_k
        strain = -(kx * ky + 0.5j * (ky**2 - kx**2)) * inv_k
        velocity_pack = np.stack([pack, -np.conjugate(pack)])[:, :, K:].copy()
        strain_pack = np.stack([strain, np.conjugate(strain)])[:, :, K:].copy()
        # the curl-form product's output -i |k| s, s = A Q(k) + conj(A) conj Q(-k)
        # + (conj R(-k) - R(k)) / 4, folded into its weights: -i |k| A with
        # A = i a/2 + b/4, a = kx ky / |k|^2, b = (ky^2 - kx^2) / |k|^2, and
        # -i |k| / 4; all 0 at k = 0
        half_alpha = (0.5 * kx * ky * inv_k - 0.25j * (ky**2 - kx**2) * inv_k)[:, K:].copy()
        half_anti = (-0.25j * np.sqrt(k2))[:, K:].copy()
        # Parseval on the kx >= 0 columns of a conjugate-symmetric field:
        # kx > 0 counted twice, for its kx < 0 mirror, and kx = 0 once
        half_weight = np.where(kx[:, K:] > 0, 2.0, 1.0)
        half_k2 = half_weight * k2[:, K:]
        # exp(-2 pi i (N//2) (x + y) / N) at grid indices (y, x): takes the
        # square of centered grid values to a centered forward transform;
        # (-1)^(x + y) for even N
        xy = np.add.outer(np.arange(N), np.arange(N))
        if N % 2:
            packed_phase = np.exp(-2j * np.pi * ((N // 2) * xy % N) / N)
        else:
            packed_phase = 1.0 - 2.0 * (xy % 2)
        for name, arr in (
            ("kx", kx), ("ky", ky), ("k2", k2), ("half_velocity", half_velocity),
            ("half_inv_k", half_inv_k), ("velocity_pack", velocity_pack),
            ("strain_pack", strain_pack), ("half_alpha", half_alpha), ("half_anti", half_anti),
            ("half_weight", half_weight), ("half_k2", half_k2),
            ("packed_phase", packed_phase),
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
    batched over leading axes of full arrays (..., 2, S, S):
    coeffs - k (k . coeffs) / |k|^2 per mode."""
    K = grid.max_wavenumber
    kx, ky = grid.kx, grid.ky
    k2safe = np.where(grid.k2 > 0, grid.k2, 1.0)
    kdot = (kx * coeffs[..., 0, :, :] + ky * coeffs[..., 1, :, :]) / k2safe
    out = np.empty_like(coeffs)
    out[..., 0, :, :] = coeffs[..., 0, :, :] - kdot * kx
    out[..., 1, :, :] = coeffs[..., 1, :, :] - kdot * ky
    out[..., :, K, K] = 0.0
    return out


def to_scalar(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """The scalar half c = -i (ky u_x - kx u_y) / |k|, (..., S, K + 1), of
    full two-component arrays (..., 2, S, S); c = 0 at k = 0.  It keeps the
    divergence-free part of u and drops the rest, a gradient."""
    h = half_spectrum(coeffs)
    K = grid.max_wavenumber
    c = grid.ky[:, K:] * h[..., 0, :, :]
    c -= np.multiply(grid.kx[:, K:], h[..., 1, :, :])
    c *= grid.half_inv_k
    return np.multiply(c, -1j, out=c)


def to_velocity(grid: SpectralGrid, c: np.ndarray) -> np.ndarray:
    """The full two-component arrays (..., 2, S, S) of scalar halves c
    (..., S, K + 1): u_k = i (ky, -kx) c_k / |k| on the kx >= 0 columns,
    mirrored onto kx < 0.  The inverse of `to_scalar` on divergence-free
    fields, and the expansion every edge of the package emits."""
    K = grid.max_wavenumber
    out = np.empty(c.shape[:-2] + (2, 2 * K + 1, 2 * K + 1), dtype=np.complex128)
    half = np.multiply(grid.half_velocity, c[..., None, :, :], out=out[..., K:])
    return full_spectrum(half, out=out)


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


def to_physical(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Evaluate coefficient arrays (..., S, S) on the N x N grid (batched).

    The coefficients must be conjugate symmetric, coeffs(-k) = conj(coeffs(k)):
    only the kx >= 0 columns are read.  They fill columns 0..K of the half
    spectrum (..., N, N//2 + 1), rows ky mod N; the complex inverse FFT along
    y runs in place on those K + 1 columns only (the others are zero), then
    the real inverse FFT along x.
    """
    K, N = grid.max_wavenumber, grid.physical_resolution
    half = np.zeros(coeffs.shape[:-2] + (N, N // 2 + 1), dtype=np.complex128)
    cols = half[..., : K + 1]
    cols[..., : K + 1, :] = coeffs[..., K:, K:]
    cols[..., N - K :, :] = coeffs[..., :K, K:]
    np.fft.ifft(cols, axis=-2, norm="forward", out=cols)
    return np.fft.irfft(half, n=N, axis=-1, norm="forward")


def from_physical(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """Fourier coefficients of real grid data, truncated to the retained modes.

    The kx >= 0 half is read from a real FFT along x followed by a complex FFT
    along y, in place on the kept columns 0..K only.  The rest is its
    conjugate mirror, so the output is exactly conjugate symmetric.
    """
    K, N = grid.max_wavenumber, grid.physical_resolution
    cols = np.fft.rfft(values, axis=-1, norm="forward")[..., : K + 1]
    # in place: a fresh output array page-faults on every call at batch 256
    np.fft.fft(cols, axis=-2, norm="forward", out=cols)
    S = grid.n_coeff
    out = np.empty(cols.shape[:-2] + (S, S), dtype=np.complex128)
    half = out[..., K:]
    half[..., K:, :] = cols[..., : K + 1, :]
    half[..., :K, 1:] = cols[..., N - K :, 1:]
    np.conjugate(cols[..., K:0:-1, 0], out=half[..., :K, 0])
    return full_spectrum(half, out=out)


def _check_product_margin(grid: SpectralGrid) -> None:
    if not grid.supports_products():
        raise GridConfigError(
            f"physical_resolution {grid.physical_resolution} < 3K + 1 = "
            f"{3 * grid.max_wavenumber + 1}: dealiasing margin violated"
        )


def _padded_values(grid: SpectralGrid, c: np.ndarray, pack: np.ndarray) -> np.ndarray:
    """Grid values of the complex field packed from conjugate-symmetric
    scalar halves c (..., S, K + 1) by `pack`, one of the grid's
    (2, S, K + 1) factor pairs (`SpectralGrid.velocity_pack`, its
    conjugate, `strain_pack`), in the one padded (..., N, N) complex array
    that it is transformed in.

    Mode k of the field sits at index k + N//2 on both axes, a contiguous
    block.  Its kx >= 0 columns are pack[0] c, and its kx < 0 columns the
    conjugate of pack[1] c read at -k: for w = u_x + i u_y, conj(u_x - i u_y)
    of the conjugate mirror u(k) = conj u(-k).  Each is written into the
    block once, the mirror from reversed views and conjugated in place.  The
    inverse pass along y runs on the 2K + 1 block columns only, then along
    x; the grid values then carry the factor exp(2 pi i (N//2)(x + y) / N)
    at grid indices (x, y).
    """
    K, N = grid.max_wavenumber, grid.physical_resolution
    lo, hi = N // 2 - K, N // 2 + K + 1
    w = np.zeros(c.shape[:-2] + (N, N), dtype=np.complex128)
    block = w[..., lo:hi, lo:hi]
    np.multiply(pack[0], c, out=block[..., K:])
    left = block[..., :K]
    np.multiply(pack[1, ::-1, :0:-1], c[..., ::-1, :0:-1], out=left)
    np.conjugate(left, out=left)
    cols = w[..., lo:hi]
    np.fft.ifft(cols, axis=-2, norm="forward", out=cols)
    np.fft.ifft(w, axis=-1, norm="forward", out=w)
    return w


def _centered_spectrum(grid: SpectralGrid, w: np.ndarray) -> np.ndarray:
    """Centered spectrum (..., S, S) of the product of two `_padded_values`
    arrays, formed in place in `w`, the product, and returned as its block.

    The product carries the phase factor twice; one multiply by
    `grid.packed_phase` leaves it once, so that the forward pass along x,
    then along y on the block columns, lands the retained modes of the
    product back in the block.  The product has modes up to 2K per axis, and
    N >= 3K + 1 keeps their aliases off the block.
    """
    K, N = grid.max_wavenumber, grid.physical_resolution
    lo, hi = N // 2 - K, N // 2 + K + 1
    w *= grid.packed_phase
    np.fft.fft(w, axis=-1, norm="forward", out=w)
    cols = w[..., lo:hi]
    np.fft.fft(cols, axis=-2, norm="forward", out=cols)
    return w[..., lo:hi, lo:hi]


def _curl_form(
    grid: SpectralGrid, x: np.ndarray, a: np.ndarray, d: np.ndarray | None = None
) -> np.ndarray:
    """The scalar half (..., S, K + 1) of P div T in curl form, with
    T = (x a + a x) / 2 + (x d - d x) / 2 (no second term for d None), of
    divergence-free x, a and d given by their scalar halves, a and d one
    half each or a batch of x's shape: P((x . grad) a) for d = a, and
    P div(x x) for `a is x`.

    The symmetric part is packed in Q, the centered spectrum of
    w_x w_a = q1 + 2i q0 with w = u_x + i u_y, q1 = T_xx - T_yy and
    q0 = T_xy; its trace is a gradient, which P removes.  Then
    s = A Q(k) + conj(A) conj Q(-k) = i (a q1 + b q0), with A = i a/2 + b/4,
    a = kx ky / |k|^2 and b = (ky^2 - kx^2) / |k|^2.  The antisymmetric
    part's one entry, T_xy - T_yx = Im(conj(w_x) w_d), a product with no
    grid phase (it is given one), adds -(i/2) (R(k) - conj R(-k)) / (2i) to
    s, R its spectrum.  P div T = (ky s, -kx s), whose scalar is -i |k| s:
    that factor is folded into the weights (`SpectralGrid.half_alpha`, its
    conjugate, and `half_anti`).  The result is mean free and exactly
    conjugate symmetric; no projection pass follows.
    """
    K = grid.max_wavenumber
    w = _padded_values(grid, x, grid.velocity_pack)
    if d is not None:
        r = np.conjugate(w)
        r *= _padded_values(grid, d, grid.velocity_pack)
        if grid.physical_resolution % 2:  # conj(packed_phase)^2 is 1 for even N
            r *= np.conjugate(grid.packed_phase) ** 2
        r = _centered_spectrum(grid, r)
    if a is x:
        np.square(w, out=w)
    else:
        w *= _padded_values(grid, a, grid.velocity_pack)
    q = _centered_spectrum(grid, w)
    # weight first in each product: numpy's complex multiply may fuse, so
    # operand order can show in the last bit
    out = grid.half_alpha * q[..., K:]
    # conj Q(-k) formed in place in the padded array, whose kx >= 0 columns
    # out has read: no third array of the batch's size
    conj_q = q[..., ::-1, K::-1]
    np.conjugate(conj_q, out=conj_q)
    out += np.multiply(np.conjugate(grid.half_alpha), conj_q, out=conj_q)
    if d is not None:
        anti = np.conjugate(r[..., ::-1, K::-1])
        anti -= r[..., K:]
        out += np.multiply(grid.half_anti, anti, out=anti)
    # rows ky < 0 of the kx = 0 column mirror rows ky > 0, as in `from_physical`
    np.conjugate(out[..., :K:-1, 0], out=out[..., :K, 0])
    return out


def advection_array(grid: SpectralGrid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dealiased, projected advective product P((u . grad) v) on coefficient arrays.

    Batched over leading axes; v is one field or a batch of u's shape.
    Exact Galerkin truncation for N >= 3K + 1.  u and v are both scalar
    halves (..., S, K + 1), the stepper's, or both full two-component arrays
    (..., 2, S, S), those of `advection_term` and of the benchmark's kernel
    timings, taken to scalars (`to_scalar`, which keeps the divergence-free
    part of each) and expanded back: the one function that takes either
    layout.  The result has their layout.  It is P div(u v) in curl form
    (`_curl_form`), no projection pass: self-advection (`v is u`, the
    stepper's call) from the one square w_u^2, other pairs from w_u w_v and
    conj(w_u) w_v.
    """
    _check_product_margin(grid)
    full = u.shape[-1] == u.shape[-2]
    x = to_scalar(grid, u) if full else u
    b = x if v is u else (to_scalar(grid, v) if full else v)
    out = _curl_form(grid, x, x) if b is x else _curl_form(grid, x, b, d=b)
    return to_velocity(grid, out) if full else out


def linearized_advection_array(grid: SpectralGrid, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """B(x, a) + B(a, x) = P div(x a + a x), the advection linearized around a,
    for divergence-free x and a given by their scalar halves (..., S, K + 1),
    a one half or a batch of x's shape: the `_curl_form` product of x and
    2a, with no antisymmetric part, returned as the scalar half of a
    mean-free, exactly conjugate-symmetric field."""
    _check_product_margin(grid)
    return _curl_form(grid, x, 2.0 * a)


def linearized_advection_adjoint_array(
    grid: SpectralGrid, p: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """L2 adjoint of x -> `linearized_advection_array(grid, x, a)` on
    divergence-free fields: -P(2 D(p) a), with D the symmetric gradient,
    for p and a given by their scalar halves (..., S, K + 1), batched over
    p; a is one half or a batch of p's shape.

    D(p) is trace free, so it is packed as the complex field
    d = D_xx + i D_xy, a fixed factor times the scalar of p
    (`SpectralGrid.strain_pack`), and 2 D a = 2 d conj(w_a) with
    w_a = a_x + i a_y: one product on the padded grid, whose spectrum g
    gives -2 D a = (g + conj g(-k), -i (g - conj g(-k))) mode-wise.  Its
    scalar, conj(P) g - P conj g(-k) with P = (kx + i ky) / |k|, is that of
    its projection.  The result is the scalar half of a mean-free, exactly
    conjugate-symmetric field.
    """
    _check_product_margin(grid)
    K = grid.max_wavenumber
    conj_pack = np.conjugate(grid.velocity_pack)
    w = _padded_values(grid, p, grid.strain_pack)
    # the packed field of (-a_x, a_y) is -conj(w_a), so the product is -d conj(w_a)
    w *= _padded_values(grid, a, conj_pack)
    g = _centered_spectrum(grid, w)
    g_mirror = np.conjugate(g[..., ::-1, K::-1])
    out = np.multiply(conj_pack[0], g[..., K:])
    out -= np.multiply(grid.velocity_pack[0], g_mirror, out=g_mirror)
    return out


def advection_term(u: SpectralField, v: SpectralField) -> SpectralField:
    """Projected advection P((u . grad) v); bilinear in (u, v)."""
    if u.grid != v.grid:
        raise GridConfigError("advection_term requires a common grid")
    return SpectralField(u.grid, advection_array(u.grid, u.coeffs, v.coeffs))


def advection_form(u: SpectralField, v: SpectralField, w: SpectralField) -> float:
    """Trilinear form integral of (u . grad) v . w over the torus, for
    divergence-free u and w: (2 pi)^2 Re <w, B(u, v)> by Parseval, since P
    drops only the gradient part, which is orthogonal to w.

    Antisymmetric in its last two slots for divergence-free arguments.
    """
    grid = u.grid
    if not (grid == v.grid == w.grid):
        raise GridConfigError("advection_form requires a common grid")
    b = advection_array(grid, u.coeffs, v.coeffs)
    return float(np.vdot(w.coeffs, b).real * TWO_PI**2)


def half_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """The kx >= 0 columns of centered arrays (..., S, S), a view of shape
    (..., S, K + 1): all of a conjugate-symmetric array.

    `to_scalar` and `norm_bundle` read a full input through this one view.
    Raises ValueError for an array whose last two axes differ, such as a
    half.
    """
    if coeffs.ndim < 2 or coeffs.shape[-2] != coeffs.shape[-1]:
        raise ValueError(f"half_spectrum needs (..., S, S) arrays, got shape {coeffs.shape}")
    return coeffs[..., coeffs.shape[-1] // 2 :]


def full_spectrum(half: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The centered arrays (..., S, S) of conjugate-symmetric coefficients
    from their kx >= 0 columns (..., S, K + 1), the inverse of
    `half_spectrum`: the kx < 0 columns are the conjugate mirror,
    c(kx, ky) = conj c(-kx, -ky).  The kx = 0 column is taken as it is.

    Written into `out` when given, which may be a view; `half` may be
    out's own kx >= 0 columns.  Raises ValueError unless S = 2K + 1.
    """
    if half.ndim < 2 or half.shape[-1] < 2 or half.shape[-2] != 2 * half.shape[-1] - 1:
        raise ValueError(f"full_spectrum needs (..., 2K+1, K+1) halves, got shape {half.shape}")
    K = half.shape[-1] - 1
    S = 2 * K + 1
    if out is None:
        out = np.empty(half.shape[:-1] + (S,), dtype=np.complex128)
    out[..., K:] = half  # nothing to do when half is out's own columns
    np.conjugate(half[..., ::-1, :0:-1], out=out[..., :K])
    return out


def abs_sq(c: np.ndarray) -> np.ndarray:
    """|c|^2 in a new array: np.abs, then squared in place."""
    a2 = np.abs(c)
    a2 *= a2
    return a2


def weighted_norm_sq(a2: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """(2 pi)^2 sum_k weight_k a2_k over the (S, K + 1) axes, batched.

    `a2` is `abs_sq` of the scalar half of a state, |c_k|^2 = |u_k|^2,
    computed once and shared by every norm of it; `weight` is a per-mode
    weight on those columns that counts kx > 0 twice, as
    `SpectralGrid.half_weight` (the L2 norm) and `half_k2` (the gradient
    norm) do.
    """
    return TWO_PI**2 * np.sum(weight * a2, axis=(-2, -1))


def half_norms_sq(grid: SpectralGrid, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared L2 and gradient norms, batched, from scalar halves
    (..., S, K + 1), one |c|^2."""
    a2 = abs_sq(half)
    return weighted_norm_sq(a2, grid.half_weight), weighted_norm_sq(a2, grid.half_k2)


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


def _l4_fourth_power(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """The fourth power of the L4 norm, mean(|u|^4) (2 pi)^2 by quadrature at
    resolution N, batched over full arrays (..., 2, S, S)."""
    phys = to_physical(grid, coeffs)
    speed_sq = phys[..., 0, :, :] ** 2 + phys[..., 1, :, :] ** 2
    return np.mean(speed_sq**2, axis=(-2, -1)) * TWO_PI**2


def norm_bundle(field: SpectralField) -> NormBundle:
    """L2 and gradient norms by Parseval, summed over both components of
    the field's kx >= 0 columns; L4 by quadrature at resolution N."""
    g, c = field.grid, field.coeffs
    a2 = abs_sq(half_spectrum(c)).sum(axis=0)
    h2, v2 = weighted_norm_sq(a2, g.half_weight), weighted_norm_sq(a2, g.half_k2)
    l4_4 = float(_l4_fourth_power(g, c))
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

