"""Independent oracles for the test suite.

Everything here is deliberately implemented by a different route than the
package: fields are evaluated by explicit mode summation (no FFT) or by full
complex FFTs of the whole mode square (the package's transforms are
real-to-complex), self-advection by two real transforms where the package
packs u_x + i u_y into one complex one, the adjoint of the advection
linearized around a field by the gradient-form transpose where the package
forms one packed product, the integrating-factor weights, the scatter and
the norms over the whole mode square where the package holds the kx >= 0
half of the scalar c = -i (ky u_x - kx u_y) / |k|, Fourier coefficients are
extracted with dense exponential matrices, trilinear forms get both a
quadrature and a convolution-sum evaluation, and the linear-regime
statistics come from scalar recursions written from the closed-form update.
The reference definitions at the end (a single step, a noise direction as a
full field, per-trajectory norms, combinations, distances and events, the
probe's candidates as trajectories, the trajectory-file reader, the moment
suite with one ensemble per statistic) were once the package's own; its
batched stepper, streaming observers and one-array probe replaced them, and
they stay here as the oracles those are checked against.  So does the
stochastic stepper on two-component velocity fields
(`integrate_batch_two_component`) that the scalar stepper replaced.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def mode_list(K: int) -> list[tuple[int, int]]:
    return [
        (kx, ky)
        for ky in range(-K, K + 1)
        for kx in range(-K, K + 1)
        if not (kx == 0 and ky == 0)
    ]


def eval_field(field, n_points: int) -> np.ndarray:
    """Evaluate a spectral field on an n x n grid by direct mode summation."""
    K = field.grid.max_wavenumber
    x = TWO_PI * np.arange(n_points) / n_points
    X, Y = np.meshgrid(x, x, indexing="xy")  # X varies along axis 1
    out = np.zeros((2, n_points, n_points), dtype=np.complex128)
    for kx, ky in mode_list(K):
        phase = np.exp(1j * (kx * X + ky * Y))
        amp = field.coeffs[:, K + ky, K + kx]
        out += amp[:, None, None] * phase
    return out.real


def eval_gradient(field, n_points: int) -> np.ndarray:
    """d(field_j)/dx_i on the grid by analytic differentiation of the modes.

    Returns array of shape (2 deriv, 2 component, n, n).
    """
    K = field.grid.max_wavenumber
    x = TWO_PI * np.arange(n_points) / n_points
    X, Y = np.meshgrid(x, x, indexing="xy")
    out = np.zeros((2, 2, n_points, n_points), dtype=np.complex128)
    for kx, ky in mode_list(K):
        phase = np.exp(1j * (kx * X + ky * Y))
        amp = field.coeffs[:, K + ky, K + kx]
        out[0] += (1j * kx) * amp[:, None, None] * phase
        out[1] += (1j * ky) * amp[:, None, None] * phase
    return out.real


def quadrature_integral(values: np.ndarray) -> float:
    """Torus integral of grid samples (exact for resolved trig polynomials)."""
    return float(np.mean(values) * TWO_PI**2)


def trilinear_quadrature(u, v, w, n_points: int | None = None) -> float:
    """Trilinear advection form by physical quadrature on a fresh grid."""
    K = u.grid.max_wavenumber
    n = n_points or (3 * K + 5)
    up = eval_field(u, n)
    wp = eval_field(w, n)
    dv = eval_gradient(v, n)
    integrand = sum(up[i] * dv[i, j] * wp[j] for i in range(2) for j in range(2))
    return quadrature_integral(integrand)


def trilinear_convolution(u, v, w) -> float:
    """Trilinear advection form by the triple convolution sum over modes."""
    K = u.grid.max_wavenumber
    total = 0.0 + 0.0j
    modes = mode_list(K)
    for px, py in modes:
        up = u.coeffs[:, K + py, K + px]
        for qx, qy in modes:
            rx, ry = -px - qx, -py - qy
            if abs(rx) > K or abs(ry) > K or (rx == 0 and ry == 0):
                continue
            vq = v.coeffs[:, K + qy, K + qx]
            wr = w.coeffs[:, K + ry, K + rx]
            total += 1j * (up[0] * qx + up[1] * qy) * (vq @ wr)
    return float((TWO_PI**2 * total).real)


def dft_coefficients(values: np.ndarray, K: int) -> np.ndarray:
    """Extract centered Fourier coefficients with dense exponential matrices."""
    n = values.shape[-1]
    x = TWO_PI * np.arange(n) / n
    ks = np.arange(-K, K + 1)
    ex = np.exp(-1j * np.outer(ks, x)) / n  # (S, n)
    # coeff[c, iy, ix] = sum_{a,b} values[c, b, a] e^{-i kx x_a} e^{-i ky y_b} / n^2
    return np.einsum("xa,cab,yb->cyx", ex, np.moveaxis(values, -2, -1), ex)


def project_mode(K: int, coeffs: np.ndarray) -> np.ndarray:
    """Mode-wise removal of the component parallel to k (explicit loop)."""
    out = coeffs.copy()
    for kx, ky in mode_list(K):
        k = np.array([kx, ky], dtype=float)
        amp = out[:, K + ky, K + kx]
        out[:, K + ky, K + kx] = amp - k * (k @ amp) / (k @ k)
    out[:, K, K] = 0.0
    return out


def advection_oracle(u, v) -> np.ndarray:
    """Coefficients of the projected advective product via direct quadrature.

    Physical product on a fine grid evaluated by mode summation, coefficients
    extracted with dense DFT matrices, projected mode by mode.
    """
    K = u.grid.max_wavenumber
    n = 3 * K + 5
    up = eval_field(u, n)
    dv = eval_gradient(v, n)
    w = np.stack(
        [up[0] * dv[0, j] + up[1] * dv[1, j] for j in range(2)], axis=0
    )
    raw = dft_coefficients(w, K)
    return project_mode(K, raw)


def advection_convolution(u, v) -> np.ndarray:
    """Coefficients of the projected advective product via convolution sums."""
    K = u.grid.max_wavenumber
    S = 2 * K + 1
    out = np.zeros((2, S, S), dtype=np.complex128)
    modes = mode_list(K)
    for px, py in modes:
        up = u.coeffs[:, K + py, K + px]
        for qx, qy in modes:
            kx, ky = px + qx, py + qy
            if abs(kx) > K or abs(ky) > K or (kx == 0 and ky == 0):
                continue
            vq = v.coeffs[:, K + qy, K + qx]
            out[:, K + ky, K + kx] += 1j * (up[0] * qx + up[1] * qy) * vq
    return project_mode(K, out)


def advection_gradient_transpose(grid, a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Projected field with components sum_j (d_i a_j) y_j (batched), by real
    transforms in gradient form: the L2 adjoint of x -> P((x . grad) a) on
    divergence-free fields."""
    from snse_lab.spectral import from_physical, leray_project_array, to_physical

    dadx = to_physical(grid, 1j * grid.kx * a)
    dady = to_physical(grid, 1j * grid.ky * a)
    y_phys = to_physical(grid, y)
    g = np.stack([np.sum(dadx * y_phys, axis=-3), np.sum(dady * y_phys, axis=-3)], axis=-3)
    return leray_project_array(grid, from_physical(grid, g))


def symmetric_batch(grid, rng, batch: int, components: tuple = (2,)) -> np.ndarray:
    """Random conjugate-symmetric, mean-free coefficients
    (batch, *components, S, S): two-component fields, not divergence free,
    or with components () full arrays of the scalar c."""
    S = grid.n_coeff
    shape = (batch,) + tuple(components) + (S, S)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    raw = 0.5 * (raw + np.conj(raw[..., ::-1, ::-1]))
    raw[..., grid.max_wavenumber, grid.max_wavenumber] = 0.0
    return raw


def complex_to_physical(grid, coeffs: np.ndarray) -> np.ndarray:
    """Grid values by a full complex inverse FFT of the whole mode square."""
    N = grid.physical_resolution
    idx = np.arange(-grid.max_wavenumber, grid.max_wavenumber + 1) % N
    full = np.zeros(coeffs.shape[:-2] + (N, N), dtype=np.complex128)
    full[..., idx[:, None], idx[None, :]] = coeffs
    return np.fft.ifft2(full, axes=(-2, -1)).real * (N * N)


def complex_from_physical(grid, values: np.ndarray) -> np.ndarray:
    """Retained Fourier coefficients by a full complex forward FFT."""
    N = grid.physical_resolution
    idx = np.arange(-grid.max_wavenumber, grid.max_wavenumber + 1) % N
    full = np.fft.fft2(values, axes=(-2, -1)) / (N * N)
    return full[..., idx[:, None], idx[None, :]]


def curl_weights(grid) -> tuple[np.ndarray, np.ndarray]:
    """Weights (a, b) = (kx ky, ky^2 - kx^2) / |k|^2 of the curl-form
    self-advection on the whole mode square, both 0 at k = 0."""
    k2 = np.where(grid.k2 > 0, grid.k2, 1.0)
    return grid.kx * grid.ky / k2, (grid.ky**2 - grid.kx**2) / k2


def inverse_abs_k(grid) -> np.ndarray:
    """1/|k| over the whole mode square, 0 at k = 0."""
    k2 = grid.k2
    return np.where(k2 > 0, 1.0 / np.sqrt(np.where(k2 > 0, k2, 1.0)), 0.0)


def curl_output_weight(grid) -> np.ndarray:
    """The self-advection's weight A of Q(k) over the whole mode square,
    with the scalar's factor -i |k| of P div T = (ky s, -kx s) folded in:
    kx ky / (2 |k|) - i (ky^2 - kx^2) / (4 |k|), the package's formula."""
    kx, ky, inv = grid.kx, grid.ky, inverse_abs_k(grid)
    return 0.5 * kx * ky * inv - 0.25j * (ky**2 - kx**2) * inv


def padded_values_by_modes(grid, c: np.ndarray) -> np.ndarray:
    """`_padded_values` of the velocity packing w = u_x + i u_y for scalar
    halves c, with the block filled over the whole mode square at once:
    (kx + i ky) / |k| times the conjugate-symmetric mirror of c
    (`full_spectrum`), then the same two inverse passes."""
    from snse_lab.spectral import full_spectrum

    K, N = grid.max_wavenumber, grid.physical_resolution
    lo, hi = N // 2 - K, N // 2 + K + 1
    w = np.zeros(c.shape[:-2] + (N, N), dtype=np.complex128)
    pack = (grid.kx + 1j * grid.ky) * inverse_abs_k(grid)
    w[..., lo:hi, lo:hi] = pack * full_spectrum(c)
    cols = w[..., lo:hi]
    np.fft.ifft(cols, axis=-2, norm="forward", out=cols)
    return np.fft.ifft(w, axis=-1, norm="forward", out=w)


def self_advection_assembled(grid, c: np.ndarray) -> np.ndarray:
    """Curl-form self-advection of scalar halves c with the weights applied
    to the whole mode square: the packed square Q of w = u_x + i u_y is
    combined into A Q(k) + conj(A) conj Q(-k) (`curl_output_weight`), the
    full scalar array (..., S, S) of the result."""
    from snse_lab.spectral import _centered_spectrum, _padded_values

    w = _padded_values(grid, c, grid.velocity_pack)
    q = _centered_spectrum(grid, np.square(w, out=w))
    weight = curl_output_weight(grid)
    out = weight * q
    out += np.conj(weight) * np.conj(q[..., ::-1, ::-1])
    return out


def self_advection_half_spectrum(grid, u: np.ndarray) -> np.ndarray:
    """Curl-form self-advection of full two-component fields u from two
    real transforms: u_x and u_y on the grid through the half spectrum
    (..., N, N//2 + 1), the products q0 = u_x u_y and
    q1 = (u_x - u_y)(u_x + u_y) transformed back, then s = i (a q1 + b q0)
    on the kx >= 0 columns and the scalar -i |k| s of (ky s, -kx s), the
    kx = 0 column mirrored: a scalar half (..., S, K + 1)."""
    K, N = grid.max_wavenumber, grid.physical_resolution
    half = np.zeros(u.shape[:-2] + (N, N // 2 + 1), dtype=np.complex128)
    half[..., : K + 1, : K + 1] = u[..., K:, K:]
    half[..., N - K :, : K + 1] = u[..., :K, K:]
    half[..., : K + 1] = np.fft.ifft(half[..., : K + 1], axis=-2, norm="forward")
    u_phys = np.fft.irfft(half, n=N, axis=-1, norm="forward")
    ux, uy = u_phys[..., 0, :, :], u_phys[..., 1, :, :]
    q = np.stack([ux * uy, (ux - uy) * (ux + uy)], axis=-3)
    cols = np.fft.fft(np.fft.rfft(q, axis=-1, norm="forward")[..., : K + 1], axis=-2, norm="forward")
    # rows ky = -K..K of the kx >= 0 columns, the kx = 0 column mirrored
    cols = np.concatenate([cols[..., N - K :, :], cols[..., : K + 1, :]], axis=-2)
    cols[..., :K, 0] = np.conj(cols[..., :K:-1, 0])
    curl_a, curl_b = curl_weights(grid)
    s = 1j * (curl_a[:, K:] * cols[..., 1, :, :] + curl_b[:, K:] * cols[..., 0, :, :])
    out = -1j * np.sqrt(grid.k2[:, K:]) * s
    out[..., :K, 0] = np.conj(out[..., :K:-1, 0])
    return out


def swapped_expansion(grid, c: np.ndarray) -> np.ndarray:
    """`to_velocity` with kx and ky swapped, u_k = i (kx, -ky) c_k / |k|:
    full two-component arrays that are not divergence free, a negative
    control of the divergence checks on expanded fields."""
    from snse_lab.spectral import full_spectrum

    K = grid.max_wavenumber
    velocity = (1j * np.stack([grid.kx, -grid.ky]) * inverse_abs_k(grid))[:, :, K:]
    return full_spectrum(velocity * c[..., None, :, :])


def pair_direction(model) -> np.ndarray:
    """Each pair's divergence-free direction (-ky, kx) / |k|, (P, 2): k
    turned by 90 degrees."""
    k = model.pair_k
    return np.stack([-k[:, 1], k[:, 0]], axis=1) / np.hypot(k[:, 0], k[:, 1])[:, None]


def _pair_fields(model, xi: np.ndarray, weights: np.ndarray | None):
    """Each pair's velocity amplitude b ((w xi)_cos - i (w xi)_sin), (..., P),
    and the flat positions of its +k and -k on the whole mode square."""
    xi = np.asarray(xi)
    if weights is not None:
        xi = xi * weights
    J, P = model.n_directions, model.n_pairs
    if J < 2 * P:
        xi = np.concatenate([xi, np.zeros(xi.shape[:-1] + (2 * P - J,))], axis=-1)
    c = 0.5 * model._basis_amp * (xi[..., 0::2] - 1j * xi[..., 1::2])
    K, S = model.grid.max_wavenumber, model.grid.n_coeff
    pos_plus = (K + model.pair_k[:, 1]) * S + (K + model.pair_k[:, 0])
    return c, pos_plus, S * S - 1 - pos_plus


def fancy_index_scatter(model, xi: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Full scalar arrays (..., S, S) of noise fields by two fancy-index
    assignments into zeros: each pair's scalar i times its amplitude at +k
    (its direction (-ky, kx) / |k| times -i is the velocity of a unit c)
    and the conjugate at -k."""
    c, pos_plus, pos_minus = _pair_fields(model, xi, weights)
    S = model.grid.n_coeff
    amp = 1j * c
    out = np.zeros(c.shape[:-1] + (S * S,), dtype=np.complex128)
    out[..., pos_plus] = amp
    out[..., pos_minus] = np.conj(amp)
    return out.reshape(c.shape[:-1] + (S, S))


def two_component_scatter(model, xi: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Full two-component noise fields (..., 2, S, S): each pair's amplitude
    times its direction at +k and the conjugate at -k, the scatter of the
    two-component layout."""
    c, pos_plus, pos_minus = _pair_fields(model, xi, weights)
    S = model.grid.n_coeff
    amp = c[..., None, :] * pair_direction(model).T
    out = np.zeros(c.shape[:-1] + (2, S * S), dtype=np.complex128)
    out[..., pos_plus] = amp
    out[..., pos_minus] = np.conj(amp)
    return out.reshape(c.shape[:-1] + (2, S, S))


# ---------------------------------------------------------------------------
# per-step loops of the controlled linearization, its adjoint and the coupled
# processes: the noise map is applied one step at a time, where the package
# applies it to all steps in one batched call


def skeleton_forward_per_step(h_values: np.ndarray, u0_frames: np.ndarray, config) -> np.ndarray:
    """Frames (n_steps + 1, S, K + 1), scalar halves, of the controlled
    linearization for controls h_values (n_steps, J), one noise-map call per
    step."""
    from snse_lab.noise import sigma_apply_array
    from snse_lab.solvers import propagator
    from snse_lab.spectral import linearized_advection_array

    prop = propagator(config.grid, config.dt)
    n = config.n_steps
    out = np.zeros((n + 1,) + u0_frames.shape[1:], dtype=np.complex128)
    for step in range(n):
        u0 = u0_frames[step]
        x = out[step]
        rhs = sigma_apply_array(config.noise, step * config.dt, u0, h_values[step])
        if config.nonlinear:
            rhs = rhs - linearized_advection_array(config.grid, x, u0)
        out[step + 1] = prop.half_decay * x + prop.half_phi * rhs
    return out


def adjoint_sweep_per_step(config, u0_frames, p_end, sources) -> np.ndarray:
    """Control gradient (n_steps, J) of <p_end, x_N> + sum_n <sources[n], x_n>
    over skeleton frames x, all scalar halves, one noise-adjoint call per
    step on phi p."""
    from snse_lab.noise import sigma_adjoint_array
    from snse_lab.solvers import propagator
    from snse_lab.spectral import linearized_advection_adjoint_array

    grid = config.grid
    prop = propagator(grid, config.dt)
    grad = np.zeros((config.n_steps, config.noise.n_directions))
    p = p_end
    for n in range(config.n_steps - 1, -1, -1):
        u0n = u0_frames[n]
        phi_p = prop.half_phi * p
        grad[n] = sigma_adjoint_array(config.noise, n * config.dt, u0n, phi_p)
        p_next = prop.half_decay * p
        if config.nonlinear:
            p_next = p_next - linearized_advection_adjoint_array(grid, phi_p, u0n)
        p = p_next + sources[n]
    return grad


def tilde_z_per_step(h_values, u_frames, u0_frames, epsilon, dW, config) -> np.ndarray:
    """Frames (n_steps + 1, S, K + 1) of the shifted fluctuation along one
    recorded noisy path, all scalar halves, with the noise map applied
    twice per step, once to the control and once to the increment.  The
    drift B(u, z) + B(z, u0) is the observer's one curl-form call."""
    from snse_lab.noise import sigma_apply_array
    from snse_lab.solvers import loglog, propagator, shifted_diffusion_argument
    from snse_lab.spectral import _curl_form

    prop = propagator(config.grid, config.dt)
    inv_sq = 1.0 / math.sqrt(2.0 * loglog(epsilon))
    z = np.zeros((config.n_steps + 1,) + u0_frames.shape[1:], dtype=np.complex128)
    for step in range(config.n_steps):
        t, x, u, u0 = step * config.dt, z[step], u_frames[step], u0_frames[step]
        arg = shifted_diffusion_argument(x, u0, epsilon)
        rhs = sigma_apply_array(config.noise, t, arg, h_values[step])
        if config.nonlinear:
            rhs = rhs - _curl_form(config.grid, x, u + u0, d=u0 - u)
        noise = sigma_apply_array(config.noise, t, arg, dW[step])
        z[step + 1] = (
            prop.half_decay * x + prop.half_phi * rhs + prop.half_phi_rate * (inv_sq * noise)
        )
    return z


class RemainderObserverPerStep:
    """sup over steps of |u - u0 - sqrt(eps) Y|^2, with the noise map frozen
    at u0 applied at every step and a zero drift in the linear regime; u0
    and Y are scalar halves."""

    def __init__(self, config, u0_frames):
        self.config = config
        self.u0 = u0_frames

    def on_start(self, prop, n_paths, n_steps):
        self.prop = prop
        self.y = np.zeros((n_paths,) + self.u0.shape[1:], dtype=np.complex128)
        self.sup = np.zeros(n_paths)

    def on_noise(self, step, t, coeffs, dW):
        from snse_lab.noise import sigma_apply_array
        from snse_lab.spectral import linearized_advection_array

        cfg, prop, y, u0n = self.config, self.prop, self.y, self.u0[step]
        rhs = np.zeros_like(y)
        if cfg.nonlinear:
            rhs = -linearized_advection_array(cfg.grid, y, u0n)
        noise = sigma_apply_array(cfg.noise, t, u0n, dW)
        self.y = prop.half_decay * y + prop.half_phi * rhs + prop.half_phi_rate * noise

    def on_state(self, idx, t, coeffs):
        from snse_lab.spectral import abs_sq, weighted_norm_sq

        rem = coeffs - self.u0[idx] - math.sqrt(self.config.epsilon) * self.y
        h2 = weighted_norm_sq(abs_sq(rem), self.config.grid.half_weight)
        np.maximum(self.sup, h2, out=self.sup)

    def finish(self) -> dict:
        return {"sup": self.sup}


# ---------------------------------------------------------------------------
# linear-regime (diagonal) closed forms for the integrating-factor scheme


def scheme_weights(a: float, dt: float) -> tuple[float, float]:
    """(decay, phi) of the integrating-factor step for squared wavenumber a."""
    decay = math.exp(-a * dt)
    phi = (1.0 - decay) / a if a > 0 else dt
    return decay, phi


def ou_discrete_moments(
    a: float, dt: float, n_steps: int, c0: complex, noise_rms: float
) -> tuple[complex, float]:
    """Mean and per-real-component variance of the scheme's diagonal recursion.

    The recursion is c' = decay * c + (phi/dt) * noise_rms * (xi_re + i xi_im)
    with unit normal draws, so the terminal law is Gaussian with the returned
    moments (variance per real component).
    """
    decay, phi = scheme_weights(a, dt)
    mean = c0 * decay**n_steps
    w = (phi / dt) * noise_rms
    r = decay**2
    var = w**2 * (1 - r**n_steps) / (1 - r) if r < 1 else w**2 * n_steps
    return mean, var


def ou_continuous_variance(a: float, T: float, noise_rms_rate: float) -> float:
    """Per-real-component variance of the exact diagonal process at time T.

    noise_rms_rate is the coefficient of the Wiener differential (per unit
    sqrt-time), so the stationary variance is rate^2 / (2a).
    """
    return noise_rms_rate**2 * (1 - math.exp(-2 * a * T)) / (2 * a)


def simulate_diagonal_paths(
    a: float,
    dt: float,
    n_steps: int,
    noise_rms: float,
    n_paths: int,
    rng: np.random.Generator,
    c0: complex = 0.0,
) -> np.ndarray:
    """Direct scalar simulation of the scheme's diagonal recursion."""
    decay, phi = scheme_weights(a, dt)
    w = (phi / dt) * noise_rms
    c = np.full(n_paths, c0, dtype=np.complex128)
    for _ in range(n_steps):
        xi = rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)
        c = decay * c + w * xi
    return c


def decay_energy_left_sum(h2_0: float, a: float, T: float, dt_rec: float) -> float:
    """Closed-form left-endpoint sum of the decaying gradient-norm series.

    For |u(t)|^2 = h2_0 e^(-2 a t) and ||u||^2 = a |u|^2 the recorded-grid
    quadrature of the integral term is a geometric sum.
    """
    n = round(T / dt_rec)
    r = math.exp(-2 * a * dt_rec)
    return a * h2_0 * dt_rec * (1 - r**n) / (1 - r)


def wilson_oracle(hits: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson interval written independently for cross-checking."""
    p = hits / n
    z2 = z * z
    center = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = (z / (1 + z2 / n)) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return center - half, center + half


# ---------------------------------------------------------------------------
# per-path reference definitions: one step, trajectory norms and events, the
# trajectory-file reader


def step_snse(c, f_t, epsilon, dW, dt, model, t=0.0, nonlinear=True):
    """One integrating-factor step of one path: decay, forcing and advection
    of the state, plus the phi-weighted left-endpoint noise term, over the
    whole mode square of full scalar arrays (S, S), c the state and f_t the
    forcing (or None)."""
    from snse_lab.noise import sigma_apply_array
    from snse_lab.spectral import advection_array, full_spectrum, half_spectrum

    grid = model.grid
    prop = full_propagator(grid, dt)
    out = c * prop.decay
    if f_t is not None:
        out += prop.phi * f_t
    if nonlinear:
        half = half_spectrum(c)
        out -= prop.phi * full_spectrum(advection_array(grid, half, half))
    if epsilon > 0.0:
        noise = full_spectrum(sigma_apply_array(model, t, half_spectrum(c), dW))
        noise *= math.sqrt(epsilon)
        noise *= prop.phi_rate
        out += noise
    return out


def full_propagator(grid, dt: float):
    """The integrating-factor weights of one step over the whole mode square
    (S, S): decay, phi, phi_rate and int_weight, the exact integral of
    ||u||^2 over a pure-decay step per unit |u_k|^2.  The package holds them
    on the kx >= 0 columns only."""
    from types import SimpleNamespace

    k2 = grid.k2
    decay = np.exp(-k2 * dt)
    phi = np.where(k2 > 0, (1.0 - decay) / np.where(k2 > 0, k2, 1.0), dt)
    int_weight = (1.0 - decay**2) / 2.0
    return SimpleNamespace(decay=decay, phi=phi, phi_rate=phi / dt, int_weight=int_weight)


def h_norm_sq_array(grid, c: np.ndarray) -> np.ndarray:
    """Squared L2 norm, batched, of scalar halves c (..., S, K + 1), one
    norm per call."""
    from snse_lab.spectral import abs_sq, weighted_norm_sq

    return weighted_norm_sq(abs_sq(c), grid.half_weight)


def v_norm_sq_array(grid, c: np.ndarray) -> np.ndarray:
    """Squared gradient norm, batched, of scalar halves c, one norm per call."""
    from snse_lab.spectral import abs_sq, weighted_norm_sq

    return weighted_norm_sq(abs_sq(c), grid.half_k2)


def step_int_v2(prop, coeffs: np.ndarray) -> np.ndarray:
    """Exact integral of ||u||^2 over one pure-decay step of `prop` from the
    scalar halves coeffs (..., S, K + 1), as the package's observers
    accumulate it, kx > 0 counted twice."""
    from snse_lab.spectral import abs_sq, weighted_norm_sq

    return weighted_norm_sq(abs_sq(coeffs), prop.half_int_weight)


def full_norm_sq(coeffs: np.ndarray, weight: np.ndarray | None = None,
                 axes: tuple = (-2, -1)) -> np.ndarray:
    """(2 pi)^2 sum over every mode of weight_k |c_k|^2 of full arrays
    (..., S, S), summed over `axes` (add -3 for two-component fields): a
    squared norm summed over the whole spectrum, where the package sums the
    kx >= 0 half of the scalar of a conjugate-symmetric field."""
    a2 = np.abs(coeffs) ** 2
    return TWO_PI**2 * np.sum(a2 if weight is None else weight * a2, axis=axes)


def noise_trace(model) -> float:
    """Trace of the noise covariance: the sum of its eigenvalues."""
    return float(model.eigenvalues.sum())


def basis_field(model, j: int):
    """The j-th noise direction as a unit-L2 divergence-free full field."""
    from snse_lab.noise import scatter_coefficients
    from snse_lab.spectral import SpectralField, to_velocity

    xi = np.zeros(model.n_directions)
    xi[j] = 1.0
    return SpectralField(model.grid, to_velocity(model.grid, scatter_coefficients(model, xi)))


def derived_trajectory(grid, times, frames, dt: float, record_stride: int, provenance=None):
    """Trajectory from precomputed frames, scalar halves; functionals on
    the recording grid."""
    from snse_lab.solvers import Trajectory, _sup_plus_integral
    from snse_lab.spectral import half_norms_sq

    h2, v2 = half_norms_sq(grid, frames)
    return Trajectory(
        grid=grid,
        dt=dt,
        record_stride=record_stride,
        times=np.asarray(times, dtype=np.float64),
        frames=frames,
        h2=h2,
        v2=v2,
        sup_h2=float(np.max(h2)),
        int_v2=float(_sup_plus_integral(np.zeros(1), v2, times)),  # the integral alone
        provenance=dict(provenance or {}),
    )


def combine_trajectories(a, b, coef_a: float, coef_b: float, provenance=None):
    """Pointwise linear combination coef_a * a + coef_b * b (aligned grids)."""
    from snse_lab.solvers import GridMismatchError

    if not a.aligned_with(b):
        raise GridMismatchError("trajectories are not aligned")
    frames = coef_a * a.frames + coef_b * b.frames
    return derived_trajectory(a.grid, a.times, frames, a.dt, a.record_stride, provenance)


def energy_distance(a, b) -> float:
    """Trajectory-norm distance between two aligned trajectories."""
    from snse_lab.deviation import _frames_energy_sq

    if not a.aligned_with(b):
        raise ValueError("trajectories are not aligned")
    return math.sqrt(_frames_energy_sq(a.grid, a.times, a.frames - b.frames))


def skeleton_trajectories(frames: np.ndarray, config) -> list:
    """Trajectories of skeleton_forward solutions (m, n_steps + 1, S, K + 1),
    recorded on config's grid by one batched observer pass."""
    from snse_lab.solvers import TrajectoryObserver, _trajectory, propagator

    obs = TrajectoryObserver(config)
    obs.on_start(propagator(config.grid, config.dt), frames.shape[0], config.n_steps)
    for idx in range(config.n_steps + 1):
        obs.on_state(idx, idx * config.dt, frames[:, idx])
    data = obs.finish()
    return [_trajectory(config, data, i) for i in range(len(frames))]


def refined_probe(probe, extra_controls, extra_images):
    """`probe` with more candidate controls and their steered solutions."""
    from snse_lab.lil import LimitSetProbe

    frames = np.concatenate([probe.frames, np.stack([g.frames for g in extra_images])])
    return LimitSetProbe(
        probe.controls + tuple(extra_controls), frames, probe.times, probe.tolerance
    )


def energy_norm(traj) -> float:
    """Trajectory norm: sqrt of the sup of |u|^2 plus the left-endpoint
    integral of ||u||^2 on the recording grid."""
    from snse_lab.solvers import _sup_plus_integral

    return math.sqrt(float(_sup_plus_integral(traj.h2, traj.v2, traj.times)))


def dyadic_increment_stat(traj, depth: int) -> float:
    """Trajectory norm of t -> u(t) - u(left dyadic anchor of t) at given depth."""
    from snse_lab.deviation import _dyadic_cell_records, _frames_energy_sq

    per_cell = _dyadic_cell_records(traj.times, depth)
    anchors = (np.arange(traj.n_records) // per_cell).clip(max=2**depth - 1) * per_cell
    return math.sqrt(_frames_energy_sq(traj.grid, traj.times, traj.frames - traj.frames[anchors]))


def trajectories_from_ensemble(result: dict, config, seed: int) -> list:
    """Per-path trajectories of a TrajectoryObserver ensemble output."""
    from snse_lab.solvers import _trajectory

    return [
        _trajectory(config, result, i, {"seed": seed, "path": i, "epsilon": config.epsilon})
        for i in range(result["frames"].shape[0])
    ]


def mc_probability(event, epsilon: float, n_samples: int, config, seed: int):
    """Indicator-mean probability of a per-trajectory event over an ensemble,
    each chunk's trajectories materialized and reduced to booleans."""
    from snse_lab import solvers
    from snse_lab.deviation import estimate_from_hits

    class PredicateObserver(solvers.TrajectoryObserver):
        def finish(self) -> dict:
            trajs = trajectories_from_ensemble(super().finish(), self.config, seed)
            return {"hit": np.array([bool(event(tr)) for tr in trajs], dtype=bool)}

    cfg = config.with_epsilon(epsilon)
    # looked up at call time, so a test can wrap the module's ensemble_run
    out = solvers.ensemble_run(cfg, seed, n_samples, lambda: PredicateObserver(cfg))
    return estimate_from_hits(int(np.sum(out["hit"])), n_samples)


def read_trajectory(path: str):
    """Read a trajectory file: a one-line JSON header, then little-endian
    times, h2, v2 and interleaved complex frames (R, 2, S, S), of which the
    Trajectory keeps the scalar halves (`to_scalar`)."""
    import json

    from snse_lab.solvers import Trajectory
    from snse_lab.spectral import SpectralGrid, to_scalar

    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        if header.get("magic") != "snse-lab-trajectory-v1":
            raise ValueError(f"{path}: not a trajectory file")
        R = header["n_records"]
        grid = SpectralGrid(header["max_wavenumber"], header["physical_resolution"])
        S = grid.n_coeff
        times, h2, v2 = (np.frombuffer(fh.read(8 * R), dtype="<f8").copy() for _ in range(3))
        frames = np.frombuffer(fh.read(16 * R * 2 * S * S), dtype="<c16").reshape(R, 2, S, S).copy()
    return Trajectory(
        grid=grid, dt=header["dt"], record_stride=header["record_stride"], times=times,
        frames=to_scalar(grid, frames), h2=h2, v2=v2, sup_h2=header["sup_h2"],
        int_v2=header["int_v2"],
        provenance=header.get("provenance", {}),
    )


class ScaledNormals:
    """A stand-in for one path's generator in the stepper, returned in place
    of `solvers.substream(seed, i)`: the normals of rng times scale, through
    the one call the stepper makes, standard_normal(out=)."""

    def __init__(self, rng: np.random.Generator, scale: float):
        self.rng, self.scale = rng, scale

    def standard_normal(self, out: np.ndarray) -> np.ndarray:
        self.rng.standard_normal(out=out)
        out *= self.scale
        return out


def integrate_batch_full(config, state: np.ndarray, sources, hooks) -> None:
    """The stochastic time loop on full scalar arrays (n, S, S): the stepper
    of `solvers._integrate_batch` with the weights, the update, the noise
    block, the self-advection and the hooks' inputs all over the whole mode
    square.  Each block's normals are one fresh (steps, J) draw per path's
    generator in sources (None for a noiseless run), stacked.  A guard over
    every mode stands in for the blow-up guard."""
    from snse_lab.noise import at_directions, scatter_coefficients, sigma_factor
    from snse_lab.solvers import IntegrationError, _guard_scale, _noise_block_steps
    from snse_lab.spectral import advection_array, full_spectrum, half_spectrum, to_scalar

    prop = full_propagator(config.grid, config.dt)
    model = config.noise
    n_steps = config.n_steps
    phi_forcing = None
    if config.forcing is not None:
        phi_forcing = prop.phi * full_spectrum(to_scalar(config.grid, config.forcing.coeffs))
    sqrt_eps = math.sqrt(config.epsilon)
    scale = _guard_scale(config, state)
    on_noise = getattr(hooks, "on_noise", None)
    on_state = getattr(hooks, "on_state", None)
    if on_state:
        on_state(0, 0.0, state)
    sqrt_lam_dt = np.sqrt(model.eigenvalues * config.dt)
    weights = model.gains
    if not model.state_dependent:
        weights = model.gains * sqrt_eps * at_directions(model, half_spectrum(prop.phi_rate))
    block = _noise_block_steps(model, state.shape[0], n_steps)
    for step in range(n_steps):
        t = step * config.dt
        adv = None
        if config.nonlinear:
            half = half_spectrum(state)
            adv = full_spectrum(advection_array(config.grid, half, half))
        noise = None
        if sources is not None:
            i = step % block
            if i == 0:
                shape = (min(block, n_steps - step), model.n_directions)
                dW_block = np.stack([src.standard_normal(shape) for src in sources])
                dW_block *= sqrt_lam_dt
                if config.epsilon > 0.0:
                    noise_block = scatter_coefficients(model, dW_block, weights=weights)
                    noise_block = full_spectrum(noise_block)
            if on_noise:
                on_noise(step, t, state, dW_block[:, i])
            if config.epsilon > 0.0 and model.state_dependent:
                factor = sigma_factor(model, t, half_spectrum(state))[:, None, None]
                noise = noise_block[:, i] * factor * sqrt_eps * prop.phi_rate
            elif config.epsilon > 0.0:
                noise = noise_block[:, i]
        state *= prop.decay
        if phi_forcing is not None:
            state += phi_forcing
        if adv is not None:
            adv *= prop.phi
            state -= adv
        if noise is not None:
            state += noise
        peak = np.max(np.abs(state))
        if not np.isfinite(peak) or peak > scale:
            raise IntegrationError(step, f"amplitude {peak:.3e}")
        if on_state:
            on_state(step + 1, t + config.dt, state)


def integrate_batch_two_component(config, state: np.ndarray, sources, hooks) -> None:
    """The stochastic time loop on full two-component velocity fields
    (n, 2, S, S), the layout the scalar stepper replaced, by routes of its
    own: the self-advection in gradient form (`advection_gradient_form`),
    the noise as each pair's amplitude times its direction
    (`two_component_scatter`), the saturated factor from the gradient norm
    summed over both components and the whole mode square, and a guard over
    every component.  Each step's normals are one (1, J) draw per path.
    The hooks see the two-component states."""
    from snse_lab.noise import saturation_factor
    from snse_lab.solvers import IntegrationError
    from snse_lab.verification import advection_gradient_form

    grid, model = config.grid, config.noise
    prop = full_propagator(grid, config.dt)
    sqrt_eps = math.sqrt(config.epsilon)
    scale = config.blowup_factor * max(np.max(np.abs(state)), 1.0 / TWO_PI)
    sqrt_lam_dt = np.sqrt(model.eigenvalues * config.dt)
    on_state = getattr(hooks, "on_state", None)
    if on_state:
        on_state(0, 0.0, state)
    for step in range(config.n_steps):
        t = step * config.dt
        update = state * prop.decay
        if config.forcing is not None:
            update += prop.phi * config.forcing.coeffs
        if config.nonlinear:
            update -= prop.phi * advection_gradient_form(grid, state, state.copy())
        if sources is not None:
            dW = np.stack([src.standard_normal((1, model.n_directions))[0] for src in sources])
            noise = two_component_scatter(model, dW * sqrt_lam_dt, weights=model.gains)
            if model.state_dependent:
                v2 = full_norm_sq(state, grid.k2, axes=(-3, -2, -1))
                noise *= saturation_factor(model.params, np.sqrt(v2))[:, None, None, None]
            update += sqrt_eps * prop.phi_rate * noise
        state[...] = update
        peak = np.max(np.abs(state))
        if not np.isfinite(peak) or peak > scale:
            raise IntegrationError(step, f"amplitude {peak:.3e}")
        if on_state:
            on_state(step + 1, t + config.dt, state)


def shifted_ensemble(config, h, epsilon, u0_frames, seed, n_paths, inner_factory) -> dict:
    """The shifted fluctuation z at noise level epsilon, stepped along the
    noisy ensemble of `ensemble_run`; `inner_factory()` observes z."""
    from snse_lab import solvers

    cfg = config.with_epsilon(epsilon)
    h_field = solvers._control_fields(h, config)
    # looked up at call time, so a test can wrap the module's ensemble_run
    return solvers.ensemble_run(
        cfg, seed, n_paths,
        lambda: solvers._ShiftedObserver(cfg, h_field, u0_frames, inner_factory()),
    )


class MomentObserverByKey:
    """The moment suite's per-path functionals by their first definitions,
    one array each: sup h2^2 and the integral of h2 v2 for the fourth
    moment, sup h2^p and the integral of h2^(p - 1) v2 per order p, the sup
    of v2 and the integral of |A u|^2, and, given u0, the sup and integral
    of the deviation u - u0; integrals by the left endpoint."""

    def __init__(self, config, p_list, u0_frames=None):
        self.config = config
        self.p_list = list(p_list)
        self.u0 = u0_frames

    def on_start(self, prop, n_paths, n_steps):
        from collections import defaultdict

        from snse_lab.spectral import half_spectrum

        grid = self.config.grid
        self.n_steps = n_steps
        self.a_weight = grid.half_k2 * half_spectrum(grid.k2)
        self.acc = defaultdict(lambda: np.zeros(n_paths))

    def on_state(self, idx, t, coeffs):
        from snse_lab.spectral import abs_sq, weighted_norm_sq

        grid, acc, dt = self.config.grid, self.acc, self.config.dt
        inside = idx < self.n_steps
        a2 = abs_sq(coeffs)
        h2 = weighted_norm_sq(a2, grid.half_weight)
        v2 = weighted_norm_sq(a2, grid.half_k2)
        acc["sup_h4"] = np.maximum(acc["sup_h4"], h2**2)
        acc["sup_v2"] = np.maximum(acc["sup_v2"], v2)
        for p in self.p_list:
            acc[f"sup_h2p_{p}"] = np.maximum(acc[f"sup_h2p_{p}"], h2**p)
        if inside:
            acc["int_h2v2"] += h2 * v2 * dt
            for p in self.p_list:
                acc[f"int_h2p_{p}"] += h2 ** (p - 1) * v2 * dt
            acc["int_a2"] += weighted_norm_sq(a2, self.a_weight) * dt
        if self.u0 is not None:
            d2 = abs_sq(coeffs - self.u0[idx])
            acc["sup_d2"] = np.maximum(acc["sup_d2"], weighted_norm_sq(d2, grid.half_weight))
            if inside:
                acc["int_dv2"] += weighted_norm_sq(d2, grid.half_k2) * dt

    def finish(self) -> dict:
        return dict(self.acc)


def moment_rows_by_separate_ensembles(
    eps_grid, p_list, n_samples, config, seed, control, with_remainder
) -> list[dict]:
    """The rows of `moment_bound_suite`, with the noisy ensemble integrated
    anew for each statistic: one `ensemble_run` for the state moments, one for
    the shifted fluctuation and one for the first-order remainder, all on the
    same substreams; the moments are accumulated by `MomentObserverByKey`."""
    from dataclasses import replace

    from snse_lab.deviation import _RemainderObserver, _mean_se
    from snse_lab.solvers import ensemble_run, solve_deterministic

    p_list = sorted(set([1.0] + [float(p) for p in p_list]))
    u0 = solve_deterministic(replace(config, record_stride=1)).frames
    rows = []

    def add(section, eps, p, samples):
        m, se = _mean_se(samples)
        rows.append({"section": section, "epsilon": eps, "p": p, "mean": m, "se": se})

    for eps in sorted(float(e) for e in eps_grid):
        cfg = config.with_epsilon(eps)
        u = ensemble_run(cfg, seed, n_samples, lambda: MomentObserverByKey(cfg, p_list, u0))
        z = shifted_ensemble(
            config, control, eps, u0, seed, n_samples, lambda: MomentObserverByKey(config, p_list)
        )
        add("state_sup_sq_plus_int", eps, None, u["sup_h2p_1.0"] + u["int_h2p_1.0"])
        add("state_fourth_moment", eps, None, u["sup_h4"] + u["int_h2v2"])
        add("deviation_sup_sq_plus_int", eps, None, u["sup_d2"] + u["int_dv2"])
        add("grad_sup_plus_dissipation", eps, None, u["sup_v2"] + eps * u["int_a2"])
        for p in p_list:
            add("state_moment_2p", eps, p, u[f"sup_h2p_{p}"] + u[f"int_h2p_{p}"])
        add("shifted_sup_sq_plus_int", eps, None, z["sup_h2p_1.0"] + z["int_h2p_1.0"])
        add("shifted_fourth_moment", eps, None, z["sup_h4"] + z["int_h2v2"])
        for p in p_list:
            add("shifted_moment_2p", eps, p, z[f"sup_h2p_{p}"] + z[f"int_h2p_{p}"])
        if with_remainder:
            rem = ensemble_run(cfg, seed, n_samples, lambda: _RemainderObserver(cfg, u0))
            add("second_order_remainder_sup_sq", eps, None, rem["sup"])
    return rows
