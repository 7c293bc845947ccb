"""Independent oracles for the test suite.

Everything here is deliberately implemented by a different route than the
package: fields are evaluated by explicit mode summation (no FFT) or by full
complex FFTs of the whole mode square (the package uses real ones), Fourier
coefficients are extracted with dense exponential matrices, trilinear forms
get both a quadrature and a convolution-sum evaluation, and the linear-regime
statistics come from scalar recursions written from the closed-form update.
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


def self_advection_assembled(grid, u: np.ndarray) -> np.ndarray:
    """Curl-form self-advection with the weights applied to the whole mode
    square: the assembled output of `from_physical`, both halves, is combined
    into s = i (a q1 + b q0) and (ky s, -kx s)."""
    from snse_lab.spectral import from_physical, to_physical

    u_phys = to_physical(grid, u)
    ux, uy = u_phys[..., 0, :, :], u_phys[..., 1, :, :]
    q = from_physical(grid, np.stack([ux * uy, (ux - uy) * (ux + uy)], axis=-3))
    s = grid.curl_a * q[..., 1, :, :]
    s += grid.curl_b * q[..., 0, :, :]
    s *= 1j
    return np.stack([grid.ky * s, -grid.kx * s], axis=-3)


def fancy_index_scatter(model, xi: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Noise-field coefficients by two fancy-index assignments into zeros:
    each pair amplitude at +k and its conjugate at -k."""
    xi = np.asarray(xi)
    if weights is not None:
        xi = xi * weights
    J, P = model.n_directions, model.n_pairs
    if J < 2 * P:
        xi = np.concatenate([xi, np.zeros(xi.shape[:-1] + (2 * P - J,))], axis=-1)
    c = 0.5 * model._basis_amp * (xi[..., 0::2] - 1j * xi[..., 1::2])
    S = model.grid.n_coeff
    pos_plus = model._pos_plus
    pos_minus = S * S - 1 - pos_plus
    amp = c[..., None, :] * model.pair_direction.T
    out = np.zeros(c.shape[:-1] + (2, S * S), dtype=np.complex128)
    out[..., pos_plus] = amp
    out[..., pos_minus] = np.conj(amp)
    return out.reshape(c.shape[:-1] + (2, S, S))


# ---------------------------------------------------------------------------
# per-step loops of the controlled linearization, its adjoint and the coupled
# processes: the noise map is applied one step at a time, where the package
# applies it to all steps in one batched call


def skeleton_forward_per_step(h_values: np.ndarray, u0_frames: np.ndarray, config) -> np.ndarray:
    """Frames (n_steps + 1, 2, S, S) of the controlled linearization for
    controls h_values (n_steps, J), one noise-map call per step."""
    from snse_lab.noise import sigma_apply_array
    from snse_lab.solvers import propagator
    from snse_lab.spectral import advection_array

    prop = propagator(config.grid, config.dt)
    n = config.n_steps
    S = config.grid.n_coeff
    out = np.zeros((n + 1, 2, S, S), dtype=np.complex128)
    for step in range(n):
        u0 = u0_frames[step]
        x = out[step]
        rhs = sigma_apply_array(config.noise, step * config.dt, u0, h_values[step])
        if config.nonlinear:
            rhs = rhs - advection_array(config.grid, x, u0) - advection_array(
                config.grid, u0, x
            )
        out[step + 1] = prop.decay * x + prop.phi * rhs
    return out


def adjoint_sweep_per_step(config, u0_frames, p_end, sources) -> np.ndarray:
    """Control gradient (n_steps, J) of <p_end, x_N> + sum_n <sources[n], x_n>
    over skeleton frames x, one noise-adjoint call per step."""
    from snse_lab.noise import sigma_adjoint_array
    from snse_lab.solvers import propagator
    from snse_lab.spectral import advection_array, advection_gradient_transpose_array

    grid = config.grid
    prop = propagator(grid, config.dt)
    grad = np.zeros((config.n_steps, config.noise.n_directions))
    p = p_end
    for n in range(config.n_steps - 1, -1, -1):
        u0n = u0_frames[n]
        phi_p = prop.phi * p
        grad[n] = sigma_adjoint_array(config.noise, n * config.dt, u0n, phi_p)
        p_next = prop.decay * p
        if config.nonlinear:
            p_next = p_next + advection_array(grid, u0n, phi_p)
            p_next = p_next - advection_gradient_transpose_array(grid, u0n, phi_p)
        p = p_next + sources[n]
    return grad


def tilde_z_per_step(h_values, u_frames, u0_frames, epsilon, dW, config) -> np.ndarray:
    """Frames (n_steps + 1, 2, S, S) of the shifted fluctuation along one
    recorded noisy path, with the noise map applied twice per step, once to
    the control and once to the increment."""
    from snse_lab.noise import sigma_apply_array
    from snse_lab.solvers import loglog, propagator, shifted_diffusion_argument
    from snse_lab.spectral import advection_array

    prop = propagator(config.grid, config.dt)
    inv_sq = 1.0 / math.sqrt(2.0 * loglog(epsilon))
    z = np.zeros((config.n_steps + 1,) + u0_frames.shape[1:], dtype=np.complex128)
    for step in range(config.n_steps):
        t, x, u, u0 = step * config.dt, z[step], u_frames[step], u0_frames[step]
        arg = shifted_diffusion_argument(x, u0, epsilon)
        rhs = sigma_apply_array(config.noise, t, arg, h_values[step])
        if config.nonlinear:
            rhs = rhs - advection_array(config.grid, u, x) - advection_array(config.grid, x, u0)
        noise = sigma_apply_array(config.noise, t, arg, dW[step])
        z[step + 1] = prop.decay * x + prop.phi * rhs + prop.phi_rate * (inv_sq * noise)
    return z


class RemainderObserverPerStep:
    """sup over steps of |u - u0 - sqrt(eps) Y|^2, with the noise map frozen
    at u0 applied at every step and a zero drift in the linear regime."""

    def __init__(self, config, u0_frames):
        self.config = config
        self.u0 = u0_frames

    def on_start(self, prop, n_paths, n_steps):
        self.prop = prop
        self.y = np.zeros((n_paths,) + self.u0.shape[1:], dtype=np.complex128)
        self.sup = np.zeros(n_paths)

    def on_noise(self, step, t, coeffs, dW):
        from snse_lab.noise import sigma_apply_array
        from snse_lab.spectral import advection_array

        cfg, prop, y, u0n = self.config, self.prop, self.y, self.u0[step]
        rhs = np.zeros_like(y)
        if cfg.nonlinear:
            rhs = -advection_array(cfg.grid, y, u0n) - advection_array(cfg.grid, u0n, y)
        noise = sigma_apply_array(cfg.noise, t, u0n, dW)
        self.y = prop.decay * y + prop.phi * rhs + prop.phi_rate * noise

    def on_state(self, idx, t, coeffs):
        from snse_lab.spectral import h_norm_sq_array

        rem = coeffs - self.u0[idx] - math.sqrt(self.config.epsilon) * self.y
        np.maximum(self.sup, h_norm_sq_array(self.config.grid, rem), out=self.sup)

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
