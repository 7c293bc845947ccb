"""Trace-class Wiener noise, diffusion-coefficient families, and controls.

The noise space is spanned by real divergence-free mode-pair fields: for each
representative wavevector k (half lattice, sorted by |k|) there is a cosine and
a sine direction, both unit-normalized in L2.  Covariance eigenvalues follow a
power law lambda_j = |k(j)|^(-2s), summable for s > 1, so the noise is trace
class.  Elements of the reproducing-kernel space of the covariance are handled
through their coefficient vectors over these directions; the kernel-space norm
weights coefficient j by 1/lambda_j.

Two diffusion-coefficient families are provided:

* ``additive``: fixed per-direction gains, independent of the state.
* ``saturated``: gains scaled by m(r) = s0 * r^2 / ((s0 + r) * max(r, delta))
  of the gradient norm r of the state; m is bounded by s0, grows at most
  linearly, and is globally Lipschitz, so boundedness, growth, and Lipschitz
  constants exist by construction and are reported rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    SpectralGrid,
    TWO_PI,
    abs_sq,
    half_spectrum,
    weighted_norm_sq,
)


class NoiseConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SigmaParams:
    """Parameters of a diffusion-coefficient family.

    amplitude scales all gains; gain_decay is the per-mode power-law exponent
    g_j = amplitude * |k_j|^(-gain_decay).  saturation_scale (s0) and
    smoothing_delta only matter for the saturated family.
    """

    amplitude: float = 1.0
    gain_decay: float = 0.0
    saturation_scale: float = 1.0
    smoothing_delta: float = 0.1

    def __post_init__(self):
        if self.saturation_scale <= 0 or self.smoothing_delta <= 0:
            raise NoiseConfigError("saturation scale and delta must be positive")


def _half_lattice(K: int) -> list[tuple[int, int]]:
    """One representative per conjugate mode pair, sorted by |k|^2 then (ky, kx)."""
    reps = []
    for ky in range(-K, K + 1):
        for kx in range(-K, K + 1):
            if (ky > 0) or (ky == 0 and kx > 0):
                reps.append((kx, ky))
    reps.sort(key=lambda k: (k[0] ** 2 + k[1] ** 2, k[1], k[0]))
    return reps


@dataclass(frozen=True)
class NoiseModel:
    """Q-Wiener noise over divergence-free mode pairs plus a sigma family.

    Direction 2p is the cosine and 2p+1 the sine component of pair p; both
    share the eigenvalue |k_p|^(-2 * spectrum_exponent).
    """

    grid: SpectralGrid
    spectrum_exponent: float = 2.0
    num_directions: int | None = None
    family: str = "additive"
    params: SigmaParams = field(default_factory=SigmaParams)

    def __post_init__(self):
        if self.family not in ("additive", "saturated"):
            raise NoiseConfigError(f"unknown sigma family {self.family!r}")
        K = self.grid.max_wavenumber
        reps = _half_lattice(K)
        J_full = 2 * len(reps)
        J = J_full if self.num_directions is None else int(self.num_directions)
        if not (1 <= J <= J_full):
            raise NoiseConfigError(f"num_directions must be in [1, {J_full}]")
        n_pairs = (J + 1) // 2
        kvec = np.array(reps[:n_pairs], dtype=np.int64)  # (P, 2)
        kabs = np.sqrt((kvec**2).sum(axis=1).astype(np.float64))
        # rotate k by 90 degrees for the divergence-free direction
        direction = np.stack([-kvec[:, 1], kvec[:, 0]], axis=1) / kabs[:, None]
        lam_pair = kabs ** (-2.0 * self.spectrum_exponent)
        gain_pair = self.params.amplitude * kabs ** (-self.params.gain_decay)
        lam = np.repeat(lam_pair, 2)[:J]
        gains = np.repeat(gain_pair, 2)[:J]
        S = self.grid.n_coeff
        pos_plus = (K + kvec[:, 1]) * S + (K + kvec[:, 0])
        # where the kx >= 0 half holds k, or -k for kx < 0 (`at_directions`)
        flip = np.where(kvec[:, 0] < 0, -1, 1)
        half_pos = (K + flip * kvec[:, 1]) * (K + 1) + flip * kvec[:, 0]
        # per slot of the kx >= 0 half (S, K + 1), in raster order, the pair
        # whose amplitude it reads and its direction (0 for the zero mode and
        # for a pair left out); the pair representatives fill rows ky >= 0,
        # and a slot on rows ky < 0 reads the pair at -k, conjugated
        half_source = np.zeros((S, K + 1), dtype=np.int64)
        half_direction = np.zeros((2, S, K + 1))
        for sign in (1, -1):
            rows, cols = K + sign * kvec[:, 1], sign * kvec[:, 0]
            kept = cols >= 0
            half_source[rows[kept], cols[kept]] = np.arange(n_pairs)[kept]
            half_direction[:, rows[kept], cols[kept]] = direction[kept].T
        for name, arr in (
            ("eigenvalues", lam),
            ("gains", gains),
            ("pair_k", kvec),
            ("pair_abs_k", kabs),
            ("pair_direction", direction),
            ("_pos_plus", pos_plus),
            ("_half_pos", half_pos),
            ("_half_source", half_source.reshape(-1)),
            ("_half_direction", half_direction),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n_directions", J)
        object.__setattr__(self, "n_pairs", n_pairs)
        # Hilbert-Schmidt norms of the gains times Q^(1/2), and of their curl
        # (gains g_j |k_j|): the bases of `sigma_hs_norm`,
        # `sigma_curl_hs_norm` and `declared_constants`
        kabs_dir = np.repeat(kabs, 2)[:J]
        object.__setattr__(self, "_hs_base", float(np.sqrt(np.sum(lam * gains**2))))
        object.__setattr__(
            self, "_curl_hs_base", float(np.sqrt(np.sum(lam * (gains * kabs_dir) ** 2)))
        )
        # unit L2 normalization of cos/sin mode-pair fields on the torus
        object.__setattr__(self, "_basis_amp", np.sqrt(2.0) / TWO_PI)

    @property
    def state_dependent(self) -> bool:
        """Whether sigma(t, u) reads the state (the additive family does not)."""
        return self.family != "additive"


def at_directions(model: NoiseModel, per_mode: np.ndarray) -> np.ndarray:
    """Values (J,) of a per-mode array symmetric in k, given by its kx >= 0
    half (S, K + 1), at each direction's wavevector."""
    return np.repeat(per_mode.reshape(-1)[model._half_pos], 2)[: model.n_directions]


def _pair_amplitudes(model: NoiseModel, xi: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """One complex amplitude per pair, (..., P): b (w xi)_cos - i b (w xi)_sin,
    b half the unit basis amplitude, formed in its one array."""
    J = model.n_directions
    c = np.empty(xi.shape[:-1] + (model.n_pairs,), dtype=np.complex128)
    re, im = c.real, c.imag[..., : J // 2]
    if weights is None:
        re[...] = xi[..., 0::2]
        im[...] = xi[..., 1::2]
    else:
        np.multiply(xi[..., 0::2], weights[0::2], out=re)
        np.multiply(xi[..., 1::2], weights[1::2], out=im)
    c.imag[..., J // 2 :] = 0.0  # the sine of a pair left out, for odd J
    b = 0.5 * model._basis_amp
    re *= b
    c.imag *= -b
    return c


def scatter_coefficients(
    model: NoiseModel,
    xi: np.ndarray,
    weights: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The kx >= 0 half (..., 2, S, K + 1) of the field sum_j xi_j w_j e_j;
    batched over leading axes.

    A slot on rows ky >= 0 holds c d, its pair's amplitude c times its
    direction d, and a slot on rows ky < 0 holds conj(c d) of the pair at
    -k.  Written into `out` when given, a complex (..., 2, S, K + 1) array
    that may be a view.  Beyond `out`, it holds the (..., P) pair amplitudes
    and their (..., S (K + 1)) gather onto the half.
    """
    xi = np.asarray(xi, dtype=np.float64)
    if xi.shape[-1] != model.n_directions:
        raise NoiseConfigError(
            f"coefficient vector has length {xi.shape[-1]}, expected {model.n_directions}"
        )
    c = _pair_amplitudes(model, xi, weights)
    K, S = model.grid.max_wavenumber, model.grid.n_coeff
    shape = c.shape[:-1] + (2, S, K + 1)
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif out.shape != shape or out.dtype != np.complex128:
        raise ValueError(f"out must be complex128 of shape {shape}")
    amp = np.take(c, model._half_source, axis=-1).reshape(c.shape[:-1] + (1, S, K + 1))
    np.multiply(amp, model._half_direction, out=out)
    np.conjugate(out[..., :K, :], out=out[..., :K, :])
    return out


def gather_coefficients(model: NoiseModel, coeffs: np.ndarray) -> np.ndarray:
    """L2-adjoint of unweighted scatter: xi_j = (e_j, field), for full
    fields (..., 2, S, S)."""
    S = model.grid.n_coeff
    flat = coeffs.reshape(coeffs.shape[:-2] + (S * S,))  # (..., 2, S*S)
    plus = flat[..., model._pos_plus]  # (..., 2, P)
    proj = np.einsum("...cp,pc->...p", plus, model.pair_direction)
    base = TWO_PI**2 * model._basis_amp
    xi = np.empty(proj.shape[:-1] + (2 * model.n_pairs,))
    xi[..., 0::2] = base * proj.real
    xi[..., 1::2] = -base * proj.imag
    return xi[..., : model.n_directions]


def saturation_factor(params: SigmaParams, r):
    """Bounded, Lipschitz gain modulation m(r), monotone with plateau s0."""
    r = np.asarray(r, dtype=np.float64)
    s0, delta = params.saturation_scale, params.smoothing_delta
    out = s0 * r * r / ((s0 + r) * np.maximum(r, delta))
    return out if out.ndim else float(out)


def sigma_factor(model: NoiseModel, t: float, u_coeffs: np.ndarray):
    """State-dependent gain modulation, one value per state of a batch of
    conjugate-symmetric states given by their kx >= 0 halves
    (..., 2, S, K + 1).

    The scalar 1.0 for the additive family, whatever the batch shape.  No
    family reads t, so one call may cover states at different times.
    """
    if not model.state_dependent:
        return 1.0
    v2 = weighted_norm_sq(abs_sq(u_coeffs), model.grid.half_k2)
    return saturation_factor(model.params, np.sqrt(v2))


def times_factor(field: np.ndarray, factor, out: np.ndarray | None = None) -> np.ndarray:
    """field (..., 2, S, K + 1) modulated by a `sigma_factor` value: field itself
    for the scalar 1.0, else a new array (or `out`), one factor per leading
    index."""
    if np.ndim(factor) == 0 and factor == 1.0:
        return field
    return np.multiply(field, np.asarray(factor)[..., None, None, None], out=out)


def sigma_apply_array(
    model: NoiseModel,
    t: float,
    u_coeffs: np.ndarray,
    xi: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The kx >= 0 half of sigma(t, u) xi; batched when u_coeffs and xi carry
    a batch axis.

    The factor of u_coeffs, the states' halves (..., 2, S, K + 1),
    broadcasts against xi (..., J), so xi may carry more leading axes than
    u_coeffs.  The field is scattered into `out` when given (see
    `scatter_coefficients`), and the factor applied in place.
    """
    out = scatter_coefficients(model, xi, weights=model.gains, out=out)
    return times_factor(out, sigma_factor(model, t, u_coeffs), out=out)


def sigma_adjoint_array(
    model: NoiseModel, t: float, u_coeffs: np.ndarray, y_coeffs: np.ndarray
) -> np.ndarray:
    """Adjoint of sigma(t, u) against the L2 pairing: field -> coefficients,
    for states u given by their kx >= 0 halves and full fields y_coeffs
    (..., 2, S, S), the input of `gather_coefficients`."""
    factor = sigma_factor(model, t, u_coeffs)
    xi = gather_coefficients(model, y_coeffs) * model.gains
    if np.ndim(factor) == 0:
        return xi * factor
    return xi * np.asarray(factor)[..., None]


def sigma_hs_norm(model: NoiseModel, t: float, u: np.ndarray) -> float:
    """Hilbert-Schmidt norm of sigma(t, u) Q^(1/2) (closed form, diagonal
    family), for a state u given by its kx >= 0 half."""
    return float(model._hs_base * sigma_factor(model, t, u))


def sigma_curl_hs_norm(model: NoiseModel, t: float, u: np.ndarray) -> float:
    """Hilbert-Schmidt norm of curl sigma(t, u) Q^(1/2), for a state u given
    by its kx >= 0 half."""
    return float(model._curl_hs_base * sigma_factor(model, t, u))


def declared_constants(model: NoiseModel) -> dict:
    """Constants the family satisfies by construction.

    bound:      sup over states of the Hilbert-Schmidt norm
    growth:     constant in ||sigma||^2 <= growth * (1 + ||u||^2)
    lipschitz:  constant in ||sigma(u) - sigma(v)|| <= lipschitz * ||u - v||
    curl_bound / curl_growth: same pair for the curl of the map
    """
    base, curl_base = model._hs_base, model._curl_hs_base
    if model.family == "additive":
        return {
            "bound": base,
            "growth": base**2,
            "lipschitz": 0.0,
            "curl_bound": curl_base**2,
            "curl_growth": 0.0,
        }
    s0, delta = model.params.saturation_scale, model.params.smoothing_delta
    lip_m = s0 * (2 * s0 + delta) / (s0 + delta) ** 2  # sup |m'(r)|, attained at delta-
    return {
        "bound": base * s0,
        "growth": base**2,  # m(r) <= r
        "lipschitz": base * lip_m,
        "curl_bound": (curl_base * s0) ** 2,
        "curl_growth": curl_base**2,
    }


@dataclass(frozen=True)
class AssumptionReport:
    """Empirical bound and Lipschitz estimates, the declared constants the
    samples violate, and the Hilbert-Schmidt norm at the 25 gradient norms
    logspace(-3, 3, 25)."""

    family: str
    n_samples: int
    bound_est: float
    lipschitz_est: float
    declared: dict
    violations: tuple[str, ...]
    sweep_norm: tuple[float, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_assumptions(
    model: NoiseModel, n_samples: int, rng: np.random.Generator
) -> AssumptionReport:
    """Estimate the family's constants over random states and compare to declared.

    States are drawn with gradient norms spread over several decades so both
    small- and large-state behavior of the modulation is exercised.  The sweep
    records the Hilbert-Schmidt norm over a geometric grid of gradient norms;
    for the saturated family it is monotone with a plateau at the configured
    bound, which is the only thing keeping the map bounded.
    """
    from .spectral import random_solenoidal_field

    if n_samples < 100:
        raise NoiseConfigError("verify_assumptions needs n_samples >= 100")
    declared = declared_constants(model)
    slack = 1.05
    bound_est = lip_est = 0.0
    violations = set()
    for _ in range(n_samples):
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        u, v = (half_spectrum(random_solenoidal_field(model.grid, rng, amplitude=scale).coeffs)
                for _ in range(2))
        t = rng.uniform(0.0, 1.0)
        nu2 = float(weighted_norm_sq(abs_sq(u), model.grid.half_k2))
        s_u = sigma_hs_norm(model, t, u)
        s_v = sigma_hs_norm(model, t, v)
        c_u = sigma_curl_hs_norm(model, t, u)
        bound_est = max(bound_est, s_u)
        dv = float(np.sqrt(weighted_norm_sq(abs_sq(u - v), model.grid.half_k2)))
        if dv > 1e-12:
            lip_est = max(lip_est, abs(s_u - s_v) / dv)
        if s_u > slack * declared["bound"]:
            violations.add("bound")
        if s_u**2 > slack * declared["growth"] * (1.0 + nu2):
            violations.add("growth")
        if abs(s_u - s_v) > slack * declared["lipschitz"] * dv + 1e-12:
            violations.add("lipschitz")
        if c_u**2 > slack * (declared["curl_bound"] + declared["curl_growth"] * nu2):
            violations.add("curl")
    sweep_r = np.logspace(-3, 3, 25)
    if model.family == "additive":
        sweep_norm = np.full_like(sweep_r, declared["bound"])
    else:
        base = declared["bound"] / model.params.saturation_scale
        sweep_norm = base * saturation_factor(model.params, sweep_r)
    return AssumptionReport(
        family=model.family,
        n_samples=n_samples,
        bound_est=bound_est,
        lipschitz_est=lip_est,
        declared=declared,
        violations=tuple(sorted(violations)),
        sweep_norm=tuple(float(s) for s in sweep_norm),
    )


@dataclass(frozen=True)
class Control:
    """Piecewise-constant kernel-space control on a uniform time grid.

    values[m, j] is the coefficient of direction j on [t_m, t_{m+1}); the
    energy integral is exact for piecewise-constant paths.
    """

    model: NoiseModel
    horizon: float
    values: np.ndarray  # (M, J)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != self.model.n_directions:
            raise NoiseConfigError(
                f"control values must be (M, {self.model.n_directions}), got {v.shape}"
            )
        if self.horizon < 0:
            raise NoiseConfigError("horizon must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_cells(self) -> int:
        return self.values.shape[0]

    @property
    def cell_width(self) -> float:
        return self.horizon / self.n_cells

    def cell_index(self, t):
        """Index of the cell holding time t (or of each time in an array)."""
        t = np.asarray(t, dtype=np.float64)
        if self.horizon == 0:
            return np.zeros(t.shape, dtype=np.int64)
        return np.minimum((t / self.cell_width).astype(np.int64), self.n_cells - 1)

    def value_at(self, t) -> np.ndarray:
        return self.values[self.cell_index(t)]

    def cumulative(self, times: np.ndarray) -> np.ndarray:
        """Pathwise primitive of the control at the given times, shape (T, J)."""
        J = self.values.shape[1]
        t = np.asarray(times, dtype=np.float64)
        if self.horizon == 0:
            return np.zeros((len(t), J))
        w = self.cell_width
        csum = np.concatenate(
            [np.zeros((1, J)), np.cumsum(self.values, axis=0) * w], axis=0
        )
        m = self.cell_index(t)
        return csum[m] + (t - m * w)[:, None] * self.values[m]

def control_energy(h: Control) -> float:
    """Exact energy integral of |h(s)|_0^2 with kernel weights 1/lambda_j."""
    if h.n_cells == 0 or h.horizon == 0:
        return 0.0
    return float(np.sum(h.values**2 / h.model.eigenvalues) * h.cell_width)


def kernel_norm_sq(model: NoiseModel, xi: np.ndarray) -> np.ndarray:
    """Squared kernel-space norm of coefficient vectors (batched)."""
    return np.sum(np.asarray(xi) ** 2 / model.eigenvalues, axis=-1)


def zero_control(model: NoiseModel, horizon: float, n_cells: int) -> Control:
    return Control(model, horizon, np.zeros((n_cells, model.n_directions)))
