"""Time integration of the stochastic system, its deterministic limit, the
controlled linearization, and the shifted fluctuation process.

All solvers share one integrating-factor step: the dissipation operator is
integrated exactly per mode, advection and forcing enter explicitly with the
weight phi(a, dt) = (1 - exp(-a dt)) / a, and noise enters at the left endpoint
with weight phi / dt (Ito convention).  In the linear additive regime each mode
is therefore an exactly solvable Gaussian recursion, which the test oracles
exploit.

The ensemble entry points integrate many paths at once (vectorized over a
chunk) while each path consumes its own counter-based substream, so results do
not depend on chunking or scheduling.  Every stochastic path is advanced by
the one time loop in `_integrate_batch`, on the kx >= 0 half of its
conjugate-symmetric state; processes coupled to the noisy path
(the shifted fluctuation here, the first-order linearization in the deviation
module) are stepped by observers of that loop on the same increments.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .noise import (
    Control,
    NoiseModel,
    at_directions,
    scatter_coefficients,
    sigma_apply_array,
    sigma_factor,
    times_factor,
)
from .rng import substream
from .spectral import (
    SpectralField,
    SpectralGrid,
    TWO_PI,
    _curl_form,
    advection_array,
    abs_sq,
    full_spectrum,
    half_spectrum,
    linearized_advection_array,
    weighted_norm_sq,
    zero_field,
)

LOGLOG_LIMIT = math.exp(-math.e)  # log log (1/eps) > 0 requires eps below this


class IntegrationError(RuntimeError):
    """Blowup or non-finite state; carries the failing step index."""

    def __init__(self, step: int, message: str):
        super().__init__(f"integration failed at step {step}: {message}")
        self.step = step


class GridMismatchError(ValueError):
    pass


class ParameterError(ValueError):
    pass


def loglog(epsilon: float) -> float:
    """log log (1/epsilon), defined for epsilon in (0, exp(-e))."""
    if not 0.0 < epsilon < LOGLOG_LIMIT:
        raise ParameterError(
            f"epsilon must lie in (0, {LOGLOG_LIMIT:.6f}) for the iterated "
            f"logarithm scaling, got {epsilon}"
        )
    return math.log(math.log(1.0 / epsilon))


def lil_lambda(epsilon: float) -> float:
    """lambda(eps) = sqrt(2 eps log log(1/eps)), the fluctuation's LIL normalizer."""
    return math.sqrt(2.0 * epsilon * loglog(epsilon))


def lil_a(epsilon: float) -> float:
    """a(eps) = 1/sqrt(2 log log(1/eps)), the LIL rescaling of the noise."""
    return 1.0 / math.sqrt(2.0 * loglog(epsilon))


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one integration run.

    `nonlinear` switches every advection coupling in every solver (the
    quadratic term of the state equations and the linear advective couplings
    of the controlled/shifted equations), giving the exactly solvable
    diagonal regime when off.
    """

    grid: SpectralGrid
    noise: NoiseModel
    horizon: float
    dt: float
    epsilon: float = 0.0
    initial: SpectralField | None = None
    forcing: SpectralField | None = None
    nonlinear: bool = True
    record_stride: int = 1
    blowup_factor: float = 1e6

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        if self.horizon < 0:
            raise ParameterError("horizon must be nonnegative")
        if self.epsilon < 0:
            raise ParameterError("epsilon must be nonnegative")
        if self.record_stride < 1:
            raise ParameterError("record_stride must be >= 1")
        n = round(self.horizon / self.dt)
        if abs(n * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ParameterError("horizon must be an integral multiple of dt")
        if self.noise.grid != self.grid:
            raise GridMismatchError("noise model grid differs from state grid")
        if self.forcing is not None and not isinstance(self.forcing, SpectralField):
            raise ParameterError("forcing must be a SpectralField or None")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)

    def with_epsilon(self, epsilon: float) -> "SimConfig":
        return replace(self, epsilon=epsilon)


class Propagator:
    """Per-mode integrating-factor weights for one step size (read-only
    arrays), on the kx >= 0 columns (S, K + 1) where every state is held.

    Build it through `propagator`, which returns one shared instance per
    (grid, dt).
    """

    def __init__(self, grid: SpectralGrid, dt: float):
        self.grid = grid
        self.dt = dt
        k2 = half_spectrum(grid.k2)
        self.half_decay = np.exp(-k2 * dt)
        phi = np.where(k2 > 0, (1.0 - self.half_decay) / np.where(k2 > 0, k2, 1.0), dt)
        self.half_phi = phi
        self.half_phi_rate = phi / dt
        # exact integral of ||u||^2 over one pure-decay step, per unit |u_k|^2,
        # with the Parseval weight of the half
        self.half_int_weight = grid.half_weight * ((1.0 - self.half_decay**2) / 2.0)
        for arr in (self.half_decay, self.half_phi, self.half_phi_rate, self.half_int_weight):
            arr.setflags(write=False)


@functools.lru_cache(maxsize=32)
def propagator(grid: SpectralGrid, dt: float) -> Propagator:
    """The shared read-only Propagator of one (grid, dt)."""
    return Propagator(grid, dt)


def _initial_coeffs(config: SimConfig) -> np.ndarray:
    """The kx >= 0 half (2, S, K + 1) of the initial field."""
    initial = config.initial or zero_field(config.grid)
    if initial.grid != config.grid:
        raise GridMismatchError("initial condition grid differs from run grid")
    return half_spectrum(initial.coeffs)


def _guard_scale(config: SimConfig, u0_coeffs: np.ndarray) -> float:
    """Blow-up threshold shared by every stochastic solver: blowup_factor times
    the initial amplitude, floored at 1/(2 pi)."""
    return config.blowup_factor * max(np.max(np.abs(u0_coeffs)), 1.0 / TWO_PI)


def _blowup_guard(half: np.ndarray, scale: float, step: int) -> None:
    """Raise IntegrationError for a non-finite state or one whose largest
    amplitude exceeds scale, given the kx >= 0 half of the state.  The state
    is conjugate symmetric and |conj c| = |c|, so its half holds its largest
    amplitude."""
    peak = np.max(np.abs(half))
    if not np.isfinite(peak):
        raise IntegrationError(step, "non-finite coefficients")
    if peak > scale:
        raise IntegrationError(step, f"amplitude {peak:.3e} exceeded blowup guard")


@dataclass
class Trajectory:
    """Recorded states plus running norm functionals of one solution path.

    `frames` holds the recorded states as kx >= 0 halves,
    (records, 2, S, K + 1); `field_at` mirrors one into a full field.
    `sup_h2` and `int_v2` are accumulated over every solver step (the integral
    by the per-step integrating-factor quadrature, exact for pure decay);
    `h2`/`v2` hold the squared norms at the recorded times only.  Treat
    instances as immutable.
    """

    grid: SpectralGrid
    dt: float
    record_stride: int
    times: np.ndarray
    frames: np.ndarray
    h2: np.ndarray
    v2: np.ndarray
    sup_h2: float
    int_v2: float
    provenance: dict = field(default_factory=dict)

    @property
    def n_records(self) -> int:
        return len(self.times)

    def field_at(self, i: int) -> SpectralField:
        return SpectralField(self.grid, full_spectrum(self.frames[i]))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def running_energy_sq(self) -> float:
        return self.sup_h2 + self.int_v2

    def aligned_with(self, other: "Trajectory") -> bool:
        return (
            self.grid == other.grid
            and self.n_records == other.n_records
            and np.allclose(self.times, other.times, atol=1e-12)
        )


def _sup_plus_integral(h2: np.ndarray, v2: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Trajectory-norm contract over the last axis: sup of |u|^2 plus the
    left-endpoint integral of ||u||^2 on the recording times."""
    return np.max(h2, axis=-1) + np.sum(v2[..., :-1] * np.diff(times), axis=-1)


class _RecordingGrid:
    """The solver steps kept on the recording grid (every stride-th step and
    the last) and the times at which they were seen."""

    def __init__(self, n_steps: int, stride: int):
        self.steps = [i for i in range(n_steps + 1) if i % stride == 0 or i == n_steps]
        self.times = np.zeros(len(self.steps))
        self._cursor = 0

    def __len__(self) -> int:
        return len(self.steps)

    def slot(self, idx: int, t: float) -> int | None:
        """Record index of solver step idx (noting its time), or None if not kept."""
        c = self._cursor
        if c < len(self.steps) and idx == self.steps[c]:
            self.times[c] = t
            self._cursor += 1
            return c
        return None


# bytes of scattered noise formed per call of the stepper: 256 kx >= 0
# halves of K = 10, (2, 21, 11) each (1.9 MB), 8 steps of a 32-path chunk,
# the largest at K = 10; a chunk holds no other normals
_NOISE_BLOCK_BYTES = 256 * 2 * 21 * 11 * 16

# normals one path's draw call fills in a block: past this size a longer
# block costs memory and saves no per-call overhead
_NOISE_BLOCK_DRAW = 512


def _noise_block_steps(model: NoiseModel, n_paths: int, n_steps: int) -> int:
    """Steps of one noise block of a batch of n_paths paths under model.

    A path-step's scattered noise field, a (2, S, K + 1) complex half, is
    larger than its J <= S^2 - 1 normals, so it alone is held to the byte
    budget.  A block is also no longer than ceil(_NOISE_BLOCK_DRAW / J)
    steps, enough for each path's draw call to fill _NOISE_BLOCK_DRAW
    normals: at K = 10 and full J, 2 steps whatever the batch.
    """
    half_nbytes = 32 * model.grid.n_coeff * (model.grid.max_wavenumber + 1)  # (2, S, K + 1)
    by_bytes = _NOISE_BLOCK_BYTES // (n_paths * half_nbytes)
    by_draw = -(-_NOISE_BLOCK_DRAW // model.n_directions)
    return min(n_steps, max(1, min(by_bytes, by_draw)))


def _integrate_batch(
    config: SimConfig,
    state: np.ndarray,
    sources: list | None,
    hooks,
) -> None:
    """Advance a batch of paths in place, invoking hooks at each step.

    This is the one time loop of every stochastic path, and the one place
    where standard normals become Wiener increments.  The paths are
    conjugate symmetric, and state holds only their kx >= 0 half, shape
    (n, 2, S, K + 1): the update, the noise and the self-advection are formed
    on that half alone.  hooks.on_noise(step, t, coeffs, dW) and
    hooks.on_state(idx, t, coeffs) are optional callables, and coeffs is the
    half.  on_noise sees the pre-step state, so a coupled process can be
    stepped inside it on the same increments.  sources holds one generator
    per path, drawn from in step order, or is None for a noiseless run; the
    stepper calls only its standard_normal(out=), so a generator-like object
    may stand in for one.  Step m's increment of path i is its source's
    normals times sqrt(lambda_j dt).

    Each step first takes its noise, drawing and scattering a new block when
    one starts, and calls on_noise; only then is the self-advection formed,
    then the noise factor, and the state is updated in place, with no second
    state-sized array.  So neither the scatter's nor on_noise's temporaries
    are made while the advection is held.  Every term reads the pre-step
    state, which is changed only by the update.

    The normals are drawn, one standard_normal(out=) call per path into its
    row of the block, and the noise field, which does not read the state, is
    scattered, for a block of steps at once: up to _NOISE_BLOCK_BYTES of
    noise field per call, and no more steps than fill _NOISE_BLOCK_DRAW
    normals per path (`_noise_block_steps`).  A generator gives the same
    normals whether it fills a path in one call or block by block.  For a
    state-independent family the scatter weight of direction j is
    gain_j sqrt(eps) phi_rate(k_j), with k_j its mode, so the block, the
    half of the scatter, is the step's whole noise term; a state-dependent
    family's block is scatter(dW * gains), and its factor, sqrt(eps) and
    phi_rate are applied per step.  Every operation is elementwise, so the
    values do not depend on the block.
    """
    prop = propagator(config.grid, config.dt)
    model = config.noise
    n_steps = config.n_steps
    phi_forcing = None
    if config.forcing is not None:
        phi_forcing = prop.half_phi * half_spectrum(config.forcing.coeffs)
    sqrt_eps = math.sqrt(config.epsilon)
    scale = _guard_scale(config, state)
    on_noise = getattr(hooks, "on_noise", None)
    on_state = getattr(hooks, "on_state", None)
    if on_state:
        on_state(0, 0.0, state)
    sqrt_lam_dt = np.sqrt(model.eigenvalues * config.dt)
    weights = model.gains
    if not model.state_dependent:
        weights = model.gains * sqrt_eps * at_directions(model, prop.half_phi_rate)
    block = _noise_block_steps(model, state.shape[0], n_steps)
    for step in range(n_steps):
        t = step * config.dt
        noise = None
        if sources is not None:
            i = step % block
            if i == 0:
                dW_block = np.empty((len(sources), min(block, n_steps - step), model.n_directions))
                # by index: a loop variable bound to a row view would keep
                # the block alive past its last step
                for k, src in enumerate(sources):
                    src.standard_normal(out=dW_block[k])
                dW_block *= sqrt_lam_dt
                if config.epsilon > 0.0:
                    noise_block = np.empty(dW_block.shape[:-1] + state.shape[1:], np.complex128)
                    scatter_coefficients(model, dW_block, weights=weights, out=noise_block)
            if on_noise:
                on_noise(step, t, state, dW_block[:, i])
            if config.epsilon > 0.0:
                noise = noise_block[:, i]
            if i == block - 1:
                dW_block = noise_block = None
        adv = advection_array(config.grid, state, state) if config.nonlinear else None
        if noise is not None and model.state_dependent:
            factor = sigma_factor(model, t, state)[:, None, None, None]
            noise = noise * factor * sqrt_eps * prop.half_phi_rate
        # state <- decay * state + phi * forcing - phi * adv + noise, in place
        state *= prop.half_decay
        if phi_forcing is not None:
            state += phi_forcing
        if adv is not None:
            adv *= prop.half_phi
            state -= adv
        if noise is not None:
            state += noise
        # the advection and a used-up noise block are freed here, not held
        # through the observers and the next step's noise and advection: that
        # lowers the peak RSS of a batched run
        adv = noise = None
        _blowup_guard(state, scale, step)
        if on_state:
            on_state(step + 1, t + config.dt, state)


def _trajectory(
    config: SimConfig, data: dict, i: int, provenance: dict | None = None
) -> Trajectory:
    """Trajectory of path i from the output of a TrajectoryObserver."""
    return Trajectory(
        grid=config.grid,
        dt=config.dt,
        record_stride=config.record_stride,
        times=data["times"][i],
        frames=data["frames"][i],
        h2=data["h2"][i],
        v2=data["v2"][i],
        sup_h2=float(data["sup_h2"][i]),
        int_v2=float(data["int_v2"][i]),
        provenance=dict(provenance or {}),
    )


def _solve_single(config: SimConfig, sources: list | None, provenance: dict) -> Trajectory:
    obs = TrajectoryObserver(config)
    obs.on_start(propagator(config.grid, config.dt), 1, config.n_steps)
    _integrate_batch(config, _initial_coeffs(config)[None].copy(), sources, obs)
    return _trajectory(config, obs.finish(), 0, provenance)


def solve_deterministic(config: SimConfig, provenance: dict | None = None) -> Trajectory:
    """Integrate the zero-noise dynamics; deterministic given config."""
    cfg = config if config.epsilon == 0.0 else config.with_epsilon(0.0)
    prov = dict(provenance or {})
    prov.setdefault("epsilon", 0.0)
    return _solve_single(cfg, None, prov)


def solve_snse(config: SimConfig, seed: int, provenance: dict | None = None) -> Trajectory:
    """Integrate the noisy dynamics; deterministic given (config, seed).

    At epsilon 0 the path still runs through the noisy stepper and consumes
    its normals; only the noise term vanishes."""
    prov = dict(provenance or {})
    prov.setdefault("seed", seed)
    prov.setdefault("epsilon", config.epsilon)
    return _solve_single(config, [substream(seed, 0)], prov)


def _require_solver_grid(traj: Trajectory, config: SimConfig, name: str) -> None:
    if traj.grid != config.grid:
        raise GridMismatchError(f"{name} grid differs from run grid")
    if traj.record_stride != 1 or traj.n_records != config.n_steps + 1:
        raise GridMismatchError(
            f"{name} must be recorded at every solver step over the full horizon"
        )
    if abs(traj.dt - config.dt) > 1e-15:
        raise GridMismatchError(f"{name} step size differs from run step size")


def _control_values_on_steps(h: Control, config: SimConfig) -> np.ndarray:
    if abs(h.horizon - config.horizon) > 1e-12 * max(1.0, config.horizon):
        raise GridMismatchError("control horizon differs from run horizon")
    return h.value_at(np.arange(config.n_steps) * config.dt)


def _control_fields(h: Control, config: SimConfig) -> np.ndarray:
    """Unmodulated noise-map images of the control at every step, one call:
    the kx >= 0 halves of scatter(h gains), shape (n_steps, 2, S, K + 1)."""
    model = config.noise
    return scatter_coefficients(model, _control_values_on_steps(h, config), model.gains)


def skeleton_forward(
    h_values: np.ndarray,
    u0_frames: np.ndarray,
    config: SimConfig,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """All frames of the controlled linearization driven by per-step controls.

    h_values has shape (..., n_steps, J), one control per leading index;
    u0_frames holds the deterministic limit at every solver step, as kx >= 0
    halves.  Returns the frames' halves (..., n_steps + 1, 2, S, K + 1),
    written into `out` when given (which may be a view, see
    `scatter_coefficients`).  The dynamics are linear in the
    state and in the control: the noise map is frozen at the deterministic
    limit, so it is applied to every step in one call before the loop, and
    in the nonlinear regime each step subtracts the advection linearized
    around u0, B(x, u0) + B(u0, x), in one `linearized_advection_array`
    call.  Step n's right-hand side is formed in frame n + 1 and stepped
    over in place, so the solve holds no array but its output.
    """
    prop = propagator(config.grid, config.dt)
    n = config.n_steps
    h_values = np.asarray(h_values)
    if out is None:
        out = np.empty(h_values.shape[:-2] + (n + 1,) + u0_frames.shape[1:], dtype=np.complex128)
    out[..., 0, :, :, :] = 0.0
    rhs = sigma_apply_array(config.noise, 0.0, u0_frames[:n], h_values, out=out[..., 1:, :, :, :])
    if not config.nonlinear:
        rhs *= prop.half_phi
    for step in range(n):
        x = out[..., step, :, :, :]
        r = out[..., step + 1, :, :, :]
        if config.nonlinear:
            u0 = u0_frames[step]
            r -= linearized_advection_array(config.grid, x, u0)
            np.multiply(prop.half_phi, r, out=r)
        np.add(prop.half_decay * x, r, out=r)
    return out


def solve_skeleton(
    h: Control,
    u0_traj: Trajectory,
    config: SimConfig,
    provenance: dict | None = None,
) -> Trajectory:
    """Integrate the controlled linearization around the deterministic limit,
    recorded on config's grid by one observer pass over skeleton_forward's
    frames; at record stride 1 the trajectory's frames are those frames."""
    _require_solver_grid(u0_traj, config, "deterministic trajectory")
    h_values = _control_values_on_steps(h, config)
    frames = skeleton_forward(h_values, u0_traj.frames, config)[None]
    obs = TrajectoryObserver(config, frames if config.record_stride == 1 else None)
    obs.on_start(propagator(config.grid, config.dt), 1, config.n_steps)
    for idx in range(config.n_steps + 1):
        obs.on_state(idx, idx * config.dt, frames[:, idx])
    return _trajectory(config, obs.finish(), 0, provenance)


def shifted_diffusion_argument(
    z_coeffs: np.ndarray, u0_coeffs: np.ndarray, epsilon: float
) -> np.ndarray:
    """State at which the diffusion coefficient is evaluated for the shifted process."""
    return lil_lambda(epsilon) * z_coeffs + u0_coeffs


class _ShiftedObserver:
    """Steps the shifted fluctuation z on the increments of the noisy path and
    shows the wrapped observer z in place of the noisy state.

    z, the u0 frames and h_field, the unmodulated control field of every step
    (`_control_fields`), are kx >= 0 halves, like the stepper's state.  The
    drift B(u, z) + B(z, u0), with the pre-step noisy state u, is one
    `_curl_form` call: P div((z s + s z)/2), s = u + u0, plus the
    antisymmetric part z x (u0 - u).  The diffusion coefficient is evaluated
    at the recentred state, once per step, and modulates both the control
    and the noise.
    """

    def __init__(self, config: SimConfig, h_field, u0_frames, inner):
        self.config = config
        self.h_field = h_field
        self.u0 = u0_frames
        self.inner = inner
        self.inv_sq = lil_a(config.epsilon)
        self.scale = _guard_scale(config, _initial_coeffs(config))

    def on_start(self, prop: Propagator, n_paths: int, n_steps: int):
        self.prop = prop
        self.z = np.zeros((n_paths,) + self.u0.shape[1:], dtype=np.complex128)
        self.inner.on_start(prop, n_paths, n_steps)

    def on_noise(self, step, t, coeffs, dW):
        cfg, prop, z, u0 = self.config, self.prop, self.z, self.u0[step]
        factor = 1.0  # the additive family's, which reads no state
        if cfg.noise.state_dependent:
            factor = sigma_factor(cfg.noise, t, shifted_diffusion_argument(z, u0, cfg.epsilon))
        rhs = times_factor(self.h_field[step], factor)
        if cfg.nonlinear:
            rhs = rhs - _curl_form(cfg.grid, z, coeffs + u0, d=u0 - coeffs)
        noise = scatter_coefficients(cfg.noise, dW, weights=cfg.noise.gains, out=np.empty_like(z))
        noise = self.inv_sq * times_factor(noise, factor)
        self.z = prop.half_decay * z + prop.half_phi * rhs + prop.half_phi_rate * noise
        _blowup_guard(self.z, self.scale, step)

    def on_state(self, idx, t, coeffs):
        self.inner.on_state(idx, t, self.z)

    def finish(self) -> dict:
        return self.inner.finish()


class _FanOutObserver:
    """Several observers of one ensemble, keyed by output prefix: each hook is
    forwarded to every child in insertion order (on_noise only to those that
    define it), and finish() merges their outputs under prefixed keys."""

    def __init__(self, children: dict):
        self.children = children
        self.noisy = [c for c in children.values() if hasattr(c, "on_noise")]

    def on_start(self, prop: Propagator, n_paths: int, n_steps: int):
        for child in self.children.values():
            child.on_start(prop, n_paths, n_steps)

    def on_noise(self, step, t, coeffs, dW):
        for child in self.noisy:
            child.on_noise(step, t, coeffs, dW)

    def on_state(self, idx, t, coeffs):
        for child in self.children.values():
            child.on_state(idx, t, coeffs)

    def finish(self) -> dict:
        return {
            prefix + key: val
            for prefix, child in self.children.items()
            for key, val in child.finish().items()
        }


# most paths integrated together per ensemble chunk
_CHUNK_PATHS = 256

# bytes of the self-advection's padded (N, N) complex array over a chunk's
# paths: 32 paths at K = 10, whose whole step working set (the padded array,
# state, advection, noise block and scatter and observer temporaries, about
# 80 KB a path) fits a 2 MiB L2, and sets a batched run's peak memory.  Per
# path, 32 paths at K = 10 advected as fast as 64 and up to 15% faster than
# 256 (4.2 MB of padded array); 13 at K = 16 and 167 at K = 4 advected
# within 5% of 26 and 256
_CHUNK_BYTES = 1 << 19


def _chunk_paths(grid: SpectralGrid) -> int:
    """Paths per ensemble chunk on grid: as many as fill _CHUNK_BYTES with
    one padded (N, N) complex array each, at least 1 and at most
    _CHUNK_PATHS (32 at K = 10, 13 at K = 16, 167 at K = 4, 256 at K <= 2)."""
    by_bytes = _CHUNK_BYTES // (grid.physical_resolution**2 * 16)
    return max(1, min(_CHUNK_PATHS, by_bytes))


# glibc's mallopt parameters, and the values `_reuse_step_memory` gives
# them: the mmap threshold is the largest glibc accepts on 64-bit systems
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 1024 * 1024
_TRIM_THRESHOLD = 128 * 1024 * 1024


def _glibc_mallopt():
    """glibc's mallopt(param, value) through ctypes, or None under any other C
    library or when the lookup fails."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return None
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (AttributeError, OSError, ValueError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


@functools.cache
def _reuse_step_memory() -> None:
    """Have glibc serve an ensemble's per-step and per-block temporaries from
    the heap and keep them there once freed, so that the next step, block or
    ensemble reuses their pages.

    Each step allocates a few arrays about the size of the chunk's states
    (the advection, a transform's grid array) and each noise block one
    more.  Above glibc's default 128 KiB mmap threshold each one is mapped
    afresh and unmapped on free, and every step faults its pages in again.
    The mmap threshold is set to 32 MiB, above every such array of any
    chunk (`_chunk_paths`), and the trim threshold, the freed heap top
    kept in the process, to 128 MiB.  Setting either also stops glibc's
    dynamic threshold.  The settings belong to the process, so this is done
    once, by the first ensemble; under any other C library nothing is
    called.  No value depends on it.
    """
    mallopt = _glibc_mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def ensemble_run(
    config: SimConfig,
    seed: int,
    n_paths: int,
    observer_factory: Callable[[], object],
) -> dict:
    """Integrate n_paths independent paths, merging per-path observer output.

    Path i draws its standard normals from substream(seed, i), its only
    source; a noiseless run (epsilon 0) draws none.  Paths are integrated
    one chunk at a time, full chunks of `_chunk_paths(config.grid)` paths
    and then the remainder: as many paths as fill _CHUNK_BYTES with the
    self-advection's padded transform array, at most _CHUNK_PATHS.  A
    chunk's normals are drawn one noise block at a time and scaled into
    increments by the stepper (`_integrate_batch`).  The first call sets
    the process's allocator policy (`_reuse_step_memory`).
    The observer factory is invoked per chunk; each observer must implement
    on_start(prop, n, n_steps), optional on_noise(step, t, coeffs, dW)
    (called with the pre-step state and the step's increments before each
    noisy step), optional on_state(idx, t, coeffs) (called with the state
    after each step, and once with the initial state), and finish() -> dict
    of arrays with leading axis n.  A hook's coeffs is the (n, 2, S, K + 1)
    kx >= 0 half of the conjugate-symmetric states, which is all the stepper
    holds.  Results are concatenated across chunks, so output is
    independent of the chunk size.
    """
    n_steps = config.n_steps
    u0_half = _initial_coeffs(config)
    _reuse_step_memory()
    merged: dict[str, list[np.ndarray]] = {}
    chunk = _chunk_paths(config.grid)
    for start in range(0, n_paths, chunk):
        paths = range(start, min(start + chunk, n_paths))
        sources = [substream(seed, i) for i in paths] if config.epsilon > 0.0 else None
        state = np.broadcast_to(u0_half, (len(paths),) + u0_half.shape).copy()
        obs = observer_factory()
        obs.on_start(propagator(config.grid, config.dt), len(paths), n_steps)
        _integrate_batch(config, state, sources, obs)
        for key, val in obs.finish().items():
            merged.setdefault(key, []).append(val)
    return {k: np.concatenate(v, axis=0) for k, v in merged.items()}


def _epsilon_ensembles(config: SimConfig, epsilons: list, seed: int, n_paths: int,
                       observer_factory: Callable, workers: int = 1) -> list[dict]:
    """The `ensemble_run` of config.with_epsilon(eps) for each eps, observed
    by observer_factory(that config), in the order of epsilons.  They are
    independent, so they run on min(workers, len(epsilons)) threads, inline
    when that is one; numpy's transforms and loops release the GIL.  The
    allocator policy is set first: its cache does not lock a first call."""

    def run(eps):
        cfg = config.with_epsilon(eps)
        return ensemble_run(cfg, seed, n_paths, lambda: observer_factory(cfg))

    n_threads = min(workers, len(epsilons))
    if n_threads <= 1:
        return [run(eps) for eps in epsilons]
    from concurrent.futures import ThreadPoolExecutor

    _reuse_step_memory()
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(run, epsilons))


class TrajectoryObserver:
    """Observer that materializes light trajectories for every path.

    sup_h2 and int_v2 run over every solver step (the integral by the
    per-step integrating-factor quadrature); frames, h2 and v2 are kept on
    the recording grid.  A state arrives as its kx >= 0 half, and a frame is
    a copy of it.  The frames are recorded into `frames` when given, an
    (n_paths, records, 2, S, K + 1) array; a half that already lies in its
    slot (a view of the same memory) is not copied.
    """

    def __init__(self, config: SimConfig, frames: np.ndarray | None = None):
        self.config = config
        self._out = frames

    def on_start(self, prop: Propagator, n_paths: int, n_steps: int):
        self.prop = prop
        self.n_steps = n_steps
        self.rec = _RecordingGrid(n_steps, self.config.record_stride)
        S, K = prop.grid.n_coeff, prop.grid.max_wavenumber
        R = len(self.rec)
        self.frames = self._out
        if self._out is None:
            self.frames = np.zeros((n_paths, R, 2, S, K + 1), dtype=np.complex128)
        self.h2 = np.zeros((n_paths, R))
        self.v2 = np.zeros((n_paths, R))
        self.sup_h2 = np.zeros(n_paths)
        self.int_v2 = np.zeros(n_paths)

    def on_state(self, idx, t, coeffs):
        a2 = abs_sq(coeffs)
        h2 = weighted_norm_sq(a2, self.prop.grid.half_weight)
        slot = self.rec.slot(idx, t)
        if slot is not None:
            frame = self.frames[:, slot]
            if not np.may_share_memory(coeffs, frame):
                frame[...] = coeffs
            self.h2[:, slot] = h2
            self.v2[:, slot] = weighted_norm_sq(a2, self.prop.grid.half_k2)
        np.maximum(self.sup_h2, h2, out=self.sup_h2)
        if idx < self.n_steps:
            self.int_v2 += weighted_norm_sq(a2, self.prop.half_int_weight)

    def finish(self) -> dict:
        n = self.frames.shape[0]
        return {
            "frames": self.frames,
            "h2": self.h2,
            "v2": self.v2,
            "sup_h2": self.sup_h2,
            "int_v2": self.int_v2,
            "times": np.broadcast_to(self.rec.times, (n, len(self.rec))).copy(),
        }

