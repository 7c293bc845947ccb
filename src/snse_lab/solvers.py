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
the one time loop in `_integrate_batch`; processes coupled to the noisy path
(the shifted fluctuation here, the first-order linearization in the deviation
module) are stepped by observers of that loop on the same increments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .noise import (
    Control,
    NoiseModel,
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
    advection_array,
    hv_norm_sq_array,
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
    """Per-mode integrating-factor weights for one step size (read-only arrays).

    Build it through `propagator`, which returns one shared instance per
    (grid, dt).
    """

    def __init__(self, grid: SpectralGrid, dt: float):
        self.grid = grid
        self.dt = dt
        k2 = grid.k2
        self.decay = np.exp(-k2 * dt)
        phi = np.where(k2 > 0, (1.0 - self.decay) / np.where(k2 > 0, k2, 1.0), dt)
        self.phi = phi
        self.phi_rate = phi / dt
        # exact integral of ||u||^2 over one pure-decay step, per unit |u_k|^2
        self.int_weight = (1.0 - self.decay**2) / 2.0
        for arr in (self.decay, self.phi, self.phi_rate, self.int_weight):
            arr.setflags(write=False)


@functools.lru_cache(maxsize=32)
def propagator(grid: SpectralGrid, dt: float) -> Propagator:
    """The shared read-only Propagator of one (grid, dt)."""
    return Propagator(grid, dt)


def _initial_coeffs(config: SimConfig) -> np.ndarray:
    if config.initial is None:
        return zero_field(config.grid).coeffs
    if config.initial.grid != config.grid:
        raise GridMismatchError("initial condition grid differs from run grid")
    return config.initial.coeffs


def _guard_scale(config: SimConfig, u0_coeffs: np.ndarray) -> float:
    """Blow-up threshold shared by every stochastic solver: blowup_factor times
    the initial amplitude, floored at 1/(2 pi)."""
    return config.blowup_factor * max(np.max(np.abs(u0_coeffs)), 1.0 / TWO_PI)


def _blowup_guard(coeffs: np.ndarray, scale: float, step: int) -> None:
    peak = np.max(np.abs(coeffs))
    if not np.isfinite(peak):
        raise IntegrationError(step, "non-finite coefficients")
    if peak > scale:
        raise IntegrationError(step, f"amplitude {peak:.3e} exceeded blowup guard")


@dataclass
class Trajectory:
    """Recorded states plus running norm functionals of one solution path.

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
        return SpectralField(self.grid, self.frames[i])

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


def derived_trajectory(
    grid: SpectralGrid,
    times: np.ndarray,
    frames: np.ndarray,
    dt: float,
    record_stride: int,
    provenance: dict | None = None,
) -> Trajectory:
    """Trajectory from precomputed frames; functionals on the recording grid."""
    h2, v2 = hv_norm_sq_array(grid, frames)
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


def combine_trajectories(
    a: Trajectory, b: Trajectory, coef_a: float, coef_b: float, provenance=None
) -> Trajectory:
    """Pointwise linear combination coef_a * a + coef_b * b (aligned grids)."""
    if not a.aligned_with(b):
        raise GridMismatchError("trajectories are not aligned")
    frames = coef_a * a.frames + coef_b * b.frames
    return derived_trajectory(
        a.grid, a.times, frames, a.dt, a.record_stride, provenance
    )


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


# path-steps of noise scattered per call of the stepper: one step at batch 256
_NOISE_BLOCK_PATH_STEPS = 256


def _integrate_batch(
    config: SimConfig,
    state: np.ndarray,
    normals: np.ndarray | None,
    hooks,
) -> None:
    """Advance a batch of paths in place, invoking hooks at each step.

    This is the one time loop of every stochastic path.
    hooks.on_noise(step, t, coeffs, dW) and hooks.on_state(idx, t, coeffs) are
    optional callables; on_noise sees the pre-step state, so a coupled process
    can be stepped inside it on the same increments.  state has shape
    (n, 2, S, S) and normals (n, n_steps, J).  The advection and the noise
    factor are formed from the pre-step state before the state is updated in
    place, with no second state-sized array.

    The noise field scatter(dW * gains) does not read the state, so it is
    formed for a block of steps at once, _NOISE_BLOCK_PATH_STEPS path-steps
    per call; only a state-dependent family's factor is applied per step.
    Every operation is elementwise, so the values do not depend on the block.
    """
    prop = propagator(config.grid, config.dt)
    model = config.noise
    phi_forcing = None if config.forcing is None else prop.phi * config.forcing.coeffs
    sqrt_eps = math.sqrt(config.epsilon)
    scale = _guard_scale(config, state)
    on_noise = getattr(hooks, "on_noise", None)
    on_state = getattr(hooks, "on_state", None)
    if on_state:
        on_state(0, 0.0, state)
    sqrt_lam_dt = np.sqrt(model.eigenvalues * config.dt)
    block = max(1, _NOISE_BLOCK_PATH_STEPS // state.shape[0])
    for step in range(config.n_steps):
        t = step * config.dt
        adv = advection_array(config.grid, state, state) if config.nonlinear else None
        noise = None
        if normals is not None:
            i = step % block
            if i == 0:
                dW_block = normals[:, step : step + block, :] * sqrt_lam_dt
                if config.epsilon > 0.0:
                    noise_block = scatter_coefficients(model, dW_block, weights=model.gains)
                    if not model.state_dependent:
                        noise_block *= sqrt_eps
                        noise_block *= prop.phi_rate
            if on_noise:
                on_noise(step, t, state, dW_block[:, i])
            if config.epsilon > 0.0 and model.state_dependent:
                factor = sigma_factor(model, t, state)[:, None, None, None]
                noise = noise_block[:, i] * factor * sqrt_eps * prop.phi_rate
            elif config.epsilon > 0.0:
                noise = noise_block[:, i]
            if i == block - 1:
                dW_block = noise_block = None
        # state <- decay * state + phi * forcing - phi * adv + noise, in place
        state *= prop.decay
        if phi_forcing is not None:
            state += phi_forcing
        if adv is not None:
            adv *= prop.phi
            state -= adv
        if noise is not None:
            state += noise
        # the advection and a used-up noise block are freed here, not held
        # through the observers and the next step's advection: that lowers
        # the peak RSS of a batched run
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


def _solve_single(config: SimConfig, normals: np.ndarray | None, provenance: dict) -> Trajectory:
    obs = TrajectoryObserver(config)
    obs.on_start(propagator(config.grid, config.dt), 1, config.n_steps)
    _integrate_batch(config, _initial_coeffs(config)[None].copy(), normals, obs)
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
    rng = substream(seed, 0)
    normals = rng.standard_normal((1, config.n_steps, config.noise.n_directions))
    prov = dict(provenance or {})
    prov.setdefault("seed", seed)
    prov.setdefault("epsilon", config.epsilon)
    return _solve_single(config, normals, prov)


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
    scatter(h gains), shape (n_steps, 2, S, S)."""
    model = config.noise
    return scatter_coefficients(model, _control_values_on_steps(h, config), weights=model.gains)


def skeleton_forward(
    h_values: np.ndarray,
    u0_frames: np.ndarray,
    config: SimConfig,
) -> np.ndarray:
    """All frames of the controlled linearization driven by per-step controls.

    h_values has shape (..., n_steps, J), one control per leading index;
    u0_frames holds the deterministic limit at every solver step.  Returns
    (..., n_steps + 1, 2, S, S).  The dynamics are linear in the state and in
    the control: the noise map is frozen at the deterministic limit, so it is
    applied to every step in one call before the loop.
    """
    prop = propagator(config.grid, config.dt)
    n = config.n_steps
    S = config.grid.n_coeff
    h_values = np.asarray(h_values)
    out = np.zeros(h_values.shape[:-2] + (n + 1, 2, S, S), dtype=np.complex128)
    rhs = sigma_apply_array(config.noise, 0.0, u0_frames[:n], h_values)
    if not config.nonlinear:
        rhs *= prop.phi
    for step in range(n):
        x = out[..., step, :, :, :]
        r = rhs[..., step, :, :, :]
        if config.nonlinear:
            u0 = u0_frames[step]
            r = r - advection_array(config.grid, x, u0) - advection_array(config.grid, u0, x)
            r = prop.phi * r
        out[..., step + 1, :, :, :] = prop.decay * x + r
    return out


def _skeleton_trajectories(
    frames: np.ndarray, config: SimConfig, provenance: dict | None = None
) -> list[Trajectory]:
    """Trajectories of skeleton_forward solutions (m, n_steps + 1, 2, S, S),
    recorded on config's grid by one batched observer pass."""
    obs = TrajectoryObserver(config)
    obs.on_start(propagator(config.grid, config.dt), frames.shape[0], config.n_steps)
    for idx in range(config.n_steps + 1):
        obs.on_state(idx, idx * config.dt, frames[:, idx])
    data = obs.finish()
    return [_trajectory(config, data, i, provenance) for i in range(frames.shape[0])]


def solve_skeleton(
    h: Control,
    u0_traj: Trajectory,
    config: SimConfig,
    provenance: dict | None = None,
) -> Trajectory:
    """Integrate the controlled linearization around the deterministic limit."""
    _require_solver_grid(u0_traj, config, "deterministic trajectory")
    h_values = _control_values_on_steps(h, config)
    frames = skeleton_forward(h_values, u0_traj.frames, config)
    return _skeleton_trajectories(frames[None], config, provenance)[0]


def shifted_diffusion_argument(
    z_coeffs: np.ndarray, u0_coeffs: np.ndarray, epsilon: float
) -> np.ndarray:
    """State at which the diffusion coefficient is evaluated for the shifted process."""
    return lil_lambda(epsilon) * z_coeffs + u0_coeffs


class _ShiftedObserver:
    """Steps the shifted fluctuation z on the increments of the noisy path and
    shows the wrapped observer z in place of the noisy state.

    The drift couples to the pre-step noisy state u and the deterministic
    limit u0; the diffusion coefficient is evaluated at the recentred state,
    once per step, and modulates both the control and the noise.  h_field
    holds the unmodulated control field of every step (`_control_fields`).
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
        S = prop.grid.n_coeff
        self.z = np.zeros((n_paths, 2, S, S), dtype=np.complex128)
        self.inner.on_start(prop, n_paths, n_steps)

    def on_noise(self, step, t, coeffs, dW):
        cfg, prop, z, u0 = self.config, self.prop, self.z, self.u0[step]
        factor = 1.0  # the additive family's, which reads no state
        if cfg.noise.state_dependent:
            factor = sigma_factor(cfg.noise, t, shifted_diffusion_argument(z, u0, cfg.epsilon))
        rhs = times_factor(self.h_field[step], factor)
        if cfg.nonlinear:
            rhs = rhs - advection_array(cfg.grid, coeffs, z) - advection_array(cfg.grid, z, u0)
        noise = times_factor(scatter_coefficients(cfg.noise, dW, weights=cfg.noise.gains), factor)
        self.z = prop.decay * z + prop.phi * rhs + prop.phi_rate * (self.inv_sq * noise)
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


# paths integrated together per ensemble chunk, unless a chunk's normals
# would exceed 8M floats
_CHUNK_PATHS = 256


def _auto_chunk(n_steps: int, n_dirs: int) -> int:
    budget_floats = 8_000_000
    per_path = max(1, n_steps * n_dirs)
    cap = max(1, budget_floats // per_path)
    return max(1, min(_CHUNK_PATHS, cap))


def ensemble_run(
    config: SimConfig,
    seed: int,
    n_paths: int,
    observer_factory: Callable[[], object],
    normal_source: Callable[[int], np.ndarray] | None = None,
) -> dict:
    """Integrate n_paths independent paths, merging per-path observer output.

    Path i consumes substream(seed, i) unless normal_source provides its
    standard-normal array of shape (n_steps, J) (used for common-noise
    couplings across parameter grids).  The observer factory is invoked per
    chunk; each observer must implement on_start(prop, n, n_steps), optional
    on_noise(step, t, coeffs, dW) (called with the pre-step state before each
    noisy step), optional on_state(idx, t, coeffs) (called with the state
    after each step, and once with the initial state), and finish() -> dict
    of arrays with leading axis n.  Results are concatenated across chunks,
    so output is independent of the chunk size.
    """
    J = config.noise.n_directions
    n_steps = config.n_steps
    size = _auto_chunk(n_steps, J)
    merged: dict[str, list[np.ndarray]] = {}
    start = 0
    while start < n_paths:
        stop = min(start + size, n_paths)
        count = stop - start
        if config.epsilon > 0.0 or normal_source is not None:
            normals = np.empty((count, n_steps, J))
            for i in range(count):
                idx = start + i
                if normal_source is not None:
                    normals[i] = normal_source(idx)
                else:
                    substream(seed, idx).standard_normal(out=normals[i])
        else:
            normals = None
        state = np.broadcast_to(
            _initial_coeffs(config), (count, 2, config.grid.n_coeff, config.grid.n_coeff)
        ).copy()
        obs = observer_factory()
        obs.on_start(propagator(config.grid, config.dt), count, n_steps)
        _integrate_batch(config, state, normals, obs)
        for key, val in obs.finish().items():
            merged.setdefault(key, []).append(val)
        start = stop
    return {k: np.concatenate(v, axis=0) for k, v in merged.items()}


class TrajectoryObserver:
    """Observer that materializes light trajectories for every path.

    sup_h2 and int_v2 run over every solver step (the integral by the
    per-step integrating-factor quadrature); frames, h2 and v2 are kept on
    the recording grid.
    """

    def __init__(self, config: SimConfig):
        self.config = config

    def on_start(self, prop: Propagator, n_paths: int, n_steps: int):
        self.prop = prop
        self.n_steps = n_steps
        self.rec = _RecordingGrid(n_steps, self.config.record_stride)
        S = prop.grid.n_coeff
        R = len(self.rec)
        self.frames = np.zeros((n_paths, R, 2, S, S), dtype=np.complex128)
        self.h2 = np.zeros((n_paths, R))
        self.v2 = np.zeros((n_paths, R))
        self.sup_h2 = np.zeros(n_paths)
        self.int_v2 = np.zeros(n_paths)

    def on_state(self, idx, t, coeffs):
        a2 = np.abs(coeffs) ** 2
        h2 = weighted_norm_sq(a2)
        slot = self.rec.slot(idx, t)
        if slot is not None:
            self.frames[:, slot] = coeffs
            self.h2[:, slot] = h2
            self.v2[:, slot] = weighted_norm_sq(a2, self.prop.grid.k2)
        np.maximum(self.sup_h2, h2, out=self.sup_h2)
        if idx < self.n_steps:
            self.int_v2 += weighted_norm_sq(a2, self.prop.int_weight)

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

