"""Iterated-logarithm studies: cluster-set behavior of the rescaled
fluctuation and the normalized-ratio statistics.

Almost-sure limit statements are not desk-verifiable; these studies replace
them by finite surrogates.  The cluster study measures distances from the
rescaled fluctuation to a finite probe of the unit rate-ball (a certified
upper bound on the distance to the true limit set, refinable by adding
candidates), using one Brownian scaffold per replicate rescaled across the
geometric noise schedule.  The probe holds its candidates' skeleton
solutions as one array on the recording grid, and each path's distance to
every row of it is streamed as the path is stepped.  The ratio study reports
trends and quantiles of the normalized deviation ratio without asserting
limit values: the ratio is a norm over a positive scalar, so a negative lower
limit is impossible, and no specific limit is claimed for the upper one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .deviation import DiffEnergyObserver
from .noise import Control, control_energy
from .solvers import (
    LOGLOG_LIMIT,
    GridMismatchError,
    ParameterError,
    SimConfig,
    Trajectory,
    lil_lambda,
    skeleton_forward,
    solve_deterministic,
    _RecordingGrid,
    _require_solver_grid,
    _epsilon_ensembles,
    _sup_plus_integral,
)
from .spectral import half_norms_sq


@dataclass(frozen=True)
class GeometricSchedule:
    """Noise intensities eps_j = base^(-j) over an integer index window."""

    base: float
    j_min: int
    j_max: int

    def __post_init__(self):
        if self.base <= 1.0:
            raise ParameterError("schedule base must exceed 1")
        if self.j_min > self.j_max:
            raise ParameterError("empty schedule index range")
        if self.epsilon(self.j_min) >= LOGLOG_LIMIT:
            raise ParameterError(
                "largest schedule intensity must stay below exp(-e) so the "
                "iterated-logarithm scaling is defined"
            )

    def epsilon(self, j: int) -> float:
        return self.base ** (-j)

    @property
    def indices(self) -> list[int]:
        return list(range(self.j_min, self.j_max + 1))


def z_process(u_eps_traj: Trajectory, u0_traj: Trajectory, epsilon: float) -> Trajectory:
    """Rescaled fluctuation (u_eps - u0) / sqrt(2 eps log log(1/eps)) on the
    recording grid of two aligned trajectories; its norms are taken on that
    grid."""
    scale = 1.0 / lil_lambda(epsilon)
    if not u_eps_traj.aligned_with(u0_traj):
        raise GridMismatchError("trajectories are not aligned")
    frames = scale * u_eps_traj.frames + (-scale) * u0_traj.frames
    h2, v2 = half_norms_sq(u_eps_traj.grid, frames)
    return replace(
        u_eps_traj, frames=frames, h2=h2, v2=v2, sup_h2=float(np.max(h2)),
        int_v2=float(np.sum(v2[:-1] * np.diff(u_eps_traj.times))),
        provenance={"epsilon": epsilon, "kind": "rescaled_fluctuation"},
    )


@dataclass(frozen=True)
class LimitSetProbe:
    """Finite family of unit-rate-ball controls and the skeleton solutions
    they steer.

    Every candidate control satisfies half-energy <= 1, so each solution lies
    in the limit set; the minimum distance over candidates is an upper bound
    on the distance to the set, nonincreasing under refinement.  `frames`
    holds the solutions' recorded frames, kx >= 0 halves, one row per
    control, in one (size, records, 2, S, K + 1) array, and `times` the
    recording times.
    """

    controls: tuple[Control, ...]
    frames: np.ndarray = field(repr=False, compare=False)
    times: np.ndarray = field(repr=False, compare=False)
    tolerance: float

    def __post_init__(self):
        if not self.controls:
            raise ParameterError("probe needs at least one control")
        for h in self.controls:
            if 0.5 * control_energy(h) > 1.0 + 1e-12:
                raise ParameterError(
                    "probe control exceeds the unit rate ball "
                    f"(half-energy {0.5 * control_energy(h):.6f})"
                )
        shape = np.shape(self.frames)
        if len(shape) != 5 or shape[0] != len(self.controls):
            raise ParameterError(
                f"probe frames of shape {shape} need one (records, 2, S, K + 1) "
                f"row per control, {len(self.controls)}"
            )
        if shape[2] != 2 or shape[3] != 2 * shape[4] - 1:
            raise ParameterError(f"probe frames of shape {shape} are not kx >= 0 halves")
        if len(self.times) != shape[1]:
            raise ParameterError(
                f"probe has {len(self.times)} recording times for {shape[1]} records"
            )

    @property
    def size(self) -> int:
        return len(self.controls)


def limit_set_distance(z: Trajectory, probe: LimitSetProbe) -> tuple[float, int]:
    """Min trajectory-norm distance to the probe's rows and the nearest index,
    the first at a tie; z must lie on the probe's recording grid."""
    if z.frames.shape != probe.frames.shape[1:] or not np.allclose(
        z.times, probe.times, atol=1e-12
    ):
        raise GridMismatchError("trajectory is not aligned with the probe")
    h2, v2 = half_norms_sq(z.grid, z.frames - probe.frames)
    dist = np.sqrt(_sup_plus_integral(h2, v2, z.times))
    nearest = int(np.argmin(dist))
    return float(dist[nearest]), nearest


def _time_shapes(n_cells: int, horizon: float, n_shapes: int) -> list[np.ndarray]:
    """Low-order temporal profiles sampled as piecewise-constant cell values."""
    mids = (np.arange(n_cells) + 0.5) * (horizon / max(n_cells, 1))
    shapes = [np.ones(n_cells)]
    freq = 1
    while len(shapes) < n_shapes:
        shapes.append(np.sin(math.pi * freq * mids / horizon))
        if len(shapes) < n_shapes:
            shapes.append(np.cos(math.pi * freq * mids / horizon))
        freq += 1
    return shapes[:n_shapes]


def build_probe(
    config: SimConfig,
    u0_traj: Trajectory,
    directions: list[int] | None = None,
    n_shapes: int = 2,
    tolerance: float = 0.5,
    include_zero: bool = True,
) -> LimitSetProbe:
    """Probe from per-direction temporal profiles rescaled to the rate-ball
    boundary, plus optionally the zero element (which always belongs).

    Every candidate's cell values are one row of one (controls, n_cells, J)
    array, which the controls view.  The nonzero controls are solved in one
    batched skeleton_forward call into the one array that holds every
    solution's kx >= 0 halves, from that array itself when each step is its
    own cell; the zero control's solution is exactly zero and is not
    integrated.  At record stride 1 the probe's frames are that array, and
    otherwise its rows at the recorded steps.
    """
    _require_solver_grid(u0_traj, config, "deterministic trajectory")
    model = config.noise
    dirs = directions if directions is not None else list(range(model.n_directions))
    n_cells = max(config.n_steps, 1)
    shapes = _time_shapes(n_cells, config.horizon, n_shapes)
    first = int(include_zero)
    values = np.zeros((first + len(dirs) * len(shapes), n_cells, model.n_directions))
    m = first
    for j in dirs:
        for shape in shapes:
            values[m, :, j] = shape
            energy = control_energy(Control(model, config.horizon, values[m]))
            if energy <= 0:
                values[m, :, j] = 0.0
                continue
            values[m] *= math.sqrt(2.0 / energy)
            m += 1
    controls = tuple(Control(model, config.horizon, row) for row in values[:m])
    frames = np.zeros((m, config.n_steps + 1) + u0_traj.frames.shape[1:], dtype=np.complex128)
    if m > first:
        cells = controls[first].cell_index(np.arange(config.n_steps) * config.dt)
        h_values = values[first:m]
        if not np.array_equal(cells, np.arange(n_cells)):
            h_values = h_values[:, cells]
        skeleton_forward(h_values, u0_traj.frames, config, out=frames[first:])
    steps = _RecordingGrid(config.n_steps, config.record_stride).steps
    if config.record_stride != 1:
        frames = frames[:, steps]
    return LimitSetProbe(controls, frames, config.dt * np.array(steps), tolerance)


@dataclass
class ClusterReport:
    tolerance: float
    rows: list[dict]
    candidate_hit_fraction: list[float]
    running_max_distance: float


def _schedule_study(schedule, config, n_reps, seed, workers, scale_of, targets=None, u0_traj=None):
    """(replicate, j, epsilon, squared trajectory norm of scale_of(eps) * (u - u0),
    or its squared distance to each target), ordered by replicate, then j.
    u0_traj is the deterministic limit at every step, solved here when None.

    Each schedule index steps all the replicates as one ensemble, the
    indices on up to `workers` threads.  Replicate r is path r and draws
    its scaffold of normals from substream(seed, r) afresh at each index:
    the scaffold is rescaled, not redrawn, and not held between indices."""
    if u0_traj is None:
        u0_traj = solve_deterministic(replace(config, record_stride=1))
    _require_solver_grid(u0_traj, config, "deterministic trajectory")
    epsilons = [schedule.epsilon(j) for j in schedule.indices]
    outs = _epsilon_ensembles(config, epsilons, seed, n_reps, lambda cfg: DiffEnergyObserver(
        cfg, u0_traj.frames, scale_of(cfg.epsilon), targets), workers)
    return [
        (rep, j, eps, out["diff_energy_sq"][rep])
        for rep in range(n_reps)
        for j, eps, out in zip(schedule.indices, epsilons, outs)
    ]


def strassen_cluster_study(
    schedule: GeometricSchedule,
    probe: LimitSetProbe,
    n_reps: int,
    config: SimConfig,
    seed: int,
    workers: int = 1,
    u0_traj: Trajectory | None = None,
) -> ClusterReport:
    """Distances from the rescaled fluctuation to the probe along the schedule.

    Each replicate reuses one underlying Brownian scaffold across all schedule
    indices (the noise is rescaled, not redrawn), mirroring the geometric
    coupling of the schedule and reducing cross-index variance.  The
    replicates are stepped as one ensemble per schedule index, the indices
    on up to `workers` threads; each replicate's row depends on its index
    alone, so the rows do not depend on the worker count.  u0_traj, the
    deterministic limit recorded at every step (as the probe was built
    from), is solved when None.
    """
    study = _schedule_study(
        schedule, config, n_reps, seed, workers, lambda e: 1.0 / lil_lambda(e), probe.frames,
        u0_traj,
    )
    rows = []
    for rep, j, eps, d2 in study:
        dist = np.sqrt(d2)
        nearest = int(np.argmin(dist))
        rows.append(
            {
                "replicate": rep,
                "j": j,
                "epsilon": eps,
                "distance": float(dist[nearest]),
                "nearest": nearest,
                "within_tolerance": bool(dist[nearest] <= probe.tolerance),
            }
        )
    hits = np.zeros(probe.size)
    running_max = 0.0
    for row in rows:
        running_max = max(running_max, row["distance"])
        if row["within_tolerance"]:
            hits[row["nearest"]] += 1
    frac = (hits / max(len(rows), 1)).tolist()
    return ClusterReport(
        tolerance=probe.tolerance,
        rows=rows,
        candidate_hit_fraction=frac,
        running_max_distance=running_max,
    )


@dataclass
class RatioReport:
    rows: list[dict]
    per_j_quantiles: list[dict]
    running_max: float
    running_min: float
    trend_slope: float


def classical_ratio_study(
    schedule: GeometricSchedule,
    n_reps: int,
    config: SimConfig,
    seed: int,
    workers: int = 1,
) -> RatioReport:
    """Normalized deviation ratios along the schedule: per-replicate running
    extremes, per-index quantiles, and the regression trend in the index.

    The schedule indices' ensembles run on up to `workers` threads.  The
    report presents the observed trend only; it asserts no limit values for
    the ratio.
    """
    rows = []
    for rep, j, eps, d2 in _schedule_study(schedule, config, n_reps, seed, workers, lambda e: 1.0):
        ratio = math.sqrt(d2) / lil_lambda(eps)
        rows.append({"replicate": rep, "j": j, "epsilon": eps, "ratio": ratio})
    per_j: dict[int, list[float]] = {j: [] for j in schedule.indices}
    for row in rows:
        per_j[row["j"]].append(row["ratio"])
    quantiles = []
    for j in schedule.indices:
        arr = np.array(per_j[j])
        quantiles.append(
            {
                "j": j,
                "epsilon": schedule.epsilon(j),
                "q10": float(np.quantile(arr, 0.10)),
                "q50": float(np.quantile(arr, 0.50)),
                "q90": float(np.quantile(arr, 0.90)),
                "mean": float(np.mean(arr)),
            }
        )
    all_ratios = np.array([r["ratio"] for r in rows])
    js = np.array([r["j"] for r in rows], dtype=float)
    if len(rows) > 1 and np.ptp(js) > 0:
        slope = float(np.polyfit(js, all_ratios, 1)[0])
    else:
        slope = 0.0
    return RatioReport(
        rows=rows,
        per_j_quantiles=quantiles,
        running_max=float(np.max(all_ratios)),
        running_min=float(np.min(all_ratios)),
        trend_slope=slope,
    )
