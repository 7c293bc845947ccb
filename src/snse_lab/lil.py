"""Iterated-logarithm studies: cluster-set behavior of the rescaled
fluctuation and the normalized-ratio statistics.

Almost-sure limit statements are not desk-verifiable; these studies replace
them by finite surrogates.  The cluster study measures distances from the
rescaled fluctuation to a finite probe of the unit rate-ball (a certified
upper bound on the distance to the true limit set, refinable by adding
candidates), using one Brownian scaffold per replicate rescaled across the
geometric noise schedule.  The ratio study reports trends and quantiles of
the normalized deviation ratio without asserting limit values: the ratio is a
norm over a positive scalar, so a negative lower limit is impossible, and no
specific limit is claimed for the upper one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .deviation import DiffEnergyObserver, energy_distance
from .noise import Control, control_energy
from .rng import substream
from .solvers import (
    LOGLOG_LIMIT,
    ParameterError,
    SimConfig,
    Trajectory,
    combine_trajectories,
    ensemble_run,
    lil_lambda,
    skeleton_forward,
    solve_deterministic,
    _require_solver_grid,
    _skeleton_trajectories,
)


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
    """Rescaled fluctuation (u_eps - u0) / sqrt(2 eps log log(1/eps))."""
    scale = 1.0 / lil_lambda(epsilon)
    return combine_trajectories(
        u_eps_traj,
        u0_traj,
        scale,
        -scale,
        provenance={"epsilon": epsilon, "kind": "rescaled_fluctuation"},
    )


@dataclass(frozen=True)
class LimitSetProbe:
    """Finite family of unit-rate-ball controls and their steered images.

    Every candidate control satisfies half-energy <= 1, so each image lies in
    the limit set; the minimum distance over candidates is an upper bound on
    the distance to the set, nonincreasing under refinement.  `frames` holds
    every image's recorded frames in one (size, records, 2, S, S) array, the
    array the images view when `build_probe` made them; left out, it is
    stacked from the images.
    """

    controls: tuple[Control, ...]
    images: tuple[Trajectory, ...]
    tolerance: float
    frames: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.controls) != len(self.images) or not self.controls:
            raise ParameterError("probe needs matching, nonempty controls and images")
        for h in self.controls:
            if 0.5 * control_energy(h) > 1.0 + 1e-12:
                raise ParameterError(
                    "probe control exceeds the unit rate ball "
                    f"(half-energy {0.5 * control_energy(h):.6f})"
                )
        if self.frames is None:
            object.__setattr__(self, "frames", np.stack([g.frames for g in self.images]))

    @property
    def size(self) -> int:
        return len(self.controls)


def limit_set_distance(z: Trajectory, probe: LimitSetProbe) -> tuple[float, int]:
    """Min trajectory-norm distance to the probe images and the nearest index."""
    best = math.inf
    best_i = -1
    for i, g in enumerate(probe.images):
        d = energy_distance(z, g)
        if d < best:
            best, best_i = d, i
    return best, best_i


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
    image, from that array itself when each step is its own cell; the zero
    control's image is exactly zero and is not integrated.  At record
    stride 1 the images and the probe's frames are that array.
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
    S = config.grid.n_coeff
    frames = np.zeros((m, config.n_steps + 1, 2, S, S), dtype=np.complex128)
    if m > first:
        cells = controls[first].cell_index(np.arange(config.n_steps) * config.dt)
        h_values = values[first:m]
        if not np.array_equal(cells, np.arange(n_cells)):
            h_values = h_values[:, cells]
        skeleton_forward(h_values, u0_traj.frames, config, out=frames[first:])
    recorded, images = _skeleton_trajectories(frames, config)
    return LimitSetProbe(controls, tuple(images), tolerance, recorded)


@dataclass
class ClusterReport:
    tolerance: float
    rows: list[dict]
    candidate_hit_fraction: list[float]
    running_max_distance: float


def _replicate_sq_distances(args) -> list[np.ndarray]:
    """Squared distances of a group of replicates at each schedule intensity,
    one (len(reps), ...) array per intensity from one ensemble over the
    group.  Replicate reps[i] is path i and draws its scaffold of normals
    from substream(seed, reps[i]) afresh at each intensity: the scaffold is
    rescaled, not redrawn, and not held between intensities."""
    config, u0_frames, epsilons, scales, targets, seed, reps = args
    out = []
    for eps, scale in zip(epsilons, scales):
        cfg = config.with_epsilon(eps)
        res = ensemble_run(
            cfg, seed, len(reps), lambda: DiffEnergyObserver(cfg, u0_frames, scale, targets),
            normal_source=lambda i: substream(seed, reps[i]),
        )
        out.append(res["diff_energy_sq"])
    return out


def _schedule_study(schedule, config, n_reps, seed, workers, scale_of, targets=None, u0_traj=None):
    """(replicate, j, epsilon, squared trajectory norm of scale_of(eps) * (u - u0),
    or its squared distance to each target), ordered by replicate, then j.
    u0_traj is the deterministic limit at every step, solved here when None.

    The replicates split into min(workers, n_reps) contiguous groups, one
    process each when there are several; a group steps all its replicates
    as one ensemble per schedule index.  A replicate's values depend on its
    index alone, not on its group."""
    if u0_traj is None:
        u0_traj = solve_deterministic(replace(config, record_stride=1))
    _require_solver_grid(u0_traj, config, "deterministic trajectory")
    u0_frames = u0_traj.frames
    epsilons = [schedule.epsilon(j) for j in schedule.indices]
    scales = [scale_of(eps) for eps in epsilons]
    n_groups = min(workers, n_reps)
    args = [
        (config, u0_frames, epsilons, scales, targets, seed,
         range(g * n_reps // n_groups, (g + 1) * n_reps // n_groups))
        for g in range(n_groups)
    ]
    if len(args) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(args)) as pool:
            per_group = list(pool.map(_replicate_sq_distances, args))
    else:
        per_group = [_replicate_sq_distances(a) for a in args]
    # one (n_reps, ...) array per schedule index
    per_index = [np.concatenate(sq) for sq in zip(*per_group)]
    return [
        (rep, j, eps, sq[rep])
        for rep in range(n_reps)
        for j, eps, sq in zip(schedule.indices, epsilons, per_index)
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
    replicates are stepped as one ensemble per schedule index, split into
    at most `workers` contiguous groups run in parallel; each replicate's
    row depends on its index alone, so the rows do not depend on the worker
    count.  u0_traj, the deterministic limit recorded at every step (as the
    probe was built from), is solved when None.
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

    The report presents the observed trend only; it asserts no limit values
    for the ratio.
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
