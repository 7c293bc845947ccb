"""Rate-functional evaluation, rare-event estimation, and moment studies.

The rate functional is evaluated by PDE-constrained optimization: half the
control energy plus a quadratic penalty on a smooth surrogate of the
trajectory-space distance, minimized by a quasi-Newton inner loop with
gradients from the discrete adjoint of the controlled linearization, under
penalty continuation.  Probabilities are naive Monte Carlo with Wilson
intervals; zero-hit events report a finite one-sided upper bound so that
log-probability plots stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .noise import (
    Control,
    control_energy,
    kernel_norm_sq,
    scatter_coefficients,
    sigma_adjoint_array,
    sigma_factor,
    times_factor,
    zero_control,
)
from .rng import substream
from .solvers import (
    LOGLOG_LIMIT,
    SimConfig,
    Trajectory,
    lil_a,
    lil_lambda,
    loglog,
    propagator,
    skeleton_forward,
    solve_deterministic,
    solve_skeleton,
    _FanOutObserver,
    _RecordingGrid,
    _ShiftedObserver,
    _blowup_guard,
    _control_fields,
    _epsilon_ensembles,
    _guard_scale,
    _initial_coeffs,
    _require_solver_grid,
    _sup_plus_integral,
)
from .spectral import (
    _curl_form,
    _l4_fourth_power,
    abs_sq,
    half_norms_sq,
    half_spectrum,
    linearized_advection_adjoint_array,
    to_velocity,
    weighted_norm_sq,
)


class AdmissibilityError(ValueError):
    """Noise intensity outside the range the estimates are stated for."""


# ---------------------------------------------------------------------------
# constants ledger and admissibility thresholds


@dataclass(frozen=True)
class ConstantsLedger:
    """Positive constants of the assumption set that the admissibility
    thresholds read; `require` is the one admissibility rule."""

    K1: float = 1.0
    K2: float = 1.0
    K9: float = 1.0

    def __post_init__(self):
        for name in ("K1", "K2", "K9"):
            if getattr(self, name) <= 0:
                raise AdmissibilityError(f"{name} must be positive")

    @property
    def epsilon0(self) -> float:
        return min(
            1.0 / (2.0 * self.K1 * self.K1),
            1.0 / (4.0 * self.K1),
            1.0 / (2.0 * self.K2),
            1.0 / (78.0 * self.K9),
        )

    @property
    def epsilon1(self) -> float:
        return min(
            1.0 / (2.0 * self.K1 * self.K1),
            1.0 / (4.0 * self.K1),
            1.0 / (2.0 * self.K2),
            1.0 / (36.0 * self.K9),
        )

    def epsilon2(self, p: float) -> float:
        if p < 1:
            raise AdmissibilityError("epsilon2 threshold requires p >= 1")
        return min(self.epsilon1, 1.0 / (self.K9 * (36.0 * p + 2.0)))

    def require(self, epsilons, p_list=()) -> None:
        """Raise AdmissibilityError unless every epsilon lies in (0, eps0),
        below exp(-e) (where log log(1/eps) > 0), below eps2(p) for every
        moment order p, and below 2/(1 + 2p) for every p >= 2."""
        eps0 = self.epsilon0
        bounds = [(LOGLOG_LIMIT, "the iterated-logarithm limit exp(-e)")]
        for p in p_list:
            bounds.append((self.epsilon2(p), f"the shifted 2p-moment threshold eps2({p:g})"))
            if p >= 2:
                bounds.append((2.0 / (1.0 + 2.0 * p), f"the 2p-moment threshold 2/(1 + 2*{p:g})"))
        for eps in epsilons:
            if not 0.0 < eps < eps0:
                raise AdmissibilityError(
                    f"epsilon {eps} violates the admissibility threshold "
                    f"min(1/(2 K1^2), 1/(4 K1), 1/(2 K2), 1/(78 K9)) = {eps0:.6g}"
                )
            for bound, label in bounds:
                if not eps < bound:
                    raise AdmissibilityError(f"epsilon {eps} is not below {label} = {bound:.6g}")


# ---------------------------------------------------------------------------
# trajectory-space norms


def _frames_energy_sq(grid, times: np.ndarray, frames: np.ndarray) -> float:
    """Trajectory norm, squared, of frames given as scalar halves."""
    h2, v2 = half_norms_sq(grid, frames)
    return float(_sup_plus_integral(h2, v2, times))


# ---------------------------------------------------------------------------
# rate functional by adjoint-based penalty optimization


# the rate optimizer's fixed settings: the first penalty and its growth per
# round of the continuation, L-BFGS-B's projected-gradient tolerance, and the
# log-sum-exp sharpness of the sup, relative to the target's largest |v|^2
_PENALTY_INIT = 1.0
_PENALTY_GROWTH = 10.0
_GTOL = 1e-12
_SOFTMAX_SHARPNESS = 25.0


@dataclass(frozen=True)
class OptParams:
    """Penalty-continuation settings for the rate optimizer."""

    feasibility_tol: float = 1e-4
    energy_cap: float = 1e3
    penalty_max: float = 1e12
    maxiter: int = 400


@dataclass
class RateResult:
    """Outcome of one rate-functional evaluation."""

    value: float
    control: Control
    residual: float
    surrogate_residual: float
    feasible: bool
    iterations: int
    grad_norm: float
    penalty: float
    diagnostics: dict = field(default_factory=dict)


class _SkeletonObjective:
    """Energy + penalty objective with gradients from the discrete adjoint.

    The sup part of the squared trajectory distance is replaced by a
    log-sum-exp with sharpness frozen at construction, so each inner solve
    optimizes a smooth function; the exact distance is reported separately.
    """

    def __init__(self, target_frames, u0_frames, config: SimConfig):
        self.config = config
        self.model = config.noise
        self.u0 = u0_frames
        self.v = target_frames
        self.n_steps = config.n_steps
        self.J = self.model.n_directions
        self.dt = config.dt
        self.lam = self.model.eigenvalues
        self.k2 = half_spectrum(config.grid.k2)
        scale = max(float(np.max(half_norms_sq(config.grid, target_frames)[0])), 1e-12)
        self.alpha = _SOFTMAX_SHARPNESS / scale
        self.mu = _PENALTY_INIT
        self.nfev = 0

    def forward(self, h_values: np.ndarray) -> np.ndarray:
        return skeleton_forward(h_values, self.u0, self.config)

    def distance_parts(self, frames: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
        grid = self.config.grid
        e = frames - self.v
        x, v2 = half_norms_sq(grid, e)  # (N+1,) each
        x_star = float(np.max(x))
        w = np.exp(self.alpha * (x - x_star))
        lse = x_star + math.log(float(np.sum(w))) / self.alpha
        weights = w / float(np.sum(w))
        integral = float(np.sum(v2[:-1]) * self.dt)
        return lse, integral, e, weights

    def __call__(self, h_flat: np.ndarray) -> tuple[float, np.ndarray]:
        self.nfev += 1
        N = self.n_steps
        h_values = h_flat.reshape(N, self.J)
        frames = self.forward(h_values)
        lse, integral, e, weights = self.distance_parts(frames)
        energy = float(np.sum(h_values**2 / self.lam) * self.dt)
        value = 0.5 * energy + 0.5 * self.mu * (lse + integral)
        sources = self.mu * (weights[:N, None, None] * e[:N] + self.dt * (self.k2 * e[:N]))
        p_end = self.mu * weights[N] * e[N]
        grad_h = h_values * (self.dt / self.lam)
        grad_h = grad_h + _adjoint_sweep(self.config, self.u0, p_end, sources)
        return value, grad_h.ravel()


def _adjoint_sweep(config: SimConfig, u0_frames, p_end, sources) -> np.ndarray:
    """Control gradient of <p_end, x_N> + sum_n <sources[n], x_n> over the
    frames x of skeleton_forward, by its discrete adjoint (L2 pairing).

    p_end (S, K + 1), sources (n_steps, S, K + 1) and u0_frames are scalar
    halves, and so is the adjoint state p; returns the gradient with shape
    (n_steps, J).  In the nonlinear regime each step applies the adjoint of
    the linearized advection, -P(2 D(phi p) u0) with D the symmetric
    gradient, in one `linearized_advection_adjoint_array` call.  The loop
    keeps phi * p of every step; after it the noise map's adjoint, frozen
    at the deterministic limit, takes that whole stack in one call.
    """
    grid = config.grid
    prop = propagator(grid, config.dt)
    n_steps = config.n_steps
    phi_p = np.empty((n_steps,) + np.shape(p_end), dtype=np.complex128)
    p = p_end
    for n in range(n_steps - 1, -1, -1):
        u0n = u0_frames[n]
        np.multiply(prop.half_phi, p, out=phi_p[n])
        p_next = prop.half_decay * p
        if config.nonlinear:
            p_next = p_next - linearized_advection_adjoint_array(grid, phi_p[n], u0n)
        p = p_next + sources[n]
    return sigma_adjoint_array(config.noise, 0.0, u0_frames[:n_steps], phi_p)


def rate_function(
    target: Trajectory,
    u0_traj: Trajectory,
    config: SimConfig,
    opt: OptParams = OptParams(),
) -> RateResult:
    """Half the minimal control energy steering the linearization to the target.

    Penalty continuation drives the trajectory-space residual below the
    feasibility tolerance; if the residual cannot be met before the energy cap
    or the penalty ceiling, the result is flagged infeasible (the unreachable
    branch of the rate function) and carries the best iterate.
    """
    # imported here, not at module level: only the optimizer needs scipy,
    # whose import would otherwise dominate the start-up of every run
    from scipy.optimize import minimize

    _require_solver_grid(u0_traj, config, "deterministic trajectory")
    _require_solver_grid(target, config, "target trajectory")
    objective = _SkeletonObjective(target.frames, u0_traj.frames, config)
    n, J = config.n_steps, config.noise.n_directions
    h = np.zeros(n * J)
    mu = _PENALTY_INIT
    iterations = 0
    grad_norm = math.inf
    feasible = False
    residual = math.inf
    surrogate = math.inf
    while True:
        objective.mu = mu
        res = minimize(
            objective,
            h,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": opt.maxiter, "gtol": _GTOL, "ftol": 1e-16},
        )
        h = res.x
        iterations += int(res.nit)
        grad_norm = float(np.max(np.abs(res.jac)))
        h_values = h.reshape(n, J)
        frames = objective.forward(h_values)
        residual = math.sqrt(
            _frames_energy_sq(config.grid, target.times, frames - target.frames)
        )
        lse, integral, _, _ = objective.distance_parts(frames)
        surrogate = math.sqrt(max(lse + integral, 0.0))
        energy = float(np.sum(h_values**2 / objective.lam) * config.dt)
        if residual <= opt.feasibility_tol:
            feasible = True
            break
        if 0.5 * energy > opt.energy_cap:
            break
        if mu >= opt.penalty_max:
            break
        mu *= _PENALTY_GROWTH
    h_values = h.reshape(n, J)
    control = Control(config.noise, config.horizon, h_values)
    energy = control_energy(control)
    return RateResult(
        value=0.5 * energy if feasible else math.inf,
        control=control,
        residual=residual,
        surrogate_residual=surrogate,
        feasible=feasible,
        iterations=iterations,
        grad_norm=grad_norm,
        penalty=mu,
        diagnostics={
            "best_half_energy": 0.5 * energy,
            "objective_evaluations": objective.nfev,
        },
    )


def rate_gradient_check(
    target: Trajectory,
    u0_traj: Trajectory,
    config: SimConfig,
    n_directions: int = 20,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error of the adjoint gradient against central differences."""
    objective = _SkeletonObjective(target.frames, u0_traj.frames, config)
    objective.mu = 1.0
    n = config.n_steps * config.noise.n_directions
    rng = substream(seed, 777)
    h0 = rng.standard_normal(n) * 0.1
    _, grad = objective(h0)
    worst = 0.0
    for _ in range(n_directions):
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        fp, _ = objective(h0 + step * d)
        fm, _ = objective(h0 - step * d)
        fd = (fp - fm) / (2.0 * step)
        an = float(grad @ d)
        denom = max(abs(fd), abs(an), 1e-14)
        worst = max(worst, abs(fd - an) / denom)
    return worst


def max_energy_response(
    u0_traj: Trajectory,
    config: SimConfig,
    n_iter: int = 60,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Largest trajectory-norm response per unit control energy, and the
    unit-W-norm direction h that attains it.

    Power-type iteration on the Rayleigh ratio ||L h||_E^2 / ||h||_W^2 using
    the adjoint for the ascent direction, best of three restarts; a restart's
    value is that of its last iterate's h.  The value is attained by the
    returned direction, so it is a certified lower bound on the true ratio;
    it serves as the optimizer-side surrogate for the cheapest rate of
    exiting a trajectory-norm ball.
    """
    cfg = config
    grid = cfg.grid
    model = cfg.noise
    n, J = cfg.n_steps, model.n_directions
    w_diag = cfg.dt / model.eigenvalues

    def w_norm(hv):
        return math.sqrt(float(np.sum(hv**2 * w_diag)))

    best_value, best_h = 0.0, np.zeros((n, J))
    for restart in range(3):
        rng = substream(seed, 4242 + restart)
        h = rng.standard_normal((n, J))
        h /= w_norm(h)
        value, h_value = 0.0, h
        for _ in range(n_iter):
            h_value = h  # the direction whose response this iterate measures
            frames = skeleton_forward(h, u0_traj.frames, cfg)
            x, v2 = half_norms_sq(grid, frames)
            value = float(np.max(x) + np.sum(v2[:-1]) * cfg.dt)
            n_star = int(np.argmax(x))
            sources = cfg.dt * (half_spectrum(grid.k2) * frames[:n])
            if n_star < n:
                sources[n_star] += frames[n_star]
            p_end = (1.0 if n_star == n else 0.0) * frames[n]
            grad_h = _adjoint_sweep(cfg, u0_traj.frames, p_end, sources)
            ascent = grad_h / w_diag
            norm = w_norm(ascent)
            if norm == 0.0:
                break
            h = ascent / norm
        if value > best_value:
            best_value, best_h = value, h_value
    return best_value, best_h


# ---------------------------------------------------------------------------
# Monte Carlo estimation


@dataclass(frozen=True)
class ProbabilityEstimate:
    """Indicator-mean estimate with a Wilson interval.

    The interval is at 95%.  For zero hits, `upper_bound` is the exact
    one-sided 95% bound 1 - 0.05**(1/n), keeping log-probability summaries
    finite.
    """

    n: int
    hits: int
    p_hat: float
    lo: float
    hi: float
    upper_bound: float

    @property
    def zero_hit(self) -> bool:
        return self.hits == 0

    def log_p_or_bound(self) -> float:
        return math.log(self.p_hat) if self.hits > 0 else math.log(self.upper_bound)


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """The 95% Wilson score interval of hits / n."""
    if n == 0:
        return 0.0, 1.0
    z = 1.96  # the two-sided 95% normal quantile
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def estimate_from_hits(hits: int, n: int) -> ProbabilityEstimate:
    lo, hi = wilson_interval(hits, n)
    upper = 1.0 - 0.05 ** (1.0 / n) if n > 0 else 1.0
    return ProbabilityEstimate(
        n=n, hits=hits, p_hat=hits / n if n else 0.0, lo=lo, hi=hi, upper_bound=upper
    )


# ---------------------------------------------------------------------------
# deviation observers (difference to a reference trajectory on the fly)


class DiffEnergyObserver:
    """Per-path squared trajectory norm on the recording grid of
    z = scale * path - scale * reference (given at every solver step), shape
    (n,), or of z minus each recorded target of a (T, records, S, K + 1)
    stack, shape (n, T).  The reference, the targets, z and its differences
    are scalar halves, one value per mode, all that a norm of a
    divergence-free, conjugate-symmetric field reads."""

    def __init__(self, config: SimConfig, ref_frames_by_step: np.ndarray, scale=1.0, targets=None):
        self.config = config
        self.grid = config.grid
        self.scale = scale
        self.ref = ref_frames_by_step
        self.targets = targets

    def on_start(self, prop, n_paths, n_steps):
        self.rec = _RecordingGrid(n_steps, self.config.record_stride)
        shape = (n_paths,) if self.targets is None else (n_paths, len(self.targets))
        self.h2 = np.zeros(shape + (len(self.rec),))
        self.v2 = np.zeros(shape + (len(self.rec),))

    def on_state(self, idx, t, coeffs):
        slot = self.rec.slot(idx, t)
        if slot is not None:
            z = coeffs * self.scale
            z -= self.scale * self.ref[idx]
            self.on_record(slot, z)

    def on_record(self, slot, z):
        """Norms of z, the scalar halves (n, S, K + 1) of one record, or of
        its differences to every target, (n, T, S, K + 1), in one pass."""
        if self.targets is None:
            self.h2[:, slot], self.v2[:, slot] = half_norms_sq(self.grid, z)
            return
        diff = z[:, None] - self.targets[:, slot]
        self.h2[:, :, slot], self.v2[:, :, slot] = half_norms_sq(self.grid, diff)

    def finish(self) -> dict:
        return {"diff_energy_sq": _sup_plus_integral(self.h2, self.v2, self.rec.times)}


# ---------------------------------------------------------------------------
# moderate-deviation scaling probe


@dataclass(frozen=True)
class ASpec:
    """Rescaling a(eps): the iterated-logarithm choice or a power law.

    Both satisfy a(eps) > 0 and a(eps)/sqrt(eps) -> infinity as eps -> 0,
    which is the regime the fluctuation rescaling is defined for.
    """

    kind: str = "lil"
    theta: float = 0.25

    def __post_init__(self):
        if self.kind not in ("lil", "power"):
            raise ValueError("a-spec kind must be 'lil' or 'power'")
        if self.kind == "power" and not 0.0 < self.theta < 0.5:
            raise ValueError("power-law a(eps) needs theta in (0, 1/2)")

    def value(self, epsilon: float) -> float:
        if self.kind == "lil":
            return lil_a(epsilon)
        return epsilon**self.theta


@dataclass
class ScalingReport:
    radius: float
    a_spec: dict
    rows: list[dict]
    neg_rate: float | None
    gaps: list[float] | None
    gap_monotone: bool | None
    trend_slope: float


def mdp_scaling_probe(
    radius: float,
    eps_grid,
    a_spec: ASpec,
    config: SimConfig,
    n_samples: int,
    seed: int,
    ledger: ConstantsLedger = ConstantsLedger(),
    workers: int = 1,
) -> ScalingReport:
    """Tabulate a(eps)^2 log P(||v^eps||_E >= r) across the grid.

    v^eps is the rescaled fluctuation (a/sqrt(eps)) (u^eps - u0).  Paths are
    coupled across the grid through common substreams, so in the additive
    linear regime the indicator sets are pathwise nested and the tabulated
    curve is exactly monotone in the threshold.  In the linear regime the
    optimizer surrogate for the cheapest rate in the event is included and the
    gap between the two curves is reported.  Every epsilon must pass
    `ledger.require`; `ledger` defaults to the default constants.  Each
    chunk of paths is stepped at every epsilon from one draw, the grid cut
    into groups on up to `workers` threads (`_epsilon_ensembles`).
    """
    eps_grid = sorted(float(e) for e in eps_grid)
    ledger.require(eps_grid)
    u0 = solve_deterministic(replace(config, record_stride=1))
    outs = _epsilon_ensembles(config, eps_grid, seed, n_samples,
                              lambda cfg: DiffEnergyObserver(cfg, u0.frames), workers)
    rows = []
    for eps, out in zip(eps_grid, outs):
        a = a_spec.value(eps)
        dist = np.sqrt(out["diff_energy_sq"])
        scaled = (a / math.sqrt(eps)) * dist
        if radius <= 0.0:
            est = estimate_from_hits(n_samples, n_samples)
        else:
            est = estimate_from_hits(int(np.sum(scaled >= radius)), n_samples)
        y = a * a * est.log_p_or_bound()
        rows.append(
            {
                "epsilon": eps,
                "a": a,
                "p_hat": est.p_hat,
                "lo": est.lo,
                "hi": est.hi,
                "zero_hit": est.zero_hit,
                "upper_bound": est.upper_bound,
                "a2_log_p": y,
            }
        )
    neg_rate = None
    gaps = None
    gap_monotone = None
    if not config.nonlinear and radius > 0.0:
        sigma2, _ = max_energy_response(u0, config, seed=seed)
        rate_min = radius * radius / (2.0 * sigma2)
        neg_rate = -rate_min
        # gap per row, ordered from largest epsilon down (toward the limit)
        by_desc = sorted(rows, key=lambda r: -r["epsilon"])
        gaps = [abs(r["a2_log_p"] - neg_rate) for r in by_desc]
        gap_monotone = all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    xs = np.log([r["epsilon"] for r in rows])
    ys = np.array([r["a2_log_p"] for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(rows) > 1 else 0.0
    return ScalingReport(
        radius=radius,
        a_spec={"kind": a_spec.kind, "theta": a_spec.theta},
        rows=rows,
        neg_rate=neg_rate,
        gaps=gaps,
        gap_monotone=gap_monotone,
        trend_slope=slope,
    )


# ---------------------------------------------------------------------------
# conditional deviation probe


@dataclass(frozen=True)
class FWConfig:
    """Thresholds for the conditional deviation probe.

    rho: trajectory-norm deviation threshold; eta: noise-closeness threshold;
    target_exponent: R in the comparison bound exp(-2 R log log(1/eps));
    increment_threshold/dyadic_depth parameterize the companion time-increment
    statistic.
    """

    rho: float
    eta: float
    target_exponent: float
    increment_threshold: float
    dyadic_depth: int
    eps_grid: tuple[float, ...]
    n_samples: int

    def __post_init__(self):
        if min(self.rho, self.eta, self.target_exponent, self.increment_threshold) <= 0:
            raise ValueError("all thresholds must be positive")
        if self.dyadic_depth < 0:
            raise ValueError("dyadic depth must be nonnegative")
        if not self.eps_grid:
            raise ValueError("epsilon grid must be nonempty")


class _ConditionalObserver(DiffEnergyObserver):
    """Joint event pieces: distance of the rescaled fluctuation z to the
    steered path, uniform closeness of the rescaled noise path to the control
    primitive, and the trajectory norm of the dyadic increments of z, streamed
    against the frame of z at the left anchor of the current dyadic cell."""

    def __init__(self, config, u0_frames, x_frames_rec, h_primitive, eps, per_cell):
        super().__init__(config, u0_frames, 1.0 / lil_lambda(eps), x_frames_rec[None])
        self.h_prim = h_primitive  # (n_steps + 1, J)
        self.w_scale = lil_a(eps)
        self.per_cell = per_cell  # recorded steps per dyadic cell

    def on_start(self, prop, n_paths, n_steps):
        super().on_start(prop, n_paths, n_steps)
        J = self.config.noise.n_directions
        self.w_sum = np.zeros((n_paths, J))
        self.w_close_sq = np.zeros(n_paths)  # sup_t |w_scale W - int h|_0^2
        self.inc_h2 = np.zeros((n_paths, len(self.rec)))
        self.inc_v2 = np.zeros((n_paths, len(self.rec)))

    def on_noise(self, step, t, coeffs, dW):
        self.w_sum += dW
        gap = self.w_scale * self.w_sum - self.h_prim[step + 1]
        q = kernel_norm_sq(self.config.noise, gap)
        np.maximum(self.w_close_sq, q, out=self.w_close_sq)

    def on_record(self, slot, z):
        super().on_record(slot, z)
        # the last cell keeps its anchor through the final record
        if slot % self.per_cell == 0 and slot < len(self.rec) - 1:
            self.anchor = z
        inc = z - self.anchor
        self.inc_h2[:, slot], self.inc_v2[:, slot] = half_norms_sq(self.grid, inc)

    def finish(self) -> dict:
        return {
            "dist_sq": super().finish()["diff_energy_sq"][:, 0],
            "w_close_sq": self.w_close_sq,
            "increment_sq": _sup_plus_integral(self.inc_h2, self.inc_v2, self.rec.times),
        }


@dataclass
class FWReport:
    rows: list[dict]
    below_bound_at_smallest: bool


def fw_conditional_probe(
    h: Control,
    fw: FWConfig,
    config: SimConfig,
    seed: int,
    ledger: ConstantsLedger = ConstantsLedger(),
    workers: int = 1,
) -> FWReport:
    """Estimate the probability that the rescaled fluctuation strays from the
    steered path while the rescaled noise stays near the control, per epsilon,
    against the exponential comparison bound.  Every epsilon must pass
    `ledger.require`; `ledger` defaults to the default constants.  Each
    chunk of paths is stepped at every epsilon from one draw, the grid cut
    into groups on up to `workers` threads (`_epsilon_ensembles`)."""
    eps_grid = sorted(fw.eps_grid)
    ledger.require(eps_grid)
    rec_steps = _RecordingGrid(config.n_steps, config.record_stride).steps
    per_cell = _dyadic_cell_records(config.dt * np.array(rec_steps), fw.dyadic_depth)
    u0 = solve_deterministic(replace(config, record_stride=1))
    x_traj = solve_skeleton(h, u0, config)
    times = config.dt * np.arange(config.n_steps + 1)
    h_prim = h.cumulative(times)
    outs = _epsilon_ensembles(config, eps_grid, seed, fw.n_samples, lambda cfg: (
        _ConditionalObserver(cfg, u0.frames, x_traj.frames, h_prim, cfg.epsilon, per_cell)
    ), workers)
    rows = []
    for eps, out in zip(eps_grid, outs):
        dist = np.sqrt(out["dist_sq"])
        close = np.sqrt(out["w_close_sq"])
        joint = (dist > fw.rho) & (close < fw.eta)
        est = estimate_from_hits(int(np.sum(joint)), fw.n_samples)
        bound = math.exp(-2.0 * fw.target_exponent * loglog(eps))
        # companion statistic: dyadic time-increment exceedances of the fluctuation
        inc_hits = int(np.sum(np.sqrt(out["increment_sq"]) > fw.increment_threshold))
        inc_est = estimate_from_hits(inc_hits, fw.n_samples)
        comparison = est.p_hat if est.hits > 0 else est.upper_bound
        rows.append(
            {
                "epsilon": eps,
                "p_hat": est.p_hat,
                "lo": est.lo,
                "hi": est.hi,
                "zero_hit": est.zero_hit,
                "upper_bound": est.upper_bound,
                "bound": bound,
                "below_bound": bool(comparison <= bound),
                "increment_p_hat": inc_est.p_hat,
                "increment_upper_bound": inc_est.upper_bound,
            }
        )
    return FWReport(rows=rows, below_bound_at_smallest=bool(rows[0]["below_bound"]))


# ---------------------------------------------------------------------------
# dyadic time-increment statistic


def _dyadic_cell_records(times: np.ndarray, depth: int) -> int:
    """Recorded steps per cell of a uniform recording grid split into 2**depth cells."""
    R = len(times)
    cells = 2**depth
    if R < 2:
        raise ValueError("trajectory must have at least two records")
    steps = R - 1
    if cells > steps or steps % cells != 0:
        raise ValueError(
            f"dyadic depth {depth} ({cells} cells) incompatible with {steps} recorded steps"
        )
    dt_rec = np.diff(times)
    if not np.allclose(dt_rec, dt_rec[0], rtol=1e-9, atol=1e-12):
        raise ValueError("dyadic statistic requires a uniform recording grid")
    return steps // cells


# ---------------------------------------------------------------------------
# moment-bound suite


class _MomentObserver:
    """Running moments of one ensemble, one column per order p of `orders`:
    `sup`, the sup over steps of |u|^(2p), and `int`, the left-endpoint
    integral of |u|^(2p-2) ||u||^2.  Given the zero-noise frames u0, as
    scalar halves, it also keeps the gradient sup `sup_v2`, the
    left-endpoint integral `int_a2` of |A u|^2, and the deviation u - u0's
    `sup_d2` and `int_dv2`."""

    def __init__(self, config: SimConfig, orders, u0_frames=None):
        self.config = config
        self.grid = config.grid
        self.orders = list(orders)
        self.u0 = u0_frames

    def on_start(self, prop, n_paths, n_steps):
        self.n_steps = n_steps
        self.sup = np.zeros((n_paths, len(self.orders)))
        self.int = np.zeros((n_paths, len(self.orders)))
        if self.u0 is not None:
            self.a_weight = self.grid.half_k2 * half_spectrum(self.grid.k2)
            self.sup_v2, self.int_a2, self.sup_d2, self.int_dv2 = np.zeros((4, n_paths))

    def on_state(self, idx, t, coeffs):
        dt = self.config.dt
        inside = idx < self.n_steps
        a2 = abs_sq(coeffs)
        h2 = weighted_norm_sq(a2, self.grid.half_weight)
        v2 = weighted_norm_sq(a2, self.grid.half_k2)
        # a scalar exponent per order keeps h2**2.0 and h2**1.0 bitwise h2**2
        # and h2; an array exponent (h2[:, None]**orders) need not
        for j, p in enumerate(self.orders):
            np.maximum(self.sup[:, j], h2**p, out=self.sup[:, j])
            if inside:
                self.int[:, j] += h2 ** (p - 1) * v2 * dt
        if self.u0 is None:
            return
        np.maximum(self.sup_v2, v2, out=self.sup_v2)
        dh2, dv2 = half_norms_sq(self.grid, coeffs - self.u0[idx])
        np.maximum(self.sup_d2, dh2, out=self.sup_d2)
        if inside:
            self.int_a2 += weighted_norm_sq(a2, self.a_weight) * dt
            self.int_dv2 += dv2 * dt

    def finish(self) -> dict:
        out = {"sup": self.sup, "int": self.int}
        if self.u0 is not None:
            out.update(sup_v2=self.sup_v2, int_a2=self.int_a2,
                       sup_d2=self.sup_d2, int_dv2=self.int_dv2)
        return out


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    m = float(np.mean(x))
    se = float(np.std(x, ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
    return m, se


def _fit_exponent(eps: list[float], means: list[float]) -> float:
    xs = np.log(eps)
    ys = np.log(np.maximum(means, 1e-300))
    return float(np.polyfit(xs, ys, 1)[0]) if len(eps) > 1 else math.nan


@dataclass
class MomentReport:
    rows: list[dict]
    fits: dict
    deterministic: dict


class _RemainderObserver:
    """sup over steps of |u - u0 - sqrt(eps) Y|^2, with the linearization Y
    of the dynamics around u0 stepped on the increments of the noisy path u.

    Y and the u0 frames are scalar halves, like the stepper's state.  Y is
    stepped with the noise map frozen at u0 and, in the nonlinear regime,
    the drift -(B(Y, u0) + B(u0, Y)), one `_curl_form` call on Y and 2 u0
    per step.  In the additive linear regime the remainder vanishes
    identically; with the quadratic term on it measures the second-order
    part of the deviation.
    """

    def __init__(self, config: SimConfig, u0_frames):
        self.config = config
        self.u0 = u0_frames
        self.sqrt_eps = math.sqrt(config.epsilon)
        self.scale = _guard_scale(config, _initial_coeffs(config))

    def on_start(self, prop, n_paths, n_steps):
        self.prop = prop
        self.y = np.zeros((n_paths,) + self.u0.shape[1:], dtype=np.complex128)
        self.sup = np.zeros(n_paths)
        # the noise map is frozen at u0: its factor for every step in one call
        factor = sigma_factor(self.config.noise, 0.0, self.u0[:n_steps])
        self.factor = np.broadcast_to(factor, (n_steps,))

    def on_noise(self, step, t, coeffs, dW):
        cfg, prop, y, u0n = self.config, self.prop, self.y, self.u0[step]
        noise = scatter_coefficients(cfg.noise, dW, weights=cfg.noise.gains, out=np.empty_like(y))
        noise = times_factor(noise, self.factor[step])
        y_next = prop.half_decay * y
        if cfg.nonlinear:
            y_next = y_next - prop.half_phi * _curl_form(cfg.grid, y, 2.0 * u0n)
        self.y = y_next + prop.half_phi_rate * noise
        _blowup_guard(self.y, self.scale, step)

    def on_state(self, idx, t, coeffs):
        rem = coeffs - self.u0[idx]
        rem -= self.sqrt_eps * self.y
        h2 = weighted_norm_sq(abs_sq(rem), self.config.grid.half_weight)
        np.maximum(self.sup, h2, out=self.sup)

    def finish(self) -> dict:
        return {"sup": self.sup}


def moment_bound_suite(
    eps_grid,
    p_list,
    n_samples: int,
    config: SimConfig,
    seed: int,
    ledger: ConstantsLedger = ConstantsLedger(),
    control: Control | None = None,
    with_remainder: bool = False,
    workers: int = 1,
) -> MomentReport:
    """Empirical expectations of every moment functional, regressed in epsilon.

    Rows report means and standard errors per (section, epsilon, p).  The
    state and the shifted fluctuation each accumulate the sup of |u|^(2p) and
    the integral of |u|^(2p-2) ||u||^2 for every listed order and order 2;
    the fourth-moment rows read order 2.  Fits give the log-log slope across
    the grid, one per section and, in the 2p sections, one per order, keyed
    `section[p=<p>]`; a section with a stated power adds it and the implied
    constant sup_eps mean / eps^stated.  Deterministic quantities
    (the zero-noise solution and steered-path bounds) are single numbers.
    Every epsilon must pass `ledger.require` for the orders p_list and 1;
    `ledger` defaults to the default constants.  Each chunk of paths is
    stepped at every epsilon from one draw, the grid cut into groups on up
    to `workers` threads (`_epsilon_ensembles`).
    """
    eps_grid = sorted(float(e) for e in eps_grid)
    p_list = sorted(set([1.0] + [float(p) for p in p_list]))
    ledger.require(eps_grid, p_list)
    u0_full = solve_deterministic(replace(config, record_stride=1))
    h = control or zero_control(config.noise, config.horizon, max(config.n_steps, 1))
    rows: list[dict] = []

    def add_row(section, eps, p, samples):
        m, se = _mean_se(samples)
        rows.append({"section": section, "epsilon": eps, "p": p, "mean": m, "se": se})

    # at each epsilon of the grid the state moments, the shifted fluctuation
    # and the first-order remainder all observe the same noisy paths; each
    # moment process keeps one column per order, the fourth moment order 2's
    orders = sorted(set(p_list) | {2.0})
    col = {p: j for j, p in enumerate(orders)}

    def moment(out, prefix, p):
        return out[prefix + "sup"][:, col[p]] + out[prefix + "int"][:, col[p]]

    h_field = _control_fields(h, config)

    def observers(cfg):
        children = {
            "": _MomentObserver(cfg, orders, u0_full.frames),
            "shifted_": _ShiftedObserver(
                cfg, h_field, u0_full.frames, _MomentObserver(config, orders)
            ),
        }
        if with_remainder:
            children["remainder_"] = _RemainderObserver(cfg, u0_full.frames)
        return _FanOutObserver(children)

    outs = _epsilon_ensembles(config, eps_grid, seed, n_samples, observers, workers)
    for eps, out in zip(eps_grid, outs):
        add_row("state_sup_sq_plus_int", eps, None, moment(out, "", 1.0))
        add_row("state_fourth_moment", eps, None, moment(out, "", 2.0))
        add_row("deviation_sup_sq_plus_int", eps, None, out["sup_d2"] + out["int_dv2"])
        add_row("grad_sup_plus_dissipation", eps, None, out["sup_v2"] + eps * out["int_a2"])
        for p in p_list:
            add_row("state_moment_2p", eps, p, moment(out, "", p))
        add_row("shifted_sup_sq_plus_int", eps, None, moment(out, "shifted_", 1.0))
        add_row("shifted_fourth_moment", eps, None, moment(out, "shifted_", 2.0))
        for p in p_list:
            add_row("shifted_moment_2p", eps, p, moment(out, "shifted_", p))
        if with_remainder:
            add_row("second_order_remainder_sup_sq", eps, None, out["remainder_sup"])

    stated = {
        "state_sup_sq_plus_int": 1.0,
        "state_fourth_moment": 1.0,
        "deviation_sup_sq_plus_int": 2.0,
        "grad_sup_plus_dissipation": 1.0,
        "second_order_remainder_sup_sq": 2.0,
    }
    # one fit per section and order: a 2p section's key names its order
    sections: dict[str, dict[float, float]] = {}
    for r in rows:
        key = r["section"] if r["p"] is None else f"{r['section']}[p={r['p']:g}]"
        sections.setdefault(key, {})[r["epsilon"]] = r["mean"]
    fits = {}
    for section, by_eps in sections.items():
        eps_sorted = sorted(by_eps)
        means = [by_eps[e] for e in eps_sorted]
        entry = {"fitted_exponent": _fit_exponent(eps_sorted, means)}
        if section in stated:
            power = stated[section]
            entry["stated_power"] = power
            entry["implied_constant"] = max(
                m / e**power for e, m in zip(eps_sorted, means)
            )
        fits[section] = entry

    # deterministic quantities: the zero-noise solution and the steered path
    l4_int = _l4_integral(u0_full)
    det = {
        "u0_sup_sq_plus_int": u0_full.running_energy_sq,
        "u0_l4_integral": l4_int,
        "u0_interpolation_product": float(np.max(u0_full.h2)) * u0_full.int_v2,
        "u0_grad_sup": float(np.max(u0_full.v2)),
    }
    x_traj = solve_skeleton(h, u0_full, config)
    det["steered_sup_sq_plus_int"] = x_traj.running_energy_sq
    det["steered_grad_sup"] = float(np.max(x_traj.v2))
    return MomentReport(rows=rows, fits=fits, deterministic=det)


def _l4_integral(traj: Trajectory) -> float:
    """Left-endpoint integral of the fourth power of the L4 norm; the frames
    are expanded once into full fields, the input of `_l4_fourth_power`."""
    if traj.n_records < 2:
        return 0.0
    per_frame = _l4_fourth_power(traj.grid, to_velocity(traj.grid, traj.frames[:-1]))
    return float(np.sum(per_frame * np.diff(traj.times)))
