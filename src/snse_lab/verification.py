"""Cross-module invariant suite runnable from the command line.

Each check returns a row (name, passed, value, threshold, detail); the CLI
renders one line per row and exits nonzero if any row fails.  The suite
includes a deliberate negative control: a field with divergence injected must
be caught by the divergence checker, with the offending mode named.  The
advection kernel is checked against an independent evaluation of the same
product, the gradient form (`advection_gradient_form`), and the skeleton's
adjoint sweep against the skeleton itself by the dot-product identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .deviation import _adjoint_sweep, rate_gradient_check
from .noise import (
    Control,
    NoiseModel,
    control_energy,
    scatter_coefficients,
    verify_assumptions,
)
from .rng import substream
from .solvers import SimConfig, ensemble_run, skeleton_forward, solve_deterministic, solve_snse
from .spectral import (
    TWO_PI,
    SpectralField,
    SpectralGrid,
    advection_array,
    advection_form,
    advection_term,
    apply_stokes,
    divergence_defect,
    from_physical,
    leray_project_array,
    norm_bundle,
    random_solenoidal_field,
    leray_project,
    to_physical,
    to_scalar,
    to_velocity,
    worst_divergence_mode,
)


@dataclass
class CheckRow:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""


def advection_gradient_form(grid: SpectralGrid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P((u . grad) v) in gradient form, batched over full arrays: the grid
    values u_x dv/dx + u_y dv/dy by real transforms, Leray projected.  It
    needs no condition on div u, where the package's curl form is P div(u v);
    the two agree for divergence-free u, so each is an oracle of the other."""
    u_phys = to_physical(grid, u)
    dvdx = to_physical(grid, 1j * grid.kx * v)
    dvdy = to_physical(grid, 1j * grid.ky * v)
    w = u_phys[..., 0:1, :, :] * dvdx + u_phys[..., 1:2, :, :] * dvdy
    return leray_project_array(grid, from_physical(grid, w))


def _rel_divergence(field: SpectralField) -> float:
    div, amp = divergence_defect(field)
    return div / max(amp, 1e-300)


class _IncrementSums:
    """Per path, the sums over steps of the increments dW of J directions and
    of dW^2, (n, J) each, summed as the stepper hands them to on_noise."""

    def __init__(self, n_directions: int):
        self.J = n_directions

    def on_start(self, prop, n_paths, n_steps):
        self.dW = np.zeros((n_paths, self.J))
        self.dW_sq = np.zeros((n_paths, self.J))

    def on_noise(self, step, t, coeffs, dW):
        self.dW += dW
        self.dW_sq += dW**2

    def finish(self) -> dict:
        return {"dW": self.dW, "dW_sq": self.dW_sq}


def run_invariant_suite(config: SimConfig, seed: int = 0) -> list[CheckRow]:
    rows: list[CheckRow] = []
    grid = config.grid
    rng = substream(seed, 1)

    # spectral identities on random fields
    worst_gap = 0.0
    worst_anti = 0.0
    worst_orth = 0.0
    worst_self = 0.0
    worst_stokes = 0.0
    interp_const = 0.0
    for _ in range(100):
        u = random_solenoidal_field(grid, rng)
        v = random_solenoidal_field(grid, rng)
        w = random_solenoidal_field(grid, rng)
        curl_form = advection_term(u, v).coeffs
        gradient_form = advection_gradient_form(grid, u.coeffs, v.coeffs)
        gap = np.max(np.abs(curl_form - gradient_form)) / np.max(np.abs(gradient_form))
        worst_gap = max(worst_gap, float(gap))
        buvw = advection_form(u, v, w)
        buwv = advection_form(u, w, v)
        worst_anti = max(worst_anti, abs(buvw + buwv) / (abs(buvw) + 1.0))
        nb_u, nb_v = norm_bundle(u), norm_bundle(v)
        orth = abs(float(np.vdot(advection_term(u, v).coeffs, v.coeffs).real))
        worst_orth = max(
            worst_orth, orth * (2 * math.pi) ** 2 / (nb_u.v_norm * nb_v.v_norm**2)
        )
        # the stepper's self-advection against the general kernel on a copy
        general = advection_array(grid, u.coeffs, u.coeffs.copy())
        gap = np.max(np.abs(advection_array(grid, u.coeffs, u.coeffs) - general))
        worst_self = max(worst_self, float(gap / np.max(np.abs(general))))
        au = apply_stokes(u)
        aun = float(np.vdot(au.coeffs, u.coeffs).real) * (2 * math.pi) ** 2
        worst_stokes = max(worst_stokes, abs(aun - nb_u.v_norm_sq) / nb_u.v_norm_sq)
        interp_const = max(
            interp_const, nb_u.l4_norm**4 / (nb_u.h_norm_sq * nb_u.v_norm_sq)
        )
    rows.append(CheckRow("advection_gradient_form_agreement", worst_gap <= 1e-13, worst_gap, 1e-13))
    rows.append(CheckRow("trilinear_antisymmetry", worst_anti <= 1e-10, worst_anti, 1e-10))
    rows.append(CheckRow("advection_energy_orthogonality", worst_orth <= 1e-10, worst_orth, 1e-10))
    rows.append(CheckRow("self_advection_consistency", worst_self <= 1e-14, worst_self, 1e-14))
    rows.append(CheckRow("stokes_consistency", worst_stokes <= 1e-10, worst_stokes, 1e-10))
    rows.append(
        CheckRow(
            "interpolation_constant",
            np.isfinite(interp_const) and interp_const > 0,
            interp_const,
            math.inf,
            "fitted constant in the L4 interpolation inequality",
        )
    )

    # idempotence of the projection
    u = random_solenoidal_field(grid, rng)
    twice = leray_project(grid, u.coeffs)
    idem = float(np.max(np.abs(twice.coeffs - u.coeffs))) / max(
        float(np.max(np.abs(u.coeffs))), 1e-300
    )
    rows.append(CheckRow("leray_idempotence", idem <= 1e-13, idem, 1e-13))

    # negative control: an injected divergence must be reported
    bad = u.copy_coeffs()
    K = grid.max_wavenumber
    bad[0, K, K + 1] += 0.5  # mode (1, 0), velocity parallel to k
    bad[0, K, K - 1] += 0.5
    corrupted = SpectralField(grid, bad)
    kx, ky, amp = worst_divergence_mode(corrupted)
    caught = _rel_divergence(corrupted) > 1e-12 and (kx, ky) in ((1, 0), (-1, 0))
    rows.append(
        CheckRow(
            "corrupted_field_detected",
            caught,
            _rel_divergence(corrupted),
            1e-12,
            f"offending mode ({kx}, {ky}), amplitude {amp:.3e}",
        )
    )

    # noise family constants
    report = verify_assumptions(config.noise, 200, substream(seed, 2))
    rows.append(
        CheckRow(
            "sigma_family_constants",
            report.ok,
            report.bound_est,
            report.declared["bound"] * 1.05,
            f"violations: {list(report.violations)}" if not report.ok else "",
        )
    )
    # every noise direction as the solvers scatter it, in one call, and
    # expanded as the edges emit fields (`to_velocity`): the worst over
    # directions of max |k . u| over max |u|
    model = config.noise
    fields = to_velocity(grid, scatter_coefficients(model, np.eye(model.n_directions)))
    kdot = np.abs(grid.kx * fields[:, 0] + grid.ky * fields[:, 1])
    sigma_div = float(np.max(np.max(kdot, axis=(1, 2)) / np.max(np.abs(fields), axis=(1, 2, 3))))
    rows.append(CheckRow("sigma_output_divergence_free", sigma_div <= 1e-12, sigma_div, 1e-12))

    # the variance of the increments the stepper hands its observers, against
    # the spectrum: 2000 linear paths of 10 steps, 20000 draws per direction
    eps = min(0.01, config.epsilon or 0.01)
    linear = replace(config, horizon=10 * config.dt, epsilon=eps, nonlinear=False,
                     record_stride=1)
    sums = ensemble_run(linear, seed, 2000, lambda: _IncrementSums(model.n_directions))
    n = 2000 * linear.n_steps
    mean = np.sum(sums["dW"], axis=0) / n
    var = np.sum(sums["dW_sq"], axis=0) / n - mean**2
    expected = model.eigenvalues * config.dt
    se = expected * math.sqrt(2.0 / n)
    worst_z = float(np.max(np.abs(var - expected) / se))
    rows.append(CheckRow("wiener_increment_variance", worst_z <= 4.0, worst_z, 4.0, "z-score"))

    # control energy invariance under refinement
    cells = max(config.n_steps // 10, 1)
    values = substream(seed, 4).standard_normal((cells, model.n_directions))
    h = Control(model, config.horizon, values)
    h_fine = Control(model, config.horizon, np.repeat(values, 10, axis=0))
    diff = abs(control_energy(h) - control_energy(h_fine))
    rows.append(CheckRow("control_energy_refinement", diff <= 1e-12, diff, 1e-12))

    # zero-noise reduction is bit exact
    short = replace(config, horizon=20 * config.dt, record_stride=1)
    det = solve_deterministic(short)
    sto = solve_snse(short.with_epsilon(0.0), seed=seed)
    bit_equal = bool(np.array_equal(det.frames, sto.frames))
    rows.append(CheckRow("zero_noise_reduction_bit_exact", bit_equal, float(not bit_equal), 0.0))

    # determinism of the stochastic solver
    t1 = solve_snse(short.with_epsilon(eps), seed=seed)
    t2 = solve_snse(short.with_epsilon(eps), seed=seed)
    det_equal = bool(np.array_equal(t1.frames, t2.frames))
    rows.append(CheckRow("stochastic_determinism", det_equal, float(not det_equal), 0.0))

    # divergence preservation along a short nonlinear run, of the fields its
    # trajectory emits (`Trajectory.field_at`)
    if config.nonlinear and grid.supports_products():
        traj = solve_snse(short.with_epsilon(eps), seed=seed + 1)
        worst = 0.0
        for i in range(traj.n_records):
            worst = max(worst, _rel_divergence(traj.field_at(i)))
        rows.append(CheckRow("solver_divergence_preservation", worst <= 1e-12, worst, 1e-12))

    # the skeleton's adjoint on a small instance whose u0 starts from a
    # random field, so that in the nonlinear regime the linearization around
    # it couples: first the rate gradient against central differences
    small = _small_gradient_config(config)
    rng = substream(seed, 6)
    coupled = replace(small, initial=random_solenoidal_field(small.grid, rng))
    u0 = solve_deterministic(coupled)
    target = solve_skeleton_target(coupled, u0, seed)
    err = rate_gradient_check(target, u0, coupled, n_directions=5, seed=seed)
    rows.append(CheckRow("adjoint_gradient_check", err <= 1e-4, err, 1e-4))

    # then the dot-product identity <x(h), s> = <h, adjoint(s)> of the
    # skeleton and its adjoint sweep, for random h and divergence-free s, in
    # the L2 pairing on the scalar halves
    h = rng.standard_normal((small.n_steps, small.noise.n_directions))
    s = np.stack([
        to_scalar(small.grid, random_solenoidal_field(small.grid, rng).coeffs)
        for _ in range(small.n_steps + 1)
    ])
    x = skeleton_forward(h, u0.frames, coupled)
    paired = TWO_PI**2 * float(np.sum(small.grid.half_weight * (np.conjugate(s) * x).real))
    adjoint = float(np.sum(h * _adjoint_sweep(coupled, u0.frames, s[-1], s[:-1])))
    dot_gap = abs(adjoint - paired) / max(abs(paired), 1e-300)
    rows.append(CheckRow("adjoint_dot_identity", dot_gap <= 1e-12, dot_gap, 1e-12))
    return rows


def _small_gradient_config(config: SimConfig) -> SimConfig:
    from .spectral import default_grid

    grid = default_grid(min(config.grid.max_wavenumber, 2))
    model = NoiseModel(
        grid=grid,
        spectrum_exponent=config.noise.spectrum_exponent,
        family=config.noise.family,
        params=config.noise.params,
    )
    return SimConfig(
        grid=grid,
        noise=model,
        horizon=40 * config.dt,
        dt=config.dt,
        epsilon=0.0,
        nonlinear=config.nonlinear,
        record_stride=1,
    )


def solve_skeleton_target(config: SimConfig, u0, seed: int):
    from .solvers import solve_skeleton

    rng = substream(seed, 5)
    values = 0.3 * rng.standard_normal((config.n_steps, config.noise.n_directions))
    h = Control(config.noise, config.horizon, values)
    return solve_skeleton(h, u0, config)
