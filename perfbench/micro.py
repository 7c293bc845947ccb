"""Kernel microbenchmarks: the layers' public functions at the workload shapes.

    python3 perfbench/micro.py --seed N

Inputs are drawn from N.  Each kernel is called once before timing, so lazy
set-up such as FFT plan caches is done, then timed REPEATS times; the median
is reported.  The rate optimizer is timed once on the rate-k4 config.  At K=10, batch 256, a complex physical-space array is about
8 MB, which stays in a last-level cache of tens of MB: these are in-cache
timings, not bandwidth figures.  The last line of stdout is one JSON object.
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from snse_lab import config as C  # noqa: E402
from snse_lab.config import build_control, build_opt_params  # noqa: E402
from snse_lab.deviation import DiffEnergyObserver, rate_function  # noqa: E402
from snse_lab.noise import sigma_adjoint_array, sigma_apply_array  # noqa: E402
from snse_lab.rng import substream  # noqa: E402
from snse_lab.solvers import (  # noqa: E402
    ensemble_run,
    skeleton_forward,
    solve_deterministic,
    solve_skeleton,
)
from snse_lab.spectral import (  # noqa: E402
    advection_array,
    default_grid,
    from_physical,
    random_solenoidal_field,
    to_physical,
)

import workloads  # noqa: E402

REPEATS = 5
ENSEMBLE_STEPS = 4
ENSEMBLE_REPEATS = 3
BATCH = 256


class NoOpObserver:
    """Observer that records nothing, to time the bare ensemble step."""

    def on_start(self, prop, n_paths, n_steps):
        pass

    def finish(self) -> dict:
        return {}


def median_time(fn, repeats: int = REPEATS) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def fields(K: int, batch: int, rng) -> np.ndarray:
    grid = default_grid(K)
    return np.stack([random_solenoidal_field(grid, rng).coeffs for _ in range(batch)])


def sim_of(data: dict):
    grid = C.build_grid(data)
    return C.build_sim_config(data, grid, C.build_noise(data, grid))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, required=True)
    seed = p.parse_args(argv).seed
    rng = np.random.default_rng(seed)
    out = {}

    g10, g16 = default_grid(10), default_grid(16)
    u10, u16 = fields(10, BATCH, rng), fields(16, BATCH, rng)
    phys10 = to_physical(g10, u10)
    out["spectral.advection_array.k10_b256_ms"] = 1e3 * median_time(lambda: advection_array(g10, u10, u10))
    out["spectral.advection_array.k10_b1_us"] = 1e6 * median_time(
        lambda: advection_array(g10, u10[:1], u10[:1]), repeats=10 * REPEATS
    )
    out["spectral.advection_array.k16_b256_ms"] = 1e3 * median_time(lambda: advection_array(g16, u16, u16))
    out["spectral.to_physical.k10_b256_ms"] = 1e3 * median_time(lambda: to_physical(g10, u10))
    out["spectral.from_physical.k10_b256_ms"] = 1e3 * median_time(lambda: from_physical(g10, phys10))

    rate_data = workloads.make_config("rate-k4", seed, "unused")
    rate = sim_of(rate_data)
    model = rate.noise
    u4 = fields(4, 1, rng)[0]
    xi = rng.standard_normal(model.n_directions)
    out["noise.sigma_apply_array.k4_b1_us"] = 1e6 * median_time(
        lambda: sigma_apply_array(model, 0.0, u4, xi), repeats=100 * REPEATS
    )
    out["noise.sigma_adjoint_array.k4_b1_us"] = 1e6 * median_time(
        lambda: sigma_adjoint_array(model, 0.0, u4, u4), repeats=100 * REPEATS
    )
    u0_rate = solve_deterministic(rate)
    h_values = rng.standard_normal((rate.n_steps, model.n_directions))
    out["solvers.skeleton_forward.k4_linear_ms"] = 1e3 * median_time(
        lambda: skeleton_forward(h_values, u0_rate.frames, rate)
    )
    # one whole optimization of the rate-k4 config, timed once: 600-odd
    # objective-plus-adjoint evaluations amortize any lazy set-up
    target = solve_skeleton(build_control(rate_data["experiment"]["target_control"], model, rate),
                            u0_rate, rate)
    start = time.perf_counter()
    rate_function(target, u0_rate, rate, build_opt_params(rate_data["experiment"]))
    out["deviation.rate_function.k4_s"] = time.perf_counter() - start

    fw_data = workloads.make_config("fw-k10", seed, "unused")
    fw_data["solver"]["horizon"] = ENSEMBLE_STEPS * fw_data["solver"]["dt"]
    fw = sim_of(fw_data).with_epsilon(fw_data["experiment"]["epsilon_grid"][-1])
    u0_fw = solve_deterministic(fw.with_epsilon(0.0)).frames
    for key, factory in (
        ("k10_b256_ms_per_step", lambda: DiffEnergyObserver(fw, u0_fw)),
        ("k10_b256_noobs_ms_per_step", NoOpObserver),
    ):
        t = median_time(lambda: ensemble_run(fw, seed, BATCH, factory), repeats=ENSEMBLE_REPEATS)
        out[f"solvers.ensemble_run.{key}"] = 1e3 * t / ENSEMBLE_STEPS
    J, steps = fw.noise.n_directions, workloads.FW_STEPS
    out["rng.normals.k10_b256_ms"] = 1e3 * median_time(
        lambda: [substream(seed, i).standard_normal((steps, J)) for i in range(BATCH)]
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
