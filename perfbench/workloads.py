"""Benchmark workloads: configs generated from the workload seed.

The program sees only the generated config.  The seed picks the config's
Monte Carlo seed from a pool of SEED_POOL values, so every input the
benchmark can generate has a reference report recorded in reference.json.
"""

from __future__ import annotations

SEED_POOL = 16

_BASE = {
    "schema_version": 1,
    "noise": {"family": "additive", "spectrum_exponent": 2.0, "amplitude": 1.0},
    "constants": {"K1": 1.0, "K2": 1.0, "K9": 1.0},
    "workers": 1,
}

# fw-probe at the README grid.  At most 71 steps keeps all 256 paths of an
# epsilon in one ensemble chunk (_auto_chunk's 8M-float budget over 440
# directions); FW_STEPS is divisible by the 2**dyadic_depth cells.
FW_STEPS = 16
FW_EPSILONS = [1e-4, 1e-3]
FW_SAMPLES = 256

# lil-strassen solves every (replicate, schedule index) pair as its own
# one-path ensemble.
LIL_STEPS = 64
LIL_REPLICATES = 16
LIL_J = (7, 10)


def _nonlinear_k10(steps: int) -> dict:
    return {
        "grid": {"max_wavenumber": 10},
        "solver": {
            "horizon": steps * 1e-3,
            "dt": 1e-3,
            "epsilon": 1e-3,
            "nonlinear": True,
            "record_stride": 1,
            "initial": {"type": "taylor_green", "amplitude": 1.0},
        },
    }


def _fw_k10() -> dict:
    return {
        **_nonlinear_k10(FW_STEPS),
        "experiment": {
            "kind": "fw-probe",
            "rho": 0.15,
            "eta": 10.0,
            "target_exponent": 0.5,
            "increment_threshold": 0.085,
            "dyadic_depth": 2,
            "epsilon_grid": FW_EPSILONS,
            "samples": FW_SAMPLES,
            "control": {"type": "zero"},
        },
    }


def _rate_k4() -> dict:
    # the `rate` example config: linear diagonal regime, K=4, 2 directions,
    # 50 steps, target steered by a constant control on direction 0
    return {
        "grid": {"max_wavenumber": 4},
        "solver": {
            "horizon": 0.1,
            "dt": 2e-3,
            "epsilon": 1e-3,
            "nonlinear": False,
            "record_stride": 1,
            "initial": {"type": "single_mode", "k": [1, 0], "amplitude": 1.0},
        },
        "noise": {**_BASE["noise"], "num_directions": 2},
        "experiment": {
            "kind": "rate",
            "target_control": {"type": "single_direction", "direction": 0, "amplitude": 0.5},
            "feasibility_tol": 1e-6,
        },
    }


def _lil_k10() -> dict:
    return {
        **_nonlinear_k10(LIL_STEPS),
        "experiment": {
            "kind": "lil-strassen",
            "schedule_base": 2.0,
            "j_min": LIL_J[0],
            "j_max": LIL_J[1],
            "replicates": LIL_REPLICATES,
            "probe_shapes": 2,
            "probe_directions": [0, 1],
            "tolerance": 1.0,
        },
    }


_BUILDERS = {"fw-k10": _fw_k10, "rate-k4": _rate_k4, "lil-k10": _lil_k10}
NAMES = tuple(_BUILDERS)


def program_seed(seed: int) -> int:
    return seed % SEED_POOL


def make_config(name: str, seed: int, out_dir: str) -> dict:
    """The config the program receives for workload `name` at benchmark `seed`."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return {
        **_BASE,
        **_BUILDERS[name](),
        "seed": program_seed(seed),
        "output": {"dir": out_dir},
    }


def path_steps(config: dict, results: dict) -> int:
    """Paths times solver steps advanced by one run.

    Monte Carlo workloads count their sample paths; the rate optimizer counts
    one skeleton path per objective evaluation.
    """
    exp = config["experiment"]
    steps = round(config["solver"]["horizon"] / config["solver"]["dt"])
    if exp["kind"] == "fw-probe":
        return len(exp["epsilon_grid"]) * exp["samples"] * steps
    if exp["kind"] == "lil-strassen":
        return exp["replicates"] * (exp["j_max"] - exp["j_min"] + 1) * steps
    return results["diagnostics"]["objective_evaluations"] * steps
