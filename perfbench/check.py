"""Output checks: every run's report against reference values, plus oracles.

Integer and boolean values must match the reference exactly.  Floats must
agree within RTOL (plus ATOL near zero): loose enough for rounding-level
kernel changes, about 2e-15 per transform call over a few thousand calls,
and tight enough that a wrong kernel or a wrong optimizer answer fails.

    python3 perfbench/check.py --record   # re-record reference.json

Recording runs every workload at every pool seed; do it only when a change is
meant to alter the reports, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
RTOL = 1e-6
ATOL = 1e-9


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def compare(got, want, path: str = "results") -> list[str]:
    """Differences between a report value and its reference, one line each."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [d for k in sorted(want) for d in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs from the reference"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            return []
        return [f"{path}: {got!r} != {want!r} (rtol {RTOL}, atol {ATOL})"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _rate_oracle(config: dict, results: dict) -> list[str]:
    """The target is steered by a known control, so the rate is half its energy."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from snse_lab.config import build_control, build_grid, build_noise, build_sim_config
    from snse_lab.noise import control_energy

    grid = build_grid(config)
    noise = build_noise(config, grid)
    sim = build_sim_config(config, grid, noise)
    target = build_control(config["experiment"]["target_control"], noise, sim)
    expected = 0.5 * control_energy(target)
    tol = config["experiment"]["feasibility_tol"]
    problems = []
    if results["feasible"] is not True:
        problems.append("rate: optimizer did not reach the target")
    if not results["residual"] <= tol:
        problems.append(f"rate: residual {results['residual']} > feasibility_tol {tol}")
    if not math.isclose(results["value"], expected, rel_tol=1e-4):
        problems.append(f"rate: value {results['value']} != half target energy {expected}")
    return problems


def _fw_oracle(results: dict) -> list[str]:
    """An all-zero or all-one probability cannot reveal a wrong kernel."""
    return [
        f"fw: {key} {row[key]} at epsilon {row['epsilon']} is not inside (0, 1)"
        for row in results["rows"]
        for key in ("p_hat", "increment_p_hat")
        if not 0.0 < row[key] < 1.0
    ]


def check_report(name: str, config: dict, report: dict, reference: dict) -> list[str]:
    """Every problem with one run's report; an empty list means it passed."""
    results = report.get("results")
    if results is None:
        return ["report has no results"]
    want = reference[name][str(config["seed"])]
    problems = compare(results, want)
    if name == "rate-k4":
        problems += _rate_oracle(config, results)
    elif name == "fw-k10":
        problems += _fw_oracle(results)
    return problems


def record() -> None:
    import run

    reference = {}
    for name in workloads.NAMES:
        reference[name] = {}
        for seed in range(workloads.SEED_POOL):
            rep = run.run_once(name, seed, run.scratch_dir(f"record-{name}-{seed}"))
            if rep["report"] is None:
                raise SystemExit(f"{name} seed {seed}: run failed")
            reference[name][str(seed)] = rep["report"]["results"]
            print(f"{name} seed {seed}: recorded", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--record", action="store_true", help="re-record reference.json")
    if p.parse_args().record:
        record()
