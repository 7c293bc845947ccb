"""Command-line harness: run experiments, verify invariants, emit tables.

Verbs:
    run                 dispatch the experiment selected in the config
    verify              run the cross-module invariant suite: `run` with the
                        experiment kind forced to `verify`
    emit-tables         flatten report JSONs referenced by a manifest to CSV
                        plus companion gnuplot scripts
    print-config-schema print the JSON schema and a starter config

Every run writes a manifest, also on failure, listing the files written
before it; the exit code and a JSON line on stderr say how a run failed.
Reports carry no timestamps, so identical (config, seed) runs produce
byte-identical report files.  Every experiment's result, a dataclass or a
dict that may hold dataclasses, becomes JSON through one `dataclasses.asdict`
call in `_dispatch`'s `report`.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback
from dataclasses import asdict, dataclass, replace

from . import __version__
from .config import (
    ConfigError,
    admissibility_check,
    build_a_spec,
    build_control,
    build_fw_config,
    build_ledger,
    build_opt_params,
    build_schedule,
    config_hash,
    example_config,
    load_config,
    CONFIG_SCHEMA,
)
from .deviation import (
    AdmissibilityError,
    fw_conditional_probe,
    mdp_scaling_probe,
    moment_bound_suite,
    rate_function,
)
from .lil import build_probe, classical_ratio_study, strassen_cluster_study
from .persist import (
    read_report,
    write_manifest,
    write_report,
    write_trajectory,
)
from .solvers import (
    IntegrationError,
    solve_deterministic,
    solve_skeleton,
    solve_snse,
)
from .verification import run_invariant_suite

ENV_SEED = "SNSE_LAB_SEED"
ENV_WORKERS = "SNSE_LAB_WORKERS"


class InvariantFailure(RuntimeError):
    """The invariant suite ran to the end and at least one invariant failed."""


@dataclass
class _Report:
    """A report file: provenance around the experiment's `results`."""

    experiment: str
    config_hash: str
    seed: int
    code_version: str
    results: object


def _dispatch(data: dict, out_dir: str, seed: int, workers: int, outputs: list[str]) -> None:
    """Run the configured experiment, appending each file it writes to `outputs`."""
    ledger = build_ledger(data)
    sim = admissibility_check(data, ledger)
    noise = sim.noise
    exp = data["experiment"]
    kind = exp["kind"]
    chash = config_hash(data)
    prov = {"config_hash": chash, "seed": seed}

    def trajectory(name: str, traj) -> None:
        write_trajectory(os.path.join(out_dir, name), traj)
        outputs.append(name)

    def report(name: str, results) -> None:
        payload = asdict(_Report(kind, chash, seed, __version__, results))
        write_report(os.path.join(out_dir, name), payload)
        outputs.append(name)

    if kind == "simulate":
        if sim.epsilon > 0:
            traj = solve_snse(sim, seed, provenance=prov)
        else:
            traj = solve_deterministic(sim, provenance=prov)
        trajectory("trajectory.bin", traj)
        report(
            "simulate_report.json",
            {
                "n_records": traj.n_records,
                "sup_h2": traj.sup_h2,
                "int_v2": traj.int_v2,
                "terminal_h2": float(traj.h2[-1]),
                "terminal_v2": float(traj.v2[-1]),
            },
        )
    elif kind == "skeleton":
        u0 = solve_deterministic(replace(sim, record_stride=1), provenance=prov)
        control = build_control(exp.get("control"), noise, sim)
        x = solve_skeleton(control, u0, sim, provenance=prov)
        trajectory("limit_trajectory.bin", u0)
        trajectory("steered_trajectory.bin", x)
        from .noise import control_energy

        report(
            "skeleton_report.json",
            {
                "control_energy": control_energy(control),
                "steered_sup_h2": x.sup_h2,
                "steered_int_v2": x.int_v2,
            },
        )
    elif kind == "rate":
        u0 = solve_deterministic(replace(sim, record_stride=1))
        target_control = build_control(exp.get("target_control"), noise, sim)
        target = solve_skeleton(target_control, u0, replace(sim, record_stride=1))
        result = rate_function(target, u0, replace(sim, record_stride=1), build_opt_params(exp))
        # the optimal control is not part of the report
        report("rate_report.json", {k: v for k, v in vars(result).items() if k != "control"})
    elif kind == "mdp-scaling":
        rep = mdp_scaling_probe(
            radius=exp["radius"],
            eps_grid=exp["epsilon_grid"],
            a_spec=build_a_spec(exp),
            config=sim,
            n_samples=exp.get("samples", 1000),
            seed=seed,
            ledger=ledger,
        )
        report("mdp_scaling_report.json", rep)
    elif kind == "fw-probe":
        control = build_control(exp.get("control"), noise, sim)
        rep = fw_conditional_probe(control, build_fw_config(exp), sim, seed, ledger=ledger)
        report("fw_report.json", rep)
    elif kind == "moments":
        rep = moment_bound_suite(
            eps_grid=exp["epsilon_grid"],
            p_list=exp.get("p_list", [1.0]),
            n_samples=exp.get("samples", 200),
            config=sim,
            seed=seed,
            ledger=ledger,
            control=build_control(exp.get("control"), noise, sim),
            with_remainder=exp.get("with_remainder", False),
        )
        report("moments_report.json", rep)
    elif kind == "lil-strassen":
        schedule = build_schedule(exp)
        u0_full = solve_deterministic(replace(sim, record_stride=1))
        probe = build_probe(
            sim,
            u0_full,
            directions=exp.get("probe_directions"),
            n_shapes=exp.get("probe_shapes", 2),
            tolerance=exp.get("tolerance", 0.5),
        )
        rep = strassen_cluster_study(
            schedule, probe, exp.get("replicates", 8), sim, seed, workers=workers,
            u0_traj=u0_full,
        )
        report("strassen_report.json", rep)
    elif kind == "lil-classical":
        schedule = build_schedule(exp)
        rep = classical_ratio_study(
            schedule, exp.get("replicates", 8), sim, seed, workers=workers
        )
        report("ratio_report.json", rep)
    elif kind == "verify":
        rows = run_invariant_suite(sim, seed=seed)
        all_passed = all(r.passed for r in rows)
        report("verify_report.json", {"rows": rows, "all_passed": all_passed})
        for r in rows:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: value={r.value:.3e} "
                  f"threshold={r.threshold:.3e} {r.detail}")
        if not all_passed:
            raise InvariantFailure("invariant suite failed")
    else:
        raise ConfigError(f"unknown experiment kind {kind!r}")


def _failure(loaded: bool, exc: Exception) -> tuple[str, int]:
    """Stage and exit code of the exception that ended a run."""
    if not loaded and isinstance(exc, (OSError, ValueError)):
        return "config", 2
    if isinstance(exc, InvariantFailure):
        return "invariants", 1
    if isinstance(exc, (ConfigError, AdmissibilityError)):
        return "admissibility", 3
    return "runtime", 4


def _override(value: int | None, flag: str, env: str, key: str, default: int) -> int:
    """The flag, else its environment variable, else `default` (the config's
    value), held to the schema's minimum for the config key `key`."""
    name = flag
    if value is None:
        name, raw = env, os.environ.get(env)
        if not raw:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{env} must be an integer, got {raw!r}", offending=[env]) from None
    minimum = CONFIG_SCHEMA["properties"][key]["minimum"]
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}", offending=[name])
    return value


def cmd_run(args) -> int:
    """Load, run and record one experiment; every outcome writes a manifest."""
    out_dir, chash, seeds, outputs = args.out or "out", None, [], []
    loaded, code, error = False, 0, None
    try:
        data = load_config(args.config)
        if args.experiment is not None:
            data = {**data, "experiment": {"kind": args.experiment}}
        out_dir = args.out or data.get("output", {}).get("dir", "out")
        chash = config_hash(data)
        seed = _override(args.seed, "--seed", ENV_SEED, "seed", data.get("seed", 0))
        workers = _override(args.workers, "--workers", ENV_WORKERS, "workers",
                            data.get("workers", 1))
        seeds, loaded = [seed], True
        _dispatch(data, out_dir, seed, workers, outputs)
    except Exception as exc:  # noqa: BLE001 - structured reporting at the boundary
        stage, code = _failure(loaded, exc)
        _print_error(stage, exc)
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, IntegrationError):
            error["step"] = exc.step
        if stage == "runtime":
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            error["raised_at"] = {"file": os.path.basename(frame.filename),
                                  "line": frame.lineno, "function": frame.name}
    manifest = write_manifest(
        out_dir, chash, __version__, seeds, outputs, "failed" if code else "ok", error
    )
    if code == 0:
        print(f"wrote {len(outputs)} output file(s); manifest at {manifest}")
    return code


# report -> (CSV name, rows of `results`, columns); a column missing from a
# row is read from `results` itself (mdp-scaling's one `neg_rate`)
_TABLES = {
    "mdp_scaling_report.json": [
        ("mdp_scaling.csv", "rows", ["epsilon", "p_hat", "lo", "hi", "a2_log_p", "neg_rate"]),
    ],
    "fw_report.json": [
        ("fw_probe.csv", "rows",
         ["epsilon", "p_hat", "lo", "hi", "upper_bound", "bound", "below_bound"]),
    ],
    "moments_report.json": [
        ("moments.csv", "rows", ["section", "epsilon", "p", "mean", "se"]),
        ("moment_fits.csv", "fits",
         ["section", "fitted_exponent", "stated_power", "implied_constant"]),
    ],
    "strassen_report.json": [
        ("strassen.csv", "rows",
         ["replicate", "j", "epsilon", "distance", "nearest", "within_tolerance"]),
    ],
    "ratio_report.json": [
        ("ratio.csv", "rows", ["replicate", "j", "epsilon", "ratio"]),
        ("ratio_quantiles.csv", "per_j_quantiles", ["j", "epsilon", "q10", "q50", "q90", "mean"]),
    ],
    "verify_report.json": [
        ("verify.csv", "rows", ["name", "passed", "value", "threshold", "detail"]),
    ],
}

_PLOTS = {
    "mdp_scaling_report.json": (
        "mdp_scaling.gp",
        "set datafile separator ','\nset logscale x\n"
        "set xlabel 'epsilon'\nset ylabel 'a^2 log P'\n"
        "plot 'mdp_scaling.csv' using 1:5 skip 1 with linespoints title 'probe', \\\n"
        "     'mdp_scaling.csv' using 1:6 skip 1 with lines title 'minus rate'\n",
    ),
    "ratio_report.json": (
        "ratio.gp",
        "set datafile separator ','\nset xlabel 'j'\nset ylabel 'ratio'\n"
        "plot 'ratio_quantiles.csv' using 1:4 skip 1 with linespoints title 'median'\n",
    ),
}


def _cell(value):
    """A CSV cell: booleans as 0/1; csv writes None as an empty cell."""
    return int(value) if isinstance(value, bool) else value


def _report_rows(name: str, results: dict, key: str) -> list[dict]:
    """The rows `results[key]` of a report as a list of objects; a map of
    section -> entry (moment fits) becomes rows with a `section` column."""
    rows = results.get(key)
    if isinstance(rows, dict):  # moment fits: section -> entry
        rows = [{"section": section, **e} if isinstance(e, dict) else e
                for section, e in sorted(rows.items())]
    if not isinstance(rows, list):
        raise ValueError(f"report {name} has no {key!r} rows in its results")
    if not all(isinstance(r, dict) for r in rows):
        raise ValueError(f"report {name} has a {key!r} row that is not an object")
    return rows


def emit_tables(manifest_path: str) -> list[str]:
    """Flatten the reports referenced by a manifest into CSV/plot files."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    out_dir = os.path.dirname(os.path.abspath(manifest_path))
    produced: list[str] = []
    for entry in manifest.get("outputs", []):
        name = entry.get("path") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise ValueError(f"manifest outputs entry without a path: {entry!r}")
        if name not in _TABLES:
            continue
        full = os.path.join(out_dir, name)
        if not os.path.exists(full):
            raise FileNotFoundError(f"report listed in manifest is missing: {name}")
        results = read_report(full)
        results = results.get("results") if isinstance(results, dict) else None
        if not isinstance(results, dict):
            raise ValueError(f"report {name} has no results object")
        tables = [(csv_name, _report_rows(name, results, key), columns)
                  for csv_name, key, columns in _TABLES[name]]
        for csv_name, rows, columns in tables:
            with open(os.path.join(out_dir, csv_name), "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(columns)
                w.writerows([_cell(r.get(c, results.get(c))) for c in columns] for r in rows)
            produced.append(csv_name)
        if name in _PLOTS:
            gp_name, script = _PLOTS[name]
            with open(os.path.join(out_dir, gp_name), "w") as fh:
                fh.write(script)
            produced.append(gp_name)
    if not produced:
        print("warning: manifest lists no tabulatable reports", file=sys.stderr)
    return produced


def cmd_emit_tables(args) -> int:
    try:
        produced = emit_tables(args.manifest)
    except (OSError, ValueError) as exc:
        _print_error("emit-tables", exc)
        return 2
    for name in produced:
        print(name)
    return 0


def cmd_print_schema(args) -> int:
    doc = {
        "schema": CONFIG_SCHEMA,
        "example": example_config(args.kind),
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _print_error(stage: str, exc: Exception) -> None:
    payload = {"stage": stage, "type": type(exc).__name__, "message": str(exc)}
    offending = getattr(exc, "offending", None)
    if offending:
        payload["offending_keys"] = offending
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snse-lab",
        description="Spectral stochastic Navier-Stokes laboratory",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, experiment, text in (("run", None, "run the configured experiment"),
                                   ("verify", "verify", "run the invariant suite")):
        p = sub.add_parser(verb, help=text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help=f"override the config seed; ${ENV_SEED} if unset")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes for replicate-level fan-out; "
                            f"${ENV_WORKERS} if unset")
        p.add_argument("--out", default=None, help="override the output directory")
        p.set_defaults(fn=cmd_run, experiment=experiment)

    p_emit = sub.add_parser("emit-tables", help="emit CSV tables from a manifest")
    p_emit.add_argument("--manifest", required=True, help="path to manifest.json")
    p_emit.set_defaults(fn=cmd_emit_tables)

    p_schema = sub.add_parser("print-config-schema", help="print schema and example")
    p_schema.add_argument("--kind", default="simulate", help="example experiment kind")
    p_schema.set_defaults(fn=cmd_print_schema)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
