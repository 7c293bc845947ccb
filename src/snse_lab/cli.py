"""Command-line harness: run experiments, verify invariants, emit tables.

Verbs:
    run                 dispatch the experiment selected in the config
    verify              run the cross-module invariant suite
    emit-tables         flatten report JSONs referenced by a manifest to CSV
                        plus companion gnuplot scripts
    print-config-schema print the JSON schema and a starter config

Every run writes a manifest (even on failure, with the partial inventory).
Reports carry no timestamps, so identical (config, seed) runs produce
byte-identical report files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

from . import __version__
from .config import (
    ConfigError,
    admissibility_check,
    build_a_spec,
    build_control,
    build_fw_config,
    build_grid,
    build_ledger,
    build_noise,
    build_opt_params,
    build_schedule,
    build_sim_config,
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


def _dispatch(data: dict, out_dir: str, seed: int, workers: int) -> list[str]:
    """Run the configured experiment; returns the produced file names."""
    grid = build_grid(data)
    noise = build_noise(data, grid)
    sim = build_sim_config(data, grid, noise)
    ledger = build_ledger(data)
    admissibility_check(data, ledger)
    exp = data["experiment"]
    kind = exp["kind"]
    chash = config_hash(data)
    prov = {"config_hash": chash, "seed": seed}
    outputs: list[str] = []

    def report(name: str, payload: dict) -> None:
        payload = {
            "experiment": kind,
            "config_hash": chash,
            "seed": seed,
            "code_version": __version__,
            "results": payload,
        }
        write_report(os.path.join(out_dir, name), payload)
        outputs.append(name)

    if kind == "simulate":
        if sim.epsilon > 0:
            traj = solve_snse(sim, seed, provenance=prov)
        else:
            traj = solve_deterministic(sim, provenance=prov)
        write_trajectory(os.path.join(out_dir, "trajectory.bin"), traj)
        outputs.append("trajectory.bin")
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
        write_trajectory(os.path.join(out_dir, "limit_trajectory.bin"), u0)
        write_trajectory(os.path.join(out_dir, "steered_trajectory.bin"), x)
        outputs += ["limit_trajectory.bin", "steered_trajectory.bin"]
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
        report("rate_report.json", result.to_dict())
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
        report("mdp_scaling_report.json", rep.to_dict())
    elif kind == "fw-probe":
        control = build_control(exp.get("control"), noise, sim)
        rep = fw_conditional_probe(control, build_fw_config(exp), sim, seed, ledger=ledger)
        report("fw_report.json", rep.to_dict())
    elif kind == "moments":
        rep = moment_bound_suite(
            eps_grid=exp["epsilon_grid"],
            p_list=exp.get("p_list", [1.0]),
            n_samples=exp.get("samples", 200),
            config=sim,
            seed=seed,
            ledger=ledger,
            with_remainder=exp.get("with_remainder", False),
        )
        report("moments_report.json", rep.to_dict())
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
            schedule, probe, exp.get("replicates", 8), sim, seed, workers=workers
        )
        report("strassen_report.json", rep.to_dict())
    elif kind == "lil-classical":
        schedule = build_schedule(exp)
        rep = classical_ratio_study(
            schedule, exp.get("replicates", 8), sim, seed, workers=workers
        )
        report("ratio_report.json", rep.to_dict())
    elif kind == "verify":
        rows = run_invariant_suite(sim, seed=seed)
        payload = {"rows": [r.to_dict() for r in rows], "all_passed": all(r.passed for r in rows)}
        report("verify_report.json", payload)
        for r in rows:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: value={r.value:.3e} "
                  f"threshold={r.threshold:.3e} {r.detail}")
        if not payload["all_passed"]:
            raise RuntimeError("invariant suite failed")
    else:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    return outputs


def cmd_run(args) -> int:
    try:
        data = load_config(args.config)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        _print_error("config", exc)
        return 2
    seed = args.seed if args.seed is not None else data.get("seed", 0)
    workers = args.workers if args.workers is not None else data.get("workers", 1)
    out_dir = args.out or data.get("output", {}).get("dir", "out")
    chash = config_hash(data)
    outputs: list[str] = []
    status, error, code = "ok", None, 0
    try:
        outputs = _dispatch(data, out_dir, seed, workers)
    except (ConfigError, AdmissibilityError) as exc:
        status, error, code = "failed", {"type": type(exc).__name__, "message": str(exc)}, 3
        _print_error("admissibility", exc)
    except IntegrationError as exc:
        status, error, code = "failed", _report_integration_error(exc), 4
    except Exception as exc:  # noqa: BLE001 - structured reporting at the boundary
        status, error, code = "failed", {"type": type(exc).__name__, "message": str(exc)}, 4
        _print_error("runtime", exc)
    manifest = write_manifest(
        out_dir, chash, __version__, [seed], outputs, status, error
    )
    if code == 0:
        print(f"wrote {len(outputs)} output file(s); manifest at {manifest}")
    return code


def cmd_verify(args) -> int:
    try:
        data = load_config(args.config)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        _print_error("config", exc)
        return 2
    data = dict(data)
    data["experiment"] = {"kind": "verify"}
    tmp = args.out or data.get("output", {}).get("dir", "out")
    seed = args.seed if args.seed is not None else data.get("seed", 0)
    try:
        outputs = _dispatch(data, tmp, seed, args.workers or 1)
    except IntegrationError as exc:
        write_manifest(tmp, config_hash(data), __version__, [seed], [], "failed",
                       _report_integration_error(exc))
        return 4
    except RuntimeError as exc:
        write_manifest(tmp, config_hash(data), __version__, [seed], ["verify_report.json"],
                       "failed", {"type": "RuntimeError", "message": str(exc)})
        return 1
    except (ConfigError, AdmissibilityError) as exc:
        _print_error("admissibility", exc)
        return 3
    write_manifest(tmp, config_hash(data), __version__, [seed], outputs, "ok", None)
    return 0


_TABLE_BUILDERS = {}


def _table(name):
    def deco(fn):
        _TABLE_BUILDERS[name] = fn
        return fn

    return deco


@_table("mdp_scaling_report.json")
def _mdp_tables(payload: dict, out_dir: str) -> list[str]:
    rows = payload["results"]["rows"]
    neg_rate = payload["results"].get("neg_rate")
    path = os.path.join(out_dir, "mdp_scaling.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epsilon", "p_hat", "lo", "hi", "a2_log_p", "neg_rate"])
        for r in rows:
            w.writerow(
                [r["epsilon"], r["p_hat"], r["lo"], r["hi"], r["a2_log_p"],
                 "" if neg_rate is None else neg_rate]
            )
    gp = os.path.join(out_dir, "mdp_scaling.gp")
    with open(gp, "w") as fh:
        fh.write(
            "set datafile separator ','\nset logscale x\n"
            "set xlabel 'epsilon'\nset ylabel 'a^2 log P'\n"
            "plot 'mdp_scaling.csv' using 1:5 skip 1 with linespoints title 'probe', \\\n"
            "     'mdp_scaling.csv' using 1:6 skip 1 with lines title 'minus rate'\n"
        )
    return ["mdp_scaling.csv", "mdp_scaling.gp"]


@_table("fw_report.json")
def _fw_tables(payload: dict, out_dir: str) -> list[str]:
    rows = payload["results"]["rows"]
    path = os.path.join(out_dir, "fw_probe.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epsilon", "p_hat", "lo", "hi", "upper_bound", "bound", "below_bound"])
        for r in rows:
            w.writerow([r["epsilon"], r["p_hat"], r["lo"], r["hi"],
                        r["upper_bound"], r["bound"], int(r["below_bound"])])
    return ["fw_probe.csv"]


@_table("moments_report.json")
def _moment_tables(payload: dict, out_dir: str) -> list[str]:
    rows = payload["results"]["rows"]
    path = os.path.join(out_dir, "moments.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["section", "epsilon", "p", "mean", "se"])
        for r in rows:
            w.writerow([r["section"], r["epsilon"], r["p"], r["mean"], r["se"]])
    fits = payload["results"]["fits"]
    fpath = os.path.join(out_dir, "moment_fits.csv")
    with open(fpath, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["section", "fitted_exponent", "stated_power", "implied_constant"])
        for section, entry in sorted(fits.items()):
            w.writerow(
                [section, entry.get("fitted_exponent"), entry.get("stated_power"),
                 entry.get("implied_constant")]
            )
    return ["moments.csv", "moment_fits.csv"]


@_table("strassen_report.json")
def _strassen_tables(payload: dict, out_dir: str) -> list[str]:
    rows = payload["results"]["rows"]
    path = os.path.join(out_dir, "strassen.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replicate", "j", "epsilon", "distance", "nearest", "within_tolerance"])
        for r in rows:
            w.writerow([r["replicate"], r["j"], r["epsilon"], r["distance"],
                        r["nearest"], int(r["within_tolerance"])])
    return ["strassen.csv"]


@_table("ratio_report.json")
def _ratio_tables(payload: dict, out_dir: str) -> list[str]:
    res = payload["results"]
    path = os.path.join(out_dir, "ratio.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replicate", "j", "epsilon", "ratio"])
        for r in res["rows"]:
            w.writerow([r["replicate"], r["j"], r["epsilon"], r["ratio"]])
    qpath = os.path.join(out_dir, "ratio_quantiles.csv")
    with open(qpath, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "epsilon", "q10", "q50", "q90", "mean"])
        for q in res["per_j_quantiles"]:
            w.writerow([q["j"], q["epsilon"], q["q10"], q["q50"], q["q90"], q["mean"]])
    gp = os.path.join(out_dir, "ratio.gp")
    with open(gp, "w") as fh:
        fh.write(
            "set datafile separator ','\nset xlabel 'j'\nset ylabel 'ratio'\n"
            "plot 'ratio_quantiles.csv' using 1:4 skip 1 with linespoints title 'median'\n"
        )
    return ["ratio.csv", "ratio_quantiles.csv", "ratio.gp"]


@_table("verify_report.json")
def _verify_tables(payload: dict, out_dir: str) -> list[str]:
    rows = payload["results"]["rows"]
    path = os.path.join(out_dir, "verify.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "passed", "value", "threshold", "detail"])
        for r in rows:
            w.writerow([r["name"], int(r["passed"]), r["value"], r["threshold"], r["detail"]])
    return ["verify.csv"]


def emit_tables(manifest_path: str) -> list[str]:
    """Flatten the reports referenced by a manifest into CSV/plot files."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    out_dir = os.path.dirname(os.path.abspath(manifest_path))
    produced: list[str] = []
    for entry in manifest.get("outputs", []):
        name = entry["path"]
        builder = _TABLE_BUILDERS.get(name)
        if builder is None:
            continue
        full = os.path.join(out_dir, name)
        if not os.path.exists(full):
            raise FileNotFoundError(f"report listed in manifest is missing: {name}")
        produced += builder(read_report(full), out_dir)
    if not produced:
        print("warning: manifest lists no tabulatable reports", file=sys.stderr)
    return produced


def cmd_emit_tables(args) -> int:
    try:
        produced = emit_tables(args.manifest)
    except FileNotFoundError as exc:
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


def _report_integration_error(exc: IntegrationError) -> dict:
    """Report a solver blow-up on stderr; returns the failed manifest's error entry."""
    _print_error("runtime", exc)
    return {"type": "IntegrationError", "message": str(exc), "step": exc.step}


def _print_error(stage: str, exc: Exception) -> None:
    payload = {"stage": stage, "type": type(exc).__name__, "message": str(exc)}
    offending = getattr(exc, "offending", None)
    if offending:
        payload["offending_keys"] = offending
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}", offending=[name]) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snse-lab",
        description="Spectral stochastic Navier-Stokes laboratory",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    env_seed = _env_int(ENV_SEED)
    env_workers = _env_int(ENV_WORKERS)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument(
            "--seed",
            type=int,
            default=env_seed,
            help="override the config seed",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=env_workers,
            help="worker processes for replicate-level fan-out",
        )
        p.add_argument("--out", default=None, help="override the output directory")

    p_run = sub.add_parser("run", help="run the configured experiment")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_emit = sub.add_parser("emit-tables", help="emit CSV tables from a manifest")
    p_emit.add_argument("--manifest", required=True, help="path to manifest.json")
    p_emit.set_defaults(fn=cmd_emit_tables)

    p_schema = sub.add_parser("print-config-schema", help="print schema and example")
    p_schema.add_argument("--kind", default="simulate", help="example experiment kind")
    p_schema.set_defaults(fn=cmd_print_schema)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
    except ConfigError as exc:
        _print_error("config", exc)
        return 2
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
