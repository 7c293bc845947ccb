"""snse-lab benchmark: end-to-end runs of three workloads and a per-layer trace.

    python3 perfbench/run.py --workload {fw-k10,rate-k4,lil-k10} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Load comes from this one process, which runs
the workload again and again, one fresh interpreter at a time, for S seconds
(at least once).  Each run calls `snse_lab.cli.main(["run", ...])` in-process
on the generated config with workers=1, and numpy/scipy thread pools are
capped at one thread.  Every run's report is checked (check.py).

--trace 0 reports the end-to-end metrics over the runs of the window:
    wall_s            dispatch of the config to the manifest being written,
                      mean over the runs
    path_steps_per_s  paths x solver steps advanced, divided by wall time,
                      both summed over the runs
    setup_s           fresh interpreter: import snse_lab, load and validate
                      the config, build grid, noise and sim objects; mean
                      over every run and at least five samples
    peak_rss_mb       high-water resident memory of a run's process, median
--trace 1 runs the kernel microbenchmarks (micro.py), then alternates
untraced and traced runs; the traced ones wrap every layer's public functions
(spans.py) and give per-layer call counts and self times.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
A record with samples and provenance goes to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import check
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD_TIMEOUT_S = 60
MIN_SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One thread per numpy/scipy pool, below the core count: with two, an idle
# BLAS thread spins on the second core during the optimizer's tiny calls
# (rate-k4 used 5.0 s of CPU in 2.7 s of wall time) and the runs spread more.
THREAD_CAP = 1


def scratch_dir(tag: str) -> str:
    path = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_child(script: str, args: list[str]) -> dict | None:
    """Run one benchmark child to completion; its last stdout line, or None."""
    env = dict(os.environ, **{var: str(THREAD_CAP) for var in THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, script), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{script}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{script}: exit {proc.returncode}\n{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def write_config(name: str, seed: int, workdir: str) -> tuple[dict, str]:
    config = workloads.make_config(name, seed, os.path.join(workdir, "out"))
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return config, path


def run_once(name: str, seed: int, workdir: str, traced: bool = False) -> dict:
    """One run of workload `name` in a fresh interpreter, with its report."""
    config, config_path = write_config(name, seed, workdir)
    out_dir = config["output"]["dir"]
    shutil.rmtree(out_dir, ignore_errors=True)
    args = ["--config", config_path, "--out", out_dir]
    span_path = os.path.join(workdir, "spans.json")
    if traced:
        args += ["--spans", span_path]
    measured = run_child("child.py", args)
    report = manifest = span_record = None
    if measured is not None and measured["exit_code"] == 0:
        manifest = read_json(os.path.join(out_dir, "manifest.json"))
        report = read_json(os.path.join(out_dir, manifest["outputs"][0]["path"]))
        if traced:
            span_record = read_json(span_path)
    return {
        "config": config,
        "measured": measured,
        "manifest": manifest,
        "report": report,
        "spans": span_record,
    }


def problems_of(name: str, run: dict, reference: dict) -> list[str]:
    if run["measured"] is None:
        return ["run crashed or timed out"]
    if run["measured"]["exit_code"] != 0:
        return [f"snse-lab run exited with {run['measured']['exit_code']}"]
    if run["manifest"]["status"] != "ok":
        return [f"manifest status {run['manifest']['status']!r}"]
    return check.check_report(name, run["config"], run["report"], reference)


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def listed_units(traced: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    doc = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if traced else "end_to_end"]}


def provenance(name: str, seed: int) -> dict:
    caches = {}
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10)
        for line in conf.stdout.splitlines():
            key, _, value = line.partition(" ")
            if key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
                caches[key.lower()] = int(value) if value.strip().isdigit() else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    try:
        sha = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    l3 = caches.get("level3_cache_size")
    # (256 paths, 2 components, 32 x 32 grid of K=10) complex128 values
    ws_mb = workloads.FW_SAMPLES * 2 * 32 * 32 * 16 / 1e6
    fits = f"fits in the {l3 / 2**20:.0f} MiB L3" if l3 and l3 > ws_mb * 1e6 else "vs L3 size unknown"
    return {
        "workload": name,
        "seed": seed,
        "program_seed": workloads.program_seed(seed),
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {var: THREAD_CAP for var in THREAD_VARS},
        "caches_bytes": caches,
        "kernel_note": (
            f"K=10 batch-256 complex physical-space array {ws_mb:.1f} MB {fits}: "
            "microbenchmarks are in-cache timings, not bandwidth figures"
        ),
    }


def measure(name: str, seed: int, seconds: float, traced: bool, reference: dict) -> dict:
    """Run the workload for `seconds`; returns samples, failures and metrics."""
    runs, problems = [], []
    workdir = scratch_dir(name)
    _, config_path = write_config(name, seed, workdir)
    setup_args = ["--config", config_path, "--out", "unused", "--setup-only"]
    # untimed: byte-compiles the package and warms the file cache
    if run_child("child.py", setup_args) is None:
        raise RuntimeError("set-up run failed")
    micro = run_child("micro.py", ["--seed", str(seed)]) if traced else {}
    if micro is None:
        raise RuntimeError("kernel microbenchmarks failed")
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        for is_traced in ((False, True) if traced else (False,)):
            run = run_once(name, seed, workdir, traced=is_traced)
            bad = problems_of(name, run, reference)
            problems += bad
            runs.append({"traced": is_traced, "ok": not bad, **(run["measured"] or {}),
                         "report": run["report"], "spans": run["spans"],
                         "path_steps": workloads.path_steps(run["config"], run["report"]["results"])
                         if run["report"] else None})
    good = [r for r in runs if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    setups = [r["setup_s"] for r in runs if "setup_s" in r]
    metrics = {}
    if traced:
        layers = [spans.layer_metrics(r["spans"]) for r in good if r["traced"]]
        if layers and plain:
            metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
            walls = [r["wall_s"] for r in good if r["traced"]]
            metrics["trace.overhead_frac"] = statistics.median(walls) / median_of(plain, "wall_s") - 1
            metrics.update(micro)
    elif plain:
        while len(setups) < MIN_SETUP_SAMPLES:
            sample = run_child("child.py", setup_args)
            if sample is None:
                raise RuntimeError("set-up run failed")
            setups.append(sample["setup_s"])
        # Timings are averaged over the window: this machine's speed flips
        # between two levels, so a median of a few runs jumps between them.
        wall = sum(r["wall_s"] for r in plain)
        metrics = {
            "wall_s": wall / len(plain),
            "path_steps_per_s": sum(r["path_steps"] for r in plain) / wall,
            "setup_s": statistics.fmean(setups),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        }
    for r in runs:
        r.pop("report")
        r.pop("spans")
    return {"runs": runs, "setup_samples": setups, "problems": problems, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="snse-lab benchmark")
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "snse_lab", "cli.py")):
        print(f"perfbench: no snse_lab source under {ROOT}/src", file=sys.stderr)
        return 2
    units = listed_units(bool(args.trace))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), check.load_reference())
    shutil.rmtree(os.path.join(OUT, "work"), ignore_errors=True)
    attempted = len(result["runs"])
    failed = sum(not r["ok"] for r in result["runs"])
    if not result["metrics"]:
        print("perfbench: no run passed its output check", file=sys.stderr)
        for line in result["problems"]:
            print(f"  {line}", file=sys.stderr)
        return 1
    if set(result["metrics"]) != set(units):
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ set(units))}", file=sys.stderr)
        return 1
    prov = provenance(args.workload, args.seed)
    record = {"provenance": prov, "trace": args.trace, "seconds": args.seconds, **result}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for line in result["problems"]:
        print(f"output check failed: {line}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"error_rate {failed / attempted:.4f} fraction ({failed} of {attempted} runs failed)")
    for key, value in result["metrics"].items():
        print(f"{key} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
