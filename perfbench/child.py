"""One measured run of the package in a fresh interpreter.

    python3 perfbench/child.py --config CFG --out DIR [--spans FILE] [--setup-only]

Set-up time runs from interpreter start through importing snse_lab, loading
and validating the config and building the grid, noise and sim objects.  Wall
time runs from dispatching `snse-lab run` in-process to the manifest being
written.  Peak RSS is this process's high-water mark.  With --spans, the
layers' public functions are wrapped and their spans written to FILE.  The
last line of stdout is one JSON object with the measurements.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    from snse_lab import cli
    from snse_lab.config import build_grid, build_noise, build_sim_config, load_config

    data = load_config(args.config)
    grid = build_grid(data)
    build_sim_config(data, grid, build_noise(data, grid))
    out = {"setup_s": time.perf_counter() - _T0}
    if not args.setup_only:
        tracer = None
        if args.spans:
            from spans import Tracer

            tracer = Tracer(run_id=os.path.basename(args.out))
            tracer.install()
        start = time.perf_counter()
        code = cli.main(
            ["run", "--config", args.config, "--out", args.out, "--workers", "1"]
        )
        end = time.perf_counter()
        if tracer is not None:
            tracer.write(args.spans, start, end)
        out.update(
            wall_s=end - start,
            exit_code=code,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
