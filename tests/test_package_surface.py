"""Guards on the package surface: what the benchmark's tracer looks up, the
exported names, the version, the modules a run imports, and no top-level
definition, method or property in src/ that neither the CLI nor the benchmark
reaches."""

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import snse_lab
from snse_lab.cli import main
from snse_lab.config import example_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "snse_lab"

EXPORTED = {
    # spectral
    "SpectralGrid", "SpectralField", "NormBundle", "default_grid", "leray_project",
    "apply_stokes", "advection_term", "advection_form", "norm_bundle", "zero_field",
    "single_mode_field", "taylor_green", "random_solenoidal_field",
    # noise
    "NoiseModel", "SigmaParams", "Control", "verify_assumptions",
    "control_energy", "zero_control",
    # solvers
    "SimConfig", "Trajectory", "solve_deterministic", "solve_snse", "solve_skeleton",
    "IntegrationError",
    # deviation
    "ConstantsLedger", "OptParams", "RateResult", "FWConfig", "ASpec", "rate_function",
    "mdp_scaling_probe", "fw_conditional_probe", "moment_bound_suite",
    # lil
    "GeometricSchedule", "LimitSetProbe", "z_process", "limit_set_distance", "build_probe",
    "strassen_cluster_study", "classical_ratio_study",
}


def _tracer_targets() -> dict:
    """`TARGETS` of perfbench/spans.py, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions() -> tuple[dict, dict]:
    """(top, members), each name -> [(qualified name, node)]: every top-level
    function, class and assignment of the package, and every method and
    property of its classes (dunder names excluded from both)."""
    top, members = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("__"):
                    top.setdefault(name, []).append((f"{path.stem}.{name}", node))
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not _is_dunder(sub.name):
                        qualified = f"{path.stem}.{node.name}.{sub.name}"
                        members.setdefault(sub.name, []).append((qualified, sub))
    return top, members


def _mentions(node):
    """The AST nodes of a definition whose names and attributes it mentions.
    A class's methods and properties are definitions of their own, left out;
    its dunder methods count as part of it."""
    if not isinstance(node, ast.ClassDef):
        return ast.walk(node)
    parts = node.bases + node.keywords + node.decorator_list + [
        s for s in node.body if not isinstance(s, ast.FunctionDef) or _is_dunder(s.name)
    ]
    return (sub for part in parts for sub in ast.walk(part))


def _literal_lookup(node) -> bool:
    """Whether node is `getattr(x, "name", ...)` or `hasattr(x, "name")`."""
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("getattr", "hasattr")
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
    )


def _reached(top: dict, members: dict, seeds) -> set:
    """Qualified names of the definitions reached from the seeds.  A name or
    an attribute that a reached definition mentions reaches the top-level
    definitions of that name; an attribute, also one looked up by a literal
    `getattr`/`hasattr` name, reaches the members of that name too."""
    seen, todo, reached = set(), [(False, name) for name in seeds], set()
    while todo:
        item = todo.pop()
        if item in seen:
            continue
        seen.add(item)
        is_attribute, name = item
        for qualified, node in top.get(name, []) + (members.get(name, []) if is_attribute else []):
            reached.add(qualified)
            for sub in _mentions(node):
                if isinstance(sub, ast.Name):
                    todo.append((False, sub.id))
                elif isinstance(sub, ast.Attribute):
                    todo.append((True, sub.attr))
                elif _literal_lookup(sub):
                    todo.append((True, sub.args[1].value))
    return reached


def test_tracer_targets_resolve():
    # the benchmark's tracer looks every target up by name in its layer
    for layer, fns in _tracer_targets().items():
        module = importlib.import_module(f"snse_lab.{layer}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"snse_lab.{layer}.{fn}"


def test_exported_names():
    assert set(snse_lab.__all__) == EXPORTED


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match and match.group(1) == snse_lab.__version__


def test_every_definition_reached_from_cli_or_benchmark():
    # methods and properties too: a member only tests call belongs in tests/
    top, members = _definitions()
    seeds = {"main"} | {fn for fns in _tracer_targets().values() for fn in fns}
    every = {q for defs in (top, members) for entries in defs.values() for q, _ in entries}
    unreached = sorted(every - _reached(top, members, seeds))
    assert not unreached, f"not reached from cli.main or the tracer targets: {unreached}"


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter that imports the package from src/."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # only the rate kind's optimizer uses scipy; no other run pays for its
    # import, and no run imports jsonschema, a test-only dependency
    config = tmp_path / "config.json"
    config.write_text(json.dumps(example_config("simulate")))
    out = _run_python(
        "import sys, snse_lab.cli; from snse_lab.config import load_config; "
        "load_config(sys.argv[1]); "
        "print('scipy.optimize' in sys.modules, 'jsonschema' in sys.modules)",
        str(config),
    )
    assert out.stdout.strip() == "False False"


def test_run_needs_no_jsonschema(tmp_path):
    # with jsonschema's import blocked, the simulate example writes the same
    # report and trajectory bytes as a run in this process
    config = tmp_path / "config.json"
    config.write_text(json.dumps(example_config("simulate")))
    blocked, plain = tmp_path / "blocked", tmp_path / "plain"
    _run_python(
        "import sys; sys.modules['jsonschema'] = None; from snse_lab.cli import main; "
        "sys.exit(main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]))",
        str(config), str(blocked),
    )
    assert main(["run", "--config", str(config), "--out", str(plain)]) == 0
    written = sorted(p.name for p in plain.iterdir() if p.name != "manifest.json")
    assert written and sorted(p.name for p in blocked.iterdir()) == sorted(written + ["manifest.json"])
    for name in written:
        assert (blocked / name).read_bytes() == (plain / name).read_bytes(), name
