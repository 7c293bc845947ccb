"""Guards on the package surface: what the benchmark's tracer looks up, the
exported names, the version, and no top-level definition in src/ that neither
the CLI nor the benchmark reaches."""

import ast
import importlib
import pathlib
import re

import snse_lab

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "snse_lab"

EXPORTED = {
    # spectral
    "SpectralGrid", "SpectralField", "NormBundle", "default_grid", "leray_project",
    "apply_stokes", "advection_term", "advection_form", "norm_bundle", "zero_field",
    "single_mode_field", "taylor_green", "random_solenoidal_field",
    # noise
    "NoiseModel", "SigmaParams", "Control", "wiener_increment", "verify_assumptions",
    "control_energy", "zero_control",
    # solvers
    "SimConfig", "Trajectory", "solve_deterministic", "solve_snse", "solve_skeleton",
    "IntegrationError",
    # deviation
    "ConstantsLedger", "OptParams", "RateResult", "FWConfig", "ASpec", "energy_distance",
    "rate_function", "mdp_scaling_probe", "fw_conditional_probe", "moment_bound_suite",
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


def _top_level_definitions() -> dict:
    """name -> [(module, node)] for every top-level function, class and
    assignment of the package (dunder names excluded)."""
    defs = {}
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
                    defs.setdefault(name, []).append((path.stem, node))
    return defs


def _reached(defs: dict, seeds) -> set:
    """Names of the definitions reached from the seeds, following every name
    and attribute a reached definition mentions."""
    reached, todo = set(), list(seeds)
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for _, node in defs[name]:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    todo.append(sub.id)
                elif isinstance(sub, ast.Attribute):
                    todo.append(sub.attr)
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
    defs = _top_level_definitions()
    seeds = {"main"} | {fn for fns in _tracer_targets().values() for fn in fns}
    unreached = sorted(
        f"{module}.{name}"
        for name in set(defs) - _reached(defs, seeds)
        for module, _ in defs[name]
    )
    assert not unreached, f"not reached from cli.main or the tracer targets: {unreached}"

