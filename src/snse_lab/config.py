"""Experiment configuration: schema, validation, hashing, object builders.

Configs are JSON documents with a versioned schema.  The config hash is the
SHA-256 of the canonical JSON with the output block removed, so it is stable
under key reordering and independent of where results are written.
"""

from __future__ import annotations

import copy
import hashlib
import json
import re
from dataclasses import dataclass

import numpy as np

from .deviation import (
    AdmissibilityError,
    ASpec,
    ConstantsLedger,
    FWConfig,
    OptParams,
    _dyadic_cell_records,
)
from .lil import GeometricSchedule
from .noise import Control, NoiseModel, SigmaParams
from .rng import substream
from .solvers import SimConfig, _RecordingGrid
from .spectral import (
    SpectralField,
    SpectralGrid,
    random_solenoidal_field,
    single_mode_field,
    taylor_green,
    zero_field,
)

SCHEMA_VERSION = 1

EXPERIMENT_KINDS = [
    "simulate",
    "skeleton",
    "rate",
    "mdp-scaling",
    "fw-probe",
    "moments",
    "lil-strassen",
    "lil-classical",
    "verify",
]

_FIELD_SPEC_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"enum": ["zero", "single_mode", "taylor_green", "random"]},
        "k": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
        "amplitude": {"type": "number"},
        "seed": {"type": "integer"},
        "decay": {"type": "number"},
    },
    "required": ["type"],
    "additionalProperties": False,
}

# experiment keys that a kind reads without a default
_KIND_REQUIRED = {
    "mdp-scaling": ["radius", "epsilon_grid"],
    "fw-probe": ["rho", "eta", "target_exponent", "epsilon_grid"],
    "moments": ["epsilon_grid"],
}

_CONTROL_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"enum": ["zero", "single_direction", "random"]},
        "direction": {"type": "integer", "minimum": 0},
        "amplitude": {"type": "number"},
        "cells": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
    },
    "required": ["type"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "grid": {
            "type": "object",
            "properties": {
                "max_wavenumber": {"type": "integer", "minimum": 1},
                "physical_resolution": {"type": "integer", "minimum": 4},
            },
            "required": ["max_wavenumber"],
            "additionalProperties": False,
        },
        "solver": {
            "type": "object",
            "properties": {
                "horizon": {"type": "number", "minimum": 0},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "epsilon": {"type": "number", "minimum": 0},
                "nonlinear": {"type": "boolean"},
                "record_stride": {"type": "integer", "minimum": 1},
                "initial": _FIELD_SPEC_SCHEMA,
                "forcing": _FIELD_SPEC_SCHEMA,
            },
            "required": ["horizon", "dt"],
            "additionalProperties": False,
        },
        "noise": {
            "type": "object",
            "properties": {
                "spectrum_exponent": {"type": "number", "exclusiveMinimum": 0.5},
                "num_directions": {"type": ["integer", "null"], "minimum": 1},
                "family": {"enum": ["additive", "saturated"]},
                "amplitude": {"type": "number", "exclusiveMinimum": 0},
                "gain_decay": {"type": "number"},
                "saturation_scale": {"type": "number", "exclusiveMinimum": 0},
                "smoothing_delta": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "constants": {
            "type": "object",
            "patternProperties": {"^K[129]$": {"type": "number", "exclusiveMinimum": 0}},
            "additionalProperties": False,
        },
        "experiment": {
            "type": "object",
            "properties": {
                "kind": {"enum": EXPERIMENT_KINDS},
                "epsilon_grid": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                    "uniqueItems": True,
                },
                "samples": {"type": "integer", "minimum": 1},
                "radius": {"type": "number", "minimum": 0},
                "a_spec": {
                    "type": "object",
                    "properties": {
                        "kind": {"enum": ["lil", "power"]},
                        "theta": {"type": "number"},
                    },
                    "required": ["kind"],
                    "additionalProperties": False,
                },
                "control": _CONTROL_SCHEMA,
                "target_control": _CONTROL_SCHEMA,
                "rho": {"type": "number", "exclusiveMinimum": 0},
                "eta": {"type": "number", "exclusiveMinimum": 0},
                "target_exponent": {"type": "number", "exclusiveMinimum": 0},
                "increment_threshold": {"type": "number", "exclusiveMinimum": 0},
                "dyadic_depth": {"type": "integer", "minimum": 0},
                "p_list": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 1},
                },
                "schedule_base": {"type": "number", "exclusiveMinimum": 1},
                "j_min": {"type": "integer", "minimum": 1},
                "j_max": {"type": "integer", "minimum": 1},
                "replicates": {"type": "integer", "minimum": 1},
                "probe_shapes": {"type": "integer", "minimum": 1},
                "probe_directions": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                },
                "tolerance": {"type": "number", "exclusiveMinimum": 0},
                "feasibility_tol": {"type": "number", "exclusiveMinimum": 0},
                "energy_cap": {"type": "number", "exclusiveMinimum": 0},
                "with_remainder": {"type": "boolean"},
            },
            "required": ["kind"],
            "allOf": [
                {"if": {"properties": {"kind": {"const": kind}}}, "then": {"required": keys}}
                for kind, keys in _KIND_REQUIRED.items()
            ],
            "additionalProperties": False,
        },
        "seed": {"type": "integer", "minimum": 0},
        "workers": {"type": "integer", "minimum": 1},
        "output": {
            "type": "object",
            "properties": {"dir": {"type": "string"}},
            "additionalProperties": False,
        },
    },
    "required": ["schema_version", "grid", "solver", "experiment"],
    "additionalProperties": False,
}


class ConfigError(ValueError):
    def __init__(self, message: str, offending: list[str] | None = None):
        super().__init__(message)
        self.offending = offending or []


# ---------------------------------------------------------------------------
# schema checking: the JSON Schema keywords CONFIG_SCHEMA uses, nothing more

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    # a JSON integer literal only: 4.0 is a number but not an integer
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
}

_KEYWORDS = {
    "$schema", "type", "enum", "const", "minimum", "exclusiveMinimum", "minItems",
    "maxItems", "uniqueItems", "items", "properties", "patternProperties",
    "additionalProperties", "required", "allOf", "if", "then",
}


def _json_key(value):
    """A hashable stand-in for a JSON value under JSON equality: true and
    false are not 1 and 0, while 1 and 1.0 are the same number."""
    if isinstance(value, bool):
        return ("boolean", value)
    if isinstance(value, list):
        return ("array", tuple(map(_json_key, value)))
    if isinstance(value, dict):
        return ("object", frozenset((k, _json_key(v)) for k, v in value.items()))
    return value


def _require_known_keywords(schema: dict) -> None:
    """Raise NotImplementedError if `schema` or any schema nested in it uses
    a keyword `_violations` does not check, or an additionalProperties other
    than false."""
    unknown = schema.keys() - _KEYWORDS
    if schema.get("additionalProperties", False) is not False:
        unknown.add("additionalProperties")
    if unknown:
        raise NotImplementedError(f"the config checker lacks schema keywords {sorted(unknown)}")
    nested = [*schema.get("properties", {}).values(), *schema.get("patternProperties", {}).values(),
              *schema.get("allOf", []), *(schema[k] for k in ("items", "if", "then") if k in schema)]
    for sub in nested:
        _require_known_keywords(sub)


def _violations(schema: dict, value, path: tuple):
    """(instance path, message) for each way `value` breaks `schema`, in the
    schema's keyword order; `required` and `additionalProperties` errors sit
    at the object, as in a standard JSON Schema validator."""
    number = _TYPE_CHECKS["number"](value)
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    for keyword, arg in schema.items():
        if keyword == "type":
            types = [arg] if isinstance(arg, str) else arg
            if not any(_TYPE_CHECKS[t](value) for t in types):
                yield path, f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif keyword == "enum":
            if _json_key(value) not in map(_json_key, arg):
                yield path, f"{value!r} is not one of {arg!r}"
        elif keyword == "const":
            if _json_key(value) != _json_key(arg):
                yield path, f"{arg!r} was expected"
        elif keyword == "minimum":
            if number and value < arg:
                yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif keyword == "exclusiveMinimum":
            if number and value <= arg:
                yield path, f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif keyword == "minItems":
            if is_array and len(value) < arg:
                yield path, f"{value!r} is too short"
        elif keyword == "maxItems":
            if is_array and len(value) > arg:
                yield path, f"{value!r} is too long"
        elif keyword == "uniqueItems":
            if arg and is_array and len(set(map(_json_key, value))) < len(value):
                yield path, f"{value!r} has non-unique elements"
        elif keyword == "items":
            if is_array:
                for i, item in enumerate(value):
                    yield from _violations(arg, item, path + (i,))
        elif keyword == "properties":
            if is_object:
                for name, sub in arg.items():
                    if name in value:
                        yield from _violations(sub, value[name], path + (name,))
        elif keyword == "patternProperties":
            if is_object:
                for pattern, sub in arg.items():
                    for name, item in value.items():
                        if re.search(pattern, name):
                            yield from _violations(sub, item, path + (name,))
        elif keyword == "additionalProperties":
            if is_object:
                patterns = schema.get("patternProperties", {})
                extras = sorted(
                    name for name in value if name not in schema.get("properties", {})
                    and not any(re.search(pattern, name) for pattern in patterns)
                )
                if extras:
                    yield path, f"unexpected properties {', '.join(map(repr, extras))}"
        elif keyword == "required":
            if is_object:
                for name in arg:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
        elif keyword == "allOf":
            for sub in arg:
                yield from _violations(sub, value, path)
        elif keyword == "if":
            if "then" in schema and next(_violations(arg, value, path), None) is None:
                yield from _violations(schema["then"], value, path)


def _schema_errors(schema: dict, data) -> list[tuple[tuple, str]]:
    """`_violations` of `data` against `schema`, sorted by path (stably, so
    errors at one path keep the schema's order)."""
    _require_known_keywords(schema)
    return sorted(_violations(schema, data, ()), key=lambda e: e[0])


def validate_config(data: dict) -> None:
    """Check `data` against CONFIG_SCHEMA in-package, with JSON Schema
    (draft 2020-12) semantics for the keywords the schema uses and JSON
    equality in `enum`, `const` and `uniqueItems` (true is not 1; 1 and 1.0
    are one value).  The one difference from the standard: an `integer` is
    a JSON integer literal, so 4.0 is rejected where an integer is asked
    for.  Raises ConfigError naming each offending key ("grid/max_wavenumber";
    a missing or unexpected key names its object), sorted by path."""
    errors = _schema_errors(CONFIG_SCHEMA, data)
    if errors:
        keys = ["/".join(map(str, path)) or "<root>" for path, _ in errors]
        details = "; ".join(f"{k}: {message}" for k, (_, message) in zip(keys, errors))
        raise ConfigError(f"config schema violation: {details}", offending=keys)


def config_hash(data: dict) -> str:
    """SHA-256 of the canonical config, excluding the output block."""
    stripped = copy.deepcopy(data)
    stripped.pop("output", None)
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_config(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    validate_config(data)
    return data


# ---------------------------------------------------------------------------
# builders


def build_grid(data: dict) -> SpectralGrid:
    g = data["grid"]
    K = g["max_wavenumber"]
    if "physical_resolution" in g:
        return SpectralGrid(K, g["physical_resolution"])
    from .spectral import default_grid

    return default_grid(K)


def build_noise(data: dict, grid: SpectralGrid) -> NoiseModel:
    n = data.get("noise", {})
    params = SigmaParams(
        amplitude=n.get("amplitude", 1.0),
        gain_decay=n.get("gain_decay", 0.0),
        saturation_scale=n.get("saturation_scale", 1.0),
        smoothing_delta=n.get("smoothing_delta", 0.1),
    )
    return NoiseModel(
        grid=grid,
        spectrum_exponent=n.get("spectrum_exponent", 2.0),
        num_directions=n.get("num_directions"),
        family=n.get("family", "additive"),
        params=params,
    )


def build_field(spec: dict | None, grid: SpectralGrid) -> SpectralField | None:
    if spec is None:
        return None
    kind = spec["type"]
    if kind == "zero":
        return zero_field(grid)
    if kind == "single_mode":
        k = tuple(spec.get("k", (1, 0)))
        amp = spec.get("amplitude", 1.0)
        return single_mode_field(grid, k, (0.0, amp) if k[1] == 0 else (amp, 0.0))
    if kind == "taylor_green":
        return taylor_green(grid, spec.get("amplitude", 1.0))
    if kind == "random":
        rng = substream(spec.get("seed", 0), 9)
        return random_solenoidal_field(
            grid, rng, amplitude=spec.get("amplitude", 1.0), decay=spec.get("decay", 2.0)
        )
    raise ConfigError(f"unknown field type {kind!r}")


def build_sim_config(data: dict, grid: SpectralGrid, noise: NoiseModel) -> SimConfig:
    s = data["solver"]
    return SimConfig(
        grid=grid,
        noise=noise,
        horizon=s["horizon"],
        dt=s["dt"],
        epsilon=s.get("epsilon", 0.0),
        initial=build_field(s.get("initial"), grid),
        forcing=build_field(s.get("forcing"), grid),
        nonlinear=s.get("nonlinear", True),
        record_stride=s.get("record_stride", 1),
    )


def build_ledger(data: dict) -> ConstantsLedger:
    c = data.get("constants", {})
    return ConstantsLedger(**{k: float(v) for k, v in c.items()})


def build_control(spec: dict | None, model: NoiseModel, config: SimConfig) -> Control:
    from .noise import zero_control

    cells = max(config.n_steps, 1)
    if spec is None or spec["type"] == "zero":
        return zero_control(model, config.horizon, spec.get("cells", cells) if spec else cells)
    cells = spec.get("cells", cells)
    values = np.zeros((cells, model.n_directions))
    if spec["type"] == "single_direction":
        j = spec.get("direction", 0)
        if j >= model.n_directions:
            raise ConfigError(f"control direction {j} out of range")
        values[:, j] = spec.get("amplitude", 1.0)
    elif spec["type"] == "random":
        rng = substream(spec.get("seed", 0), 11)
        values = spec.get("amplitude", 1.0) * rng.standard_normal(
            (cells, model.n_directions)
        )
    return Control(model, config.horizon, values)


def build_opt_params(exp: dict) -> OptParams:
    kwargs = {}
    if "feasibility_tol" in exp:
        kwargs["feasibility_tol"] = exp["feasibility_tol"]
    if "energy_cap" in exp:
        kwargs["energy_cap"] = exp["energy_cap"]
    return OptParams(**kwargs)


def build_a_spec(exp: dict) -> ASpec:
    spec = exp.get("a_spec", {"kind": "lil"})
    return ASpec(kind=spec["kind"], theta=spec.get("theta", 0.25))


def build_fw_config(exp: dict) -> FWConfig:
    return FWConfig(
        rho=exp["rho"],
        eta=exp["eta"],
        target_exponent=exp["target_exponent"],
        increment_threshold=exp.get("increment_threshold", 1.0),
        dyadic_depth=exp.get("dyadic_depth", 2),
        eps_grid=tuple(exp["epsilon_grid"]),
        n_samples=exp.get("samples", 1000),
    )


def build_schedule(exp: dict) -> GeometricSchedule:
    return GeometricSchedule(
        base=exp.get("schedule_base", 2.0),
        j_min=exp.get("j_min", 7),
        j_max=exp.get("j_max", 10),
    )


def example_config(kind: str = "simulate") -> dict:
    """A small, valid starting config for the given experiment kind."""
    base = {
        "schema_version": SCHEMA_VERSION,
        "grid": {"max_wavenumber": 4},
        "solver": {
            "horizon": 0.25,
            "dt": 1e-3,
            "epsilon": 1e-3,
            "nonlinear": False,
            "record_stride": 10,
            "initial": {"type": "single_mode", "k": [1, 0], "amplitude": 1.0},
        },
        "noise": {"family": "additive", "spectrum_exponent": 2.0, "amplitude": 1.0},
        "constants": {"K1": 1.0, "K2": 1.0, "K9": 1.0},
        "experiment": {"kind": kind},
        "seed": 12345,
        "workers": 1,
        "output": {"dir": "out"},
    }
    exp = base["experiment"]
    if kind in ("rate", "skeleton", "lil-strassen"):
        # a deterministic limit around which the linearization couples: along
        # the first noise directions, B(x, u0) + B(u0, x) of the single mode
        # k = (1, 0) is a gradient, so the nonlinear skeleton would equal
        # the linear one
        base["solver"]["initial"] = {"type": "random", "seed": 1, "amplitude": 1.0}
    if kind == "rate":
        base["solver"].update({"horizon": 0.1, "dt": 2e-3, "record_stride": 1})
        base["noise"]["num_directions"] = 2
        exp["target_control"] = {"type": "single_direction", "direction": 0, "amplitude": 0.5}
        exp["feasibility_tol"] = 1e-6
    elif kind == "mdp-scaling":
        exp.update(
            {
                "radius": 1.0,
                "epsilon_grid": [1e-5, 1e-4, 1e-3],
                "samples": 400,
                "a_spec": {"kind": "lil"},
            }
        )
    elif kind == "fw-probe":
        # recorded steps (horizon / (dt * stride)) must be divisible by the
        # dyadic cell count 2^depth
        base["solver"].update({"horizon": 0.256, "record_stride": 8})
        exp.update(
            {
                "rho": 2.0,
                "eta": 10.0,
                "target_exponent": 0.5,
                "increment_threshold": 1.0,
                "dyadic_depth": 2,
                "epsilon_grid": [1e-5, 1e-4, 1e-3],
                "samples": 400,
                "control": {"type": "zero"},
            }
        )
    elif kind == "moments":
        exp.update({"epsilon_grid": [1e-4, 1e-3], "samples": 200, "p_list": [1.0, 2.0]})
    elif kind == "lil-strassen":
        exp.update(
            {
                "schedule_base": 2.0,
                "j_min": 7,
                "j_max": 10,
                "replicates": 4,
                "probe_shapes": 2,
                "probe_directions": [0, 1],
                "tolerance": 1.0,
            }
        )
    elif kind == "lil-classical":
        exp.update({"schedule_base": 2.0, "j_min": 7, "j_max": 10, "replicates": 4})
    elif kind == "skeleton":
        exp["control"] = {"type": "single_direction", "direction": 0, "amplitude": 1.0}
    validate_config(base)
    return base


def _built(offending: str, build, *args):
    """`build(*args)`, any ValueError it raises re-raised as a ConfigError
    naming the config key `offending`."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(str(exc), offending=[offending]) from None


@dataclass(frozen=True)
class AdmittedRun:
    """What `admissibility_check` built and checked: the run's SimConfig (its
    grid and noise model included) and the experiment objects its kind reads,
    None for every other kind."""

    sim: SimConfig
    schedule: GeometricSchedule | None = None
    fw: FWConfig | None = None
    a_spec: ASpec | None = None


def admissibility_check(data: dict, ledger: ConstantsLedger) -> AdmittedRun:
    """The run's SimConfig and experiment objects, each built once, after the
    cross-field rules hold: the grid, noise and solver sections build, a
    nonlinear run has the product margin N >= 3K + 1, the conditional probe's
    dyadic cells tile its recording grid, a power-law a(eps) has theta in
    (0, 1/2), the cluster study's probe directions are directions of the
    noise model, and every epsilon grid and the largest intensity of a LIL
    schedule pass `ledger.require`.  Any violation raises ConfigError."""
    exp = data["experiment"]
    kind = exp["kind"]
    grid = _built("grid", build_grid, data)
    noise = _built("noise", build_noise, data, grid)
    sim = _built("solver", build_sim_config, data, grid, noise)
    schedule = fw = a_spec = None
    if sim.nonlinear and not grid.supports_products():
        K, N = grid.max_wavenumber, grid.physical_resolution
        raise ConfigError(
            f"physical_resolution {N} < 3K + 1 = {3 * K + 1}: the products of a "
            "nonlinear run would alias onto the retained modes",
            offending=["grid/physical_resolution"],
        )
    if kind == "fw-probe":
        fw = build_fw_config(exp)
        steps = _RecordingGrid(sim.n_steps, sim.record_stride).steps
        _built("experiment/dyadic_depth", _dyadic_cell_records, sim.dt * np.array(steps),
               fw.dyadic_depth)
    if kind in ("lil-strassen", "lil-classical"):
        schedule = _built("experiment/j_min", build_schedule, exp)
        try:
            ledger.require([schedule.epsilon(schedule.j_min)])
        except AdmissibilityError as exc:
            raise ConfigError(
                f"schedule start j_min={schedule.j_min}: {exc}", offending=["experiment/j_min"]
            ) from None
    if kind == "lil-strassen":
        bad = [j for j in exp.get("probe_directions", []) if j >= noise.n_directions]
        if bad:
            raise ConfigError(
                f"probe directions {bad} out of range for {noise.n_directions} noise directions",
                offending=["experiment/probe_directions"],
            )
    if kind == "mdp-scaling":
        a_spec = _built("experiment/a_spec/theta", build_a_spec, exp)
    if kind in ("mdp-scaling", "fw-probe", "moments"):
        p_list = exp.get("p_list", []) if kind == "moments" else []
        _built("experiment/epsilon_grid", ledger.require, exp.get("epsilon_grid", []), p_list)
    return AdmittedRun(sim, schedule, fw, a_spec)
