"""The in-package config checker against jsonschema, the reference JSON Schema
implementation: on mutated example configs of every kind both accept or
reject alike and name the same offending keys.  The one intended difference
is that an `integer` is a JSON integer literal, so 4.0 is not one."""

import copy
from collections import Counter

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from snse_lab.config import (
    CONFIG_SCHEMA,
    EXPERIMENT_KINDS,
    ConfigError,
    _schema_errors,
    example_config,
    validate_config,
)

PLAIN = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
LITERAL_INTEGERS = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, v: isinstance(v, int) and not isinstance(v, bool)
    ),
)(CONFIG_SCHEMA)

# values of every JSON type, bools beside the numbers they equal in Python
ODD_VALUES = [True, False, None, 0, 1, -1, 0.0, 2.5, 4.0, -0.5, "x", "zero", [], {},
              [1, 0], [1.0, 0], [1e-3], {"type": "zero"}]
EPSILON_GRIDS = [[1, 1.0], [1e-3, 1e-3], [True, 1], [True, True], [1e-4, 1e-3, 1e-4],
                 [0.5, False], [1e-3], []]
NEW_KEYS = ["bogus", "K1", "K3", "K9", "K12", "k1", "KK1", "K1\n", "kind", "type"]


def _offending(data) -> list[str]:
    try:
        validate_config(data)
    except ConfigError as exc:
        return sorted(exc.offending)
    return []


def _reference(validator, data) -> list[str]:
    return sorted("/".join(map(str, e.absolute_path)) or "<root>" for e in validator.iter_errors(data))


def _nodes(node, path=()):
    """(path, value) of every value below `node`, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _bounds(schema, path=()):
    """(path, bound, whether the path is an array of the bounded items) for
    every minimum and exclusiveMinimum of the schema."""
    for keyword in ("minimum", "exclusiveMinimum"):
        if keyword in schema:
            yield path, schema[keyword], False
    for name, sub in schema.get("properties", {}).items():
        yield from _bounds(sub, path + (name,))
    for sub in schema.get("patternProperties", {}).values():
        yield from _bounds(sub, path + ("K9",))
    if "items" in schema:
        for item_path, bound, _ in _bounds(schema["items"], path):
            yield item_path, bound, True


BOUNDS = list(_bounds(CONFIG_SCHEMA))


def _put(data, path, value):
    """Set `data` at `path`, making missing objects on the way; leave `data`
    as it is where a value of another type blocks the way."""
    node = data
    for key in path[:-1]:
        if isinstance(node, dict):
            node = node.setdefault(key, {})
        elif isinstance(node, list) and isinstance(key, int) and key < len(node):
            node = node[key]
        else:
            return
    key = path[-1]
    if isinstance(node, dict) or isinstance(node, list) and isinstance(key, int) and key < len(node):
        node[key] = value


def swap_type(data, draw):
    path, _ = draw(st.sampled_from(list(_nodes(data))))
    _put(data, path, copy.deepcopy(draw(st.sampled_from(ODD_VALUES))))


def out_of_range(data, draw):
    path, bound, array = draw(st.sampled_from(BOUNDS))
    value = draw(st.sampled_from([bound - 1, bound - 0.5, bound, float(bound), bound + 1]))
    _put(data, path, [value] if array else value)


def add_key(data, draw):
    objects = [()] + [path for path, value in _nodes(data) if isinstance(value, dict)]
    path = draw(st.sampled_from(objects))
    _put(data, path + (draw(st.sampled_from(NEW_KEYS)),), draw(st.sampled_from([1.0, 1, "x"])))


def drop_key(data, draw):
    *parent, key = draw(st.sampled_from([path for path, _ in _nodes(data)]))
    node = data
    for step in parent:
        node = node[step]
    del node[key]


def set_kind(data, draw):
    _put(data, ("experiment", "kind"), draw(st.sampled_from(EXPERIMENT_KINDS)))


def set_version(data, draw):
    _put(data, ("schema_version",), draw(st.sampled_from([True, False, 1.0, 1, 2, "1"])))


def set_epsilon_grid(data, draw):
    _put(data, ("experiment", "epsilon_grid"), copy.deepcopy(draw(st.sampled_from(EPSILON_GRIDS))))


MUTATIONS = [swap_type, out_of_range, add_key, drop_key, set_kind, set_version, set_epsilon_grid]


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(EXPERIMENT_KINDS), data=st.data())
def test_checker_agrees_with_jsonschema(kind, data):
    cfg = example_config(kind)
    for _ in range(data.draw(st.integers(1, 4))):
        data.draw(st.sampled_from(MUTATIONS))(cfg, data.draw)
    offending = _offending(cfg)
    assert offending == _reference(LITERAL_INTEGERS, cfg)
    # what the plain reference lets through is only integer-valued floats
    values = dict(_nodes(cfg))
    extra = Counter(offending) - Counter(_reference(PLAIN, cfg))
    for key in extra:
        value = values[tuple(int(p) if p.isdigit() else p for p in key.split("/"))]
        assert isinstance(value, float) and value.is_integer(), (key, value)


@pytest.mark.parametrize("change, offending", [
    ({"schema_version": True}, ["schema_version"]),
    ({"schema_version": 1.0}, []),
    ({"experiment": {"kind": "moments", "epsilon_grid": [1, 1.0]}}, ["experiment/epsilon_grid"]),
    ({"experiment": {"kind": "moments", "epsilon_grid": [1, True]}}, ["experiment/epsilon_grid/1"]),
], ids=["true-is-not-1", "1.0-is-1", "1-and-1.0-repeat", "true-and-1-differ"])
def test_json_equality(change, offending):
    cfg = example_config("simulate")
    cfg.update(change)
    assert _offending(cfg) == offending


@pytest.mark.parametrize("schema", [
    {"maximum": 3},
    {"type": "object", "properties": {"a": {"type": "integer", "maximum": 3}}},
    {"type": "array", "items": {"pattern": "^x"}},
    {"patternProperties": {"^K": {"multipleOf": 2}}},
    {"additionalProperties": {"type": "integer"}},
    {"allOf": [{"if": {"properties": {"k": {"const": 1}}}, "then": {"required": ["a"]},
                "else": {"required": ["b"]}}]},
], ids=["top", "unreached-property", "items", "pattern-property", "additional-schema", "else"])
def test_unknown_schema_keyword_raises(schema):
    # also where no instance value reaches the keyword: the schema cannot
    # outgrow the checker unnoticed
    with pytest.raises(NotImplementedError):
        _schema_errors(schema, {})
