"""Component registry and the declarative task config parser.

Components register under a (kind, name) pair with a typed field schema;
configs select components with single-key objects {"name": {params}} so the
chosen variant is always explicit. Defaults live on the schema, which makes
every default introspectable and keeps parsing code free of magic values.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional

from .errors import (DuplicateRegistration, MalformedDocument, SchemaViolation,
                     UnknownComponent)

KINDS = (
    "task",
    "featurizer",
    "data_handler",
    "model",
    "embedding",
    "representation",
    "decoder",
    "output",
    "optimizer",
    "trainer",
)

INT = "int"
FLOAT = "float"
BOOL = "bool"
STRING = "string"
LIST_INT = "list_int"
LIST_STRING = "list_string"
COMPONENT = "component"

_FIELD_TYPES = (INT, FLOAT, BOOL, STRING, LIST_INT, LIST_STRING, COMPONENT)

# sentinel: the field has no default and must appear in the config
REQUIRED = object()


@dataclass(frozen=True)
class Field:
    name: str
    ftype: str
    default: object = REQUIRED
    child_kind: str = ""     # COMPONENT only: the registry kind to pick from
    minimum: Optional[int] = None  # INT, FLOAT and LIST_INT (each item): smallest allowed value
    above: Optional[float] = None  # FLOAT only: the value must be greater
    below: Optional[float] = None  # FLOAT only: the value must be smaller
    distinct: bool = False   # LIST_INT only: no item may repeat
    nonempty: bool = False   # LIST_INT only: at least one item

    def __post_init__(self):
        if self.ftype not in _FIELD_TYPES:
            raise ValueError("unknown field type %r" % self.ftype)
        if self.ftype == COMPONENT and not self.child_kind:
            raise ValueError("component field %r needs child_kind" % self.name)


@dataclass(frozen=True)
class Registration:
    kind: str
    name: str
    schema: tuple

    def field_map(self):
        return {f.name: f for f in self.schema}


class Registry:
    """Immutable-after-startup catalog of (kind, name) -> Registration."""

    def __init__(self):
        self._table = {}

    def register(self, kind: str, name: str, schema) -> Registration:
        if kind not in KINDS:
            raise ValueError("unknown component kind %r" % kind)
        key = (kind, name)
        if key in self._table:
            raise DuplicateRegistration("component (%s, %s) already registered" % key)
        reg = Registration(kind, name, tuple(schema))
        self._table[key] = reg
        return reg

    def get(self, kind: str, name: str) -> Registration:
        try:
            return self._table[(kind, name)]
        except KeyError:
            raise UnknownComponent("no %s component named %r" % (kind, name))


GLOBAL = Registry()


def register_component(kind, name, schema):
    return GLOBAL.register(kind, name, schema)


@dataclass
class ComponentConfig:
    """A selected component plus its fully resolved parameter values."""
    kind: str
    name: str
    params: dict

    def child(self, field_name: str) -> "ComponentConfig":
        return self.params[field_name]


def _type_error(path, expected, value):
    return SchemaViolation("%s: expected %s, got %r" % (path, expected, value))


def _check_minimum(f: Field, values, path):
    if f.minimum is not None and any(v < f.minimum for v in values):
        raise SchemaViolation("%s: must be >= %d, got %r" % (path, f.minimum, min(values)))


def _check_float(f: Field, value, path):
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaViolation("%s: must be finite, got %r" % (path, value))
    _check_minimum(f, (value,), path)
    if f.above is not None and not value > f.above:
        raise SchemaViolation("%s: must be > %g, got %r" % (path, f.above, value))
    if f.below is not None and not value < f.below:
        raise SchemaViolation("%s: must be < %g, got %r" % (path, f.below, value))
    return value


def _check_scalar(f: Field, value, path):
    if f.ftype == INT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise _type_error(path, "int", value)
        _check_minimum(f, (value,), path)
        return value
    if f.ftype == FLOAT:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _type_error(path, "float", value)
        return _check_float(f, value, path)
    if f.ftype == BOOL:
        if not isinstance(value, bool):
            raise _type_error(path, "bool", value)
        return value
    if f.ftype == STRING:
        if not isinstance(value, str):
            raise _type_error(path, "string", value)
        return value
    if f.ftype == LIST_INT:
        if not isinstance(value, list) or any(isinstance(v, bool) or not isinstance(v, int)
                                              for v in value):
            raise _type_error(path, "list of int", value)
        if f.nonempty and not value:
            raise SchemaViolation("%s: needs at least one item, got []" % path)
        _check_minimum(f, value, path)
        if f.distinct and len(set(value)) < len(value):
            raise SchemaViolation("%s: items must differ, got %r" % (path, value))
        return list(value)
    if f.ftype == LIST_STRING:
        if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
            raise _type_error(path, "list of string", value)
        return list(value)
    raise AssertionError(f.ftype)


def _resolve_component(registry, kind, raw, path):
    """raw must be a single-key {"name": {params}} object."""
    if not isinstance(raw, dict) or len(raw) != 1:
        raise SchemaViolation("%s: component selection must be a single-key object" % path)
    (name, params), = raw.items()
    if not isinstance(params, dict):
        raise SchemaViolation("%s.%s: component params must be an object" % (path, name))
    reg = registry.get(kind, name)
    fields = reg.field_map()
    here = "%s.%s" % (path, name) if path else name

    unknown = set(params) - set(fields)
    if unknown:
        raise SchemaViolation("%s: unknown keys %s" % (here, sorted(unknown)))

    resolved = {}
    for f in reg.schema:
        if f.name in params:
            value = params[f.name]
        elif f.default is not REQUIRED:
            value = f.default
        else:
            raise SchemaViolation("%s: missing required field %r" % (here, f.name))
        if f.ftype == COMPONENT:
            resolved[f.name] = _resolve_component(registry, f.child_kind, value,
                                                  "%s.%s" % (here, f.name))
        else:
            resolved[f.name] = _check_scalar(f, value, "%s.%s" % (here, f.name))
    return ComponentConfig(kind, name, resolved)


def parse_task_config(text: str, registry: Registry = None) -> ComponentConfig:
    """Parse and validate a JSON task config document into the task's
    ComponentConfig, whose name is the task kind."""
    registry = registry or GLOBAL
    if not text or not text.strip():
        raise MalformedDocument("empty config document")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument("config is not valid JSON: %s" % exc)
    if not isinstance(doc, dict) or set(doc) != {"task"}:
        raise MalformedDocument("config root must be an object with the single key \"task\"")
    return _resolve_component(registry, "task", doc["task"], "task")


def _component_to_raw(cfg: ComponentConfig):
    params = {}
    for key, value in cfg.params.items():
        params[key] = _component_to_raw(value) if isinstance(value, ComponentConfig) else value
    return {cfg.name: params}


def serialize_task_config(config: ComponentConfig) -> str:
    """Canonical JSON for a task's ComponentConfig; parse(serialize(c)) == c."""
    doc = {"task": _component_to_raw(config)}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
