"""The component schema table and the declarative task config parser.

SCHEMAS maps each component kind to its components' typed field schemas;
configs select components with single-key objects {"name": {params}} so the
chosen variant is always explicit. Defaults live on the schema, which makes
every default introspectable and keeps parsing code free of magic values.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional

from .errors import MalformedDocument, SchemaViolation, UnknownComponent

DOC_TASK = "doc_classification"
WORD_TASK = "word_tagging"
JOINT_TASK = "joint_doc_word"

# the joint model's head for each task it predicts, which is also the kind
# of labels that task predicts
JOINT_HEADS = {DOC_TASK: "doc", WORD_TASK: "word"}

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

# max_chars must be below it: each batch and graph request holds max_chars char
# ids per token, so an unbounded width can ask for terabytes of memory
MAX_CHARS = 1024

# model sizes (dims, filter counts and widths, layer counts) must be below it:
# parameters are drawn at these sizes, and it is far above what small models use
MAX_SIZE = 1 << 14


@dataclass(frozen=True)
class Field:
    name: str
    ftype: str
    default: object = REQUIRED
    child_kind: str = ""     # COMPONENT only: the SCHEMAS kind to pick from
    minimum: Optional[int] = None  # INT, FLOAT and LIST_INT (each item): smallest allowed value
    above: Optional[float] = None  # FLOAT only: the value must be greater
    below: Optional[float] = None  # INT, FLOAT and LIST_INT (each item): must be smaller
    distinct: bool = False   # LIST_INT only: no item may repeat
    nonempty: bool = False   # LIST_INT only: at least one item

    def __post_init__(self):
        if self.ftype not in _FIELD_TYPES:
            raise ValueError("unknown field type %r" % self.ftype)
        if self.ftype == COMPONENT and not self.child_kind:
            raise ValueError("component field %r needs child_kind" % self.name)


_TASK_FIELDS = (
    Field("featurizer", COMPONENT, default={"basic": {}}, child_kind="featurizer"),
    Field("data", COMPONENT, child_kind="data_handler"),
    Field("model", COMPONENT, child_kind="model"),
    Field("optimizer", COMPONENT, default={"adam": {}}, child_kind="optimizer"),
    Field("trainer", COMPONENT, default={"standard": {}}, child_kind="trainer"),
)

# kind -> component name -> the component's fields, in resolution order
SCHEMAS = {
    "task": {DOC_TASK: _TASK_FIELDS, WORD_TASK: _TASK_FIELDS, JOINT_TASK: _TASK_FIELDS},
    "featurizer": {
        "basic": (
            Field("lowercase", BOOL, default=True),
            Field("max_chars", INT, default=20, minimum=1, below=MAX_CHARS),
        ),
    },
    "data_handler": {
        "tsv": (
            Field("train_path", STRING),
            Field("eval_path", STRING),
            Field("batch_size", INT, default=16, minimum=1),
            Field("min_freq", INT, default=1, minimum=1),
        ),
        "tsv_pair": (
            Field("train_paths", LIST_STRING),
            Field("eval_paths", LIST_STRING),
            Field("batch_size", INT, default=16, minimum=1),
            Field("min_freq", INT, default=1, minimum=1),
        ),
    },
    "model": {
        "single": (
            Field("embedding", COMPONENT, default={"token": {}}, child_kind="embedding"),
            Field("representation", COMPONENT, child_kind="representation"),
            Field("decoder", COMPONENT, default={"mlp": {}}, child_kind="decoder"),
            Field("output", COMPONENT, child_kind="output"),
        ),
        "joint": (
            Field("embedding", COMPONENT, default={"token": {}}, child_kind="embedding"),
            Field("doc_representation", COMPONENT, default={"bilstm_attn": {}},
                  child_kind="representation"),
            Field("word_representation", COMPONENT, default={"bilstm_tagger": {}},
                  child_kind="representation"),
            Field("doc_decoder", COMPONENT, default={"mlp": {}}, child_kind="decoder"),
            Field("word_decoder", COMPONENT, default={"mlp": {}}, child_kind="decoder"),
            Field("doc_loss_weight", FLOAT, default=1.0, minimum=0),
            Field("word_loss_weight", FLOAT, default=1.0, minimum=0),
        ),
    },
    "embedding": {
        "token": (
            Field("word_dim", INT, default=64, minimum=0, below=MAX_SIZE),
            Field("pretrained_path", STRING, default=""),
            Field("char_dim", INT, default=0, minimum=0, below=MAX_SIZE),
            Field("char_filter_widths", LIST_INT, default=[3], minimum=1, below=MAX_SIZE,
                  distinct=True, nonempty=True),
            Field("char_num_filters", INT, default=16, minimum=1, below=MAX_SIZE),
            Field("char_highway_layers", INT, default=1, minimum=0, below=MAX_SIZE),
            Field("gaz_dim", INT, default=0, minimum=0, below=MAX_SIZE),
            Field("cap_dim", INT, default=0, minimum=0, below=MAX_SIZE),
        ),
    },
    "representation": {
        "docnn": (
            Field("filter_widths", LIST_INT, default=[3, 4, 5], minimum=1, below=MAX_SIZE,
                  distinct=True, nonempty=True),
            Field("num_filters", INT, default=100, minimum=1, below=MAX_SIZE),
        ),
        "bilstm_attn": (
            Field("hidden_dim", INT, default=64, minimum=1, below=MAX_SIZE),
            Field("attention_dim", INT, default=64, minimum=1, below=MAX_SIZE),
        ),
        "bilstm_tagger": (Field("hidden_dim", INT, default=64, minimum=1, below=MAX_SIZE),),
    },
    "decoder": {
        "mlp": (Field("hidden_dims", LIST_INT, default=[], minimum=1, below=MAX_SIZE),),
    },
    "output": {DOC_TASK: (), WORD_TASK: ()},
    "optimizer": {
        "sgd": (Field("lr", FLOAT, default=0.1, above=0),),
        "adam": (
            Field("lr", FLOAT, default=0.001, above=0),
            Field("beta1", FLOAT, default=0.9, minimum=0, below=1),
            Field("beta2", FLOAT, default=0.999, minimum=0, below=1),
            Field("eps", FLOAT, default=1e-8, above=0),
        ),
    },
    "trainer": {
        "standard": (
            Field("epochs", INT, default=10, minimum=1),
            Field("patience", INT, default=0, minimum=0),
            Field("seed", INT, default=0, minimum=0),
        ),
    },
}


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


def _check_range(f: Field, values, path):
    if f.minimum is not None and any(v < f.minimum for v in values):
        raise SchemaViolation("%s: must be >= %d, got %r" % (path, f.minimum, min(values)))
    if f.below is not None and not all(v < f.below for v in values):
        raise SchemaViolation("%s: must be < %g, got %r" % (path, f.below, max(values)))


def _check_float(f: Field, value, path):
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaViolation("%s: must be finite, got %r" % (path, value))
    _check_range(f, (value,), path)
    if f.above is not None and not value > f.above:
        raise SchemaViolation("%s: must be > %g, got %r" % (path, f.above, value))
    return value


def _check_scalar(f: Field, value, path):
    if f.ftype == INT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise _type_error(path, "int", value)
        _check_range(f, (value,), path)
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
        _check_range(f, value, path)
        if f.distinct and len(set(value)) < len(value):
            raise SchemaViolation("%s: items must differ, got %r" % (path, value))
        return list(value)
    if f.ftype == LIST_STRING:
        if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
            raise _type_error(path, "list of string", value)
        return list(value)
    raise AssertionError(f.ftype)


def _resolve_component(schemas, kind, raw, path):
    """raw must be a single-key {"name": {params}} object."""
    if not isinstance(raw, dict) or len(raw) != 1:
        raise SchemaViolation("%s: component selection must be a single-key object" % path)
    (name, params), = raw.items()
    if not isinstance(params, dict):
        raise SchemaViolation("%s.%s: component params must be an object" % (path, name))
    fields = schemas[kind].get(name)
    if fields is None:
        raise UnknownComponent("no %s component named %r" % (kind, name))
    here = "%s.%s" % (path, name) if path else name

    unknown = set(params) - {f.name for f in fields}
    if unknown:
        raise SchemaViolation("%s: unknown keys %s" % (here, sorted(unknown)))

    resolved = {}
    for f in fields:
        if f.name in params:
            value = params[f.name]
        elif f.default is not REQUIRED:
            value = f.default
        else:
            raise SchemaViolation("%s: missing required field %r" % (here, f.name))
        if f.ftype == COMPONENT:
            resolved[f.name] = _resolve_component(schemas, f.child_kind, value,
                                                  "%s.%s" % (here, f.name))
        else:
            resolved[f.name] = _check_scalar(f, value, "%s.%s" % (here, f.name))
    return ComponentConfig(kind, name, resolved)


def parse_task_config(text: str, schemas=SCHEMAS) -> ComponentConfig:
    """Parse and validate a JSON task config document into the task's
    ComponentConfig, whose name is the task kind."""
    if not text or not text.strip():
        raise MalformedDocument("empty config document")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument("config is not valid JSON: %s" % exc)
    if not isinstance(doc, dict) or set(doc) != {"task"}:
        raise MalformedDocument("config root must be an object with the single key \"task\"")
    return _resolve_component(schemas, "task", doc["task"], "task")


def _component_to_raw(cfg: ComponentConfig):
    params = {}
    for key, value in cfg.params.items():
        params[key] = _component_to_raw(value) if isinstance(value, ComponentConfig) else value
    return {cfg.name: params}


def serialize_task_config(config: ComponentConfig) -> str:
    """Canonical JSON for a task's ComponentConfig; parse(serialize(c)) == c."""
    doc = {"task": _component_to_raw(config)}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
