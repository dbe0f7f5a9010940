"""Config schema semantics: the schema table, validation, defaults, round trips."""

import json

import numpy as np
import pytest

import corpora
from textforge import components, registry, trainer
from textforge.errors import MalformedDocument, SchemaViolation, UnknownComponent
from textforge.pipeline import instantiate_task
from textforge.registry import (BOOL, COMPONENT, FLOAT, INT, LIST_INT, SCHEMAS,
                                STRING, ComponentConfig, Field, parse_task_config,
                                serialize_task_config)


class TestField:
    def test_component_needs_child_kind(self):
        with pytest.raises(ValueError):
            Field("sub", COMPONENT)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            Field("x", "complex128")


class TestRegistry:
    def test_unknown_component(self):
        doc = {"task": {"doc_classification": {
            "data": {"tsv": {"train_path": "train.tsv", "eval_path": "eval.tsv"}},
            "model": {"single": {"representation": {"docnn": {}},
                                 "output": {"doc_classification": {}}}},
            "optimizer": {"lamb": {}}}}}
        with pytest.raises(UnknownComponent, match="no optimizer component named 'lamb'"):
            parse_task_config(json.dumps(doc))

    def test_every_child_kind_is_a_kind(self):
        for kind, entries in SCHEMAS.items():
            for name, fields in entries.items():
                for f in fields:
                    if f.ftype == COMPONENT:
                        assert f.child_kind in SCHEMAS, (kind, name, f.name)

    def test_builders_and_the_table_name_the_same_components(self):
        assert set(components._REP_CLASSES) == set(SCHEMAS["representation"])
        assert set(components._OUTPUT_CLASSES) == set(SCHEMAS["output"])
        assert set(components.JOINT_HEADS) <= set(SCHEMAS["task"])
        built = {name: type(components.build_optimizer(
            registry._resolve_component(SCHEMAS, "optimizer", {name: {}}, "optimizer"), {}))
            for name in SCHEMAS["optimizer"]}
        assert built == {"sgd": trainer.SGD, "adam": trainer.Adam}


def demo_schemas():
    return {
        "optimizer": {"toy": (
            Field("lr", FLOAT, default=0.5),
            Field("steps", INT, minimum=0),
            Field("layers", LIST_INT, default=[1, 2], minimum=1),
            Field("tag", STRING, default=""),
            Field("verbose", BOOL, default=False),
        )},
        "task": {"demo": (
            Field("optimizer", COMPONENT, default={"toy": {"steps": 3}},
                  child_kind="optimizer"),
        )},
    }


def demo_parse(params):
    text = json.dumps({"task": {"demo": params}})
    return parse_task_config(text, demo_schemas())


class TestValidation:
    def test_defaults_resolve_recursively(self):
        cfg = demo_parse({})
        opt = cfg.child("optimizer")
        assert opt.name == "toy"
        assert opt.params == {"lr": 0.5, "steps": 3, "layers": [1, 2], "tag": "",
                              "verbose": False}

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaViolation) as err:
            demo_parse({"optimizer": {"toy": {"steps": 1, "momentum": 0.9}}})
        assert "momentum" in str(err.value)

    def test_missing_required_rejected(self):
        with pytest.raises(SchemaViolation) as err:
            demo_parse({"optimizer": {"toy": {}}})
        assert "steps" in str(err.value)

    def test_bool_is_not_an_int(self):
        with pytest.raises(SchemaViolation):
            demo_parse({"optimizer": {"toy": {"steps": True}}})

    def test_bool_is_not_a_float(self):
        with pytest.raises(SchemaViolation):
            demo_parse({"optimizer": {"toy": {"steps": 1, "lr": True}}})

    def test_int_widens_to_float(self):
        cfg = demo_parse({"optimizer": {"toy": {"steps": 1, "lr": 1}}})
        assert cfg.child("optimizer").params["lr"] == 1.0

    def test_minimum_checked_per_item(self):
        assert demo_parse({"optimizer": {"toy": {"steps": 0}}}) is not None
        with pytest.raises(SchemaViolation, match=r"toy\.steps: must be >= 0, got -1"):
            demo_parse({"optimizer": {"toy": {"steps": -1}}})
        with pytest.raises(SchemaViolation, match=r"toy\.layers: must be >= 1, got 0"):
            demo_parse({"optimizer": {"toy": {"steps": 1, "layers": [2, 0]}}})

    @pytest.mark.parametrize("params,error", [
        ({"rate": 0}, r"toy\.rate: must be > 0, got 0\.0"),
        ({"rate": 1}, r"toy\.rate: must be < 1, got 1\.0"),
        ({"rate": float("nan")}, r"toy\.rate: must be finite, got nan"),
        ({"weight": -0.5}, r"toy\.weight: must be >= 0, got -0\.5"),
        ({"weight": float("inf")}, r"toy\.weight: must be finite, got inf"),
        ({"weight": 10 ** 400}, r"toy\.weight: must be finite, got inf"),
        ({"widths": [2, 3, 2]}, r"toy\.widths: items must differ, got \[2, 3, 2\]"),
    ], ids=["rate=0", "rate=1", "rate=nan", "weight=-0.5", "weight=inf", "weight=10**400",
            "widths=[2, 3, 2]"])
    def test_float_bounds_and_distinct_items(self, params, error):
        schemas = {
            "optimizer": {"toy": (
                Field("rate", FLOAT, default=0.5, above=0, below=1),
                Field("weight", FLOAT, default=1.0, minimum=0),
                Field("widths", LIST_INT, default=[1], distinct=True),
            )},
            "task": {"demo": (
                Field("optimizer", COMPONENT, default={"toy": {}}, child_kind="optimizer"),)},
        }

        def parse(**fields):
            doc = {"task": {"demo": {"optimizer": {"toy": fields}}}}
            return parse_task_config(json.dumps(doc), schemas)
        edge = parse(rate=0.999, weight=0, widths=[3, 1]).child("optimizer").params
        assert edge == {"rate": 0.999, "weight": 0.0, "widths": [3, 1]}
        with pytest.raises(SchemaViolation, match=error):
            parse(**params)

    def test_list_int_rejects_bools_and_strings(self):
        with pytest.raises(SchemaViolation):
            demo_parse({"optimizer": {"toy": {"steps": 1, "layers": [1, True]}}})
        with pytest.raises(SchemaViolation):
            demo_parse({"optimizer": {"toy": {"steps": 1, "layers": "12"}}})

    def test_component_selection_must_be_single_key(self):
        with pytest.raises(SchemaViolation):
            demo_parse({"optimizer": {"toy": {}, "other": {}}})
        with pytest.raises(SchemaViolation):
            demo_parse({"optimizer": "toy"})

    def test_unknown_component_name(self):
        with pytest.raises(UnknownComponent):
            demo_parse({"optimizer": {"lamb": {}}})


class TestDocumentShape:
    def test_bad_json(self):
        with pytest.raises(MalformedDocument):
            parse_task_config("{not json", demo_schemas())

    def test_empty_document(self):
        with pytest.raises(MalformedDocument):
            parse_task_config("   \n", demo_schemas())

    def test_root_must_be_single_task_key(self):
        with pytest.raises(MalformedDocument):
            parse_task_config(json.dumps({"job": {}}), demo_schemas())
        with pytest.raises(MalformedDocument):
            parse_task_config(json.dumps([1, 2]), demo_schemas())
        with pytest.raises(MalformedDocument):
            parse_task_config(json.dumps({"task": {}, "extra": 1}), demo_schemas())

    def test_unknown_task_name(self):
        with pytest.raises(UnknownComponent):
            parse_task_config(json.dumps({"task": {"translation": {}}}))


class TestRoundTrip:
    def test_parse_serialize_parse_fixed_point(self, tmp_path):
        for build in (corpora.doc_config, corpora.word_config, corpora.joint_config):
            cfg_dict = build(str(tmp_path), n_train=4, n_eval=2)
            parsed = parse_task_config(json.dumps(cfg_dict))
            text = serialize_task_config(parsed)
            again = parse_task_config(text)
            assert again == parsed
            assert serialize_task_config(again) == text

    def test_serialized_form_is_canonical(self):
        cfg = demo_parse({})
        text = serialize_task_config(cfg)
        assert text.endswith("\n")
        doc = json.loads(text)
        assert set(doc) == {"task"}
        # defaults are materialized, not left implicit
        assert doc["task"]["demo"]["optimizer"]["toy"]["steps"] == 3

    def test_task_kind_property(self):
        cfg = demo_parse({})
        assert isinstance(cfg, ComponentConfig)
        assert cfg.name == "demo"


class TestInstantiation:
    def test_same_config_same_bytes(self, tmp_path):
        cfg = parse_task_config(json.dumps(
            corpora.doc_config(str(tmp_path), n_train=12, n_eval=4)))
        a = instantiate_task(cfg)
        b = instantiate_task(cfg)
        named_a = a.model.named_parameters()
        named_b = b.model.named_parameters()
        assert set(named_a) == set(named_b)
        for name, pa in named_a.items():
            assert np.array_equal(pa.data, named_b[name].data), name

    def test_seed_override_changes_init(self, tmp_path):
        cfg = parse_task_config(json.dumps(
            corpora.doc_config(str(tmp_path), n_train=12, n_eval=4)))
        a = instantiate_task(cfg)
        b = instantiate_task(cfg, seed_override=123)
        assert b.settings.seed == 123
        ta = a.model.named_parameters()["embedding.word.table"].data
        tb = b.model.named_parameters()["embedding.word.table"].data
        assert not np.array_equal(ta, tb)
