"""Builtin component registrations and the builders that instantiate them.

The registry is populated here by explicit calls at import time; nothing is
discovered by scanning. Builders receive resolved ComponentConfigs plus the
build-time context they need (vocabularies, inferred dims, the init rng);
build_model builds every task's model, one head at a time, and for the joint
task hands the word head the doc head's embedding and BiLSTM.
"""

from . import model_zoo, trainer
from .errors import IncompatibleShare, SchemaViolation, ShapeMismatch
from .registry import (BOOL, COMPONENT, FLOAT, INT, LIST_INT, LIST_STRING, STRING,
                       ComponentConfig, Field, register_component)

DOC_TASK = "doc_classification"
WORD_TASK = "word_tagging"
JOINT_TASK = "joint_doc_word"


def _register_builtins():
    register_component("featurizer", "basic", (
        Field("lowercase", BOOL, default=True),
        Field("max_chars", INT, default=20, minimum=0),
    ))

    register_component("data_handler", "tsv", (
        Field("train_path", STRING),
        Field("eval_path", STRING),
        Field("test_path", STRING, default=""),
        Field("batch_size", INT, default=16, minimum=1),
        Field("min_freq", INT, default=1),
    ))
    register_component("data_handler", "tsv_pair", (
        Field("train_paths", LIST_STRING),
        Field("eval_paths", LIST_STRING),
        Field("test_paths", LIST_STRING, default=[]),
        Field("batch_size", INT, default=16, minimum=1),
        Field("min_freq", INT, default=1),
    ))

    register_component("embedding", "token", (
        Field("word_dim", INT, default=64),
        Field("pretrained_path", STRING, default=""),
        Field("char_dim", INT, default=0),
        Field("char_filter_widths", LIST_INT, default=[3]),
        Field("char_num_filters", INT, default=16, minimum=1),
        Field("char_highway_layers", INT, default=1),
        Field("gaz_dim", INT, default=0),
        Field("cap_dim", INT, default=0),
    ))

    register_component("representation", "docnn", (
        Field("filter_widths", LIST_INT, default=[3, 4, 5]),
        Field("num_filters", INT, default=100, minimum=1),
        Field("input_dim", INT, default=-1),
    ))
    register_component("representation", "bilstm_attn", (
        Field("hidden_dim", INT, default=64, minimum=1),
        Field("attention_dim", INT, default=64, minimum=1),
        Field("input_dim", INT, default=-1),
    ))
    register_component("representation", "bilstm_tagger", (
        Field("hidden_dim", INT, default=64, minimum=1),
        Field("input_dim", INT, default=-1),
    ))

    register_component("decoder", "mlp", (
        Field("hidden_dims", LIST_INT, default=[], minimum=1),
    ))

    register_component("output", "doc_classification", ())
    register_component("output", "word_tagging", ())

    register_component("optimizer", "sgd", (
        Field("lr", FLOAT, default=0.1),
    ))
    register_component("optimizer", "adam", (
        Field("lr", FLOAT, default=0.001),
        Field("beta1", FLOAT, default=0.9),
        Field("beta2", FLOAT, default=0.999),
        Field("eps", FLOAT, default=1e-8),
    ))

    register_component("trainer", "standard", (
        Field("epochs", INT, default=10),
        Field("patience", INT, default=0),
        Field("seed", INT, default=0),
    ))

    register_component("exporter", "graph", (
        Field("out_path", STRING, default="model.graph"),
        Field("bake_vocab", BOOL, default=True),
    ))

    register_component("model", "single", (
        Field("embedding", COMPONENT, default={"token": {}}, child_kind="embedding"),
        Field("representation", COMPONENT, child_kind="representation"),
        Field("decoder", COMPONENT, default={"mlp": {}}, child_kind="decoder"),
        Field("output", COMPONENT, child_kind="output"),
    ))
    register_component("model", "joint", (
        Field("embedding", COMPONENT, default={"token": {}}, child_kind="embedding"),
        Field("doc_representation", COMPONENT, default={"bilstm_attn": {}},
              child_kind="representation"),
        Field("word_representation", COMPONENT, default={"bilstm_tagger": {}},
              child_kind="representation"),
        Field("doc_decoder", COMPONENT, default={"mlp": {}}, child_kind="decoder"),
        Field("word_decoder", COMPONENT, default={"mlp": {}}, child_kind="decoder"),
        Field("doc_loss_weight", FLOAT, default=1.0),
        Field("word_loss_weight", FLOAT, default=1.0),
    ))

    def task_fields():
        return (
            Field("featurizer", COMPONENT, default={"basic": {}}, child_kind="featurizer"),
            Field("data", COMPONENT, child_kind="data_handler"),
            Field("model", COMPONENT, child_kind="model"),
            Field("optimizer", COMPONENT, default={"adam": {}}, child_kind="optimizer"),
            Field("trainer", COMPONENT, default={"standard": {}}, child_kind="trainer"),
            Field("export", COMPONENT, default={"graph": {}}, child_kind="exporter"),
        )

    register_component("task", DOC_TASK, task_fields())
    register_component("task", WORD_TASK, task_fields())
    register_component("task", JOINT_TASK, task_fields())


_register_builtins()


_REP_CLASSES = {
    "docnn": model_zoo.DocNNRepresentation,
    "bilstm_attn": model_zoo.BiLSTMAttnRepresentation,
    "bilstm_tagger": model_zoo.BiLSTMTaggerRepresentation,
}

_OUTPUT_CLASSES = {
    "doc_classification": model_zoo.DocClassificationOutput,
    "word_tagging": model_zoo.WordTaggingOutput,
}


def build_representation(cfg: ComponentConfig, in_dim: int, rng):
    declared = cfg.params.get("input_dim", -1)
    if declared >= 0 and declared != in_dim:
        raise ShapeMismatch("representation %s declares input dim %d but the embedding "
                            "produces %d" % (cfg.name, declared, in_dim))
    return _REP_CLASSES[cfg.name]("representation", cfg.params, in_dim, rng)


def build_optimizer(cfg: ComponentConfig, params):
    if cfg.name == "sgd":
        return trainer.SGD(params, lr=cfg.params["lr"])
    return trainer.Adam(params, lr=cfg.params["lr"], beta1=cfg.params["beta1"],
                        beta2=cfg.params["beta2"], eps=cfg.params["eps"])


def build_model(model_cfg: ComponentConfig, task_kind: str, vocabs, doc_labels, word_tags,
                rng):
    """The model for a task: one head, or for the joint task two heads whose
    embedding + BiLSTM trunk is shared by reference.

    Every head is embedding -> representation -> decoder -> output, built by
    _build_head in head order from one rng. The joint doc head owns the
    attention pooling; the word head consumes the raw per-token states, so
    only the trunk below the pooling can be shared.
    """
    if task_kind == JOINT_TASK:
        if model_cfg.name != "joint":
            raise SchemaViolation("joint task needs the joint model, got %r" % model_cfg.name)
        heads = {}
        for head, kind, rep_name in (("doc", DOC_TASK, "bilstm_attn"),
                                     ("word", WORD_TASK, "bilstm_tagger")):
            rep_cfg = model_cfg.child(head + "_representation")
            if rep_cfg.name != rep_name:
                raise SchemaViolation("joint %s head needs %s, got %r"
                                      % (head, rep_name, rep_cfg.name))
            heads[head] = (kind, rep_cfg, model_cfg.child(head + "_decoder"))
        if len({rep_cfg.params["hidden_dim"] for _, rep_cfg, _ in heads.values()}) > 1:
            raise IncompatibleShare("the joint heads share one BiLSTM, so their hidden_dim "
                                    "must be equal")
    else:
        if model_cfg.name != "single":
            raise SchemaViolation("task %s needs the single-head model, got %r"
                                  % (task_kind, model_cfg.name))
        out_name = model_cfg.child("output").name
        if out_name != task_kind:
            raise SchemaViolation("task %s configured with output layer %r"
                                  % (task_kind, out_name))
        heads = {task_kind: (task_kind, model_cfg.child("representation"),
                             model_cfg.child("decoder"))}

    n_classes = {DOC_TASK: len(doc_labels or ()), WORD_TASK: len(word_tags or ())}
    models = {head: _build_head(model_cfg.child("embedding"), rep_cfg, dec_cfg, kind,
                                vocabs, n_classes[kind], rng)
              for head, (kind, rep_cfg, dec_cfg) in heads.items()}
    if task_kind == JOINT_TASK:
        # the word head draws its own trunk first, then drops it, so the
        # init draws of every later parameter stay as they were
        word = models["word"]
        word.embedding = models["doc"].embedding
        word.representation.bilstm = models["doc"].representation.bilstm
        model = model_zoo.MultiTaskModel(
            models, {head: model_cfg.params[head + "_loss_weight"] for head in models})
    else:
        model = models[task_kind]
    model_zoo.assign_parameter_names(model)
    return model


def _build_head(emb_cfg: ComponentConfig, rep_cfg: ComponentConfig, dec_cfg: ComponentConfig,
                task_kind: str, vocabs, n_classes: int, rng) -> model_zoo.SingleTaskModel:
    embedding = model_zoo.TokenEmbedding("embedding", emb_cfg.params, vocabs, rng)
    rep = build_representation(rep_cfg, embedding.out_dim, rng)
    decoder = model_zoo.MLPDecoder("decoder", dec_cfg.params, rep.out_dim, n_classes, rng)
    return model_zoo.SingleTaskModel(embedding, rep, decoder, _OUTPUT_CLASSES[task_kind]())
