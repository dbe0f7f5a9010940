"""The builders that turn resolved ComponentConfigs into models and optimizers.

Builders receive resolved ComponentConfigs plus the build-time context they
need (vocabularies, inferred dims, the init rng); build_model builds every
task's model, one head at a time, and for the joint task hands the word head
the doc head's embedding and BiLSTM. The fields each component takes are
declared once, in registry.SCHEMAS.
"""

from . import model_zoo, trainer
from .errors import IncompatibleShare, SchemaViolation
from .registry import DOC_TASK, JOINT_HEADS, JOINT_TASK, WORD_TASK, ComponentConfig


_REP_CLASSES = {
    "docnn": model_zoo.DocNNRepresentation,
    "bilstm_attn": model_zoo.BiLSTMAttnRepresentation,
    "bilstm_tagger": model_zoo.BiLSTMTaggerRepresentation,
}

_OUTPUT_CLASSES = {
    "doc_classification": model_zoo.DocClassificationOutput,
    "word_tagging": model_zoo.WordTaggingOutput,
}


def build_optimizer(cfg: ComponentConfig, params):
    if cfg.name == "sgd":
        return trainer.SGD(params, lr=cfg.params["lr"])
    return trainer.Adam(params, lr=cfg.params["lr"], beta1=cfg.params["beta1"],
                        beta2=cfg.params["beta2"], eps=cfg.params["eps"])


def build_model(model_cfg: ComponentConfig, task_kind: str, vocabs, labels, rng):
    """The model for a task: one head, or for the joint task two heads whose
    embedding + BiLSTM trunk is shared by reference. labels maps "doc" and
    "word" to their names; each head has one class per name of its kind.

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

    models = {head: _build_head(model_cfg.child("embedding"), rep_cfg, dec_cfg, kind,
                                vocabs, len(labels[JOINT_HEADS[kind]]), rng)
              for head, (kind, rep_cfg, dec_cfg) in heads.items()}
    if task_kind == JOINT_TASK:
        # the word head draws its own trunk first, then drops it, so the
        # init draws of every later parameter stay as they were
        word = models["word"]
        word.embedding = models["doc"].embedding
        word.representation.bilstm = models["doc"].representation.bilstm
        return model_zoo.MultiTaskModel(
            models, {head: model_cfg.params[head + "_loss_weight"] for head in models})
    return models[task_kind]


def _build_head(emb_cfg: ComponentConfig, rep_cfg: ComponentConfig, dec_cfg: ComponentConfig,
                task_kind: str, vocabs, n_classes: int, rng) -> model_zoo.SingleTaskModel:
    embedding = model_zoo.TokenEmbedding("embedding", emb_cfg.params, vocabs, rng)
    rep = _REP_CLASSES[rep_cfg.name]("representation", rep_cfg.params, embedding.out_dim, rng)
    decoder = model_zoo.MLPDecoder("decoder", dec_cfg.params, rep.out_dim, n_classes, rng)
    return model_zoo.SingleTaskModel(embedding, rep, decoder, _OUTPUT_CLASSES[task_kind]())
