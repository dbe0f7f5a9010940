"""Model zoo: token embeddings, representations, decoders and output layers.

Every model decomposes into the same four stages. Each stage is a LayerModule
that owns its parameters, can be saved and loaded on its own, and states its
output shape up front so wiring mistakes fail at construction or on the first
forward rather than deep inside a training run. Beside its forward, each
embedding, representation and decoder class has a lower method that emits
the same computation as graph ops through the exporter's GraphBuilder. The
models are LayerModules too, so one walk (own parameters, then children)
names every parameter for checkpoints, optimizer state, graph consts and
module files, and one checked loader, load_params, sets them back.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import binio, kernels, ops
from .data_handler import Batch, VocabBundle
from .errors import (CorruptFile, DimMismatch, IncompatibleShare, MalformedLine, MultiTaskArity,
                     NoStyleSelected, ShapeMismatch)
from .tensor import Parameter, Tensor
from .vocab import Vocabulary

F32 = np.float32

MODULE_MAGIC = b"TXFG"
MODULE_VERSION = 1


def _uniform(rng, shape, scale):
    return rng.uniform(-scale, scale, size=shape).astype(F32)


def _affine_pair(rng, fan_in, fan_out):
    scale = float(np.sqrt(1.0 / fan_in))
    w = _uniform(rng, (fan_in, fan_out), scale)
    b = np.zeros((fan_out,), dtype=F32)
    return w, b


class LayerModule:
    """Base for the models, their four stages and the stages' shareable children."""

    kind = "module"

    def __init__(self, name, config):
        self.name = name
        self.config = dict(config)
        self._params = {}

    def add_param(self, local_name, array):
        param = Parameter(array, name=local_name)
        self._params[local_name] = param
        return param

    def children(self):
        return {}

    def named_parameters(self, prefix=""):
        """Depth-first (own params, then children), deterministic order."""
        out = {prefix + local: param for local, param in self._params.items()}
        for child_name, child in self.children().items():
            out.update(child.named_parameters(prefix + child_name + "."))
        return out

    def parameters(self):
        """Each parameter once, in walk order, even when shared."""
        return list({id(p): p for p in self.named_parameters().values()}.values())


def save_module(module: LayerModule, path: str):
    """Write one module (kind, name, config, parameters) to its own file."""
    payload = {
        "container": "module",
        "class": type(module).__name__,
        "kind": module.kind,
        "name": module.name,
        "config": {key: list(value) if isinstance(value, (list, tuple)) else value
                   for key, value in module.config.items()},
        "params": {name: p.data for name, p in module.named_parameters().items()},
    }
    binio.write_container(path, MODULE_MAGIC, MODULE_VERSION, payload)


def load_module_into(module: LayerModule, path: str):
    """Load a saved module's parameters into a structurally equal instance."""
    payload = binio.read_container(path, MODULE_MAGIC, MODULE_VERSION)
    if not isinstance(payload, dict) or payload.get("container") != "module":
        raise CorruptFile("%s: not a module file" % path)
    if payload.get("class") != type(module).__name__:
        raise IncompatibleShare("saved module is %s, not %s"
                                % (payload.get("class"), type(module).__name__))
    return load_params(module, payload.get("params"))


def load_params(model, saved):
    """Set a model's parameters from a saved name -> array mapping.

    The mapping must hold exactly the model's parameter names, each a float32
    array of its parameter's shape; otherwise nothing is assigned. Module
    files, checkpoints and resumed runs all load parameters here.
    """
    params = model.named_parameters()
    if not isinstance(saved, dict) or set(saved) != set(params):
        raise IncompatibleShare("parameter names differ between file and module")
    for name, param in params.items():
        value = saved[name]
        if not (isinstance(value, np.ndarray) and value.dtype == F32):
            raise ShapeMismatch("param %s: file holds %s, not a float32 array"
                                % (name, getattr(value, "dtype", type(value).__name__)))
        if value.shape != param.data.shape:
            raise ShapeMismatch("param %s: file shape %s vs module %s"
                                % (name, value.shape, param.data.shape))
    for name, param in params.items():
        param.data = saved[name]
    return model


def _embedding_table(rng, vocab: Vocabulary, dim: int) -> np.ndarray:
    """A uniform init table with one row per vocab entry, padding row zeroed."""
    table = _uniform(rng, (len(vocab), dim), 0.1)
    table[Vocabulary.PAD_ID] = 0.0
    return table


def load_pretrained_embeddings(path: str, vocab: Vocabulary, dim: int, rng) -> np.ndarray:
    """Initialize a word table, overlaying vectors found in a text file.

    File lines are "token v1 ... v_dim" space separated. Tokens outside the
    vocabulary are skipped; the padding row is zeroed either way.
    """
    table = _embedding_table(rng, vocab, dim)
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if len(parts) < 2:
                raise MalformedLine("%s line %d: expected token and values" % (path, line_no))
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise DimMismatch("%s line %d: %d values for dim %d"
                                  % (path, line_no, len(values), dim))
            idx = vocab.index.get(token)
            if idx is None:
                continue
            try:
                table[idx] = np.array([float(v) for v in values], dtype=F32)
            except ValueError:
                raise MalformedLine("%s line %d: non-numeric value" % (path, line_no))
    table[Vocabulary.PAD_ID] = 0.0
    return table


class TokenEmbedding(LayerModule):
    """Concatenation of the selected per-token feature embeddings.

    Styles: word vectors (optionally warm-started from a file), a char CNN
    with highway layers, gazetteer feature embeddings and capitalization
    embeddings. A dim of 0 disables a style; at least one must be active.
    Draw order at init is word, char table, char filters by width, highway
    layers, gazetteer, capitalization.
    """

    kind = "embedding"

    def __init__(self, name, config, vocabs: VocabBundle, rng):
        super().__init__(name, config)
        self.word_dim, self.char_dim, self.gaz_dim, self.cap_dim = (
            max(config[style + "_dim"], 0) for style in ("word", "char", "gaz", "cap"))
        if not (self.word_dim or self.char_dim or self.gaz_dim or self.cap_dim):
            raise NoStyleSelected("embedding config enables no feature style")
        self.char_widths = list(config["char_filter_widths"])
        self.char_filters = config["char_num_filters"]
        self.highway_layers = config["char_highway_layers"]

        if self.word_dim:
            pretrained = config.get("pretrained_path") or ""
            if pretrained:
                table = load_pretrained_embeddings(pretrained, vocabs.token, self.word_dim, rng)
            else:
                table = _embedding_table(rng, vocabs.token, self.word_dim)
            self.word_table = self.add_param("word.table", table)
        self.char_out = 0
        if self.char_dim:
            if not self.char_widths or min(self.char_widths) < 1:
                raise ShapeMismatch("char filter widths must be >= 1")
            self.char_table = self.add_param(
                "char.table", _embedding_table(rng, vocabs.char, self.char_dim))
            self.char_conv = []
            for w in self.char_widths:
                scale = float(np.sqrt(1.0 / (w * self.char_dim)))
                filt = self.add_param("char.conv%d" % w,
                                      _uniform(rng, (w, self.char_dim, self.char_filters), scale))
                self.char_conv.append(filt)
            self.char_out = self.char_filters * len(self.char_widths)
            self.highway = []
            for layer in range(self.highway_layers):
                wt, bt = _affine_pair(rng, self.char_out, self.char_out)
                wg, bg = _affine_pair(rng, self.char_out, self.char_out)
                self.highway.append((
                    self.add_param("char.hw%d.wt" % layer, wt),
                    self.add_param("char.hw%d.bt" % layer, bt),
                    self.add_param("char.hw%d.wg" % layer, wg),
                    self.add_param("char.hw%d.bg" % layer, bg),
                ))
        if self.gaz_dim:
            self.gaz_table = self.add_param(
                "gaz.table", _embedding_table(rng, vocabs.gaz, self.gaz_dim))
        if self.cap_dim:
            self.cap_table = self.add_param(
                "cap.table", _embedding_table(rng, vocabs.cap, self.cap_dim))

        self.out_dim = self.word_dim + self.char_out + self.gaz_dim + self.cap_dim

    def _char_forward(self, char_ids):
        b, t, c = char_ids.shape
        flat_ids = char_ids.reshape(b * t, c)
        emb = ops.embedding_lookup(self.char_table.tensor, flat_ids)  # [b*t, c, cd]
        full = np.ones((b * t, c), dtype=F32)
        pooled = [ops.conv1d_maxpool(emb, filt.tensor, full) for filt in self.char_conv]
        out = ops.concat(pooled, axis=-1) if len(pooled) > 1 else pooled[0]
        one = Tensor(np.ones_like(out.data))
        for wt, bt, wg, bg in self.highway:
            hidden = ops.relu(ops.linear(out, wt.tensor, bt.tensor))
            gate = ops.sigmoid(ops.linear(out, wg.tensor, bg.tensor))
            out = ops.add(ops.mul(gate, hidden), ops.mul(ops.sub(one, gate), out))
        return ops.reshape(out, (b, t, self.char_out))

    def lower(self, b, feeds: dict) -> str:
        # the word and char tables become consts before their gathers' outputs
        # are declared (b.const runs first); the gaz and cap tables after
        parts = []
        if self.word_dim:
            parts.append(b.emit("EmbedGather", "word_emb", feeds["token_ids"],
                                b.const(self.word_table)))
        if self.char_dim:
            chars = b.emit("EmbedGather", "char_emb", feeds["char_ids"], b.const(self.char_table))
            out = b.concat("char_cat", [b.emit("Conv1DMaxPool", "char_pool%d" % w, chars, filt)
                                        for w, filt in zip(self.char_widths, self.char_conv)])
            for i, layer in enumerate(self.highway):
                out = b.emit("Highway", "char_hw%d" % i, out, *layer)
            parts.append(out)
        if self.gaz_dim:
            parts.append(b.emit("EmbedGather", "gaz_emb", feeds["gaz_ids"], self.gaz_table))
        if self.cap_dim:
            parts.append(b.emit("EmbedGather", "cap_emb", feeds["cap_ids"], self.cap_table))
        return b.concat("embedding", parts)

    def forward(self, batch: Batch) -> Tensor:
        b, t = batch.token_ids.shape
        parts = []
        if self.word_dim:
            parts.append(ops.embedding_lookup(self.word_table.tensor, batch.token_ids))
        if self.char_dim:
            parts.append(self._char_forward(batch.char_ids))
        if self.gaz_dim:
            parts.append(ops.embedding_lookup(self.gaz_table.tensor, batch.dense_feats["gaz"]))
        if self.cap_dim:
            parts.append(ops.embedding_lookup(self.cap_table.tensor, batch.dense_feats["cap"]))
        out = ops.concat(parts, axis=-1) if len(parts) > 1 else parts[0]
        if out.shape != (b, t, self.out_dim):
            raise ShapeMismatch("embedding produced %s, contract (%d, %d, %d)"
                                % (out.shape, b, t, self.out_dim))
        return out


class BiLSTMModule(LayerModule):
    """Shared bidirectional LSTM trunk. Forget gate biases start at 1."""

    kind = "representation"

    def __init__(self, name, config, in_dim, rng):
        super().__init__(name, config)
        hidden = config["hidden_dim"]
        self.in_dim = in_dim
        self.hidden_dim = hidden
        self.out_dim = 2 * hidden
        for direction in ("fwd", "bwd"):
            ih_scale = float(np.sqrt(1.0 / in_dim))
            hh_scale = float(np.sqrt(1.0 / hidden))
            self.add_param("%s.w_ih" % direction, _uniform(rng, (in_dim, 4 * hidden), ih_scale))
            self.add_param("%s.w_hh" % direction, _uniform(rng, (hidden, 4 * hidden), hh_scale))
            bias = np.zeros((4 * hidden,), dtype=F32)
            bias[hidden:2 * hidden] = 1.0
            self.add_param("%s.bias" % direction, bias)

    def forward(self, emb: Tensor, mask) -> Tensor:
        p = self._params
        fwd = ops.lstm_seq(emb, p["fwd.w_ih"].tensor, p["fwd.w_hh"].tensor,
                           p["fwd.bias"].tensor, mask, reverse=False)
        bwd = ops.lstm_seq(emb, p["bwd.w_ih"].tensor, p["bwd.w_hh"].tensor,
                           p["bwd.bias"].tensor, mask, reverse=True)
        return ops.concat([fwd, bwd], axis=-1)

    def lower(self, b, x: str) -> str:
        p = self._params
        halves = [b.emit("LSTMSeq", "%s_%s" % (self.name, d), x, p[d + ".w_ih"], p[d + ".w_hh"],
                         p[d + ".bias"], reverse=reverse)
                  for d, reverse in (("fwd", False), ("bwd", True))]
        return b.concat(self.name, halves)


class Representation(LayerModule):
    """Base for the representations: one input guard in front of encode.

    forward checks the input width (errors name the subclass by its label);
    a zero-length sequence gets the fixed zero representation, [b, out] when
    pooled and [b, 0, out] per token (sequence_output). Anything else goes to
    the subclass's encode.
    """

    kind = "representation"
    sequence_output = False

    def __init__(self, name, config, in_dim):
        super().__init__(name, config)
        self.in_dim = in_dim

    def forward(self, emb: Tensor, mask) -> Tensor:
        if emb.shape[-1] != self.in_dim:
            raise ShapeMismatch("%s expected input dim %d, got %d"
                                % (self.label, self.in_dim, emb.shape[-1]))
        b, t = emb.shape[0], emb.shape[1]
        if t == 0:
            shape = (b, 0, self.out_dim) if self.sequence_output else (b, self.out_dim)
            return Tensor(np.zeros(shape, dtype=F32))
        return self.encode(emb, mask)


class DocNNRepresentation(Representation):
    """Parallel word-level convolutions, max pooled over time, concatenated."""

    label = "docnn"

    def __init__(self, name, config, in_dim, rng):
        super().__init__(name, config, in_dim)
        self.widths = list(config["filter_widths"])
        self.num_filters = config["num_filters"]
        if not self.widths or min(self.widths) < 1:
            raise ShapeMismatch("filter widths must be >= 1")
        self.filters = []
        for w in self.widths:
            scale = float(np.sqrt(1.0 / (w * in_dim)))
            self.filters.append(self.add_param(
                "conv%d" % w, _uniform(rng, (w, in_dim, self.num_filters), scale)))
        self.out_dim = self.num_filters * len(self.widths)

    def encode(self, emb: Tensor, mask) -> Tensor:
        pooled = [ops.conv1d_maxpool(emb, filt.tensor, mask) for filt in self.filters]
        return ops.concat(pooled, axis=-1) if len(pooled) > 1 else pooled[0]

    def lower(self, b, x: str) -> str:
        return b.concat("representation", [b.emit("Conv1DMaxPool", "doc_pool%d" % w, x, filt)
                                           for w, filt in zip(self.widths, self.filters)])


class BiLSTMTaggerRepresentation(Representation):
    """BiLSTM trunk kept per-token for word tagging."""

    label = "bilstm_tagger"
    sequence_output = True

    def __init__(self, name, config, in_dim, rng):
        super().__init__(name, config, in_dim)
        self.bilstm = BiLSTMModule("bilstm", {"hidden_dim": config["hidden_dim"]}, in_dim, rng)
        self.out_dim = self.bilstm.out_dim

    def children(self):
        return {"bilstm": self.bilstm}

    def encode(self, emb: Tensor, mask) -> Tensor:
        return self.bilstm.forward(emb, mask)

    def lower(self, b, x: str) -> str:
        return self.bilstm.lower(b, x)


class BiLSTMAttnRepresentation(BiLSTMTaggerRepresentation):
    """The tagger's BiLSTM trunk pooled by additive self attention over valid
    positions."""

    label = "bilstm_attn"
    sequence_output = False

    def __init__(self, name, config, in_dim, rng):
        super().__init__(name, config, in_dim, rng)
        attn = config["attention_dim"]
        scale = float(np.sqrt(1.0 / self.out_dim))
        self.add_param("attn.w1", _uniform(rng, (self.out_dim, attn), scale))
        self.add_param("attn.w2", _uniform(rng, (attn,), float(np.sqrt(1.0 / attn))))

    def encode(self, emb: Tensor, mask) -> Tensor:
        return ops.self_attention(super().encode(emb, mask), self._params["attn.w1"].tensor,
                                  self._params["attn.w2"].tensor, mask)

    def lower(self, b, x: str) -> str:
        return b.emit("SelfAttention", "representation", super().lower(b, x),
                      self._params["attn.w1"], self._params["attn.w2"])


class MLPDecoder(LayerModule):
    """Affine stack with relu between hidden layers, projecting to classes."""

    kind = "decoder"

    def __init__(self, name, config, in_dim, n_classes, rng):
        super().__init__(name, config)
        self.in_dim = in_dim
        self.n_classes = n_classes
        dims = [in_dim] + list(config["hidden_dims"]) + [n_classes]
        self.n_layers = len(dims) - 1
        for i in range(self.n_layers):
            w, b = _affine_pair(rng, dims[i], dims[i + 1])
            self.add_param("w%d" % i, w)
            self.add_param("b%d" % i, b)

    def forward(self, rep: Tensor) -> Tensor:
        if rep.shape[-1] != self.in_dim:
            raise ShapeMismatch("decoder expected input dim %d, got %d"
                                % (self.in_dim, rep.shape[-1]))
        out = rep
        for i in range(self.n_layers):
            out = ops.linear(out, self._params["w%d" % i].tensor, self._params["b%d" % i].tensor)
            if i < self.n_layers - 1:
                out = ops.relu(out)
        return out

    def lower(self, b, x: str) -> str:
        for i in range(self.n_layers):
            x = b.emit("MatMulAdd", "dec%d" % i, x, self._params["w%d" % i], self._params["b%d" % i])
            if i < self.n_layers - 1:
                x = b.emit("Relu", "dec%d_relu" % i, x)
        return x


@dataclass
class ModelOutput:
    preds: np.ndarray
    scores: np.ndarray
    loss: Optional[Tensor]


class DocClassificationOutput(LayerModule):
    kind = "output"
    sequence_output = False

    def __init__(self, name="doc_classification", config=None):
        super().__init__(name, config or {})

    def forward(self, logits: Tensor, labels, mask) -> ModelOutput:
        if logits.data.ndim != 2:
            raise ShapeMismatch("doc output expects [b, c] logits, got %s" % (logits.shape,))
        preds = kernels.argmax_last(logits.data)
        scores = kernels.softmax(logits.data, axis=-1)
        loss = None
        if labels is not None:
            loss = ops.softmax_cross_entropy(logits, labels)
        return ModelOutput(preds, scores, loss)


class WordTaggingOutput(LayerModule):
    kind = "output"
    sequence_output = True

    def __init__(self, name="word_tagging", config=None):
        super().__init__(name, config or {})

    def forward(self, logits: Tensor, labels, mask) -> ModelOutput:
        if logits.data.ndim != 3:
            raise ShapeMismatch("word output expects [b, t, c] logits, got %s" % (logits.shape,))
        b, t, c = logits.data.shape
        preds = kernels.argmax_last(logits.data)
        scores = kernels.softmax(logits.data, axis=-1)
        loss = None
        if labels is not None:
            flat = ops.reshape(logits, (b * t, c))
            loss = ops.softmax_cross_entropy(flat, labels.reshape(-1), mask.reshape(-1))
        return ModelOutput(preds, scores, loss)


class SingleTaskModel(LayerModule):
    """Embedding -> representation -> decoder -> output."""

    kind = "model"

    def __init__(self, embedding, representation, decoder, output):
        super().__init__("model", {})
        self.embedding = embedding
        self.representation = representation
        self.decoder = decoder
        self.output = output
        if getattr(representation, "sequence_output", False) != output.sequence_output:
            raise ShapeMismatch("representation and output layer disagree on sequence shape")

    def children(self):
        return {"embedding": self.embedding, "representation": self.representation,
                "decoder": self.decoder, "output": self.output}

    def forward(self, batch: Batch, compute_loss=True) -> ModelOutput:
        emb = self.embedding.forward(batch)
        rep = self.representation.forward(emb, batch.mask)
        logits = self.decoder.forward(rep)
        if self.output.sequence_output:
            labels = batch.word_labels if compute_loss else None
        else:
            labels = batch.doc_labels if compute_loss else None
        return self.output.forward(logits, labels, batch.mask)


class MultiTaskModel(LayerModule):
    """Named single-task heads whose modules may be shared by reference.

    The heads are its children, in task order; a shared module's parameters
    appear under every head's name and once in parameters().
    """

    kind = "model"

    def __init__(self, tasks, loss_weights):
        if len(tasks) < 2:
            raise MultiTaskArity("multi-task model needs at least 2 tasks")
        super().__init__("model", {})
        self.task_names = list(tasks)
        self.tasks = dict(tasks)
        self.loss_weights = dict(loss_weights)

    def task_for(self, task_id: int) -> str:
        return self.task_names[task_id]

    def children(self):
        return self.tasks

    def forward(self, batch: Batch, compute_loss=True):
        name = self.task_for(batch.task_id)
        return name, self.tasks[name].forward(batch, compute_loss)


def assign_parameter_names(model):
    """Give every parameter its path-like name; names must be unique."""
    named = model.named_parameters()
    for name, param in reversed(named.items()):
        param.name = name  # walking backwards, a shared param ends on its first name
    return named
