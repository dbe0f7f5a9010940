"""Model zoo: token embeddings, representations, decoders and output layers.

Every model decomposes into the same four stages. Each stage is a LayerModule
that owns its parameters and states its output shape up front, so wiring
mistakes fail at construction or on the first forward rather than deep inside
a training run. A stage is described once, by its forward over ops: the
exporter traces one forward pass into a graph, so a new stage needs no export
code of its own. The models are LayerModules too, so one walk (own
parameters, then children) names every parameter for checkpoints, optimizer
state and graph consts: named_parameters lists each parameter once, under the
first path that reaches it, even when heads share a module. One checked
loader, load_params, sets them back.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ops
from .data_handler import Batch, VocabBundle, read_lines
from .errors import (DimMismatch, IncompatibleShare, MalformedLine, MultiTaskArity,
                     NoStyleSelected, ShapeMismatch)
from .tensor import Parameter, Tensor
from .vocab import Vocabulary

F32 = np.float32


def _uniform(rng, shape, scale):
    return rng.uniform(-scale, scale, size=shape).astype(F32)


def _affine_pair(rng, fan_in, fan_out):
    scale = float(np.sqrt(1.0 / fan_in))
    w = _uniform(rng, (fan_in, fan_out), scale)
    b = np.zeros((fan_out,), dtype=F32)
    return w, b


class LayerModule:
    """Base for the models, their four stages and the stages' shareable children."""

    def __init__(self, name):
        self.name = name
        self._params = {}

    def add_param(self, local_name, array):
        if local_name in self._params:
            raise ValueError("%s already holds a parameter named %r" % (self.name, local_name))
        param = Parameter(array)
        self._params[local_name] = param
        return param

    def children(self):
        return {}

    def _walk(self, prefix):
        """(path, parameter) depth-first: own params, then children; a
        module shared by two parents is walked under both."""
        for local, param in self._params.items():
            yield prefix + local, param
        for child_name, child in self.children().items():
            yield from child._walk(prefix + child_name + ".")

    def named_parameters(self):
        """Path -> parameter in walk order, each parameter once, under the
        first path that reaches it."""
        first = {}
        for path, param in self._walk(""):
            first.setdefault(id(param), (path, param))
        return dict(first.values())

    def parameters(self):
        return list(self.named_parameters().values())


def load_params(model, saved):
    """Set a model's parameters from a saved name -> array mapping.

    The mapping must hold exactly the model's parameter names, each a float32
    array of its parameter's shape; otherwise nothing is assigned.
    Checkpoints and resumed runs load parameters here.
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
    for line_no, line in enumerate(read_lines(path), start=1):
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
            # a value past the float32 range becomes inf, rejected below
            with np.errstate(over="ignore"):
                row = np.array([float(v) for v in values], dtype=F32)
        except ValueError:
            raise MalformedLine("%s line %d: non-numeric value" % (path, line_no))
        if not np.isfinite(row).all():
            raise MalformedLine("%s line %d: non-finite value as float32" % (path, line_no))
        table[idx] = row
    table[Vocabulary.PAD_ID] = 0.0
    return table


def _distinct_rows(rows):
    """The distinct rows of a 2-D int array, and for each row the index of
    its distinct row. Each row is compared as one opaque bytes key, which
    np.unique sorts faster than it sorts rows with axis=0."""
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return rows[first], inverse


class TokenEmbedding(LayerModule):
    """Concatenation of the selected per-token feature embeddings.

    Styles: word vectors (optionally warm-started from a file), a char CNN
    with highway layers, gazetteer feature embeddings and capitalization
    embeddings. A dim of 0 disables a style; at least one must be active.
    Draw order at init is word, char table, char filters by width, highway
    layers, gazetteer, capitalization.

    The char CNN runs once per distinct token of a padded batch (one whose
    padded_lengths are not None): the char table, convs and highway see the
    distinct char-id rows, all padding tokens sharing one all-PAD row, and a
    row gather puts each result back at its positions. The forward values
    are those of the dense pass, bit for bit; only the char.* gradients are
    summed in another order. An unpadded batch (single-example prediction,
    the export trace) runs every token row densely, as the graph does.
    """

    def __init__(self, name, config, vocabs: VocabBundle, rng):
        super().__init__(name)
        self.word_dim, self.char_dim, self.gaz_dim, self.cap_dim = (
            config[style + "_dim"] for style in ("word", "char", "gaz", "cap"))
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

    def _char_forward(self, char_ids, lengths):
        b, t, c = char_ids.shape
        if lengths is None:
            # one row of characters per token: [b, t, c] ids -> [b*t, c, cd]
            emb = ops.reshape(ops.embedding_lookup(self.char_table, char_ids),
                              (b * t, c, self.char_dim))
            return ops.reshape(self._char_rows(emb), (b, t, self.char_out))
        # padded: the distinct rows only, every padding token being one
        # all-PAD row, then each row gathered back to its positions
        rows, at = _distinct_rows(char_ids.reshape(b * t, c))
        out = self._char_rows(ops.embedding_lookup(self.char_table, rows))
        return ops.embedding_lookup(out, at.reshape(b, t))

    def _char_rows(self, emb):
        """The conv, max pool and highway stack over unpadded char embeddings [n, c, cd]."""
        out = ops.concat([ops.conv1d_maxpool(emb, filt, None) for filt in self.char_conv])
        for layer in self.highway:
            out = ops.highway(out, *layer)
        return out

    def forward(self, batch: Batch) -> Tensor:
        parts = []
        if self.word_dim:
            parts.append(ops.embedding_lookup(self.word_table, batch.token_ids))
        if self.char_dim:
            parts.append(self._char_forward(batch.char_ids, batch.padded_lengths))
        if self.gaz_dim:
            parts.append(ops.embedding_lookup(self.gaz_table, batch.dense_feats["gaz"]))
        if self.cap_dim:
            parts.append(ops.embedding_lookup(self.cap_table, batch.dense_feats["cap"]))
        return ops.concat(parts)


class BiLSTMModule(LayerModule):
    """Shared bidirectional LSTM trunk. Forget gate biases start at 1."""

    def __init__(self, name, config, in_dim, rng):
        super().__init__(name)
        hidden = config["hidden_dim"]
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

    def forward(self, emb: Tensor, lengths) -> Tensor:
        p = self._params
        fwd = ops.lstm_seq(emb, p["fwd.w_ih"], p["fwd.w_hh"], p["fwd.bias"], lengths)
        bwd = ops.lstm_seq(emb, p["bwd.w_ih"], p["bwd.w_hh"], p["bwd.bias"], lengths,
                           reverse=True)
        return ops.concat([fwd, bwd])


class Representation(LayerModule):
    """Base for the representations: a trunk, then a pooling.

    A subclass's trunk encodes the embedded tokens; pool is the identity
    unless a subclass pools the states. The joint heads pool one trunk's
    states. Both take the batch's padded_lengths. The kernels check the
    input width. A zero-length sequence runs the same path: the kernels give
    zeros, [b, out] when pooled and [b, 0, out] per token (sequence_output).
    """

    sequence_output = False

    def forward(self, emb: Tensor, lengths) -> Tensor:
        return self.pool(self.trunk(emb, lengths), lengths)

    def pool(self, states: Tensor, lengths) -> Tensor:
        return states


class DocNNRepresentation(Representation):
    """Parallel word-level convolutions, max pooled over time, concatenated."""

    def __init__(self, name, config, in_dim, rng):
        super().__init__(name)
        self.widths = list(config["filter_widths"])
        self.num_filters = config["num_filters"]
        self.filters = []
        for w in self.widths:
            scale = float(np.sqrt(1.0 / (w * in_dim)))
            self.filters.append(self.add_param(
                "conv%d" % w, _uniform(rng, (w, in_dim, self.num_filters), scale)))
        self.out_dim = self.num_filters * len(self.widths)

    def trunk(self, emb: Tensor, lengths) -> Tensor:
        pooled = [ops.conv1d_maxpool(emb, filt, lengths) for filt in self.filters]
        return ops.concat(pooled)


class BiLSTMTaggerRepresentation(Representation):
    """BiLSTM trunk kept per-token for word tagging."""

    sequence_output = True

    def __init__(self, name, config, in_dim, rng):
        super().__init__(name)
        self.bilstm = BiLSTMModule("bilstm", {"hidden_dim": config["hidden_dim"]}, in_dim, rng)
        self.out_dim = self.bilstm.out_dim

    def children(self):
        return {"bilstm": self.bilstm}

    def trunk(self, emb: Tensor, lengths) -> Tensor:
        return self.bilstm.forward(emb, lengths)


class BiLSTMAttnRepresentation(BiLSTMTaggerRepresentation):
    """The tagger's BiLSTM trunk pooled by additive self attention over valid
    positions."""

    sequence_output = False

    def __init__(self, name, config, in_dim, rng):
        super().__init__(name, config, in_dim, rng)
        attn = config["attention_dim"]
        scale = float(np.sqrt(1.0 / self.out_dim))
        self.add_param("attn.w1", _uniform(rng, (self.out_dim, attn), scale))
        self.add_param("attn.w2", _uniform(rng, (attn,), float(np.sqrt(1.0 / attn))))

    def pool(self, states: Tensor, lengths) -> Tensor:
        p = self._params
        return ops.self_attention(states, p["attn.w1"], p["attn.w2"], lengths)


class MLPDecoder(LayerModule):
    """Affine stack with relu between hidden layers, projecting to classes."""

    def __init__(self, name, config, in_dim, n_classes, rng):
        super().__init__(name)
        dims = [in_dim] + list(config["hidden_dims"]) + [n_classes]
        self.n_layers = len(dims) - 1
        for i in range(self.n_layers):
            w, b = _affine_pair(rng, dims[i], dims[i + 1])
            self.add_param("w%d" % i, w)
            self.add_param("b%d" % i, b)

    def forward(self, rep: Tensor) -> Tensor:
        out = rep
        for i in range(self.n_layers):
            out = ops.linear(out, self._params["w%d" % i], self._params["b%d" % i])
            if i < self.n_layers - 1:
                out = ops.relu(out)
        return out


@dataclass
class ModelOutput:
    preds: np.ndarray
    scores: np.ndarray
    loss: Optional[Tensor]


class ClassifierOutput(LayerModule):
    """Scores and predictions from logits per text [b, c] or per token [b, t, c]
    (sequence_output), and the cross-entropy loss over valid positions given labels."""

    def forward(self, logits: Tensor, labels, mask) -> ModelOutput:
        ndim, shape = (3, "[b, t, c]") if self.sequence_output else (2, "[b, c]")
        if logits.data.ndim != ndim:
            raise ShapeMismatch("%s expects %s logits, got %s" % (self.name, shape, logits.shape))
        scores = ops.softmax(logits)
        # argmax reads the logits: equal logits stay equal after softmax, but
        # distinct ones can round to a tie in f32 probability space
        preds = ops.argmax(logits)
        loss = None
        if labels is not None and self.sequence_output:
            b, t, c = logits.data.shape
            flat = ops.reshape(logits, (b * t, c))
            loss = ops.softmax_cross_entropy(flat, labels.reshape(-1), mask.reshape(-1))
        elif labels is not None:
            loss = ops.softmax_cross_entropy(logits, labels)
        return ModelOutput(preds, scores, loss)


class DocClassificationOutput(ClassifierOutput):
    sequence_output = False

    def __init__(self, name="doc_classification"):
        super().__init__(name)


class WordTaggingOutput(ClassifierOutput):
    sequence_output = True

    def __init__(self, name="word_tagging"):
        super().__init__(name)


class SingleTaskModel(LayerModule):
    """Embedding -> representation -> decoder -> output."""

    def __init__(self, embedding, representation, decoder, output):
        super().__init__("model")
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
        return self.head(batch, self.trunk(batch), compute_loss)

    def trunk(self, batch: Batch) -> Tensor:
        """The embedding and the representation's trunk: the states that
        the joint heads share."""
        return self.representation.trunk(self.embedding.forward(batch), batch.padded_lengths)

    def head(self, batch: Batch, states: Tensor, compute_loss=True) -> ModelOutput:
        """The representation's pooling, the decoder and the output over a
        trunk's states."""
        logits = self.decoder.forward(self.representation.pool(states, batch.padded_lengths))
        labels = None
        if compute_loss:
            labels = batch.word_labels if self.output.sequence_output else batch.doc_labels
        return self.output.forward(logits, labels, batch.mask)


class MultiTaskModel(LayerModule):
    """Named single-task heads whose modules may be shared by reference.

    The heads are its children, in task order, so a module that two heads
    share by reference is named once, under the first head that holds it:
    the joint trunk is doc.embedding.* and doc.representation.bilstm.*, and
    word.* holds only the word head's own parameters.
    """

    def __init__(self, tasks, loss_weights):
        if len(tasks) < 2:
            raise MultiTaskArity("multi-task model needs at least 2 tasks")
        super().__init__("model")
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

    def forward_all(self, batch: Batch) -> dict:
        """Every head's output for a batch, without losses, from one trunk pass.

        Only for heads that share their whole trunk, as build_model's joint
        heads share the embedding and the BiLSTM: the first head's states
        then serve every head.
        """
        states = self.tasks[self.task_names[0]].trunk(batch)
        return {name: head.head(batch, states, compute_loss=False)
                for name, head in self.tasks.items()}
