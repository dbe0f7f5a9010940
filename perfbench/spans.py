"""In-memory span tracing around textforge's public functions.

A span is (name, start, end, parent, request, phase). Spans live in flat
arrays while the benchmark runs and are written out once at the end. Self
time is a span's duration minus the part of it covered by its child spans.

Tracing works by replacing attributes at the name each caller looks up at
call time: module functions that are called through their module
(``kernels.lstm_seq``, ``graph.prepare_feed``, ``data_handler.load_tsv``),
names that a module imported into its own namespace (``graph.char_ids``,
``pipeline.single_example_batch``, ``pipeline.make_batches``) and methods
on classes. Nothing is patched unless a Tracer is installed, so untraced
runs execute the program unchanged.
"""

import time
from array import array
from collections import defaultdict

import numpy as np

NO_PARENT = -1


class Tracer:
    """Spans and counters of one process, kept in flat arrays."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.request = array("l")
        self.phase_id = array("l")
        self._stack = []
        self._phase = 0
        self.request_id = -1
        self.counts = defaultdict(float)       # (phase, counter) -> total
        self._undo = []

    def intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def set_phase(self, name: str):
        self._phase = self.intern(name)

    def begin(self, name_id: int) -> int:
        i = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.request.append(self.request_id)
        self.phase_id.append(self._phase)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i: int):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, counter: str, value=1):
        self.counts[(self._phase, counter)] += value

    def wrap(self, fn, name: str, counter=None):
        """fn wrapped in a span; counter(args) -> {name: value} is also recorded."""
        nid = self.intern(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(args).items():
                    self.count(key, value)
            i = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)
        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span_at(self, owner, attr: str, name: str, counter=None):
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name, counter))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.int64),
            "end": np.asarray(self.end, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "request": np.asarray(self.request, dtype=np.int64),
            "phase": np.asarray(self.phase_id, dtype=np.int64),
        }

    def write(self, path: str):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Duration minus the union of child intervals, clipped to the parent.

    Children of one parent are swept in start order; each contributes only
    the part not already covered by an earlier sibling, so overlapping
    children are not counted twice. Inputs are int arrays of equal length.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    n = len(start)
    dur = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return dur
    p = parent[kids]
    s = np.maximum(start[kids], start[p])
    e = np.minimum(end[kids], end[p])
    e = np.maximum(e, s)
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    # shift each parent's children onto their own stretch of the time axis
    # so one running maximum sweeps every group without leaking across them
    base = min(int(start.min()), int(s.min()))
    span = int(max(end.max(), e.max())) - base + 1
    group = np.concatenate(([0], np.cumsum(p[1:] != p[:-1])))
    offset = group * span - base
    s_k, e_k = s + offset, e + offset
    reach = np.maximum.accumulate(e_k)
    prev = np.concatenate(([np.iinfo(np.int64).min], reach[:-1]))
    covered = np.maximum(e_k - np.maximum(s_k, prev), 0)
    return dur - np.bincount(p, weights=covered, minlength=n).astype(np.int64)


def aggregate(tracer: Tracer):
    """Self ns and span counts per (phase, name), plus the raw arrays."""
    a = tracer.arrays()
    selfs = self_times(a["start"], a["end"], a["parent"])
    width = len(tracer.names)
    keys, inverse, n = np.unique(a["phase"] * width + a["name_id"],
                                 return_inverse=True, return_counts=True)
    ns = np.bincount(inverse, weights=selfs, minlength=len(keys))
    totals, calls = {}, {}
    for key, total, count in zip(keys.tolist(), ns.tolist(), n.tolist()):
        name = (tracer.names[key // width], tracer.names[key % width])
        totals[name] = total
        calls[name] = count
    return totals, calls, selfs, a


def _lstm_flops(args):
    # x [b, t, d], w_hh [h, 4h]: the two GEMMs per step, 2 flops per MAC
    x, w_hh = args[0], args[2]
    b, t, d = x.shape
    h4 = w_hh.shape[1]
    return {"kernels.lstm_seq.flops": 2 * b * t * h4 * (d + w_hh.shape[0])}


def _conv_flops(args):
    # x [b, t, d], filters [w, d, f]: one [t, w*d] x [w*d, f] GEMM per row
    x, filters = args[0], args[1]
    b, t, _ = x.shape
    w, d, f = filters.shape
    return {"kernels.conv_maxpool.flops": 2 * b * t * w * d * f}


def instrument(tracer: Tracer):
    """Patch spans and counters into textforge; tracer.uninstall() undoes it."""
    from textforge import (binio, data_handler, exporter, featurizer, graph, kernels,
                           model_zoo, pipeline, registry, tensor, trainer, vocab)

    for name in ("lstm_seq_backward", "conv_maxpool_backward", "sigmoid",
                 "self_attention", "highway"):
        tracer.span_at(kernels, name, "kernels." + name)
    tracer.span_at(kernels, "lstm_seq", "kernels.lstm_seq", _lstm_flops)
    tracer.span_at(kernels, "conv_maxpool", "kernels.conv_maxpool", _conv_flops)

    tracer.span_at(registry, "parse_task_config", "registry.parse_task_config")
    tracer.span_at(data_handler, "load_tsv", "data_handler.load_tsv")
    tracer.span_at(pipeline, "make_batches", "data_handler.make_batches")
    batch_one = tracer.wrap(data_handler.single_example_batch,
                            "data_handler.single_example_batch")
    tracer.patch(pipeline, "single_example_batch", batch_one)
    tracer.patch(exporter, "single_example_batch", batch_one)

    tracer.span_at(featurizer, "featurize", "featurizer.featurize")
    char_ids = tracer.wrap(featurizer.char_ids, "featurizer.char_ids")
    tracer.patch(featurizer, "char_ids", char_ids)
    tracer.patch(graph, "char_ids", char_ids)
    lookup = vocab.Vocabulary.lookup

    def counted_lookup(self, token):
        tracer.count("vocab.lookup.calls")
        return lookup(self, token)
    tracer.patch(vocab.Vocabulary, "lookup", counted_lookup)

    tracer.span_at(pipeline.Pipeline, "evaluate", "pipeline.evaluate")
    tracer.span_at(pipeline.Pipeline, "predict", "pipeline.predict")
    tracer.span_at(model_zoo.SingleTaskModel, "forward", "model_zoo.forward")
    tracer.span_at(tensor.Tensor, "backward", "tensor.backward")
    for opt in (trainer.Adam, trainer.SGD):
        tracer.span_at(opt, "step", "trainer.optimizer_step")
    tracer.span_at(trainer, "save_checkpoint", "trainer.save_checkpoint")
    tracer.span_at(binio, "encode", "binio.encode")
    tracer.span_at(binio, "decode", "binio.decode")

    tracer.span_at(exporter, "export_pipeline", "exporter.export_pipeline")
    tracer.span_at(exporter, "verify_equivalence", "exporter.verify_equivalence")
    tracer.span_at(graph, "save_graph", "graph.save_graph")
    tracer.span_at(graph, "load_graph", "graph.load_graph")
    tracer.span_at(graph.Executor, "__init__", "graph.executor_init")
    tracer.span_at(graph, "prepare_feed", "graph.prepare_feed")
    run_feed = tracer.wrap(graph.Executor.run_feed, "graph.run_feed",
                           lambda args: {"graph.ops": len(args[0].graph.ops)})
    tracer.patch(graph.Executor, "run_feed", run_feed)
