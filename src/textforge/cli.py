"""Command line entry points: train, predict, export, bench.

Exit codes: 0 success, 1 for configuration or input problems the user can
fix, 2 for internal failures.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import bench, binio
from .data_handler import read_lines, text_lines
from .errors import (ExportMismatch, NonFiniteScores, SchemaViolation, TextForgeError,
                     TextTooLong)
from .exporter import export_pipeline, sample_texts, verify_equivalence
from .graph import Executor, load_graph, run, save_graph
from .pipeline import instantiate_task, prediction_json, restore_pipeline
from .registry import parse_task_config
from .trainer import derive_rng, load_checkpoint, train


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; user mistakes should be 1
    def error(self, message):
        raise _UsageError("%s\n%s" % (message, self.format_usage().rstrip()))


def _int_at_least(low: int):
    """An argparse type: an int no smaller than low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="textforge",
                     description="Config driven text model training and export.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="train a model from a task config")
    p.add_argument("--config", required=True, help="task config (json)")
    p.add_argument("--out-dir", default=".", help="where model.ckpt and reports go")
    p.add_argument("--resume", default="", help="checkpoint to continue from")

    p = sub.add_parser("predict", help="read texts on stdin, print one json per line")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", default="", help="exported graph file")
    src.add_argument("--ckpt", default="", help="checkpoint file (eager inference)")
    p.add_argument("--input", default="", help="text file, one example per line; default stdin")

    p = sub.add_parser("export", help="trace a trained checkpoint into a static graph")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--out", required=True, help="graph file to write")

    p = sub.add_parser("bench", help="compare eager and exported single-example latency")
    p.add_argument("--ckpt", required=True, help="checkpoint file for the eager side")
    p.add_argument("--graph", required=True, help="exported graph file")
    p.add_argument("--requests", type=_int_at_least(1), default=1000)
    p.add_argument("--warmup", type=_int_at_least(0), default=50)
    p.add_argument("--out", default="", help="also write the numbers as json")
    return parser


def _env_seed():
    raw = os.environ.get("TEXTFORGE_SEED")
    if raw is None:
        return None
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise SchemaViolation("TEXTFORGE_SEED must be a non-negative integer, got %r" % raw)
    return seed


def cmd_train(args) -> int:
    config = parse_task_config("\n".join(read_lines(args.config)))
    pipe = instantiate_task(config, seed_override=_env_seed())

    resume = None
    if args.resume:
        resume = load_checkpoint(args.resume)
        if resume["config"] != pipe.config_text:
            raise SchemaViolation(
                "resume checkpoint was trained with a different configuration")
        # changed data files give other tables or labels than the trained rows
        if resume.vocabs != pipe.vocabs:
            raise SchemaViolation("resume checkpoint has other vocabularies than the data")
        if resume["labels"] != pipe.labels:
            raise SchemaViolation("resume checkpoint has other labels than the data")

    os.makedirs(args.out_dir, exist_ok=True)
    ckpt_path = os.path.join(args.out_dir, "model.ckpt")
    result = train(pipe, ckpt_path=ckpt_path, resume=resume, echo=print)

    report = {"task": pipe.task, "checkpoint": ckpt_path}
    report.update(result.payload())
    binio.write_file(os.path.join(args.out_dir, "train_report.json"),
                     (json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
    lines = ["task: %s" % pipe.task]
    for rec in result.history:
        lines.append("epoch %d: train_loss=%.6f score=%.4f" %
                     (rec.epoch, rec.train_loss, rec.score))
    lines.append("best epoch %d score %.4f%s" %
                 (result.best_epoch, result.best_score,
                  " (stopped early)" if result.stopped_early else ""))
    binio.write_file(os.path.join(args.out_dir, "train_report.txt"),
                     ("\n".join(lines) + "\n").encode())
    print(lines[-1])
    print("checkpoint: %s" % ckpt_path)
    return 0


def _graph_predictor(graph):
    """Text -> prediction JSON through an exported graph, as pipe.predict
    gives it eagerly."""
    ex = Executor(graph)
    task, labels = graph.attrs["task"], graph.attrs["labels"]

    def predict(text):
        res = run(ex, text)
        return prediction_json(task, labels, res["pred"], res["scores"])
    return predict


def _eager_predictor(pipe, task=None):
    """Text -> eager prediction JSON; given a task, a joint checkpoint
    predicts only that task's head, as the head's exported graph does."""
    def predict(text):
        return pipe.predict(pipe.featurizer.featurize(text), task)
    return predict


def cmd_predict(args) -> int:
    lines = (read_lines(args.input) if args.input
             else text_lines(sys.stdin.buffer.read(), "stdin"))
    predict = (_graph_predictor(load_graph(args.graph)) if args.graph
               else _eager_predictor(restore_pipeline(load_checkpoint(args.ckpt), use_best=True)))
    for number, line in enumerate(lines, 1):
        try:
            result = predict(line)
        except TextTooLong as exc:
            raise TextTooLong("input line %d: %s" % (number, exc)) from None
        try:
            text = json.dumps(result, allow_nan=False)
        except ValueError:  # NaN and Infinity are not JSON
            raise NonFiniteScores("input line %d: the model gives a score that is not finite"
                                  % number) from None
        print(text)
    return 0


def _head_path(out_path: str, head: str) -> str:
    root, ext = os.path.splitext(out_path)
    return "%s.%s%s" % (root, head, ext or ".graph")


def cmd_export(args) -> int:
    """Write the graphs only once each matches eager inference bit for bit."""
    pipe = restore_pipeline(load_checkpoint(args.model), use_best=True)
    graphs = export_pipeline(pipe)
    if not isinstance(graphs, dict):
        graphs = {"": graphs}
    checked = {}
    for head, graph in graphs.items():
        report = verify_equivalence(pipe, graph, n_samples=20,
                                    seed=pipe.settings.seed, head=head or None)
        if not report.finite:
            raise NonFiniteScores("%s: eager inference gives scores that are not finite: the "
                                  "model's weights overflow its forward pass; no graph written"
                                  % (head or pipe.task))
        if not report.within(0.0):
            raise ExportMismatch("exported %s graph differs from eager inference (max score "
                                 "dev %.3g, predictions agree: %s); no graph written"
                                 % (head or pipe.task, report.max_abs_dev, report.argmax_agree))
        checked[head] = report.n_samples
    for head, graph in graphs.items():
        path = _head_path(args.out, head) if head else args.out
        save_graph(graph, path)
        print("wrote %s  (checked %d examples: max score dev 0, predictions ok)"
              % (path, checked[head]))
    return 0


def cmd_bench(args) -> int:
    pipe = restore_pipeline(load_checkpoint(args.ckpt), use_best=True)
    graph = load_graph(args.graph)
    texts = sample_texts(pipe.vocabs.token, args.requests, derive_rng(0, 3))
    reports = bench.latency_reports({"eager": _eager_predictor(pipe, graph.attrs["task"]),
                                     "exported": _graph_predictor(graph)},
                                    texts, warmup=args.warmup)
    print(bench.format_reports(reports))
    if args.out:
        binio.write_file(args.out,
                         (json.dumps([r.payload() for r in reports], indent=2) + "\n").encode())
    return 0


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "export": cmd_export,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # numpy's overflow warnings would only repeat what the checks report:
        # the loss check, NonFiniteScores, allow_nan=False and the readers
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print("textforge: %s" % exc, file=sys.stderr)
        return 1
    except (TextForgeError, OSError) as exc:
        print("textforge: error: %s" % exc, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print("textforge: internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
