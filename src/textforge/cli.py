"""Command line entry points: train, predict, export, bench.

Exit codes: 0 success, 1 for configuration or input problems the user can
fix, 2 for internal failures.
"""

import argparse
import json
import os
import sys

from . import bench
from .errors import SchemaViolation, TextForgeError
from .exporter import export_pipeline, verify_equivalence
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

    p = sub.add_parser("export", help="lower a trained checkpoint to a static graph")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--out", required=True, help="graph file to write")
    p.add_argument("--no-bake-vocab", action="store_true",
                   help="keep integer id inputs instead of baking vocabularies")

    p = sub.add_parser("bench", help="compare eager and exported single-example latency")
    p.add_argument("--ckpt", required=True, help="checkpoint file for the eager side")
    p.add_argument("--graph", required=True, help="exported graph file")
    p.add_argument("--requests", type=int, default=1000)
    p.add_argument("--warmup", type=int, default=50)
    p.add_argument("--out", default="", help="also write the numbers as json")
    return parser


def _env_seed():
    raw = os.environ.get("TEXTFORGE_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise SchemaViolation("TEXTFORGE_SEED must be an integer, got %r" % raw)


def cmd_train(args) -> int:
    with open(args.config, encoding="utf-8") as handle:
        config = parse_task_config(handle.read())
    pipe = instantiate_task(config, seed_override=_env_seed())

    resume = None
    if args.resume:
        resume = load_checkpoint(args.resume)
        if resume["config"] != pipe.config_text:
            raise SchemaViolation(
                "resume checkpoint was trained with a different configuration")

    os.makedirs(args.out_dir, exist_ok=True)
    ckpt_path = os.path.join(args.out_dir, "model.ckpt")
    result = train(pipe, ckpt_path=ckpt_path, resume=resume, echo=print)

    report = {"task": pipe.task, "checkpoint": ckpt_path}
    report.update(result.payload())
    with open(os.path.join(args.out_dir, "train_report.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    lines = ["task: %s" % pipe.task]
    for rec in result.history:
        lines.append("epoch %d: train_loss=%.6f score=%.4f" %
                     (rec.epoch, rec.train_loss, rec.score))
    lines.append("best epoch %d score %.4f%s" %
                 (result.best_epoch, result.best_score,
                  " (stopped early)" if result.stopped_early else ""))
    with open(os.path.join(args.out_dir, "train_report.txt"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(lines[-1])
    print("checkpoint: %s" % ckpt_path)
    return 0


def _input_lines(args):
    if args.input:
        with open(args.input, encoding="utf-8") as handle:
            return [line.rstrip("\n") for line in handle]
    return [line.rstrip("\n") for line in sys.stdin]


def cmd_predict(args) -> int:
    lines = _input_lines(args)
    if args.graph:
        graph = load_graph(args.graph)
        ex = Executor(graph)
        for line in lines:
            res = run(ex, line)
            print(json.dumps(prediction_json(graph.attrs["task"], graph.attrs["labels"],
                                             res["pred"], res["scores"])))
        return 0
    pipe = restore_pipeline(load_checkpoint(args.ckpt), use_best=True)
    for line in lines:
        print(json.dumps(pipe.predict(pipe.featurizer.featurize(line))))
    return 0


def _head_path(out_path: str, head: str) -> str:
    root, ext = os.path.splitext(out_path)
    return "%s.%s%s" % (root, head, ext or ".graph")


def cmd_export(args) -> int:
    pipe = restore_pipeline(load_checkpoint(args.model), use_best=True)
    bake = not args.no_bake_vocab
    graphs = export_pipeline(pipe, bake=bake)
    if not isinstance(graphs, dict):
        graphs = {"": graphs}
    for head, graph in graphs.items():
        path = _head_path(args.out, head) if head else args.out
        save_graph(graph, path)
        report = verify_equivalence(pipe, graph, n_samples=20,
                                    seed=pipe.settings.seed, head=head or None)
        status = "ok" if report.argmax_agree else "MISMATCH"
        print("wrote %s  (checked %d examples: max score dev %.3g, predictions %s)"
              % (path, report.n_samples, report.max_abs_dev, status))
    return 0


def _bench_texts(n: int) -> list:
    rng = derive_rng(0, 3)
    texts = []
    for _ in range(n):
        words = ["".join(chr(ord("a") + int(c))
                         for c in rng.integers(0, 26, size=int(rng.integers(2, 9))))
                 for _ in range(int(rng.integers(3, 10)))]
        texts.append(" ".join(words))
    return texts


def cmd_bench(args) -> int:
    pipe = restore_pipeline(load_checkpoint(args.ckpt), use_best=True)
    graph = load_graph(args.graph)
    ex = Executor(graph)
    texts = _bench_texts(max(args.requests, 1))

    def eager_fn(text):
        return pipe.predict(pipe.featurizer.featurize(text))

    def graph_fn(text):
        return run(ex, text)

    reports = [
        bench.latency_report("eager", eager_fn, texts, warmup=args.warmup),
        bench.latency_report("exported", graph_fn, texts, warmup=args.warmup),
    ]
    print(bench.format_reports(reports))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump([r.payload() for r in reports], handle, indent=2)
            handle.write("\n")
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
