"""End-to-end benchmark of textforge: train -> export -> load -> serve, per workload.

One workload, one fresh process:

    python3 perfbench/run.py --workload doc_cnn --seed 1 --seconds 25 --trace 0

prints every end-to-end metric with its unit and, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. Timings are
scaled to a fixed host speed (calibrate.py); the wall-clock figures are
printed beside them. With --trace 1
the same lifecycle runs with spans around textforge's public functions and
the metrics are the per-layer ones instead. The exit code is 1 when any
operation failed (a served prediction that is not bit-identical to eager,
an export that verify_equivalence rejects, a training run below its score
floor) and 2 when the benchmark cannot run at all.

All workloads, each untraced and then traced, each in its own process:

    python3 perfbench/run.py --workload all --seed 1 --seconds 25 [--out FILE]

The program is imported from ../src next to this directory; nothing needs
building. Scratch files go to .perfbench_work/ in the repository root.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# name -> unit, in the order they are printed; matches BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "train_examples_per_s": "ex/s",
    "eval_score": "score",
    "export_s": "s",
    "graph_bytes": "B",
    "load_ms": "ms",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "eager_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

CHILD_TIMEOUT_S = 600


def _import_program():
    """Put ../src first on sys.path and import textforge from there only."""
    if not os.path.isfile(os.path.join(SRC, "textforge", "__init__.py")):
        print("perfbench: no textforge sources at %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import textforge
    if not os.path.abspath(textforge.__file__).startswith(SRC + os.sep):
        print("perfbench: textforge imported from %s, not %s" % (textforge.__file__, SRC),
              file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "clients": 1,
        "loop": "closed",
    }


def _fmt(value) -> str:
    return "%.6g" % value if isinstance(value, float) else str(value)


def run_one(args) -> int:
    _import_program()
    import calibrate
    import lifecycle
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.instrument(tracer)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-s%d-" % (workload.name, args.seed), dir=WORK)
    try:
        result = lifecycle.run(workload, args.seed, args.seconds, workdir, tracer)
        layers = {}
        if tracer is not None:
            tracer.uninstall()
            layers = lifecycle.per_layer(tracer, result)
            ratio = layers["trace.serve_reconcile_ratio"][0]
            off = abs(ratio - 1.0) > lifecycle.RECONCILE_TOLERANCE
            result["by_kind"]["reconcile"] = {"attempted": 1, "failed": int(off)}
            result["attempted"] += 1
            result["failed"] += off
            if off:
                result["failures"].append("serve self times sum to %.4f of request time"
                                          % ratio)
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            trace_path = os.path.join(WORK, "traces", "%s-seed%d.npz"
                                      % (workload.name, args.seed))
            tracer.write(trace_path)
            result["trace_file"] = os.path.relpath(trace_path, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result["failed_frac"] = result["failed"] / result["attempted"]
    result["trace"] = bool(args.trace)
    result["per_layer"] = layers
    result["environment"] = environment()
    result["workload_why"] = workload.why
    result["should_move"] = list(workload.moves)
    result["should_not_move"] = list(workload.still)
    if args.result_file:
        with open(args.result_file, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)

    print("workload %s  seed %d  %gs  trace %d  (%s)"
          % (workload.name, args.seed, args.seconds, args.trace, workload.why))
    print("traffic: " + "  ".join("%s=%s" % (k, _fmt(v))
                                  for k, v in result["traffic"].items()))
    wall = result["end_to_end_wall"]
    print("%-22s %14s %-6s %14s" % ("", "at ref. speed", "", "wall clock"))
    for name, unit in END_TO_END.items():
        print("%-22s %14s %-6s %14s" % (name, _fmt(result["end_to_end"][name]), unit,
                                        _fmt(wall[name]) if name in wall else ""))
    print("%-22s %14s ratio  (%d failed of %d attempted: %s)"
          % ("failed_frac", _fmt(result["failed_frac"]), result["failed"],
             result["attempted"], ", ".join("%s %d/%d" % (k, v["failed"], v["attempted"])
                                            for k, v in result["by_kind"].items())))
    for note in result["failures"]:
        print("FAILED: " + note)
    if layers:
        print("per-layer (self times exclude child spans; flops computed from "
              "argument shapes, not hardware counters):")
        for name, (value, unit) in layers.items():
            print("  %-34s %14s %s" % (name, _fmt(value), unit))
    env = result["environment"]
    print("machine: %s, nproc %s, numpy %s, %s, threads %s"
          % (env["platform"], env["nproc"], env["numpy"], env["blas"],
             ",".join("%s=%s" % kv for kv in env["threads"].items())))
    speed = result["machine_speed"]
    print("host speed while running: reference work median %.3f ms, best %.3f ms, "
          "worst %.3f ms (%d samples; timings are scaled to %.3f ms, see calibrate.py)"
          % (speed["reference_work_median_ms"], speed["reference_work_min_ms"],
             speed["reference_work_max_ms"], speed["samples"], calibrate.REFERENCE_NS / 1e6))

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, one fresh process each."""
    from workloads import WORKLOADS
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            path = os.path.join(WORK, "results", "%s-seed%d-trace%d.json"
                                % (name, args.seed, trace))
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--result-file", path]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            print(proc.stdout)
            if proc.returncode != 0:
                print("perfbench: %s --trace %d exited %d" % (name, trace, proc.returncode))
                status = 1
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as handle:
                    runs[trace] = json.load(handle)
        if len(runs) < 2:
            continue
        plain, traced = runs[0], runs[1]
        summary["workloads"][name] = {
            "end_to_end": plain["end_to_end"],
            "traced_end_to_end": traced["end_to_end"],
            "tracing_overhead_frac": {key: traced["end_to_end"][key] / value - 1.0
                                      for key, value in plain["end_to_end"].items()},
            "per_layer": traced["per_layer"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "by_kind": {"untraced": plain["by_kind"], "traced": traced["by_kind"]},
            "traffic": plain["traffic"],
            "counts": plain["counts"],
            "machine_speed": plain["machine_speed"],
            "environment": plain["environment"],
            "why": plain["workload_why"],
            "should_move": plain["should_move"],
            "should_not_move": plain["should_not_move"],
        }

    results = summary["workloads"]
    names = list(results)
    print("== summary: seed %d, %gs measurement window per run ==" % (args.seed, args.seconds))
    print("%-22s %-6s " % ("metric", "unit") + " ".join("%14s" % n for n in names))
    for key, unit in END_TO_END.items():
        print("%-22s %-6s " % (key, unit) + " ".join(
            "%14s" % _fmt(results[n]["end_to_end"][key]) for n in names))
    print("%-22s %-6s " % ("failed_frac", "ratio") + " ".join(
        "%14s" % ("%d/%d" % (results[n]["failed"], results[n]["attempted"])) for n in names))
    print("%-22s %-6s " % ("serve reconcile", "ratio") + " ".join(
        "%14s" % _fmt(results[n]["per_layer"]["trace.serve_reconcile_ratio"][0])
        for n in names))
    print("tracing overhead, traced / untraced - 1:")
    for key in ("serve_p50_ms", "eager_p50_ms", "train_examples_per_s", "setup_s", "load_ms"):
        print("  %-27s " % key + " ".join(
            "%+13.1f%%" % (100 * results[n]["tracing_overhead_frac"][key]) for n in names))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if len(results) < len(WORKLOADS) or any(r["failed"] for r in results.values()):
        status = 1
    return status


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result-file", default="",
                        help="also write the full result, per-layer numbers included, as JSON")
    parser.add_argument("--out", default="", help="with --workload all: write the summary here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
