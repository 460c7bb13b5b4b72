#!/usr/bin/env python3
"""qobt benchmark: time to a certified reduced model, with the accuracy of the same run.

    python3 perfbench/run.py --workload msd600 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each run prints every metric by name and unit with its median, tail
percentile and sample count, writes one JSON run record under
``.perfbench/runs/``, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See ``perfbench/README.md`` for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: on two shared CPUs a second OpenBLAS thread made a
# small_batch pass take 0.6 to 6.4 s, against a steady 0.16 s with one.
BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# name: (unit, better, how the run's samples become its value)
END_TO_END = {
    "setup_s": ("s", "lower", "median"),
    "reduce_s": ("s", "lower", "median"),
    "certify_s": ("s", "lower", "median"),
    "pipeline_s": ("s", "lower", "median"),
    "cli_flow_s": ("s", "lower", "median"),
    "peak_rss_mb": ("MB", "lower", "median"),
    "rom_err_digits": ("digits", "higher", "worst"),
    "resid_digits": ("digits", "higher", "worst"),
}

PER_LAYER = {
    "bench.generate_s": "s", "bench.self_s": "s", "bench.trace_overhead_s": "s",
    "spectral.separate_s": "s", "spectral.resid_max": "rel", "spectral.cond_max": "ratio",
    "gramians.controllability_s": "s", "gramians.observability_s": "s",
    "gramians.self_s": "s", "gramians.resid_max": "rel",
    "reduce.balance_s": "s", "reduce.r_p": "count", "reduce.r_i": "count",
    "reduce.redecoupled": "count",
    "simulate.full_s": "s", "simulate.rom_s": "s", "simulate.self_s": "s",
    "simulate.samples": "count",
    "bound.error_bound_s": "s", "bound.unsound": "count",
    "model.save_s": "s", "model.load_s": "s", "model.self_s": "s",
    "model.bytes_written": "B",
    "cli.startup_s": "s", "cli.hsv_s": "s", "cli.reduce_s": "s", "cli.simulate_s": "s",
    "cli.bound_s": "s", "cli.verify_s": "s", "cli.self_s": "s", "cli.exit_nonzero": "count",
}

WORKLOADS = ("msd600", "small_batch", "cli_stokes15")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_blas_threads() -> int:
    """Fix the BLAS thread count for this process and its children; call before numpy loads."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads: int, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": threads, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "seed": seed, "commit": git_commit(),
    }


def tail(samples: list[float], better: str) -> tuple[float, float] | None:
    """The worst-side percentile with at least ten samples beyond it, as (rank, value)."""
    n = len(samples)
    if n < 11:
        return None
    s = sorted(samples)
    if better == "lower":
        return 100.0 * (n - 10) / n, s[n - 11]
    return 100.0 * 10 / n, s[10]


def end_to_end(samples: dict[str, list[float]]) -> dict[str, float]:
    values = {}
    for name, (_, _, how) in END_TO_END.items():
        xs = samples[name]
        values[name] = (min(xs) if how == "worst" else statistics.median(xs)) if xs else 0.0
    return values


def per_layer(spans: list[dict], run, main_root: str) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of a traced run, and the self-time accounting of its main units."""
    from tracer import units

    def median_of(us, key):
        vals = [key(u) for u in us]
        return statistics.median(vals) if vals else 0.0

    def call(us, name):
        return median_of(us, lambda u: u["calls"].get(name, 0.0))

    def own(us, layer):
        return median_of(us, lambda u: u["self"].get(layer, 0.0))

    passes, flows = units(spans, "bench.pass"), units(spans, "bench.flow")
    model, main = units(spans, "bench.model_probe"), units(spans, main_root)
    untraced, traced = run.overhead
    m = {
        "bench.generate_s": call(units(spans, "bench.setup"), "bench.generate"),
        "bench.self_s": own(main, "bench"),
        "bench.trace_overhead_s": statistics.median(traced) - statistics.median(untraced),
        "spectral.separate_s": call(passes, "spectral.separate"),
        "gramians.controllability_s": call(passes, "gramians.controllability"),
        "gramians.observability_s": call(passes, "gramians.observability"),
        "gramians.self_s": own(passes, "gramians"),
        "reduce.balance_s": call(passes, "reduce.balance"),
        "simulate.full_s": call(passes, "simulate.full"),
        "simulate.rom_s": call(passes, "simulate.rom"),
        "simulate.self_s": own(passes, "simulate"),
        "bound.error_bound_s": call(passes, "bound.error_bound"),
        "model.save_s": call(model, "model.save"),
        "model.load_s": call(model, "model.load"),
        "model.self_s": own(model, "model"),
        "cli.startup_s": call(units(spans, "bench.startup_probe"), "cli.startup"),
        "cli.self_s": own(flows, "cli"),
    }
    for sub in ("hsv", "reduce", "simulate", "bound", "verify"):
        m[f"cli.{sub}_s"] = call(flows, f"cli.{sub}")
    m.update(run.counts)
    layers = sorted({layer for u in main for layer in u["self"]})
    accounting = {
        "unit": main_root, "units": len(main),
        "unit_s": statistics.mean(u["total"] for u in main),
        "self_s": {layer: statistics.mean(u["self"].get(layer, 0.0) for u in main)
                   for layer in layers},
        "traced_e2e_s": statistics.mean(traced),
        "untraced_e2e_s": statistics.mean(untraced),
    }
    return {name: m[name] for name in PER_LAYER}, accounting


def report(args, env, run, log, values, layers, accounting) -> None:
    print(f"qobt benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']['name']} {env['blas']['version']}, {env['blas_threads']} BLAS threads, "
          f"nproc {env['nproc']}, commit {env['commit']}")
    print(f"operations: {log.attempted} attempted, {len(log.failures)} failed")
    for failure in log.failures:
        print(f"  FAILED {failure}")
    print(f"{'metric':<16} {'value':>12} {'unit':<7} {'median':>12} {'tail':>22} {'n':>4}")
    for name, (unit, better, _) in END_TO_END.items():
        xs = run.samples[name]
        med = statistics.median(xs) if xs else float("nan")
        t = tail(xs, better)
        tail_text = f"p{t[0]:.0f} {t[1]:.6g}" if t else "n<11"
        print(f"{name:<16} {values[name]:>12.6g} {unit:<7} {med:>12.6g} {tail_text:>22} "
              f"{len(xs):>4}")
    if layers:
        print("per-layer (traced run; times are medians per unit):")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<28} {layers[name]:>12.6g} {unit}")
        a = accounting
        parts = ", ".join(f"{k} {v:.4g}" for k, v in a["self_s"].items())
        print(f"self time per traced {a['unit']} ({a['units']} units): {parts}; "
              f"sum {sum(a['self_s'].values()):.6g} s of {a['unit_s']:.6g} s; "
              f"traced e2e {a['traced_e2e_s']:.6g} s vs untraced {a['untraced_e2e_s']:.6g} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads()
    if not (SRC / "qobt" / "__init__.py").is_file():
        print(f"error: no qobt sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import qobt

    if SRC not in Path(qobt.__file__).resolve().parents:
        print(f"error: qobt was imported from {qobt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import NullTracer, Tracer

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id) if args.trace else NullTracer()
    work = OUT / "work" / run_id
    work.mkdir(parents=True)
    log, cli = workloads.OperationLog(), workloads.Cli(SRC)
    try:
        if args.workload == "cli_stokes15":
            run = workloads.run_cli(args.seconds, tracer, NullTracer(), work, cli, log)
        else:
            run = workloads.run_inprocess(args.workload, args.seed, args.seconds, tracer,
                                          NullTracer(), work, cli, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(threads, args.seed)
    values = end_to_end(run.samples)
    layers, accounting = {}, {}
    if args.trace:
        main_root = "bench.flow" if args.workload == "cli_stokes15" else "bench.pass"
        layers, accounting = per_layer(tracer.spans, run, main_root)
    report(args, env, run, log, values, layers, accounting)

    record = {
        "run": run_id, "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "attempted": log.attempted, "failures": log.failures,
        "end_to_end": {name: {"value": values[name], "unit": END_TO_END[name][0],
                              "samples": run.samples[name]} for name in END_TO_END},
        "per_layer": {name: {"value": v, "unit": PER_LAYER[name]} for name, v in layers.items()},
        "accounting": accounting, "systems": run.systems, "spans": tracer.spans,
    }
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{run_id}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    if args.trace:
        metrics = {name: {"value": v, "unit": PER_LAYER[name]} for name, v in layers.items()}
    else:
        metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]}
                   for name in END_TO_END}
    print(json.dumps({"correct": not log.failures, "attempted": log.attempted,
                      "failed": len(log.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
