"""tdcae benchmark: one workload per invocation.

    python3 bench/run.py --workload fit|stream|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src. The run sets up SETUP_REPEATS times, then runs rounds of the
workload until S seconds have passed, checking every output. Times are
reported at a nominal machine speed (see speed.py). Human-readable
lines come first; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 every
layer function is wrapped and spans are recorded during set-up and during
every other round; the rounds in between run unwrapped, so the tracing
overhead is measured inside the same run. The metrics are then the
per-layer ones, per round (see bench/README.md). Full results, with an
environment stamp, go to bench/out/BENCH_<workload>_seed<N>_trace<T>.json
and spans to bench/out/trace_<workload>_seed<N>.npz.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Single caller on 32x8 matrices: BLAS threads only add noise. Set before
# numpy is imported, so that the BLAS library reads them.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

END_TO_END = {  # name -> unit; every workload reports all of them
    "setup_s": "s",
    "op_p50_nominal_ms": "ms",
    "peak_rss_mb": "MB",
    "s": "score",
    "s_ttd": "score",
    "s_clf": "score",
}

PER_LAYER = {  # metric -> (layer function or "nn", field, unit)
    "model.train.self_s": ("model.train", "self_s", "s"),
    "model.total_loss_grads.calls": ("model.total_loss_grads", "calls", "count"),
    "model.total_loss_grads.self_s": ("model.total_loss_grads", "self_s", "s"),
    "nn.forward.calls": ("nn.forward", "calls", "count"),
    "nn.forward.rows": ("nn.forward", "rows", "count"),
    "nn.forward.self_s": ("nn.forward", "self_s", "s"),
    "nn.forward.calls_per_batch": ("nn", "forward_calls_per_batch", "count"),
    "nn.forward.rows_per_batch": ("nn", "forward_rows_per_batch", "count"),
    "nn.backward.calls": ("nn.backward", "calls", "count"),
    "nn.backward.self_s": ("nn.backward", "self_s", "s"),
    "nn.encoder_rows_per_triple": ("nn", "encoder_rows_per_triple", "ratio"),
    "nn.flop_per_triple": ("nn", "flop_per_triple", "count"),
    "nn.computed_gflop_per_s": ("nn", "computed_gflop_per_s", "GFLOP/s"),
    "optim.adamax_step.calls": ("optim.adamax_step", "calls", "count"),
    "optim.adamax_step.self_s": ("optim.adamax_step", "self_s", "s"),
    "detect.detect.calls": ("detect.detect", "calls", "count"),
    "detect.detect.self_s": ("detect.detect", "self_s", "s"),
    "detect.reconstruction_error.self_s": ("detect.reconstruction_error", "self_s", "s"),
    "detect.smooth.self_s": ("detect.smooth", "self_s", "s"),
    "preprocess.apply_scaler.self_s": ("preprocess.apply_scaler", "self_s", "s"),
    "preprocess.make_triples.self_s": ("preprocess.make_triples", "self_s", "s"),
    "synth.simulate.s": ("synth.simulate", "s", "s"),
    "synth.simulate.hours_per_s": ("synth.simulate", "rows_per_s", "hours/s"),
    "metrics.evaluate_flags.self_s": ("metrics.evaluate_flags", "self_s", "s"),
}

# Layers only the cli workload exercises; printed and saved, but not part of
# the JSON line, because on fit and stream they would read 0 on every run.
CLI_ONLY = {
    "model.save_model.self_s": ("model.save_model", "self_s", "s"),
    "model.load_model.self_s": ("model.load_model", "self_s", "s"),
    "preprocess.load_csv.self_s": ("preprocess.load_csv", "self_s", "s"),
    "preprocess.load_csv.rows_per_s": ("preprocess.load_csv", "rows_per_s", "rows/s"),
    "preprocess.save_csv.self_s": ("preprocess.save_csv", "self_s", "s"),
    "svgplot.line_plot.calls": ("svgplot.line_plot", "calls", "count"),
    "svgplot.line_plot.self_s": ("svgplot.line_plot", "self_s", "s"),
    "cli.synth.s": ("cli.cmd_synth", "s", "s"),
    "cli.train.s": ("cli.cmd_train", "s", "s"),
    "cli.detect.s": ("cli.cmd_detect", "s", "s"),
    "cli.evaluate.s": ("cli.cmd_evaluate", "s", "s"),
    "cli.report.s": ("cli.cmd_report", "s", "s"),
}


def environment() -> dict:
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": commit,
        "machine": platform.machine(),
    }


def import_package() -> None:
    """Import tdcae from this checkout's src/, and only from there."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tdcae
        import tdcae.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"error: cannot import tdcae from {ROOT / 'src'}: {exc}")
    if Path(tdcae.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"error: tdcae was imported from {tdcae.__file__}")


def check_spec() -> None:
    """The metric names here must be the ones BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])
    if declared != (list(END_TO_END), [*PER_LAYER, "trace.overhead_ratio"]):
        raise SystemExit("error: metric names differ from BENCHMARK.json")


class Timings:
    """Wall and nominal-speed times of the set-ups and rounds of one run."""

    def __init__(self):
        self.setup = {"wall": [], "nominal": []}
        # Per side (traced or not): every op latency, and per round the
        # mean op latency at nominal speed. The mean, like the calibration
        # kernel's mean, integrates a slowdown over the round; the median of
        # stream's 120 us scores read 10% high when the machine was busy.
        self.ops = {False: [], True: []}
        self.rounds = {False: [], True: []}


def measure(workload, recorder, sampler, seconds: float) -> tuple[Timings, float]:
    """Set up SETUP_REPEATS times, then run rounds until `seconds` have passed.

    In a traced run set-up and odd rounds are traced and even rounds are
    not, so drift in machine speed hits both sides alike. Also returns the
    peak resident memory, read after the first round: later rounds repeat
    the same work, while the latency samples kept here grow with the number
    of rounds and would make a faster program read as a larger one.
    """
    t = Timings()
    for _ in range(SETUP_REPEATS):
        if recorder:
            recorder.install()
        started = perf_counter()
        with recorder.span("bench.setup") if recorder else contextlib.nullcontext():
            workload.setup()
        ended = perf_counter()
        if recorder:
            recorder.uninstall()
        t.setup["wall"].append(ended - started)
        t.setup["nominal"].append((ended - started) * sampler.scale(started, ended))

    min_rounds = max(workload.min_rounds, 2 if recorder else 1)
    begun = perf_counter()
    k = 0
    while k < min_rounds or perf_counter() - begun < seconds:
        traced = recorder is not None and k % 2 == 1
        if traced:
            recorder.run_id += 1
            recorder.install()
        started = perf_counter()
        try:
            with recorder.span("bench.round") if traced else contextlib.nullcontext():
                ops = workload.round(k)
        finally:
            if traced:
                recorder.uninstall()
        ended = perf_counter()
        if k == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        k += 1
        if not ops:
            continue
        t.ops[traced].extend(ops)
        t.rounds[traced].append(float(np.mean(ops)) * sampler.scale(started, ended))
    if not t.rounds[False]:
        raise SystemExit(f"error: no operation succeeded: {workload.problems[:1]}")
    return t, peak_rss_mb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "stream", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    check_spec()
    sys.path.insert(0, str(ROOT / "bench"))
    from speed import SpeedSampler

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        with SpeedSampler() as sampler:
            started = perf_counter()
            import_package()
            ended = perf_counter()
            import_s = (ended - started) * sampler.scale(started, ended)
            from tracing import SpanRecorder, summarize
            from workloads import WORKLOADS

            workload = WORKLOADS[args.workload](args.seed, workdir)
            recorder = SpanRecorder() if args.trace else None
            t, peak_rss_mb = measure(workload, recorder, sampler, args.seconds)
            quality, extras = workload.finish(t.ops[False])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    op_ms = 1e3 * float(np.median(t.rounds[False]))

    e2e = {
        "setup_s": import_s + float(np.median(t.setup["nominal"])),
        "op_p50_nominal_ms": op_ms,
        "peak_rss_mb": peak_rss_mb,
        **quality,
    }
    info = {
        "error_rate": (workload.failed / max(workload.attempted, 1), "ratio"),
        "setup_wall_s": (float(np.median(t.setup["wall"])), "s"),
        "op_p50_wall_ms": (1e3 * float(np.median(t.ops[False])), "ms"),
        "ops_timed": (len(t.ops[False]), "count"),
        "rounds": (len(t.rounds[False]) + len(t.rounds[True]), "count"),
        "kernel_mean_us": (1e6 * sampler.mean_kernel_s(), "us"),
        **extras,
    }

    if recorder:
        layers = summarize(recorder, SETUP_REPEATS, recorder.run_id)

        def pick(table):
            return {name: (layers.get(fn, {}).get(field, 0.0), unit)
                    for name, (fn, field, unit) in table.items()}

        traced_ms = 1e3 * float(np.median(t.rounds[True]))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in pick(PER_LAYER).items()}
        metrics["trace.overhead_ratio"] = {"value": traced_ms / op_ms, "unit": "ratio"}
        info["trace.op_p50_nominal_ms"] = (traced_ms, "ms")
        info["trace.spans"] = (len(recorder.start), "count")
        info.update(pick(CLI_ONLY))
        recorder.save(OUT / f"trace_{args.workload}_seed{args.seed}.npz")
        detail = {"layers": layers}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        detail = {}

    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "result": result,
              "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
              "problems": workload.problems, **detail}
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{workload.failed}/{workload.attempted} failed")
    for problem in workload.problems:
        print(f"  problem: {problem.strip()}")
    rows = {**{k: (m["value"], m["unit"]) for k, m in metrics.items()}, **info}
    for name, (value, unit) in rows.items():
        print(f"  {name:38s} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
