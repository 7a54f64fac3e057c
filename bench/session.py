"""One benchmark process: set up a workload, run timed rounds, write results.

Started by ``run.py``; not meant to be run by hand.  With ``--setup-only`` it
stops after set-up, which is how ``run.py`` samples set-up time more than
once per run.  ``--spawned-at`` is the parent's ``time.perf_counter()`` just
before it started this process (a system-wide monotonic clock on Linux), so
set-up time covers interpreter start, ``import sgdlab``, input generation and
construction of potentials and configs.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Rounds per run: at least two, so that every run reports a median (and a
#: traced run has an untraced and a traced round), then more while they fit.
MIN_ROUNDS = 2
MAX_ROUNDS = 50


def _import_sgdlab():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sgdlab

    if Path(sgdlab.__file__).resolve().parent != src / "sgdlab":
        raise SystemExit(f"imported sgdlab from {sgdlab.__file__}, not from {src}")
    return sgdlab


def environment() -> dict:
    import multiprocessing
    import platform

    import numpy
    import scipy

    import sgdlab

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "start_method": multiprocessing.get_start_method(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sgdlab": sgdlab.__version__,
        "platform": platform.platform(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_round(ops, tracer=None) -> dict:
    """Run every op once; time from the first op's start to the last op's end."""
    import tracing

    inst = tracing.install(tracer) if tracer is not None else None
    outputs = []
    try:
        t0 = time.perf_counter()
        for op in ops:
            idx = tracer.open("bench.op", {"op": op.name}) if tracer else None
            t_op = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                if tracer:
                    tracer.close(idx)
            outputs.append((out, error, time.perf_counter() - t_op))
        wall = time.perf_counter() - t0
    finally:
        if inst is not None:
            tracing.uninstall(inst)
    return {"wall_s": wall, "outputs": outputs}


def score_round(ops, raw) -> dict:
    """Checks, work counts and digests of one round's outputs (untimed)."""
    import workloads

    ops_out = []
    work = workloads.add_work({}, {})
    for op, (out, error, op_s) in zip(ops, raw["outputs"]):
        entry = {"op": op.name, "op_s": op_s, "error": error, "checks": [], "digest": None}
        if error is None:
            try:
                entry["checks"] = [[c[0], bool(c[1]), str(c[2])] for c in op.check(out)]
                entry["digest"] = op.digest(out)
                work = workloads.add_work(work, op.work(out))
            except Exception as exc:  # a result the checks cannot read is a failure
                entry["error"] = f"check: {type(exc).__name__}: {exc}"
        entry["failed"] = entry["error"] is not None or not all(c[1] for c in entry["checks"])
        ops_out.append(entry)
    return {"wall_s": raw["wall_s"], "ops": ops_out, "work": work}


def peak_rss_mb() -> dict:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"self": own, "children": children, "peak": max(own, children)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_sgdlab()
    import tracing
    import workloads

    workdir = Path(args.workdir)
    build = workloads.WORKLOADS[args.workload]
    ops = build(args.seed, workdir / "plain")
    traced_ops = None
    if args.trace:
        traced_ops = build(args.seed, workdir / "traced", potential=tracing.traced_potential)
    setup_s = time.perf_counter() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.setup_only:
        rounds = []
        t_first = time.perf_counter()
        while len(rounds) < MAX_ROUNDS:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            tracer = tracing.Tracer() if traced else None
            raw = run_round(traced_ops if traced else ops, tracer)
            scored = score_round(traced_ops if traced else ops, raw)
            del raw["outputs"]  # let the results go before the next round
            scored["traced"] = traced
            if traced:
                scored["layers"] = tracing.layer_metrics(tracer)
                trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
                trace_path.write_text(json.dumps(tracer.to_json()))
                scored["trace_file"] = str(trace_path)
            rounds.append(scored)
            elapsed = time.perf_counter() - t_first
            if len(rounds) >= MIN_ROUNDS and elapsed + raw["wall_s"] > args.seconds:
                break
        result["rounds"] = rounds
        result["rss_mb"] = peak_rss_mb()
        result["environment"] = environment()
        result["tolerances"] = workloads.TOLERANCES
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
