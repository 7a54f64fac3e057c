"""sgdlab benchmark: run one workload with one seed and print its metrics.

    python3 bench/run.py --workload exit-wide --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository; the benchmark imports sgdlab from
``src/`` next to this directory and fails without it.  The workload runs in
a child process (``session.py``) with BLAS and OpenMP pinned to one thread;
two more children only set up, so set-up time is the median of three.

Prints a human-readable report, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The full report (work counts, checks, environment, every
layer metric) is written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 2
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Work counts that the traced run must reproduce from its spans and leaves.
TRACE_WORK = {
    "paths": ("streams.paths",),
    "path_steps": (
        "exit_times.path_steps",
        "exit_times.anneal_path_steps",
        "sde.em_path_steps",
        "sgd.ensemble_path_steps",
    ),
    "noise_samples": ("streams.noise_samples",),
    "bvp_solves": ("exit_times.bvp_solves",),
    "enumerated_batches": ("oracles.enumerated_batches",),
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def run_session(args, workdir: Path, setup_only: bool, deadline: float) -> dict:
    result = workdir / f"result-{time.monotonic_ns()}.json"
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [
        sys.executable,
        str(BENCH_DIR / "session.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir / ("probe" if setup_only else "main")),
        "--result", str(result),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the session")
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], env=env, cwd=ROOT)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise TimeoutError("session overran the deadline") from None
    if rc != 0:
        raise RuntimeError(f"session exited with code {rc}")
    return json.loads(result.read_text())


def summarize(args, setups: list[float], session: dict, spec: dict) -> dict:
    rounds = session["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(op["failed"] for r in rounds for op in r["ops"])
    problems = []
    first = rounds[0]
    for r in rounds[1:]:
        if r["work"] != first["work"]:
            problems.append("work counts differ between rounds")
        if [op["digest"] for op in r["ops"]] != [op["digest"] for op in first["ops"]]:
            problems.append("outputs differ between rounds")
    for r in traced:
        for key, layer_names in TRACE_WORK.items():
            from_trace = sum(r["layers"][n] for n in layer_names)
            if from_trace != r["work"][key]:
                problems.append(f"trace counts {key}={from_trace}, outputs {r['work'][key]}")
    wall = statistics.median(r["wall_s"] for r in plain)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "path_steps_per_s": first["work"]["path_steps"] / wall,
        "peak_rss_mb": session["rss_mb"]["peak"],
    }
    layers = {}
    if traced:
        names = traced[0]["layers"].keys()
        layers = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "failed_op_frac": failed / attempted,
        "problems": sorted(set(problems)),
        "metrics": metrics,
        "end_to_end": e2e,
        "setup_samples_s": setups,
        "round_walls_s": [r["wall_s"] for r in rounds],
        "work_per_round": first["work"],
        "noise_mb_computed": first["work"]["noise_samples"] * 8 / 1e6,
        "rss_mb": session["rss_mb"],
        "layers": layers,
        "checks": first["ops"],
        "op_s": {
            op["op"]: [r["ops"][i]["op_s"] for r in rounds] for i, op in enumerate(first["ops"])
        },
        "environment": session["environment"],
        "tolerances": session["tolerances"],
        "trace_file": traced[-1]["trace_file"] if traced else None,
    }


def print_report(report: dict, spec: dict) -> None:
    print(
        f"sgdlab bench  workload={report['workload']}  seed={report['seed']}  "
        f"trace={report['trace']}  rounds={len(report['round_walls_s'])}"
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if not report["trace"]:
        for name, value in report["end_to_end"].items():
            print(f"  {name:<22} {value:>16.6g} {units.get(name, '')}")
    print(
        f"  {'failed_op_frac':<22} {report['failed_op_frac']:>16.6g} ratio "
        f"({report['failed']}/{report['attempted']} ops)"
    )
    work = ", ".join(f"{k}={v}" for k, v in report["work_per_round"].items())
    print(f"  work per round: {work}, noise_mb_computed={report['noise_mb_computed']:.3f}")
    for op in report["checks"]:
        status = "FAIL" if op["failed"] else "ok"
        detail = op["error"] or "; ".join(f"{c[0]}: {c[2]}" for c in op["checks"])
        print(f"  [{status}] {op['op']}: {detail}")
    for problem in report["problems"]:
        print(f"  [FAIL] {problem}")
    if report["trace"]:
        for name, value in report["layers"].items():
            print(f"  {name:<34} {value:>16.6g}")
    env = report["environment"]
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "sgdlab" / "__init__.py").is_file():
        return fail(f"no sgdlab sources under {ROOT / 'src'}; run from a repository checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_session(args, workdir, True, deadline)["setup_s"])
        session = run_session(args, workdir, False, deadline)
        setups.append(session["setup_s"])
    except (RuntimeError, TimeoutError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = summarize(args, setups, session, spec)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1))
    print_report(report, spec)
    result = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
