"""Command-line front end: `sgdlab <experiment> --config file.cfg [options]`.

Each subcommand loads a flat key=value config, runs the corresponding
library experiment, and writes result tables (`<prefix>*.csv`), headline
constants (`<prefix>.summary.csv`), gnuplot-ready data (`<prefix>*.dat`),
and finally a JSON manifest (`<prefix>.manifest`) with content digests of
every emitted file.  Parallelism enters through one hook: each run hands
``Pool._scatter`` to the library experiment as its ``scatter``, which runs
the library's module-level chunk functions over contiguous chunks of path
indices, on one process pool per run when ``--workers`` is above 1.  Every
path owns a private random stream and chunk results are combined in index
order (exact integer counts for annealing), so the emitted CSV bytes do not
depend on the worker count.

Exit status: 0 success, 2 configuration error, 3 numerical failure
(non-finite states), 4 threshold failure under --check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .config import (
    EXPERIMENTS,
    ExperimentConfig,
    apply_overrides,
    base_of,
    build_domain,
    build_potential,
    parse_config_text,
    validate_config,
    x0_array,
)
from .errors import ConfigError, NumericalError
# hitting_time_mc is not called here; bench/test_bench.py reads it from this
# module to check that the benchmark's tracer restores what it wrapped.
from .exit_times import (
    anneal_experiment,
    hitting_time_mc,
    kramers_predictor,
    mean_exit_bvp_1d,
    minimizer_scaling_fit,
    saddle_scaling_fit,
)
from .oracles import AdditiveGaussianOracle, covariance_report
from .potentials import FiniteSumSpec
from .reporting import (
    fmt,
    write_anneal_csv,
    write_csv,
    write_deviation_csv,
    write_exit_records_csv,
    write_gnuplot_dat,
    write_scaling_csv,
    write_summary_csv,
    write_weak_error_csv,
)
from .sde import FIRST_ORDER, SECOND_ORDER, deviation_empirical, flow_sup_gap
from .weak_error import weak_error_ladder_linear, weak_error_mc, well_rate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECK = 4

#: (description, passed) pairs produced by each experiment's --check rules.
Check = tuple[str, bool]


# ---------------------------------------------------------------------------
# Worker pool.  ``Pool._scatter`` is the ``scatter`` every library ensemble
# takes (see ``sgdlab.streams``): the library's chunk functions live at
# module level so the process pool can pickle them, chunks are contiguous
# index ranges, and results are gathered in submission order, which keeps
# aggregation index-ordered.
# ---------------------------------------------------------------------------


def _chunk_ranges(n: int, workers: int) -> list[tuple[int, int]]:
    size = max(1, math.ceil(n / max(1, workers)))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


class Pool:
    """Runs path chunks in-process (workers=1) or on a process pool.

    Every worker function takes its chunk as trailing (lo, hi) arguments and
    only touches paths in that index range, so gathering results in
    submission order reproduces the single-process output exactly.

    A context manager: the first scatter with more than one worker starts
    the process pool, every later scatter reuses it, and leaving the
    ``with`` block shuts it down, so the workers are forked once per run,
    after the run has started, and none outlives it.
    """

    def __init__(self, workers: int):
        self.workers = max(1, workers)
        self._executor: ProcessPoolExecutor | None = None

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

    def _scatter(self, fn: Callable, n: int, *args) -> list:
        if self.workers == 1:
            return [fn(*args, 0, n)]
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        futures = [
            self._executor.submit(fn, *args, lo, hi) for lo, hi in _chunk_ranges(n, self.workers)
        ]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# Experiment runners.  Each returns (files, summary, checks); all arithmetic
# happens inside library calls, the runners only route values into tables.
# ---------------------------------------------------------------------------


def _emit_records_files(out, report, files) -> None:
    records = report.extra.get("records", {})
    for j, entry in enumerate(report.entries):
        recs = records.get(entry.eta)
        if recs is not None:
            files.append(write_exit_records_csv(f"{out}.records.eta{j}.csv", recs))


def _run_weak_order(cfg: ExperimentConfig, out: str, scatter: Callable):
    potential = base_of(build_potential(cfg))
    lam = well_rate(potential)
    if lam is None:
        raise ConfigError("weak-order runs on the 1-D quadratic_well benchmark")
    sigma = cfg.get("sigma")
    T = cfg.get("T")
    x0 = x0_array(cfg, 1)
    etas = cfg.get("eta_list")
    seed = cfg.get("seed", 0)
    source = cfg.get("source", "exact")
    if source == "bvp_1d":
        raise ConfigError("weak-order source must be 'exact' or 'mc'")
    order_key = cfg.get("drift_order", "both")
    orders = [FIRST_ORDER, SECOND_ORDER] if order_key == "both" else [order_key]
    files, summary, checks = [], {}, []
    bands = {FIRST_ORDER: (0.75, 1.25), SECOND_ORDER: (1.7, 2.3)}
    for order in orders:
        if source == "exact":
            rep = weak_error_ladder_linear(
                lam, sigma, T, float(x0[0]), etas, drift_order=order
            )
        else:
            oracle = AdditiveGaussianOracle.isotropic(potential, sigma)
            rep = weak_error_mc(
                potential,
                oracle,
                T,
                x0,
                etas,
                n_paths=cfg.get("n_paths", 20000),
                drift_order=order,
                seed=seed,
                experiment=f"weak:{order}",
                dt_factor=cfg.get("dt_factor", 0.1),
                scatter=scatter,
            )
        files.append(write_weak_error_csv(f"{out}.{order}.csv", rep))
        files.append(
            write_gnuplot_dat(
                f"{out}.{order}.dat",
                [np.array([p.eta for p in rep.points]), np.array([p.max_error for p in rep.points])],
                ["eta", "max_error"],
            )
        )
        summary[f"fitted_order_{order}"] = rep.fitted_order
        summary[f"expected_order_{order}"] = rep.expected_order
        lo, hi = bands[order]
        for name, slope in zip(rep.observables, rep.fitted_orders):
            summary[f"slope_{order}_{name}"] = slope
            if name in ("x", "x2", "tanh_x"):
                checks.append(
                    (f"{order}-order slope for {name} in [{lo}, {hi}]", lo <= slope <= hi)
                )
    summary["transform"] = "weak_error_order"
    return files, summary, checks


def _run_exit_min(cfg: ExperimentConfig, out: str, scatter: Callable):
    potential = base_of(build_potential(cfg))
    domain = build_domain(cfg)
    x0 = cfg.get("x0")
    report = minimizer_scaling_fit(
        potential,
        cfg.get("sigma"),
        domain,
        cfg.get("eta_list"),
        source=cfg.get("source", "bvp_1d"),
        x0=np.asarray(x0, dtype=float) if x0 is not None else None,
        n_paths=cfg.get("n_paths", 2000),
        seed=cfg.get("seed", 0),
        dt=cfg.get("dt"),
        horizon=cfg.get("horizon"),
        scatter=scatter,
        keep_records=cfg.get("emit_records", False),
    )
    files = [write_scaling_csv(f"{out}.csv", report)]
    etas = np.array([e.eta for e in report.entries])
    files.append(
        write_gnuplot_dat(
            f"{out}.dat",
            [etas, np.array([e.transform_value for e in report.entries])],
            ["eta", "eta_log_mean_exit_time"],
        )
    )
    _emit_records_files(out, report, files)
    summary = {
        "transform": report.transform,
        "source": report.source,
        "fitted_constant": report.fitted_constant,
        "reference": report.reference_constant,
    }
    order = np.argsort(-etas)
    seq = np.array([report.entries[i].transform_value for i in order])
    steps_seq = np.array([report.entries[i].steps_transform_value for i in order])
    ref = report.reference_constant
    checks = [
        ("eta*log E[T] increases as eta decreases", bool(np.all(np.diff(seq) > 0))),
        (
            "final eta*log E[T] within 25% of the quasi-potential",
            abs(seq[-1] / ref - 1.0) <= 0.25,
        ),
        (
            "final eta*log E[N] within 25% of the quasi-potential",
            abs(steps_seq[-1] / ref - 1.0) <= 0.25,
        ),
    ]
    return files, summary, checks


def _run_exit_saddle(cfg: ExperimentConfig, out: str, scatter: Callable):
    potential = base_of(build_potential(cfg))
    domain = build_domain(cfg)
    report = saddle_scaling_fit(
        potential,
        cfg.get("sigma"),
        domain,
        x0_array(cfg, potential.dim),
        cfg.get("eta_list"),
        source=cfg.get("source", "bvp_1d"),
        n_paths=cfg.get("n_paths", 2000),
        seed=cfg.get("seed", 0),
        dt=cfg.get("dt"),
        horizon=cfg.get("horizon"),
        scatter=scatter,
        keep_records=cfg.get("emit_records", False),
    )
    files = [write_scaling_csv(f"{out}.csv", report)]
    etas = np.array([e.eta for e in report.entries])
    files.append(
        write_gnuplot_dat(
            f"{out}.dat",
            [etas, np.array([e.transform_value for e in report.entries])],
            ["eta", "mean_exit_time_over_log_inv_eta"],
        )
    )
    _emit_records_files(out, report, files)
    summary = {
        "transform": report.transform,
        "source": report.source,
        "fitted_constant": report.fitted_constant,
        "reference": report.reference_constant,
        "gamma1": report.extra["gamma1"],
    }
    if report.extra["theta"] is not None:
        summary["theta_x0"] = report.extra["theta"]
    i_small = int(np.argmin(etas))
    steps_bound = report.extra["steps_bound"][i_small]
    checks = [
        (
            "E[T]/log(1/eta) within 25% of 1/(2 gamma1) at the smallest eta",
            abs(report.entries[i_small].transform_value / report.reference_constant - 1.0)
            <= 0.25,
        ),
        ("step-count bound 2 gamma1 E[T]/log(1/eta) <= 1.3", steps_bound <= 1.3),
    ]
    return files, summary, checks


def _run_kramers(cfg: ExperimentConfig, out: str, scatter: Callable):
    potential = base_of(build_potential(cfg))
    if potential.dim != 1:
        raise ConfigError("kramers runs on 1-D double-well objectives")
    domain = build_domain(cfg)
    if domain.kind != "interval":
        raise ConfigError("kramers needs an interval domain")
    sigma = cfg.get("sigma", 1.0)
    x0 = cfg.get("x0")
    if x0 is not None:
        x_star = np.asarray(x0, dtype=float)
    else:
        mins = potential.minimizers()
        inside = [cp for cp in mins if domain.strictly_inside(cp.location)]
        if len(inside) != 1:
            raise ConfigError("pass x0 to select the starting well")
        x_star = inside[0].location
    tops = [cp for cp in potential.unstable_points() if domain.strictly_inside(cp.location)]
    if len(tops) != 1:
        raise ConfigError("the domain must contain exactly one barrier top")
    z_star = tops[0].location
    etas = cfg.get("eta_list")
    rows = []
    ratios, log_means = [], []
    for eta in etas:
        predictor = kramers_predictor(potential, eta * sigma**2, x_star=x_star, z_star=z_star)
        bvp = mean_exit_bvp_1d(
            potential, eta * sigma**2, (domain.lo[0], domain.hi[0]), float(x_star[0])
        )
        ratios.append(predictor / bvp)
        log_means.append(math.log(bvp))
        rows.append([eta, predictor, bvp, predictor / bvp])
    files = [
        write_csv(
            f"{out}.csv",
            ["eta", "predictor", "bvp_mean_T", "ratio"],
            rows,
        )
    ]
    inv_etas = np.array([1.0 / e for e in etas])
    files.append(
        write_gnuplot_dat(f"{out}.dat", [inv_etas, np.array(log_means)], ["inv_eta", "log_mean_T"])
    )
    barrier2 = 2.0 * (float(potential.value(z_star)) - float(potential.value(x_star)))
    summary = {"two_delta_f": barrier2}
    checks = [
        (
            "predictor within factor 1.5 of the BVP mean at every eta",
            all(1.0 / 1.5 <= r <= 1.5 for r in ratios),
        )
    ]
    if len(etas) >= 2:
        slope = float(np.polyfit(inv_etas, np.array(log_means), 1)[0])
        reference = barrier2 / sigma**2
        summary["slope_log_T_vs_inv_eta"] = slope
        summary["slope_reference"] = reference
        checks.append(
            (
                "log E[T] slope vs 1/eta within 15% of 2*dF/sigma^2",
                abs(slope / reference - 1.0) <= 0.15,
            )
        )
    return files, summary, checks


def _run_anneal(cfg: ExperimentConfig, out: str, scatter: Callable):
    potential = base_of(build_potential(cfg))
    start = cfg.get("x0")
    start_arr = np.asarray(start, dtype=float) if start is not None else None
    results = {}
    for mode in ("cooling", "constant"):
        results[mode] = anneal_experiment(
            potential,
            cfg.get("gamma"),
            cfg.get("T"),
            cfg.get("n_paths"),
            cfg.get("epsilon"),
            start=start_arr,
            mode=mode,
            seed=cfg.get("seed", 0),
            dt=cfg.get("dt", 0.01),
            n_checkpoints=cfg.get("n_checkpoints", 50),
            scatter=scatter,
        )
    rows = [
        [
            r.mode,
            r.gamma,
            r.T,
            r.epsilon,
            r.n_paths,
            r.successes,
            r.success_prob,
            r.ci_low,
            r.ci_high,
        ]
        for r in results.values()
    ]
    files = [
        write_csv(
            f"{out}.csv",
            [
                "mode",
                "gamma",
                "T",
                "epsilon",
                "n_paths",
                "successes",
                "success_prob",
                "ci_low",
                "ci_high",
            ],
            rows,
        )
    ]
    for mode, r in results.items():
        files.append(write_anneal_csv(f"{out}.{mode}.csv", r))
    gap = results["cooling"].success_prob - results["constant"].success_prob
    summary = {
        "success_cooling": results["cooling"].success_prob,
        "ci_low_cooling": results["cooling"].ci_low,
        "ci_high_cooling": results["cooling"].ci_high,
        "success_constant": results["constant"].success_prob,
        "ci_low_constant": results["constant"].ci_low,
        "ci_high_constant": results["constant"].ci_high,
        "gap": gap,
    }
    checks = [
        ("cooling success probability >= 0.8", results["cooling"].success_prob >= 0.8),
        ("cooling beats the constant arm by >= 0.1", gap >= 0.1),
    ]
    return files, summary, checks


def _run_deviation(cfg: ExperimentConfig, out: str, scatter: Callable):
    potential = base_of(build_potential(cfg))
    oracle = AdditiveGaussianOracle.isotropic(potential, cfg.get("sigma"))
    report = deviation_empirical(
        potential,
        oracle,
        cfg.get("eta"),
        cfg.get("T"),
        x0_array(cfg, potential.dim),
        cfg.get("n_paths"),
        seed=cfg.get("seed", 0),
        scatter=scatter,
    )
    files = [write_deviation_csv(f"{out}.csv", report)]
    stderrs = np.sqrt(np.diag(report.empirical_cov) / report.n_paths)
    summary = {
        "rel_frobenius_err": report.rel_frobenius_err,
        "n_paths": report.n_paths,
    }
    for i, (m, se) in enumerate(zip(report.empirical_mean, stderrs)):
        summary[f"mean_{i}"] = float(m)
        summary[f"mean_stderr_{i}"] = float(se)
    checks = [
        (
            "deviation covariance within 10% of the Lyapunov value",
            report.rel_frobenius_err <= 0.10,
        ),
        (
            "deviation mean within 4 standard errors of 0 (+0.05 bias allowance)",
            bool(
                np.all(
                    np.abs(report.empirical_mean)
                    <= 4.0 * stderrs + 0.05
                )
            ),
        ),
    ]
    return files, summary, checks


def _run_batch_cov(cfg: ExperimentConfig, out: str, scatter: Callable):
    fs = build_potential(cfg)
    if not isinstance(fs, FiniteSumSpec):
        raise ConfigError("batch-cov needs a finite-sum potential")
    x = x0_array(cfg, fs.dim)
    mode = cfg.get("batch_mode", "without_replacement")
    rows = []
    worst = 0.0
    for m in cfg.get("m_list"):
        rep = covariance_report(fs, x, m, mode)
        worst = max(worst, rep.max_abs_diff)
        d = rep.formula.shape[0]
        for i in range(d):
            for j in range(d):
                rows.append(
                    [
                        m,
                        i,
                        j,
                        float(rep.formula[i, j]),
                        float(rep.enumerated[i, j]),
                        float(abs(rep.formula[i, j] - rep.enumerated[i, j])),
                    ]
                )
    files = [
        write_csv(
            f"{out}.csv",
            ["m", "row", "col", "formula", "enumerated", "abs_diff"],
            rows,
        )
    ]
    summary = {"M": fs.M, "mode": mode, "max_abs_diff": worst}
    checks = [("covariance formula matches enumeration to 1e-12", worst <= 1e-12)]
    return files, summary, checks


def _run_ode_limit(cfg: ExperimentConfig, out: str, scatter: Callable):
    potential = base_of(build_potential(cfg))
    oracle = AdditiveGaussianOracle.isotropic(potential, cfg.get("sigma"))
    x0 = x0_array(cfg, potential.dim)
    rows = []
    means = []
    for j, eta in enumerate(cfg.get("eta_list")):
        mean, stderr = flow_sup_gap(
            potential,
            oracle,
            eta,
            cfg.get("T"),
            x0,
            cfg.get("n_paths", 1000),
            seed=cfg.get("seed", 0),
            experiment=f"ode-limit:eta{j}",
            scatter=scatter,
        )
        means.append(mean)
        rows.append([eta, mean, stderr])
    files = [write_csv(f"{out}.csv", ["eta", "mean_sup_gap", "stderr"], rows)]
    files.append(
        write_gnuplot_dat(
            f"{out}.dat",
            [np.array([r[0] for r in rows]), np.array(means)],
            ["eta", "mean_sup_gap"],
        )
    )
    etas = np.array([r[0] for r in rows])
    order = np.argsort(-etas)
    seq = np.array(means)[order]
    summary = {"decreasing": bool(np.all(np.diff(seq) < 0))}
    for eta, mean in zip(etas[order], seq):
        summary[f"mean_sup_gap_eta={fmt(float(eta))}"] = float(mean)
    checks = [("E[sup gap] strictly decreases with eta", bool(np.all(np.diff(seq) < 0)))]
    return files, summary, checks


_RUNNERS = {
    "weak-order": _run_weak_order,
    "exit-min": _run_exit_min,
    "exit-saddle": _run_exit_saddle,
    "kramers": _run_kramers,
    "anneal": _run_anneal,
    "deviation": _run_deviation,
    "batch-cov": _run_batch_cov,
    "ode-limit": _run_ode_limit,
}


# ---------------------------------------------------------------------------
# Manifest and entry point.
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return f"sha256:{digest.hexdigest()}"


def _write_manifest(
    prefix: str,
    experiment: str,
    raw_config: dict,
    workers: int,
    files: Sequence[Path],
    wall_clock_s: float,
    check_passed,
) -> Path:
    path = Path(f"{prefix}.manifest")
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {
        "artifact_version": __version__,
        "experiment": experiment,
        "config": raw_config,
        "workers": workers,
        "wall_clock_s": wall_clock_s,
        "files": {p.name: _sha256(p) for p in files},
        "check_passed": check_passed,
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="config file path")
    common.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    common.add_argument("--seed", type=int, default=None, help="base seed override")
    common.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: SDL_WORKERS or 1)",
    )
    common.add_argument("--out", type=str, default=None, help="output path prefix")
    common.add_argument(
        "--check",
        action="store_true",
        help="exit 4 unless the experiment meets its acceptance thresholds",
    )
    parser = argparse.ArgumentParser(
        prog="sgdlab",
        description="Monte Carlo laboratory for SGD as a Markov chain and its diffusion limits",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sub.add_parser(name, parents=[common], help=f"run the {name} experiment")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        raw = parse_config_text(text)
    else:
        raw = {}
    raw = apply_overrides(raw, args.set)
    if "experiment" in raw and raw["experiment"] != args.experiment:
        raise ConfigError(
            f"config names experiment {raw['experiment']!r} but the "
            f"{args.experiment!r} subcommand was invoked"
        )
    raw["experiment"] = args.experiment
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    if args.workers is not None:
        raw["workers"] = str(args.workers)
    if args.out is not None:
        raw["out"] = args.out
    return validate_config(raw)


def _resolve_workers(cfg: ExperimentConfig) -> int:
    if "workers" in cfg:
        return cfg.get("workers")
    env = os.environ.get("SDL_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"SDL_WORKERS={env!r} is not an integer") from None
        if workers < 1:
            raise ConfigError(f"SDL_WORKERS={env!r} must be >= 1")
        return workers
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = _resolve_config(args)
        workers = _resolve_workers(cfg)
        out = cfg.get("out", "run")
        with Pool(workers) as pool:
            files, summary, checks = _RUNNERS[cfg.experiment](cfg, out, pool._scatter)
        files.append(write_summary_csv(f"{out}.summary.csv", summary))
    except ConfigError as exc:
        print(f"sgdlab: config-error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"sgdlab: config-error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"sgdlab: numerical-error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    check_passed = all(ok for _, ok in checks) if args.check else None
    _write_manifest(
        out,
        cfg.experiment,
        cfg.raw,
        workers,
        files,
        time.perf_counter() - t0,
        check_passed,
    )
    for description, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {description}")
    if args.check and not check_passed:
        failed = "; ".join(desc for desc, ok in checks if not ok)
        print(f"sgdlab: check-failed: {failed}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
