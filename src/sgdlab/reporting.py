"""Plain-text emission of results: CSV tables, key-value summaries, gnuplot data.

Floats are written with ``repr``, the shortest string that round-trips to the
same IEEE double, so re-running a deterministic experiment reproduces output
files byte for byte.  Flags are written as 0/1.  Lines starting with ``#``
carry scalar metadata (fitted constants, references) above or below the table
and are ignored by the usual ``comment='#'`` CSV readers.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .exit_times import AnnealResult, ExitRecord, ScalingReport
from .sde import DeviationReport
from .weak_error import WeakErrorReport

PathLike = Union[str, Path]


def fmt(value) -> str:
    """Render one cell: floats via repr (round-trip exact), bools as 0/1."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(
    path: PathLike,
    header: Sequence[str],
    rows: Iterable[Sequence],
    footer_comments: Sequence[str] = (),
) -> Path:
    """Write a CSV table with optional trailing '# key=value' comment lines."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
        for line in footer_comments:
            fh.write(f"# {line}\n")
    return path


def write_summary_csv(path: PathLike, items: Mapping[str, object]) -> Path:
    """Write headline constants as a two-column key,value CSV."""
    return write_csv(path, ["key", "value"], ([k, v] for k, v in items.items()))


def write_gnuplot_dat(
    path: PathLike, columns: Sequence[np.ndarray], labels: Sequence[str]
) -> Path:
    """Whitespace-separated columns with a single '# label ...' header line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = [np.atleast_1d(np.asarray(c)) for c in columns]
    if len({c.size for c in cols}) != 1:
        raise ValueError("all columns must have the same length")
    with path.open("w") as fh:
        fh.write("# " + " ".join(labels) + "\n")
        for i in range(cols[0].size):
            fh.write(" ".join(fmt(float(c[i])) for c in cols) + "\n")
    return path


def write_exit_records_csv(path: PathLike, records: Sequence[ExitRecord]) -> Path:
    dim = records[0].exit_point.size if records else 1
    header = (
        ["path_index", "exit_time", "exit_steps"]
        + [f"exit_point_{j}" for j in range(dim)]
        + ["censored"]
    )
    rows = (
        [r.path_index, r.exit_time, r.exit_steps]
        + [float(v) for v in r.exit_point]
        + [r.censored]
        for r in records
    )
    return write_csv(path, header, rows)


def write_scaling_csv(path: PathLike, report: ScalingReport) -> Path:
    header = [
        "eta",
        "mean_T",
        "stderr_T",
        "transform_value",
        "censor_frac",
        "steps_transform_value",
        "n_samples",
        "admissible",
    ]
    rows = (
        [
            e.eta,
            e.mean_exit_time,
            e.stderr,
            e.transform_value,
            e.censor_frac,
            e.steps_transform_value,
            e.n_samples,
            e.admissible,
        ]
        for e in report.entries
    )
    comments = [
        f"transform={report.transform}",
        f"source={report.source}",
        f"fitted_constant={fmt(report.fitted_constant)}",
        f"reference_constant={fmt(report.reference_constant)}",
    ]
    for key in ("gamma1", "theta"):
        if key in report.extra and report.extra[key] is not None:
            comments.append(f"{key}={fmt(report.extra[key])}")
    return write_csv(path, header, rows, footer_comments=comments)


def write_weak_error_csv(path: PathLike, report: WeakErrorReport) -> Path:
    """Long-format ladder: one row per (observable, eta) pair."""
    header = ["phi_name", "eta", "error", "stderr", "method_sgd", "method_sde"]
    rows = (
        [name, p.eta, p.errors[i], p.stderrs[i], report.method_sgd, report.method_sde]
        for i, name in enumerate(report.observables)
        for p in report.points
    )
    comments = [f"drift_order={report.drift_order}"]
    comments += [
        f"slope_{name}={fmt(report.fitted_orders[i])}"
        for i, name in enumerate(report.observables)
    ]
    comments += [
        f"fitted_order={fmt(report.fitted_order)}",
        f"expected_order={fmt(report.expected_order)}",
    ]
    return write_csv(path, header, rows, footer_comments=comments)


def write_deviation_csv(path: PathLike, report: DeviationReport) -> Path:
    d = report.empirical_cov.shape[0]
    header = ["row", "col", "empirical_cov", "lyapunov_cov", "abs_diff"]
    rows = (
        [
            i,
            j,
            float(report.empirical_cov[i, j]),
            float(report.lyapunov_cov[i, j]),
            float(abs(report.empirical_cov[i, j] - report.lyapunov_cov[i, j])),
        ]
        for i in range(d)
        for j in range(d)
    )
    comments = [
        f"t={fmt(report.t)}",
        f"eta={fmt(report.eta)}",
        f"n_paths={report.n_paths}",
        f"rel_frobenius_err={fmt(report.rel_frobenius_err)}",
        "empirical_mean=" + " ".join(fmt(float(v)) for v in report.empirical_mean),
    ]
    return write_csv(path, header, rows, footer_comments=comments)


def write_anneal_csv(path: PathLike, result: AnnealResult) -> Path:
    header = ["time", "occupancy_frac"]
    rows = (
        [float(t), float(f)]
        for t, f in zip(result.occupancy_times, result.occupancy_fracs)
    )
    comments = [
        f"mode={result.mode}",
        f"gamma={fmt(result.gamma)}",
        f"T={fmt(result.T)}",
        f"epsilon={fmt(result.epsilon)}",
        f"n_paths={result.n_paths}",
        f"successes={result.successes}",
        f"success_prob={fmt(result.success_prob)}",
        f"ci_low={fmt(result.ci_low)}",
        f"ci_high={fmt(result.ci_high)}",
    ]
    return write_csv(path, header, rows, footer_comments=comments)
