"""The benchmark's workloads: inputs from a seed, timed ops, oracle checks.

Every op calls sgdlab only through its public functions (``sgdlab.cli.main``
for ``cli-narrow``).  For each op the workload also gives

* ``check``: the op's result against an exact oracle or a known band;
* ``work``: the work done, counted from the op's outputs;
* ``digest``: a hash of the outputs, which must repeat from round to round.

Work keys (all per round): ``paths``, ``path_steps`` (simulated steps summed
over paths), ``lockstep_steps`` (Python-level step iterations: one per step
of a vectorised ensemble or exit loop, one per path-step of a per-path
loop), ``bvp_solves``, ``enumerated_batches`` and ``noise_samples`` (values
drawn from the path streams, from the array shapes the engines allocate).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import sgdlab
import sgdlab.cli
from tracing import resolvable

WORK_KEYS = (
    "paths",
    "path_steps",
    "lockstep_steps",
    "bvp_solves",
    "enumerated_batches",
    "noise_samples",
)

#: Noise block of the exit engine (``hitting_time_mc``'s default ``block``).
EXIT_BLOCK = 1024

#: Tolerances of the oracle checks, with the reason for each.
TOLERANCES = {
    "exit_vs_bvp": (
        "|MC mean - BVP mean| <= 4 stderr + censor_frac * (horizon + BVP) + 0.01 BVP",
        "4 standard errors of the MC mean; the censored paths can pull the "
        "uncensored mean down by at most censor_frac * (horizon + mean); grid "
        "monitoring delays exits by O(sqrt(dt)), under 1% at these steps",
    ),
    "censoring": ("censor_frac <= 0.01", "the admissibility rule of the scaling fits"),
    "exit_direction": (
        "fraction of 2-D exits along the unstable axis >= 0.9",
        "at eta = 1e-3 the stable direction keeps |y| ~ sqrt(eta); measured 1.0",
    ),
    "weak_slope": (
        "|fitted order - 1| <= max(0.25, 4 se)",
        "the [0.75, 1.25] band, widened to 4 standard errors of the fitted "
        "slope propagated from the ladder's own MC standard errors; at 20 000 "
        "paths the slope's seed-to-seed sd is ~0.14, so the bare band fails "
        "about one seed in ten",
    ),
    "deviation": (
        "relative Frobenius error <= 0.10",
        "the CLI's deviation check; the sample covariance of 5000 paths has ~2% sd",
    ),
    "sup_gap": ("E[sup gap] strictly decreasing in eta", "law of large numbers"),
    "anneal_gap": (
        "cooling success - constant success >= 0.1",
        "the CLI's anneal check at gamma = 0.4, where cooling wins by ~0.4",
    ),
    "grown_moments": (
        "|mean - exact| <= 4 sqrt(var/n) and |var/exact - 1| <= 4 sqrt(2/(n-1))",
        "the chain is linear, so mean and variance follow exactly from the "
        "closed-form mini-batch covariance; 4 sampling standard errors",
    ),
    "enumeration": ("max |formula - enumeration| <= 1e-12", "round-off only"),
    "cli_exit": ("exit code 0 and manifest digests match the files", "no --check"),
}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    work: Callable[[Any], dict]
    digest: Callable[[Any], str]


def _work(**counts) -> dict:
    return {k: counts.get(k, 0) for k in WORK_KEYS}


def add_work(total: dict, part: dict) -> dict:
    return {k: total.get(k, 0) + part.get(k, 0) for k in WORK_KEYS}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()[:16]


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)]


# ---------------------------------------------------------------------------
# exit-wide: the vectorised exit engine at production path counts.
# ---------------------------------------------------------------------------

SADDLE_PATHS = 1000
ESCAPE_PATHS = 1000
CHAIN_PATHS = 2000
#: Expected censored paths per rung.  The horizon is set where this many
#: paths are still inside, so the lockstep loop runs to the horizon on almost
#: every seed (its length would otherwise be the maximum of the exit times,
#: which swings by ~30% from seed to seed) while censoring stays far below 1%.
CENSOR_TARGET = 2.5


def _saddle_horizon(gamma: float, eta: float, n: int) -> float:
    """Time by which all but CENSOR_TARGET of n saddle exits are expected.

    Near an unstable point X_t ~ e^{gamma t} sqrt(eta / 2 gamma) Z, so
    P(T > t) ~ sqrt(4 gamma / (pi eta)) e^{-gamma t}.
    """
    return math.log(math.sqrt(4.0 * gamma / (math.pi * eta)) * n / CENSOR_TARGET) / gamma


def _exit_counts(records, step: float, horizon: float) -> dict:
    """Work of one exit-engine call, from its records."""
    max_steps = int(math.ceil(horizon / step - 1e-12))
    steps = np.array(
        [max_steps if r.censored else int(round(r.exit_time / step)) for r in records]
    )
    drawn = np.minimum(-(-steps // EXIT_BLOCK) * EXIT_BLOCK, max_steps)
    d = records[0].exit_point.size
    return _work(
        paths=len(records),
        path_steps=int(steps.sum()),
        lockstep_steps=int(steps.max()),
        noise_samples=int(drawn.sum()) * d,
    )


def _exit_stats_check(label, records, bvp, horizon) -> list:
    stats = sgdlab.exit_time_stats(records)
    tol = 4 * stats.stderr + stats.censor_frac * (horizon + bvp) + 0.01 * bvp
    return [
        (f"{label} censoring", stats.censor_frac <= 0.01, f"{stats.censor_frac:.4f}"),
        (
            f"{label} mean vs BVP",
            abs(stats.mean - bvp) <= tol,
            f"MC {stats.mean:.4f} BVP {bvp:.4f} tol {tol:.4f}",
        ),
    ]


def _records_digest(records) -> str:
    return _sha([r.exit_time for r in records], [r.exit_point for r in records])


def exit_wide(seed: int, workdir: Path, potential=lambda p: p) -> list[Op]:
    s_ladder, s_escape, s_chain = _seeds(seed, 3)
    inv = potential(sgdlab.builtin("inverted_quadratic"))
    dw = potential(sgdlab.builtin("double_well_1d"))
    saddle = potential(sgdlab.builtin("saddle_2d"))
    interval = sgdlab.Domain.interval(-1.0, 1.0)
    etas = (1e-2, 1e-3)
    ladder_horizon = _saddle_horizon(1.0, min(etas), SADDLE_PATHS)

    def ladder():
        report = sgdlab.saddle_scaling_fit(
            inv, 1.0, interval, [0.0], list(etas), source="mc",
            n_paths=SADDLE_PATHS, seed=s_ladder, horizon=ladder_horizon,
            keep_records=True,
        )
        bvps = [sgdlab.mean_exit_bvp_1d(inv, eta, (-1.0, 1.0), 0.0) for eta in etas]
        return report, bvps

    def ladder_check(out):
        report, bvps = out
        checks = []
        for eta, bvp in zip(etas, bvps):
            recs = report.extra["records"][eta]
            checks += _exit_stats_check(f"saddle eta={eta:g}", recs, bvp, ladder_horizon)
        return checks

    def ladder_work(out):
        report, bvps = out
        total = _work(bvp_solves=len(bvps))
        for eta in etas:
            recs = report.extra["records"][eta]
            total = add_work(total, _exit_counts(recs, eta / 10.0, ladder_horizon))
        return total

    escape_interval = (-1.0, 2.0)

    def escape():
        bvp = sgdlab.mean_exit_bvp_1d(dw, 0.25, escape_interval, 1.0)
        horizon = bvp * math.log(ESCAPE_PATHS / CENSOR_TARGET)
        cfg = sgdlab.SdeConfig(potential=dw, eta=0.25, dt=1e-3, T=horizon, x0=[1.0], seed=s_escape)
        recs = sgdlab.hitting_time_mc(
            cfg, sgdlab.Domain.interval(*escape_interval), ESCAPE_PATHS, horizon,
            experiment="well-escape",
        )
        return recs, bvp, horizon

    chain_eta = 1e-3
    chain_horizon = _saddle_horizon(1.0, chain_eta, CHAIN_PATHS)
    oracle = sgdlab.AdditiveGaussianOracle.isotropic(saddle, 1.0)
    chain_cfg = sgdlab.SgdConfig(eta=chain_eta, steps=1, x0=[0.0, 0.0], oracle=oracle, seed=s_chain)

    def chain():
        return sgdlab.hitting_time_mc(
            chain_cfg, sgdlab.Domain.ball([0.0, 0.0], 1.0), CHAIN_PATHS, chain_horizon,
            experiment="saddle-2d",
        )

    def chain_check(recs):
        pts = np.array([r.exit_point for r in recs if not r.censored])
        frac = float(np.mean(np.abs(pts[:, 0]) > np.abs(pts[:, 1])))
        censor = sum(r.censored for r in recs) / len(recs)
        return [
            ("saddle-2d censoring", censor <= 0.01, f"{censor:.4f}"),
            ("saddle-2d exit along the unstable axis", frac >= 0.9, f"{frac:.3f}"),
        ]

    return [
        Op(
            "saddle-ladder",
            ladder,
            ladder_check,
            ladder_work,
            lambda out: _sha(*[[r.exit_time for r in out[0].extra["records"][e]] for e in etas]),
        ),
        Op(
            "well-escape",
            escape,
            lambda out: _exit_stats_check("well-escape", out[0], out[1], out[2]),
            lambda out: add_work(_exit_counts(out[0], 1e-3, out[2]), _work(bvp_solves=1)),
            lambda out: _records_digest(out[0]),
        ),
        Op(
            "saddle-2d-chain",
            chain,
            chain_check,
            lambda recs: _exit_counts(recs, chain_eta, chain_horizon),
            _records_digest,
        ),
    ]


# ---------------------------------------------------------------------------
# fixed-horizon: the same stepping and noise layers without exits.
# ---------------------------------------------------------------------------

WEAK_PATHS = 40_000  # 20 000 leaves <3 resolvable rungs on ~1 seed in 40
WEAK_ETAS = (0.2, 0.1, 0.05, 0.025)
DEVIATION_PATHS = 5000
SUP_GAP_PATHS = 1000
SUP_GAP_ETAS = (0.1, 0.05, 0.025)
ANNEAL_PATHS = 500
ANNEAL_T = 500.0
ANNEAL_DT = 0.02  # the default 0.01 doubles the dispatch-bound loop; the gap is ~0.4 at both
GROWN_PATHS = 100
GROWN_STEPS = 200
COV_M, COV_BATCH = 14, 7


def _slope_stderr(points) -> float:
    """Standard error of order_fit's slope, from the ladder's MC stderrs."""
    used = resolvable(points)
    logs = np.log([p.eta for p in used])
    w = (logs - logs.mean()) / np.sum((logs - logs.mean()) ** 2)
    rel = np.array([p.max_stderr / p.max_error for p in used])
    return float(np.sqrt(np.sum((w * rel) ** 2)))


def _grown_exact(fs, sched, eta, steps, x0):
    """Exact mean and variance of the scheduled mini-batch chain.

    x' = (1 - eta) x + eta * (batch mean of centers): linear, with batch
    noise independent of x and covariance minibatch_covariance(fs, x, m).
    """
    c_bar = float(fs.base.critical_points[0].location[0])
    mean, var = float(x0), 0.0
    for k in range(steps):
        m = sgdlab.schedule_m(sched, k * eta)
        noise = float(sgdlab.minibatch_covariance(fs, np.zeros(1), m)[0, 0])
        mean = (1 - eta) * mean + eta * c_bar
        var = (1 - eta) ** 2 * var + eta**2 * noise
    return mean, var


def fixed_horizon(seed: int, workdir: Path, potential=lambda p: p) -> list[Op]:
    s_weak, s_dev, s_gap, s_anneal, s_grown = _seeds(seed, 5)
    rng = np.random.default_rng([seed, 1])
    dw = potential(sgdlab.builtin("double_well_1d"))
    qw = potential(sgdlab.builtin("quadratic_well"))
    tilted = potential(sgdlab.builtin("asym_double_well_1d", params=(-0.05,)))
    weak_oracle = sgdlab.AdditiveGaussianOracle.isotropic(dw, 0.5)
    dev_oracle = sgdlab.AdditiveGaussianOracle.isotropic(qw, 1.0)
    gap_oracle = sgdlab.AdditiveGaussianOracle.isotropic(dw, 0.3)

    centers = rng.normal(scale=2.0, size=(64, 1))
    centers -= centers.mean(axis=0)
    cloud = potential(sgdlab.gaussian_cloud(centers))
    sched = sgdlab.BatchSchedule(C=0.5, eta=0.05, m_star=32, M=64)
    grown_cfg = sgdlab.SgdConfig(
        eta=0.05, steps=GROWN_STEPS, x0=[1.0], oracle=sgdlab.MinibatchOracle(cloud, m=1),
        schedule=sched, seed=s_grown,
    )
    cov_fs = sgdlab.gaussian_cloud(rng.normal(size=(COV_M, 2)))
    cov_x = rng.normal(size=2)

    def weak_work(rep):
        total = _work()
        for p in rep.points:
            k = int(round(1.0 / p.eta))
            em_steps = int(math.ceil(1.0 / (0.1 * p.eta) - 1e-12))
            total = add_work(
                total,
                _work(
                    paths=2 * WEAK_PATHS,
                    path_steps=WEAK_PATHS * (k + em_steps),
                    lockstep_steps=k + em_steps,
                    noise_samples=WEAK_PATHS * (k + em_steps),
                ),
            )
        return total

    def weak_check(rep):
        se = _slope_stderr(rep.points)
        tol = max(0.25, 4 * se)
        return [
            (
                "first-order weak slope",
                abs(rep.fitted_order - 1.0) <= tol,
                f"{rep.fitted_order:.3f} (|x-1| <= {tol:.3f})",
            )
        ]

    def dev_check(rep):
        return [("deviation covariance", rep.rel_frobenius_err <= 0.10, f"{rep.rel_frobenius_err:.4f}")]

    def gaps():
        return [
            sgdlab.flow_sup_gap(
                dw, gap_oracle, eta, 1.0, [1.5], SUP_GAP_PATHS, seed=s_gap,
                experiment=f"ode-limit:eta{j}",
            )
            for j, eta in enumerate(SUP_GAP_ETAS)
        ]

    def gap_work(out):
        ks = [int(round(1.0 / eta)) for eta in SUP_GAP_ETAS]
        return _work(
            paths=SUP_GAP_PATHS * len(ks),
            path_steps=SUP_GAP_PATHS * sum(ks),
            lockstep_steps=sum(ks),
            noise_samples=SUP_GAP_PATHS * sum(ks),
        )

    def anneal():
        return [
            sgdlab.anneal_experiment(
                tilted, 0.4, ANNEAL_T, ANNEAL_PATHS, 0.25, mode=mode, seed=s_anneal, dt=ANNEAL_DT
            )
            for mode in ("cooling", "constant")
        ]

    anneal_steps = int(math.ceil(ANNEAL_T / ANNEAL_DT - 1e-12))

    def anneal_check(arms):
        gap = arms[0].success_prob - arms[1].success_prob
        return [("cooling beats constant", gap >= 0.1, f"{arms[0].success_prob:.3f} vs {arms[1].success_prob:.3f}")]

    grown_exact = _grown_exact(cloud, sched, 0.05, GROWN_STEPS, 1.0)
    grown_batches = [sgdlab.schedule_m(sched, k * 0.05) for k in range(GROWN_STEPS)]

    def grown_check(res):
        x = res.endpoints[:, 0]
        mean, var = grown_exact
        n = x.size
        mean_ok = abs(x.mean() - mean) <= 4 * math.sqrt(var / n)
        var_ok = abs(x.var(ddof=1) / var - 1) <= 4 * math.sqrt(2 / (n - 1))
        return [
            ("growing-batch mean", mean_ok, f"{x.mean():.4f} vs {mean:.4f}"),
            ("growing-batch variance", var_ok, f"{x.var(ddof=1):.5f} vs {var:.5f}"),
        ]

    def cov_check(rep):
        return [("enumeration", rep.max_abs_diff <= 1e-12, f"{rep.max_abs_diff:.2e}")]

    return [
        Op(
            "weak-mc",
            lambda: sgdlab.weak_error_mc(
                dw, weak_oracle, 1.0, [1.2], list(WEAK_ETAS), n_paths=WEAK_PATHS, seed=s_weak
            ),
            weak_check,
            weak_work,
            lambda rep: _sha([p.errors for p in rep.points], [p.stderrs for p in rep.points]),
        ),
        Op(
            "deviation",
            lambda: sgdlab.deviation_empirical(
                qw, dev_oracle, 0.01, 1.0, [1.0], DEVIATION_PATHS, seed=s_dev
            ),
            dev_check,
            lambda rep: _work(
                paths=DEVIATION_PATHS, path_steps=DEVIATION_PATHS * 100, lockstep_steps=100,
                noise_samples=DEVIATION_PATHS * 100,
            ),
            lambda rep: _sha(rep.empirical_cov, rep.empirical_mean),
        ),
        Op(
            "sup-gap",
            gaps,
            lambda out: [
                (
                    "sup gap decreasing in eta",
                    all(a[0] > b[0] for a, b in zip(out, out[1:])),
                    str([round(g[0], 5) for g in out]),
                )
            ],
            gap_work,
            lambda out: _sha(out),
        ),
        Op(
            "anneal",
            anneal,
            anneal_check,
            lambda arms: _work(
                paths=2 * ANNEAL_PATHS,
                path_steps=2 * ANNEAL_PATHS * anneal_steps,
                lockstep_steps=2 * anneal_steps,
                noise_samples=2 * ANNEAL_PATHS * anneal_steps,
            ),
            lambda arms: _sha([a.successes for a in arms], [a.occupancy_fracs for a in arms]),
        ),
        Op(
            "growing-batch",
            lambda: sgdlab.run_sgd_ensemble(grown_cfg, GROWN_PATHS, experiment="growing-batch"),
            grown_check,
            lambda res: _work(
                paths=GROWN_PATHS,
                path_steps=GROWN_PATHS * GROWN_STEPS,
                lockstep_steps=GROWN_PATHS * GROWN_STEPS,
                noise_samples=GROWN_PATHS * sum(grown_batches),
            ),
            lambda res: _sha(res.endpoints),
        ),
        Op(
            "covariance-enumeration",
            lambda: sgdlab.covariance_report(cov_fs, cov_x, COV_BATCH),
            cov_check,
            lambda rep: _work(enumerated_batches=math.comb(COV_M, COV_BATCH)),
            lambda rep: _sha(rep.formula, rep.enumerated),
        ),
    ]


# ---------------------------------------------------------------------------
# cli-narrow: the eight experiments through sgdlab.cli.main at tiny sizes.
# ---------------------------------------------------------------------------

CLI_WORKERS = 2
#: Stream seeds of the two exit experiments.  Their cost is the lockstep
#: loop, which runs until the last of 64 paths exits: the maximum of 64
#: roughly exponential exit times, which varies by 20-30% from seed to seed,
#: more than any bound the benchmark can hold.  So these two keep the seeds
#: of the test suite's tiny configs and the workload seed drives the other
#: six experiments.
CLI_EXIT_SEEDS = {"exit-min": 4, "exit-saddle": 5}

CLI_CONFIGS = {
    "weak-order": (
        "potential = quadratic_well\nsigma = 1.0\nx0 = 1.0\n[ladder]\nT = 1.0\n"
        "eta_list = 0.2, 0.1, 0.05, 0.025\ndrift_order = both\nsource = exact\n"
    ),
    "exit-min": (
        "potential = quadratic_well\nsigma = 1.0\n[domain]\ndomain = interval\n"
        "domain_lo = -1\ndomain_hi = 1\n[ladder]\neta_list = 0.25, 0.2\nsource = mc\n"
        "n_paths = 64\ndt = 1e-3\nhorizon = 400\nemit_records = 1\n"
    ),
    "exit-saddle": (
        "potential = inverted_quadratic\nsigma = 1.0\nx0 = 0.0\n[domain]\n"
        "domain = interval\ndomain_lo = -1\ndomain_hi = 1\n[ladder]\neta_list = 0.01\n"
        "source = mc\nn_paths = 64\ndt = 1e-3\nhorizon = 100\nemit_records = 1\n"
    ),
    "kramers": (
        "potential = double_well_1d\nsigma = 1.0\nx0 = 1.0\n[domain]\ndomain = interval\n"
        "domain_lo = -1\ndomain_hi = 2\n[ladder]\neta_list = 0.1, 0.05\n"
    ),
    "anneal": (
        "potential = asym_double_well_1d\npotential_params = -0.05\n[schedule]\n"
        "gamma = 0.4\nT = 50\nn_paths = 64\nepsilon = 0.25\n"
    ),
    "deviation": (
        "potential = quadratic_well\nsigma = 1.0\n[ensemble]\neta = 0.02\nT = 0.5\n"
        "x0 = 1.0\nn_paths = 256\n"
    ),
    "batch-cov": (
        "potential = gaussian_cloud_finite_sum\ndim = 2\npotential_params = {centers}\n"
        "x0 = 0.25, 0.25\n[batches]\nm_list = 1, 2, 4\n"
    ),
    "ode-limit": (
        "potential = double_well_1d\nsigma = 0.3\nx0 = 1.5\n[ladder]\nT = 1.0\n"
        "eta_list = 0.1, 0.05\nn_paths = 128\n"
    ),
}


def _chunk_ranges(n: int, workers: int) -> list[tuple[int, int]]:
    size = max(1, math.ceil(n / workers))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _read_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _cli_exit_work(out: Path, dt: float, horizon: float, workers: int) -> dict:
    """Exit-engine work of a CLI exit run, from its per-path records files."""
    total = _work()
    rows_by_rung = sorted(out.parent.glob(out.name + ".records.eta*.csv"))
    for path in rows_by_rung:
        rows = _read_csv(path)
        max_steps = int(math.ceil(horizon / dt - 1e-12))
        steps = np.array(
            [
                max_steps if r["censored"] == "1" else int(round(float(r["exit_time"]) / dt))
                for r in rows
            ]
        )
        drawn = np.minimum(-(-steps // EXIT_BLOCK) * EXIT_BLOCK, max_steps)
        lockstep = sum(int(steps[lo:hi].max()) for lo, hi in _chunk_ranges(steps.size, workers))
        total = add_work(
            total,
            _work(
                paths=steps.size, path_steps=int(steps.sum()), lockstep_steps=lockstep,
                noise_samples=int(drawn.sum()),
            ),
        )
    return total


def _fixed_ensemble_work(n: int, steps: int, workers: int, arms: int = 1) -> dict:
    chunks = len(_chunk_ranges(n, workers))
    return _work(
        paths=arms * n,
        path_steps=arms * n * steps,
        lockstep_steps=arms * chunks * steps,
        noise_samples=arms * n * steps,
    )


def _cli_work(name: str, out: Path, workers: int) -> dict:
    """Work of one CLI run at the CLI_CONFIGS sizes, from its output files."""
    if name == "exit-min":
        return add_work(
            _cli_exit_work(out, 1e-3, 400.0, workers),
            _work(bvp_solves=len(_read_csv(Path(f"{out}.csv")))),
        )
    if name == "exit-saddle":
        return _cli_exit_work(out, 1e-3, 100.0, workers)
    if name == "kramers":
        return _work(bvp_solves=len(_read_csv(Path(f"{out}.csv"))))
    if name == "anneal":
        return _fixed_ensemble_work(64, 5000, workers, arms=2)
    if name == "deviation":
        return _fixed_ensemble_work(256, 25, workers)
    if name == "ode-limit":
        return add_work(
            _fixed_ensemble_work(128, 10, workers), _fixed_ensemble_work(128, 20, workers)
        )
    if name == "batch-cov":
        summary = {r["key"]: r["value"] for r in _read_csv(Path(f"{out}.summary.csv"))}
        ms = sorted({int(r["m"]) for r in _read_csv(Path(f"{out}.csv"))})
        return _work(enumerated_batches=sum(math.comb(int(summary["M"]), m) for m in ms))
    return _work()


def cli_config_texts(seed: int) -> dict[str, str]:
    """The eight config files, with stream seeds and cluster centers from seed."""
    rng = np.random.default_rng([seed, 2])
    stream_seeds = dict(zip(CLI_CONFIGS, _seeds(seed, len(CLI_CONFIGS))))
    stream_seeds.update(CLI_EXIT_SEEDS)
    centers = ", ".join(f"{c:.3f}" for c in rng.normal(scale=0.5, size=8))
    texts = {}
    for name, body in CLI_CONFIGS.items():
        texts[name] = (
            f"# generated by the sgdlab benchmark\n[run]\nexperiment = {name}\n"
            f"seed = {stream_seeds[name]}\n[model]\n" + body.format(centers=centers)
        )
    return texts


def write_cli_configs(seed: int, workdir: Path) -> dict[str, Path]:
    cfg_dir = workdir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in cli_config_texts(seed).items():
        paths[name] = cfg_dir / f"{name}.cfg"
        paths[name].write_text(text)
    return paths


def cli_narrow(seed: int, workdir: Path, potential=None, workers: int = CLI_WORKERS) -> list[Op]:
    # ``potential`` is unused: the CLI builds its own potentials, and a traced
    # run wraps them where the CLI looks them up (sgdlab.config.builtin).
    configs = write_cli_configs(seed, workdir)
    counter = itertools.count()

    def make(name, cfg_path):
        def run():
            out = workdir / f"run{next(counter)}" / name
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = sgdlab.cli.main(
                    [name, "--config", str(cfg_path), "--out", str(out), "--workers", str(workers)]
                )
            return rc, out, sink.getvalue()

        def check(res):
            rc, out, text = res
            ok = rc == 0
            detail = f"exit {rc}"
            if ok:
                manifest = json.loads(Path(f"{out}.manifest").read_text())
                for fname, digest in manifest["files"].items():
                    raw = (out.parent / fname).read_bytes()
                    if "sha256:" + hashlib.sha256(raw).hexdigest() != digest:
                        ok, detail = False, f"digest mismatch {fname}"
            else:
                detail += f": {text.strip()[-200:]}"
            return [(f"{name} cli", ok, detail)]

        return Op(
            name,
            run,
            check,
            lambda res: _cli_work(name, res[1], workers),
            lambda res: csv_digests(res[1]),
        )

    return [make(name, path) for name, path in configs.items()]


def csv_digests(out: Path) -> str:
    """Digest over the CSV artifacts listed in a run's manifest."""
    manifest = json.loads(Path(f"{out}.manifest").read_text())
    items = sorted((f, d) for f, d in manifest["files"].items() if f.endswith(".csv"))
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


WORKLOADS = {
    "exit-wide": exit_wide,
    "cli-narrow": cli_narrow,
    "fixed-horizon": fixed_horizon,
}
