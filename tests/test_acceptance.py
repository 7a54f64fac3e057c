"""Acceptance gate: one test per headline claim, each printing a single
PASS/FAIL line with the measured values.

Each test states its tolerance inline; nothing here is tuned to pass. One
known asymptotic gap remains: the annealing test (criterion 8) pins a
schedule scale at which both arms equilibrate within the horizon, so it is
asserted faithfully and fails; the analysis is in the README's Tests
section. The saddle clock (criterion 5) is asserted as the slope of E[T]
against log(1/eta) over its pinned eta ladder, which is the constant
1/(2 lam) itself; the ratio E[T]/log(1/eta) carries a 0.98/log(1/eta)
correction, so it is checked to stay above 0.5 and fall along the ladder.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

import sgdlab as lab
from sgdlab import Domain, SdeConfig, SgdConfig
from sgdlab.cli import main as cli_main


@pytest.fixture
def report(capfd):
    """Emit one PASS/FAIL line per criterion, visible despite output capture."""

    def _report(num, ok, detail):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def test_criterion_01_minibatch_covariance_exactness(report):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        M = int(rng.integers(2, 9))
        fs = lab.gaussian_cloud(rng.normal(size=(M, 3)))
        x = rng.normal(size=3)
        for m in range(1, M + 1):
            rep = lab.covariance_report(fs, x, m)
            worst = max(worst, rep.max_abs_diff)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, ok, f"max |formula - enumeration| = {worst:.3e} (tol 1e-12), {elapsed:.2f}s")


def test_criterion_02_weak_orders_one_and_two(report):
    t0 = time.perf_counter()
    etas = [0.2, 0.1, 0.05, 0.025, 0.0125]
    slopes = {}
    for order in ("first", "second"):
        rep = lab.weak_error_ladder_linear(1.0, 1.0, 1.0, 1.0, etas, drift_order=order)
        for name in ("x", "x2", "tanh_x"):
            slopes[(order, name)] = rep.fitted_orders[rep.observables.index(name)]
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    for (order, name), s in slopes.items():
        lo, hi = (0.75, 1.25) if order == "first" else (1.7, 2.3)
        ok = ok and lo <= s <= hi
    detail = ", ".join(f"{o}/{n}={s:.3f}" for (o, n), s in slopes.items())
    report(2, ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_03_brownian_exit_oracle_and_mc(report):
    t0 = time.perf_counter()
    flat = lambda x: np.zeros_like(x)  # noqa: E731
    eps = 0.04
    bvp = lab.mean_exit_bvp_1d(flat, eps, (-1.0, 1.0), 0.0)
    rel = abs(bvp - 25.0) / 25.0
    zero_drift = SdeConfig(
        potential=_FlatPotential(), eta=0.04, dt=1e-3, T=1.0, x0=np.array([0.0]), seed=30
    )
    recs = lab.hitting_time_mc(
        zero_drift, Domain.interval(-1, 1), n_paths=4000, horizon=400.0, experiment="exit-min"
    )
    st = lab.exit_time_stats(recs)
    mc_rel = abs(st.mean - 25.0) / 25.0
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-6 and mc_rel <= 0.05 and st.censor_frac == 0.0 and elapsed < 120.0
    report(
        3,
        ok,
        f"BVP rel err {rel:.2e} (tol 1e-6); MC {st.mean:.4f}+-{st.stderr:.4f} "
        f"rel {mc_rel:.3%} (tol 5%), {elapsed:.1f}s",
    )


def test_criterion_04_well_escape_scaling(report):
    t0 = time.perf_counter()
    rep = lab.minimizer_scaling_fit(
        lab.builtin("quadratic_well"), 1.0, Domain.interval(-1, 1),
        eta_list=[1 / 4, 1 / 6, 1 / 8, 1 / 10, 1 / 20], source="bvp_1d",
    )
    values = [e.transform_value for e in rep.entries]
    steps_values = [e.steps_transform_value for e in rep.entries]
    elapsed = time.perf_counter() - t0
    increasing = all(a < b for a, b in zip(values, values[1:]))
    ok = (
        increasing
        and abs(values[-1] - 1.0) <= 0.25
        and abs(steps_values[-1] - 1.0) <= 0.25
        and elapsed < 30.0
    )
    report(
        4,
        ok,
        f"eta*log E[T] = {[round(float(v), 4) for v in values]} (increasing={increasing}, "
        f"limit 1 +-25%); eta*log E[N] final {steps_values[-1]:.4f}, {elapsed:.1f}s",
    )


def test_criterion_05_saddle_escape_clock(report):
    t0 = time.perf_counter()
    pot = lab.builtin("inverted_quadratic")
    dom = Domain.interval(-1.0, 1.0)
    etas = [1e-2, 1e-3, 1e-4]
    means = {"BVP": {}, "MC": {}}
    for eta in etas:
        means["BVP"][eta] = lab.mean_exit_bvp_1d(pot, eta, (-1.0, 1.0), 0.0)
        dt = min(eta / 10.0, 1e-3)
        cfg = SdeConfig(potential=pot, eta=eta, dt=dt, T=1.0, x0=np.array([0.0]), seed=41)
        recs = lab.hitting_time_mc(
            cfg, dom, n_paths=2000, horizon=200.0, experiment="exit-saddle"
        )
        means["MC"][eta] = lab.exit_time_stats(recs).mean
    # E[T] = (log(1/eta) + log 2 lam + gamma_E + log 2) / (2 lam) + o(1), so the
    # clock constant 1/(2 lam) is the slope of E[T] against log(1/eta); the
    # ratio E[T]/log(1/eta) itself is 0.5 + 0.98/log(1/eta), above 0.5 and
    # falling towards it along the ladder.
    span = math.log(etas[0] / etas[-1])
    slopes = {name: (m[etas[-1]] - m[etas[0]]) / span for name, m in means.items()}
    ratios = {
        name: [m[eta] / math.log(1.0 / eta) for eta in etas] for name, m in means.items()
    }
    # off-manifold start: the exit clock collapses to the travel time log 2
    u_off = lab.mean_exit_bvp_1d(pot, 1e-4, (-1.0, 1.0), 0.5)
    cfg_off = SdeConfig(potential=pot, eta=1e-4, dt=1e-5, T=1.0, x0=np.array([0.5]), seed=42)
    recs_off = lab.hitting_time_mc(
        cfg_off, dom, n_paths=2000, horizon=50.0, experiment="exit-saddle"
    )
    mc_off = lab.exit_time_stats(recs_off).mean
    elapsed = time.perf_counter() - t0
    clock_ok = all(abs(s - 0.5) <= 0.1 for s in slopes.values())
    ratio_ok = all(
        r[-1] > 0.5 and all(a > b for a, b in zip(r, r[1:])) for r in ratios.values()
    )
    off_ok = (
        abs(u_off - math.log(2.0)) <= 0.05 * math.log(2.0)
        and abs(mc_off - math.log(2.0)) <= 0.05 * math.log(2.0)
    )
    ok = clock_ok and ratio_ok and off_ok and elapsed < 600.0
    ladder = "; ".join(
        f"{name} " + ", ".join(f"{x:.4f}" for x in r) for name, r in ratios.items()
    )
    report(
        5,
        ok,
        f"slope of E[T] over log(1/eta) in [1e-4, 1e-2]: BVP {slopes['BVP']:.4f}, "
        f"MC {slopes['MC']:.4f} (target 0.5 +-20%); E[T]/log(1/eta) at eta = "
        f"1e-2, 1e-3, 1e-4: {ladder} (above 0.5, falling); off-manifold exit "
        f"BVP {u_off:.4f}, MC {mc_off:.4f} (log 2 +-5%), {elapsed:.0f}s",
    )


def test_criterion_06_saddle_exit_direction_2d(report):
    t0 = time.perf_counter()
    pot = lab.builtin("saddle_2d")
    eta = 1e-4
    cfg = SgdConfig(
        eta=eta, steps=1, x0=np.zeros(2),
        oracle=lab.AdditiveGaussianOracle.isotropic(pot, 1.0), seed=51,
    )
    dom = Domain.ball(np.zeros(2), 1.0)
    recs = lab.hitting_time_mc(
        cfg, dom, n_paths=2000, horizon=50.0, experiment="exit-saddle"
    )
    st = lab.exit_time_stats(recs)
    points = np.array([r.exit_point for r in recs if not r.censored])
    angles = np.arctan2(np.abs(points[:, 1]), np.abs(points[:, 0]))
    frac = float(np.mean(angles <= math.pi / 8))
    ratio = st.mean / math.log(1.0 / eta)
    elapsed = time.perf_counter() - t0
    ok = frac >= 0.90 and abs(ratio - 0.5) <= 0.125 and elapsed < 900.0
    report(
        6,
        ok,
        f"{frac:.1%} of exits within pi/8 of the unstable axis (need >=90%); "
        f"E[T]/log(1/eta) = {ratio:.4f} (0.5 +-25%), {elapsed:.0f}s",
    )


def test_criterion_07_kramers_prefactor_consistency(report):
    t0 = time.perf_counter()
    pot = lab.builtin("double_well_1d")
    x_star = np.array([1.0])
    ratios = {}
    log_means = {}
    for eta in (0.1, 0.05):
        u = lab.mean_exit_bvp_1d(pot, eta, (-1.0, 2.0), 1.0)
        pred = lab.kramers_predictor(pot, eta, x_star=x_star, z_star=[0.0])
        ratios[eta] = pred / u
        log_means[eta] = math.log(u)
    slope = (log_means[0.05] - log_means[0.1]) / (1 / 0.05 - 1 / 0.1)
    elapsed = time.perf_counter() - t0
    ok = (
        all(1 / 1.5 <= r <= 1.5 for r in ratios.values())
        and abs(slope - 0.5) <= 0.075
        and elapsed < 60.0
    )
    report(
        7,
        ok,
        f"predictor/BVP ratios {ratios[0.1]:.4f}, {ratios[0.05]:.4f} (factor 1.5); "
        f"log-slope vs 1/eta {slope:.4f} (0.5 +-15%), {elapsed:.1f}s",
    )


def test_criterion_08_annealed_noise_finds_the_deep_well(report):
    t0 = time.perf_counter()
    pot = lab.builtin("asym_double_well_1d", params=(-0.05,))
    shallow = max(pot.minimizers(), key=lambda cp: float(pot.value(cp.location)))
    (top,) = pot.unstable_points()
    barrier = float(pot.value(top.location) - pot.value(shallow.location))
    gamma = 8.0 * barrier
    kwargs = dict(
        T=500.0, n_paths=500, epsilon=0.25, start=shallow.location, seed=60,
    )
    cooled = lab.anneal_experiment(pot, gamma=gamma, mode="cooling", **kwargs)
    frozen = lab.anneal_experiment(pot, gamma=gamma, mode="constant", **kwargs)
    gap = cooled.success_prob - frozen.success_prob
    elapsed = time.perf_counter() - t0
    ok = cooled.success_prob >= 0.8 and gap >= 0.1 and elapsed < 600.0
    report(
        8,
        ok,
        f"gamma = 8 x barrier = {gamma:.4f}: cooling success {cooled.success_prob:.3f} "
        f"(need >=0.8), constant {frozen.success_prob:.3f}, gap {gap:.3f} "
        f"(need >=0.1), {elapsed:.0f}s",
    )


def test_criterion_09_normal_deviation_limit(report):
    t0 = time.perf_counter()
    pot = lab.builtin("quadratic_well")
    rep = lab.deviation_empirical(
        pot, lab.AdditiveGaussianOracle.isotropic(pot, 1.0), eta=0.01, T=1.0,
        x0=np.array([1.0]), n_paths=5000, seed=70,
    )
    lyap = (1.0 - math.exp(-2.0)) / 2.0
    rel = abs(rep.empirical_cov[0, 0] - lyap) / lyap
    se = math.sqrt(lyap / rep.n_paths)
    mean_tol = 4 * se + 0.05
    mean_abs = abs(rep.empirical_mean[0])
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.10 and mean_abs <= mean_tol and elapsed < 120.0
    report(
        9,
        ok,
        f"rescaled-deviation cov {rep.empirical_cov[0, 0]:.5f} vs {lyap:.5f} "
        f"(rel {rel:.3%}, tol 10%); |mean| {mean_abs:.4f} <= {mean_tol:.4f}, {elapsed:.0f}s",
    )


def test_criterion_10_ode_limit_sup_gap(report):
    t0 = time.perf_counter()
    pot = lab.builtin("double_well_1d")
    oracle = lab.AdditiveGaussianOracle.isotropic(pot, 0.3)
    gaps = []
    for eta in (0.1, 0.05, 0.025):
        mean, _ = lab.flow_sup_gap(
            pot, oracle, eta, T=1.0, x0=np.array([1.5]), n_paths=1000, seed=80,
            experiment="ode-limit",
        )
        gaps.append(mean)
    elapsed = time.perf_counter() - t0
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = decreasing and elapsed < 120.0
    report(
        10,
        ok,
        f"E[sup-norm gap to the flow] = {[round(g, 5) for g in gaps]} over "
        f"eta = 0.1, 0.05, 0.025 (strictly decreasing={decreasing}), {elapsed:.0f}s",
    )


TINY_CONFIGS = {
    "weak-order": (
        "experiment = weak-order\npotential = quadratic_well\nsigma = 1.0\n"
        "x0 = 1.0\nT = 1.0\neta_list = 0.2, 0.1, 0.05, 0.025\n"
        "drift_order = both\nsource = exact\nseed = 3\n"
    ),
    "exit-min": (
        "experiment = exit-min\npotential = quadratic_well\nsigma = 1.0\n"
        "domain = interval\ndomain_lo = -1\ndomain_hi = 1\neta_list = 0.25, 0.2\n"
        "source = mc\nn_paths = 64\ndt = 1e-3\nhorizon = 400\nseed = 4\n"
    ),
    "exit-saddle": (
        "experiment = exit-saddle\npotential = inverted_quadratic\nsigma = 1.0\n"
        "x0 = 0.0\ndomain = interval\ndomain_lo = -1\ndomain_hi = 1\n"
        "eta_list = 0.01\nsource = mc\nn_paths = 64\ndt = 1e-3\nhorizon = 100\n"
        "seed = 5\n"
    ),
    "kramers": (
        "experiment = kramers\npotential = double_well_1d\nsigma = 1.0\n"
        "x0 = 1.0\ndomain = interval\ndomain_lo = -1\ndomain_hi = 2\n"
        "eta_list = 0.1, 0.05\nseed = 6\n"
    ),
    "anneal": (
        "experiment = anneal\npotential = asym_double_well_1d\n"
        "potential_params = -0.05\ngamma = 0.4\nT = 50\nn_paths = 64\n"
        "epsilon = 0.25\nseed = 7\n"
    ),
    "deviation": (
        "experiment = deviation\npotential = quadratic_well\nsigma = 1.0\n"
        "eta = 0.02\nT = 0.5\nx0 = 1.0\nn_paths = 256\nseed = 8\n"
    ),
    "batch-cov": (
        "experiment = batch-cov\npotential = gaussian_cloud_finite_sum\ndim = 2\n"
        "potential_params = 0.5, 0.0, -0.5, 0.0, 0.0, 0.5, 0.0, -0.5\n"
        "x0 = 0.25, 0.25\nm_list = 1, 2, 4\nseed = 9\n"
    ),
    "ode-limit": (
        "experiment = ode-limit\npotential = double_well_1d\nsigma = 0.3\n"
        "x0 = 1.5\nT = 1.0\neta_list = 0.1, 0.05\nn_paths = 128\nseed = 10\n"
    ),
}


def test_criterion_11_worker_count_determinism(tmp_path, report):
    mismatches = []
    for name, text in TINY_CONFIGS.items():
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(text)
        digests = {}
        for workers in (1, 3):
            out_dir = tmp_path / f"{name}-w{workers}"
            out_dir.mkdir()
            out = str(out_dir / "run")
            rc = cli_main(
                [name, "--config", str(cfg_path), "--out", out, "--workers", str(workers)]
            )
            assert rc == 0, f"{name} exited {rc}"
            manifest = json.loads((out_dir / "run.manifest").read_text())
            digests[workers] = {
                f: d for f, d in manifest["files"].items() if f.endswith(".csv")
            }
            for fname, digest in digests[workers].items():
                raw = (out_dir / fname).read_bytes()
                assert "sha256:" + hashlib.sha256(raw).hexdigest() == digest
        if digests[1] != digests[3]:
            mismatches.append(name)
    ok = not mismatches
    report(
        11,
        ok,
        "CSV artifacts byte-identical for workers 1 vs 3 across all eight "
        f"experiments{'' if ok else ' EXCEPT ' + ', '.join(mismatches)}",
    )


class _FlatPotential:
    """Zero-gradient stand-in so the Euler scheme integrates pure noise."""

    dim = 1

    def value(self, x):
        return 0.0

    def gradient(self, x):
        return np.zeros_like(x)

    def hessian(self, x):
        return np.zeros((1, 1))
