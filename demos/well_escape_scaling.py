"""Escape from a potential well takes exponentially long in 1/eta.

For small-noise SGD started at a local minimizer, the mean first-exit time
from a surrounding domain grows like exp(c/eta): on a log scale, eta * log
E[T] approaches a constant set by the potential barrier (the quasi-potential
of the domain boundary). This script computes mean exit times from the
two-sided escape problem for a double well, via a boundary-value solver for
the mean-exit-time ODE, and watches eta * log E[T] flatten as eta shrinks.

A direct Monte Carlo simulation of the overdamped dynamics cross-checks the
solver at one step size.
"""

import numpy as np

import sgdlab as lab


def main():
    # Symmetric double well with minima at +-1 and barrier height 0.25 at 0;
    # exits are measured from the right well through the domain boundary.
    pot = lab.builtin("double_well_1d")
    sigma = 1.0
    domain = lab.Domain.interval(0.0, 2.0)

    etas = [1 / 4, 1 / 8, 1 / 16, 1 / 24, 1 / 32, 1 / 40]
    rep = lab.minimizer_scaling_fit(pot, sigma, domain, etas, source="bvp_1d")

    barrier = lab.quasi_potential_isotropic(pot, sigma, domain)
    print(f"quasi-potential of the boundary (barrier height x 2): {barrier:.4f}")
    print()
    print(f"{'eta':>10}  {'E[T]':>14}  {'eta*log E[T]':>13}")
    for ent in rep.entries:
        print(f"{ent.eta:>10.5f}  {ent.mean_exit_time:>14.4f}  "
              f"{ent.transform_value:>13.4f}")
    print(f"\nfitted limiting constant: {rep.fitted_constant:.4f} "
          f"(reference {rep.reference_constant:.4f}; convergence is only "
          f"logarithmic in eta, so the approach is slow)")

    # Monte Carlo cross-check at the coarsest eta: simulate the SDE with a
    # fine time step and compare the mean exit time against the solver.
    eta = etas[0]
    cfg = lab.SdeConfig(potential=pot, eta=eta, dt=1e-4, T=1.0,
                        x0=np.array([1.0]), diffusion=sigma, seed=13)
    records = lab.hitting_time_mc(cfg, domain, n_paths=1500, horizon=200.0)
    stats = lab.exit_time_stats(records)
    u = lab.mean_exit_bvp_1d(pot, eta * sigma**2, (0.0, 2.0), 1.0)
    print(f"\nMC cross-check at eta = {eta}: "
          f"simulated E[T] = {stats.mean:.3f} +- {stats.stderr:.3f}, "
          f"solver E[T] = {u:.3f} "
          f"(diff {abs(stats.mean - u) / u * 100:.1f}%)")


if __name__ == "__main__":
    main()
