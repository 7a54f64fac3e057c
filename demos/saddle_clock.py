"""Escape from a saddle takes logarithmic time, not exponential time.

Started exactly on an unstable critical point, small-noise dynamics leave a
fixed neighbourhood after a time of order log(1/eta): the noise only needs
to push the state off the unstable manifold, after which the deterministic
instability does the rest. For the 1-D inverted parabola -x^2/2, the mean
exit time from (-1, 1) satisfies E[T] / log(1/eta) -> 1/(2*lambda) with
lambda = 1, so the ratio approaches 0.5 (slowly - the correction is an
O(1)/log(1/eta) constant).

In 2-D, the same mechanism makes exits directional: paths leave through the
unstable axis. The second half of the script runs the discrete SGD chain on
a saddle and histograms the exit angles.
"""

import math

import numpy as np

import sgdlab as lab


def main():
    pot = lab.builtin("inverted_quadratic")

    print("1-D saddle clock: mean exit time from (-1, 1), started at 0")
    print(f"{'eta':>8}  {'E[T]':>10}  {'E[T]/log(1/eta)':>16}")
    for eta in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
        u = lab.mean_exit_bvp_1d(pot, eta, (-1.0, 1.0), 0.0)
        print(f"{eta:>8.0e}  {u:>10.4f}  {u / math.log(1.0 / eta):>16.4f}")
    print("limit 0.5 = 1/(2*lambda); the excess is the O(1) additive "
          "constant divided by log(1/eta)\n")

    # Away from the saddle the clock is deterministic: the travel time of
    # the noiseless flow. From x0 = 0.5 the flow reaches the boundary at
    # log(1/0.5) = log 2.
    u_off = lab.mean_exit_bvp_1d(pot, 1e-6, (-1.0, 1.0), 0.5)
    print(f"started off the saddle at x0 = 0.5: E[T] = {u_off:.4f} "
          f"~ log 2 = {math.log(2):.4f}\n")

    # 2-D: exits concentrate along the unstable direction. The saddle has
    # an unstable x-axis and a stable y-axis; count SGD exits from the unit
    # ball by angle from the x-axis.
    saddle = lab.builtin("saddle_2d")
    oracle = lab.AdditiveGaussianOracle.isotropic(saddle, 1.0)
    cfg = lab.SgdConfig(eta=1e-4, steps=1, x0=np.zeros(2), oracle=oracle,
                        seed=51)
    records = lab.hitting_time_mc(cfg, lab.Domain.ball(np.zeros(2), 1.0),
                                  n_paths=2000, horizon=50.0)
    pts = np.array([r.exit_point for r in records if not r.censored])
    angles = np.arctan2(np.abs(pts[:, 1]), np.abs(pts[:, 0]))
    frac = float(np.mean(angles <= math.pi / 8))
    print(f"2-D saddle, {len(pts)} exits from the unit ball at eta = 1e-4:")
    edges = np.linspace(0.0, math.pi / 2, 7)
    hist, _ = np.histogram(angles, bins=edges)
    for lo, hi, c in zip(edges[:-1], edges[1:], hist):
        bar = "#" * int(round(60 * c / len(pts)))
        print(f"  angle from unstable axis {lo:4.2f}-{hi:4.2f} rad: "
              f"{c:>5}  {bar}")
    print(f"fraction within pi/8 of the unstable axis: {frac:.3f}")


if __name__ == "__main__":
    main()
