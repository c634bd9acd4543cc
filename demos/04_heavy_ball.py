"""Heavy-ball energy contraction and its four tail bounds.

With theta in ]0,1[ and beta in ]0, (1-theta^2)/L[ the energy

    E_k = h(x_k) - h* + (theta^2 / 2 beta) |x_k - x_{k-1}|^2

contracts by 1 - rho/sigma per step, which also bounds the values, the
step norms, the gradient norms, and the distances.  The first block
reproduces the textbook numbers rho = 1/4, sigma = 5/2 on h = x^2/2 with
theta = beta = 1/2; the second sweeps theta.

Run:  python3 demos/04_heavy_ball.py
"""

import numpy as np

from sqcflow import catalog, solvers
from sqcflow.solvers import HBConfig


def main():
    entry = catalog.default_catalog()["quadratic_1d"]

    print("=" * 72)
    print("h = x^2/2, theta = 0.5, beta = 0.5, 200 iterations")
    print("=" * 72)
    traj = solvers.heavy_ball(entry.oracle,
                              HBConfig(x0=[1.0], theta=0.5, beta=0.5,
                                       max_iters=200, stop_grad_tol=0.0))
    cert = solvers.certify_hb_energy(traj, 1.0, 1.0)
    c = cert.constants
    print(f"  rho={c['rho']}, sigma={c['sigma']}, "
          f"per-step factor={c['factor']}")
    E = traj.diagnostic("energy")
    worst = float(np.max(E[1:] / np.maximum(E[:-1], 1e-300)))
    print(f"  worst observed E ratio: {worst:.4f} <= {c['factor']}")
    print(f"  energy fitted factor: {cert.empirical_rate:.4f}")
    print(f"  certificate satisfied (recursion + 4 tails): {cert.satisfied}")

    print()
    print("=" * 72)
    print("theta sweep at beta = (1 - theta^2)/(2L)")
    print("=" * 72)
    print(f"    {'theta':>6s} {'beta':>8s} {'factor':>8s} {'fitted':>8s} {'ok':>4s}")
    for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
        beta = 0.5 * (1 - theta ** 2)
        traj = solvers.heavy_ball(entry.oracle,
                                  HBConfig(x0=[1.0], theta=theta, beta=beta,
                                           max_iters=300, stop_grad_tol=0.0))
        cert = solvers.certify_hb_energy(traj, 1.0, 1.0)
        print(f"    {theta:6.2f} {beta:8.4f} {cert.theoretical_rate:8.4f} "
              f"{cert.empirical_rate:8.4f} {str(cert.satisfied):>4s}")

    print()
    print("  theta = 0 reproduces plain gradient descent bitwise:")
    from sqcflow.solvers import GDConfig, gradient_descent
    gd = gradient_descent(entry.oracle,
                          GDConfig(x0=[1.0], beta=0.3, max_iters=40,
                                   stop_grad_tol=0.0))
    hb0 = solvers.heavy_ball(entry.oracle,
                             HBConfig(x0=[1.0], theta=0.0, beta=0.3,
                                      max_iters=40, stop_grad_tol=0.0))
    print(f"  identical trajectories: {np.array_equal(gd.states, hb0.states)}")


if __name__ == "__main__":
    main()
