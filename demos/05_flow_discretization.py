"""Second-order damped flow, its Lyapunov envelope, and the discretization.

The damped system x'' + alpha x' + grad h(x) = 0 dissipates

    Sigma = h - h* + 0.5 |lam (x - x_bar) + x'|^2 + (lam^2 / 2) |x - x_bar|^2

at rate lam kappa / 2 once lam <= min{sqrt(gamma/2kappa), 2alpha/(kappa+4)}.
Discretizing with time step eta via theta = 1 - alpha eta, beta = eta^2
gives exactly the heavy-ball recursion; the trajectory gap shrinks
linearly in eta.

Run:  python3 demos/05_flow_discretization.py
"""

import numpy as np

from sqcflow import catalog, flows, solvers
from sqcflow.flows import FlowConfig
from sqcflow.solvers import HBConfig


def lyapunov_block():
    print("=" * 72)
    print("Lyapunov decay on the anisotropic quadratic (gamma=1, L=4)")
    print("=" * 72)
    entry = catalog.default_catalog()["quadratic_2d"]
    gamma, L, alpha = 1.0, 4.0, 3.0
    kappa = gamma / L
    cfg = FlowConfig(x0=[1.0, 1.0], t_end=20.0, dt=1e-3, alpha=alpha)
    traj = flows.integrate_second_order(entry.oracle, cfg, gamma, kappa)
    cert = flows.certify_second_order(traj)
    print(f"  kappa = gamma/L = {kappa}, lam = {traj.param('lam'):.6f}, "
          f"certified rate = {cert.theoretical_rate:.6f}")
    sigma = traj.diagnostic("Sigma")
    print(f"  Sigma(0)={sigma[0]:.4f} -> Sigma(20)={sigma[-1]:.3e}, "
          f"nonincreasing: {bool(np.all(np.diff(sigma) <= 1e-9))}")
    print(f"  envelope satisfied: {cert.satisfied}, fitted exponent "
          f"{cert.empirical_rate:.4f} >= certified {cert.theoretical_rate:.4f}")


def discretization_block():
    print()
    print("=" * 72)
    print("heavy ball as the explicit discretization (isotropic quadratic)")
    print("=" * 72)
    entry = catalog.strongly_convex_quadratic(2, 1.0, 1.0)
    x0 = np.array([1.0, 0.5])
    alpha = 3.0
    print(f"    {'eta':>8s} {'theta':>8s} {'beta':>10s} {'max gap':>10s}")
    gaps = []
    for eta in (0.02, 0.01, 0.005, 0.0025):
        theta, beta = 1.0 - alpha * eta, eta ** 2
        n = int(round(1.0 / eta))
        hb = solvers.heavy_ball(entry.oracle,
                                HBConfig(x0=x0, theta=theta, beta=beta,
                                         max_iters=n, stop_grad_tol=0.0))
        fl = flows.integrate_second_order(
            entry.oracle, FlowConfig(x0=x0, t_end=1.0,
                                     dt=eta / 10.0, alpha=alpha))
        gap = float(np.max(np.abs(hb.states - fl.states[::10][:len(hb.states)])))
        gaps.append(gap)
        print(f"    {eta:8.4f} {theta:8.4f} {beta:10.6f} {gap:10.6f}")
    ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
    print(f"  successive gap ratios (first-order scheme -> about 2): "
          f"{', '.join(f'{r:.2f}' for r in ratios)}")


def main():
    lyapunov_block()
    discretization_block()


if __name__ == "__main__":
    main()
