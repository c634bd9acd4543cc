"""Gradient-method step window and the optimal constant step.

On the diagonal quadratic with gamma = 1, L0 = 4 the certified window is
0 < beta < min{gamma/L0^2, 2/L0} = 1/16, the squared-distance contraction
factor is 1 - beta(gamma - beta L0^2), and the best certified factor
1 - gamma^2/(4 L0^2) is reached at beta* = gamma/(2 L0^2).  The sweep
below compares the certified factor with the fitted one and repeats the
exercise with purely empirical constants on the nonconvex sin_quadratic.

Run:  python3 demos/03_gradient_descent_rates.py
"""

from sqcflow import catalog, estimate, solvers
from sqcflow.solvers import GDConfig


def sweep(entry, gamma, L0, x0, betas, iters=300):
    print(f"    {'beta':>10s} {'certified':>10s} {'fitted':>10s} {'ok':>4s}")
    for beta in betas:
        traj = solvers.gradient_descent(
            entry.oracle, GDConfig(x0=x0, beta=beta, max_iters=iters,
                                   stop_grad_tol=0.0))
        cert = solvers.certify_gd_contraction(traj, gamma, L0)
        print(f"    {beta:10.5f} {cert.theoretical_rate:10.5f} "
              f"{cert.empirical_rate:10.5f} {str(cert.satisfied):>4s}")


def main():
    print("=" * 72)
    print("diagonal quadratic, exact constants gamma=1, L0=4")
    print("=" * 72)
    entry = catalog.default_catalog()["quadratic_3d"]
    top = solvers.step_window(1.0, 4.0)
    beta_star = solvers.optimal_step(1.0, 4.0)
    print(f"  window top = {top:.5f}, optimal step = {beta_star:.5f}, "
          f"best certified squared factor = {1 - 1 / 64:.5f}")
    sweep(entry, 1.0, 4.0, [1.0, 1.0, 0.5],
          [0.2 * top, 0.4 * top, beta_star, 0.95 * top])

    print()
    print("=" * 72)
    print("sin_quadratic, all constants estimated")
    print("=" * 72)
    sinq = catalog.default_catalog()["sin_quadratic"]
    gamma = estimate.empirical_modulus(sinq.oracle, samples=50_000,
                                       seed=3).safe
    L0 = estimate.estimate_lipschitz_sublevel(sinq.oracle, [2.0],
                                              samples=2000, seed=3).safe
    print(f"  empirical gamma = {gamma:.4f}, sublevel L0 = {L0:.4f}, "
          f"window top = {solvers.step_window(gamma, L0):.6f}")
    sweep(sinq, gamma, L0, [2.0],
          [0.5 * solvers.optimal_step(gamma, L0),
           solvers.optimal_step(gamma, L0),
           0.9 * solvers.step_window(gamma, L0)])

    print()
    print("  exact stopping rule: a step below one ulp reports a stationary "
          "point")
    traj = solvers.gradient_descent(
        catalog.default_catalog()["quadratic_1d"].oracle,
        GDConfig(x0=[1.0], beta=1e-17, max_iters=10, stop_grad_tol=0.0))
    print(f"  iterates recorded: {len(traj)} (stopped on x_next == x)")


if __name__ == "__main__":
    main()
