"""First-order gradient flow: monotone decrease and exponential envelopes.

Integrates dx/dt = -grad h(x) on three oracles and certifies the distance
envelope |x(t) - x_bar| <= |x0 - x_bar| exp(-gamma t / 2) plus both
function-value envelopes.  The fitted decay exponent is always at least
the certified one, usually visibly larger.

Run:  python3 demos/02_gradient_flow.py
"""

import numpy as np

from sqcflow import catalog, estimate, flows
from sqcflow.flows import FlowConfig


def certify(name, oracle, gamma, L, x0, t_end):
    cfg = FlowConfig(x0=x0, t_end=t_end, dt=1e-3)
    traj = flows.integrate_first_order(oracle, cfg)
    dist_cert = flows.certify_first_order(traj, gamma)
    print(f"\n  {name}: {len(traj) - 1} rk4 steps to t={traj.times[-1]:g}")
    print(f"    h(x0)={traj.h_values[0]:.4f} -> h(x_end)={traj.h_values[-1]:.3e},"
          f" monotone: {bool(np.all(np.diff(traj.h_values) <= 1e-9))}")
    print(f"    distance envelope exp(-{gamma / 2:.4f} t): "
          f"satisfied={dist_cert.satisfied}, fitted exponent="
          f"{dist_cert.empirical_rate:.4f}")
    if L is not None:
        val_cert = flows.certify_first_order_values(traj, gamma, L)
        print(f"    value envelopes (L={L:.3g}): satisfied={val_cert.satisfied},"
              f" fitted exponent={val_cert.empirical_rate:.4f}"
              f" >= certified {val_cert.theoretical_rate:.4f}")


def main():
    print("=" * 72)
    print("first-order flow certificates")
    print("=" * 72)

    q2 = catalog.default_catalog()["quadratic_2d"]
    certify("anisotropic quadratic", q2.oracle, 1.0, 4.0, [1.0, 1.0], 10.0)

    sinq = catalog.default_catalog()["sin_quadratic"]
    gamma = estimate.empirical_modulus(sinq.oracle, samples=50_000,
                                       seed=3).safe
    L = estimate.estimate_lipschitz_sublevel(sinq.oracle, [2.0], samples=2000,
                                             seed=3).safe
    print(f"\n  (sin_quadratic constants are empirical: gamma={gamma:.4f}, "
          f"L={L:.4f})")
    certify("sin_quadratic", sinq.oracle, gamma, L, [2.0], 6.0)

    # the square-root norm flow reaches the minimizer in finite time;
    # integration stops just short of the nonsmooth point
    sq = catalog.default_catalog()["sqrt_norm_1d"]
    cfg = FlowConfig(x0=[0.9], t_end=1.2, dt=1e-4, stop_dist=1e-3)
    traj = flows.integrate_first_order(sq.oracle, cfg)
    cert = flows.certify_first_order(traj, sq.constants_known["gamma"])
    t_star = (4.0 / 3.0) * 0.9 ** 1.5
    print(f"\n  sqrt_norm_1d from 0.9: stopped at t={traj.times[-1]:.4f} "
          f"(finite extinction time {t_star:.4f}), |x|={abs(traj.final_state[0]):.2e}")
    print(f"    envelope with the ball modulus: satisfied={cert.satisfied}")


if __name__ == "__main__":
    main()
