"""Fixed verification batteries: acceptance, ladder, rates.

``CRITERIA`` is the canonical acceptance battery; the pytest acceptance
module and ``sqcflow bench --suite acceptance`` both run it, one
pass/fail line per criterion.  Seeds, budgets, and tolerances are pinned
here and nowhere else.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
import time
from pathlib import Path

import numpy as np

from . import catalog, cli, estimate, flows, solvers, verify
from .core import InvalidParameter
from .flows import FlowConfig
from .sampling import NestedSampler, inverse_normal_cdf
from .solvers import GDConfig, HBConfig

SEED = 42
PAIRS = 10_000


def criterion_equivalence(workdir: Path):
    """Value definition and gradient characterization agree on five oracles."""
    t0 = time.time()
    cat = catalog.default_catalog()
    cases = [
        ("quadratic_2d", 1.0),
        ("sqrt_norm_2d", cat["sqrt_norm_2d"].oracle.known_modulus),
        ("sin_quadratic", estimate.empirical_modulus(
            cat["sin_quadratic"].oracle, samples=100_000, seed=SEED).safe),
        ("quadratic_fraction", cat["quadratic_fraction"].oracle.known_modulus),
        ("max_two_quadratics", 1.0),
    ]
    budget = verify.SampleBudget(pairs=PAIRS, lambdas_per_pair=2, seed=SEED)
    failures = []
    for name, gamma in cases:
        oracle = cat[name].oracle
        r1 = verify.check_strong_quasiconvexity(oracle, gamma, budget)
        r2 = verify.check_gradient_characterization(oracle, gamma, budget)
        if not (r1.holds_on_samples and r2.holds_on_samples):
            failures.append(f"{name} (sqc={r1.holds_on_samples}, "
                            f"char={r2.holds_on_samples})")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 10.0
    return ok, f"elapsed={elapsed:.2f}s failures={failures or 'none'}"


def criterion_pl_constant(workdir: Path):
    """PL holds at gamma^2/2L; the degenerate quadratic separates the classes."""
    cat = catalog.default_catalog()
    budget = verify.SampleBudget(pairs=PAIRS, seed=SEED)
    mu = verify.derive_pl_modulus(1.0, 1.0)
    pl_1d = verify.check_pl(cat["quadratic_1d"].oracle, mu, budget)
    deg = cat["degenerate_quadratic"].oracle
    pl_deg = verify.check_pl(deg, 1.0, budget)
    sqc_deg = verify.check_strong_quasiconvexity(deg, 0.1, budget)
    sqc_deg_again = verify.check_strong_quasiconvexity(deg, 0.1, budget)
    witness_ok = False
    if sqc_deg.violations:
        w = sqc_deg.violations[0]
        margin, tol = verify.witness_margin(deg, sqc_deg, w)
        w2 = sqc_deg_again.violations[0]
        witness_ok = (margin < -tol
                      and np.array_equal(w.x, w2.x) and np.array_equal(w.y, w2.y)
                      and w.lam == w2.lam)
    ok = (mu == 0.5 and pl_1d.holds_on_samples and pl_deg.holds_on_samples
          and not sqc_deg.holds_on_samples and witness_ok)
    return ok, (f"mu={mu} pl_1d={pl_1d.holds_on_samples} "
                f"pl_deg={pl_deg.holds_on_samples} "
                f"sqc_deg_violations={sqc_deg.violations_count} "
                f"witness_reproducible={witness_ok}")


def criterion_flow_envelope(workdir: Path):
    """First-order flow distance envelope on the anisotropic quadratic."""
    t0 = time.time()
    entry = catalog.default_catalog()["quadratic_2d"]
    cfg = FlowConfig(x0=[1.0, 1.0], t_end=10.0, dt=1e-3)
    traj = flows.integrate_first_order(entry.oracle, cfg)
    cert = flows.certify_first_order(traj, 1.0)
    elapsed = time.time() - t0
    ok = (cert.satisfied and cert.first_violation is None
          and cert.empirical_rate >= 0.95 and elapsed < 5.0)
    return ok, (f"satisfied={cert.satisfied} empirical={cert.empirical_rate:.4f} "
                f"elapsed={elapsed:.2f}s")


def _criterion4_runs():
    cat = catalog.default_catalog()
    q3 = cat["quadratic_3d"]
    x0 = [1.0, 1.0, 0.5]
    L_hat = estimate.estimate_lipschitz_sublevel(q3.oracle, x0,
                                                 samples=2000, seed=SEED).safe
    beta_star = solvers.optimal_step(1.0, L_hat)
    traj3 = solvers.gradient_descent(
        q3.oracle, GDConfig(x0=x0, beta=beta_star, max_iters=300,
                            stop_grad_tol=0.0))
    q1 = cat["quadratic_1d"]
    traj1 = solvers.gradient_descent(
        q1.oracle, GDConfig(x0=[1.0], beta=0.5, max_iters=40,
                            stop_grad_tol=0.0))
    return q3, L_hat, traj3, q1, traj1


def criterion_gd_contraction(workdir: Path):
    """Per-step contraction inequality and the optimal-step factor bound."""
    t0 = time.time()
    q3, L_hat, traj3, q1, traj1 = _criterion4_runs()
    c3 = solvers.certify_gd_contraction(traj3, 1.0, L_hat)
    q_sq = c3.constants["q_squared"]
    fitted_ok = c3.empirical_rate <= q_sq + 0.05
    c1 = solvers.certify_gd_contraction(traj1, 1.0, 1.0)
    d2 = traj1.diagnostic("dist") ** 2
    factors = d2[1:] / d2[:-1]
    exact = np.allclose(factors, 0.25, rtol=0, atol=1e-12)
    elapsed = time.time() - t0
    ok = (c3.satisfied and c3.first_violation is None and fitted_ok
          and c1.satisfied and exact
          and abs(c1.constants["q_squared"] - 0.75) < 1e-12
          and elapsed < 2.0)
    return ok, (f"L_hat={L_hat:.4f} empirical={c3.empirical_rate:.4f} "
                f"q_sq={q_sq:.4f} per_step_1d={factors[0]:.6g} "
                f"elapsed={elapsed:.2f}s")


def criterion_gd_values(workdir: Path):
    """Both function-value envelopes hold on the criterion-4 runs."""
    q3, L_hat, traj3, q1, traj1 = _criterion4_runs()
    c3 = solvers.certify_gd_values(traj3, 1.0, L_hat)
    c1 = solvers.certify_gd_values(traj1, 1.0, 1.0)
    ok = (c3.satisfied and c3.first_violation is None
          and c1.satisfied and c1.first_violation is None)
    return ok, (f"3d satisfied={c3.satisfied} 1d satisfied={c1.satisfied} "
                f"factors=({c1.constants['factor_dist']:.4f}, "
                f"{c1.constants['factor_value']:.4f})")


def criterion_hb_energy(workdir: Path):
    """Energy recursion factor 0.9 and all four tail bounds on 0.5 x^2."""
    t0 = time.time()
    entry = catalog.default_catalog()["quadratic_1d"]
    traj = solvers.heavy_ball(entry.oracle,
                              HBConfig(x0=[1.0], theta=0.5, beta=0.5,
                                       max_iters=200, stop_grad_tol=0.0))
    cert = solvers.certify_hb_energy(traj, 1.0, 1.0)
    elapsed = time.time() - t0
    ok = (cert.satisfied
          and abs(cert.constants["rho"] - 0.25) < 1e-15
          and abs(cert.constants["sigma"] - 2.5) < 1e-15
          and abs(cert.constants["factor"] - 0.9) < 1e-15
          and len(traj) == 201 and elapsed < 1.0)
    return ok, (f"rho={cert.constants['rho']} sigma={cert.constants['sigma']} "
                f"factor={cert.constants['factor']} iters={len(traj) - 1} "
                f"satisfied={cert.satisfied} elapsed={elapsed:.2f}s")


def criterion_second_order_lyapunov(workdir: Path):
    """Damped-flow energy decays at the certified exponential rate."""
    t0 = time.time()
    entry = catalog.default_catalog()["quadratic_2d"]
    gamma, L, alpha = 1.0, 4.0, 3.0
    kappa = gamma / L
    lam_expected = min(np.sqrt(gamma / (2 * kappa)), 2 * alpha / (kappa + 4))
    cfg = FlowConfig(x0=[1.0, 1.0], t_end=20.0, dt=1e-3, alpha=alpha)
    traj = flows.integrate_second_order(entry.oracle, cfg, gamma, kappa)
    cert = flows.certify_second_order(traj)
    elapsed = time.time() - t0
    lam = traj.param("lam")
    ok = (cert.satisfied and cert.first_violation is None
          and abs(lam - lam_expected) < 1e-15 and elapsed < 5.0)
    return ok, (f"lam={lam:.6f} rate={cert.theoretical_rate:.4f} "
                f"empirical={cert.empirical_rate:.4f} "
                f"satisfied={cert.satisfied} elapsed={elapsed:.2f}s")


def _discretization_gap(eta: float) -> float:
    entry = catalog.strongly_convex_quadratic(2, 1.0, 1.0)
    x0 = np.array([1.0, 0.5])
    alpha = 3.0
    theta, beta = 1.0 - alpha * eta, eta ** 2
    n = int(round(1.0 / eta))
    hb = solvers.heavy_ball(entry.oracle,
                            HBConfig(x0=x0, theta=theta, beta=beta,
                                     max_iters=n, stop_grad_tol=0.0))
    fl = flows.integrate_second_order(
        entry.oracle, FlowConfig(x0=x0, t_end=1.0, dt=eta / 10.0, alpha=alpha))
    flow_states = fl.states[::10]
    m = min(len(hb.states), len(flow_states))
    return float(np.max(np.abs(hb.states[:m] - flow_states[:m])))


def criterion_discretization(workdir: Path):
    """Heavy ball with theta = 1 - alpha eta, beta = eta^2 tracks the flow."""
    gap1 = _discretization_gap(0.01)
    gap2 = _discretization_gap(0.005)
    ratio = gap1 / gap2
    ok = gap1 < 0.05 and 1.5 <= ratio <= 3.0
    return ok, f"gap(0.01)={gap1:.5f} gap(0.005)={gap2:.5f} ratio={ratio:.3f}"


def ladder_rows():
    """(rows, all_sound, reports_by_entry) for the whole catalog."""
    budget = verify.SampleBudget(pairs=2000, lambdas_per_pair=2, seed=SEED)
    rows = []
    all_sound = True
    by_entry = {}
    for name, entry in sorted(catalog.default_catalog().items()):
        gamma = entry.oracle.known_modulus
        if gamma is None:
            gamma = estimate.empirical_modulus(entry.oracle, samples=20000,
                                               seed=7).safe
        reports = verify.check_implication_ladder(entry.oracle, gamma, budget)
        broken = verify.ladder_soundness(reports)
        by_entry[name] = reports
        all_sound = all_sound and not broken
        for r in reports:
            rows.append({"entry": name, "gamma": gamma,
                         "property": r.property_name,
                         "holds": r.holds_on_samples,
                         "violations": r.violations_count,
                         "implications_broken": ";".join(broken)})
    return rows, all_sound, by_entry


def criterion_ladder(workdir: Path):
    """No sampled counterexample to any forward implication; the nonconvex
    sqrt-norm entry must fail strong monotonicity with a valid witness."""
    rows, all_sound, by_entry = ladder_rows()
    cat = catalog.default_catalog()
    sqrt_ok = False
    for name in ("sqrt_norm_1d", "sqrt_norm_2d"):
        rep = next(r for r in by_entry[name]
                   if r.property_name == "strong_monotonicity")
        if rep.holds_on_samples or not rep.violations:
            sqrt_ok = False
            break
        margin, tol = verify.witness_margin(cat[name].oracle, rep,
                                            rep.violations[0])
        sqrt_ok = margin < -tol
    ok = all_sound and sqrt_ok
    return ok, (f"entries={len(by_entry)} all_implications_sound={all_sound} "
                f"sqrt_norm_strong_monotonicity_fails={sqrt_ok}")


def criterion_determinism(workdir: Path):
    """Re-running a seeded experiment reproduces its exit code, its stdout
    and byte-identical artifacts; the payloads it prints are captured."""
    results = []
    for task, params in (
        ("gd", {"beta": 0.05, "x0": np.array([1.0, 1.0]), "max_iters": 50,
                "stop_grad_tol": 0.0}),
        ("flow", {"order": 1, "x0": np.array([1.0, 1.0]), "t_end": 1.0,
                  "dt": 1e-2}),
        ("verify", {"property": "strong_quasiconvexity", "gamma": 1.0,
                    "pairs": 500}),
    ):
        blobs = []
        for run in (0, 1):
            out = workdir / f"det_{task}_{run}"
            cfg = cli.ExperimentConfig(function="quadratic_2d", task=task,
                                       task_params=dict(params),
                                       output_dir=str(out), seed=123)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.run_experiment(cfg)
            files = {}
            for fname in ("trace.csv", "certificate.json"):
                p = out / fname
                if p.exists():
                    files[fname] = p.read_bytes()
            blobs.append((code, stdout.getvalue(), files))
        results.append(blobs[0] == blobs[1])
    ok = all(results)
    return ok, f"identical_runs={results}"


CRITERIA = [
    ("C01_equivalence",
     "value and gradient characterizations agree on five catalog oracles",
     criterion_equivalence),
    ("C02_pl_constant",
     "PL modulus gamma^2/2L holds; PL-but-not-strongly-quasiconvex separated",
     criterion_pl_constant),
    ("C03_flow_envelope",
     "first-order flow meets the exp(-gamma t/2) distance envelope",
     criterion_flow_envelope),
    ("C04_gd_contraction",
     "gradient method satisfies the per-step contraction and rate bound",
     criterion_gd_contraction),
    ("C05_gd_values",
     "both function-value envelopes hold on the criterion-4 runs",
     criterion_gd_values),
    ("C06_hb_energy",
     "heavy-ball energy contracts by 1 - rho/sigma with all tail bounds",
     criterion_hb_energy),
    ("C07_second_order_lyapunov",
     "damped-flow energy meets the exp(-lam kappa t/2) envelope",
     criterion_second_order_lyapunov),
    ("C08_discretization",
     "heavy ball tracks the damped flow at first order in the step",
     criterion_discretization),
    ("C09_ladder",
     "implication ladder sound on the whole catalog",
     criterion_ladder),
    ("C10_determinism",
     "seeded experiments reproduce byte-identical artifacts",
     criterion_determinism),
]


def _write_summary(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def rates_entries() -> list:
    """Catalog entries whose oracle knows gamma and L (every entry knows
    its minimizer)."""
    return [e for _, e in sorted(catalog.default_catalog().items())
            if e.oracle.known_modulus and e.oracle.known_lipschitz]


def rates_starts(dim: int) -> np.ndarray:
    """12 starts at scales 1e-3 to 1e3, directions from the stream at SEED."""
    dirs = inverse_normal_cdf(NestedSampler(SEED).rows(12, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True) \
        * np.logspace(-3.0, 3.0, 12)[:, None]


def _rates_rows():
    """Both gd certificates at 0.01 to 0.99 of the step window and heavy
    ball over a (theta, beta) grid inside its window, 400 iterations from
    every start of every ``rates_entries`` oracle."""
    runs = []
    for entry in rates_entries():
        o = entry.oracle
        gamma, L = o.known_modulus, o.known_lipschitz
        for x0 in rates_starts(o.dim):
            for frac in (0.01, 0.1, 0.5, 0.9, 0.99):
                beta = frac * solvers.step_window(gamma, L)
                traj = solvers.gradient_descent(
                    o, GDConfig(x0=x0, beta=beta, max_iters=400,
                                stop_grad_tol=0.0))
                runs += [(entry.name, beta, cert(traj, gamma, L)) for cert in
                         (solvers.certify_gd_contraction,
                          solvers.certify_gd_values)]
            for theta in (0.1, 0.5, 0.9):
                for frac in (0.1, 0.5, 0.9):
                    beta = frac * (1.0 - theta ** 2) / L
                    traj = solvers.heavy_ball(
                        o, HBConfig(x0=x0, theta=theta, beta=beta,
                                    max_iters=400, stop_grad_tol=0.0))
                    runs.append((entry.name, beta,
                                 solvers.certify_hb_energy(traj, gamma, L)))
    return [[name, c.kind, f"{beta:.6g}", f"{c.empirical_rate:.6g}",
             f"{c.theoretical_rate:.6g}", c.satisfied] for name, beta, c in runs]


def bench_suite(suite_name: str, output_dir) -> int:
    """Run a named battery, write summary.csv, return the exit code."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if suite_name == "acceptance":
        rows = []
        all_ok = True
        with tempfile.TemporaryDirectory() as tmp:
            for key, desc, fn in CRITERIA:
                ok, detail = fn(Path(tmp))
                all_ok = all_ok and ok
                status = "PASS" if ok else "FAIL"
                cli._print(f"{status} {key}: {desc} [{detail}]")
                rows.append([key, f'"{desc}"', status, f'"{detail}"'])
        _write_summary(out / "summary.csv",
                       ["criterion", "description", "status", "detail"], rows)
        return cli.EXIT_OK if all_ok else cli.EXIT_CERT_FAILED
    if suite_name == "ladder":
        rows, all_sound, _ = ladder_rows()
        table = [[r["entry"], f"{r['gamma']:.6g}", r["property"],
                  "PASS" if r["holds"] else "FAIL", r["violations"],
                  f'"{r["implications_broken"]}"'] for r in rows]
        _write_summary(out / "summary.csv",
                       ["entry", "gamma", "property", "status", "violations",
                        "implications_broken"], table)
        cli._print(f"ladder soundness: {'PASS' if all_sound else 'FAIL'}")
        return cli.EXIT_OK if all_sound else cli.EXIT_CERT_FAILED
    if suite_name == "rates":
        rows = _rates_rows()
        _write_summary(out / "summary.csv",
                       ["entry", "method", "beta", "empirical", "theoretical",
                        "satisfied"], rows)
        cli._print("\n".join(" ".join(str(v) for v in row) for row in rows))
        return cli.EXIT_OK if all(r[-1] for r in rows) else cli.EXIT_CERT_FAILED
    raise InvalidParameter(f"unknown suite {suite_name!r}; "
                           "available: acceptance, ladder, rates")
