"""Tour of the function catalog and the sampled class-inequality checkers.

Walks the built-in oracles, runs the full implication ladder on each one,
and shows an explicit counterexample witness: the quadratic that is flat
along one axis satisfies the PL inequality yet fails strong
quasiconvexity, so the two classes genuinely differ.

Run:  python3 demos/01_function_classes.py
"""

from sqcflow import catalog, estimate, verify


def show_catalog():
    print("=" * 72)
    print("catalog entries")
    print("=" * 72)
    for name, entry in sorted(catalog.default_catalog().items()):
        consts = ", ".join(f"{k}={v:.4g}"
                           for k, v in sorted(entry.constants_known.items()))
        print(f"  {name:24s} dim={entry.oracle.dim}  {consts or '(no constants)'}")
        print(f"      {entry.provenance}")


def run_ladders():
    print()
    print("=" * 72)
    print("implication ladder, 2000 sampled pairs per property (seed 42)")
    print("=" * 72)
    budget = verify.SampleBudget(pairs=2000, lambdas_per_pair=2, seed=42)
    for name, entry in sorted(catalog.default_catalog().items()):
        gamma = entry.constants_known.get("gamma")
        if gamma is None:
            gamma = estimate.empirical_modulus(entry.oracle, samples=20000,
                                               seed=7).safe
            origin = "empirical"
        else:
            origin = "known"
        reports = verify.check_implication_ladder(entry.oracle, gamma, budget)
        broken = verify.ladder_soundness(reports)
        marks = " ".join(
            f"{r.property_name}={'Y' if r.holds_on_samples else 'n'}"
            for r in reports)
        print(f"\n  {name}  (gamma={gamma:.4f}, {origin})")
        print(f"    {marks}")
        print(f"    forward implications broken: {broken or 'none'}")


def pl_versus_strong_quasiconvexity():
    print()
    print("=" * 72)
    print("PL does not imply strong quasiconvexity")
    print("=" * 72)
    entry = catalog.default_catalog()["degenerate_quadratic"]
    budget = verify.SampleBudget(pairs=5000, seed=42)
    pl = verify.check_pl(entry.oracle, 1.0, budget)
    sqc = verify.check_strong_quasiconvexity(entry.oracle, 0.1, budget)
    print(f"  h(x1,x2) = x1^2/2:  PL(mu=1) holds on samples: {pl.holds_on_samples}")
    print(f"  strong quasiconvexity (gamma=0.1) holds: {sqc.holds_on_samples} "
          f"({sqc.violations_count} violations)")
    w = sqc.violations[0]
    print(f"  first witness: x={w.x}, y={w.y}, lambda={w.lam:.3f}, "
          f"margin={w.margin:.3e}")
    margin, tol = verify.witness_margin(entry.oracle, sqc, w)
    print(f"  re-evaluated from scratch: margin={margin:.3e} < -tol={-tol:.1e}")


def main():
    show_catalog()
    run_ladders()
    pl_versus_strong_quasiconvexity()


if __name__ == "__main__":
    main()
