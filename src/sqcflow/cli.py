"""Command-line harness: list-functions, verify, flow, gd, hb, estimate, bench.

Every run resolves to an ExperimentConfig (JSON-serializable; a --config
file supplies defaults and explicit flags override it), executes one task,
and writes deterministic artifacts into --output-dir:

    trace.csv         one row per iterate / time sample (17 significant digits)
    certificate.json  RateCertificate(s) or ClassReport
    meta.json         resolved config + constants actually used

Exit codes: 0 pass, 1 certificate failure, 2 usage/config error,
3 numerical failure.  SQCFLOW_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .catalog import CatalogEntry, default_catalog, get_entry
from .core import (DomainExit, DomainSamplingFailure, InvalidParameter,
                   NumericalBlowup, ParameterWindowViolation, SqcflowError,
                   StagnationFailure, Trajectory)
from .estimate import (SAFETY_KAPPA, SAFETY_LIPSCHITZ, SAFETY_MODULUS,
                       empirical_modulus, estimate_kappa,
                       estimate_lipschitz_sublevel, reference_minimizer)
from .flows import (FlowConfig, LyapunovParams, certify_first_order,
                    certify_first_order_values, certify_second_order,
                    integrate_first_order, integrate_second_order)
from .solvers import (ConstantStep, GDConfig, HBConfig, OptimalStep,
                      certify_gd_contraction, certify_gd_values,
                      certify_hb_energy, gradient_descent, heavy_ball, hb_rho)
from .solvers import step_window as solvers_step_window
from .verify import (PROPERTIES, SampleBudget, check_implication_ladder,
                     check_property, ladder_soundness)

EXIT_OK = 0
EXIT_CERT_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_TASKS = ("verify", "flow", "gd", "hb", "estimate", "bench")

# canonical trace column ordering after the index/state/value columns
_DIAG_ORDER = ("E", "Sigma", "h_gap", "dist", "beta", "step_norm",
               "energy", "v_norm")


@dataclass
class ExperimentConfig:
    function: str
    task: str
    task_params: dict = field(default_factory=dict)
    output_dir: Optional[str] = None
    seed: int = 0

    def to_dict(self) -> dict:
        params = {}
        for key, val in sorted(self.task_params.items()):
            if isinstance(val, np.ndarray):
                val = [float(v) for v in val]
            params[key] = val
        return {
            "function": self.function,
            "task": self.task,
            "task_params": params,
            "output_dir": self.output_dir,
            "seed": int(self.seed),
        }


def write_trace_csv(path: Path, traj: Trajectory, index_name: str) -> None:
    dim = traj.states.shape[1]
    diag_names = [n for n in _DIAG_ORDER if n in traj.diagnostics]
    diag_names += sorted(n for n in traj.diagnostics if n not in diag_names)
    header = [index_name] + [f"x{i}" for i in range(dim)] \
        + ["h", "grad_norm"] + diag_names
    table = np.column_stack([traj.times, traj.states, traj.h_values,
                             traj.grad_norms]
                            + [traj.diagnostics[n] for n in diag_names])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for values in table:
            fh.write(row % tuple(values.tolist()))


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2,
                               allow_nan=True) + "\n")


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise InvalidParameter(f"cannot parse vector {text!r}") from exc


def _default_x0(entry: CatalogEntry) -> np.ndarray:
    # interior, away from the minimizer, valid for every catalog domain
    dom = entry.oracle.domain
    if dom.kind == "ball":
        x = np.full(entry.oracle.dim, 1.0)
        return dom.center + 0.5 * dom.radius * x / np.linalg.norm(x)
    return np.full(entry.oracle.dim, 1.0)


def _resolve_constants(entry: CatalogEntry, params: dict, x0, seed: int):
    """(gamma, L, notes): explicit param > known constant > estimate."""
    notes = []
    gamma = params.get("gamma")
    if gamma is None:
        gamma = entry.oracle.known_modulus
    if gamma is None:
        gamma = empirical_modulus(entry.oracle, None,
                                  samples=int(params.get("samples", 20000)),
                                  seed=seed) * SAFETY_MODULUS
        notes.append("gamma estimated empirically (safety-adjusted)")
    L = params.get("L", params.get("L0"))
    if L is None:
        L = entry.oracle.known_lipschitz
    if L is None:
        L = estimate_lipschitz_sublevel(entry.oracle, x0,
                                        samples=int(params.get("samples", 2000)),
                                        seed=seed)
        notes.append("L estimated on the initial sublevel set (safety-adjusted)")
    return float(gamma), float(L), notes


def _with_reference_minimizer(entry: CatalogEntry, x0, notes: list):
    oracle = entry.oracle
    if oracle.known_minimizer is None:
        try:
            x_bar = reference_minimizer(oracle, x0)
        except StagnationFailure:
            notes.append("minimizer search stagnated; minimizer-dependent "
                         "certificates skipped")
            return oracle
        oracle = dataclasses.replace(oracle, known_minimizer=x_bar)
        notes.append("reference-based: minimizer from a long gradient run")
    return oracle


def _run_verify(entry: CatalogEntry, config: ExperimentConfig, out: Optional[Path]):
    params = config.task_params
    name = params.get("property")
    budget = SampleBudget(pairs=int(params.get("pairs", 2000)),
                          lambdas_per_pair=int(params.get("lambdas", 2)),
                          seed=config.seed)
    gamma = params.get("gamma")
    if gamma is None:
        gamma = entry.oracle.known_modulus
    mu = params.get("mu")
    if name == "ladder":
        if gamma is None:
            gamma = empirical_modulus(entry.oracle, None, seed=config.seed) \
                * SAFETY_MODULUS
        reports = check_implication_ladder(entry.oracle, gamma, budget)
        broken = ladder_soundness(reports)
        payload = {"reports": [r.to_dict() for r in reports],
                   "implications_broken": broken}
        ok = not broken
    else:
        if name not in PROPERTIES:
            raise InvalidParameter(
                f"unknown property {name!r}; available: "
                f"{', '.join(sorted(PROPERTIES))}, ladder")
        param = PROPERTIES[name].param
        if param == "mu" and mu is None:
            raise InvalidParameter(f"property {name!r} needs --mu")
        if param != "mu" and gamma is None:
            raise InvalidParameter(
                f"property {name!r} needs --gamma (none known for "
                f"{entry.name!r})")
        if param == "gamma_half":
            gamma = 0.5 * gamma
        report = check_property(name, entry.oracle,
                                mu if param == "mu" else gamma, budget)
        payload = report.to_dict()
        ok = report.holds_on_samples
    print(json.dumps(payload, sort_keys=True))
    if out is not None:
        write_json(out / "certificate.json", payload)
        _write_meta(out, config, {"gamma": gamma, "mu": mu})
    return EXIT_OK if ok else EXIT_CERT_FAILED


def _default_dt(entry: CatalogEntry, params: dict) -> float:
    if params.get("dt") is not None:
        return float(params["dt"])
    L = entry.oracle.known_lipschitz
    return 1e-3 * min(1.0, 1.0 / L) if L else 1e-3


def _run_flow(entry: CatalogEntry, config: ExperimentConfig, out: Optional[Path]):
    params = config.task_params
    order = int(params.get("order", 1))
    x0 = params.get("x0")
    x0 = _default_x0(entry) if x0 is None else np.asarray(x0, dtype=np.float64)
    notes: list[str] = []
    constants: dict = {}
    certs = []
    if order == 1:
        cfg = FlowConfig(kind="first_order", x0=x0,
                         t_end=float(params.get("t_end", 10.0)),
                         dt=_default_dt(entry, params),
                         integrator=params.get("integrator", "rk4"),
                         stop_dist=params.get("stop_dist"))
        gamma = params.get("gamma", entry.oracle.known_modulus)
        oracle = entry.oracle
        if gamma is not None:
            oracle = _with_reference_minimizer(entry, x0, notes)
        traj = integrate_first_order(oracle, cfg)
        if gamma is not None and oracle.known_minimizer is not None:
            constants["gamma"] = float(gamma)
            certs.append(certify_first_order(traj, float(gamma),
                                             oracle.known_minimizer))
            L = params.get("L", entry.oracle.known_lipschitz)
            if L is not None:
                constants["L"] = float(L)
                certs.append(certify_first_order_values(
                    traj, float(gamma), float(L), oracle.known_minimizer))
    else:
        alpha = float(params.get("alpha", 3.0))
        gamma = params.get("gamma", entry.oracle.known_modulus)
        if gamma is None:
            gamma = empirical_modulus(entry.oracle, None, seed=config.seed) \
                * SAFETY_MODULUS
            notes.append("gamma estimated empirically (safety-adjusted)")
        oracle = _with_reference_minimizer(entry, x0, notes)
        kappa = params.get("kappa")
        if kappa is None:
            if entry.oracle.known_lipschitz is not None:
                kappa = gamma / entry.oracle.known_lipschitz
                notes.append("kappa = gamma / L")
            elif oracle.known_minimizer is not None:
                probe = integrate_first_order(
                    oracle, FlowConfig(kind="first_order", x0=x0,
                                       t_end=float(params.get("t_end", 10.0)),
                                       dt=_default_dt(entry, params)))
                kappa = estimate_kappa(oracle, probe, oracle.known_minimizer)
                notes.append("kappa estimated along a probe trajectory "
                             "(safety-adjusted)")
        lyap = None
        if kappa is not None:
            lyap = LyapunovParams.from_constants(float(gamma), float(kappa),
                                                 alpha)
            constants.update({"kappa": float(kappa), "lam": lyap.lam,
                              "xi": lyap.xi})
        constants.update({"gamma": float(gamma), "alpha": alpha})
        cfg = FlowConfig(kind="second_order", x0=x0,
                         v0=params.get("v0"),
                         alpha=alpha,
                         t_end=float(params.get("t_end", 10.0)),
                         dt=_default_dt(entry, params),
                         integrator=params.get("integrator", "rk4"),
                         stop_dist=params.get("stop_dist"))
        traj = integrate_second_order(oracle, cfg, lyap)
        if "Sigma" in traj.diagnostics and lyap is not None:
            certs.append(certify_second_order(traj, lyap))

    return _emit_run(config, out, traj, "t", certs, constants, notes)


def _run_gd(entry: CatalogEntry, config: ExperimentConfig, out: Optional[Path]):
    params = config.task_params
    x0 = params.get("x0")
    x0 = _default_x0(entry) if x0 is None else np.asarray(x0, dtype=np.float64)
    notes: list[str] = []
    gamma, L0, more = _resolve_constants(entry, params, x0, config.seed)
    notes += more
    if params.get("optimal"):
        rule = OptimalStep(gamma=gamma, L0=L0)
    else:
        beta = params.get("beta")
        if beta is None:
            raise InvalidParameter("gd needs --beta or --optimal")
        rule = ConstantStep(float(beta))
        # certification is always attempted, so enforce its window up front
        top = solvers_step_window(gamma, L0)
        if not 0.0 < float(beta) < top:
            raise ParameterWindowViolation(
                f"beta={beta} outside the certified window ]0, {top:.6g}[ "
                f"for gamma={gamma:.6g}, L0={L0:.6g}")
    oracle = _with_reference_minimizer(entry, x0, notes)
    cfg = GDConfig(x0=x0, step_rule=rule,
                   max_iters=int(params.get("max_iters", 1000)),
                   stop_grad_tol=float(params.get("stop_grad_tol", 1e-10)))
    traj = gradient_descent(oracle, cfg)
    certs = []
    if oracle.known_minimizer is not None:
        certs = [certify_gd_contraction(traj, gamma, L0),
                 certify_gd_values(traj, gamma, L0)]
    return _emit_run(config, out, traj, "k", certs,
                     {"gamma": gamma, "L0": L0}, notes)


def _run_hb(entry: CatalogEntry, config: ExperimentConfig, out: Optional[Path]):
    params = config.task_params
    x0 = params.get("x0")
    x0 = _default_x0(entry) if x0 is None else np.asarray(x0, dtype=np.float64)
    theta = float(params.get("theta", 0.5))
    beta = params.get("beta")
    notes: list[str] = []
    gamma, L, more = _resolve_constants(entry, params, x0, config.seed)
    notes += more
    if beta is None:
        beta = 0.5 * (1.0 - theta ** 2) / L
        notes.append("beta = (1 - theta^2) / 2L")
    if not 0.0 < theta < 1.0 or hb_rho(float(beta), L, theta) <= 0:
        raise ParameterWindowViolation(
            "theta must lie in ]0,1[ with rho = min{beta/2, "
            "(1 - beta L - theta^2)/2beta} > 0 for certification")
    oracle = _with_reference_minimizer(entry, x0, notes)
    cfg = HBConfig(x0=x0, theta=theta, beta=float(beta),
                   x_prev=params.get("x_prev"),
                   max_iters=int(params.get("max_iters", 1000)),
                   stop_grad_tol=float(params.get("stop_grad_tol", 1e-10)))
    traj = heavy_ball(oracle, cfg)
    certs = []
    if oracle.known_minimizer is not None:
        certs = [certify_hb_energy(traj, gamma, L, theta, float(beta))]
    return _emit_run(config, out, traj, "k", certs,
                     {"gamma": gamma, "L": L, "theta": theta,
                      "beta": float(beta)}, notes)


def _run_estimate(entry: CatalogEntry, config: ExperimentConfig, out: Optional[Path]):
    params = config.task_params
    which = params.get("constant")
    samples = int(params.get("samples", 2000))
    x0 = params.get("x0")
    x0 = _default_x0(entry) if x0 is None else np.asarray(x0, dtype=np.float64)
    if which == "L0":
        adjusted = estimate_lipschitz_sublevel(entry.oracle, x0,
                                               samples=samples, seed=config.seed)
        payload = {"constant": "L0", "value": adjusted / SAFETY_LIPSCHITZ,
                   "safety_adjusted_value": adjusted, "samples": samples}
    elif which == "gamma":
        raw = empirical_modulus(entry.oracle, None, samples=samples,
                                seed=config.seed)
        payload = {"constant": "gamma", "value": raw,
                   "safety_adjusted_value": raw * SAFETY_MODULUS,
                   "samples": samples}
    elif which == "kappa":
        oracle = _with_reference_minimizer(entry, x0, [])
        cfg = FlowConfig(kind="first_order", x0=x0,
                         t_end=float(params.get("t_end", 5.0)),
                         dt=float(params.get("dt", 1e-3)))
        traj = integrate_first_order(oracle, cfg)
        adjusted = estimate_kappa(oracle, traj, oracle.known_minimizer)
        payload = {"constant": "kappa", "value": adjusted / SAFETY_KAPPA,
                   "safety_adjusted_value": adjusted, "samples": len(traj)}
    elif which == "minimizer":
        x_bar = reference_minimizer(entry.oracle, x0)
        payload = {"constant": "minimizer",
                   "value": [float(v) for v in x_bar],
                   "safety_adjusted_value": None, "samples": samples}
    else:
        raise InvalidParameter(
            "estimate --constant must be one of L0, gamma, kappa, minimizer")
    print(json.dumps(payload, sort_keys=True))
    if out is not None:
        write_json(out / "estimate.json", payload)
        _write_meta(out, config, {})
    return EXIT_OK


def _write_meta(out: Path, config: ExperimentConfig, constants: dict,
                notes: Optional[list] = None) -> None:
    meta = {
        "artifact": {"name": "sqcflow", "version": __version__},
        "config": config.to_dict(),
        "constants_used": {k: (None if v is None else float(v))
                           for k, v in sorted(constants.items())},
        "notes": notes or [],
    }
    write_json(out / "meta.json", meta)


def _emit_run(config, out, traj, index_name, certs, constants, notes):
    payload = [c.to_dict() for c in certs]
    for c in payload:
        if notes:
            c["notes"] = "; ".join(filter(None, [c.get("notes", "")] + notes))
    print(json.dumps(payload, sort_keys=True))
    if out is not None:
        write_trace_csv(out / "trace.csv", traj, index_name)
        write_json(out / "certificate.json", payload)
        _write_meta(out, config, constants, notes)
    return EXIT_OK if all(c.satisfied for c in certs) else EXIT_CERT_FAILED


def run_experiment(config: ExperimentConfig) -> int:
    """Execute one task; returns the process exit code."""
    if config.task not in _TASKS:
        raise InvalidParameter(f"unknown task {config.task!r}")
    if config.task == "bench":
        from .bench import bench_suite
        if not config.output_dir:
            raise InvalidParameter("bench needs an output directory")
        return bench_suite(config.task_params.get("suite", "acceptance"),
                           config.output_dir)
    entry = get_entry(config.function)
    out = None
    if config.output_dir:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
    runner = {"verify": _run_verify, "flow": _run_flow, "gd": _run_gd,
              "hb": _run_hb, "estimate": _run_estimate}[config.task]
    return runner(entry, config, out)


def _add_common(p):
    p.add_argument("--function", required=False)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output-dir", default=None)
    p.add_argument("--config", default=None,
                   help="JSON ExperimentConfig; explicit flags override it")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sqcflow",
        description="Verify, integrate, and certify strongly quasiconvex "
                    "minimization dynamics.")
    sub = ap.add_subparsers(dest="command", required=True)

    lf = sub.add_parser("list-functions", help="list the function catalog")
    lf.add_argument("--json", action="store_true")

    v = sub.add_parser("verify", help="sampled property check")
    _add_common(v)
    v.add_argument("--property", default=None)
    v.add_argument("--gamma", type=float, default=None,
                   help="function modulus (defaults to the catalog value); "
                        "the strong pseudomonotonicity check runs at gamma/2")
    v.add_argument("--mu", type=float, default=None,
                   help="modulus for the pl / quasi_strong_convexity checks")
    v.add_argument("--pairs", type=int, default=None)
    v.add_argument("--lambdas", type=int, default=None)

    f = sub.add_parser("flow", help="integrate a gradient flow")
    _add_common(f)
    f.add_argument("--order", type=int, choices=(1, 2), default=None)
    f.add_argument("--alpha", type=float, default=None)
    f.add_argument("--x0", type=str, default=None)
    f.add_argument("--v0", type=str, default=None)
    f.add_argument("--t-end", type=float, default=None)
    f.add_argument("--dt", type=float, default=None)
    f.add_argument("--integrator", choices=("rk4", "euler", "explicit_euler"),
                   default=None)
    f.add_argument("--gamma", type=float, default=None)
    f.add_argument("--kappa", type=float, default=None)
    f.add_argument("--L", type=float, default=None)
    f.add_argument("--stop-dist", type=float, default=None)

    g = sub.add_parser("gd", help="gradient method run + certificates")
    _add_common(g)
    g.add_argument("--beta", type=float, default=None)
    g.add_argument("--optimal", action="store_true", default=None)
    g.add_argument("--x0", type=str, default=None)
    g.add_argument("--max-iters", type=int, default=None)
    g.add_argument("--stop-grad-tol", type=float, default=None)
    g.add_argument("--gamma", type=float, default=None)
    g.add_argument("--L0", type=float, default=None)

    hb = sub.add_parser("hb", help="heavy-ball run + certificates")
    _add_common(hb)
    hb.add_argument("--theta", type=float, default=None)
    hb.add_argument("--beta", type=float, default=None)
    hb.add_argument("--x0", type=str, default=None)
    hb.add_argument("--x-prev", type=str, default=None)
    hb.add_argument("--max-iters", type=int, default=None)
    hb.add_argument("--stop-grad-tol", type=float, default=None)
    hb.add_argument("--gamma", type=float, default=None)
    hb.add_argument("--L", type=float, default=None)

    e = sub.add_parser("estimate", help="estimate a constant")
    _add_common(e)
    e.add_argument("--constant", choices=("L0", "gamma", "kappa", "minimizer"),
                   default=None)
    e.add_argument("--samples", type=int, default=None)
    e.add_argument("--x0", type=str, default=None)

    b = sub.add_parser("bench", help="run a fixed suite")
    _add_common(b)
    b.add_argument("--suite", choices=("acceptance", "ladder", "rates"),
                   default="acceptance")
    return ap


_PARAM_KEYS = {
    "verify": ("property", "gamma", "mu", "pairs", "lambdas"),
    "flow": ("order", "alpha", "x0", "v0", "t_end", "dt", "integrator",
             "gamma", "kappa", "L", "stop_dist"),
    "gd": ("beta", "optimal", "x0", "max_iters", "stop_grad_tol", "gamma", "L0"),
    "hb": ("theta", "beta", "x0", "x_prev", "max_iters", "stop_grad_tol",
           "gamma", "L"),
    "estimate": ("constant", "samples", "x0"),
    "bench": ("suite",),
}

_VECTOR_KEYS = ("x0", "v0", "x_prev")


def _config_from_args(args) -> ExperimentConfig:
    base = {"function": None, "task": args.command, "task_params": {},
            "output_dir": None, "seed": None}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        for key in ("function", "task", "output_dir", "seed"):
            if key in loaded:
                base[key] = loaded[key]
        base["task_params"].update(loaded.get("task_params", {}))
    if getattr(args, "function", None) is not None:
        base["function"] = args.function
    if getattr(args, "output_dir", None) is not None:
        base["output_dir"] = args.output_dir
    if getattr(args, "seed", None) is not None:
        base["seed"] = args.seed
    for key in _PARAM_KEYS.get(args.command, ()):
        val = getattr(args, key, None)
        if val is not None:
            base["task_params"][key] = val
    if base["seed"] is None:
        base["seed"] = int(os.environ.get("SQCFLOW_SEED", "0"))
    params = base["task_params"]
    for key in _VECTOR_KEYS:
        if isinstance(params.get(key), str):
            params[key] = _parse_vector(params[key])
        elif isinstance(params.get(key), list):
            params[key] = np.asarray(params[key], dtype=np.float64)
    if params.get("integrator") == "euler":
        params["integrator"] = "explicit_euler"
    if base["task"] != "bench" and not base["function"]:
        raise InvalidParameter("--function is required")
    return ExperimentConfig(function=base["function"], task=base["task"],
                            task_params=params,
                            output_dir=base["output_dir"], seed=base["seed"])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-functions":
        cat = default_catalog()
        if args.json:
            print(json.dumps([cat[k].to_metadata() for k in sorted(cat)],
                             sort_keys=True, indent=2))
        else:
            for name in sorted(cat):
                meta = cat[name].to_metadata()
                consts = " ".join(f"{k}={v:.6g}"
                                  for k, v in meta["constants"].items())
                print(f"{name:24s} dim={meta['dim']}  {consts}")
        return EXIT_OK
    try:
        config = _config_from_args(args)
        return run_experiment(config)
    except (InvalidParameter, ParameterWindowViolation, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc), "kind": "usage"}), file=sys.stderr)
        return EXIT_USAGE
    except (NumericalBlowup, DomainExit, DomainSamplingFailure,
            StagnationFailure) as exc:
        print(json.dumps({"error": str(exc), "kind": "numerical"}),
              file=sys.stderr)
        return EXIT_NUMERICAL
    except SqcflowError as exc:
        print(json.dumps({"error": str(exc), "kind": "error"}), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
