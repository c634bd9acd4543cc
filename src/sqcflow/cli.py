"""Command-line harness: list-functions, verify, flow, gd, hb, estimate, bench.

Every run resolves to an ExperimentConfig (JSON-serializable; a --config
file supplies defaults and explicit flags override it), executes one task,
and writes deterministic artifacts into --output-dir:

    trace.csv         one row per iterate / time sample (17 significant digits)
    certificate.json  RateCertificate(s) or ClassReport
    meta.json         resolved config + constants actually used

Exit codes: 0 pass, 1 certificate failure, 2 usage/config error,
3 numerical failure; a reader that closes stdout early does not change
the code of a task run.  SQCFLOW_SEED overrides the default seed.

numpy's BLAS runs on one thread unless OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS picks another count.  States have dimension <= 3 and
sampled batches are elementwise, so no BLAS call is big enough for a second
thread, while starting OpenBLAS's idle pool cost each task ~0.1 s of CPU
(2 vCPUs, OpenBLAS 0.3.31).  Importing sqcflow.core leaves threading to
the program that imports it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

if "numpy" not in sys.modules and "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .catalog import CatalogEntry, default_catalog, get_entry
from .core import (DomainExit, DomainSamplingFailure, InvalidParameter,
                   NumericalBlowup, ParameterWindowViolation, SqcflowError,
                   StagnationFailure, Trajectory, positive)
from .estimate import (REFERENCE_SAMPLES, SAFETY_KAPPA, SAFETY_LIPSCHITZ,
                       SAFETY_MODULUS, empirical_modulus, estimate_kappa,
                       estimate_lipschitz_sublevel, reference_minimizer)
from .flows import (FlowConfig, LyapunovParams, certify_first_order,
                    certify_first_order_values, certify_second_order,
                    integrate_first_order, integrate_second_order)
from .solvers import (GDConfig, HBConfig, certify_gd_contraction,
                      certify_gd_values, certify_hb_energy, gd_window,
                      gradient_descent, heavy_ball, hb_window, optimal_step)
from .verify import (PROPERTIES, SampleBudget, check_implication_ladder,
                     check_property, ladder_soundness)

EXIT_OK = 0
EXIT_CERT_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

@dataclass
class ExperimentConfig:
    function: str
    task: str
    task_params: dict = field(default_factory=dict)
    output_dir: Optional[str] = None
    seed: int = 0

    def to_dict(self) -> dict:
        params = {k: v.tolist() if isinstance(v, np.ndarray) else v
                  for k, v in self.task_params.items()}
        return {**vars(self), "task_params": params}


def write_trace_csv(path: Path, traj: Trajectory, index_name: str) -> None:
    """The trajectory, its diagnostics in the order the run recorded them."""
    dim = traj.states.shape[1]
    diag_names = list(traj.diagnostics)
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
        raise argparse.ArgumentTypeError(f"cannot parse vector {text!r}") from exc


def _start(entry: CatalogEntry, params: dict) -> np.ndarray:
    """--x0, or a point inside every catalog domain, away from the minimizer."""
    if params.get("x0") is not None:
        return np.asarray(params["x0"], dtype=np.float64)
    dom = entry.oracle.domain
    if dom.kind == "ball":
        x = np.full(entry.oracle.dim, 1.0)
        return dom.center + 0.5 * dom.radius * x / np.linalg.norm(x)
    return np.full(entry.oracle.dim, 1.0)


def _resolve_gamma(entry: CatalogEntry, params: dict, seed: int, notes: list,
                   estimate=True):
    """--gamma, else the catalog modulus, else (if ``estimate``) an estimate
    from 20000 pairs, noted in ``notes``; else None."""
    gamma = params.get("gamma")
    if gamma is None:
        gamma = entry.oracle.known_modulus
    if gamma is None and estimate:
        gamma = empirical_modulus(entry.oracle, samples=20000,
                                  seed=seed) * SAFETY_MODULUS
        notes.append("gamma estimated empirically (safety-adjusted)")
    return gamma


def _resolve_constants(entry: CatalogEntry, params: dict, x0, seed: int,
                       L_key: str):
    """(gamma, L, notes) of gd (``L_key`` "L0") and hb ("L"), each from its
    flag, else the catalog, else an estimate (L from 2000 points); both
    must be positive before a run starts."""
    notes = []
    gamma = _resolve_gamma(entry, params, seed, notes)
    L = params.get(L_key)
    if L is None:
        L = entry.oracle.known_lipschitz
    if L is None:
        L = estimate_lipschitz_sublevel(entry.oracle, x0, samples=2000,
                                        seed=seed)
        notes.append("L estimated on the initial sublevel set (safety-adjusted)")
    if not positive(gamma, L):
        raise InvalidParameter(f"gamma and {L_key} must be positive")
    return float(gamma), float(L), notes


def _minimizer(entry: CatalogEntry, notes: list):
    """The catalog minimizer; without one the run notes that the
    certificates that need it are skipped, and returns None."""
    if entry.oracle.known_minimizer is None:
        notes.append("no known minimizer; minimizer-dependent certificates "
                     "skipped")
    return entry.oracle.known_minimizer


def _run_verify(entry: CatalogEntry, config: ExperimentConfig, out: Optional[Path]):
    params = config.task_params
    name = params.get("property")
    budget = SampleBudget(pairs=params.get("pairs", 2000),
                          lambdas_per_pair=params.get("lambdas", 2),
                          seed=config.seed)
    # only the ladder estimates an unknown modulus
    notes: list[str] = []
    gamma = _resolve_gamma(entry, params, config.seed, notes,
                           estimate=name == "ladder")
    mu = params.get("mu")
    if name == "ladder":
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
    return _emit(config, out, "certificate.json", payload, ok,
                 {"gamma": gamma, "mu": mu}, notes)


def _default_dt(entry: CatalogEntry, params: dict) -> float:
    if params.get("dt") is not None:
        return params["dt"]
    L = entry.oracle.known_lipschitz
    return 1e-3 * min(1.0, 1.0 / L) if L else 1e-3


def _run_flow(entry: CatalogEntry, config: ExperimentConfig, out: Optional[Path]):
    params = config.task_params
    cfg = FlowConfig(x0=_start(entry, params),
                     t_end=params.get("t_end", 10.0),
                     dt=_default_dt(entry, params),
                     integrator=params.get("integrator", "rk4"),
                     alpha=params.get("alpha", 3.0), v0=params.get("v0"),
                     stop_dist=params.get("stop_dist"))
    notes: list[str] = []
    constants: dict = {}
    certs = []
    oracle = entry.oracle
    L = params.get("L")
    if L is None:
        L = oracle.known_lipschitz
    if params.get("order", 1) == 1:
        # the first-order flow certifies only what is given or catalogued
        gamma = _resolve_gamma(entry, params, config.seed, notes, estimate=False)
        x_bar = None if gamma is None else _minimizer(entry, notes)
        traj = integrate_first_order(oracle, cfg)
        if x_bar is not None:
            constants["gamma"] = float(gamma)
            certs.append(certify_first_order(traj, float(gamma)))
            if L is not None:
                constants["L"] = float(L)
                certs.append(certify_first_order_values(
                    traj, float(gamma), float(L)))
    else:
        alpha = cfg.alpha
        gamma = _resolve_gamma(entry, params, config.seed, notes)
        x_bar = _minimizer(entry, notes)
        kappa = params.get("kappa")
        if kappa is None:
            if L is not None:
                # a negative L gives a negative kappa, which
                # LyapunovParams rejects
                if L == 0:
                    raise InvalidParameter("kappa = gamma / L needs L != 0")
                kappa = gamma / L
                notes.append("kappa = gamma / L")
            elif x_bar is not None:
                probe = integrate_first_order(oracle, dataclasses.replace(
                    cfg, integrator="rk4", stop_dist=None))
                kappa = estimate_kappa(oracle, probe)
                notes.append("kappa estimated along a probe trajectory "
                             "(safety-adjusted)")
        lyap = None
        if kappa is not None:
            lyap = LyapunovParams.from_constants(float(gamma), float(kappa),
                                                 alpha)
            constants.update({"kappa": float(kappa), "lam": lyap.lam,
                              "xi": lyap.xi})
        constants.update({"gamma": float(gamma), "alpha": alpha})
        traj = integrate_second_order(oracle, cfg, lyap)
        if lyap is not None and x_bar is not None:
            certs.append(certify_second_order(traj))

    return _emit_run(config, out, traj, "t", certs, constants, notes)


def _run_gd(entry: CatalogEntry, config: ExperimentConfig, out: Optional[Path]):
    params = config.task_params
    x0 = _start(entry, params)
    gamma, L0, notes = _resolve_constants(entry, params, x0, config.seed, "L0")
    beta = optimal_step(gamma, L0) if params.get("optimal") \
        else params.get("beta")
    if beta is None:
        raise InvalidParameter("gd needs --beta or --optimal")
    # certification is always attempted, so enforce its window up front
    gd_window(gamma, L0, beta)
    cfg = GDConfig(x0=x0, beta=beta, max_iters=params.get("max_iters", 1000),
                   stop_grad_tol=params.get("stop_grad_tol", 1e-10))
    traj = gradient_descent(entry.oracle, cfg)
    certs = []
    if _minimizer(entry, notes) is not None:
        certs = [certify_gd_contraction(traj, gamma, L0),
                 certify_gd_values(traj, gamma, L0)]
    return _emit_run(config, out, traj, "k", certs,
                     {"gamma": gamma, "L0": L0, "beta": beta}, notes)


def _run_hb(entry: CatalogEntry, config: ExperimentConfig, out: Optional[Path]):
    params = config.task_params
    x0 = _start(entry, params)
    theta = params.get("theta", 0.5)
    beta = params.get("beta")
    gamma, L, notes = _resolve_constants(entry, params, x0, config.seed, "L")
    if beta is None:
        beta = 0.5 * (1.0 - theta ** 2) / L
        notes.append("beta = (1 - theta^2) / 2L")
    # certification is always attempted, so enforce its window up front
    hb_window(theta, beta, L)
    cfg = HBConfig(x0=x0, theta=theta, beta=beta, x_prev=params.get("x_prev"),
                   max_iters=params.get("max_iters", 1000),
                   stop_grad_tol=params.get("stop_grad_tol", 1e-10))
    traj = heavy_ball(entry.oracle, cfg)
    certs = []
    if _minimizer(entry, notes) is not None:
        certs = [certify_hb_energy(traj, gamma, L)]
    return _emit_run(config, out, traj, "k", certs,
                     {"gamma": gamma, "L": L, "theta": theta, "beta": beta},
                     notes)


def _run_estimate(entry: CatalogEntry, config: ExperimentConfig, out: Optional[Path]):
    params = config.task_params
    which = params.get("constant")
    samples = params.get("samples", 2000)
    x0 = _start(entry, params)
    if which == "L0":
        adjusted = estimate_lipschitz_sublevel(entry.oracle, x0,
                                               samples=samples, seed=config.seed)
        payload = {"constant": "L0", "value": adjusted / SAFETY_LIPSCHITZ,
                   "safety_adjusted_value": adjusted, "samples": samples}
    elif which == "gamma":
        raw = empirical_modulus(entry.oracle, samples=samples,
                                seed=config.seed)
        payload = {"constant": "gamma", "value": raw,
                   "safety_adjusted_value": raw * SAFETY_MODULUS,
                   "samples": samples}
    elif which == "kappa":
        oracle = entry.oracle
        if oracle.known_minimizer is None:
            # a stagnated search fails the run, as --constant minimizer does
            x_bar = reference_minimizer(oracle, x0, config.seed)
            oracle = dataclasses.replace(oracle, known_minimizer=x_bar)
        cfg = FlowConfig(x0=x0, t_end=5.0, dt=1e-3)
        traj = integrate_first_order(oracle, cfg)
        adjusted = estimate_kappa(oracle, traj)
        payload = {"constant": "kappa", "value": adjusted / SAFETY_KAPPA,
                   "safety_adjusted_value": adjusted, "samples": len(traj)}
    elif which == "minimizer":
        x_bar = reference_minimizer(entry.oracle, x0, config.seed)
        payload = {"constant": "minimizer",
                   "value": [float(v) for v in x_bar],
                   "safety_adjusted_value": None,
                   "samples": REFERENCE_SAMPLES}
    else:
        raise InvalidParameter(
            "estimate --constant must be one of L0, gamma, kappa, minimizer")
    return _emit(config, out, "estimate.json", payload, True, {})


def _print(text: str) -> None:
    """Print ``text``.  A reader that closed stdout does not change the
    verdict; stdout then goes to devnull so the flush at exit cannot fail
    again."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(config: ExperimentConfig, out: Optional[Path], name: str, payload,
          ok: bool, constants: dict, notes=(), trace=None) -> int:
    """With an output directory write ``trace`` (trajectory, index column)
    as trace.csv, the payload as ``name`` and meta.json; then print the
    payload.  Returns the exit code for ``ok``."""
    if out is not None:
        if trace is not None:
            write_trace_csv(out / "trace.csv", *trace)
        write_json(out / name, payload)
        write_json(out / "meta.json", {
            "artifact": {"name": "sqcflow", "version": __version__},
            "config": config.to_dict(),
            "constants_used": {k: (None if v is None else float(v))
                               for k, v in sorted(constants.items())},
            "notes": list(notes),
        })
    _print(json.dumps(payload, sort_keys=True))
    return EXIT_OK if ok else EXIT_CERT_FAILED


def _emit_run(config, out, traj, index_name, certs, constants, notes):
    payload = [c.to_dict() for c in certs]
    for c in payload:
        if notes:
            c["notes"] = "; ".join(filter(None, [c.get("notes", "")] + notes))
    return _emit(config, out, "certificate.json", payload,
                 all(c.satisfied for c in certs), constants, notes,
                 (traj, index_name))


_RUNNERS = {"verify": _run_verify, "flow": _run_flow, "gd": _run_gd,
            "hb": _run_hb, "estimate": _run_estimate}


def run_experiment(config: ExperimentConfig) -> int:
    """Execute one task; returns the process exit code."""
    if config.task == "bench":
        from .bench import bench_suite
        if not config.output_dir:
            raise InvalidParameter("bench needs an output directory")
        return bench_suite(config.task_params.get("suite", "acceptance"),
                           config.output_dir)
    if config.task not in _RUNNERS:
        raise InvalidParameter(f"unknown task {config.task!r}")
    entry = get_entry(config.function)
    out = None
    if config.output_dir:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[config.task](entry, config, out)


def _add_common(p):
    p.add_argument("--function", required=False)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output-dir", default=None)
    p.add_argument("--config", default=None,
                   help="JSON ExperimentConfig; explicit flags override it")


class _Parser(argparse.ArgumentParser):
    """Refusals raise InvalidParameter, which main reports as usage errors.

    Flags must be spelled out, as a config file's keys always are: an
    abbreviation would read hb's and flow's ``--L`` as gd's ``--L0``.
    Subparsers are built with this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InvalidParameter(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    f.add_argument("--x0", type=_parse_vector, default=None)
    f.add_argument("--v0", type=_parse_vector, default=None)
    f.add_argument("--t-end", type=float, default=None)
    f.add_argument("--dt", type=float, default=None)
    f.add_argument("--integrator", choices=("rk4", "explicit_euler"))
    f.add_argument("--gamma", type=float, default=None)
    f.add_argument("--kappa", type=float, default=None)
    f.add_argument("--L", type=float, default=None)
    f.add_argument("--stop-dist", type=float, default=None)

    g = sub.add_parser("gd", help="gradient method run + certificates")
    _add_common(g)
    g.add_argument("--beta", type=float, default=None)
    g.add_argument("--optimal", action="store_true", default=None)
    g.add_argument("--x0", type=_parse_vector, default=None)
    g.add_argument("--max-iters", type=int, default=None)
    g.add_argument("--stop-grad-tol", type=float, default=None)
    g.add_argument("--gamma", type=float, default=None)
    g.add_argument("--L0", type=float, default=None)

    hb = sub.add_parser("hb", help="heavy-ball run + certificates")
    _add_common(hb)
    hb.add_argument("--theta", type=float, default=None)
    hb.add_argument("--beta", type=float, default=None)
    hb.add_argument("--x0", type=_parse_vector, default=None)
    hb.add_argument("--x-prev", type=_parse_vector, default=None)
    hb.add_argument("--max-iters", type=int, default=None)
    hb.add_argument("--stop-grad-tol", type=float, default=None)
    hb.add_argument("--gamma", type=float, default=None)
    hb.add_argument("--L", type=float, default=None)

    e = sub.add_parser("estimate", help="estimate a constant")
    _add_common(e)
    e.add_argument("--constant", choices=("L0", "gamma", "kappa", "minimizer"))
    e.add_argument("--samples", type=int, default=None)
    e.add_argument("--x0", type=_parse_vector, default=None)

    b = sub.add_parser("bench", help="run a fixed suite")
    _add_common(b)
    b.add_argument("--suite", choices=("acceptance", "ladder", "rates"),
                   default="acceptance")
    return ap


# the ExperimentConfig fields that a flag of every task sets
_RUN_KEYS = ("function", "output_dir", "seed")


def _config_flags(args) -> list[str]:
    """The flags a --config file names for ``args.command``: a key is its
    flag's dest, a list joins with commas, true is a bare flag, and false
    and null set nothing."""
    with open(args.config) as fh:
        loaded = json.load(fh)
    params = loaded.get("task_params", {}) if isinstance(loaded, dict) else None
    if not isinstance(params, dict):
        raise InvalidParameter("a config file holds one JSON object, and its "
                               "task_params another")
    run = {k: v for k, v in loaded.items() if k not in ("task", "task_params")}
    unknown = sorted(set(run) - set(_RUN_KEYS)) + sorted(
        set(params) - set(vars(args)) - {"command", "config", *_RUN_KEYS})
    if unknown or loaded.get("task", args.command) != args.command:
        raise InvalidParameter(
            f"config does not fit {args.command}: task "
            f"{loaded.get('task', args.command)!r}, keys with no flag: "
            f"{', '.join(unknown) or 'none'}")
    flags = []
    for key, val in [*run.items(), *params.items()]:
        if isinstance(val, list):
            val = ",".join(map(str, val))
        if val is not None and val is not False:
            flags.append("--" + key.replace("_", "-")
                         + ("" if val is True else f"={val}"))
    return flags


def _config_from_args(args) -> ExperimentConfig:
    """The subcommand is the task, and every flag given other than
    --function, --seed, --output-dir and --config is a task parameter."""
    params = {k: v for k, v in vars(args).items()
              if v is not None and k != "config"}
    run, task = {k: params.pop(k, None) for k in _RUN_KEYS}, params.pop("command")
    bad = sorted(k for k, v in {**run, **params}.items()
                 if isinstance(v, float) and not math.isfinite(v))
    if bad:
        raise InvalidParameter(f"non-finite value for {', '.join(bad)}")
    if run["seed"] is None:
        run["seed"] = int(os.environ.get("SQCFLOW_SEED", "0"))
    if task != "bench" and not run["function"]:
        raise InvalidParameter("--function is required")
    return ExperimentConfig(task=task, task_params=params, **run)


def main(argv=None) -> int:
    """Run ``argv`` (default sys.argv[1:]); its flags win over --config's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command == "list-functions":
            cat = default_catalog()
            metas = [cat[k].to_metadata() for k in sorted(cat)]
            _print(json.dumps(metas, sort_keys=True, indent=2) if args.json
                   else "\n".join(f"{m['name']:24s} dim={m['dim']}  " + " ".join(
                       f"{k}={v:.6g}" for k, v in m["constants"].items())
                       for m in metas))
            return EXIT_OK
        if args.config:
            args = parser.parse_args([args.command, *_config_flags(args),
                                      *argv[1:]])
        return run_experiment(_config_from_args(args))
    except (InvalidParameter, ParameterWindowViolation, FileNotFoundError,
            FileExistsError, NotADirectoryError, json.JSONDecodeError) as exc:
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
