"""Seeded task streams for the three benchmark workloads.

A workload is an endless stream of CLI tasks cut into passes.  Every pass
has the same composition (the same commands on the same functions with the
same budgets), so passes cost about the same whatever the seed; the seed
only draws starts, sampler seeds and the small parameters each command
takes.  The stream is a pure function of (workload, seed): the same seed
gives the identical task list, pass after pass.

Starts are drawn from each workload's stated box without regard to the
verdict the task will reach.  The box keeps every coordinate away from the
minimizer (|x_i| >= 0.5) because the sublevel-set estimators cannot sample
a vanishing sublevel set; that is a limit of the estimator's premises, not
a way to dodge a certificate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

WORKLOADS = ("cold-cli", "ladder", "trajectory")

# Diagonal quadratics of the CLI catalog (gamma = 1, L = 4, eigenvalues
# spaced geometrically); checks recompute h and |grad h| from these.
QUADRATIC_DIAGONALS = {
    "quadratic_1d": (1.0,),
    "quadratic_2d": (1.0, 4.0),
    "quadratic_3d": (1.0, 2.0, 4.0),
}
QUADRATIC_L = 4.0
QUADRATIC_GAMMA = 1.0

# Functions the workloads call, which `list-functions` must list.
REQUIRED_FUNCTIONS = ("quadratic_1d", "quadratic_2d", "quadratic_3d",
                      "sqrt_norm_2d", "sin_quadratic", "quadratic_fraction",
                      "max_two_quadratics")

START_BOX = (0.5, 2.0)            # |x_i| range for quadratic starts
SIN_START_BOX = (1.0, 3.0)        # |x| range for sin_quadratic starts

# ladder: two entries whose domains carry per-point Python predicates next
# to two that carry none.
LADDER_ENTRIES = ("quadratic_fraction", "sqrt_norm_2d",
                  "max_two_quadratics", "quadratic_3d")
LADDER_PAIRS = 10_000

# trajectory: long seeded runs on the exact-constant quadratics.
TRAJ_T_END = "20"
TRAJ_DT = "0.001"
TRAJ_ITERS = 20_000


@dataclass(frozen=True)
class Task:
    """One CLI invocation, plus what its checks need to know about it."""

    id: str
    command: str
    function: str | None
    argv: tuple[str, ...]
    slot: int = 0     # position in the pass composition, whatever the order
    params: dict = field(default_factory=dict, compare=False)

    def artifacts(self) -> tuple[str, ...]:
        """Files the task must leave in its --output-dir."""
        if self.command == "list-functions":
            return ()
        if self.command == "estimate":
            return ("estimate.json", "meta.json")
        if self.command == "verify":
            return ("certificate.json", "meta.json")
        return ("trace.csv", "certificate.json", "meta.json")

    def cli_argv(self, output_dir: str | None) -> list[str]:
        argv = list(self.argv)
        if output_dir is not None and self.artifacts():
            argv += ["--output-dir", output_dir]
        return argv


def _num(v: float, digits: int = 6) -> str:
    return format(v, f".{digits}f")


def _start(rng: random.Random, dim: int, box=START_BOX) -> str:
    lo, hi = box
    return ",".join(_num(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))
                    for _ in range(dim))


def dim_of(function: str) -> int:
    return 1 if function == "sin_quadratic" else len(QUADRATIC_DIAGONALS[function])


def _quadratic(rng: random.Random) -> str:
    return f"quadratic_{rng.choice((1, 2, 3))}d"


def _spec(command, function, *flags, **params):
    """(command, function, flag list, check params).

    Pass makers return [(slot, spec)] in run order, where the slot is the
    spec's place in the pass composition.
    """
    return command, function, list(flags), params


def _cold_cli_pass(rng: random.Random) -> list:
    """The README's short commands, one of each kind, in seeded order."""
    q_gd, q_hb, q_flow = _quadratic(rng), _quadratic(rng), _quadratic(rng)
    f_gamma = rng.choice(("quadratic_1d", "quadratic_2d", "quadratic_3d",
                          "sin_quadratic", "sqrt_norm_2d"))
    gd_iters, hb_iters = rng.randint(100, 300), rng.randint(100, 300)
    sgd_iters, shb_iters = rng.randint(100, 300), rng.randint(100, 300)
    t_end = _num(rng.uniform(0.5, 1.0), 3)
    order = rng.choice(("1", "2"))
    lf_json = rng.random() < 0.5
    specs = [
        _spec("list-functions", None, *(["--json"] if lf_json else []),
              json=lf_json),
        _spec("verify", "sqrt_norm_2d", "--property", "strong_quasiconvexity",
              "--pairs", str(rng.randint(1000, 2000)),
              "--seed", str(rng.randrange(2**31)),
              property="strong_quasiconvexity"),
        _spec("verify", "quadratic_1d", "--property", "pl", "--mu", "0.5",
              "--pairs", str(rng.randint(1000, 2000)),
              "--seed", str(rng.randrange(2**31)), property="pl"),
        _spec("gd", q_gd, "--optimal", "--x0=" + _start(rng, dim_of(q_gd)),
              "--max-iters", str(gd_iters), max_iters=gd_iters),
        _spec("hb", q_hb, "--theta", _num(rng.uniform(0.3, 0.7), 3),
              "--x0=" + _start(rng, dim_of(q_hb)),
              "--max-iters", str(hb_iters), max_iters=hb_iters),
        _spec("gd", "sin_quadratic", "--optimal",
              "--x0=" + _start(rng, 1, SIN_START_BOX),
              "--max-iters", str(sgd_iters), max_iters=sgd_iters),
        _spec("hb", "sin_quadratic", "--theta", _num(rng.uniform(0.3, 0.7), 3),
              "--x0=" + _start(rng, 1, SIN_START_BOX),
              "--max-iters", str(shb_iters), max_iters=shb_iters),
        # the O(samples^2 dim) pairwise scan: the latency tail and, at a
        # fixed size, the peak resident set of every pass
        _spec("estimate", "quadratic_3d", "--constant", "L0", "--samples", "2000",
              "--seed", str(rng.randrange(2**31)), "--x0=" + _start(rng, 3),
              constant="L0"),
        _spec("estimate", f_gamma, "--constant", "gamma",
              "--samples", str(rng.randint(1000, 2000)),
              "--seed", str(rng.randrange(2**31)), constant="gamma"),
        _spec("flow", q_flow, "--order", order, "--x0=" + _start(rng, dim_of(q_flow)),
              "--t-end", t_end, "--dt", "0.001",
              order=int(order), t_end=t_end, dt="0.001"),
    ]
    slotted = list(enumerate(specs))
    rng.shuffle(slotted)
    return slotted


def _ladder_pass(rng: random.Random) -> list:
    return list(enumerate([
        _spec("verify", name, "--property", "ladder", "--pairs", str(LADDER_PAIRS),
              "--seed", str(rng.randrange(2**31)), property="ladder")
        for name in LADDER_ENTRIES]))


def _trajectory_pass(rng: random.Random) -> list:
    """First- and second-order RK4 flows, gradient descent and heavy ball.

    The gd step (beta <= 0.012) and hb momentum (theta >= 0.97) keep the
    iterates above the underflow that stops a run early, so every run makes
    the full TRAJ_ITERS iterations.
    """
    funcs = [rng.choice(("quadratic_2d", "quadratic_3d")) for _ in range(4)]
    flow_kw = dict(t_end=TRAJ_T_END, dt=TRAJ_DT)
    return list(enumerate([
        _spec("flow", funcs[0], "--order", "1", "--x0=" + _start(rng, dim_of(funcs[0])),
              "--t-end", TRAJ_T_END, "--dt", TRAJ_DT, order=1, **flow_kw),
        _spec("flow", funcs[1], "--order", "2",
              "--alpha", _num(rng.uniform(2.0, 4.0), 3),
              "--x0=" + _start(rng, dim_of(funcs[1])),
              "--t-end", TRAJ_T_END, "--dt", TRAJ_DT, order=2, **flow_kw),
        _spec("gd", funcs[2], "--beta", _num(rng.uniform(0.008, 0.012)),
              "--x0=" + _start(rng, dim_of(funcs[2])), "--max-iters", str(TRAJ_ITERS),
              "--stop-grad-tol", "0", max_iters=TRAJ_ITERS),
        _spec("hb", funcs[3], "--theta", _num(rng.uniform(0.97, 0.98), 4),
              "--x0=" + _start(rng, dim_of(funcs[3])), "--max-iters", str(TRAJ_ITERS),
              "--stop-grad-tol", "0", max_iters=TRAJ_ITERS),
    ]))


_PASS_MAKERS = {"cold-cli": _cold_cli_pass, "ladder": _ladder_pass,
                  "trajectory": _trajectory_pass}


def passes(workload: str, seed: int) -> Iterator[list[Task]]:
    """Endless stream of passes; pass k is a pure function of (workload, seed, k)."""
    if workload not in _PASS_MAKERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"available: {', '.join(WORKLOADS)}")
    rng = random.Random(f"sqcflow-perfbench:{workload}:{seed}")
    build = _PASS_MAKERS[workload]
    n = 0
    while True:
        tasks = []
        for slot, (command, function, flags, params) in build(rng):
            argv = [command]
            if function is not None:
                argv += ["--function", function]
            tasks.append(Task(id=f"t{n:04d}", command=command, function=function,
                              argv=tuple(argv + flags), slot=slot, params=params))
            n += 1
        yield tasks
