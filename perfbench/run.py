"""sqcflow benchmark: seeded CLI workloads, end-to-end timings, traced layers.

    python3 perfbench/run.py [--workload cold-cli|ladder|trajectory] \\
        --seed N [--seconds S] [--trace 0|1]

Without --workload every workload runs in turn.  Run from the root of a
source checkout (the program is imported from ``src/``).  Each workload is
a closed loop with one client: every task runs in a fresh ``python -m
sqcflow.cli`` process with ``PYTHONPATH=src`` and the next task starts only
after the previous one has exited.  The environment is otherwise inherited
unchanged; BLAS threads are deliberately not pinned, since their cost is
program behaviour that users pay.

Workloads (see tasks.py for the generated commands):

* cold-cli    the README's short commands; interpreter start, imports,
              argparse and catalog build dominate, the constant estimators
              form the latency tail.
* ladder      ``verify --property ladder`` at 10k pairs on two entries with
              per-point domain predicates and two without; sampling and
              oracle evaluation dominate, no trace is written.
* trajectory  long RK4 flows and gd / heavy-ball runs on the exact-constant
              quadratics, each writing ``trace.csv``; the per-step loop and
              the trace writer dominate.

``--trace 0`` runs passes over the task stream for about S seconds.  Every
pass runs the same task kinds (slots), so one pass is estimated from
per-slot medians: ``wall_s`` and ``cpu_s`` sum them, ``task_s.p50`` is
their median, and a burst of machine noise that hits one task moves
neither.  ``setup_s`` is the median over fresh processes of importing
sqcflow.cli and building the catalog.  ``--trace 1`` alternates untraced
and traced passes over the first pass's tasks (traced tasks run under
tracer.py) and reports the per-layer metrics, the import breakdown, the
acceptance-gate headroom and the tracing overhead.

Every task is checked (checks.py).  A ``--trace 0`` run repeats one task
and byte-compares its ``trace.csv`` / ``certificate.json``; a ``--trace 1``
run runs every task at least twice and compares all of its artifacts.  A
table goes to stdout, a full record (environment, every task with the
SHA-256 of its artifacts) to ``.perfbench_runs/results/``, and the last
stdout line is the JSON result.  Exit status 2 means the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from checks import check_task
from tasks import WORKLOADS, Task, passes

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
BENCH_DIR = Path(__file__).resolve().parent

SETUP_PROBES = 5
IMPORT_PROBES = 3
TASK_TIMEOUT_S = 150.0
DETERMINISM_FILES = ("trace.csv", "certificate.json")
IMPORT_PACKAGES = ("numpy", "scipy", "sqcflow")


@dataclass
class TaskRun:
    task: Task
    exit_code: int
    seconds: float
    cpu_s: float
    rss_mb: float
    traced: bool
    failures: list = field(default_factory=list)
    work: int = 0
    sha256: dict = field(default_factory=dict)
    layers: dict | None = None

    def record(self) -> dict:
        return {"id": self.task.id, "argv": list(self.task.argv),
                "traced": self.traced, "exit": self.exit_code,
                "seconds": self.seconds, "cpu_s": self.cpu_s,
                "rss_mb": self.rss_mb, "work": self.work,
                "failures": self.failures, "sha256": self.sha256,
                "spans": self.layers}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs child processes one at a time from the checkout root."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, argv: list[str], stdout: Path, stderr: Path):
        """(exit code, seconds from start to exit, child rusage)."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            killer = threading.Timer(TASK_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage

    def probe(self, kind: str, *args: str) -> dict:
        stdout, stderr = self.work / f"probe-{kind}.out", self.work / f"probe-{kind}.err"
        code, _, _ = self.spawn([sys.executable, str(BENCH_DIR / "probes.py"), kind,
                                 *args], stdout, stderr)
        if code != 0:
            raise RuntimeError(f"probe {kind} exited {code}: "
                               f"{stderr.read_text()[-2000:]}")
        return json.loads(stdout.read_text())

    def run_task(self, task: Task, traced: bool) -> TaskRun:
        out_rel = self.work.relative_to(ROOT) / task.id
        stem = self.work / task.id
        argv = task.cli_argv(str(out_rel))
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "traced_task.py"),
                   f"{stem}.spans.json", *argv]
        else:
            cmd = [sys.executable, "-m", "sqcflow.cli", *argv]
        code, seconds, usage = self.spawn(cmd, Path(f"{stem}.stdout"),
                                          Path(f"{stem}.stderr"))
        return TaskRun(task, code, seconds, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, traced)

    def run_pass(self, tasks: list[Task], traced: bool) -> tuple[float, list[TaskRun]]:
        t0 = time.perf_counter()
        runs = [self.run_task(t, traced) for t in tasks]
        return time.perf_counter() - t0, runs

    def check(self, run: TaskRun) -> None:
        """Gate the run, hash its artifacts, collect its span summary."""
        stem = self.work / run.task.id
        stdout = Path(f"{stem}.stdout").read_text(errors="replace")
        run.failures, run.work = check_task(run.task, run.exit_code, stem, stdout)
        if run.failures:
            err = Path(f"{stem}.stderr").read_text(errors="replace").strip()
            if err:
                run.failures.append("stderr: " + err[-500:])
        run.sha256 = {"stdout": _sha256(Path(f"{stem}.stdout"))}
        for name in run.task.artifacts():
            if (stem / name).is_file():
                run.sha256[name] = _sha256(stem / name)
        if run.traced:
            spans = Path(f"{stem}.spans.json")
            if spans.is_file():
                run.layers = json.loads(spans.read_text())
            else:
                run.failures.append("traced task wrote no span summary")

    def clear(self) -> None:
        for path in self.work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()


# -- statistics -------------------------------------------------------------

def tail_percentile(values: list[float], beyond: int = 10):
    """(p, value, n): the highest whole percentile with at least ``beyond``
    samples above it (nearest-rank), or None when there are too few."""
    n = len(values)
    p = math.floor(100.0 * (1.0 - beyond / n)) if n else 0
    if p < 50:
        return None
    ordered = sorted(values)
    return p, ordered[math.ceil(n * p / 100.0) - 1], n


def parse_importtime(stderr: str) -> dict:
    """Seconds of ``-X importtime`` self time per package.

    numpy and scipy own every module imported while they load (a numpy
    submodule first loaded by scipy counts as scipy); sqcflow owns its own
    modules and the rest it imports directly; ``other`` is interpreter
    start-up.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line.split(":", 1)[1].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((int(self_us), depth, name.strip()))
    totals = dict.fromkeys(IMPORT_PACKAGES + ("other",), 0.0)
    stack: list[tuple[int, str]] = []     # (depth, owner) of open ancestors
    for self_us, depth, name in reversed(rows):   # parents print after children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else "other"
        root = name.split(".")[0]
        if parent in ("numpy", "scipy") or root not in IMPORT_PACKAGES:
            owner = parent
        else:
            owner = root
        stack.append((depth, owner))
        totals[owner] += self_us / 1e6
    totals["total"] = sum(totals.values())
    return totals


# -- the benchmark ----------------------------------------------------------

class Bench:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seconds = workload, seconds
        work = RUNS / "work" / workload
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        self.runner = Runner(work)
        self.stream = passes(workload, seed)
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def account(self, runs: list[TaskRun]) -> None:
        for run in runs:
            self.runner.check(run)
            self.attempted += 1
            self.failed += bool(run.failures)
            self.records.append(run.record())
            for failure in run.failures[:3]:
                self.notes.append(f"FAIL {run.task.id} {' '.join(run.task.argv)}: "
                                  f"{failure}")

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.notes.append("FAIL " + message)

    def keep_reference(self, runs: list[TaskRun]) -> tuple[Task, dict]:
        """Bytes of the determinism-check files of the run's first task."""
        writers = [r for r in runs if r.task.artifacts()]
        ref = next((r for r in writers if "trace.csv" in r.task.artifacts()),
                   writers[0])
        stem = self.runner.work / ref.task.id
        return ref.task, {n: (stem / n).read_bytes() for n in DETERMINISM_FILES
                          if (stem / n).is_file()}

    def determinism(self, task: Task, reference: dict) -> None:
        """Repeat ``task`` and byte-compare it with the first execution."""
        repeat = replace(task, id=f"{task.id}-repeat")
        run = self.runner.run_task(repeat, traced=False)
        self.account([run])
        stem = self.runner.work / repeat.id
        for name, blob in reference.items():
            if not (stem / name).is_file() or (stem / name).read_bytes() != blob:
                self.fail(f"determinism: {name} of {task.id} differs on repeat")

    def loop(self, step, min_steps: int = 1) -> None:
        """Call ``step`` at least ``min_steps`` times, then until the next
        call would overrun the time budget."""
        deadline = time.perf_counter() + self.seconds
        took = []
        while True:
            t0 = time.perf_counter()
            step(len(took))
            took.append(time.perf_counter() - t0)
            if len(took) >= min_steps and \
                    time.perf_counter() + statistics.median(took) > deadline:
                return

    # -- trace 0 -------------------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict, dict]:
        """(gated metrics, reported-only metrics, environment)."""
        runner = self.runner
        probes = [runner.probe("setup") for _ in range(SETUP_PROBES + 1)]
        self.check_program(probes[0])
        setup = [p["setup_s"] for p in probes[1:]]   # the first one warms caches
        passes_done: list[list[TaskRun]] = []
        reference = {}

        def one_pass(k):
            _, runs = runner.run_pass(next(self.stream), traced=False)
            self.account(runs)
            passes_done.append(runs)
            if k == 0:
                reference["ref"] = self.keep_reference(runs)
            runner.clear()

        self.loop(one_pass)
        self.determinism(*reference["ref"])

        tasks = [r for runs in passes_done for r in runs]
        slots: dict[int, list[TaskRun]] = {}
        for r in tasks:
            slots.setdefault(r.task.slot, []).append(r)
        slot_s = [statistics.median(r.seconds for r in rs) for rs in slots.values()]
        wall = sum(slot_s)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "cpu_s": (sum(statistics.median(r.cpu_s for r in rs)
                          for rs in slots.values()), "s"),
            "task_s.p50": (statistics.median(slot_s), "s"),
            "peak_rss_mb": (max(r.rss_mb for r in tasks), "MiB"),
        }
        extra = {
            "passes": (len(passes_done), "count"),
            "tasks_per_s": (len(slots) / wall, "1/s"),
            "error_rate": (self.failed / self.attempted, "ratio"),
        }
        tail = tail_percentile([r.seconds for r in tasks])
        if tail is not None:
            p, value, n = tail
            extra[f"task_s.tail (p{p} of {n})"] = (value, "s")
        rate = {"ladder": "samples_per_s", "trajectory": "steps_per_s"}
        if self.workload in rate:
            work = statistics.median(sum(r.work for r in runs) for runs in passes_done)
            extra[rate[self.workload]] = (work / wall, "1/s")
        return metrics, extra, probes[0]["environment"]

    def check_program(self, probe: dict) -> None:
        src = (ROOT / "src").resolve()
        if not Path(probe["sqcflow_file"]).resolve().is_relative_to(src):
            raise RuntimeError(f"sqcflow imported from {probe['sqcflow_file']}, "
                               f"not from {src}")

    # -- trace 1 -------------------------------------------------------------

    def per_layer(self) -> tuple[dict, dict, dict]:
        """(per-layer metrics, reported-only metrics, environment)."""
        runner = self.runner
        env_probe = runner.probe("setup")
        self.check_program(env_probe)
        imports = [self.import_breakdown() for _ in range(IMPORT_PROBES)]
        gates_dir = runner.work / "gates"
        gates_dir.mkdir()
        gates = runner.probe("headroom", str(gates_dir))
        for key, g in gates.items():
            if g["ok"]:
                self.attempted += 1
            else:
                self.fail(f"acceptance criterion {key} failed: {g['detail']}")

        tasks = next(self.stream)
        plain: list[tuple[float, list[TaskRun]]] = []
        traced: list[tuple[float, list[TaskRun]]] = []

        def pair(k):
            for traced_pass, store in ((False, plain), (True, traced)):
                wall, runs = runner.run_pass(tasks, traced=traced_pass)
                self.account(runs)
                store.append((wall, runs))
                runner.clear()

        self.loop(pair, min_steps=2)   # two traced passes, so counts can be compared
        self.compare_repeats(plain, traced)

        summaries = [[r.layers for r in runs] for _, runs in traced]
        if any(s is None for runs in summaries for s in runs):
            return {}, {}, env_probe["environment"]
        counts = [self.sum_counts(runs) for runs in summaries]
        if any(c != counts[0] for c in counts[1:]):
            self.fail("traced counts differ between passes of the same tasks")
        metrics = self.layer_metrics(counts[0], summaries)
        for name in ("total", "numpy", "scipy", "sqcflow"):
            metrics[f"import.{name}_s"] = (
                statistics.median(i[name] for i in imports), "s")
        for key, g in sorted(gates.items()):
            metrics[f"bench.{key}.headroom"] = (g["headroom"], "ratio")
        metrics["trace.overhead_ratio"] = (
            statistics.median(w for w, _ in traced) /
            statistics.median(w for w, _ in plain), "ratio")
        extra = {"passes": (len(traced), "count"),
                 "error_rate": (self.failed / self.attempted, "ratio")}
        return metrics, extra, env_probe["environment"]

    def import_breakdown(self) -> dict:
        out = self.runner.work / "importtime.out"
        err = self.runner.work / "importtime.err"
        code, _, _ = self.runner.spawn(
            [sys.executable, "-X", "importtime", "-c", "import sqcflow.cli"], out, err)
        if code != 0:
            raise RuntimeError(f"import sqcflow.cli failed: {err.read_text()[-2000:]}")
        return parse_importtime(err.read_text())

    def compare_repeats(self, plain, traced) -> None:
        """Every repeat of a task, traced or not, must reproduce its artifacts
        byte for byte (the seeded-artifact contract, checked on every task)."""
        want = {r.task.id: r.sha256 for r in plain[0][1]}
        for _, runs in plain[1:] + traced:
            for r in runs:
                if r.sha256 != want[r.task.id]:
                    self.fail(f"{r.task.id}: artifacts differ between repeats "
                              f"(traced={r.traced})")

    @staticmethod
    def sum_counts(summaries: list[dict]) -> dict:
        total: dict = {}
        for s in summaries:
            for key, value in s["counts"].items():
                total[key] = total.get(key, 0) + value
        return total

    @staticmethod
    def layer_metrics(counts: dict, summaries: list[list[dict]]) -> dict:
        """Per-layer metrics: counts from one traced pass, times as medians."""
        def per_pass(fn):
            return statistics.median(sum(fn(s) for s in runs) for runs in summaries)

        def named(*names):
            return per_pass(lambda s: sum(s["by_name"].get(n, {}).get("total_s", 0.0)
                                          for n in names))

        def busy(layer):
            return per_pass(lambda s: s["busy_s"][layer])

        def self_time(layer):
            return per_pass(lambda s: s["self_s"][layer])

        c = lambda key: (counts.get(key, 0), "count")   # noqa: E731
        rows = counts.get("sampling.rows", 0)
        return {
            "cli.parse_s": (named("cli.parse"), "s"),
            "cli.trace_write_s": (named("cli.write_trace_csv"), "s"),
            "cli.trace_bytes": (counts.get("cli.trace_bytes", 0), "B"),
            "cli.json_write_s": (named("cli.write_json"), "s"),
            "cli.json_bytes": (counts.get("cli.json_bytes", 0), "B"),
            "cli.self_s": (self_time("cli"), "s"),
            "catalog.value_calls": c("catalog.value_calls"),
            "catalog.grad_calls": c("catalog.grad_calls"),
            "catalog.points": c("catalog.points"),
            "catalog.busy_s": (busy("catalog"), "s"),
            "core.contains_calls": c("core.contains_calls"),
            "core.predicate_calls": c("core.predicate_calls"),
            "core.contains_s": (busy("core"), "s"),
            "sampling.calls": c("sampling.calls"),
            "sampling.rows": c("sampling.rows"),
            "sampling.accepted": c("sampling.accepted"),
            "sampling.accept_ratio": (counts.get("sampling.accepted", 0) / rows
                                      if rows else 0.0, "ratio"),
            "sampling.busy_s": (busy("sampling"), "s"),
            "sampling.self_s": (self_time("sampling"), "s"),
            "verify.checks": c("verify.checks"),
            "verify.samples_tested": c("verify.samples_tested"),
            "verify.violations": c("verify.violations"),
            "verify.busy_s": (busy("verify"), "s"),
            "verify.self_s": (self_time("verify"), "s"),
            "flows.steps": c("flows.steps"),
            "flows.integrate_s": (named("flows.integrate_first_order",
                                        "flows.integrate_second_order"), "s"),
            "flows.self_s": (self_time("flows"), "s"),
            "flows.certify_s": (named("flows.certify_first_order",
                                      "flows.certify_first_order_values",
                                      "flows.certify_second_order"), "s"),
            "flows.certs_failed": c("flows.certs_failed"),
            "solvers.iters": c("solvers.iters"),
            "solvers.run_s": (named("solvers.gradient_descent",
                                    "solvers.heavy_ball"), "s"),
            "solvers.self_s": (self_time("solvers"), "s"),
            "solvers.certify_s": (named("solvers.certify_gd_contraction",
                                        "solvers.certify_gd_values",
                                        "solvers.certify_hb_energy"), "s"),
            "solvers.certs_failed": c("solvers.certs_failed"),
            "estimate.calls": c("estimate.calls"),
            "estimate.busy_s": (busy("estimate"), "s"),
            "estimate.self_s": (self_time("estimate"), "s"),
        }


def git_revision() -> str | None:
    """HEAD of the checkout when it is a git work tree (read without git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sqcflow").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> None:
    bench = Bench(workload, seed, seconds)
    try:
        metrics, extra, env = bench.per_layer() if trace else bench.end_to_end()
    finally:
        bench.runner.clear()
    env.update({"git_rev": git_revision(), "source_sha256": source_digest(),
                "nproc": os.cpu_count(),
                "cpu_affinity": len(os.sched_getaffinity(0)),
                "thread_env": {k: os.environ.get(k) for k in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS")}})

    for note in bench.notes:
        print(note)
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"attempted {bench.attempted}  failed {bench.failed}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:32s} {value:>14.6g} {unit}")

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, environment=env,
                  extra={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
                  notes=bench.notes, tasks=bench.records)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: each in turn)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark still stops the task it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sqcflow" / "cli.py").is_file():
        print(f"no sqcflow sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    for workload in [args.workload] if args.workload else WORKLOADS:
        run_workload(workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
