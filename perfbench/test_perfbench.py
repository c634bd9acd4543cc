"""Tests of the benchmark itself:  python -m pytest perfbench"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_task, check_trace
from run import parse_importtime, tail_percentile
from tasks import WORKLOADS, Task, passes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _first(workload, seed, n=3):
    return list(itertools.islice(passes(workload, seed), n))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_identical_task_list(workload):
    a, b, c = _first(workload, 11), _first(workload, 11), _first(workload, 12)
    assert a == b
    assert [t.argv for p in a for t in p] != [t.argv for p in c for t in p]
    # every pass runs the same commands whatever the seed
    commands = lambda ps: [sorted(t.command for t in p) for p in ps]  # noqa: E731
    assert commands(a) == commands(c)


def test_other_seed_gives_other_starts_and_seeds():
    def drawn(workload, seed, prefix):
        return [arg for p in _first(workload, seed) for t in p for arg in t.argv
                if arg.startswith(prefix)]
    starts = drawn("trajectory", 1, "--x0=")
    assert starts and starts != drawn("trajectory", 2, "--x0=")

    def seeds(seed):
        return [t.argv[t.argv.index("--seed") + 1]
                for p in _first("ladder", seed) for t in p]
    assert set(seeds(1)).isdisjoint(seeds(2))


def _cli(args):
    proc = subprocess.run([sys.executable, "-m", "sqcflow.cli", *args], cwd=ROOT,
                          env=ENV, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


FLOW = Task(id="f", command="flow", function="quadratic_2d",
            argv=("flow", "--function", "quadratic_2d", "--order", "1",
                  "--x0=1,-0.5", "--t-end", "0.05", "--dt", "0.001"),
            params={"order": 1, "t_end": "0.05", "dt": "0.001"})


@pytest.fixture(scope="module")
def flow_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("flow") / "out"
    code, stdout = _cli(FLOW.cli_argv(str(out)))
    return code, out, stdout


def _copy(flow_run, tmp_path):
    code, out, stdout = flow_run
    dst = tmp_path / "out"
    shutil.copytree(out, dst)
    return code, dst, stdout


def test_real_artifacts_pass_the_gate(flow_run):
    code, out, stdout = flow_run
    failures, steps = check_task(FLOW, code, out, stdout)
    assert failures == []
    assert steps == 50


def test_wrong_row_count_is_a_failure(flow_run, tmp_path):
    code, out, stdout = _copy(flow_run, tmp_path)
    lines = (out / "trace.csv").read_text().splitlines()
    (out / "trace.csv").write_text("\n".join(lines[:-1]) + "\n")
    failures, _ = check_task(FLOW, code, out, stdout)
    assert any("50 data rows, expected 51" in f for f in failures)


def test_unparsable_trace_field_is_a_failure(flow_run, tmp_path):
    code, out, stdout = _copy(flow_run, tmp_path)
    lines = (out / "trace.csv").read_text().splitlines()
    lines[7] = lines[7].replace(",", ",x", 1)
    (out / "trace.csv").write_text("\n".join(lines) + "\n")
    failures, _ = check_trace(FLOW, out / "trace.csv")
    assert any("unparsable" in f for f in failures)


def test_trace_disagreeing_with_the_oracle_is_a_failure(flow_run, tmp_path):
    code, out, stdout = _copy(flow_run, tmp_path)
    lines = (out / "trace.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-9))   # h column
    lines[3] = ",".join(fields)
    (out / "trace.csv").write_text("\n".join(lines) + "\n")
    failures, _ = check_trace(FLOW, out / "trace.csv")
    assert any("closed form" in f for f in failures)


def test_malformed_certificate_is_a_failure(flow_run, tmp_path):
    code, out, stdout = _copy(flow_run, tmp_path)
    text = (out / "certificate.json").read_text()
    (out / "certificate.json").write_text(text[: len(text) // 2])
    failures, _ = check_task(FLOW, code, out, stdout)
    assert any("certificate.json: unreadable JSON" in f for f in failures)


def test_missing_artifact_and_bad_exit_codes_are_failures(flow_run, tmp_path):
    code, out, stdout = _copy(flow_run, tmp_path)
    assert check_task(FLOW, 3, out, stdout)[0] == ["exit code 3"]
    assert check_task(FLOW, 1 - code, out, stdout)[0]   # verdict mismatch
    (out / "meta.json").unlink()
    assert check_task(FLOW, code, out, stdout)[0] == ["missing artifact meta.json"]


def test_printed_json_must_match_the_certificate(flow_run, tmp_path):
    code, out, stdout = _copy(flow_run, tmp_path)
    certs = json.loads(stdout)
    certs[0]["theoretical_rate"] += 1.0
    failures, _ = check_task(FLOW, code, out, json.dumps(certs))
    assert "printed JSON differs from certificate.json" in failures


def _traced_counts(tmp_path, name, argv):
    summary = tmp_path / f"{name}.json"
    proc = subprocess.run([sys.executable, str(BENCH / "traced_task.py"),
                           str(summary), *argv, "--output-dir", str(tmp_path / name)],
                          cwd=ROOT, env=ENV, capture_output=True, timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    return json.loads(summary.read_text())["counts"]


@pytest.mark.parametrize("argv", [
    ("verify", "--function", "sqrt_norm_2d", "--property", "ladder",
     "--pairs", "300", "--seed", "5"),
    ("hb", "--function", "sin_quadratic", "--x0=2", "--max-iters", "50"),
    ("flow", "--function", "quadratic_3d", "--order", "2", "--x0=1,1,-1",
     "--t-end", "0.2"),
])
def test_two_traced_runs_give_identical_counts(tmp_path, argv):
    first = _traced_counts(tmp_path, "a", argv)
    second = _traced_counts(tmp_path, "b", argv)
    assert first == second
    assert first.get("catalog.grad_calls", 0) > 0


def test_tracing_leaves_artifacts_unchanged(tmp_path):
    argv = ["gd", "--function", "quadratic_3d", "--beta", "0.01", "--x0=1,-1,2",
            "--max-iters", "40", "--stop-grad-tol", "0"]
    _traced_counts(tmp_path, "traced", argv)
    _cli(argv + ["--output-dir", str(tmp_path / "plain")])
    for name in ("trace.csv", "certificate.json"):
        assert (tmp_path / "traced" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ladder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_parse_importtime_attributes_subtrees():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:        10 |         10 |       pickle",
        "import time:        20 |         30 |     numpy._core",
        "import time:        40 |         70 |   numpy",
        "import time:         5 |          5 |       numpy.testing",
        "import time:        50 |         55 |     scipy.special",
        "import time:         7 |          7 |     argparse",
        "import time:         3 |        135 |   sqcflow.cli",
        "import time:         1 |        206 | sqcflow",
    ])
    got = parse_importtime(sample)
    assert got["numpy"] == pytest.approx(70e-6)
    assert got["scipy"] == pytest.approx(55e-6)
    assert got["sqcflow"] == pytest.approx(11e-6)
    assert got["other"] == pytest.approx(100e-6)
    assert got["total"] == pytest.approx(236e-6)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(19))) is None
    p, value, n = tail_percentile([float(i) for i in range(100)])
    assert (p, value, n) == (90, 89.0, 100)
    assert sum(v > value for v in range(100)) >= 10
