import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sqcflow
from sqcflow import cli
from sqcflow.core import Trajectory


def run(argv):
    return cli.main(argv)


class TestListFunctions:
    def test_plain(self, capsys):
        assert run(["list-functions"]) == 0
        out = capsys.readouterr().out
        assert "sqrt_norm_2d" in out and "sin_quadratic" in out

    def test_json(self, capsys):
        assert run(["list-functions", "--json"]) == 0
        meta = json.loads(capsys.readouterr().out)
        names = {m["name"] for m in meta}
        assert len(meta) == 9
        assert {"quadratic_2d", "degenerate_quadratic"} <= names
        byname = {m["name"]: m for m in meta}
        assert byname["sqrt_norm_2d"]["constants"]["gamma"] == pytest.approx(
            0.28117, abs=1e-5)


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        code = run(["verify", "--function", "sqrt_norm_2d", "--property",
                    "strong_quasiconvexity", "--pairs", "500", "--seed", "42"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds_on_samples"] is True
        assert payload["params"]["gamma"] == pytest.approx(0.28117, abs=1e-5)

    def test_fail_exit_one(self, capsys):
        code = run(["verify", "--function", "degenerate_quadratic",
                    "--property", "strong_quasiconvexity", "--gamma", "0.1",
                    "--pairs", "500", "--seed", "1"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations_count"] > 0

    def test_unknown_function_exit_two(self, capsys):
        assert run(["verify", "--function", "nope", "--property", "pl"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "usage"

    def test_unknown_property_exit_two(self):
        assert run(["verify", "--function", "quadratic_1d", "--property",
                    "nope"]) == 2

    def test_pl_needs_mu(self, capsys):
        assert run(["verify", "--function", "quadratic_1d", "--property",
                    "pl"]) == 2
        assert run(["verify", "--function", "quadratic_1d", "--property",
                    "pl", "--mu", "0.5", "--pairs", "300"]) == 0

    def test_ladder_property(self, capsys):
        code = run(["verify", "--function", "quadratic_1d", "--property",
                    "ladder", "--pairs", "300", "--seed", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["implications_broken"] == []
        assert len(payload["reports"]) >= 10


class TestGDCommand:
    def test_trace_rows_and_geometric_values(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["gd", "--function", "quadratic_1d", "--beta", "0.5",
                    "--x0", "1", "--max-iters", "20", "--stop-grad-tol", "0",
                    "--output-dir", str(out)])
        assert code == 0
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert len(lines) == 22  # header + 21 iterates
        header = lines[0].split(",")
        h_col = header.index("h")
        h = np.array([float(l.split(",")[h_col]) for l in lines[1:]])
        np.testing.assert_allclose(h[1:] / h[:-1], 0.25, rtol=1e-12)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["task"] == "gd"
        assert meta["constants_used"]["gamma"] == 1.0

    def test_optimal_flag(self, capsys):
        code = run(["gd", "--function", "quadratic_1d", "--optimal", "--x0",
                    "1", "--max-iters", "10", "--stop-grad-tol", "0"])
        assert code == 0
        certs = json.loads(capsys.readouterr().out)
        assert {c["kind"] for c in certs} == {"gd_contraction", "gd_value"}
        assert all(c["satisfied"] for c in certs)

    def test_needs_beta_or_optimal(self):
        assert run(["gd", "--function", "quadratic_1d", "--x0", "1"]) == 2

    def test_window_violation_exit_two(self):
        assert run(["gd", "--function", "quadratic_2d", "--beta", "0.4",
                    "--x0", "1,1", "--max-iters", "5",
                    "--stop-grad-tol", "0"]) == 2


class TestHBCommand:
    def test_run_and_certificate(self, tmp_path, capsys):
        out = tmp_path / "hb"
        code = run(["hb", "--function", "quadratic_1d", "--theta", "0.5",
                    "--beta", "0.5", "--x0", "1", "--max-iters", "100",
                    "--stop-grad-tol", "0", "--output-dir", str(out)])
        assert code == 0
        certs = json.loads((out / "certificate.json").read_text())
        assert certs[0]["kind"] == "hb_energy"
        assert certs[0]["constants"]["rho"] == pytest.approx(0.25)

    def test_boundary_beta_rejected_by_certificate(self):
        assert run(["hb", "--function", "quadratic_1d", "--theta", "0.5",
                    "--beta", "0.75", "--x0", "1", "--max-iters", "5"]) == 2


class TestFlowCommand:
    def test_first_order_trace_columns(self, tmp_path):
        out = tmp_path / "flow"
        code = run(["flow", "--function", "quadratic_2d", "--order", "1",
                    "--x0", "1,1", "--t-end", "1", "--dt", "0.01",
                    "--output-dir", str(out)])
        assert code == 0
        header = (out / "trace.csv").read_text().split("\n")[0]
        assert header.startswith("t,x0,x1,h,grad_norm,E")

    def test_euler_alias(self, capsys):
        code = run(["flow", "--function", "quadratic_1d", "--order", "1",
                    "--x0", "1", "--t-end", "1", "--dt", "0.001",
                    "--integrator", "euler"])
        assert code == 0

    def test_second_order_sigma_column(self, tmp_path):
        out = tmp_path / "flow2"
        code = run(["flow", "--function", "quadratic_2d", "--order", "2",
                    "--alpha", "3", "--x0", "1,1", "--t-end", "2", "--dt",
                    "0.001", "--output-dir", str(out)])
        assert code == 0
        header = (out / "trace.csv").read_text().split("\n")[0]
        assert "Sigma" in header
        certs = json.loads((out / "certificate.json").read_text())
        assert certs[0]["kind"] == "flow_second"
        assert certs[0]["satisfied"]

    def test_second_order_estimates_kappa_when_L_unknown(self, capsys):
        code = run(["flow", "--function", "sin_quadratic", "--order", "2",
                    "--alpha", "3", "--x0", "2", "--t-end", "6", "--dt",
                    "0.001"])
        assert code == 0
        certs = json.loads(capsys.readouterr().out)
        assert certs[0]["satisfied"]
        assert "probe trajectory" in certs[0]["notes"]

    def test_far_start_value_envelope_passes(self, capsys):
        code = run(["flow", "--function", "quadratic_1d", "--order", "1",
                    "--x0", "4"])
        certs = json.loads(capsys.readouterr().out)
        assert [c["satisfied"] for c in certs] == [True, True]
        assert certs[1]["first_violation"] is None
        assert code == 0

    def test_default_dt_scales_with_lipschitz(self, tmp_path):
        out = tmp_path / "dtq"
        code = run(["flow", "--function", "quadratic_2d", "--order", "1",
                    "--x0", "1,1", "--t-end", "0.01",
                    "--output-dir", str(out)])
        assert code == 0
        lines = (out / "trace.csv").read_text().strip().split("\n")
        t1 = float(lines[2].split(",")[0])
        assert t1 == pytest.approx(1e-3 / 4.0)  # 1e-3 * min{1, 1/L}, L = 4


class TestEstimateCommand:
    def test_gamma(self, capsys):
        code = run(["estimate", "--function", "quadratic_1d", "--constant",
                    "gamma", "--samples", "1000", "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(1.0, abs=0.05)
        assert payload["safety_adjusted_value"] == pytest.approx(
            payload["value"] * 0.95)

    def test_L0(self, capsys):
        code = run(["estimate", "--function", "sin_quadratic", "--constant",
                    "L0", "--samples", "2000", "--seed", "42", "--x0", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 7.1 <= payload["safety_adjusted_value"] <= 8.8

    def test_minimizer(self, capsys):
        code = run(["estimate", "--function", "sin_quadratic", "--constant",
                    "minimizer", "--x0", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value"][0]) < 1e-8

    def test_unknown_constant(self):
        assert run(["estimate", "--function", "quadratic_1d", "--constant",
                    "L0", "--samples", "1"]) == 2


class TestConfigAndSeeds:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = {"function": "quadratic_1d", "task": "verify",
               "task_params": {"property": "strong_quasiconvexity",
                               "gamma": 1.0, "pairs": 200},
               "seed": 5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["verify", "--config", str(path), "--pairs", "300"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples_tested"] == 300 * 5  # flag overrode the file

    def test_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SQCFLOW_SEED", "99")
        out = tmp_path / "seeded"
        code = run(["gd", "--function", "quadratic_1d", "--beta", "0.5",
                    "--x0", "1", "--max-iters", "5", "--stop-grad-tol", "0",
                    "--output-dir", str(out)])
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["seed"] == 99

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["flow", "--function", "quadratic_2d", "--order", "1",
                        "--x0", "1,1", "--t-end", "1", "--dt", "0.01",
                        "--seed", "7", "--output-dir", str(out)]) == 0
            outs.append((out / "trace.csv").read_bytes()
                        + (out / "certificate.json").read_bytes())
        assert outs[0] == outs[1]

    def test_csv_17_significant_digits(self, tmp_path):
        out = tmp_path / "digits"
        run(["gd", "--function", "quadratic_fraction", "--beta", "0.1",
             "--x0", "1.5,-0.5", "--max-iters", "3", "--stop-grad-tol", "0",
             "--output-dir", str(out)])
        lines = (out / "trace.csv").read_text().strip().split("\n")
        # values reparse to the exact same doubles
        header, first = lines[0].split(","), lines[1].split(",")
        for cell in first:
            assert cell == format(float(cell), ".17g")


def reference_trace_csv(traj, index_name, diag_names):
    """The trace as formatted one cell at a time."""
    dim = traj.states.shape[1]
    lines = [",".join([index_name] + [f"x{i}" for i in range(dim)]
                      + ["h", "grad_norm"] + diag_names)]
    for k in range(len(traj)):
        cells = [traj.times[k], *traj.states[k], traj.h_values[k],
                 traj.grad_norms[k]] + [traj.diagnostics[n][k] for n in diag_names]
        lines.append(",".join(format(float(v), ".17g") for v in cells))
    return "\n".join(lines) + "\n"


class TestTraceWriter:
    def test_matches_per_cell_formatting(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        special = [nan, -nan, -0.0, inf, -inf, 5e-324, 2.5e-310, 1e22, 3.0,
                   -17.0, 0.1, 1e16, 2.0 ** 53 + 2.0, -1.2345678901234567e-300]
        n = len(special)
        ramp = np.linspace(-2.0, 3.0, n)
        traj = Trajectory(
            times=np.arange(n, dtype=float) * 0.1,
            states=np.column_stack([special, ramp[::-1]]),
            h_values=np.array(special[::-1]),
            grad_norms=np.abs(ramp),
            diagnostics={"zeta": np.array(special), "beta": ramp,
                         "alpha": np.roll(special, 3), "E": ramp ** 2})
        path = tmp_path / "trace.csv"
        cli.write_trace_csv(path, traj, "k")
        expected = reference_trace_csv(traj, "k", ["E", "beta", "alpha", "zeta"])
        assert path.read_text() == expected
        rows = expected.split("\n")
        assert rows[0] == "k,x0,x1,h,grad_norm,E,beta,alpha,zeta"
        assert rows[1].split(",")[1] == "nan" and rows[2].split(",")[1] == "nan"
        assert rows[3].split(",")[1] == "-0"

    # SHA-256 of trace.csv from the per-cell writer, for the four command
    # shapes of the benchmark's trajectory workload at shorter lengths
    GOLDEN = [
        (["flow", "--function", "quadratic_2d", "--order", "1",
          "--x0=0.775300,-0.626511", "--t-end", "2", "--dt", "0.001"],
         "3cf26d9733d2745206bb26b4ab5944e8ed488c50daf5cb96e392cf6d410e333c"),
        (["flow", "--function", "quadratic_3d", "--order", "2", "--alpha", "3.358",
          "--x0=-1.012731,0.946099,-1.128329", "--t-end", "2", "--dt", "0.001"],
         "f1fc657af5f45e3fad659ceef0a400b5244ac373d8ab1f40ddb30e2cc4a36d06"),
        (["gd", "--function", "quadratic_3d", "--beta", "0.009090",
          "--x0=-1.873625,1.269537,1.140147", "--max-iters", "2000",
          "--stop-grad-tol", "0"],
         "3388175bde6fee3cc93611c65568003ed12b30284faabbcca5163a5f1191fb23"),
        (["hb", "--function", "quadratic_2d", "--theta", "0.9754",
          "--x0=0.864770,-0.918896", "--max-iters", "2000",
          "--stop-grad-tol", "0"],
         "770755e580ec34fcfe3820d3b5da51639457388887c9dea8093cd45714279ee9"),
    ]

    @pytest.mark.parametrize("argv,sha", GOLDEN, ids=["flow1", "flow2", "gd", "hb"])
    def test_trajectory_traces_are_pinned(self, tmp_path, capsys, argv, sha):
        assert run(argv + ["--output-dir", str(tmp_path)]) == 0
        data = (tmp_path / "trace.csv").read_bytes()
        assert data.count(b"\n") == 2002
        assert hashlib.sha256(data).hexdigest() == sha


class TestBenchCommand:
    def test_ladder_suite(self, tmp_path, capsys):
        code = run(["bench", "--suite", "ladder", "--output-dir",
                    str(tmp_path / "ladder")])
        assert code == 0
        summary = (tmp_path / "ladder" / "summary.csv").read_text()
        assert "strong_monotonicity" in summary
        assert "sqrt_norm_2d" in summary

    def test_unknown_suite_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["bench", "--suite", "nope", "--output-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_bench_suite_function_rejects_unknown(self, tmp_path):
        from sqcflow.bench import bench_suite
        from sqcflow.core import InvalidParameter
        with pytest.raises(InvalidParameter):
            bench_suite("nope", tmp_path)


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency
    env = dict(os.environ, PYTHONPATH=str(Path(sqcflow.__file__).parents[1]))
    code = "import sys, sqcflow.cli; sys.exit('scipy' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
