import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sqcflow
from sqcflow import cli, core, estimate, flows
from sqcflow.catalog import CatalogEntry
from sqcflow.core import FunctionOracle, StagnationFailure, Trajectory


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

    def test_pseudomonotonicity_runs_at_half_gamma(self, capsys):
        assert run(["verify", "--function", "quadratic_2d", "--property",
                    "strong_pseudomonotonicity", "--gamma", "1",
                    "--pairs", "200"]) == 0
        assert json.loads(capsys.readouterr().out)["params"] == \
            {"gamma_half": 0.5}

    def test_no_gamma_known_exit_two(self, capsys):
        # sin_quadratic has no catalog modulus, and only the ladder estimates
        assert run(["verify", "--function", "sin_quadratic", "--property",
                    "strong_quasiconvexity"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "usage" and "needs --gamma" in err["error"]

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

    def test_ladder_at_gamma_zero_runs_the_weak_checks(self, capsys):
        # verify's modulus only has to be >= 0; at 0 each strong property
        # with a weak one reports under the weak name
        assert run(["verify", "--function", "quadratic_2d", "--property",
                    "ladder", "--gamma", "0", "--pairs", "200"]) == 0
        names = [r["property"] for r in
                 json.loads(capsys.readouterr().out)["reports"]]
        assert len(names) == 8
        assert {"convexity", "quasiconvexity", "monotonicity",
                "quasimonotonicity"} <= set(names)

    # meta.json records the one constant the check reads: the function's
    # modulus for a gamma property, even one checked at half of it, and
    # none for a weak name, which runs at modulus 0
    @pytest.mark.parametrize("command,constants,params", [
        ("--property strong_pseudomonotonicity", {"gamma": 1.0},
         {"gamma_half": 0.5}),
        ("--property strong_quasiconvexity --gamma 0.5", {"gamma": 0.5},
         {"gamma": 0.5}),
        ("--property pl --mu 0.5", {"mu": 0.5}, {"mu": 0.5}),
        ("--property convexity", {}, {"gamma": 0.0}),
        ("--property quasiconvexity", {}, {"gamma": 0.0}),
        ("--property monotonicity", {}, {"gamma": 0.0}),
        ("--property quasimonotonicity", {}, {"gamma": 0.0})])
    def test_constants_used(self, tmp_path, capsys, command, constants,
                            params):
        out = tmp_path / "out"
        assert run(["verify", "--function", "quadratic_2d", "--pairs", "200",
                    "--output-dir", str(out), *command.split()]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["constants_used"] == constants
        assert json.loads(capsys.readouterr().out)["params"] == params

    def test_weak_name_needs_no_modulus(self, capsys):
        # sin_quadratic knows no modulus, and quasiconvexity reads none
        assert run(["verify", "--function", "sin_quadratic", "--property",
                    "quasiconvexity", "--pairs", "200"]) == 0
        assert json.loads(capsys.readouterr().out)["params"] == {"gamma": 0.0}


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

    def test_run_without_a_step_reports_the_step_constants(self, capsys):
        # x0 is the minimizer, so the run stops at x_0; the certificates
        # still report the constants of the step it recorded
        assert run(["gd", "--function", "quadratic_2d", "--beta", "0.05",
                    "--x0", "0,0"]) == 0
        contraction, value = json.loads(capsys.readouterr().out)
        assert contraction["constants"]["beta_lower"] == 0.05
        assert contraction["constants"]["beta_upper"] == 0.05
        # q^2 = 1 - 0.05 (1 - 0.05 * 16), f = 1 - 0.05 (1 - 0.1) / 8
        assert contraction["constants"]["q_squared"] == 0.99
        assert contraction["theoretical_rate"] == 0.99
        assert value["constants"]["factor_dist"] == 0.99
        assert value["constants"]["factor_value"] == 0.994375
        assert value["theoretical_rate"] == 0.994375
        for cert in (contraction, value):
            assert cert["satisfied"] and cert["first_violation"] is None
            assert np.isnan(cert["empirical_rate"])

    # runs inside the window that the value envelopes of the optimal step
    # rejected, although no bound was broken
    @pytest.mark.parametrize("command", [
        "gd --function quadratic_3d --beta 0.001 --x0 1,0,0 --max-iters 2000 "
        "--stop-grad-tol 0",
        "gd --function quadratic_3d --beta 0.05 --x0 0,0,1 --max-iters 400 "
        "--stop-grad-tol 0",
        "gd --function quadratic_2d --beta 0.009106 --x0=0.980383,-1.629299 "
        "--max-iters 20000 --stop-grad-tol 0",
        "gd --function sin_quadratic --optimal --x0 2 --max-iters 200",
    ], ids=["gd_value", "first_step", "trajectory", "estimated"])
    def test_value_envelopes_hold_off_the_optimal_step(self, capsys, command):
        assert run(command.split()) == 0
        certs = json.loads(capsys.readouterr().out)
        assert [(c["kind"], c["satisfied"]) for c in certs] == [
            ("gd_contraction", True), ("gd_value", True)]


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

    def test_start_at_rest_on_minimizer_passes(self, tmp_path, capsys):
        out = tmp_path / "hb0"
        code = run(["hb", "--function", "quadratic_2d", "--theta", "0.5",
                    "--x0", "0,0", "--max-iters", "10",
                    "--output-dir", str(out)])
        assert code == 0
        (cert,) = json.loads(capsys.readouterr().out)
        assert cert["kind"] == "hb_energy" and cert["satisfied"]
        assert cert["first_violation"] is None
        assert np.isnan(cert["empirical_rate"])
        # beta = 3/32 from theta and L = 4: rho = beta/2, sigma = 1/beta
        assert cert["constants"]["factor"] == pytest.approx(1 - 0.5 * (3 / 32) ** 2)
        assert len((out / "trace.csv").read_text().strip().split("\n")) == 2

    def test_x_prev_outside_the_domain(self, capsys):
        assert run(["hb", "--function", "sqrt_norm_2d", "--theta", "0.5",
                    "--x0", "0.3,0.2", "--x-prev", "3,3"]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "starting points outside the domain",
            "kind": "numerical"}

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
        # the one spelling of the Euler step is FlowConfig's explicit_euler
        assert run(["flow", "--function", "quadratic_1d", "--order", "1",
                    "--x0", "1", "--t-end", "1", "--dt", "0.001",
                    "--integrator", "euler"]) == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err)["kind"] == "usage"

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
        assert "kappa estimated on the run's own states" in certs[0]["notes"]

    def test_far_start_value_envelope_passes(self, capsys):
        code = run(["flow", "--function", "quadratic_1d", "--order", "1",
                    "--x0", "4"])
        certs = json.loads(capsys.readouterr().out)
        assert [c["satisfied"] for c in certs] == [True, True]
        assert certs[1]["first_violation"] is None
        assert code == 0

    @pytest.mark.parametrize("order,kinds", [
        ("1", ["flow_first", "flow_first"]), ("2", ["flow_second"])])
    def test_start_at_minimizer_passes(self, capsys, order, kinds):
        code = run(["flow", "--function", "quadratic_2d", "--order", order,
                    "--x0", "0,0", "--t-end", "1", "--dt", "0.01"])
        certs = json.loads(capsys.readouterr().out)
        assert [c["kind"] for c in certs] == kinds
        for c in certs:
            assert c["satisfied"] and c["first_violation"] is None
            assert np.isnan(c["empirical_rate"])
        assert code == 0

    def test_second_order_kappa_uses_L_flag(self, tmp_path, capsys):
        out = tmp_path / "flow2"
        code = run(["flow", "--function", "quadratic_2d", "--order", "2",
                    "--L", "100", "--x0", "1,0", "--t-end", "1",
                    "--output-dir", str(out)])
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["constants_used"]["kappa"] == 0.01  # gamma / L = 1 / 100
        assert meta["notes"] == ["kappa = gamma / L"]
        certs = json.loads((out / "certificate.json").read_text())
        assert certs[0]["constants"]["kappa"] == 0.01

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

    def test_non_finite_gradient_exits_numerical(self, monkeypatch, capsys):
        oracle = FunctionOracle(
            dim=1, value=lambda x: 2.5 * np.asarray(x)[..., 0] ** 4,
            grad=lambda x: np.where(np.asarray(x) == 1.0, np.nan,
                                    10.0 * np.asarray(x) ** 3))
        entry = CatalogEntry("quartic", oracle, "2.5 x^4, gradient NaN at 1")
        monkeypatch.setattr(cli, "get_entry", lambda name: entry)
        assert run(["estimate", "--function", "quartic", "--constant", "L0",
                    "--x0", "1", "--seed", "1"]) == 3
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err)["kind"] == "numerical"

    # the extremum the estimator sampled, not the safe value divided back
    # by its factor (which was an ulp off in each of these)
    @pytest.mark.parametrize("command,value", [
        ("--function quadratic_3d --constant L0 --samples 300 "
         "--x0=1,-0.7,1.3 --seed 1", 3.999993854274418),
        ("--function sin_quadratic --constant L0 --samples 2000 --seed 42 "
         "--x0 2", 7.999991348831038)])
    def test_value_is_the_sampled_extremum(self, capsys, command, value):
        assert run(["estimate", *command.split()]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == value

    def test_unknown_constant(self):
        assert run(["estimate", "--function", "quadratic_1d", "--constant",
                    "L0", "--samples", "1"]) == 2

    # without --samples, the estimate a run would make: 20000 pairs for
    # gamma, 2000 sublevel points for L0
    @pytest.mark.parametrize("command,key,samples", [
        ("--function sin_quadratic --constant gamma", "gamma", 20000),
        ("--function sin_quadratic --constant L0 --x0 2", "L", 2000)])
    def test_default_budget_is_the_runs(self, capsys, command, key, samples):
        entry = cli.get_entry("sin_quadratic")
        assert run(["estimate", *command.split()]) == 0
        payload = json.loads(capsys.readouterr().out)
        _, estimate_like_a_run = cli._estimate(entry, key, 0, np.array([2.0]))
        assert payload["samples"] == samples
        assert payload["safety_adjusted_value"] == estimate_like_a_run()


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

    # a run's meta.json config, passed back, reproduces the run
    @pytest.mark.parametrize("command", [
        "gd --function quadratic_3d --optimal --x0 1,0.3,-0.7 --max-iters 50",
        "hb --function quadratic_2d --theta 0.45 --x0 1,0.3 --x-prev 0.9,0.1 "
        "--max-iters 60",
        "flow --function quadratic_2d --order 1 --x0 0.7,-0.1 --t-end 1 "
        "--dt 0.01",
        "flow --function quadratic_2d --order 2 --alpha 2.5 --x0 1,0.3 "
        "--v0 0.1,-0.7 --t-end 1 --dt 0.01",
        "verify --function sqrt_norm_2d --property strong_quasiconvexity "
        "--pairs 300 --seed 3",
        "estimate --function sin_quadratic --constant L0 --samples 300 "
        "--seed 4 --x0 2.1",
        # gamma and L0 estimated
        "gd --function sin_quadratic --optimal --x0 2 --max-iters 100",
        # gamma estimated, kappa from the run's own states
        "flow --function sin_quadratic --order 2 --x0 2 --t-end 2 --dt 0.01",
    ], ids=["gd", "hb", "flow1", "flow2", "verify", "estimate",
            "gd_estimated", "flow2_probe"])
    def test_meta_config_replays_the_run(self, tmp_path, capsys, command):
        first, again = tmp_path / "first", tmp_path / "again"
        assert run(command.split() + ["--output-dir", str(first)]) == 0
        meta = json.loads((first / "meta.json").read_text())
        (tmp_path / "cfg.json").write_text(json.dumps(meta["config"]))
        # the command line's --output-dir wins over the config's
        assert run([command.split()[0], "--config", str(tmp_path / "cfg.json"),
                    "--output-dir", str(again)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in set(names) - {"meta.json"}:
            assert (first / name).read_bytes() == (again / name).read_bytes()
        replayed = json.loads((again / "meta.json").read_text())
        assert replayed["config"].pop("output_dir") == str(again)
        meta["config"].pop("output_dir")
        assert replayed == meta

    def test_config_null_is_not_set(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"task_params": {"t_end": None,
                                                    "dt": 0.5}}))
        out = tmp_path / "out"
        assert run(["flow", "--function", "quadratic_1d", "--x0", "1",
                    "--config", str(path), "--output-dir", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["task_params"] == {"dt": 0.5, "x0": [1.0]}
        # the default t_end of 10 at dt 0.5
        assert len((out / "trace.csv").read_text().splitlines()) == 1 + 21

    def test_bench_reads_its_suite_from_a_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"task_params": {"suite": "ladder"}}))
        assert run(["bench", "--config", str(path), "--output-dir",
                    str(tmp_path)]) == 0
        header = (tmp_path / "summary.csv").read_text().splitlines()[0]
        assert header.startswith("entry,gamma,property,")

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
        # diagnostics are written in the order the trajectory holds them
        expected = reference_trace_csv(traj, "k", ["zeta", "beta", "alpha", "E"])
        assert path.read_text() == expected
        rows = expected.split("\n")
        assert rows[0] == "k,x0,x1,h,grad_norm,zeta,beta,alpha,E"
        assert rows[1].split(",")[1] == "nan" and rows[2].split(",")[1] == "nan"
        assert rows[3].split(",")[1] == "-0"

    @pytest.mark.parametrize("n", [1, cli._TRACE_BLOCK, 2 * cli._TRACE_BLOCK,
                                   2 * cli._TRACE_BLOCK + 1])
    def test_blocks_match_per_cell_formatting(self, tmp_path, n):
        # one row, whole blocks only, and a last block of one row
        t = np.arange(n, dtype=float)
        traj = Trajectory(times=t * 0.1, states=np.column_stack([np.sin(t), -t]),
                          h_values=np.exp(-t), grad_norms=np.sqrt(t),
                          diagnostics={"E": t / 3.0})
        path = tmp_path / "trace.csv"
        cli.write_trace_csv(path, traj, "t")
        assert path.read_text() == reference_trace_csv(traj, "t", ["E"])
        assert path.read_text().count("\n") == n + 1

    # SHA-256 of trace.csv from the per-cell writer, for the four command
    # shapes of the benchmark's trajectory workload at shorter lengths; gd's
    # taken once its constant beta column was dropped (the step is in
    # meta.json and certificate.json), hb's once its step norms stopped
    # calling BLAS, the other two before both
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
         "690ffedbf8d9b348c52bb5b3100783bb09df2529a940c9efaf8a47ef694c8024"),
        (["hb", "--function", "quadratic_2d", "--theta", "0.9754",
          "--x0=0.864770,-0.918896", "--max-iters", "2000",
          "--stop-grad-tol", "0"],
         "fa4d01fc1ddcaeca102962487e2060724cc8aa06adb89a7c3dd71be2204361d5"),
    ]

    @pytest.mark.parametrize("argv,sha", GOLDEN, ids=["flow1", "flow2", "gd", "hb"])
    def test_trajectory_traces_are_pinned(self, tmp_path, capsys, argv, sha):
        assert run(argv + ["--output-dir", str(tmp_path)]) == 0
        data = (tmp_path / "trace.csv").read_bytes()
        assert data.count(b"\n") == 2002
        assert hashlib.sha256(data).hexdigest() == sha


# runs the commands of argv[1] (JSON) into argv[2]/<index>; exit 77 when
# numpy does not import under the setting (numpy 1.24 names its CPU
# features differently)
KERNEL_CHILD = """
import json, sys
try:
    import numpy
except Exception:
    sys.exit(77)
from sqcflow import cli
for i, argv in enumerate(json.loads(sys.argv[1])):
    if cli.main(argv + ["--output-dir", f"{sys.argv[2]}/{i}"]) != 0:
        sys.exit(1)
"""


class TestTraceKernels:
    """trace.csv bytes do not depend on the BLAS kernel OpenBLAS picks by
    CPU, nor on numpy's AVX-512 loops: each setting writes the default's
    bytes, and those are pinned.  certificate.json bytes are promised across
    the BLAS kernels, whose LAPACK the rate fit no longer calls, but not
    across numpy's AVX-512 exp / log loops, which the fit still reads."""

    SETTINGS = {
        "default": {},
        "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
        "zen": {"OPENBLAS_CORETYPE": "Zen"},
        "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
        "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
        "no_avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"},
    }
    SAME_CERTIFICATE = ("haswell", "zen", "prescott", "sandybridge")

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Output directory of each setting, or None when its child could not
        import numpy; the children run side by side."""
        argv = json.dumps([a for a, _ in TestTraceWriter.GOLDEN])
        base = {k: v for k, v in _env(OPENBLAS_NUM_THREADS="1").items()
                if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        procs = {}
        for name, extra in self.SETTINGS.items():
            out = tmp_path_factory.mktemp(name)
            procs[name] = (out, subprocess.Popen(
                [sys.executable, "-c", KERNEL_CHILD, argv, str(out)],
                env=dict(base, **extra), stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE))
        runs = {}
        for name, (out, proc) in procs.items():
            _, err = proc.communicate(timeout=120)
            assert proc.returncode in (0, 77), (name, err.decode())
            runs[name] = out if proc.returncode == 0 else None
        return runs

    @pytest.mark.parametrize("setting", [s for s in SETTINGS if s != "default"])
    def test_trace_bytes_are_kernel_free(self, runs, setting):
        if runs[setting] is None:
            pytest.skip(f"numpy does not import under {self.SETTINGS[setting]}")
        files = ["trace.csv"]
        if setting in self.SAME_CERTIFICATE:
            files.append("certificate.json")
        for i, (_, sha) in enumerate(TestTraceWriter.GOLDEN):
            for name in files:
                assert (runs[setting] / str(i) / name).read_bytes() == \
                    (runs["default"] / str(i) / name).read_bytes(), (i, name)
            assert _sha256(runs[setting] / str(i) / "trace.csv") == sha, i


class TestLadderPins:
    # SHA-256 of certificate.json from the ladder at the benchmark's 10000
    # pairs, for the benchmark's four entries and sin_quadratic, which
    # fails with witnesses capped at 25; taken before checks were
    # evaluated in blocks (sqrt_norm_2d since its gradient computes
    # n * sqrt(n), which rounds alike for one row and a batch)
    GOLDEN = {
        "quadratic_fraction":
            (0, "122cb457bfaf835c9a945006dd028cf101efc9870ceeb31f8ac3742d5ac9b303"),
        "sqrt_norm_2d":
            (0, "fa0055ead3e88bcd1a2813010f2d41392768d0fae9ec0caf773a9612a5df6c3e"),
        "max_two_quadratics":
            (0, "d8db039c1325cb53f90550982844c0abb536da03dcf44ae4c573681e2fee02d4"),
        "quadratic_3d":
            (0, "07ebec31ae61daa00165d7fa1c1d834e7419122661606c8e1ccf89e2d843a061"),
        "sin_quadratic":
            (1, "4168e66ec1c5944fc5929d9762de55f19324f0c75b223dc3e4a7c0fcc669e2a3"),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_ladder_certificates_are_pinned(self, tmp_path, capsys, name):
        code = run(["verify", "--function", name, "--property", "ladder",
                    "--pairs", "10000", "--output-dir", str(tmp_path)])
        assert (code, _sha256(tmp_path / "certificate.json")) == self.GOLDEN[name]


class TestBenchCommand:
    def test_ladder_suite(self, tmp_path, capsys):
        code = run(["bench", "--suite", "ladder", "--output-dir",
                    str(tmp_path / "ladder")])
        assert code == 0
        summary = (tmp_path / "ladder" / "summary.csv").read_text()
        assert "strong_monotonicity" in summary
        assert "sqrt_norm_2d" in summary
        # taken before checks were evaluated in blocks
        assert _sha256(tmp_path / "ladder" / "summary.csv") == \
            "9bf8d72a569a49dc655f2e82e1bd176311b879d265cbb074860d3edbecd36dd1"

    def test_acceptance_suite(self, tmp_path, monkeypatch, capsys):
        from sqcflow import bench
        monkeypatch.setattr(bench, "CRITERIA", [
            ("X01_ok", "passes", lambda workdir: (True, "a=1")),
            ("X02_bad", "fails", lambda workdir: (False, "b=2 c=3"))])
        out = tmp_path / "acceptance"
        assert run(["bench", "--suite", "acceptance", "--output-dir",
                    str(out)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "PASS X01_ok: passes [a=1]", "FAIL X02_bad: fails [b=2 c=3]"]
        assert (out / "summary.csv").read_text().splitlines() == [
            "criterion,description,status,detail",
            'X01_ok,"passes",PASS,"a=1"', 'X02_bad,"fails",FAIL,"b=2 c=3"']

    def test_unknown_suite_rejected_by_parser(self, tmp_path, capsys):
        assert run(["bench", "--suite", "nope", "--output-dir",
                    str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err)["kind"] == "usage"
        assert not any(tmp_path.iterdir())

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


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _env(**threads):
    """A child environment that sets only the given BLAS thread variables."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    return dict(env, PYTHONPATH=str(Path(sqcflow.__file__).parents[1]),
                **threads)


def test_import_sqcflow_does_not_load_numpy():
    code = "import sys, sqcflow; sys.exit('numpy' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=_env(), check=True,
                   timeout=120)


@pytest.mark.parametrize("command", [
    "verify --function quadratic_fraction --property ladder --pairs 2000",
    "estimate --function sin_quadratic --constant gamma --samples 2000",
    # L0 is estimated on the sublevel set of x0
    "gd --function sin_quadratic --optimal --x0 2 --max-iters 50",
], ids=["verify", "estimate", "gd"])
def test_sampled_runs_do_not_load_numpy_random(command):
    # the sampler computes its Philox stream itself; numpy 1.x imports
    # numpy.random with numpy itself, so there is nothing to check
    code = ("import sys, numpy; eager = 'numpy.random' in sys.modules;"
            " from sqcflow.cli import main; rc = main(sys.argv[1:]);"
            " print(eager, rc, 'numpy.random' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, *command.split()],
                          env=_env(), check=True, capture_output=True,
                          text=True, timeout=120)
    eager, rc, loaded = proc.stderr.split()[-3:]
    assert rc == "0"
    if eager == "True":
        pytest.skip("import numpy loads numpy.random (numpy < 2)")
    assert loaded == "False"


def test_rates_starts_do_not_load_numpy_random():
    code = ("import sys, numpy; eager = 'numpy.random' in sys.modules;"
            " from sqcflow import bench; bench.rates_starts(3);"
            " print(eager, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(),
                          check=True, capture_output=True, text=True,
                          timeout=120)
    eager, loaded = proc.stdout.split()
    if eager == "True":
        pytest.skip("import numpy loads numpy.random (numpy < 2)")
    assert loaded == "False"


def test_blowup_prints_only_its_error_line():
    # the step loop checks every state, so numpy does not warn first
    proc = subprocess.run(
        [sys.executable, "-m", "sqcflow.cli", "flow", "--function",
         "quadratic_2d", "--order", "1", "--x0", "1,1", "--t-end", "1000",
         "--dt", "1", "--integrator", "explicit_euler"],
        env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {"error": "non-finite state at 646.0",
                                       "kind": "numerical"}


@pytest.mark.parametrize("threads, expected", [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}),
    ({"OPENBLAS_NUM_THREADS": "2"},
     {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None}),
    ({"OMP_NUM_THREADS": "2"},
     {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}),
], ids=["unset", "openblas", "omp"])
def test_cli_pins_blas_threads_unless_the_caller_chose(threads, expected):
    code = ("import json, os, sqcflow.cli; print(json.dumps("
            f"{{k: os.environ.get(k) for k in {THREAD_VARS!r}}}))")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(**threads),
                          check=True, capture_output=True, text=True,
                          timeout=120)
    assert json.loads(proc.stdout) == expected


@pytest.mark.parametrize("command", [
    # polyfit rate fit over 20001 samples
    "flow --function quadratic_2d --order 2 --alpha 3 --x0 1,1 --t-end 20 "
    "--dt 0.001",
    # pairwise scan
    "estimate --function quadratic_3d --constant L0 --samples 2000 "
    "--x0 1,1,1",
    # einsum / matmul oracle
    "verify --function quadratic_fraction --property ladder --pairs 2000",
], ids=["flow", "estimate", "verify"])
def test_artifacts_do_not_depend_on_blas_threads(tmp_path, command):
    # the same relative --output-dir, since meta.json records it
    artifacts = {}
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        subprocess.run([sys.executable, "-m", "sqcflow.cli", *command.split(),
                        "--output-dir", "out"], cwd=cwd, check=True,
                       capture_output=True, timeout=120,
                       env=_env(OPENBLAS_NUM_THREADS=threads))
        artifacts[threads] = {p.name: p.read_bytes()
                              for p in (cwd / "out").iterdir()}
    assert {"meta.json"} < set(artifacts["1"])
    assert artifacts["1"] == artifacts["2"]


# the flags every subcommand shares; they configure the run, not the task
COMMON_DESTS = {"function", "seed", "output_dir", "config"}
VECTOR_DESTS = {"x0", "v0", "x_prev"}


def _subcommands():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: p for name, p in sub.choices.items() if name != "list-functions"}


def _flag_and_value(action):
    """A command-line value for ``action`` and what task_params should hold."""
    if action.nargs == 0:
        return [], True
    if action.choices is not None:
        text = str(list(action.choices)[0])
        return [text], action.type(text) if action.type else text
    if action.type is int:
        return ["3"], 3
    if action.type is float:
        return ["0.25"], 0.25
    if action.dest in VECTOR_DESTS:
        return ["0.5,-2"], np.array([0.5, -2.0])
    return ["text"], "text"


class TestTaskParams:
    @pytest.mark.parametrize("command", sorted(_subcommands()))
    def test_every_flag_lands_under_its_dest(self, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        argv = [command, "--function", "quadratic_1d", "--seed", "4",
                "--output-dir", str(tmp_path / "out"), "--config", str(cfg)]
        expected = {}
        for action in _subcommands()[command]._actions:
            if action.dest in COMMON_DESTS | {"help"}:
                continue
            values, expected[action.dest] = _flag_and_value(action)
            argv += [action.option_strings[0], *values]
        config = cli._config_from_args(cli.build_parser().parse_args(argv))
        assert set(config.task_params) == set(expected)
        for dest, value in expected.items():
            np.testing.assert_equal(config.task_params[dest], value)
        assert not COMMON_DESTS & set(config.task_params)
        assert (config.function, config.seed, config.task) == (
            "quadratic_1d", 4, command)
        assert config.output_dir == str(tmp_path / "out")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestResolutionBranches:
    """certificate.json and the constants and notes of meta.json, pinned at
    each branch that resolves a constant or a start point."""

    CASES = {
        # gamma and L0 both estimated
        "gd_estimated": (
            ["gd", "--function", "sin_quadratic", "--optimal", "--x0", "2",
             "--max-iters", "200"], None),
        # gamma and L estimated, beta derived from L
        "hb_estimated": (
            ["hb", "--function", "sin_quadratic", "--theta", "0.5", "--x0", "2",
             "--max-iters", "200"], None),
        # gamma estimated, kappa from the run's own states (before, from a
        # first-order probe flow, hence the name)
        "flow2_probe": (
            ["flow", "--order", "2", "--function", "sin_quadratic", "--alpha",
             "3", "--x0", "2", "--t-end", "2", "--dt", "0.01"], None),
        # kappa = gamma / L from the catalog
        "flow2_catalog": (
            ["flow", "--order", "2", "--function", "quadratic_2d", "--x0",
             "1,1", "--t-end", "2", "--dt", "0.01"], None),
        # nonsmooth at its catalog minimizer, yet certified
        "gd_nonsmooth": (
            ["gd", "--function", "max_two_quadratics", "--optimal", "--x0",
             "1,1", "--max-iters", "50"], None),
        "ladder_estimated": (
            ["verify", "--property", "ladder", "--function", "sin_quadratic",
             "--pairs", "200"], None),
        # a config file with a flag that overrides it
        "config_override": (
            ["gd", "--beta", "0.04"],
            {"function": "quadratic_2d", "task": "gd", "seed": 3,
             "task_params": {"beta": 0.5, "x0": [1.0, -0.5],
                             "max_iters": 40, "stop_grad_tol": 0}}),
    }

    # taken from the code before the run path was folded into one resolver
    # and one writer; the two gd pins were retaken when the gd value
    # envelopes began to follow the step (gd_estimated then passes); the
    # three gd cases gained the step in constants_used when gd began to
    # record it there; gd_nonsmooth was taken when the catalog recorded the
    # minimizer of max_two_quadratics, and L0 moved with it because the
    # sublevel box is centered on that minimizer; gd_estimated, hb_estimated
    # and flow2_probe were retaken when the rate fit became a closed-form
    # fsum slope (the last digit of empirical_rate moved), flow2_probe also
    # when kappa came from the run's own states (its note moved; kappa,
    # lam and trace.csv did not)
    PINNED = {
        "config_override": (
            0, "7fba9c7135804802229494b2ad98ece2bc1bf1c86ba59404ae4ad0eecf7176e8",
            {"L0": 4.0, "beta": 0.04, "gamma": 1.0}, [],
            {"function": "quadratic_2d", "seed": 3, "task": "gd",
             "task_params": {"beta": 0.04, "max_iters": 40, "stop_grad_tol": 0,
                             "x0": [1.0, -0.5]}}),
        "flow2_catalog": (
            0, "bfb642e82d8fb0df396f99dfad305f378427442a7c15cb8a06d38d36754daa8f",
            {"alpha": 3.0, "gamma": 1.0, "kappa": 0.25, "lam": 1.411764705882353,
             "xi": 1.9930795847750868},
            ["kappa = gamma / L"],
            {"function": "quadratic_2d", "seed": 0, "task": "flow",
             "task_params": {"dt": 0.01, "order": 2, "t_end": 2.0,
                             "x0": [1.0, 1.0]}}),
        "flow2_probe": (
            0, "23d128ac3ea51ff874615761bceb8b35d4175507ef1c80219f567ef41f97203a",
            {"alpha": 3.0, "gamma": 0.7008359240138836, "kappa": 0.5070971848526482,
             "lam": 0.8312804749675892, "xi": 0.6910272280623406},
            ["gamma estimated empirically (safety-adjusted)",
             "kappa estimated on the run's own states (safety-adjusted)"],
            {"function": "sin_quadratic", "seed": 0, "task": "flow",
             "task_params": {"alpha": 3.0, "dt": 0.01, "order": 2, "t_end": 2.0,
                             "x0": [2.0]}}),
        "gd_estimated": (
            0, "4fd1efd60a0863669a5beb2af4a030d4c56bf71020b58bbf907f89efc714b476",
            {"L0": 8.799880525789774, "beta": 0.004525148207387582,
             "gamma": 0.7008359240138836},
            ["gamma estimated empirically (safety-adjusted)",
             "L estimated on the initial sublevel set (safety-adjusted)"],
            {"function": "sin_quadratic", "seed": 0, "task": "gd",
             "task_params": {"max_iters": 200, "optimal": True, "x0": [2.0]}}),
        "gd_nonsmooth": (
            0, "eb323d8ee64ed82e061cd83a05731fd2468190f61fc7ae7a1d9245182960a720",
            {"L0": 69.28750171372324, "beta": 0.00010415022191664883,
             "gamma": 1.0},
            ["L estimated on the initial sublevel set (safety-adjusted)"],
            {"function": "max_two_quadratics", "seed": 0, "task": "gd",
             "task_params": {"max_iters": 50, "optimal": True,
                             "x0": [1.0, 1.0]}}),
        "hb_estimated": (
            0, "d168c9dafdcb70c9ba8a7c2a8d36e208258c6cdb3d74a2e93c2b41f8c8110a8c",
            {"L": 8.799880525789774, "beta": 0.042614214920417275,
             "gamma": 0.7008359240138836, "theta": 0.5},
            ["gamma estimated empirically (safety-adjusted)",
             "L estimated on the initial sublevel set (safety-adjusted)",
             "beta = (1 - theta^2) / 2L"],
            {"function": "sin_quadratic", "seed": 0, "task": "hb",
             "task_params": {"max_iters": 200, "theta": 0.5, "x0": [2.0]}}),
        # the note was added on purpose, and mu, which the ladder does not
        # read, left constants_used; certificate.json is unchanged
        "ladder_estimated": (
            0, "cb2bc86cab93f04732c34f279257559a3ecb3dfe130e4727ac0c2ce9432f883c",
            {"gamma": 0.7008359240138836},
            ["gamma estimated empirically (safety-adjusted)"],
            {"function": "sin_quadratic", "seed": 0, "task": "verify",
             "task_params": {"pairs": 200, "property": "ladder"}}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pinned(self, tmp_path, capsys, case):
        argv, config_file = self.CASES[case]
        out = tmp_path / "out"
        argv = argv + ["--output-dir", str(out)]
        if config_file is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config_file))
            argv += ["--config", str(path)]
        code = run(argv)
        meta = json.loads((out / "meta.json").read_text())
        meta["config"].pop("output_dir")
        got = (code, _sha256(out / "certificate.json"),
               meta["constants_used"], meta["notes"], meta["config"])
        assert got == self.PINNED[case]


class TestFailingCertificates:
    """Runs that fail a certificate of every kind, pinned at the exit code
    and the SHA-256 of certificate.json taken before the envelope checks
    were folded into one builder (gd_both since the gd value envelopes
    follow the step, flow_first since the rate fit is a closed-form fsum
    slope)."""

    CASES = {
        # both flow_first certificates fail: gamma = 3 overstates the modulus
        "flow_first": (
            "flow --function quadratic_2d --order 1 --x0 1,1 --gamma 3 --t-end 5",
            "b14f9827bc09d2a7effe1c3c89ae564591bd468d33591e4fbe4d6b54da7b6f18"),
        "flow_second": (
            "flow --function quadratic_2d --order 2 --alpha 3 --x0 1,1 "
            "--t-end 5 --kappa 20",
            "32ec766732279c333fb433316e48d636291c0b76dac2d598b9fd7feea663c456"),
        # gamma = 6 overstates the modulus: contraction fails at k = 2,
        # values at k = 6
        "gd_both": (
            "gd --function quadratic_2d --gamma 6 --L0 4 --beta 0.2 --x0 1,1 "
            "--max-iters 50",
            "5ec08c8d31f63148a3d81a4e5b35fafeaf29fc23ae77aafdf6451ed79185d810"),
        # the step tail bound fails at k = 101 (retaken when the sqrt_norm
        # gradient began to compute n * sqrt(n): the gradient tail held then)
        "hb_tails": (
            "hb --function sqrt_norm_2d --theta 0.5 --x0 0.3,0.2 --max-iters 500",
            "13c7688aa57a2a845db4669a51d2e6de1ced3ab6fc44ac3ca40d2720badc3353"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pinned(self, tmp_path, capsys, case):
        command, sha = self.CASES[case]
        out = tmp_path / "out"
        code = run(command.split() + ["--output-dir", str(out)])
        assert (code, _sha256(out / "certificate.json")) == (1, sha)


class TestSolverTracePins:
    """trace.csv and certificate.json of gd and hb on the catalog entries
    whose gradients are not elementwise (a matrix product, a norm, a
    maximum), plus hb from its own x_prev: exit code, rows, and SHA-256 of
    both files, taken while the solvers still wrote grad h(x_k) and
    |x_k - x_{k-1}| into widened step rows, before gradients were read in
    one batch."""

    CASES = {
        "gd_quadratic_fraction": (
            "gd --function quadratic_fraction --optimal --x0 1,-0.5 "
            "--max-iters 300", 0, 57,
            "0ed47098319acfe2c05949585afc8dc37e14c7061137584e89c69ac18b4602f9",
            "b2b52ba750c001f1ea32fff3cc062e578459db2f226b4ab805fd5a830a7eb3fa"),
        "gd_sin_quadratic": (
            "gd --function sin_quadratic --optimal --x0 2 --max-iters 300",
            0, 301,
            "6bee507feb07d601fde36f893d89b8cd0aa0ed567116575542d10de907d4abb1",
            "8c0b0480dbe4f30172a1aeea0db382b20dd35f113e01c4e124b19fdda1adf1a1"),
        "gd_max_two_quadratics": (
            "gd --function max_two_quadratics --optimal --x0 1,1 "
            "--max-iters 300", 0, 301,
            "e102ed477c7b18f8f7e748307f5a90080840ca8b1bf360a413904a7000ea9573",
            "18cc58dd720c31fcd06c854d7e88ff4e048194db999480cf82732c8d305098ae"),
        "gd_sqrt_norm_2d": (
            "gd --function sqrt_norm_2d --optimal --x0 0.3,0.2 --max-iters 300",
            0, 301,
            "8ad4427931537cd274c1890bd1641fd5adac4e5f32e6dc192d111245566388f8",
            "1989cb7b18af3d7ee5755efb6aff6205afff447ede456d76050459183b6a7117"),
        "hb_quadratic_fraction": (
            "hb --function quadratic_fraction --theta 0.5 --x0 1,-0.5 "
            "--max-iters 300", 0, 67,
            "2b25fabfc72dee1f8f6966ddc39a094e524055f4398df7f7af1cc05be161fea2",
            "1155d0f554693c611b7ea70572203a051568b4f4c0093d895179ce8b5d4bb0e2"),
        "hb_sin_quadratic": (
            "hb --function sin_quadratic --theta 0.5 --x0 2 --max-iters 300",
            0, 77,
            "c68668a56e88110d56ff79df6ade38913a9a10774dc2ec1d439ce2d620a270a3",
            "d168c9dafdcb70c9ba8a7c2a8d36e208258c6cdb3d74a2e93c2b41f8c8110a8c"),
        # fails hb_energy from k = 120: no finite L holds across the kink
        # at x_bar
        "hb_max_two_quadratics": (
            "hb --function max_two_quadratics --theta 0.5 --x0 1,1 "
            "--max-iters 300", 1, 301,
            "bb6feb46166f8cfd0b376ef22f2c13593772f0fd80a66921fb5adb21b213b6af",
            "495b2d8fb4d31f6c5cd094b71b6056cbbfb404ad5960213c0c832d34e461bd8d"),
        # fails hb_energy from k = 101, as TestFailingCertificates' hb_tails
        "hb_sqrt_norm_2d": (
            "hb --function sqrt_norm_2d --theta 0.5 --x0 0.3,0.2 "
            "--max-iters 300", 1, 301,
            "c0883a2a751cd6dd0acdc7e021554992b4926aa06738c56d9e0a3aa9f1aa7c9c",
            "7a06a79acf0e0446ce3b5da8ca29a720da49ce0fae18728d62ba8eef4ce83327"),
        "hb_x_prev": (
            "hb --function quadratic_1d --theta 0.5 --beta 0.5 --x0 1 "
            "--x-prev 0.5 --max-iters 200", 0, 68,
            "adcbc105881786c744cc49775a6be16f8c6d352ffb4ae5078e07ebd42cd8b68c",
            "76c9caaefb6754320f5af29df0985e4dcfee3454b4f4d61ba46fdcc3c2859a30"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pinned(self, tmp_path, capsys, case):
        command, *pinned = self.CASES[case]
        out = tmp_path / "out"
        code = run(command.split() + ["--output-dir", str(out)])
        trace = out / "trace.csv"
        got = [code, trace.read_bytes().count(b"\n") - 1, _sha256(trace),
               _sha256(out / "certificate.json")]
        assert got == pinned


class TestErrorPaths:
    """Exit code and stderr kind of each error path of ``cli.main``.

    ``{file}`` names an existing file, ``{missing}`` a path that does not
    exist, ``{dir}`` a directory, ``{long}`` a path whose last part is 300
    characters long, ``{bad_json}`` a file that is not JSON, ``{not_utf8}``
    a file that is not UTF-8 and ``{config}`` a file holding the case's
    config.  The JSON line is the last one on stderr.
    """

    CASES = {
        "output_dir_is_a_file": (
            "gd --function quadratic_2d --beta 0.01 --x0 1,1 --max-iters 5 "
            "--output-dir {file}", 2, "usage"),
        "output_dir_under_a_file": (
            "gd --function quadratic_2d --beta 0.01 --x0 1,1 --max-iters 5 "
            "--output-dir {file}/run", 2, "usage"),
        "bench_output_dir_is_a_file": (
            "bench --suite ladder --output-dir {file}", 2, "usage"),
        "hb_zero_beta": (
            "hb --function quadratic_2d --theta 0.5 --beta 0 --x0 1,1",
            2, "usage"),
        "hb_zero_L_default_beta": (
            "hb --function quadratic_2d --theta 0.5 --L 0 --x0 1,1", 2, "usage"),
        "flow_zero_L_for_kappa": (
            "flow --function quadratic_2d --order 2 --x0 1,1 --L 0", 2, "usage"),
        # every constant a run resolves must be positive, used or not
        "flow_negative_gamma_before_the_run": (
            "flow --function max_two_quadratics --order 2 --x0 1,1 "
            "--gamma -1 --t-end 1", 2, "usage"),
        "flow_negative_L_without_modulus": (
            "flow --function sin_quadratic --order 1 --x0 1 --L -5 --t-end 1",
            2, "usage"),
        # the first-order flow reads none of the second-order flags
        "flow_order_1_second_order_flags": (
            "flow --function quadratic_2d --order 1 --x0 1,1 --t-end 1 "
            "--alpha 7 --v0 5,5 --kappa 3", 2, "usage"),
        # every catalog entry records its minimizer, so none is searched for
        "estimate_minimizer": (
            "estimate --function max_two_quadratics --constant minimizer",
            2, "usage"),
        # kappa belongs to a run's states, which flow --order 2 records
        "estimate_kappa": (
            "estimate --function quadratic_2d --constant kappa", 2, "usage"),
        "estimate_zero_samples": (
            "estimate --function quadratic_2d --constant gamma --samples 0",
            2, "usage"),
        "missing_config": ("gd --config {missing}", 2, "usage"),
        "malformed_config": ("gd --config {bad_json}", 2, "usage"),
        "bench_without_output_dir": ("bench --suite ladder", 2, "usage"),
        "blowup": (
            "flow --function quadratic_2d --order 1 --x0 1,1 --t-end 1000 "
            "--dt 1 --integrator explicit_euler", 3, "numerical"),
        "domain_exit": (
            "flow --function sqrt_norm_2d --order 1 --x0 0.3,0.2 --t-end 5 "
            "--dt 0.5 --integrator explicit_euler", 3, "numerical"),
        "sampling_failure": (
            "estimate --function degenerate_quadratic --constant L0 --x0 1,1 "
            "--samples 100", 3, "numerical"),
        # a damped run from the minimizer has no state to read kappa on
        "insufficient_samples": (
            "flow --function sin_quadratic --order 2 --x0 0 --t-end 1",
            2, "usage"),
        # an RK4 stage lands on the origin, where grad sqrt(|x|) is undefined
        "flow_stage_at_kink": (
            "flow --function sqrt_norm_1d --x0 0.25 --dt 0.5 --t-end 1",
            3, "numerical"),
        # the damped run's third stage: x0 - dt^2 / 4 = 0 from rest
        "flow_order_2_stage_at_kink": (
            "flow --function sqrt_norm_1d --order 2 --x0 0.25 --dt 1 "
            "--t-end 1", 3, "numerical"),
        "estimate_gamma_too_few_pairs": (
            "estimate --function quadratic_2d --constant gamma --samples 5",
            2, "usage"),
        "output_dir_name_too_long": (
            "gd --function quadratic_2d --beta 0.01 --x0 1,1 --max-iters 5 "
            "--output-dir {long}", 2, "usage"),
        "config_is_a_directory": ("gd --config {dir}", 2, "usage"),
        "config_not_utf8": ("gd --config {not_utf8}", 2, "usage"),
        # t_end / dt overflows to an infinite step count
        "flow_step_count_overflow": (
            "flow --function quadratic_2d --x0 1,1 --t-end 1e300 --dt 1e-10",
            2, "usage"),
        # the subcommand decides the task
        "config_other_task": (
            "gd --function quadratic_2d --x0 1,1 --beta 0.01 --config {config}",
            2, "usage", {"task": "flow"}),
        "config_bench_under_verify": (
            "verify --config {config} --output-dir {missing}", 2, "usage",
            {"task": "bench", "task_params": {"suite": "ladder"}}),
        # gd has --L0, not --L, so "L" cannot overrule the flag
        "config_L_for_gd": (
            "gd --function quadratic_2d --x0 1,1 --beta 0.01 --L0 4 "
            "--config {config}", 2, "usage", {"task_params": {"L": 5}}),
        # the estimate budgets of gd and hb are not settable
        "config_samples_for_hb": (
            "hb --function sin_quadratic --x0 2 --config {config}", 2, "usage",
            {"task_params": {"samples": 50}}),
        # no NaN or infinite number reaches a check or a certificate
        "verify_gamma_nan": (
            "verify --function degenerate_quadratic --property "
            "strong_quasiconvexity --gamma nan --pairs 500 --seed 1",
            2, "usage"),
        "verify_gamma_inf": (
            "verify --function degenerate_quadratic --property "
            "strong_quasiconvexity --gamma inf --pairs 500 --seed 1",
            2, "usage"),
        "verify_mu_nan": (
            "verify --function quadratic_1d --property pl --mu nan",
            2, "usage"),
        "flow_kappa_nan": (
            "flow --function quadratic_2d --order 2 --x0 1,1 --t-end 1 "
            "--dt 0.1 --kappa nan", 2, "usage"),
        "flow_gamma_nan": (
            "flow --function quadratic_2d --order 1 --x0 1,1 --t-end 1 "
            "--dt 0.1 --gamma nan", 2, "usage"),
        "flow_t_end_nan": (
            "flow --function quadratic_2d --x0 1,1 --t-end nan", 2, "usage"),
        "flow_t_end_inf": (
            "flow --function quadratic_2d --x0 1,1 --t-end inf", 2, "usage"),
        "flow_dt_nan": ("flow --function quadratic_2d --x0 1,1 --dt nan",
                        2, "usage"),
        "flow_alpha_nan": (
            "flow --function quadratic_2d --order 2 --x0 1,1 --t-end 1 "
            "--alpha nan", 2, "usage"),
        "hb_gamma_nan": (
            "hb --function quadratic_2d --theta 0.5 --x0 1,1 --gamma nan",
            2, "usage"),
        "hb_L_nan": ("hb --function quadratic_2d --theta 0.5 --x0 1,1 --L nan",
                     2, "usage"),
        "hb_beta_nan": (
            "hb --function quadratic_2d --theta 0.5 --beta nan --x0 1,1",
            2, "usage"),
        "hb_negative_stop_grad_tol": (
            "hb --function quadratic_2d --theta 0.5 --x0 1,1 "
            "--stop-grad-tol -1", 2, "usage"),
        # a negative distance can never be met
        "flow_negative_stop_dist": (
            "flow --function quadratic_2d --x0 1,1 --stop-dist -1 --t-end 1",
            2, "usage"),
        # flags are spelled out: gd has --L0 and --beta, not --L or --bet
        "gd_abbreviated_L0": (
            "gd --function quadratic_2d --x0 1,1 --beta 0.01 --L 5", 2, "usage"),
        "gd_abbreviated_beta": (
            "gd --function quadratic_2d --x0 1,1 --bet 0.01", 2, "usage"),
        "config_nan": (
            "gd --function quadratic_2d --x0 1,1 --config {config}",
            2, "usage", {"task_params": {"beta": float("nan")}}),
        "config_inf_seed": (
            "gd --function quadratic_2d --x0 1,1 --beta 0.01 "
            "--config {config}", 2, "usage", {"seed": float("inf")}),
        # a config key is parsed as the flag it names, so the flag's type
        # and choices refuse what they would refuse on the command line
        "config_order_outside_choices": (
            "flow --function quadratic_2d --x0 1,1 --t-end 1 --config {config}",
            2, "usage", {"task_params": {"order": 3}}),
        "config_optimal_string": (
            "gd --function quadratic_2d --x0 1,1 --config {config}", 2, "usage",
            {"task_params": {"optimal": "no"}}),
        "config_fractional_max_iters": (
            "gd --function quadratic_2d --x0 1,1 --beta 0.01 --config {config}",
            2, "usage", {"task_params": {"max_iters": 10.7}}),
        "config_list_pairs": (
            "verify --function quadratic_1d --property pl --mu 0.5 "
            "--config {config}", 2, "usage", {"task_params": {"pairs": [1, 2]}}),
        "config_string_seed": (
            "gd --function quadratic_2d --x0 1,1 --beta 0.01 --config {config}",
            2, "usage", {"seed": "x"}),
        "config_string_in_x0": (
            "gd --function quadratic_2d --beta 0.01 --config {config}", 2,
            "usage", {"task_params": {"x0": [1, "a"]}}),
        "config_task_params_list": (
            "gd --function quadratic_2d --x0 1,1 --beta 0.01 --config {config}",
            2, "usage", {"task_params": ["x0"]}),
        "config_not_an_object": (
            "gd --function quadratic_2d --x0 1,1 --beta 0.01 --config {config}",
            2, "usage", [1]),
        "x0_not_a_vector": ("gd --function quadratic_2d --x0 1,a --beta 0.01",
                            2, "usage"),
        # verify and gd read only the flags of the check or step they run
        "verify_ladder_mu": (
            "verify --function quadratic_2d --property ladder --mu 3 "
            "--pairs 200", 2, "usage"),
        "verify_gamma_property_mu": (
            "verify --function quadratic_2d --property strong_quasiconvexity "
            "--mu 3 --pairs 200", 2, "usage"),
        "verify_mu_property_gamma": (
            "verify --function quadratic_1d --property quasi_strong_convexity "
            "--mu 0.5 --gamma 1 --pairs 200", 2, "usage"),
        "verify_lambdas_without_weights": (
            "verify --function quadratic_2d --property gradient_characterization "
            "--lambdas 3 --pairs 200", 2, "usage"),
        "gd_optimal_beta": (
            "gd --function quadratic_2d --optimal --beta 0.01 --x0 1,1",
            2, "usage"),
        # a weak name runs at modulus 0 and reads neither constant
        "verify_weak_name_gamma": (
            "verify --function quadratic_2d --property convexity --gamma -1 "
            "--pairs 200", 2, "usage"),
        "verify_weak_name_mu": (
            "verify --function sin_quadratic --property quasimonotonicity "
            "--mu 1 --pairs 200", 2, "usage"),
        # the sublevel set of a minimizer holds no second point to estimate
        # L on
        "gd_optimal_from_the_minimizer": (
            "gd --function sin_quadratic --optimal --x0 0", 2, "usage"),
        "hb_from_the_minimizer": (
            "hb --function sin_quadratic --x0 0", 2, "usage"),
        "estimate_L0_from_the_minimizer": (
            "estimate --function sin_quadratic --constant L0 --x0 0",
            2, "usage"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_code_and_kind(self, tmp_path, capsys, case):
        command, code, kind, *config = self.CASES[case]
        (tmp_path / "file").write_text("")
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe\x00")
        (tmp_path / "config.json").write_text(json.dumps(config[0] if config
                                                         else {}))
        argv = command.format(file=tmp_path / "file",
                              missing=tmp_path / "missing.json",
                              dir=tmp_path, long=tmp_path / ("a" * 300),
                              bad_json=tmp_path / "bad.json",
                              not_utf8=tmp_path / "not_utf8.json",
                              config=tmp_path / "config.json").split()
        assert run(argv) == code
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err)["kind"] == kind

    @pytest.mark.parametrize("cls", [
        c for c in vars(core).values() if isinstance(c, type)
        and issubclass(c, core.SqcflowError) and c.__module__ == core.__name__],
        ids=lambda c: c.__name__)
    def test_kind_decides_the_exit_code(self, monkeypatch, capsys, cls):
        exc = cls("raised by the test")

        def raise_it(config):
            raise exc
        monkeypatch.setattr(cli, "run_experiment", raise_it)
        code = run(["gd", "--function", "quadratic_2d"])
        assert cls.kind in ("usage", "numerical")
        assert code == (3 if cls.kind == "numerical" else 2)
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err) == {"error": str(exc), "kind": cls.kind}


class TestRunPremises:
    """Runs use the catalog minimizer and never search for one, and each
    run checks its start through the step loop."""

    @pytest.fixture(autouse=True)
    def no_search(self, monkeypatch):
        def search(*args, **kwargs):
            raise StagnationFailure("minimizer search reached")
        monkeypatch.setattr(estimate, "reference_minimizer", search)

    # the catalog records the minimizer of the nonsmooth max_two_quadratics,
    # so its runs are certified like any other
    @pytest.mark.parametrize("command", [
        "gd --optimal --max-iters 300", "flow --order 1 --t-end 5",
        "flow --order 2 --t-end 5"])
    def test_nonsmooth_minimizer_is_certified(self, capsys, command):
        assert run(command.split() + [
            "--function", "max_two_quadratics", "--x0", "1,1"]) == 0
        certs = json.loads(capsys.readouterr().out)
        assert certs and all(c["satisfied"] for c in certs)

    # hb checks x_prev itself, so it starts from inside the ball
    @pytest.mark.parametrize("command", [
        "gd --optimal", "hb --theta 0.5 --x-prev 0.1,0.1", "flow --order 1",
        "flow --order 2"])
    def test_start_outside_the_domain(self, capsys, command):
        assert run(command.split() + ["--function", "sqrt_norm_2d",
                                      "--x0", "3,3"]) == 3
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err) == {"error": "x0 outside the domain",
                                   "kind": "numerical"}

    # a non-positive constant is refused as soon as it is resolved, and a
    # flag the run does not read at once: before any estimate, step or
    # check
    @pytest.mark.parametrize("command,message", [
        ("hb --function quadratic_2d --x0 1,1 --theta 0.5 --L -1 --beta 0.1",
         "L must be positive"),
        ("hb --function quadratic_2d --x0 1,1 --theta 0.5 --gamma -1 "
         "--beta 0.1", "gamma must be positive"),
        ("gd --function quadratic_2d --x0 1,1 --L0 -1 --beta 0.05",
         "L0 must be positive"),
        ("gd --function quadratic_2d --x0 1,1 --gamma -1 --beta 0.05",
         "gamma must be positive"),
        ("gd --function sin_quadratic --gamma -1 --beta 0.01 --x0 2",
         "gamma must be positive"),
        ("flow --function quadratic_2d --order 1 --x0 1,1 --gamma -1 "
         "--t-end 100", "gamma must be positive"),
        ("flow --function quadratic_2d --order 1 --x0 1,1 --L -1 --t-end 100 "
         "--dt 1e-3", "L must be positive"),
        ("flow --function sin_quadratic --order 2 --x0 2 --gamma -1 "
         "--t-end 100", "gamma must be positive"),
        ("gd --function sin_quadratic --optimal --beta 0.01 --x0 2",
         "gd --optimal reads no --beta"),
        # no function has gamma > 2 L0; the optimal step is in the window
        ("gd --function quadratic_2d --gamma 10 --L0 4 --optimal --x0 1,1 "
         "--max-iters 50", "need gamma < 2 L0"),
        ("verify --function sin_quadratic --property ladder --mu 3",
         "verify --property ladder reads no --mu"),
        ("verify --function quadratic_2d --property strong_monotonicity "
         "--mu 1 --lambdas 3",
         "verify --property strong_monotonicity reads no --mu, --lambdas"),
        ("verify --function quadratic_2d --property pl --mu 0.5 --gamma 1",
         "verify --property pl reads no --gamma"),
        ("verify --function quadratic_2d --property pl --mu 0.5 --lambdas 2",
         "verify --property pl reads no --lambdas"),
        ("verify --function quadratic_2d --property convexity --gamma -1",
         "verify --property convexity reads no --gamma"),
        ("verify --function quadratic_2d --property monotonicity --mu 1 "
         "--gamma 1", "verify --property monotonicity reads no --gamma, --mu")])
    def test_constants_are_checked_before_the_run(self, monkeypatch, capsys,
                                                  command, message):
        def never(*args, **kwargs):
            raise AssertionError("the run started")
        for name in ("gradient_descent", "heavy_ball", "integrate_first_order",
                     "integrate_second_order", "empirical_modulus",
                     "estimate_lipschitz_sublevel", "check_property",
                     "check_implication_ladder"):
            monkeypatch.setattr(cli, name, never)
        assert run(command.split()) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line) for line in err] == \
            [{"error": message, "kind": "usage"}]


class TestOwnStateKappa:
    """Without L, the damped flow reads kappa on its own states, so no
    second-order run integrates a first-order flow."""

    @pytest.fixture(autouse=True)
    def no_first_order_flow(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a first-order flow was integrated")
        monkeypatch.setattr(cli, "integrate_first_order", never)
        monkeypatch.setattr(flows, "integrate_first_order", never)

    @staticmethod
    def smallest_ratio(oracle, out):
        """min <grad h(x), x - x_bar> / (h(x) - h*) over the rows of
        trace.csv whose gap exceeds 1e-12."""
        rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        X, h = rows[:, 1:1 + oracle.dim], rows[:, 1 + oracle.dim]
        gap = h - oracle.minimum_value()
        keep = gap > 1e-12
        inner = np.sum(np.asarray(oracle.grad(X[keep]))
                       * (X[keep] - oracle.known_minimizer), axis=1)
        return float(np.min(inner / gap[keep]))

    # sqrt_norm_2d's run at t = 20 stays in the ball (exit 3 would be a
    # state leaving it); integrator chatter decides its verdict, left
    # unpinned; on sqrt|x| every ratio is 1/2
    @pytest.mark.parametrize("name,start,codes,raw", [
        ("sin_quadratic", "--x0 -2.7 --t-end 5", (0,), None),
        ("max_two_quadratics", "--x0 1,1 --t-end 5", (0,), 1.0 + 2.0 ** -0.5),
        ("sqrt_norm_2d", "--x0 0.3,0.2 --t-end 20", (0, 1), 0.5)],
        ids=["sin_quadratic", "max_two_quadratics", "sqrt_norm_2d"])
    def test_kappa_is_read_on_the_run(self, tmp_path, capsys, name, start,
                                      codes, raw):
        code = run(["flow", "--function", name, "--order", "2",
                    "--output-dir", str(tmp_path), *start.split()])
        assert code in codes
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["notes"][-1] == \
            "kappa estimated on the run's own states (safety-adjusted)"
        ratio = self.smallest_ratio(cli.get_entry(name).oracle, tmp_path)
        kappa = meta["constants_used"]["kappa"]
        assert kappa == pytest.approx(estimate.SAFETY_KAPPA * ratio, rel=1e-12)
        if raw is not None:
            assert ratio == pytest.approx(raw, abs=1e-9)

    # with L, kappa = gamma / L is proved, so nothing is estimated
    def test_known_L_estimates_nothing(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("kappa was estimated")
        monkeypatch.setattr(flows, "estimate_kappa", never)
        assert run(["flow", "--function", "quadratic_2d", "--order", "2",
                    "--x0", "1,1", "--t-end", "2"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["constants"]["kappa"] \
            == 0.25


# the L estimator refuses a start outside the domain before it samples;
# gd and hb estimate L first, so its check covers them
@pytest.mark.parametrize("command", [
    "estimate --constant L0", "gd --optimal", "hb --theta 0.5"])
def test_estimators_refuse_a_start_outside_the_domain(monkeypatch, capsys,
                                                      command):
    def sample(*args, **kwargs):
        raise AssertionError("sampled for a start outside the domain")
    monkeypatch.setattr(estimate, "sample_points", sample)
    assert run(command.split() + ["--function", "sqrt_norm_2d",
                                  "--x0", "3,3"]) == 3
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err) == {"error": "x0 outside the domain",
                               "kind": "numerical"}


@pytest.mark.parametrize("argv,files", [
    (["gd", "--function", "quadratic_3d", "--optimal", "--x0", "1,1,0.5",
      "--max-iters", "300"], ["certificate.json", "meta.json", "trace.csv"]),
    (["list-functions", "--json"], None),
    (["bench", "--suite", "ladder"], ["summary.csv"]),
], ids=["gd", "list_functions", "bench_ladder"])
def test_closed_stdout_keeps_the_verdict(tmp_path, argv, files):
    # the read end is closed before the run starts, so every write to
    # stdout fails with EPIPE
    out = tmp_path / "run"
    if files is not None:
        argv = argv + ["--output-dir", str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(sqcflow.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "sqcflow.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
    if files is not None:
        assert sorted(p.name for p in out.iterdir()) == files
