"""Seeded robustness sweep of every rate certificate on oracles whose
constants are exact.  Inside its premises no run may fail: a failure here
is a bug in a bound or in a step loop, never a tolerance to widen."""

import pytest

from sqcflow import bench, cli
from sqcflow.flows import (FlowConfig, LyapunovParams, certify_first_order,
                           certify_first_order_values, certify_second_order,
                           integrate_first_order, integrate_second_order)


def test_rates_suite_passes_on_every_start(tmp_path, capsys):
    # both gd certificates and heavy ball, from bench.rates_starts
    out = tmp_path / "rates"
    assert cli.main(["bench", "--suite", "rates", "--output-dir", str(out)]) == 0
    header, *rows = (out / "summary.csv").read_text().splitlines()
    assert header == "entry,method,beta,empirical,theoretical,satisfied"
    assert len(rows) == 4 * 12 * (5 * 2 + 9)
    assert all(row.endswith(",True") for row in rows)


@pytest.mark.parametrize("entry", bench.rates_entries(), ids=lambda e: e.name)
def test_flow_certificates_pass_on_every_start(entry):
    o = entry.oracle
    gamma, L, x_bar = o.known_modulus, o.known_lipschitz, o.known_minimizer
    failed = []
    for x0 in bench.rates_starts(o.dim):
        cfg = FlowConfig(x0=x0, t_end=10.0, dt=0.05)
        traj = integrate_first_order(o, cfg)
        certs = [certify_first_order(traj, gamma, x_bar),
                 certify_first_order_values(traj, gamma, L, x_bar)]
        for alpha in (0.5, 3.0):
            lyap = LyapunovParams.from_constants(gamma, gamma / L, alpha)
            traj = integrate_second_order(o, FlowConfig(
                x0=x0, t_end=10.0, dt=0.05, alpha=alpha), lyap)
            certs.append(certify_second_order(traj, lyap))
        failed += [(list(x0), c.kind) for c in certs if not c.satisfied]
    assert failed == []
