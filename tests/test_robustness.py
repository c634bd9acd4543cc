"""Seeded robustness sweep of every rate certificate on oracles whose
constants are exact.  Inside its premises no run may fail: a failure here
is a bug in a bound or in a step loop, never a tolerance to widen."""

import hashlib

import numpy as np
import pytest

from sqcflow import bench, cli
from sqcflow.core import Trajectory
from sqcflow.flows import (FlowConfig, LyapunovParams, certify_first_order,
                           certify_first_order_values, certify_second_order,
                           integrate_first_order, integrate_second_order)


def test_rates_suite_passes_on_every_start(tmp_path, capsys):
    # both gd certificates and heavy ball, from bench.rates_starts; the
    # digest pins every fitted and certified rate, so a drift fails too
    out = tmp_path / "rates"
    assert cli.main(["bench", "--suite", "rates", "--output-dir", str(out)]) == 0
    header, *rows = (out / "summary.csv").read_text().splitlines()
    assert header == "entry,method,beta,empirical,theoretical,satisfied"
    assert len(rows) == 4 * 12 * (5 * 2 + 9)
    assert all(row.endswith(",True") for row in rows)
    assert hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest() == \
        "bb5f85e0b55a7cb694c5260b819935eff33ef8969e9c51ae10664f891c009555"


@pytest.mark.parametrize("entry", bench.rates_entries(), ids=lambda e: e.name)
def test_flow_certificates_pass_on_every_start(entry):
    o = entry.oracle
    gamma, L = o.known_modulus, o.known_lipschitz
    failed = []
    for x0 in bench.rates_starts(o.dim):
        cfg = FlowConfig(x0=x0, t_end=10.0, dt=0.05)
        traj = integrate_first_order(o, cfg)
        certs = [certify_first_order(traj, gamma),
                 certify_first_order_values(traj, gamma, L)]
        for alpha in (0.5, 3.0):
            lyap = LyapunovParams.from_constants(gamma, gamma / L, alpha)
            traj = integrate_second_order(o, FlowConfig(
                x0=x0, t_end=10.0, dt=0.05, alpha=alpha), lyap)
            certs.append(certify_second_order(traj))
        failed += [(list(x0), c.kind) for c in certs if not c.satisfied]
    assert failed == []


# Synthetic series at a fixed multiple of each closed-form flow envelope,
# from times[1] on: 1.04x lies inside the 5 % slack and 1.06x outside it,
# so an envelope written too tight or too loose by a few percent of its
# exponent over the grid fails one of the two.
TIMES = np.linspace(0.0, 6.0, 61)


def _traj(dist, **diagnostics):
    """A trajectory at ``dist`` from the minimizer: E = dist^2 / 2."""
    n = TIMES.size
    return Trajectory(times=TIMES, states=np.zeros((n, 1)),
                      h_values=np.zeros(n), grad_norms=np.zeros(n),
                      diagnostics={"E": 0.5 * np.square(dist), **diagnostics})


def _scaled(envelope, scale):
    return np.concatenate([envelope[:1], scale * envelope[1:]])


@pytest.mark.parametrize("scale,first", [(1.04, None), (1.06, TIMES[1])])
def test_flow_first_distance_envelope(scale, first):
    gamma = 1.0
    traj = _traj(_scaled(np.exp(-0.5 * gamma * TIMES), scale))
    cert = certify_first_order(traj, gamma)
    assert cert.first_violation == first
    assert cert.theoretical_rate == 0.5 * gamma


@pytest.mark.parametrize("scale,first", [(1.04, None), (1.06, TIMES[1])])
def test_flow_first_value_envelope(scale, first):
    # (L/2) dist0^2 = 0.5 and gap0 = 0.5 e^-1: the gap branch (exponent
    # gamma^2/2L = 0.5) is the smaller one until t = 2, the distance branch
    # (exponent gamma = 1) after it
    gamma, L, gap0 = 1.0, 1.0, 0.5 * np.exp(-1.0)
    by_dist = 0.5 * L * np.exp(-gamma * TIMES)
    by_gap = gap0 * np.exp(-gamma ** 2 / (2.0 * L) * TIMES)
    assert (by_gap < by_dist).any() and (by_dist < by_gap).any()
    traj = _traj(np.ones(TIMES.size),
                 h_gap=_scaled(np.minimum(by_dist, by_gap), scale))
    cert = certify_first_order_values(traj, gamma, L)
    assert cert.first_violation == first
    assert cert.theoretical_rate == max(0.5 * gamma, gamma ** 2 / (2.0 * L))


@pytest.mark.parametrize("scale,first", [(1.04, None), (1.06, TIMES[1])])
def test_flow_second_sigma_envelope(scale, first):
    # gamma = 1, kappa = 0.5, alpha = 3: lam = min{1, 4/3} = 1, so the
    # exponent lam kappa / 2 is 0.25
    lyap = LyapunovParams.from_constants(1.0, 0.5, 3.0)
    traj = _traj(np.ones(TIMES.size),
                 Sigma=_scaled(2.0 * np.exp(-0.25 * TIMES), scale))
    traj.params.update(lam=lyap.lam, kappa=lyap.kappa)
    cert = certify_second_order(traj)
    assert cert.first_violation == first
    assert cert.theoretical_rate == 0.25
