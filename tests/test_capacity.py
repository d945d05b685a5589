import math

import numpy as np
import pytest

from numpy.polynomial.hermite import hermgauss

from rtgmi.capacity import (RateLadder, _log_likelihood_ratio_sum,
                            psk_capacity, psk_capacity_quadrature, rate_ladder)
from rtgmi.fading import Ar1Fading
from rtgmi.utils import complex_normal

# Deterministic quadrature values, frozen once and reproduced forever.
# Keyed by (order, rho), in nats.
FROZEN_QUADRATURE = {
    (2, 0.1): 0.08473095656476115,
    (2, 1.0): 0.39212167335920545,
    (2, 10.0): 0.6424513013592013,
    (4, 0.1): 0.09144277357643382,
    (4, 1.0): 0.5532928759082427,
    (4, 10.0): 1.1974784339630387,
    (8, 0.1): 0.09147607852394812,
    (8, 1.0): 0.5705485430122719,
    (8, 10.0): 1.5320199988428338,
}


def trapezoid_capacity_bpsk(rho, nt=121, nz=101):
    """Binary-input capacity by plain 3-D trapezoid integration.

    Completely separate arithmetic from the Gauss-Hermite route: the
    magnitude of the reference is integrated against its Rayleigh density on
    [0, 5] and the two noise components on [-6, 6] against the bivariate
    Gaussian.  The phase of the reference is eliminated by rotation symmetry
    first, which is what makes three dimensions enough.
    """
    t = np.linspace(0.0, 5.0, nt)
    zr = np.linspace(-6.0, 6.0, nz)
    zi = np.linspace(-6.0, 6.0, nz)

    def trap_weights(grid):
        h = grid[1] - grid[0]
        w = np.full(len(grid), h)
        w[0] = w[-1] = h / 2.0
        return w

    wt = trap_weights(t) * 2.0 * t * np.exp(-t ** 2)
    wzr = trap_weights(zr) * np.exp(-zr ** 2) / math.sqrt(math.pi)
    wzi = trap_weights(zi) * np.exp(-zi ** 2) / math.sqrt(math.pi)

    # antipodal pair: the only cross term involves the real noise component
    a = -4.0 * rho * t[:, None] ** 2 - 4.0 * math.sqrt(rho) * t[:, None] * zr[None, :]
    inner = np.log1p(np.exp(a))
    expect = float(wt @ inner @ wzr) * float(wzi.sum())
    return math.log(2.0) - expect


def row_major_llr_sum(h, z, points, rho):
    """The log-likelihood-ratio sum on an (n, J) table, max-shifted per row."""
    shift = np.sqrt(rho) * h[:, None] * (points[0] - points[None, :]) + z[:, None]
    expo = (np.abs(z) ** 2)[:, None] - np.abs(shift) ** 2
    top = expo.max(axis=1)
    return top + np.log(np.exp(expo - top[:, None]).sum(axis=1))


def row_major_quadrature(order, rho, nodes):
    """psk_capacity_quadrature with the symbol axis last in each block."""
    points = np.exp(2j * math.pi * np.arange(order) / order)
    t, w = hermgauss(nodes)
    grid = (t[:, None] + 1j * t[None, :]).ravel()
    w2 = (w[:, None] * w[None, :]).ravel() / math.pi
    z_sq = np.abs(grid) ** 2
    expect = 0.0
    for start in range(0, len(grid), 64):
        h = grid[start:start + 64]
        shift = np.sqrt(rho) * h[:, None, None] * (points[0] - points)[None, None, :] \
            + grid[None, :, None]
        expo = z_sq[None, :, None] - np.abs(shift) ** 2
        top = expo.max(axis=2)
        inner = top + np.log(np.exp(expo - top[:, :, None]).sum(axis=2))
        expect += float(np.dot(w2[start:start + 64], inner @ w2))
    return math.log(order) - expect


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_llr_sum_equals_the_row_major_formula(order):
    rng = np.random.default_rng(order)
    h = complex_normal(rng, 5000)
    z = complex_normal(rng, 5000)
    points = np.exp(2j * math.pi * np.arange(order) / order)
    for rho in (0.1, 1.0, 10.0):
        assert np.array_equal(_log_likelihood_ratio_sum(h, z, points, rho),
                              row_major_llr_sum(h, z, points, rho)), rho


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_quadrature_equals_the_row_major_copy(order):
    # a last-bit change inside the blocks seldom survives the weighted sums,
    # so several grids are compared; the LLR test above checks every term
    for nodes in (8, 16):
        for rho in (0.1, 1.0, 3.0, 10.0):
            assert psk_capacity_quadrature(order, rho, nodes=nodes) \
                == row_major_quadrature(order, rho, nodes), (nodes, rho)


def test_quadrature_reproduces_frozen_table():
    for (order, rho), want in FROZEN_QUADRATURE.items():
        got = psk_capacity_quadrature(order, rho)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13), (order, rho)


def test_monte_carlo_agrees_with_frozen_table():
    for i, ((order, rho), want) in enumerate(sorted(FROZEN_QUADRATURE.items())):
        est = psk_capacity(order, rho, n_samples=120_000, seed=100 + i)
        sigma = est.ci / 1.96
        assert abs(est.raw_nats - want) <= 3.5 * sigma, (order, rho, est)


def test_trapezoid_oracle_agrees_with_quadrature():
    got = trapezoid_capacity_bpsk(1.0)
    assert abs(got - FROZEN_QUADRATURE[(2, 1.0)]) <= 1e-3


def test_single_symbol_carries_nothing():
    est = psk_capacity(1, 5.0, n_samples=1000, seed=0)
    assert est.nats == 0.0 and est.raw_nats == 0.0
    assert psk_capacity_quadrature(1, 5.0) == 0.0


def test_zero_snr_is_zero_within_ci():
    est = psk_capacity(4, 0.0, n_samples=50_000, seed=2)
    assert abs(est.raw_nats) <= 3.5 * (est.ci / 1.96 + 1e-12)
    assert est.nats >= 0.0
    assert est.clamped == (est.nats != est.raw_nats)


def test_quadrature_monotone_in_snr():
    vals = [psk_capacity_quadrature(4, r) for r in (0.1, 0.5, 1.0, 2.0, 10.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_quadrature_saturates_at_log_order():
    assert psk_capacity_quadrature(4, 1e6) == pytest.approx(math.log(4.0), abs=1e-4)


def test_capacity_contracts():
    with pytest.raises(ValueError):
        psk_capacity(0, 1.0)
    with pytest.raises(ValueError):
        psk_capacity(2, -0.5)
    with pytest.raises(ValueError):
        psk_capacity(2, 1.0, n_samples=1)
    with pytest.raises(ValueError):
        psk_capacity_quadrature(2, 1.0, nodes=1)
    with pytest.raises(ValueError):
        psk_capacity_quadrature(2, -1.0)


def test_bits_property():
    est = psk_capacity(2, 1.0, n_samples=10_000, seed=3)
    assert est.bits == pytest.approx(est.nats / math.log(2.0), rel=1e-15)


def test_ladder_depth_one_is_all_pilot():
    rep = rate_ladder(Ar1Fading(0.9), 1, 2.0, 4, n_samples=1000, seed=4)
    assert rep.rho.tolist() == [0.0]
    assert rep.capacity_nats.tolist() == [0.0]
    assert rep.l_average == 0.0
    assert rep.convergence_gap == 0.0


def test_ladder_white_fading_is_all_zero():
    rep = rate_ladder(Ar1Fading(0.0), 4, 2.0, 4, n_samples=1000, seed=5)
    assert np.all(rep.rho == 0.0)
    assert np.all(rep.capacity_nats == 0.0)
    assert rep.l_average == 0.0


def test_ladder_caps_match_quadrature_per_subchannel():
    rep = rate_ladder(Ar1Fading(0.99), 4, 3.0, 4, predictor_order=8,
                      n_samples=20_000, seed=6)
    assert rep.capacity_nats[0] == 0.0 and rep.capacity_ci[0] == 0.0
    for l in range(1, 4):
        ref = psk_capacity_quadrature(4, float(rep.rho[l]))
        sigma = rep.capacity_ci[l] / 1.96
        assert abs(rep.capacity_nats[l] - ref) <= 3.5 * sigma, l


def test_ladder_convergence_gap_definition():
    full = rate_ladder(Ar1Fading(0.95), 8, 2.0, 2, predictor_order=8,
                       n_samples=50_000, seed=7)
    half = rate_ladder(Ar1Fading(0.95), 4, 2.0, 2, predictor_order=8,
                       n_samples=50_000, seed=7)
    # the two half-depth averages come from different sample streams, so
    # they agree only statistically
    assert full.convergence_gap == pytest.approx(
        abs(full.l_average - half.l_average), abs=0.02)
    assert full.convergence_gap >= 0.0


def test_ladder_csv(tmp_path):
    rep = rate_ladder(Ar1Fading(0.9), 3, 1.0, 2, predictor_order=4,
                      n_samples=2000, seed=8)
    path = tmp_path / "ladder.csv"
    rep.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "l,rho_linear,capacity_nats,capacity_bits"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.0
    assert float(first[2]) == 0.0
