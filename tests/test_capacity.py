import math

import numpy as np
import pytest
from scipy import integrate

import rtgmi.capacity
from rtgmi.capacity import (QUADRATURE_NODES, RateLadder,
                            _log_likelihood_ratio_sum, ladder_capacities,
                            psk_capacity, psk_capacity_quadrature, rate_ladder)
from rtgmi.fading import Ar1Fading
from rtgmi.utils import complex_normal

# Deterministic quadrature values, frozen once and reproduced forever.
# Keyed by (order, rho), in nats.
FROZEN_QUADRATURE = {
    (2, 0.1): 0.08473095656469776,
    (2, 1.0): 0.39212157520236446,
    (2, 10.0): 0.6422513084521398,
    (4, 0.1): 0.0914427735764336,
    (4, 1.0): 0.5532928695328789,
    (4, 10.0): 1.197416527126343,
    (8, 0.1): 0.0914760785239479,
    (8, 1.0): 0.5705485379376285,
    (8, 10.0): 1.5319568580570249,
}
# the same at 20 dB, where the channel's deep fades set the rate
FROZEN_QUADRATURE_20DB = {
    (2, 100.0): 0.6876719134652187,
    (4, 100.0): 1.3645765968106558,
    (8, 100.0): 2.0006806688958205,
}

# exact capacities in nats: BPSK by nested_quad_bpsk, QPSK as two BPSK
# channels at half the SNR
REFERENCE_BPSK = {0.1: 0.084730956565, 1.0: 0.392121575202,
                  10.0: 0.642251308452, 100.0: 0.687671913465}
REFERENCE_QPSK = {0.1: 0.091442773576, 1.0: 0.553292869533,
                  10.0: 1.197416527096, 100.0: 1.364576596803}
ORACLE_RHOS = sorted(REFERENCE_BPSK)


def nested_quad_bpsk(rho):
    """Binary-input capacity by nested adaptive quadrature.

    Given t = |H|^2 ~ Exp(1), the log-likelihood ratio u = -4 rho t - 4
    sqrt(rho t) Re Z is N(-4 rho t, 8 rho t), and C = log 2 - E softplus(u).
    The inner integral over u is split at the softplus kink u = 0, the outer
    one over t at t = 1/rho, where the integrand bends.
    """
    tol = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 200}

    def softplus_mean(t):
        mean, sd = -4.0 * rho * t, math.sqrt(8.0 * rho * t)

        def f(g):
            return np.logaddexp(0.0, mean + sd * g) * math.exp(-0.5 * g * g)

        kink = -mean / sd
        total = (integrate.quad(f, -np.inf, kink, **tol)[0]
                 + integrate.quad(f, kink, np.inf, **tol)[0])
        return total / math.sqrt(2.0 * math.pi)

    def g(t):
        return math.exp(-t) * softplus_mean(t)

    return (math.log(2.0) - integrate.quad(g, 0.0, 1.0 / rho, **tol)[0]
            - integrate.quad(g, 1.0 / rho, np.inf, **tol)[0])


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


def symbol_sum(e):
    """Sum over the trailing (symbol) axis, adding the symbols in index order."""
    acc = e[..., 0].copy()
    for j in range(1, e.shape[-1]):
        acc += e[..., j]
    return acc


def row_major_llr_sum(h, z, points, rho):
    """The log-likelihood-ratio sum on an (n, J) table, max-shifted per row."""
    shift = np.sqrt(rho) * h[:, None] * (points[0] - points[None, :]) + z[:, None]
    expo = (np.abs(z) ** 2)[:, None] - np.abs(shift) ** 2
    top = expo.max(axis=1)
    return top + np.log(symbol_sum(np.exp(expo - top[:, None])))


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_llr_sum_equals_the_row_major_formula(order):
    rng = np.random.default_rng(order)
    h = complex_normal(rng, 5000)
    z = complex_normal(rng, 5000)
    points = np.exp(2j * math.pi * np.arange(order) / order)
    for rho in (0.1, 1.0, 10.0):
        assert np.array_equal(_log_likelihood_ratio_sum(h, z, points, rho),
                              row_major_llr_sum(h, z, points, rho)), rho


def test_quadrature_reproduces_frozen_table():
    for (order, rho), want in {**FROZEN_QUADRATURE,
                               **FROZEN_QUADRATURE_20DB}.items():
        got = psk_capacity_quadrature(order, rho)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13), (order, rho)


def test_monte_carlo_agrees_with_frozen_table():
    for first_seed, table in ((100, FROZEN_QUADRATURE),
                              (200, FROZEN_QUADRATURE_20DB)):
        for i, ((order, rho), want) in enumerate(sorted(table.items())):
            est = psk_capacity(order, rho, n_samples=120_000,
                               seed=first_seed + i)
            sigma = est.ci / 1.96
            assert abs(est.raw_nats - want) <= 3.5 * sigma, (order, rho, est)


@pytest.mark.parametrize("rho", ORACLE_RHOS)
def test_quadrature_matches_nested_quad_bpsk(rho):
    exact = nested_quad_bpsk(rho)
    assert abs(exact - REFERENCE_BPSK[rho]) <= 1e-11
    assert abs(psk_capacity_quadrature(2, rho) - exact) <= 1e-9


@pytest.mark.parametrize("rho", ORACLE_RHOS)
def test_quadrature_matches_qpsk_as_two_bpsk_channels(rho):
    # given H, the real and imaginary parts of QPSK are independent BPSK
    # channels, each with half the energy: C_4(rho) = 2 C_2(rho / 2)
    exact = 2.0 * nested_quad_bpsk(rho / 2.0)
    assert abs(exact - REFERENCE_QPSK[rho]) <= 1e-11
    assert abs(psk_capacity_quadrature(4, rho) - exact) <= 1e-9


@pytest.mark.parametrize("rho", ORACLE_RHOS)
def test_8psk_quadrature_converges_in_its_node_counts(rho):
    # no closed reduction is known for 8-PSK; the rule at 128 noise nodes
    # (32 per t panel) stands in for the exact value
    fine = psk_capacity_quadrature(8, rho, nodes=128)
    assert abs(psk_capacity_quadrature(8, rho) - fine) <= 2e-9
    assert abs(psk_capacity_quadrature(8, rho, nodes=96) - fine) <= 1e-10


# the low-SNR regime, down to where C_J(rho) is rho to within 1e-6 relative
LOW_ORDERS = [2, 3, 4, 8, 16]
LOW_RHOS = np.geomspace(1e-6, 1e-2, 9).tolist()


@pytest.mark.parametrize("order", LOW_ORDERS)
def test_low_snr_quadrature_stays_below_the_gaussian_input_capacity(order):
    # a Gaussian input is optimal with the reference known, and Jensen over
    # t = |H|^2 gives E log(1 + rho t) <= log(1 + rho)
    for rho in LOW_RHOS:
        assert psk_capacity_quadrature(order, rho) <= math.log1p(rho), rho


@pytest.mark.parametrize("order", LOW_ORDERS)
def test_low_snr_quadrature_follows_the_second_order_expansion(order):
    # C_J(rho) = rho - c2 rho^2 + O(rho^3) with E|H|^4 = 2: c2 = 2 for BPSK,
    # an improper input, and 1 for J >= 3 (Prelov & Verdu 2004); below 1e-5
    # the bound 10 rho^3 falls under the rounding of C itself
    c2 = 2.0 if order == 2 else 1.0
    for rho in np.geomspace(1e-5, 1e-2, 7).tolist():
        got = psk_capacity_quadrature(order, rho)
        assert abs(got - (rho - c2 * rho * rho)) <= 10.0 * rho ** 3, rho


@pytest.mark.parametrize("order", LOW_ORDERS)
def test_low_snr_quadrature_converges_in_its_node_counts(order):
    for rho in LOW_RHOS:
        coarse = psk_capacity_quadrature(order, rho)
        fine = psk_capacity_quadrature(order, rho, nodes=2 * QUADRATURE_NODES)
        assert abs(coarse - fine) <= 1e-8 * fine, rho


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
    # rho t and a^2 |d|^2 used to overflow from rho near 1e306 on, with a
    # RuntimeWarning and a nan at the largest floats
    for rho in (1e300, 1e306, 1.7e308):
        assert psk_capacity_quadrature(4, rho) == math.log(4.0)


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
    for rho in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            psk_capacity_quadrature(2, rho)


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_quadrature_refuses_nodes_where_the_hermite_rule_overflows(rho):
    # numpy's hermgauss overflows from 371 nodes on; the refusal raises no
    # RuntimeWarning, which the test configuration would turn into an error
    with pytest.raises(ValueError, match="nodes = 512"):
        psk_capacity_quadrature(2, rho, nodes=512)


def test_bits_property():
    est = psk_capacity(2, 1.0, n_samples=10_000, seed=3)
    assert est.bits == pytest.approx(est.nats / math.log(2.0), rel=1e-15)


def test_ladder_depth_one_is_all_pilot():
    rep = rate_ladder(Ar1Fading(0.9), 1, 2.0, 4)
    assert rep.rho.tolist() == [0.0]
    assert rep.capacity_nats.tolist() == [0.0]
    assert rep.l_average == 0.0
    assert rep.convergence_gap == 0.0


def test_ladder_white_fading_is_all_zero():
    rep = rate_ladder(Ar1Fading(0.0), 4, 2.0, 4)
    assert np.all(rep.rho == 0.0)
    assert np.all(rep.capacity_nats == 0.0)
    assert rep.l_average == 0.0


def test_ladder_caps_match_quadrature_per_subchannel():
    rep = rate_ladder(Ar1Fading(0.99), 20, 3.0, 4, predictor_order=8)
    assert rep.capacity_nats[0] == 0.0
    # past the predictor order the rungs repeat one rho, computed once
    assert len(set(rep.rho.tolist())) < 20
    for l in range(20):
        assert rep.capacity_nats[l] \
            == psk_capacity_quadrature(4, float(rep.rho[l])), l


def _count_quadrature(monkeypatch):
    """The rhos psk_capacity_quadrature is called at, in call order."""
    called = []

    def counting(order, rho, *args, **kwargs):
        called.append(rho)
        return psk_capacity_quadrature(order, rho, *args, **kwargs)

    monkeypatch.setattr(rtgmi.capacity, "psk_capacity_quadrature", counting)
    return called


def test_ladder_capacities_integrate_each_distinct_rho_once(monkeypatch):
    called = _count_quadrature(monkeypatch)
    rhos = np.array([0.0, 0.5, 2.0, 0.5, 2.0, 2.0, 0.0])
    caps = ladder_capacities(4, rhos)
    assert sorted(called) == [0.0, 0.5, 2.0]
    assert caps.dtype == np.float64 and caps.shape == rhos.shape
    assert caps.tolist() == [psk_capacity_quadrature(4, rho)
                             for rho in rhos.tolist()]
    assert caps[0] == 0.0


def test_ladder_integrates_a_rho_of_both_depths_once(monkeypatch):
    # the depth-32 ladder and its depth-16 half share their repeated rungs
    called = _count_quadrature(monkeypatch)
    model = Ar1Fading(0.99)
    rep = rate_ladder(model, 32, 1.0, 4, 16)
    assert len(called) == 32 == len(set(called))
    half = rtgmi.capacity.rho_sequence(model, 16, 1.0, 16)
    assert set(called) == set(rep.rho.tolist()) | set(half.tolist())


def test_ladder_convergence_gap_definition():
    full = rate_ladder(Ar1Fading(0.95), 8, 2.0, 2, predictor_order=8)
    half = rate_ladder(Ar1Fading(0.95), 4, 2.0, 2, predictor_order=8)
    assert full.convergence_gap == abs(full.l_average - half.l_average)
    assert full.convergence_gap > 0.0
