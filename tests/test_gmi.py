import math

import numpy as np
import pytest

from rtgmi.errors import NumericalConsistencyError
from rtgmi.fading import Ar1Fading
from rtgmi.gmi import _audit_convexity, _LogMgfEvaluator, gmi, lambda_hat
from rtgmi.psk import make_constellation, synthesize_block_at_rho
from rtgmi.utils import COMPENSATED_THRESHOLD


def brute_force_lambda(mu, block, constellation):
    """Double loop with explicit exponentials; no log-sum-exp shifting.

    Only safe for moderate |mu| and block length, which is the point: it is
    a completely independent arithmetic route.
    """
    J = constellation.order
    root = math.sqrt(block.rho)
    terms = []
    for k in range(block.block_length):
        acc = 0.0
        for j in range(J):
            d = abs(block.x[k] - root * block.h_hat[k] * constellation.points[j]) ** 2
            acc += math.exp(mu * d)
        terms.append(math.log(acc))
    return math.fsum(terms) / len(terms) - math.log(J)


def test_lambda_at_zero_is_exactly_zero():
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 10_000, seed=2)
    assert lambda_hat(0.0, blk, c) == 0.0


@pytest.mark.parametrize("order", [2, 4, 8])
@pytest.mark.parametrize("n", [COMPENSATED_THRESHOLD, 2 * COMPENSATED_THRESHOLD + 1])
def test_lambda_at_zero_is_exact_on_both_mean_branches(order, n):
    """lam(0) = 0 bit for bit through np.mean and through the compensated sum."""
    c = make_constellation(order)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, n, seed=order)
    assert lambda_hat(0.0, blk, c) == 0.0


@pytest.mark.parametrize("order", [2, 4, 8])
def test_per_sample_equals_the_row_major_formula(order):
    """The (J, n) table shifted by mu * min_j d gives the bits of the plain
    (n, J) log-sum-exp shifted by its row max, across a chunk boundary."""
    c = make_constellation(order)
    blk = synthesize_block_at_rho(Ar1Fading(0.9), 1.5, c, (1 << 17) + 5,
                                  seed=order)
    sq = np.abs(blk.x[:, None]
                - np.sqrt(blk.rho) * blk.h_hat[:, None] * c.points[None, :]) ** 2
    ev = _LogMgfEvaluator(blk, c)
    for mu in (-32.0, -1.0, -1e-4, 0.0):
        a = mu * sq
        top = a.max(axis=1)
        want = top + np.log(np.exp(a - top[:, None]).sum(axis=1) / order)
        assert np.array_equal(ev.per_sample(mu), want), mu


def test_lambda_matches_brute_force():
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.5, c, 400, seed=7)
    for mu in (-0.1, -0.5, -1.0, -2.0):
        assert lambda_hat(mu, blk, c) == pytest.approx(
            brute_force_lambda(mu, blk, c), rel=1e-11, abs=1e-12)


def test_lambda_rejects_positive_mu():
    c = make_constellation(2)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 100, seed=1)
    with pytest.raises(ValueError):
        lambda_hat(0.5, blk, c)


def test_lambda_midpoint_convexity():
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 10_000, seed=3)
    grid = -np.logspace(math.log10(1e-3), math.log10(8.0), 17)
    vals = {mu: lambda_hat(mu, blk, c) for mu in grid}
    for a, b in zip(grid[:-2], grid[2:]):
        mid = 0.5 * (a + b)
        chord = 0.5 * (vals[a] + vals[b])
        assert lambda_hat(mid, blk, c) <= chord + 1e-10


def test_gmi_report_invariants():
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 100_000, seed=5)
    rep = gmi(blk, c, seed=6)
    assert rep.mu_star < 0.0
    assert rep.gmi >= 0.0
    assert rep.gmi >= rep.g_at_minus_one - 1e-12
    assert rep.ci_halfwidth > 0.0
    assert rep.g_at_minus_one_ci > 0.0
    assert rep.n_samples == 100_000
    assert rep.lambda_curve.ndim == 2 and rep.lambda_curve.shape[1] == 2
    # rate at the optimizer really is mu - lambda(mu) for the same block
    lam = lambda_hat(rep.mu_star, blk, c)
    assert rep.mu_star - lam == pytest.approx(rep.gmi, abs=1e-9) or rep.clamped


def test_gmi_memoryless_optimum_near_minus_one():
    # for the exactly-matched channel the supremum sits at mu = -1
    c = make_constellation(2)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 300_000, seed=8)
    rep = gmi(blk, c, seed=9)
    assert rep.mu_star == pytest.approx(-1.0, abs=0.15)
    assert rep.gmi == pytest.approx(rep.g_at_minus_one, abs=5e-4)


def test_gmi_zero_rho_statistically_zero():
    # all candidate distances coincide at rho = 0, so the rate curve is
    # mu * (1 - mean |x|^2); the sign of the estimate is sampling noise
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 0.0, c, 20_000, seed=10)
    rep = gmi(blk, c, seed=110)
    assert rep.gmi <= rep.ci_halfwidth


def test_gmi_zero_rho_clamps_when_curve_is_negative():
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 0.0, c, 20_000, seed=11)
    rep = gmi(blk, c, seed=111)
    assert rep.clamped
    assert rep.gmi == 0.0


def test_gmi_mu_range_contract():
    c = make_constellation(2)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 1000, seed=1)
    with pytest.raises(ValueError):
        gmi(blk, c, mu_range=(-1.0, 0.5))
    with pytest.raises(ValueError):
        gmi(blk, c, mu_range=(-0.1, -0.5))


def test_convexity_audit_rejects_doctored_curve():
    curve = np.array([[-3.0, 0.5], [-2.0, 0.9], [-1.0, 0.6]])
    with pytest.raises(NumericalConsistencyError):
        _audit_convexity(curve)


def test_gmi_determinism():
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 30_000, seed=12)
    a = gmi(blk, c, seed=13)
    b = gmi(blk, c, seed=13)
    assert a.gmi == b.gmi
    assert a.mu_star == b.mu_star
    assert a.ci_halfwidth == b.ci_halfwidth


def test_curve_csv_format(tmp_path):
    c = make_constellation(2)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 5000, seed=14)
    rep = gmi(blk, c, seed=15)
    path = tmp_path / "curve.csv"
    rep.curve_to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "mu,lambda_hat"
    assert len(lines) == 1 + len(rep.lambda_curve)
    mu0, lam0 = lines[1].split(",")
    assert float(mu0) == rep.lambda_curve[0, 0]
    assert float(lam0) == rep.lambda_curve[0, 1]
