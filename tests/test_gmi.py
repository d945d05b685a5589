import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import rtgmi
from rtgmi.errors import NumericalConsistencyError
from rtgmi.fading import Ar1Fading, ClarkeFading
from rtgmi.gmi import (DEFAULT_MU_RANGE, _audit_convexity, _LogMgfEvaluator,
                       gmi, lambda_hat)
from rtgmi.psk import make_constellation, synthesize_block_at_rho

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def golden_section_maximize(fun, lo: float, hi: float, tol: float = 1e-6):
    """Maximize a unimodal function on [lo, hi] to bracket width <= tol.

    Returns (x_best, f(x_best)) at the best evaluated interior point, so the
    reported value is an actual function evaluation, never an interpolation.
    The slow oracle for gmi's Newton search: about 30 evaluations of
    lambda for a bracket of 1e-6.
    """
    a, b = float(lo), float(hi)
    if not b > a:
        raise ValueError("need lo < hi")
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, fun(x)
    n_steps = int(math.ceil(math.log(tol / h) / math.log(INV_PHI)))
    c = b - INV_PHI * h
    d = a + INV_PHI * h
    yc = fun(c)
    yd = fun(d)
    for _ in range(n_steps - 1):
        if yc > yd:
            b, d, yd = d, c, yc
            h = INV_PHI * h
            c = b - INV_PHI * h
            yc = fun(c)
        else:
            a, c, yc = c, d, yd
            h = INV_PHI * h
            d = a + INV_PHI * h
            yd = fun(d)
    if yc > yd:
        return c, yc
    return d, yd


def golden_section_gmi(ev):
    """(mu*, g*) by gmi's 33-point grid argmax, golden-section search in its
    bracket and the same two overrides: the best grid point and mu = -1."""
    lo, hi = DEFAULT_MU_RANGE
    grid = np.sort(-np.logspace(math.log10(-hi), math.log10(-lo), 33))
    rates = np.array([m - ev.lambda_at(m) for m in grid])
    i = int(np.argmax(rates))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    if b - a > 1e-6:
        mu, g = golden_section_maximize(lambda m: m - ev.lambda_at(m), a, b)
    else:
        mu, g = float(grid[i]), float(rates[i])
    if rates[i] > g:
        mu, g = float(grid[i]), float(rates[i])
    g_m1 = -1.0 - ev.lambda_at(-1.0)
    if g_m1 > g:
        mu, g = -1.0, g_m1
    return mu, g


def test_golden_section_quadratic():
    x, f = golden_section_maximize(lambda t: -(t - 0.3) ** 2, -4.0, 2.0,
                                   tol=1e-9)
    assert x == pytest.approx(0.3, abs=1e-6)
    assert f == pytest.approx(0.0, abs=1e-12)


def test_golden_section_returns_an_evaluated_point():
    calls = []

    def fun(t):
        calls.append(t)
        return -abs(t - 1.5)

    x, f = golden_section_maximize(fun, 0.0, 4.0, tol=1e-7)
    assert x in calls
    assert f == -abs(x - 1.5)


def test_lambda_at_zero_is_exactly_zero():
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 10_000, seed=2)
    assert lambda_hat(0.0, blk, c) == 0.0


@pytest.mark.parametrize("order", [2, 4, 8])
@pytest.mark.parametrize("n", [10_000, 20_001])
def test_lambda_at_zero_is_exact_at_every_length(order, n):
    """lam(0) = 0 bit for bit at an even and an odd block length."""
    c = make_constellation(order)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, n, seed=order)
    assert lambda_hat(0.0, blk, c) == 0.0


def gap_oracle(block, constellation):
    """((n, J - 1) gaps in rotation order, dmin) by plain loops over the
    symbol columns of an (n, J) correlation table: twice the correlations,
    the first symbol j* of largest correlation, then u for symbols j* + 1,
    ..., j* + J - 1 (mod J) and the distance to j*."""
    order, n = constellation.order, block.block_length
    twice = 2.0 * constellation.points
    ref = np.sqrt(block.rho) * block.h_hat
    c = np.conj(block.x) * ref
    corr = np.empty((n, order))
    for j in range(order):
        corr[:, j] = c.real * twice.real[j] - c.imag * twice.imag[j]
    top = corr.max(axis=1)
    first = np.full(n, -1)
    for j in reversed(range(order)):
        first[corr[:, j] == top] = j
    rows = np.arange(n)
    gaps = np.empty((n, order - 1))
    for r in range(order - 1):
        gaps[:, r] = top - corr[rows, (first + 1 + r) % order]
    diff = block.x - constellation.points[first] * ref
    return gaps, diff.real * diff.real + diff.imag * diff.imag


def per_sample_oracle(mu, gaps, dmin, order):
    """mu dmin + log((1 + sum_r exp(mu u[:, r])) / J), adding in row order."""
    acc = np.zeros(len(dmin))
    for r in range(order - 1):
        acc += np.exp(mu * gaps[:, r])
    acc += 1.0
    return mu * dmin + np.log(acc / order)


def log_sum_exp_oracle(mu, block, constellation):
    """The (n, J) squared-distance log-sum-exp, shifted by its row max."""
    sq = np.abs(block.x[:, None] - np.sqrt(block.rho) * block.h_hat[:, None]
                * constellation.points[None, :]) ** 2
    a = mu * sq
    top = a.max(axis=1)
    return top + np.log(np.exp(a - top[:, None]).sum(axis=1)
                        / constellation.order)


@pytest.mark.parametrize("order", [2, 3, 4, 8, 16])
def test_per_sample_equals_the_row_major_formula(order):
    """The blocked (J - 1, n) table and its per-sample values have the bits
    of the plain (n, J) loop, across block boundaries, and agree with the
    squared-distance log-sum-exp; an odd J turns the rows past the wrap."""
    c = make_constellation(order)
    blk = synthesize_block_at_rho(Ar1Fading(0.9), 1.5, c, (1 << 17) + 5,
                                  seed=order)
    gaps, dmin = gap_oracle(blk, c)
    ev = _LogMgfEvaluator(blk, c)
    assert np.array_equal(ev.gaps, gaps.T)
    assert np.array_equal(ev.dmin, dmin)
    assert gaps.min() >= 0.0
    for mu in (-32.0, -1.0, -1e-4, 0.0):
        got = ev.per_sample(mu)
        want = per_sample_oracle(mu, gaps, dmin, order)
        assert np.array_equal(got, want), mu
        assert got == pytest.approx(log_sum_exp_oracle(mu, blk, c),
                                    rel=1e-12, abs=1e-12), mu


@pytest.mark.parametrize("order", [2, 3, 4])
def test_first_maximum_breaks_ties_at_the_lowest_symbol(order):
    """Where x = 0 every correlation is 0, so every symbol ties: j* = 0, the
    gaps are exactly 0 and dmin is |sqrt(rho) h_hat theta[0]|^2."""
    c = make_constellation(order)
    blk = synthesize_block_at_rho(Ar1Fading(0.9), 1.5, c, 3000, seed=4)
    x = blk.x.copy()
    x[::3] = 0.0
    blk = dataclasses.replace(blk, x=x)
    gaps, dmin = gap_oracle(blk, c)
    ev = _LogMgfEvaluator(blk, c)
    assert np.array_equal(ev.gaps, gaps.T)
    assert np.array_equal(ev.dmin, dmin)
    assert not ev.gaps[:, ::3].any()
    ref = np.sqrt(blk.rho) * blk.h_hat[::3]
    assert np.array_equal(ev.dmin[::3], ref.real ** 2 + ref.imag ** 2)


def test_the_curve_sweep_has_the_bits_of_lone_evaluations():
    """lambdas over a whole grid, lambda_at one mu at a time and the lam of
    moments are the same numbers, bit for bit."""
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.99), 1.0, c, 50_001, seed=3)
    ev = _LogMgfEvaluator(blk, c)
    lo, hi = DEFAULT_MU_RANGE
    grid = np.sort(-np.logspace(math.log10(-hi), math.log10(-lo), 33))
    swept = ev.lambdas([*grid, -1.0, 0.0])
    for mu, lam in zip([*grid, -1.0, 0.0], swept):
        assert lam == ev.lambda_at(mu), mu
        assert lam == ev.moments(mu)[0], mu
    assert swept[-1] == 0.0


def test_one_symbol_leaves_an_empty_table():
    """J = 1: no gaps, so lam(mu) = mu * mean |x - sqrt(rho) h_hat|^2."""
    c = make_constellation(1)
    blk = synthesize_block_at_rho(Ar1Fading(0.9), 2.0, c, 5000, seed=1)
    ev = _LogMgfEvaluator(blk, c)
    assert ev.gaps.shape == (0, 5000)
    d = np.abs(blk.x - np.sqrt(blk.rho) * blk.h_hat) ** 2
    for mu in (-3.0, -1.0, 0.0):
        assert ev.per_sample(mu) == pytest.approx(mu * d, rel=1e-15)
        assert ev.lambda_at(mu) == pytest.approx(
            mu * math.fsum(d.tolist()) / len(d), rel=1e-15)
        lam, slope, curvature = ev.moments(mu)
        assert (lam, curvature) == (ev.lambda_at(mu), 0.0)
        assert slope == pytest.approx(math.fsum(d.tolist()) / len(d),
                                      rel=1e-15)


@pytest.mark.parametrize("mu", [-32.0, -8.0, -1.0, -1e-3])
def test_lambda_is_the_correctly_rounded_mean(mu):
    """The chunked fsum of 10^6 terms is within 2 ulp of math.fsum of the
    per-sample values."""
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.9), 1.0, c, 1_000_000, seed=5)
    ev = _LogMgfEvaluator(blk, c)
    want = math.fsum(ev.per_sample(mu).tolist()) / ev.n
    assert abs(ev.lambda_at(mu) - want) <= 2 * math.ulp(want)


def test_lambda_matches_brute_force():
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.5, c, 400, seed=7)
    for mu in (-0.1, -0.5, -1.0, -2.0):
        assert lambda_hat(mu, blk, c) == pytest.approx(
            brute_force_lambda(mu, blk, c), rel=1e-11, abs=1e-12)


def test_moments_match_brute_force():
    """lam' and lam'' as the softmax-weighted mean and variance of the
    distances, by explicit loops."""
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.5, c, 400, seed=7)
    ev = _LogMgfEvaluator(blk, c)
    root = math.sqrt(blk.rho)
    for mu in (-0.1, -1.0, -2.0):
        slopes, curvatures = [], []
        for k in range(blk.block_length):
            d = [abs(blk.x[k] - root * blk.h_hat[k] * p) ** 2 for p in c.points]
            w = [math.exp(mu * dj) for dj in d]
            mean = sum(wj * dj for wj, dj in zip(w, d)) / sum(w)
            slopes.append(mean)
            curvatures.append(sum(wj * (dj - mean) ** 2
                                  for wj, dj in zip(w, d)) / sum(w))
        _, slope, curvature = ev.moments(mu)
        assert slope == pytest.approx(math.fsum(slopes) / len(slopes),
                                      rel=1e-12)
        assert curvature == pytest.approx(
            math.fsum(curvatures) / len(curvatures), rel=1e-11)


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


def test_gmi_rejects_an_infinite_mu_bound():
    # an infinite bound used to pass the lo < hi < 0 check and never return,
    # so the call runs in a child process that a timeout can stop
    src = pathlib.Path(rtgmi.__file__).resolve().parent.parent
    code = ("import math\n"
            "from rtgmi.fading import Ar1Fading\n"
            "from rtgmi.gmi import gmi\n"
            "from rtgmi.psk import make_constellation, synthesize_block_at_rho\n"
            "c = make_constellation(2)\n"
            "blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 500, seed=1)\n"
            "try:\n"
            "    gmi(blk, c, mu_range=(-math.inf, -1e-4))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    result = subprocess.run([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=60,
                            check=True)
    assert "mu range must be finite" in result.stdout


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


ORACLE_MODELS = {"white": Ar1Fading(0.0), "ar1": Ar1Fading(0.9),
                 "clarke": ClarkeFading(0.05)}


@pytest.mark.parametrize("model", sorted(ORACLE_MODELS))
@pytest.mark.parametrize("rho", [0.0, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("order", [2, 4, 8])
def test_newton_search_agrees_with_golden_section(model, rho, order):
    """Newton's mu* and g* against the golden-section oracle.

    At rho = 0 every candidate distance is the same, lam'' = 0 and the rate
    is linear in mu: the maximum sits on the end of the range, at mu = -32
    or, clamped, at -1e-4 (both happen here).  Where g is so flat that
    rounding hides its differences, the oracle's comparisons stop resolving
    mu; then Newton's point must be the more stationary one.
    """
    c = make_constellation(order)
    blk = synthesize_block_at_rho(ORACLE_MODELS[model], rho, c, 3000,
                                  seed=order)
    ev = _LogMgfEvaluator(blk, c)
    mu_o, g_o = golden_section_gmi(ev)
    rep = gmi(blk, c, seed=1)
    g_n = rep.mu_star - ev.lambda_at(rep.mu_star)
    assert rep.gmi == max(g_n, 0.0)
    assert g_n >= g_o - 1e-12
    if abs(rep.mu_star - mu_o) > 2e-6:
        assert g_n == pytest.approx(g_o, rel=1e-15)
        assert abs(1.0 - ev.moments(rep.mu_star)[1]) \
            < abs(1.0 - ev.moments(mu_o)[1])


def test_gmi_passes_over_a_long_block(monkeypatch):
    """The 33 curve points and mu = -1 in one sweep of the table, a few
    moment passes, and one per-sample pass for each bootstrap."""
    calls = {"lambdas": [], "per_sample": 0, "moments": 0}
    sweep = _LogMgfEvaluator.lambdas

    def counted_sweep(self, mus):
        calls["lambdas"].append(len(mus))
        return sweep(self, mus)

    monkeypatch.setattr(_LogMgfEvaluator, "lambdas", counted_sweep)
    for name in ("per_sample", "moments"):
        inner = getattr(_LogMgfEvaluator, name)

        def counted(self, mu, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(self, mu)

        monkeypatch.setattr(_LogMgfEvaluator, name, counted)
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.99), 1.0, c, 100_000, seed=5)
    gmi(blk, c, seed=6)
    assert calls["lambdas"] == [33 + 1]
    assert calls["per_sample"] <= 2
    assert calls["moments"] <= 8


def test_gmi_memory_is_the_table_and_one_vector():
    """gmi holds the (J - 1, n) table, dmin and one per-sample vector at a
    time: its peak stays below the table plus two n-vectors."""
    c = make_constellation(4)
    n = 200_000
    blk = synthesize_block_at_rho(Ar1Fading(0.99), 1.0, c, n, seed=5)
    tracemalloc.start()
    try:
        gmi(blk, c, seed=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = (c.order - 1) * n * 8 + n * 8
    assert peak < table + 2 * n * 8
