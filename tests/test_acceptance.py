"""End-to-end acceptance checks for the whole package.

Each numbered test prints exactly one line

    ACCEPTANCE <n> <label>: PASS | FAIL

(run pytest with -s to see the PASS lines).  Checks 5, 6, 7 and the
convergence-gap half of check 8 are implemented exactly as stated and are
expected to FAIL in this environment; the failure message carries the
measured evidence, and each failing check is paired with a scaled companion
that verifies the same physical effect in a regime where it is measurable.
"""

import math

import numpy as np
import pytest
from scipy.linalg import toeplitz

from rtgmi.capacity import psk_capacity_quadrature, rate_ladder
from rtgmi.decoder import metric, pairwise_undercut_probability
from rtgmi.errors import ConfigurationError
from rtgmi.fading import Ar1Fading
from rtgmi.gmi import gmi, lambda_hat
from rtgmi.prediction import (PredictorSpec, predictor_coefficients,
                              solve_hermitian_toeplitz)
from rtgmi.psk import (PscBlock, make_constellation, synthesize_block_at_rho,
                       synthesize_psc_block)
from rtgmi.simulate import SchemeConfig, budget_check, run
from rtgmi.utils import derive_seed

# deterministic reference values, frozen from the quadrature route (nats)
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

WHITE = Ar1Fading(0.0)


def report(n, label, ok):
    print(f"ACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_rate_matches_capacity():
    """g(-1) equals the coherent capacity for every (order, snr) pair."""
    failures = []
    for i, ((order, rho), ref) in enumerate(sorted(FROZEN_QUADRATURE.items())):
        const = make_constellation(order)
        block = synthesize_block_at_rho(WHITE, rho, const, 1_000_000,
                                        derive_seed(41, i))
        rep = gmi(block, const, seed=derive_seed(42, i))
        se = rep.g_at_minus_one_ci / 1.96  # reference is deterministic
        if abs(rep.g_at_minus_one - ref) > 3.0 * se:
            failures.append((order, rho, rep.g_at_minus_one, ref, se))
    report(1, "decoder rate matches capacity", not failures)
    assert not failures, failures


def test_criterion_2_memory_invariance():
    """GMI depends only on the per-symbol marginal, not on fading memory."""
    const = make_constellation(4)
    reps = []
    for i, alpha in enumerate((0.0, 0.9, 0.99, 0.999)):
        block = synthesize_block_at_rho(Ar1Fading(alpha), 1.0, const,
                                        1_000_000, derive_seed(51, i))
        reps.append(gmi(block, const, seed=derive_seed(52, i)))
    bad = []
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            gap = abs(reps[i].gmi - reps[j].gmi)
            slack = reps[i].ci_halfwidth + reps[j].ci_halfwidth
            if gap > slack:
                bad.append((i, j, gap, slack))
    report(2, "memory invariance of the rate", not bad)
    assert not bad, [(b, [r.gmi for r in reps]) for b in bad]


def test_criterion_3_exact_algebra():
    """The identities that must hold to machine precision, all in one place."""
    const = make_constellation(4)
    block = synthesize_block_at_rho(WHITE, 1.0, const, 10_000, seed=61)

    ok = lambda_hat(0.0, block, const) == 0.0

    grid = -np.logspace(-3, math.log10(8.0), 15)
    vals = [lambda_hat(m, block, const) for m in grid]
    for a, va, b, vb in zip(grid[:-2], vals[:-2], grid[2:], vals[2:]):
        mid = lambda_hat(0.5 * (a + b), block, const)
        ok = ok and mid <= 0.5 * (va + vb) + 1e-10

    # permutation invariance of the decoding metric, bit for bit
    code = block.s[:256]
    small = PscBlock(x=block.x[:256], h_hat=block.h_hat[:256], s=code,
                     rho=block.rho, residual_noise=block.residual_noise[:256])
    base = metric(const, code, small)
    perm = np.random.default_rng(62).permutation(256)
    shuffled = PscBlock(x=small.x[perm], h_hat=small.h_hat[perm],
                        s=code[perm], rho=small.rho,
                        residual_noise=small.residual_noise[perm])
    ok = ok and metric(const, code[perm], shuffled) == base

    # synthesis identity: x is exactly sqrt(rho) h_hat theta + residual
    recon = (np.sqrt(block.rho) * block.h_hat * const.points[block.s]
             + block.residual_noise)
    ok = ok and np.array_equal(block.x, recon)
    pred = predictor_coefficients(
        Ar1Fading(0.9), PredictorSpec(order=4, observation_snr=2.0,
                                      lag_pattern=(1, 2, 3, 4)))
    fading = np.random.default_rng(63).standard_normal(54) \
        + 1j * np.random.default_rng(64).standard_normal(54)
    blk2 = synthesize_psc_block(const, np.zeros(50, dtype=int), fading,
                                pred, 2.0, seed=65)
    recon2 = (np.sqrt(blk2.rho) * blk2.h_hat * const.points[blk2.s]
              + blk2.residual_noise)
    ok = ok and np.array_equal(blk2.x, recon2)

    # fast Toeplitz solve against the dense route
    for p in (1, 2, 4, 8, 16, 32):
        rng = np.random.default_rng(600 + p)
        omegas = rng.uniform(-math.pi, math.pi, size=6)
        weights = rng.uniform(0.2, 1.0, size=6)
        col = (weights[None, :]
               * np.exp(-1j * np.outer(np.arange(p), omegas))).sum(axis=1)
        col[0] = col[0].real + 0.05 * weights.sum()
        rhs = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        got = solve_hermitian_toeplitz(col, rhs)
        want = np.linalg.solve(toeplitz(col), rhs)
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        ok = ok and rel <= 1e-10

    report(3, "exact algebraic identities", ok)
    assert ok


def test_criterion_4_metric_concentration():
    """The true-codeword score concentrates at 1 with Gaussian-scale spread."""
    const = make_constellation(4)
    K = 100_000
    hits = 0
    for trial in range(100):
        block = synthesize_block_at_rho(WHITE, 1.0, const, K,
                                        derive_seed(71, trial))
        d1 = metric(const, block.s, block)
        sq = np.abs(block.residual_noise) ** 2
        bound = 5.0 * math.sqrt(float(sq.var(ddof=1)) / K)
        hits += abs(d1 - 1.0) <= bound
    report(4, "metric concentration", hits >= 95)
    assert hits >= 95, hits


def test_criterion_5_undercut_exponent():
    """Pairwise undercut decay at snr 1, measured by exponential tilting.

    Expected FAIL on the strictly-increasing clause.  Every probability in
    the sweep (about 3e-7 down to 4e-74) is measured with a CI well under 1%
    of its value, and -log P grows with K, but each block length conditions
    on its own single channel realization: -log P / K is that realization's
    Chernoff exponent pulled down toward the rate by the finite-K prefactor
    (the decay the companion test below measures), so it does not rise
    strictly from K = 100 on.  Whether "exponent growth" meant -log P or
    -log P / K is not settled; the clauses stay as stated.
    """
    const = make_constellation(2)
    ref = gmi(synthesize_block_at_rho(WHITE, 1.0, const, 1_000_000,
                                      derive_seed(81, 0)),
              const, seed=derive_seed(82, 0)).gmi
    hats = {}
    ests = {}
    for K in (50, 100, 200, 400):
        est = pairwise_undercut_probability(const, 1.0, K, 1_000_000,
                                            derive_seed(83, K))
        ests[K] = est
        hats[K] = -math.log(est.probability) / K if est.probability > 0 \
            else math.inf
    ks = sorted(hats)
    increasing = all(hats[a] < hats[b] for a, b in zip(ks, ks[1:]))
    final_ok = abs(hats[400] - ref) <= 0.25 * ref
    ok = increasing and final_ok
    report(5, "undercut exponent growth", ok)
    if not ok:
        failed = [clause for clause, held in (
            ("-log P / K strictly increasing in K", increasing),
            ("-log P / K at K = 400 within 25% of the reference", final_ok))
            if not held]
        # delta method: the exponent's half-width is ci / (P * K)
        measured = "; ".join(
            f"K = {k}: P = {ests[k].probability:.4e} +/- "
            f"{ests[k].ci_halfwidth:.1e}, -log P = {hats[k] * k:.2f}, "
            f"-log P / K = {hats[k]:.4f} +/- "
            f"{ests[k].ci_halfwidth / (ests[k].probability * k):.1e}"
            if ests[k].probability > 0 else f"K = {k}: P = 0"
            for k in ks)
        pytest.fail(
            f"failed clause(s): {failed}; reference rate {ref:.4f}; "
            f"measured (95% CI, 1e6 tilted trials each): {measured}; see "
            f"test_criterion_5_companion_undercut_decay for the decay of "
            f"-log P / K toward the rate as K grows")


def test_criterion_5_companion_undercut_decay():
    """Scaled companion: at snr 0.05 the probabilities are measurable.

    The per-block log-probability estimate sits above the rate estimate and
    decays toward it as the block grows, which is the finite-length
    prefactor at work; medians over independent channel realizations tame
    the realization-to-realization spread.
    """
    const = make_constellation(2)
    rho = 0.05
    gref = psk_capacity_quadrature(2, rho)
    master = 101
    trials = {25: 100_000, 50: 100_000, 100: 100_000, 150: 300_000}
    medians = {}
    for K in (25, 50, 100, 150):
        exps = []
        for r in range(13):
            est = pairwise_undercut_probability(
                const, rho, K, trials[K], derive_seed(master, 1000 * K + r))
            exps.append(-math.log(est.probability) / K
                        if est.probability > 0 else math.inf)
        medians[K] = float(np.median(exps))
    ok = (all(m >= gref for m in medians.values())
          and medians[25] > medians[100]
          and medians[25] > medians[150]
          and 1.1 * gref <= medians[150] <= 1.7 * gref)
    report(5, "companion: undercut decay toward the rate", ok)
    assert ok, (medians, gref)


def _criterion_6_config(rate_fraction, genie=False):
    return SchemeConfig(model=Ar1Fading(0.99), interleave_depth=8,
                        block_length=512, constellation_order=4, snr=1.0,
                        rate_fraction=rate_fraction, n_trials=2000,
                        master_seed=91, genie=genie, error_target=0.05)


def test_criterion_6_error_budget_contrast():
    """Stated end-to-end contrast run.

    Expected FAIL: the below-rate leg needs exp(0.5 * g * 512) codewords
    with g about 0.43 nats, i.e. ~e^110 candidates against the exhaustive
    decoder's 65536 cap, so the run refuses to start.  The companion runs
    the same contrast at a feasible block length.
    """
    try:
        below = run(_criterion_6_config(0.5))
        above = run(_criterion_6_config(1.5))
    except ConfigurationError as exc:
        report(6, "error budget contrast", False)
        pytest.fail(
            f"simulator rejected the stated operating point: {exc}; at "
            f"block length 512 the below-rate codebook alone needs ~e^110 "
            f"codewords, and no same-settings reduction fits: capping the "
            f"above-rate leg at 65536 codewords forces g*K <= 7.4 nats, "
            f"whose residual error floor (~e^-3.7 before prefactors) "
            f"already exceeds the 0.00625 per-subchannel budget; see "
            f"test_criterion_6_companion_budget_contrast")
    flags = budget_check(below, 0.05, 8)
    ok = all(flags[1:]) and all(above.per_psc_block_error[1:] > 0.2)
    report(6, "error budget contrast", ok)
    assert ok


def test_criterion_6_companion_budget_contrast():
    """Scaled companion: same contrast, feasible codebooks.

    Below the rate estimate (fraction 0.25) every data subchannel stays
    within a 0.18/3 budget; far above it (fraction 1.5) every data
    subchannel fails more than a fifth of the time.
    """
    below = run(SchemeConfig(model=Ar1Fading(0.99), interleave_depth=3,
                             block_length=400, constellation_order=4,
                             snr=0.12, rate_fraction=0.25, n_trials=400,
                             master_seed=2026, error_target=0.18))
    above = run(SchemeConfig(model=Ar1Fading(0.99), interleave_depth=3,
                             block_length=70, constellation_order=4,
                             snr=0.12, rate_fraction=1.5, n_trials=60,
                             master_seed=2026))
    flags = budget_check(below, 0.18, 3)
    ok = (all(flags[1:])
          and all(below.per_psc_block_error[1:] <= 0.06)
          and all(above.per_psc_block_error[1:] > 0.2))
    report(6, "companion: error budget contrast", ok)
    assert ok, (below.per_psc_block_error, above.per_psc_block_error)


def test_criterion_7_propagation():
    """Stated genie-vs-decision-directed comparison.

    Expected FAIL for the same reason as the contrast run: the stated
    operating point needs ~e^110 codewords and the simulator refuses.
    """
    try:
        dd = run(_criterion_6_config(0.5))
        genie = run(_criterion_6_config(0.5, genie=True))
    except ConfigurationError as exc:
        report(7, "error propagation bound", False)
        pytest.fail(
            f"simulator rejected the stated operating point: {exc}; the "
            f"genie comparison needs the same infeasible codebooks; see "
            f"test_criterion_7_companion_propagation")
    slack = dd.overall_ci + genie.overall_ci
    ok = genie.overall_error <= dd.overall_error + slack
    report(7, "error propagation bound", ok)
    assert ok


def test_criterion_7_companion_propagation():
    """Scaled companion: decision-directed feedback is measurably worse.

    The first data subchannel predicts from pilots only, so the two modes
    err identically there; downstream, wrong feedback symbols can only
    hurt, and the propagation tally shows it.
    """
    kw = dict(model=Ar1Fading(0.99), interleave_depth=3, block_length=240,
              constellation_order=4, snr=0.12, rate_fraction=0.5,
              n_trials=600, master_seed=2026)
    dd = run(SchemeConfig(**kw))
    genie = run(SchemeConfig(**kw, genie=True))
    diff = dd.overall_error - genie.overall_error
    ci = dd.overall_ci + genie.overall_ci
    print(f"  decision-directed minus genie overall error: "
          f"{diff:+.4f} +/- {ci:.4f} (95% CI)")
    ok = (dd.per_psc_block_error[1] == genie.per_psc_block_error[1]
          and all(genie.per_psc_block_error[l]
                  <= dd.per_psc_block_error[l]
                  + dd.per_psc_ci[l] + genie.per_psc_ci[l]
                  for l in range(3))
          and genie.overall_error <= dd.overall_error + ci
          and dd.propagation_events > genie.propagation_events)
    report(7, "companion: error propagation bound", ok)
    assert ok, (dd.per_psc_block_error, genie.per_psc_block_error,
                dd.propagation_events, genie.propagation_events)


def test_criterion_8_ladder_convergence():
    """Depth sweep of the subchannel-average rate.

    The average must be non-decreasing in depth (it is) and the half-depth
    convergence gap at depth 64 must be under 2% of the average.  Expected
    FAIL on the second clause: the gap is 2.81%, exactly, since every rung
    is a quadrature capacity, and predictor orders 8 and 32 give 2.5-2.9% as
    well, so the threshold is simply not reached at depth 64.
    """
    ladders = {L: rate_ladder(Ar1Fading(0.99), L, 1.0, 4)
               for L in (8, 16, 32, 64)}
    avgs = [ladders[L].l_average for L in (8, 16, 32, 64)]
    nondecreasing = all(b >= a for a, b in zip(avgs, avgs[1:]))
    gap = ladders[64].convergence_gap
    ratio = gap / ladders[64].l_average
    ok = nondecreasing and ratio < 0.02
    report(8, "ladder convergence", ok)
    assert nondecreasing, avgs
    if ratio >= 0.02:
        pytest.fail(
            f"half-depth convergence gap at depth 64 is {gap:.6f} = "
            f"{100 * ratio:.2f}% of the average {ladders[64].l_average:.6f}, "
            f"above the 2% threshold; the gap sequence over depths 8..64 is "
            f"{[round(100 * ladders[L].convergence_gap / ladders[L].l_average, 2) for L in (8, 16, 32, 64)]}"
            f" percent, converging steadily but not below 2% by depth 64; "
            f"see test_criterion_8_companion_ladder_trend")


def test_criterion_8_companion_ladder_trend():
    """Scaled companion: the depth trend itself, with frozen bands."""
    ladders = {L: rate_ladder(Ar1Fading(0.99), L, 1.0, 4)
               for L in (8, 16, 32, 64)}
    avgs = [ladders[L].l_average for L in (8, 16, 32, 64)]
    ratios = [ladders[L].convergence_gap / ladders[L].l_average
              for L in (8, 16, 32, 64)]
    ok = (all(b >= a for a, b in zip(avgs, avgs[1:]))
          and all(b < a for a, b in zip(ratios, ratios[1:]))
          and 0.023 <= ratios[-1] <= 0.031
          and 0.44 <= avgs[-1] <= 0.455)
    report(8, "companion: ladder depth trend", ok)
    assert ok, (avgs, ratios)
