import itertools
import math

import numpy as np
import pytest

from rtgmi.decoder import decode, metric, pairwise_undercut_probability
from rtgmi.fading import Ar1Fading
from rtgmi.psk import (Codebook, generate_codebook, make_constellation,
                       synthesize_block_at_rho)
from rtgmi.utils import complex_normal


def brute_force_metric(constellation, codeword, block):
    """Reference implementation: explicit per-sample loop, fsum accumulation."""
    terms = []
    root = math.sqrt(block.rho)
    for k in range(block.block_length):
        ref = root * block.h_hat[k] * constellation.points[codeword[k]]
        terms.append(abs(block.x[k] - ref) ** 2)
    return math.fsum(terms) / len(terms)


def test_metric_matches_brute_force():
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.7, c, 500, seed=3)
    rng = np.random.default_rng(8)
    for _ in range(5):
        cw = rng.integers(0, 4, size=500)
        assert metric(c, cw, blk) == pytest.approx(
            brute_force_metric(c, cw, blk), rel=1e-12)


def test_metric_permutation_invariance_exact():
    from rtgmi.psk import PscBlock
    c = make_constellation(8)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 2.0, c, 4096, seed=9)
    cw = np.random.default_rng(1).integers(0, 8, size=4096)
    base = metric(c, cw, blk)
    for perm_seed in range(3):
        perm = np.random.default_rng(perm_seed).permutation(4096)
        shuffled = PscBlock(x=blk.x[perm], h_hat=blk.h_hat[perm],
                            s=blk.s[perm], rho=blk.rho,
                            residual_noise=blk.residual_noise[perm])
        assert metric(c, cw[perm], shuffled) == base   # equality, not approx


def test_metric_length_contract():
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 10, seed=1)
    with pytest.raises(ValueError):
        metric(c, np.zeros(9, dtype=int), blk)


def test_decode_agrees_with_per_candidate_metric():
    c = make_constellation(4)
    book = generate_codebook(c, 200, 64, seed=5)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 3.0, c, 64, seed=6)
    sent = 137
    blk.x = np.sqrt(blk.rho) * blk.h_hat * c.points[book.symbols[sent]] \
        + blk.residual_noise
    out = decode(book, blk, sent_message=sent)
    direct = np.array([metric(c, book.symbols[m], blk) for m in range(200)])
    assert np.allclose(out.metrics, direct, atol=1e-10)
    assert out.chosen_message == int(np.argmin(direct))
    assert out.chosen_metric == pytest.approx(direct.min(), abs=1e-12)
    runner = np.partition(direct, 1)[1]
    assert out.runner_up_metric == pytest.approx(runner, abs=1e-10)
    assert out.correct == (out.chosen_message == sent)


@pytest.mark.parametrize("order", [2, 4, 8])
def test_decode_metrics_equal_the_row_gather_formula(order):
    # 2 * 1024 + 3 candidates cross two chunk boundaries; the oracle gathers
    # corr[k, symbol] by (row, column) pairs over the whole codebook at once
    c = make_constellation(order)
    size, n = 2 * 1024 + 3, 96
    book = generate_codebook(c, size, n, seed=order)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 0.8, c, n, seed=order + 1)
    blk.x = np.sqrt(blk.rho) * blk.h_hat * c.points[book.symbols[1500]] \
        + blk.residual_noise
    out = decode(book, blk, sent_message=1500)

    base = np.mean(np.abs(blk.x) ** 2) + blk.rho * np.mean(np.abs(blk.h_hat) ** 2)
    corr = np.real((np.sqrt(blk.rho) * np.conj(blk.x) * blk.h_hat)[:, None]
                   * c.points[None, :])
    scores = corr[np.arange(n)[None, :], book.symbols].mean(axis=1)
    expected = np.maximum(base - 2.0 * scores, 0.0)
    assert np.array_equal(out.metrics, expected)
    assert out.chosen_message == int(np.argmin(expected))
    assert out.chosen_metric == expected.min()
    assert out.runner_up_metric == np.sort(expected)[1]


def test_decode_tie_breaks_to_lowest_index():
    c = make_constellation(4)
    rng = np.random.default_rng(2)
    symbols = rng.integers(0, 4, size=(8, 16))
    symbols[5] = symbols[1]          # exact duplicate rows tie exactly
    book = Codebook(constellation=c, symbols=symbols, seed=0)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 5.0, c, 16, seed=3)
    blk.x = np.sqrt(blk.rho) * blk.h_hat * c.points[symbols[1]] \
        + 0.01 * blk.residual_noise
    out = decode(book, blk, sent_message=1)
    assert out.chosen_message == 1
    assert out.correct is True


def test_decode_without_sent_message():
    c = make_constellation(2)
    book = generate_codebook(c, 4, 8, seed=1)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 8, seed=2)
    out = decode(book, blk)
    assert out.correct is None
    assert 0 <= out.chosen_message < 4


@pytest.mark.parametrize("size", [1, (1 << 16) + 8])
def test_decode_reports_every_metric_and_the_runner_up(size):
    # 2^16 + 8 rows, past the cap simulate puts on codebooks; a single
    # codeword has no runner-up
    c = make_constellation(2)
    book = generate_codebook(c, size, 4, seed=7)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 4, seed=8)
    out = decode(book, blk)
    assert out.metrics.shape == (size,)
    assert out.chosen_message == int(np.argmin(out.metrics))
    assert out.metrics[out.chosen_message] == out.chosen_metric
    expected = np.sort(out.metrics)[1] if size > 1 else math.inf
    assert out.runner_up_metric == expected


def test_decode_block_length_mismatch():
    c = make_constellation(2)
    book = generate_codebook(c, 4, 8, seed=1)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 9, seed=2)
    with pytest.raises(ValueError):
        decode(book, blk)


def test_undercut_probability_at_zero_snr_is_exactly_half():
    c = make_constellation(4)
    est = pairwise_undercut_probability(c, 0.0, 32, 5000, seed=11)
    assert est.probability == 0.5
    assert est.n_trials == 5000
    assert est.ci_halfwidth > 0.0


def test_undercut_probability_decreases_with_snr():
    c = make_constellation(2)
    p_weak = pairwise_undercut_probability(c, 0.05, 64, 40_000, seed=5).probability
    p_strong = pairwise_undercut_probability(c, 0.8, 64, 40_000, seed=5).probability
    assert p_strong < p_weak


def test_undercut_probability_contracts():
    c = make_constellation(2)
    with pytest.raises(ValueError):
        pairwise_undercut_probability(c, -1.0, 10, 10, seed=0)
    with pytest.raises(ValueError):
        pairwise_undercut_probability(c, 1.0, 0, 10, seed=0)
    with pytest.raises(ValueError):
        pairwise_undercut_probability(c, 1.0, 10, 0, seed=0)


def test_undercut_determinism():
    c = make_constellation(2)
    a = pairwise_undercut_probability(c, 0.3, 40, 20_000, seed=9)
    b = pairwise_undercut_probability(c, 0.3, 40, 20_000, seed=9)
    assert a.probability == b.probability


def _undercut_setup(constellation, rho, block_length, seed):
    """The channel realization the estimator draws from its seed, in order."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, constellation.order, size=block_length)
    h_hat = complex_normal(rng, block_length)
    residual = complex_normal(rng, block_length)
    x = math.sqrt(rho) * h_hat * constellation.points[s] + residual
    corr = np.real((math.sqrt(rho) * np.conj(x) * h_hat)[:, None]
                   * constellation.points[None, :])
    return corr, s


def exhaustive_undercut(constellation, rho, block_length, seed):
    """Reference: score every one of the J^K wrong codewords."""
    corr, s = _undercut_setup(constellation, rho, block_length, seed)
    rows = np.arange(block_length)
    every = np.array(list(itertools.product(range(constellation.order),
                                            repeat=block_length)))
    scores = corr[rows[None, :], every].mean(axis=1)
    sent = corr[rows, s][None, :].mean(axis=1)[0]
    hits = np.count_nonzero(scores > sent) + 0.5 * np.count_nonzero(scores == sent)
    return hits / len(every)


@pytest.mark.parametrize("order, block_length, rho, seed", [
    (2, 16, 1.0, 0), (2, 16, 1.0, 1), (2, 16, 0.1, 2), (2, 16, 3.0, 3),
    (4, 8, 1.0, 0), (4, 8, 1.0, 1), (4, 8, 0.1, 2), (4, 8, 4.0, 3),
])
def test_undercut_probability_matches_exhaustive_enumeration(order, block_length,
                                                             rho, seed):
    c = make_constellation(order)
    exact = exhaustive_undercut(c, rho, block_length, seed)
    est = pairwise_undercut_probability(c, rho, block_length, 20_000, seed)
    assert abs(est.probability - exact) <= est.ci_halfwidth, (est, exact)
    assert est.ci_halfwidth < 0.1 * exact        # tilting keeps it tight


def test_undercut_probability_agrees_with_plain_sampling():
    """Where hits are plentiful, uniform wrong codewords measure the same P."""
    c = make_constellation(2)
    rho, block_length, n = 0.1, 40, 400_000
    corr, s = _undercut_setup(c, rho, block_length, seed=9)
    rows = np.arange(block_length)
    sent = corr[rows, s][None, :].mean(axis=1)[0]
    rng = np.random.default_rng(12)
    cand = rng.integers(0, c.order, size=(n, block_length))
    scores = corr[rows[None, :], cand].mean(axis=1)
    plain = (np.count_nonzero(scores > sent)
             + 0.5 * np.count_nonzero(scores == sent)) / n
    assert plain * n > 1000                       # plenty of hits
    est = pairwise_undercut_probability(c, rho, block_length, 20_000, seed=9)
    plain_ci = 1.96 * math.sqrt(plain * (1.0 - plain) / n)
    assert abs(est.probability - plain) <= est.ci_halfwidth + plain_ci
