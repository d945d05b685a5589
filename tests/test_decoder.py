import itertools
import math
import tracemalloc

import numpy as np
import pytest

from rtgmi.decoder import (_correlations, decode, metric,
                           pairwise_undercut_probability)
from rtgmi.fading import Ar1Fading
from rtgmi.psk import (generate_codebook, group_table, make_constellation,
                       packing, synthesize_block_at_rho)
from rtgmi.utils import block_step, complex_normal


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
    symbols = book.symbols
    sent = 137
    blk.x = np.sqrt(blk.rho) * blk.h_hat * c.points[symbols[sent]] \
        + blk.residual_noise
    out = decode(book, blk, sent_message=sent)
    direct = np.array([metric(c, symbols[m], blk) for m in range(200)])
    assert np.allclose(out.metrics, direct, atol=1e-10)
    assert out.chosen_message == int(np.argmin(direct))
    assert out.correct == (out.chosen_message == sent)


def _group_table(corr, order):
    """The (W, J^p) per-byte group table, by explicit loops: entry [g, v] is
    c_{p-1} + (... + (c_1 + c_0)), c_i = corr[g p + i, digit i of v], with
    0.0 past the last position."""
    p = max(q for q in range(1, 9) if order ** q <= 256)
    n = len(corr)
    groups = -(-n // p)
    table = np.empty((groups, order ** p))
    for g in range(groups):
        for v in range(order ** p):
            total = None
            for i in range(p):
                k = g * p + i
                term = corr[k, v // order ** i % order] if k < n else 0.0
                total = term if total is None else term + total
            table[g, v] = total
    return table, p


def row_gather_metrics(constellation, block, symbols):
    """Every candidate's metric by the row-gather formula: the sum of
    T[g, packed group value] over a row's W groups, gathered over the whole
    (size, K) symbol matrix at once, with the explicit-loop group table."""
    order = constellation.order
    size, n = symbols.shape
    base = np.mean(np.abs(block.x) ** 2) \
        + block.rho * np.mean(np.abs(block.h_hat) ** 2)
    corr = np.real((np.sqrt(block.rho) * np.conj(block.x) * block.h_hat)
                   [:, None] * constellation.points[None, :])
    table, p = _group_table(corr, order)
    digits = np.zeros((size, len(table) * p), dtype=np.int64)
    digits[:, :n] = symbols
    values = (digits.reshape(size, len(table), p)
              * order ** np.arange(p)).sum(axis=2)
    scores = table[np.arange(len(table))[None, :], values].sum(axis=1) / n
    return np.maximum(base - 2.0 * scores, 0.0)


def assert_outcome_of(out, expected, sent):
    """`out` is the decode outcome of the candidate metrics `expected`."""
    assert np.array_equal(out.metrics, expected)
    assert out.chosen_message == int(np.argmin(expected))
    assert out.correct is (None if sent is None
                           else out.chosen_message == sent)


@pytest.mark.parametrize("order", [2, 4, 8])
def test_decode_metrics_equal_the_row_gather_formula(order):
    # K = 97 leaves the last group short, 2 * 1024 + 3 candidates cross block
    # boundaries for J = 4 and 8, and the sent row is an inner one
    c = make_constellation(order)
    size, n = 2 * 1024 + 3, 97
    book = generate_codebook(c, size, n, seed=order)
    symbols = book.symbols
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 0.8, c, n, seed=order + 1)
    blk.x = np.sqrt(blk.rho) * blk.h_hat * c.points[symbols[1500]] \
        + blk.residual_noise
    assert_outcome_of(decode(book, blk, sent_message=1500),
                      row_gather_metrics(c, blk, symbols), 1500)


@pytest.mark.parametrize("order", [2, 3, 4, 8])
def test_decode_seeded_equals_decode_of_the_stored_codebook(order):
    # decoding the seeded book equals the formula over its stored (size, K)
    # symbol matrix at sizes of one row, one block, one block and a row, and
    # two blocks and three rows; a block holds utils.BLOCK_ELEMENTS bytes of
    # whole rows of ceil(n / p) bytes; the sent row is the last one
    c = make_constellation(order)
    n = 96
    step = block_step(-(-n // packing(order)[0]))
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 0.8, c, n, seed=order)
    for size in (1, step, step + 1, 2 * step + 3):
        book = generate_codebook(c, size, n, seed=order + 10)
        symbols = book.symbols
        blk.x = np.sqrt(blk.rho) * blk.h_hat * c.points[symbols[-1]] \
            + blk.residual_noise
        expected = row_gather_metrics(c, blk, symbols)
        for sent in (None, size - 1):
            assert_outcome_of(decode(book, blk, sent_message=sent), expected,
                              sent)


def fresh_array_metrics(codebook, block):
    """Every candidate's metric by decode's formula on fresh arrays: the
    block's byte table gathered at the book's bytes plus the group offsets,
    summed per row, then max(base - 2 * (sum / K), 0).  decode runs the
    same arithmetic in place, in the buffers it reuses."""
    base = float(np.mean(np.abs(block.x) ** 2)) \
        + block.rho * float(np.mean(np.abs(block.h_hat) ** 2))
    table = group_table(_correlations(codebook.constellation, block.rho,
                                      block.x, block.h_hat))
    rows = np.empty((codebook.size, codebook.groups), dtype=np.uint8)
    codebook.stream().fill(rows.reshape(-1))
    picked = np.take(table, rows + np.arange(codebook.groups) * 256)
    return np.maximum(
        base - 2.0 * (picked.sum(axis=-1) / block.block_length), 0.0)


@pytest.mark.parametrize("order", [2, 3, 4, 8])
def test_decode_metrics_equal_the_fresh_array_formula(order):
    # bit for bit, at an odd K, for books of one row to several blocks
    # decoded in an order whose sizes change from call to call, with a book
    # of another row width decoded in between
    c = make_constellation(order)
    n = 97
    step = block_step(-(-n // packing(order)[0]))
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 0.8, c, n, seed=order)
    other = synthesize_block_at_rho(Ar1Fading(0.0), 0.8, c, 31, seed=order)
    for size in (3 * step + 5, 1, step, 2, step + 1, 3 * step + 5):
        book = generate_codebook(c, size, n, seed=order + size)
        assert np.array_equal(decode(book, blk).metrics,
                              fresh_array_metrics(book, blk)), size
        decode(generate_codebook(c, 40, 31, seed=1), other)


@pytest.mark.parametrize("n", [17, 240])
def test_a_repeated_decode_allocates_no_per_block_buffers(n):
    # after a first decode at a row width, a decode of any size holds its
    # metrics, the block's byte table and its build, and small arrays,
    # within twice the metrics, three tables and 128 KiB; the table indices
    # or the gathered entries of one block alone take 256 KiB, a buffered
    # np.take as much again
    c = make_constellation(4)
    groups = -(-n // packing(4)[0])
    step = block_step(groups)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 0.8, c, n, seed=3)
    decode(generate_codebook(c, 4 * step, n, seed=1), blk)
    table = groups * 256 * 8
    for size in (step + 1, 700, 2):
        book = generate_codebook(c, size, n, seed=size)
        tracemalloc.start()
        try:
            decode(book, blk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * size + 3 * table + (128 << 10), (size, peak)


def test_decode_seeded_ties_go_to_the_lowest_index():
    # a one-symbol binary book has two distinct rows, so most rows tie
    c = make_constellation(2)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 1, seed=4)
    book = generate_codebook(c, 40, 1, seed=6)
    symbols = book.symbols
    got = decode(book, blk, sent_message=39)
    assert_outcome_of(got, row_gather_metrics(c, blk, symbols), 39)
    best = symbols[got.chosen_message, 0]
    assert got.chosen_message == int(np.flatnonzero(symbols[:, 0] == best)[0])
    # rows that tie with the chosen one, all at higher indices
    ties = np.flatnonzero(got.metrics == got.metrics[got.chosen_message])
    assert ties[0] == got.chosen_message and len(ties) > 1


def test_decode_without_sent_message():
    c = make_constellation(2)
    book = generate_codebook(c, 4, 8, seed=1)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 8, seed=2)
    out = decode(book, blk)
    assert out.correct is None
    assert 0 <= out.chosen_message < 4


@pytest.mark.parametrize("size", [1, (1 << 16) + 8])
def test_decode_reports_every_metric_and_their_argmin(size):
    # 2^16 + 8 rows, past the cap simulate puts on codebooks, and one row
    c = make_constellation(2)
    book = generate_codebook(c, size, 4, seed=7)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 4, seed=8)
    out = decode(book, blk)
    assert out.metrics.shape == (size,)
    assert out.chosen_message == int(np.argmin(out.metrics))


@pytest.mark.parametrize("sent", [5, -1, 99])
def test_decode_refuses_a_sent_message_outside_the_book(sent):
    # it used to report correct=False for a message no row could match
    c = make_constellation(2)
    book = generate_codebook(c, 5, 8, seed=1)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 8, seed=2)
    with pytest.raises(ValueError, match=f"sent message {sent} is not a row"):
        decode(book, blk, sent_message=sent)
    assert decode(book, blk, sent_message=4).correct is not None


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
