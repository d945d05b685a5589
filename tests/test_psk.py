import math

import numpy as np
import pytest
from scipy import stats

from rtgmi.decoder import decode, decode_seeded
from rtgmi.fading import Ar1Fading, generate_path
from rtgmi.prediction import PredictorSpec, predictor_coefficients
from rtgmi.psk import (Codebook, PscBlock, PskConstellation, codebook_row,
                       generate_codebook, make_constellation, packing,
                       synthesize_block_at_rho, synthesize_psc_block)
from rtgmi.utils import block_step


def test_constellation_geometry():
    c = make_constellation(4)
    assert np.allclose(c.points, [1, 1j, -1, -1j], atol=1e-15)
    assert c.bits_per_symbol == 2.0
    c8 = make_constellation(8)
    assert np.allclose(np.abs(c8.points), 1.0, atol=1e-15)
    # points are distinct roots of unity
    assert len(np.unique(np.round(c8.points, 12))) == 8


def test_constellation_contract():
    with pytest.raises(ValueError):
        make_constellation(0)
    assert make_constellation(1).order == 1


def test_codebook_shape_determinism_and_range():
    c = make_constellation(4)
    a = generate_codebook(c, 10, 7, seed=2)
    b = generate_codebook(c, 10, 7, seed=2)
    assert a.symbols.shape == (10, 7)
    assert np.array_equal(a.symbols, b.symbols)
    assert a.symbols.min() >= 0 and a.symbols.max() < 4
    assert a.size == 10 and a.block_length == 7
    with pytest.raises(ValueError):
        generate_codebook(c, 0, 7, seed=2)


# 129 and 255 reject almost half and one in 256 of the bytes, 256 takes
# each byte whole as one symbol
ORDERS = [*range(1, 18), 129, 255, 256]


def _raw_bytes(seed):
    """The bytes of PCG64(seed).random_raw(), low byte first, by integer
    arithmetic on the 64-bit words."""
    bitgen = np.random.PCG64(seed)
    while True:
        for word in bitgen.random_raw(64).tolist():
            for shift in range(0, 64, 8):
                yield (word >> shift) & 0xFF


def oracle_codebook(order, size, length, seed):
    """The codebook stream, expanded in plain Python: of the raw bytes, those
    below 256 - (256 mod J^p) are kept; byte r W + g of them carries the
    base-J digits of b mod J^p, least significant first, as positions
    g p .. g p + p - 1 of row r (W = ceil(length / p)); digits past the row's
    length are dropped."""
    p = max(q for q in range(1, 9) if order ** q <= 256)
    group = order ** p
    limit = 256 - 256 % group
    width = -(-length // p)
    accepted = (b for b in _raw_bytes(seed) if b < limit)
    rows = []
    for _ in range(size):
        row = []
        for _ in range(width):
            v = next(accepted) % group
            row.extend(v // order ** i % order for i in range(p))
        rows.append(row[:length])
    return np.array(rows, dtype=np.int64)


# odd lengths start rows in the middle of a 64-bit word
BOOKS = [(1, 1, 1 << 63), (3, 5, (1 << 63) + 7), (2051, 17, (1 << 64) - 1),
         (41, 801, 5)]


@pytest.mark.parametrize("order", ORDERS)
def test_codebook_equals_generator_integers(order):
    """The codebook is the byte oracle's, bit for bit, and its bytes are those
    of Generator.integers' full-range 32-bit draws, low byte first.

    Only the order enters the draw, so the constellation carries no points.
    """
    c = PskConstellation(order=order, points=np.empty(0))
    for size, length, seed in BOOKS:
        book = generate_codebook(c, size, length, seed)
        assert book.symbols.dtype == np.int64
        assert np.array_equal(book.symbols,
                              oracle_codebook(order, size, length, seed)), \
            (size, length, seed)
    words = np.random.default_rng(5).integers(0, 1 << 32, size=64,
                                              dtype=np.uint32).tolist()
    raw = _raw_bytes(5)
    assert [next(raw) for _ in range(256)] \
        == [w >> s & 0xFF for w in words for s in range(0, 32, 8)]


@pytest.mark.parametrize("order", ORDERS)
def test_codebook_row_equals_the_stored_row(order):
    # odd K makes rows start in the middle of a 64-bit output
    c = PskConstellation(order=order, points=np.empty(0))
    for size, length, seed in [(1, 1, 3), (5, 1, 4), (6, 16, (1 << 64) - 1),
                               (2051, 17, 11), (41, 800, 5)]:
        book = generate_codebook(c, size, length, seed)
        for row in sorted({0, min(1, size - 1), size // 2, size - 1}):
            assert np.array_equal(codebook_row(c, length, seed, row),
                                  book.symbols[row]), (size, length, row)


@pytest.mark.parametrize("order", ORDERS)
def test_decode_seeded_equals_decode_of_the_oracle_codebook(order):
    # two blocks and three rows of ceil(17 / p) bytes each
    c = make_constellation(order)
    length = 17
    size = 2 * block_step(-(-length // packing(order)[0])) + 3
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 0.8, c, length, seed=order)
    book = Codebook(c, oracle_codebook(order, size, length, order + 40))
    got = decode_seeded(c, size, order + 40, blk, sent_message=size - 1)
    want = decode(book, blk, sent_message=size - 1)
    assert np.array_equal(got.metrics, want.metrics)
    assert (got.chosen_message, got.correct, got.chosen_metric,
            got.runner_up_metric) == (want.chosen_message, want.correct,
                                      want.chosen_metric,
                                      want.runner_up_metric)


@pytest.mark.parametrize("order", [2, 3, 5, 7, 16, 129, 255])
def test_codebook_symbols_are_uniform_at_every_position(order):
    # 11 positions cover every digit of a byte for each p; the threshold is
    # a 1e-4 tail over the 11 positions
    c = PskConstellation(order=order, points=np.empty(0))
    size = 100 * order
    symbols = generate_codebook(c, size, 11, seed=order + 2026).symbols
    for k in range(11):
        counts = np.bincount(symbols[:, k], minlength=order)
        stat = float(((counts - 100.0) ** 2).sum() / 100.0)
        assert stats.chi2.sf(stat, order - 1) > 1e-4 / 11, (k, stat)


def test_a_generator_seed_is_drawn_from_its_current_state():
    # simulate seeds each codebook's PCG64 once and rewinds it between reads
    c = make_constellation(3)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 7, seed=2)
    bitgen = np.random.PCG64(9)
    start = bitgen.state
    assert np.array_equal(generate_codebook(c, 6, 7, bitgen).symbols,
                          generate_codebook(c, 6, 7, 9).symbols)
    bitgen.state = start
    assert np.array_equal(codebook_row(c, 7, bitgen, 5),
                          codebook_row(c, 7, 9, 5))
    bitgen.state = start
    assert np.array_equal(decode_seeded(c, 6, bitgen, blk).metrics,
                          decode_seeded(c, 6, 9, blk).metrics)


def test_codebook_row_contract():
    c = make_constellation(4)
    with pytest.raises(ValueError):
        codebook_row(c, 0, seed=1, row=0)
    with pytest.raises(ValueError):
        codebook_row(c, 8, seed=1, row=-1)


def test_codebooks_refuse_orders_past_256():
    # a byte must carry at least one symbol
    c = make_constellation(257)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 2, seed=1)
    with pytest.raises(ValueError):
        generate_codebook(c, 2, 2, seed=3)
    with pytest.raises(ValueError):
        codebook_row(c, 2, seed=3, row=1)
    with pytest.raises(ValueError):
        decode_seeded(c, 2, 3, blk)
    with pytest.raises(ValueError):
        decode(Codebook(c, np.zeros((2, 2), dtype=np.int64)), blk)


def test_synthesis_identity_exact():
    c = make_constellation(4)
    model = Ar1Fading(0.95)
    spec = PredictorSpec(order=4, observation_snr=2.0,
                         lag_pattern=(1, 2, 3, 4))
    pred = predictor_coefficients(model, spec)
    codeword = np.array([0, 1, 2, 3, 2, 1, 0, 3] * 8)
    fading = generate_path(model, len(codeword) + 4, seed=5)
    blk = synthesize_psc_block(c, codeword, fading, pred, snr=2.0, seed=9)
    lhs = blk.x
    rhs = np.sqrt(blk.rho) * blk.h_hat * c.points[blk.s] + blk.residual_noise
    assert np.array_equal(lhs, rhs)        # identity holds bit-exactly
    assert blk.rho == pred.effective_snr
    assert blk.block_length == len(codeword)


def test_synthesis_noiseless_observations_reproduce_predictor():
    # with infinite observation SNR the reference is a deterministic function
    # of the fading path, so the test can recompute it independently
    c = make_constellation(2)
    model = Ar1Fading(0.9)
    spec = PredictorSpec(order=2, observation_snr=math.inf, lag_pattern=(1, 3))
    pred = predictor_coefficients(model, spec)
    codeword = np.zeros(50, dtype=int)
    fading = generate_path(model, 53, seed=31)
    blk = synthesize_psc_block(c, codeword, fading, pred, snr=1.0, seed=8)
    t = np.arange(3, 53)
    raw = np.conj(pred.coefficients[0]) * fading[t - 1] \
        + np.conj(pred.coefficients[1]) * fading[t - 3]
    want = raw / math.sqrt(1.0 - pred.error_variance)
    assert np.allclose(blk.h_hat, want, atol=1e-14)


def test_synthesis_contracts():
    c = make_constellation(4)
    model = Ar1Fading(0.9)
    spec = PredictorSpec(order=1, observation_snr=1.0, lag_pattern=(2,))
    pred = predictor_coefficients(model, spec)
    fading = generate_path(model, 12, seed=1)
    with pytest.raises(ValueError):
        synthesize_psc_block(c, np.zeros(12, dtype=int), fading, pred,
                             snr=1.0, seed=0)    # needs 12 + 2 samples
    with pytest.raises(ValueError):
        synthesize_psc_block(c, np.array([0, 4]), fading[:4], pred,
                             snr=1.0, seed=0)    # symbol index out of range
    with pytest.raises(ValueError):
        synthesize_psc_block(c, np.zeros(10, dtype=int), fading, pred,
                             snr=0.0, seed=0)


def test_synthesis_degenerate_predictor():
    # white fading cannot be predicted: rho = 0 and x is pure residual
    c = make_constellation(4)
    model = Ar1Fading(0.0)
    spec = PredictorSpec(order=2, observation_snr=1.0, lag_pattern=(1, 2))
    pred = predictor_coefficients(model, spec)
    assert pred.error_variance == pytest.approx(1.0)
    codeword = np.array([1, 2, 3, 0, 1])
    fading = generate_path(model, 7, seed=3)
    blk = synthesize_psc_block(c, codeword, fading, pred, snr=1.0, seed=4)
    assert blk.rho == 0.0
    assert np.array_equal(blk.x, blk.residual_noise)
    assert np.all(np.isfinite(blk.h_hat))


def test_block_at_rho_identity_and_determinism():
    c = make_constellation(8)
    a = synthesize_block_at_rho(Ar1Fading(0.9), 2.5, c, 1000, seed=12)
    b = synthesize_block_at_rho(Ar1Fading(0.9), 2.5, c, 1000, seed=12)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.s, b.s)
    rhs = np.sqrt(a.rho) * a.h_hat * c.points[a.s] + a.residual_noise
    assert np.array_equal(a.x, rhs)
    with pytest.raises(ValueError):
        synthesize_block_at_rho(Ar1Fading(0.9), -0.1, c, 10, seed=1)
    with pytest.raises(ValueError):
        synthesize_block_at_rho(Ar1Fading(0.9), 1.0, c, 0, seed=1)


def test_block_at_rho_unit_marginals():
    c = make_constellation(4)
    blk = synthesize_block_at_rho(Ar1Fading(0.99), 1.0, c, 200_000, seed=44)
    assert float(np.mean(np.abs(blk.h_hat) ** 2)) == pytest.approx(1.0, abs=0.05)
    assert float(np.mean(np.abs(blk.residual_noise) ** 2)) == pytest.approx(
        1.0, abs=0.05)
    counts = np.bincount(blk.s, minlength=4) / len(blk.s)
    assert np.allclose(counts, 0.25, atol=0.01)


def test_psc_block_length_property():
    blk = PscBlock(x=np.zeros(3, dtype=complex), h_hat=np.zeros(3, dtype=complex),
                   s=np.zeros(3, dtype=int), rho=1.0,
                   residual_noise=np.zeros(3, dtype=complex))
    assert blk.block_length == 3
