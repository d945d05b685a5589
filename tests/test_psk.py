import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from rtgmi.decoder import decode
from rtgmi.fading import (CHOLESKY_MAX_N, Ar1Fading, ClarkeFading,
                          TabulatedFading, generate_path)
from rtgmi.prediction import (PredictorSpec, effective_snr,
                              predictor_coefficients)
from rtgmi.psk import (PscBlock, PskConstellation, generate_codebook,
                       make_constellation, packing, synthesize_block_at_rho,
                       synthesize_psc_block)
from rtgmi.utils import block_step, complex_normal
from test_decoder import assert_outcome_of, row_gather_metrics


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
    # a row drawn alone equals that row of the whole book; odd K makes rows
    # start in the middle of a 64-bit output
    c = PskConstellation(order=order, points=np.empty(0))
    for size, length, seed in [(1, 1, 3), (5, 1, 4), (6, 16, (1 << 64) - 1),
                               (2051, 17, 11), (41, 800, 5)]:
        book = generate_codebook(c, size, length, seed)
        symbols = book.symbols
        for row in sorted({0, min(1, size - 1), size // 2, size - 1}):
            assert np.array_equal(book.row(row), symbols[row]), \
                (size, length, row)


@pytest.mark.parametrize("order", ORDERS)
def test_decode_seeded_equals_decode_of_the_oracle_codebook(order):
    # decoding a seeded book gives the explicit-loop table's metrics over
    # the oracle's rows; two blocks and three rows of ceil(17 / p) bytes
    c = make_constellation(order)
    length = 17
    size = 2 * block_step(-(-length // packing(order)[0])) + 3
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 0.8, c, length, seed=order)
    got = decode(generate_codebook(c, size, length, order + 40), blk,
                 sent_message=size - 1)
    want = row_gather_metrics(
        c, blk, oracle_codebook(order, size, length, order + 40))
    assert_outcome_of(got, want, size - 1)


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


def test_every_read_starts_from_the_seed():
    # a book holds one generator; row, symbols and decode each rewind it
    for order in (3, 4):      # a rejecting draw, and a jumping one
        c = make_constellation(order)
        blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 7, seed=2)

        def fresh():
            return generate_codebook(c, 50, 7, seed=9)

        want = (fresh().row(33), fresh().symbols, decode(fresh(), blk).metrics)
        book = fresh()
        for _ in range(2):      # the second pass reads after every other read
            got = (book.row(33), book.symbols, decode(book, blk).metrics)
            for name, a, b in zip(("row", "symbols", "decode"), got, want):
                assert np.array_equal(a, b), (order, name)


def test_codebook_row_contract():
    c = make_constellation(4)
    with pytest.raises(ValueError):
        generate_codebook(c, 1, 0, seed=1)
    book = generate_codebook(c, 5, 8, seed=1)
    for row in (5, -1):
        with pytest.raises(ValueError):
            book.row(row)


def test_codebooks_refuse_orders_past_256():
    # a byte must carry at least one symbol
    with pytest.raises(ValueError):
        generate_codebook(make_constellation(257), 2, 2, seed=3)


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


def test_synthesis_rho_is_set_at_the_operating_snr():
    # noiseless observations, sent at snr 1: rho and the residual scale both
    # come from snr, so x is the physical channel output from the same draws
    c = make_constellation(4)
    model = Ar1Fading(0.9)
    spec = PredictorSpec(order=4, observation_snr=math.inf,
                         lag_pattern=(1, 2, 3, 4))
    pred = predictor_coefficients(model, spec)
    snr = 1.0
    codeword = np.random.default_rng(40).integers(0, 4, size=2000)
    fading = generate_path(model, len(codeword) + 4, seed=41)
    blk = synthesize_psc_block(c, codeword, fading, pred, snr=snr, seed=42)
    s2 = pred.error_variance
    assert blk.rho == effective_snr(s2, snr)
    assert blk.rho < pred.effective_snr   # rho at the observation SNR
    # with gamma = inf the thermal noise is the seed's first draw
    thermal = complex_normal(np.random.default_rng(42), len(codeword))
    x_phys = (math.sqrt(snr) * fading[4:] * c.points[codeword] + thermal) \
        / math.sqrt(1.0 + snr * s2)
    assert np.max(np.abs(blk.x - x_phys)) <= 1e-12


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
    # nan and inf used to give an all-nan x, with a RuntimeWarning
    for rho in (math.nan, math.inf):
        with pytest.raises(ValueError, match="rho must be finite"):
            synthesize_block_at_rho(Ar1Fading(0.9), rho, c, 10, seed=1)
    with pytest.raises(ValueError):
        synthesize_block_at_rho(Ar1Fading(0.9), 1.0, c, 0, seed=1)


@pytest.mark.parametrize("model, order, n", [
    (Ar1Fading(0.99), 3, 2 * block_step(2) + 1),    # a one-sample last block
    (Ar1Fading(0.9), 2, block_step(2) + 5000),
    (ClarkeFading(0.05), 4, 3000),                  # exact Clarke path
    (ClarkeFading(0.05), 8, CHOLESKY_MAX_N + 3),    # Clarke ray sum
    (TabulatedFading(lags=(0, 1, 2, 3, 4), values=(1.0, 0.75, 0.5, 0.25, 0.0)),
     4, 5001),
])
def test_block_at_rho_x_has_the_bits_of_the_identity(model, order, n):
    """x, formed a cache block at a time, is the whole-vector expression
    bit for bit, a partial last block included.  numpy rounds an in-place
    complex product of one element unlike its vector loop, which the lone
    last sample of the first case shows for some of these seeds."""
    c = make_constellation(order)
    for seed in range(4):
        blk = synthesize_block_at_rho(model, 0.7, c, n, seed=seed)
        want = (np.sqrt(blk.rho) * blk.h_hat * c.points[blk.s]
                + blk.residual_noise)
        assert np.array_equal(blk.x, want), seed


def test_block_at_rho_holds_its_four_vectors_only():
    """h_hat, the residual, s and x, 56 bytes per sample at QPSK, plus
    1 MiB of cache blocks (0.53 MB measured at n = 200 000); no full-length
    temporary."""
    n = 200_000
    tracemalloc.start()
    try:
        synthesize_block_at_rho(Ar1Fading(0.99), 1.0, make_constellation(4), n,
                                seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (16 + 16 + 8 + 16) * n + (1 << 20)


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
