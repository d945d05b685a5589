import math

import numpy as np
import pytest

from rtgmi.fading import Ar1Fading, generate_path
from rtgmi.prediction import PredictorSpec, predictor_coefficients
from rtgmi.psk import (PscBlock, PskConstellation, codebook_row,
                       generate_codebook, make_constellation,
                       synthesize_block_at_rho, synthesize_psc_block)


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


# 3 * 2^30 and 2^31 + 1 reject a quarter and almost half of the words, and
# 2^32 takes each word whole
ORDERS = [*range(1, 18), 3 << 30, (1 << 31) + 1, 1 << 32]


@pytest.mark.parametrize("order", ORDERS)
def test_codebook_equals_generator_integers(order):
    """The raw-word draw is numpy's own bounded-integer draw, bit for bit.

    Only the order enters the draw, so the large orders, whose points no
    array could hold, stand in with none.
    """
    c = PskConstellation(order=order, points=np.empty(0))
    for size, length, seed in [(1, 1, 1 << 63), (3, 5, (1 << 63) + 7),
                               (2051, 17, (1 << 64) - 1), (41, 801, 5)]:
        book = generate_codebook(c, size, length, seed)
        want = np.random.default_rng(seed).integers(0, order,
                                                     size=(size, length))
        assert book.symbols.dtype == want.dtype
        assert np.array_equal(book.symbols, want), (size, length, seed)


@pytest.mark.parametrize("order", ORDERS)
def test_codebook_row_equals_the_stored_row(order):
    # odd K makes every other row start in the high half of a 64-bit output
    c = PskConstellation(order=order, points=np.empty(0))
    for size, length, seed in [(1, 1, 3), (5, 1, 4), (6, 16, (1 << 64) - 1),
                               (2051, 17, 11), (41, 800, 5)]:
        book = generate_codebook(c, size, length, seed)
        for row in sorted({0, size // 2, size - 1}):
            assert np.array_equal(codebook_row(c, length, seed, row),
                                  book.symbols[row]), (size, length, row)


def test_codebook_row_contract():
    c = make_constellation(4)
    with pytest.raises(ValueError):
        codebook_row(c, 0, seed=1, row=0)
    with pytest.raises(ValueError):
        codebook_row(c, 8, seed=1, row=-1)


def test_codebooks_refuse_orders_past_32_bits():
    # numpy draws such a range from 64-bit words, and the 32-bit rule would
    # reject every word and never return
    c = PskConstellation(order=(1 << 32) + 1, points=np.empty(0))
    with pytest.raises(ValueError):
        generate_codebook(c, 2, 2, seed=3)
    with pytest.raises(ValueError):
        codebook_row(c, 2, seed=3, row=1)


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
