import math

import numpy as np
import pytest

from rtgmi.utils import (binomial_halfwidth, complex_normal, derive_seed,
                         log_mean_exp)


def test_derive_seed_range_and_determinism():
    a = derive_seed(12345, 7)
    assert a == derive_seed(12345, 7)
    assert 0 <= a < 2 ** 64
    # distinct indices map to distinct streams for a fixed master seed
    seen = {derive_seed(99, i) for i in range(1000)}
    assert len(seen) == 1000


def test_derive_seed_zero_index_mixes_nothing():
    assert derive_seed(42, 0) == 42


def test_complex_normal_moments():
    rng = np.random.default_rng(5)
    z = complex_normal(rng, 200_000)
    assert abs(np.mean(z)) < 0.01
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
    # circular symmetry: E[z^2] = 0
    assert abs(np.mean(z ** 2)) < 0.01


def test_complex_normal_prefix_stable():
    # drawing n samples then extending the same stream reproduces the prefix
    a = complex_normal(np.random.default_rng(3), 100)
    b = complex_normal(np.random.default_rng(3), 5000)
    assert np.array_equal(a, b[:100])


def test_complex_normal_is_the_complex_quotient():
    # the one-pass scaling gives the bits of the complex division it replaced
    z = np.random.default_rng(13).standard_normal((100_003, 2))
    want = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)
    assert np.array_equal(complex_normal(np.random.default_rng(13), 100_003),
                          want)


@pytest.mark.parametrize("width", [1, 2, 1001])
@pytest.mark.parametrize("rows", [2, 4, 8, 16])
def test_log_mean_exp_adds_the_rows_in_index_order(rows, width):
    # numpy adds the rows of a wider table one after another, but would sum
    # a single column pairwise from eight rows on; the table goes in blocks
    # of `width` columns
    a = np.random.default_rng(rows).standard_normal((rows, 1001)) * 30.0
    top = a.max(axis=0)
    e = np.exp(a - top)
    acc = e[0].copy()
    for j in range(1, rows):
        acc += e[j]
    got = np.concatenate([log_mean_exp(a[:, k:k + width], top[k:k + width])
                          for k in range(0, 1001, width)])
    assert np.array_equal(got, top + np.log(acc))


def test_log_mean_exp_does_not_overflow():
    # exp(800) overflows a float64; shifting by the column maximum does not
    a = np.array([[800.0, -900.0], [800.0 - math.log(3.0), -900.0]])
    got = log_mean_exp(a, a.max(axis=0)) - math.log(2.0)
    assert np.all(np.isfinite(got))
    assert got == pytest.approx([800.0 + math.log(2.0 / 3.0), -900.0],
                                rel=1e-15)


def test_binomial_halfwidth_hand_values():
    # z * sqrt(p(1-p)/n) with the Wilson-free plain normal approximation
    assert binomial_halfwidth(0.5, 100) == pytest.approx(1.96 * 0.05)
    assert binomial_halfwidth(0.0, 100) > 0.0   # never reports certainty
    assert binomial_halfwidth(1.0, 50) > 0.0
